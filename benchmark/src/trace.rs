//! The harness's own spans: `{name, workload, start_ns, end_ns, parent}`
//! around set-up steps, each child process and each in-process probe.
//!
//! Spans are kept in memory and written once at exit. They come from the
//! benchmark's files only; spans inside the program are a later change
//! (ROADMAP items 1 and 5). A layer's self time is its span minus the part
//! its children cover.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    name: String,
    workload: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Handle returned by [`Trace::begin`], closed with [`Trace::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str, workload: &str) -> SpanId {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            workload: workload.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` and anything still open inside it (an early return on an
    /// error path must not leave children dangling). Returns its seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
        let span = &self.spans[id.0];
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Each span's duration minus its direct children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    pub fn to_json(&self) -> Json {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name.as_str())),
                    ("workload", Json::str(s.workload.as_str())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Trace::new();
        let root = t.begin("workload", "w");
        let a = t.begin("setup", "w");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let b = t.begin("join", "w");
        let _dangling = t.begin("inner", "w");
        // Ending `b` closes the span left open inside it.
        assert!(t.end(b) >= 0.0);
        assert!(t.end(root) >= 0.002);
        assert!(t.open.is_empty());

        let parents: Vec<Option<usize>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        let own = t.self_ns();
        let dur = |i: usize| t.spans[i].end_ns - t.spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert_eq!(own[1], dur(1));

        let json = t.to_json();
        let spans = json.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].get("name").and_then(Json::as_str), Some("setup"));
        assert_eq!(spans[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }
}
