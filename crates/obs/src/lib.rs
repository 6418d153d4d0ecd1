//! # hdsj-obs — structured tracing and metrics for the join workspace
//!
//! The paper this workspace reproduces is a *performance evaluation*: its
//! contribution is measuring where similarity-join time and I/O go. This
//! crate is the measurement substrate — a deliberately small span / counter
//! / gauge model with pluggable sinks, no external dependencies, and a
//! hand-rolled JSONL codec so it builds in fully offline environments.
//!
//! * [`Tracer`] — a cheap-to-clone handle. A disabled tracer (the default)
//!   costs one branch per operation, so the algorithms thread it through
//!   unconditionally.
//! * [`Span`] — an RAII guard for a named, timed region. Spans nest via
//!   [`Span::child`], carry typed attributes, and record themselves to the
//!   sink when finished (or dropped).
//! * [`Counter`] — a named `AtomicU64` from the tracer's registry; clones
//!   share the cell, so concurrent increments from worker threads are
//!   exact. [`Tracer::flush`] emits final values as counter events.
//! * Sinks: [`JsonlSink`] (one JSON object per line, schema below),
//!   [`MemorySink`] (for tests), and the implicit null sink of a disabled
//!   tracer. The [`report`] module parses the JSONL back and renders a
//!   flamegraph-style phase tree.
//!
//! ## JSONL schema
//!
//! ```json
//! {"t":"span","id":2,"parent":1,"name":"sort","start_us":120,"dur_us":4567,"attrs":{"records":10000}}
//! {"t":"counter","name":"pool.hits","value":913}
//! {"t":"gauge","name":"filter.precision","value":0.42}
//! {"t":"hist","name":"pool.read_ns","count":12,"sum":48000,"min":900,"max":9000,"buckets":[[10,7],[14,5]]}
//! ```
//!
//! `id` is unique per tracer; `parent` is absent (or `null`) for root
//! spans; `start_us` is microseconds since the tracer's epoch; attribute
//! values are unsigned integers, floats, or strings. Histogram `buckets`
//! are sparse `[bucket_index, count]` pairs over the fixed log₂ layout of
//! [`hist::bucket_index`].
//!
//! Counters, gauges, and histograms all live in the tracer's
//! [`MetricsRegistry`]; [`Tracer::metrics_snapshot`] returns them as one
//! typed struct and [`MetricsSnapshot::to_prometheus`] renders the
//! text exposition served by `hdsj stats --format prom`.
#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod metrics;
pub mod names;
pub mod report;

pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{MetricsRegistry, MetricsSnapshot};

use std::borrow::Cow;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Locks `m`, recovering the data if a panicking thread poisoned it.
/// Every mutex in this crate guards state that stays valid under partial
/// updates (an event vector, a name→cell map, an optional tracer), so
/// after a panic elsewhere observability keeps working — better a
/// truncated trace than a second panic while unwinding.
fn lock_recover<T: ?Sized>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A typed attribute value attached to a span.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    U64(u64),
    F64(f64),
    Str(String),
}

/// The span attribute key that carries a [`PhaseClass`].
pub const PHASE_ATTR: &str = "phase";

/// Cost class of a span, after the paper's CPU/I-O decomposition of each
/// join phase (§6 of the evaluation splits every algorithm's time this
/// way). `Wait` covers time blocked on other workers — the class the
/// paper folds into CPU but a parallel implementation must separate.
///
/// Attached to spans as the string attribute [`PHASE_ATTR`]; children
/// without their own class inherit the nearest classed ancestor's in
/// `trace-report --phases`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PhaseClass {
    Cpu,
    Io,
    Wait,
}

impl PhaseClass {
    pub fn as_str(self) -> &'static str {
        match self {
            PhaseClass::Cpu => "cpu",
            PhaseClass::Io => "io",
            PhaseClass::Wait => "wait",
        }
    }

    /// The class encoded by a `phase` attribute value, if recognized.
    pub fn parse(s: &str) -> Option<PhaseClass> {
        match s {
            "cpu" => Some(PhaseClass::Cpu),
            "io" => Some(PhaseClass::Io),
            "wait" => Some(PhaseClass::Wait),
            _ => None,
        }
    }
}

impl std::fmt::Display for PhaseClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A completed span, as delivered to sinks and read back by the report
/// parser.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    /// Microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    pub attrs: Vec<(String, AttrValue)>,
}

/// A counter's final value, emitted by [`Tracer::flush`].
#[derive(Clone, Debug, PartialEq)]
pub struct CounterEvent {
    pub name: String,
    pub value: u64,
}

/// A point-in-time measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct GaugeEvent {
    pub name: String,
    pub value: f64,
}

/// A histogram's final state, emitted by [`Tracer::flush`]. Buckets are
/// sparse `(bucket_index, count)` pairs over the fixed log₂ layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistEvent {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl HistEvent {
    /// This event's distribution as a dense snapshot.
    pub fn to_snapshot(&self) -> Result<HistogramSnapshot, String> {
        HistogramSnapshot::from_sparse(self.count, self.sum, self.min, self.max, &self.buckets)
    }

    /// The flush-time encoding of `snap` under `name`.
    pub fn from_snapshot(name: impl Into<String>, snap: &HistogramSnapshot) -> HistEvent {
        HistEvent {
            name: name.into(),
            count: snap.count,
            sum: snap.sum,
            min: snap.min,
            max: snap.max,
            buckets: snap.sparse_buckets(),
        }
    }
}

/// Everything a sink can receive.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    Span(SpanEvent),
    Counter(CounterEvent),
    Gauge(GaugeEvent),
    Hist(HistEvent),
}

/// Receives trace events. Implementations must be internally synchronized:
/// spans finish on whatever thread holds them.
pub trait TraceSink: Send + Sync {
    fn record(&self, event: &Event);

    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}
}

/// Writes one JSON object per event line to a buffered file.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &Event) {
        let line = json::encode_event(event);
        let mut out = lock_recover(&self.out);
        // A failed trace write must never fail the traced join.
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let _ = lock_recover(&self.out).flush();
    }
}

/// Collects events in memory; the test-facing sink.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// A shared handle suitable for `Tracer::with_sink`.
    pub fn shared() -> Arc<MemorySink> {
        Arc::new(MemorySink::default())
    }

    /// A snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        lock_recover(&self.events).clone()
    }

    /// All recorded spans, in completion order.
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Span(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    /// All recorded counter events.
    pub fn counters(&self) -> Vec<CounterEvent> {
        self.events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Counter(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    /// The value of the named counter event, if one was recorded.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters()
            .into_iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// All recorded histogram events.
    pub fn hists(&self) -> Vec<HistEvent> {
        self.events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Hist(h) => Some(h),
                _ => None,
            })
            .collect()
    }

    /// The named histogram event's distribution, if one was recorded and
    /// is internally consistent.
    pub fn hist_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        self.hists()
            .into_iter()
            .find(|h| h.name == name)
            .and_then(|h| h.to_snapshot().ok())
    }
}

impl TraceSink for Arc<MemorySink> {
    fn record(&self, event: &Event) {
        lock_recover(&self.events).push(event.clone());
    }
}

struct TracerInner {
    epoch: Instant,
    next_id: AtomicU64,
    sink: Box<dyn TraceSink>,
    metrics: MetricsRegistry,
}

/// Handle to a trace session. Cloning is cheap (an `Arc` bump); all clones
/// share the sink, the span-id allocator, and the counter registry.
///
/// The default tracer is disabled: every operation short-circuits, so code
/// can be instrumented unconditionally.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// The no-op tracer.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer recording into the given sink.
    pub fn with_sink<S: TraceSink + 'static>(sink: S) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                sink: Box::new(sink),
                metrics: MetricsRegistry::default(),
            })),
        }
    }

    /// A tracer writing JSONL to `path`.
    pub fn jsonl<P: AsRef<Path>>(path: P) -> std::io::Result<Tracer> {
        Ok(Tracer::with_sink(JsonlSink::create(path)?))
    }

    /// A tracer backed by an in-memory sink, returned alongside it.
    pub fn memory() -> (Tracer, Arc<MemorySink>) {
        let sink = MemorySink::shared();
        (Tracer::with_sink(Arc::clone(&sink)), sink)
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a root span. The name may be built at run time (the join
    /// driver's `<algo>.join`); a literal costs nothing.
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> Span {
        self.start_span(name.into(), None)
    }

    fn start_span(&self, name: Cow<'static, str>, parent: Option<u64>) -> Span {
        let id = self
            .inner
            .as_ref()
            .map(|inner| inner.next_id.fetch_add(1, Ordering::Relaxed))
            .unwrap_or(0);
        Span {
            tracer: self.clone(),
            id,
            parent,
            name,
            started: Instant::now(),
            attrs: Vec::new(),
            finished: false,
        }
    }

    /// The named counter from the shared registry, creating it at zero on
    /// first use. All handles to one name share the same atomic cell.
    /// Counters on a disabled tracer still count (into a private cell) but
    /// are never emitted.
    pub fn counter(&self, name: impl Into<String>) -> Counter {
        match &self.inner {
            None => Counter {
                cell: Arc::new(AtomicU64::new(0)),
            },
            Some(inner) => Counter {
                cell: inner.metrics.counter_cell(name),
            },
        }
    }

    /// Records a point-in-time measurement immediately and remembers its
    /// latest value in the registry.
    pub fn gauge(&self, name: impl Into<String>, value: f64) {
        if let Some(inner) = &self.inner {
            let name = name.into();
            inner.metrics.set_gauge(name.clone(), value);
            inner.sink.record(&Event::Gauge(GaugeEvent { name, value }));
        }
    }

    /// The named histogram from the shared registry, created empty on
    /// first use. All handles to one name share the same sharded cells.
    /// A disabled tracer returns a private histogram that still records
    /// but is never emitted — the same contract as [`Tracer::counter`].
    pub fn histogram(&self, name: impl Into<String>) -> Arc<Histogram> {
        match &self.inner {
            None => Arc::new(Histogram::new()),
            Some(inner) => inner.metrics.histogram(name),
        }
    }

    /// Current values of all registered counters, sorted by name.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.metrics.snapshot().counters,
        }
    }

    /// Current values of every registered metric (counters, gauges,
    /// histograms), sorted by name within each kind.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(inner) => inner.metrics.snapshot(),
        }
    }

    /// Emits every registered counter's current value as a counter event
    /// and every non-empty histogram as a hist event, then flushes the
    /// sink. Call once at the end of a traced run. (Gauges were already
    /// emitted when set.)
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            let snap = inner.metrics.snapshot();
            for (name, value) in snap.counters {
                inner
                    .sink
                    .record(&Event::Counter(CounterEvent { name, value }));
            }
            for (name, hist) in snap.hists {
                if !hist.is_empty() {
                    inner
                        .sink
                        .record(&Event::Hist(HistEvent::from_snapshot(name, &hist)));
                }
            }
            inner.sink.flush();
        }
    }

    fn micros_since_epoch(&self, at: Instant) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => at.saturating_duration_since(inner.epoch).as_micros() as u64,
        }
    }

    fn record(&self, event: &Event) {
        if let Some(inner) = &self.inner {
            inner.sink.record(event);
        }
    }
}

/// RAII guard for a named, timed region. Records itself on [`Span::finish`]
/// or on drop; nested regions come from [`Span::child`].
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    id: u64,
    parent: Option<u64>,
    name: Cow<'static, str>,
    started: Instant,
    attrs: Vec<(String, AttrValue)>,
    finished: bool,
}

impl Span {
    /// Starts a child span of this one.
    pub fn child(&self, name: &'static str) -> Span {
        self.tracer
            .start_span(name.into(), self.tracer.enabled().then_some(self.id))
    }

    /// This span's id (0 on a disabled tracer).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Time since the span started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Attaches an integer attribute.
    pub fn attr_u64(&mut self, key: impl Into<String>, value: u64) {
        if self.tracer.enabled() {
            self.attrs.push((key.into(), AttrValue::U64(value)));
        }
    }

    /// Attaches a float attribute.
    pub fn attr_f64(&mut self, key: impl Into<String>, value: f64) {
        if self.tracer.enabled() {
            self.attrs.push((key.into(), AttrValue::F64(value)));
        }
    }

    /// Attaches a string attribute.
    pub fn attr_str(&mut self, key: impl Into<String>, value: impl Into<String>) {
        if self.tracer.enabled() {
            self.attrs.push((key.into(), AttrValue::Str(value.into())));
        }
    }

    /// Classifies this span's cost as CPU, I/O, or wait time for
    /// `trace-report --phases`. Children inherit the class unless they set
    /// their own.
    pub fn set_phase(&mut self, class: PhaseClass) {
        self.attr_str(PHASE_ATTR, class.as_str());
    }

    /// Ends the span, records it, and returns its wall-clock duration —
    /// the hook by which spans subsume the older `PhaseTimer`.
    pub fn finish(mut self) -> Duration {
        let elapsed = self.record_now();
        self.finished = true;
        elapsed
    }

    fn record_now(&mut self) -> Duration {
        let elapsed = self.started.elapsed();
        if self.tracer.enabled() {
            self.tracer.record(&Event::Span(SpanEvent {
                id: self.id,
                parent: self.parent,
                name: std::mem::take(&mut self.name).into_owned(),
                start_us: self.tracer.micros_since_epoch(self.started),
                dur_us: elapsed.as_micros() as u64,
                attrs: std::mem::take(&mut self.attrs),
            }));
        }
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.finished {
            self.record_now();
        }
    }
}

/// A named atomic counter. Clones share the cell, so increments from many
/// threads aggregate exactly.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Process-global tracer.
//
// Free functions (the `hdsj-data` generators) have no struct to hang a
// tracer on; they read this instead. The CLI installs its tracer here so
// one `--trace` flag covers the whole process.

static GLOBAL: Mutex<Option<Tracer>> = Mutex::new(None);

/// Installs `tracer` as the process-global tracer (replacing any previous
/// one).
pub fn set_global(tracer: Tracer) {
    *lock_recover(&GLOBAL) = Some(tracer);
}

/// The process-global tracer; disabled unless [`set_global`] was called.
pub fn global() -> Tracer {
    lock_recover(&GLOBAL).clone().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_costs_little() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let mut sp = t.span("root");
        sp.attr_u64("n", 1);
        let child = sp.child("inner");
        drop(child);
        sp.finish();
        t.counter("x").add(5);
        t.gauge("g", 1.0);
        t.flush();
        assert!(t.counter_snapshot().is_empty());
    }

    #[test]
    fn spans_nest_and_record_on_finish_or_drop() {
        let (t, sink) = Tracer::memory();
        let mut root = t.span("join");
        root.attr_str("algo", "MSJ");
        {
            let child = root.child("sort");
            drop(child); // recorded by Drop
        }
        let root_id = root.id();
        root.finish();

        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        // Children finish (and record) before their parents.
        assert_eq!(spans[0].name, "sort");
        assert_eq!(spans[0].parent, Some(root_id));
        assert_eq!(spans[1].name, "join");
        assert_eq!(spans[1].parent, None);
        assert_eq!(
            spans[1].attrs,
            vec![("algo".to_string(), AttrValue::Str("MSJ".to_string()))]
        );
        assert!(spans[1].dur_us >= spans[0].dur_us);
    }

    #[test]
    fn counter_handles_share_one_cell() {
        let (t, sink) = Tracer::memory();
        let a = t.counter("pairs");
        let b = t.counter("pairs");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        t.flush();
        assert_eq!(sink.counter_value("pairs"), Some(7));
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn concurrent_counter_increments_are_exact() {
        let (t, _sink) = Tracer::memory();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = t.counter("hot");
                s.spawn(move || {
                    for _ in 0..per_thread {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(t.counter("hot").get(), threads * per_thread);
    }

    #[test]
    fn gauges_record_immediately_and_register_latest_value() {
        let (t, sink) = Tracer::memory();
        t.gauge("precision", 0.25);
        let events = sink.events();
        assert_eq!(
            events,
            vec![Event::Gauge(GaugeEvent {
                name: "precision".to_string(),
                value: 0.25
            })]
        );
        t.gauge("precision", 0.5);
        assert_eq!(
            t.metrics_snapshot().gauges,
            vec![("precision".to_string(), 0.5)]
        );
    }

    #[test]
    fn histogram_handles_share_cells_and_flush_emits_them() {
        let (t, sink) = Tracer::memory();
        let a = t.histogram("lat");
        let b = t.histogram("lat");
        a.record(100);
        b.record(200);
        t.histogram("registered.but.empty");
        t.flush();
        let hists = sink.hists();
        // Empty histograms are not emitted.
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].name, "lat");
        let snap = sink.hist_snapshot("lat").unwrap();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 300);
        assert_eq!(snap.min, 100);
        assert_eq!(snap.max, 200);
        assert_eq!(snap, t.metrics_snapshot().hist("lat").unwrap().clone());
    }

    #[test]
    fn disabled_tracer_histograms_record_privately() {
        let t = Tracer::disabled();
        let h = t.histogram("lat");
        h.record(7);
        assert_eq!(h.snapshot().count, 1);
        assert!(t.metrics_snapshot().is_empty());
        t.flush();
    }

    #[test]
    fn set_phase_attaches_the_phase_attribute() {
        let (t, sink) = Tracer::memory();
        let mut sp = t.span("sort");
        sp.set_phase(PhaseClass::Io);
        sp.finish();
        let spans = sink.spans();
        assert_eq!(
            spans[0].attrs,
            vec![(PHASE_ATTR.to_string(), AttrValue::Str("io".to_string()))]
        );
        assert_eq!(PhaseClass::parse("io"), Some(PhaseClass::Io));
        assert_eq!(PhaseClass::parse("gpu"), None);
    }

    #[test]
    fn global_tracer_round_trips() {
        // Serialized with other tests through the registry lock; keep the
        // installed tracer harmless (memory sink).
        let (t, _sink) = Tracer::memory();
        set_global(t);
        assert!(global().enabled());
        set_global(Tracer::disabled());
        assert!(!global().enabled());
    }
}
