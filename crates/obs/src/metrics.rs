//! The named-metric registry behind a [`crate::Tracer`]: counters, gauges,
//! and histograms, each shared by name, plus a typed [`MetricsSnapshot`]
//! and a Prometheus text exposition.
//!
//! This is the object a serving layer exposes per query (`hdsj stats
//! --format prom` renders it from a trace file today; `hdsj serve` will
//! render it live). Metric *names* are governed by [`crate::names`],
//! exactly as counters always were.

use crate::hist::{bucket_upper, Histogram, HistogramSnapshot};
use crate::{json, lock_recover};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared storage for every named metric a tracer owns. All maps are
/// name-keyed `BTreeMap`s so snapshots iterate in one deterministic order.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// The named counter cell, created at zero on first use.
    pub fn counter_cell(&self, name: impl Into<String>) -> Arc<AtomicU64> {
        let mut map = lock_recover(&self.counters);
        Arc::clone(
            map.entry(name.into())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Sets a gauge to its latest value.
    pub fn set_gauge(&self, name: impl Into<String>, value: f64) {
        lock_recover(&self.gauges).insert(name.into(), value);
    }

    /// The named histogram, created empty on first use. All handles to one
    /// name share the same sharded cells.
    pub fn histogram(&self, name: impl Into<String>) -> Arc<Histogram> {
        let mut map = lock_recover(&self.hists);
        Arc::clone(
            map.entry(name.into())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Current values of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock_recover(&self.counters)
                .iter()
                .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
                .collect(),
            gauges: lock_recover(&self.gauges)
                .iter()
                .map(|(name, v)| (name.clone(), *v))
                .collect(),
            hists: lock_recover(&self.hists)
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time view of a [`MetricsRegistry`] (or of the metric events
/// in a parsed trace file), sorted by name within each kind.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub hists: Vec<(String, HistogramSnapshot)>,
}

/// A metric name as a Prometheus metric family name: `hdsj_` + the dotted
/// name with `.` → `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("hdsj_");
    for c in name.chars() {
        out.push(match c {
            '.' => '_',
            c if c.is_ascii_alphanumeric() || c == '_' => c,
            _ => '_',
        });
    }
    out
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// The named histogram snapshot, if present.
    pub fn hist(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Prometheus text exposition (text format 0.0.4): counters and gauges
    /// as single samples, histograms as cumulative `_bucket{le=…}` series
    /// plus `_sum` / `_count`. Only non-empty buckets get an `le` sample
    /// (any subset of the fixed bucket bounds is a valid Prometheus
    /// histogram); `+Inf` always closes the series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} counter");
            let _ = writeln!(out, "{p} {value}");
        }
        for (name, value) in &self.gauges {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} gauge");
            let _ = writeln!(out, "{p} {}", json::encode_f64(*value));
        }
        for (name, snap) in &self.hists {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} histogram");
            let mut cumulative = 0u64;
            for (idx, c) in snap
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i, c))
            {
                cumulative += c;
                let _ = writeln!(
                    out,
                    "{p}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper(idx)
                );
            }
            let _ = writeln!(out, "{p}_bucket{{le=\"+Inf\"}} {}", snap.count);
            let _ = writeln!(out, "{p}_sum {}", snap.sum);
            let _ = writeln!(out, "{p}_count {}", snap.count);
        }
        out
    }

    /// A human-oriented rendering: one line per metric, histograms as
    /// count/mean/p50/p90/p99/max.
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<40} {value:>14}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<40} {value:>14.6}");
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (name, s) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {name:<40} n={:<8} mean={:<12.1} p50={:<10} p90={:<10} p99={:<10} max={}",
                    s.count,
                    s.mean(),
                    s.percentile(0.5),
                    s.percentile(0.9),
                    s.percentile(0.99),
                    s.max
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn registry_shares_cells_by_name() {
        let reg = MetricsRegistry::default();
        reg.counter_cell("pairs").fetch_add(3, Ordering::Relaxed);
        reg.counter_cell("pairs").fetch_add(4, Ordering::Relaxed);
        reg.set_gauge("rate", 0.5);
        reg.set_gauge("rate", 0.75);
        reg.histogram("lat").record(8);
        reg.histogram("lat").record(9);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("pairs".to_string(), 7)]);
        assert_eq!(snap.gauges, vec![("rate".to_string(), 0.75)]);
        assert_eq!(snap.hist("lat").unwrap().count, 2);
        assert_eq!(snap.hist("lat").unwrap().sum, 17);
        assert!(snap.hist("missing").is_none());
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let reg = MetricsRegistry::default();
        reg.counter_cell(names::POOL_HITS)
            .fetch_add(9, Ordering::Relaxed);
        reg.set_gauge(names::POOL_HIT_RATE, 0.9);
        let h = reg.histogram(names::POOL_READ_NS);
        h.record(3);
        h.record(900);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE hdsj_pool_hits counter"));
        assert!(text.contains("hdsj_pool_hits 9"));
        assert!(text.contains("# TYPE hdsj_pool_hit_rate gauge"));
        assert!(text.contains("hdsj_pool_hit_rate 0.9"));
        assert!(text.contains("# TYPE hdsj_pool_read_ns histogram"));
        // Cumulative buckets: value 3 lands in [2,3], 900 in [512,1023].
        assert!(
            text.contains("hdsj_pool_read_ns_bucket{le=\"3\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("hdsj_pool_read_ns_bucket{le=\"1023\"} 2"),
            "{text}"
        );
        assert!(text.contains("hdsj_pool_read_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("hdsj_pool_read_ns_sum 903"));
        assert!(text.contains("hdsj_pool_read_ns_count 2"));
    }

    #[test]
    fn human_rendering_summarizes_histograms() {
        let reg = MetricsRegistry::default();
        let h = reg.histogram(names::EXEC_CHUNK_NS);
        for v in 1..=100u64 {
            h.record(v);
        }
        let text = reg.snapshot().to_human();
        assert!(text.contains("exec.chunk_ns"), "{text}");
        assert!(text.contains("n=100"), "{text}");
        assert!(text.contains("max=100"), "{text}");
    }
}
