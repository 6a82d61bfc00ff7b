//! The metric registry: named counters, gauges, metadata, and
//! aggregated span timings.

use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock, Mutex};

use crate::hist::{Histogram, HistogramSnapshot};
use crate::span::SpanGuard;

/// Aggregated timing of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Completed executions of this path.
    pub count: u64,
    /// Total wall-clock nanoseconds across all executions.
    pub total_ns: u64,
}

impl SpanStat {
    /// Mean nanoseconds per execution (0.0 before any completed).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// An immutable copy of a registry's contents, taken by
/// [`Registry::snapshot`]. `BTreeMap` keeps every view sorted by
/// name, so emitted manifests are stable run to run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Monotonic counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Last-written gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Run metadata (binary arguments, seed, thread count, …).
    pub meta: BTreeMap<String, String>,
    /// Aggregated span timings keyed by `/`-joined path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Histogram snapshots keyed by name.
    pub hists: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.meta.is_empty()
            && self.spans.is_empty()
            && self.hists.is_empty()
    }
}

/// A set of named metrics. Most code uses the process-wide
/// [`Registry::global`] through the crate-level free functions; tests
/// and embedders can keep private instances.
///
/// All methods take `&self` and are safe to call from any thread;
/// aggregation is a short critical section per call, which is why
/// instrumented crates flush *aggregated* stats at run boundaries
/// instead of counting per instruction here.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    meta: Mutex<BTreeMap<String, String>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub const fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            meta: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
        }
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        Registry::global_shared()
    }

    /// The process-wide registry, shareable like a scoped one.
    pub(crate) fn global_shared() -> &'static Arc<Registry> {
        static GLOBAL: LazyLock<Arc<Registry>> = LazyLock::new(|| Arc::new(Registry::new()));
        &GLOBAL
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut counters = self.counters.lock().expect("obs counters lock");
        match counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Current value of counter `name` (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("obs counters lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.gauges
            .lock()
            .expect("obs gauges lock")
            .insert(name.to_string(), value);
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .lock()
            .expect("obs gauges lock")
            .get(name)
            .copied()
    }

    /// Records run metadata `name = value` (last write wins).
    pub fn meta_set(&self, name: &str, value: impl std::fmt::Display) {
        self.meta
            .lock()
            .expect("obs meta lock")
            .insert(name.to_string(), value.to_string());
    }

    /// Opens a span named `name`, nested under any span already open
    /// on this thread. Dropping the guard records the elapsed time.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard::begin(self, name)
    }

    /// Folds `elapsed_ns` into the aggregate for span `path`.
    /// (Normally called by [`SpanGuard`]'s `Drop`.)
    pub fn record_span(&self, path: &str, elapsed_ns: u64) {
        let mut spans = self.spans.lock().expect("obs spans lock");
        let stat = spans.entry(path.to_string()).or_default();
        stat.count += 1;
        stat.total_ns = stat.total_ns.saturating_add(elapsed_ns);
    }

    /// The histogram named `name`, created empty on first use. The
    /// returned handle records lock-free, so hot loops should fetch it
    /// once instead of calling [`hist_record`](Self::hist_record) per
    /// observation.
    pub fn hist(&self, name: &str) -> Arc<Histogram> {
        let mut hists = self.hists.lock().expect("obs hists lock");
        Arc::clone(hists.entry(name.to_string()).or_default())
    }

    /// Records one observation into histogram `name` (creating it).
    pub fn hist_record(&self, name: &str, value: u64) {
        self.hist(name).record(value);
    }

    /// Snapshot of histogram `name`, or `None` if never recorded to.
    pub fn hist_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        self.hists
            .lock()
            .expect("obs hists lock")
            .get(name)
            .map(|h| h.snapshot())
    }

    /// Folds a snapshot of another registry into this one: counters
    /// span stats, and histograms accumulate, gauges and metadata take
    /// the snapshot's values (last write wins). A daemon uses this to
    /// aggregate finished per-request registries into its process-wide
    /// totals.
    pub fn absorb(&self, snap: &Snapshot) {
        {
            let mut hists = self.hists.lock().expect("obs hists lock");
            for (name, incoming) in &snap.hists {
                hists.entry(name.clone()).or_default().absorb(incoming);
            }
        }
        {
            let mut counters = self.counters.lock().expect("obs counters lock");
            for (name, delta) in &snap.counters {
                let slot = counters.entry(name.clone()).or_insert(0);
                *slot = slot.saturating_add(*delta);
            }
        }
        {
            let mut spans = self.spans.lock().expect("obs spans lock");
            for (path, stat) in &snap.spans {
                let slot = spans.entry(path.clone()).or_default();
                slot.count += stat.count;
                slot.total_ns = slot.total_ns.saturating_add(stat.total_ns);
            }
        }
        {
            let mut gauges = self.gauges.lock().expect("obs gauges lock");
            for (name, value) in &snap.gauges {
                gauges.insert(name.clone(), *value);
            }
        }
        let mut meta = self.meta.lock().expect("obs meta lock");
        for (name, value) in &snap.meta {
            meta.insert(name.clone(), value.clone());
        }
    }

    /// Copies the current contents out for emission or inspection.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.lock().expect("obs counters lock").clone(),
            gauges: self.gauges.lock().expect("obs gauges lock").clone(),
            meta: self.meta.lock().expect("obs meta lock").clone(),
            spans: self.spans.lock().expect("obs spans lock").clone(),
            hists: self
                .hists
                .lock()
                .expect("obs hists lock")
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Clears every table (used by tests sharing the global registry).
    pub fn reset(&self) {
        self.counters.lock().expect("obs counters lock").clear();
        self.gauges.lock().expect("obs gauges lock").clear();
        self.meta.lock().expect("obs meta lock").clear();
        self.spans.lock().expect("obs spans lock").clear();
        self.hists.lock().expect("obs hists lock").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = Registry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        r.counter_add("a", u64::MAX);
        assert_eq!(r.counter("a"), u64::MAX);
    }

    #[test]
    fn gauges_overwrite() {
        let r = Registry::new();
        assert_eq!(r.gauge("g"), None);
        r.gauge_set("g", 1.5);
        r.gauge_set("g", 2.5);
        assert_eq!(r.gauge("g"), Some(2.5));
    }

    #[test]
    fn meta_renders_via_display() {
        let r = Registry::new();
        r.meta_set("threads", 8);
        r.meta_set("bench", "gzip");
        let snap = r.snapshot();
        assert_eq!(snap.meta["threads"], "8");
        assert_eq!(snap.meta["bench"], "gzip");
    }

    #[test]
    fn snapshot_is_detached() {
        let r = Registry::new();
        r.counter_add("a", 1);
        let snap = r.snapshot();
        r.counter_add("a", 1);
        assert_eq!(snap.counters["a"], 1);
        assert_eq!(r.counter("a"), 2);
    }

    #[test]
    fn reset_empties_everything() {
        let r = Registry::new();
        r.counter_add("a", 1);
        r.gauge_set("g", 0.0);
        r.meta_set("m", "v");
        r.record_span("s", 10);
        r.hist_record("h", 5);
        assert!(!r.snapshot().is_empty());
        r.reset();
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn hists_record_and_snapshot() {
        let r = Registry::new();
        assert_eq!(r.hist_snapshot("lat"), None);
        r.hist_record("lat", 100);
        let handle = r.hist("lat");
        handle.record(200);
        let snap = r.hist_snapshot("lat").expect("recorded");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.min(), 100);
        assert_eq!(snap.max, 200);
        assert_eq!(r.snapshot().hists["lat"], snap);
    }

    #[test]
    fn absorb_merges_hists() {
        let daemon = Registry::new();
        daemon.hist_record("lat", 1);
        let request = Registry::new();
        request.hist_record("lat", 1 << 20);
        request.hist_record("other", 7);
        daemon.absorb(&request.snapshot());
        let lat = daemon.hist_snapshot("lat").expect("merged");
        assert_eq!(lat.count, 2);
        assert_eq!(lat.max, 1 << 20);
        assert_eq!(daemon.hist_snapshot("other").expect("created").count, 1);
    }

    #[test]
    fn span_stat_mean() {
        let mut s = SpanStat::default();
        assert_eq!(s.mean_ns(), 0.0);
        s.count = 4;
        s.total_ns = 100;
        assert!((s.mean_ns() - 25.0).abs() < 1e-12);
    }
}
