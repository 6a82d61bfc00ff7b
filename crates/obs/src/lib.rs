//! `fosm-obs` — zero-dependency structured observability.
//!
//! Every other crate in the workspace produces *results* (reports,
//! profiles, figures); this crate is where their *run metrics* go:
//! what was executed, how long each phase took, and how often each
//! cache, predictor, or memo table hit. It deliberately depends on
//! nothing — not even the vendored serde shims — so it can sit at the
//! bottom of the dependency graph and be instrumented into every
//! crate without cycles.
//!
//! Four primitives, all aggregated in a [`Registry`]:
//!
//! * **Counters** — named monotonic `u64` totals
//!   ([`Registry::counter_add`]). Naming scheme:
//!   `component.object.event`, e.g. `cache.l1d.misses`,
//!   `store.trace.hits`, `sim.retired`.
//! * **Gauges** — named `f64` point-in-time values
//!   ([`Registry::gauge_set`]), e.g. `report.wall_s`.
//! * **Histograms** — log2-bucketed value distributions
//!   ([`Registry::hist_record`]), e.g. `serve.total_us.profile`.
//!   Recording is lock-free relaxed atomics; see [`hist`] for the
//!   bucket layout and quantile error bound.
//! * **Spans** — hierarchical wall-clock timings ([`Registry::span`]).
//!   A span guard pushes its name onto a thread-local stack; nested
//!   guards produce `/`-joined paths (`report.table1/simulate`), and
//!   repeated executions of the same path aggregate into one
//!   `{count, total_ns}` entry.
//!
//! At the end of a run, [`emit`] assembles a [`Manifest`] (binary
//! name + registry snapshot) and hands it to the process-wide
//! [`Sink`]:
//!
//! * [`Sink::Noop`] (the default) — drop everything. The hot paths
//!   only touch local stats structs and flush into the registry at
//!   run boundaries, so the cost of the whole layer under the no-op
//!   sink is a handful of map inserts per *run*, not per instruction.
//! * [`Sink::Human`] — aligned key/value lines on stderr
//!   (`FOSM_METRICS=human`).
//! * [`Sink::Json`] — a single-line JSON run manifest on stderr
//!   (`FOSM_METRICS=json`), or to a file
//!   (`FOSM_METRICS=json:<path>`, or the figure binaries'
//!   `--metrics <path>` flag).
//!
//! Metrics never touch **stdout**: figure output stays byte-identical
//! at any thread count and under any sink.
//!
//! Beyond the aggregate registry, the [`event`] module adds *typed
//! miss-event tracing* — a bounded buffer of per-event records
//! (mispredicts, I-misses, long D-misses, interval boundaries) the
//! detailed simulator fills when `FOSM_TRACE`/`--trace` is set, and
//! [`chrome`] exports as Perfetto-loadable Chrome trace-event JSON.
//! Like the sinks, tracing is strictly opt-in: disabled, it costs one
//! atomic load per simulator run.
//!
//! # Examples
//!
//! ```
//! use fosm_obs::Registry;
//!
//! let r = Registry::new();
//! {
//!     let _outer = r.span("sweep");
//!     let _inner = r.span("resolve");
//!     r.counter_add("iw.instructions", 50_000);
//! }
//! let snap = r.snapshot();
//! assert_eq!(snap.counters["iw.instructions"], 50_000);
//! assert_eq!(snap.spans["sweep/resolve"].count, 1);
//! ```

#![forbid(unsafe_code)]

use std::sync::Arc;

pub mod chrome;
pub mod event;
pub mod hist;
pub mod json;
mod manifest;
mod registry;
mod scope;
mod sink;
mod span;

pub use event::{EventKind, TraceEvent, Tracer, TracerStats};
pub use hist::{Histogram, HistogramSnapshot};
pub use manifest::Manifest;
pub use registry::{Registry, Snapshot, SpanStat};
pub use scope::{scoped_registry, RegistryScope};
pub use sink::{set_sink, sink, Sink};
pub use span::{AdoptGuard, SpanGuard};

/// The process-wide registry the free functions below write to when no
/// [`scoped_registry`] override is installed on the calling thread.
pub fn global() -> &'static Registry {
    Registry::global()
}

/// Runs `f` on the current thread's registry: the innermost
/// [`scoped_registry`], or the global one. Bulk flushes at the end of
/// a profile or simulation use it, so a request's counters land in
/// that request's scope.
pub fn with_registry<T>(f: impl FnOnce(&Arc<Registry>) -> T) -> T {
    match scope::current() {
        Some(r) => f(&r),
        None => f(Registry::global_shared()),
    }
}

/// Adds `delta` to counter `name` in the current thread's registry.
pub fn counter_add(name: &str, delta: u64) {
    with_registry(|r| r.counter_add(name, delta));
}

/// Sets gauge `name` to `value` in the current thread's registry.
pub fn gauge_set(name: &str, value: f64) {
    with_registry(|r| r.gauge_set(name, value));
}

/// Records one observation into histogram `name` in the current
/// thread's registry. Hot loops recording into one histogram should
/// instead hold the handle from [`Registry::hist`] to skip the
/// per-call name lookup.
pub fn hist_record(name: &str, value: u64) {
    with_registry(|r| r.hist_record(name, value));
}

/// Records run metadata (config, seed, …) in the current thread's
/// registry.
pub fn meta_set(name: &str, value: impl std::fmt::Display) {
    with_registry(|r| r.meta_set(name, value));
}

/// Opens a span on the current thread's registry; the returned guard
/// records the elapsed wall-clock time when dropped. The guard shares
/// ownership of the registry, so it stays valid even if a scope is
/// popped first.
pub fn span(name: &str) -> SpanGuard<'static> {
    with_registry(|r| SpanGuard::begin_shared(Arc::clone(r), name))
}

/// The `/`-joined path of the spans open on the current thread, or
/// `None` outside any span. See [`adopt_span_parent`].
pub fn current_span_path() -> Option<String> {
    span::current_path()
}

/// Roots this thread's span stack under `parent` while the returned
/// guard lives, so spans opened on a worker thread aggregate under the
/// fan-out site's path (e.g. `report.table1/simulate`) instead of at
/// top level. The guard records no time of its own.
pub fn adopt_span_parent(parent: &str) -> AdoptGuard {
    span::adopt(parent)
}

/// The process-wide miss-event tracer (disabled unless `FOSM_TRACE`
/// is set or [`Tracer::enable_to`] was called). The simulator checks
/// `tracer().enabled()` once per run and flushes its run-local event
/// batch here.
pub fn tracer() -> &'static Tracer {
    Tracer::global()
}

/// Emits the global registry as a run manifest through the
/// process-wide sink. Call once, at the end of `main`.
///
/// Under [`Sink::Noop`] this returns immediately without even
/// snapshotting the registry. Emission failures (e.g. an unwritable
/// `--metrics` path) are reported on stderr, never panicked on.
pub fn emit(binary: &str) {
    let sink = sink();
    if sink == Sink::Noop {
        return;
    }
    let manifest = Manifest::new(binary, Registry::global().snapshot());
    if let Err(e) = sink.emit(&manifest) {
        eprintln!("fosm-obs: could not emit metrics: {e}");
    }
}

/// Writes the global miss-event tracer to the path it was enabled
/// with (`FOSM_TRACE` / `--trace`). Does nothing when tracing is off
/// or no path is bound; a write failure is reported on stderr, never
/// panicked on. Call once, at the end of `main`.
pub fn flush_trace() {
    let tracer = tracer();
    let Some(path) = tracer.path().filter(|_| tracer.enabled()) else {
        return;
    };
    if let Err(e) = tracer.flush_to_path(&path) {
        eprintln!(
            "warning: cannot write miss-event trace {}: {e}",
            path.display()
        );
    }
}
