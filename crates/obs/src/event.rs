//! Typed miss-event tracing.
//!
//! The first-order model decomposes CPI into a steady-state background
//! plus per-miss-event transient penalties (paper eq. 1). This module
//! is the observability counterpart of that decomposition: the
//! detailed simulator emits one [`TraceEvent`] per miss event — branch
//! mispredict, I-cache miss, long D-cache miss — carrying the dynamic
//! instruction index and the cycle extent of the transient, plus an
//! [`EventKind::IntervalBoundary`] marker closing the interval that
//! the event terminates. Consumers (the `fosm trace` subcommand, the
//! per-event validation diff, the Chrome exporter in
//! [`crate::chrome`]) later annotate each event with the analytical
//! model's predicted penalty for its class.
//!
//! # Cost model
//!
//! Tracing is **off by default** and must stay invisible when off:
//!
//! * The simulator reads no global. `Machine::run` never collects
//!   events; `Machine::run_traced` returns them to its caller.
//! * The artifact store asks [`trace_enabled`] — one relaxed atomic
//!   load — once per computed simulation. It keeps a run's events only
//!   when the sink is on or its caller asked for them, and the call
//!   that computes and inserts a simulation hands them to
//!   [`publish_events`] once, in one locked batch (miss events are
//!   rare by construction).
//! * The sink's buffer is a `Vec` in a plain `static`: nothing is
//!   allocated before the first publish.
//!
//! # Bounding and drop accounting
//!
//! The sink is bounded (the capacity given to [`enable_trace`],
//! default [`DEFAULT_CAPACITY`]). Once full, further events are
//! *dropped, not wrapped*: for interval attribution the oldest events
//! are the ones that anchor the timeline, and a truncated-tail trace
//! with an honest drop counter beats a silently rotated one. Drops are
//! counted and reported by the exporter.
//!
//! # Enabling
//!
//! Only the process boundary turns the sink on: `fosm` (its `--trace`
//! flag, else `FOSM_TRACE`) and the figure binaries' observability
//! session (the same, resolved with their other flags) call
//! [`enable_trace`] with the path and the capacity that
//! [`trace_capacity`] reads from `FOSM_TRACE_CAP`. [`flush_trace`]
//! writes the file at exit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Default event-sink capacity. At roughly one miss event
/// per 30 instructions on the paper benchmarks this holds the full
/// event stream of a ~30M-instruction run; longer runs drop the tail
/// and say so.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Parses a `FOSM_TRACE_CAP` environment value: `None` or an empty
/// string means "not set" (`Ok(None)`); a positive integer is the
/// capacity; anything else — zero (which would drop every event),
/// non-numeric text, a value that overflows `usize` — is a structured
/// error naming the problem, so callers can warn instead of silently
/// mis-sizing the buffer.
pub fn parse_trace_cap(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    let raw = raw.trim();
    if raw.is_empty() {
        return Ok(None);
    }
    match raw.parse::<usize>() {
        Ok(0) => Err("capacity 0 would drop every event".to_string()),
        Ok(cap) => Ok(Some(cap)),
        Err(e) => Err(format!("`{raw}` is not a valid event count: {e}")),
    }
}

/// The sink's capacity from a `FOSM_TRACE_CAP` value: the parsed
/// count, or [`DEFAULT_CAPACITY`] when unset. A malformed value is
/// reported on stderr and falls back to the default rather than
/// silently mis-sizing (or, for `0`, emptying) the trace.
pub fn trace_capacity(raw: Option<&str>) -> usize {
    parse_trace_cap(raw)
        .unwrap_or_else(|why| {
            eprintln!(
                "warning: ignoring FOSM_TRACE_CAP ({why}); \
                 using the default capacity of {DEFAULT_CAPACITY} events"
            );
            None
        })
        .unwrap_or(DEFAULT_CAPACITY)
}

/// The classes of miss event the simulator distinguishes, mirroring
/// the model's CPI decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A mispredicted conditional branch: the front-end fetched down
    /// the wrong path from `start` until the branch resolved and the
    /// refilled pipeline reached the window again at `end`.
    BranchMispredict,
    /// An instruction-fetch miss: fetch stalled from `start` to `end`;
    /// `delta` is the miss delay charged (L2 or memory latency).
    ICacheMiss,
    /// A load that missed to main memory: issued at `start`, data back
    /// at `end`. Overlapping long misses each get their own event.
    LongDCacheMiss,
    /// Closes the interval ending at this miss event: `start`/`end`
    /// span the interval's cycles, `inst` is the cumulative retired
    /// instruction count at the boundary.
    IntervalBoundary,
}

impl EventKind {
    /// All kinds, in track order.
    pub const ALL: [EventKind; 4] = [
        EventKind::BranchMispredict,
        EventKind::ICacheMiss,
        EventKind::LongDCacheMiss,
        EventKind::IntervalBoundary,
    ];

    /// Stable lowercase name (used in exports and tables).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::BranchMispredict => "branch_mispredict",
            EventKind::ICacheMiss => "icache_miss",
            EventKind::LongDCacheMiss => "long_dcache_miss",
            EventKind::IntervalBoundary => "interval",
        }
    }

    /// Track index for trace viewers (one lane per event class).
    pub fn track(self) -> u64 {
        match self {
            EventKind::BranchMispredict => 1,
            EventKind::ICacheMiss => 2,
            EventKind::LongDCacheMiss => 3,
            EventKind::IntervalBoundary => 4,
        }
    }
}

/// One traced miss event (or interval boundary).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Event class.
    pub kind: EventKind,
    /// Dynamic instruction index the event is attributed to (fetch
    /// sequence number; cumulative retired count for boundaries).
    pub inst: u64,
    /// First cycle of the transient (inclusive).
    pub start: u64,
    /// Cycle at which the transient resolves (exclusive).
    pub end: u64,
    /// Miss delay charged by the machine, in cycles (L2/memory latency
    /// for cache events; 0 where not applicable).
    pub delta: u64,
    /// The analytical model's predicted penalty for this event's
    /// class, in cycles. The simulator cannot know it and records
    /// `NaN`; consumers annotate it via
    /// [`annotate`](fn@crate::event::TraceEvent::annotate)d copies.
    pub predicted: f64,
}

impl TraceEvent {
    /// A fresh, un-annotated event (predicted penalty = `NaN`).
    pub fn new(kind: EventKind, inst: u64, start: u64, end: u64, delta: u64) -> Self {
        TraceEvent {
            kind,
            inst,
            start,
            end,
            delta,
            predicted: f64::NAN,
        }
    }

    /// The event's cycle extent (`end - start`, saturating).
    pub fn extent(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// A copy carrying the model's predicted penalty.
    pub fn annotate(mut self, predicted: f64) -> Self {
        self.predicted = predicted;
        self
    }

    /// Deterministic ordering key: by onset, then extent, then
    /// instruction, then track. Thread-count independent because the
    /// simulator itself is.
    pub fn sort_key(&self) -> (u64, u64, u64, u64) {
        (self.start, self.end, self.inst, self.kind.track())
    }
}

/// The process's event sink: off until [`enable_trace`].
static SINK: Tracer = Tracer::new();

/// Turns the process's event sink on: published events are buffered,
/// up to `capacity`, and [`flush_trace`] writes them to `path`.
pub fn enable_trace(path: PathBuf, capacity: usize) {
    SINK.enable(path, capacity);
}

/// Whether the process's event sink is on. One relaxed atomic load.
#[inline]
pub fn trace_enabled() -> bool {
    SINK.enabled()
}

/// Copies one simulation's events into the process's event sink; does
/// nothing while the sink is off.
pub fn publish_events(events: &[TraceEvent]) {
    SINK.record_batch(events);
}

/// Drains the process's event sink into a Chrome trace-event JSON file
/// at the path it was enabled with, and adds `trace.events` /
/// `trace.dropped` to the global registry so the run manifest accounts
/// for the trace. Does nothing while the sink is off; a write failure
/// is reported on stderr, never panicked on. Call once, at the end of
/// `main`.
pub fn flush_trace() {
    let Some(path) = SINK.path() else {
        return;
    };
    let (events, dropped) = SINK.take();
    crate::counter_add("trace.events", events.len() as u64);
    crate::counter_add("trace.dropped", dropped);
    let json = crate::chrome::export(&events, dropped);
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!(
            "warning: cannot write miss-event trace {}: {e}",
            path.display()
        );
    }
}

/// A bounded event buffer: the process's sink, or a unit test's own.
#[derive(Debug)]
struct Tracer {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
    path: Option<PathBuf>,
}

impl Tracer {
    /// A disabled, empty tracer; allocates nothing.
    const fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(Inner {
                events: Vec::new(),
                capacity: DEFAULT_CAPACITY,
                dropped: 0,
                path: None,
            }),
        }
    }

    fn enable(&self, path: PathBuf, capacity: usize) {
        let mut inner = self.inner.lock().expect("tracer lock");
        inner.path = Some(path);
        inner.capacity = capacity;
        self.enabled.store(true, Ordering::Relaxed);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The export path; set exactly when enabled.
    fn path(&self) -> Option<PathBuf> {
        self.inner.lock().expect("tracer lock").path.clone()
    }

    /// Copies `batch` into the buffer while enabled. Events past
    /// capacity are dropped and counted.
    fn record_batch(&self, batch: &[TraceEvent]) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("tracer lock");
        let take = batch
            .len()
            .min(inner.capacity.saturating_sub(inner.events.len()));
        inner.dropped += (batch.len() - take) as u64;
        inner.events.extend_from_slice(&batch[..take]);
    }

    /// Drains the buffer: its events, and the number dropped since the
    /// last drain.
    fn take(&self) -> (Vec<TraceEvent>, u64) {
        let mut inner = self.inner.lock().expect("tracer lock");
        let dropped = std::mem::take(&mut inner.dropped);
        (std::mem::take(&mut inner.events), dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_cap_zero_is_a_structured_error() {
        let err = parse_trace_cap(Some("0")).unwrap_err();
        assert!(err.contains("drop every event"), "{err}");
    }

    #[test]
    fn trace_cap_non_numeric_is_a_structured_error() {
        for bad in ["lots", "1e6", "-3", "0x100"] {
            let err = parse_trace_cap(Some(bad)).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn trace_cap_absent_or_valid_values_parse() {
        assert_eq!(parse_trace_cap(None), Ok(None));
        assert_eq!(parse_trace_cap(Some("")), Ok(None));
        assert_eq!(parse_trace_cap(Some("  ")), Ok(None));
        assert_eq!(parse_trace_cap(Some("4096")), Ok(Some(4096)));
        assert_eq!(parse_trace_cap(Some(" 17 ")), Ok(Some(17)));
    }

    fn ev(inst: u64) -> TraceEvent {
        TraceEvent::new(
            EventKind::BranchMispredict,
            inst,
            inst * 10,
            inst * 10 + 5,
            0,
        )
    }

    #[test]
    fn trace_capacity_falls_back_to_the_default() {
        assert_eq!(trace_capacity(None), DEFAULT_CAPACITY);
        assert_eq!(trace_capacity(Some("0")), DEFAULT_CAPACITY);
        assert_eq!(trace_capacity(Some("4096")), 4096);
    }

    #[test]
    fn disabled_by_default_and_extent_saturates() {
        let t = Tracer::new();
        assert!(!t.enabled());
        t.record_batch(&[ev(1)]);
        assert_eq!(t.take(), (Vec::new(), 0));
        assert_eq!(t.path(), None);
        let e = TraceEvent::new(EventKind::ICacheMiss, 1, 9, 3, 0);
        assert_eq!(e.extent(), 0);
        assert!(e.predicted.is_nan());
        assert_eq!(e.annotate(2.5).predicted, 2.5);
    }

    #[test]
    fn batch_respects_capacity_with_drop_accounting() {
        let t = Tracer::new();
        t.enable(PathBuf::from("a.json"), 3);
        assert_eq!(t.path(), Some(PathBuf::from("a.json")));
        let batch: Vec<TraceEvent> = (0..5).map(ev).collect();
        t.record_batch(&batch);
        let insts = |(events, dropped): (Vec<TraceEvent>, u64)| {
            (events.iter().map(|e| e.inst).collect::<Vec<_>>(), dropped)
        };
        assert_eq!(insts(t.take()), (vec![0, 1, 2], 2));
        // Drained: counters reset, buffer reusable.
        assert_eq!(insts(t.take()), (vec![], 0));
        t.record_batch(&batch[..1]);
        assert_eq!(insts(t.take()), (vec![0], 0));
    }

    #[test]
    fn sort_key_orders_by_onset_first() {
        let a = TraceEvent::new(EventKind::LongDCacheMiss, 7, 100, 400, 200);
        let b = TraceEvent::new(EventKind::BranchMispredict, 3, 120, 140, 0);
        assert!(a.sort_key() < b.sort_key());
    }
}
