//! Request-lifecycle telemetry: phase histograms + flight recorder.
//!
//! The daemon's `Stats` response is a point-in-time key/value dump —
//! totals, no distributions, no per-request attribution. This module
//! is the diagnosable counterpart, applying the paper's discipline of
//! attributing cycles to discrete penalty events to the service
//! itself: every request's wall-clock is decomposed into disjoint
//! phases and stamped into per-request-kind histograms, and the last N
//! requests are kept verbatim in a bounded **flight recorder** so a
//! slow or failed request can be inspected after the fact.
//!
//! Phase definitions (all microseconds, per request):
//!
//! * `queue_us` — the wait for a FIFO admission permit, i.e. behind
//!   every request that arrived before it while all permits were held;
//! * `exec_us` — time holding the permit: computing this request, and
//!   only this one (a permit holder runs one request, and never waits
//!   on another request);
//! * `respond_us` — writing the response frame;
//! * `total_us` — request frame fully read → response frame written.
//!
//! The first two phases are disjoint sub-intervals of the total, so
//! `queue + exec ≤ total` holds per record and therefore per histogram
//! sum — the reconciliation the CI smoke test asserts.
//!
//! Telemetry is on by default and costs a few `Instant` reads plus
//! lock-free histogram records per request; `fosm serve
//! --no-telemetry` disables recording for overhead A/B runs (the
//! serve-bench script gates the on/off p99 delta at 5%).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use fosm_obs::json::push_str_literal;
use fosm_obs::Registry;

/// Version tag of the telemetry snapshot schema (the `fosm_telemetry`
/// field of the JSON body). Version 2 dropped the pool's `steals` and
/// `caller_runs` fields; version 3 dropped `parks` (nothing parks
/// without worker threads) and added the top-level `panics` count;
/// version 4 dropped, with the request batcher, the `batch` object,
/// the records' batch-wait field and its phase histograms.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 4;

/// Default flight-recorder capacity (records kept).
pub const DEFAULT_FLIGHT_CAP: usize = 256;

/// One finished request, as kept by the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Monotonic sequence number, assigned at record time (1-based).
    pub seq: u64,
    /// Request kind: `ping`, `profile`, `model`, `validate`,
    /// `explore`, `stats`, `telemetry`, `shutdown`, or `malformed`.
    pub kind: &'static str,
    /// `ok`, or the structured error code the client received.
    pub outcome: String,
    /// Admission permit wait, µs.
    pub queue_us: u64,
    /// Compute time (permit held), µs.
    pub exec_us: u64,
    /// Response frame write, µs.
    pub respond_us: u64,
    /// Frame read complete → response written, µs.
    pub total_us: u64,
    /// Response payload size, bytes.
    pub resp_bytes: u64,
    /// True when every profile the request needed was already in the
    /// store (memory or disk), so it computed none.
    pub cache_hit: bool,
}

impl RequestRecord {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"kind\":");
        push_str_literal(out, self.kind);
        out.push_str(",\"outcome\":");
        push_str_literal(out, &self.outcome);
        for (key, value) in [
            ("queue_us", self.queue_us),
            ("exec_us", self.exec_us),
            ("respond_us", self.respond_us),
            ("total_us", self.total_us),
            ("resp_bytes", self.resp_bytes),
        ] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push_str(",\"cache_hit\":");
        out.push_str(if self.cache_hit { "true" } else { "false" });
        out.push('}');
    }
}

/// Ring-buffer state behind the flight recorder's lock.
#[derive(Debug, Default)]
struct FlightInner {
    records: VecDeque<RequestRecord>,
    /// Records evicted to make room (total - kept).
    dropped: u64,
    next_seq: u64,
}

/// A bounded ring of the last N [`RequestRecord`]s. Unlike the event
/// tracer (which keeps the *head* of a run and drops the tail), the
/// flight recorder keeps the *tail* — drop-oldest — because its job is
/// post-hoc inspection of the most recent traffic.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<FlightInner>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` records (at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(FlightInner::default()),
        }
    }

    /// Record capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one record, assigning its sequence number; evicts the
    /// oldest record when full.
    pub fn push(&self, mut record: RequestRecord) {
        let mut inner = self.inner.lock().expect("flight recorder lock");
        inner.next_seq += 1;
        record.seq = inner.next_seq;
        if inner.records.len() == self.capacity {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        inner.records.push_back(record);
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> Vec<RequestRecord> {
        self.inner
            .lock()
            .expect("flight recorder lock")
            .records
            .iter()
            .cloned()
            .collect()
    }

    /// Records evicted so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("flight recorder lock").dropped
    }

    /// Retained record count.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("flight recorder lock")
            .records
            .len()
    }

    /// True when nothing has been recorded (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Resolves the flight-recorder capacity from `FOSM_FLIGHT_CAP`,
/// reusing the `FOSM_TRACE_CAP` strict-parse convention: unset/empty
/// means the default; a malformed value — zero, non-numeric,
/// overflowing — is warned about on stderr and falls back to
/// [`DEFAULT_FLIGHT_CAP`] rather than silently mis-sizing the ring.
pub fn flight_cap(raw: Option<&str>) -> usize {
    match fosm_obs::event::parse_trace_cap(raw) {
        Ok(Some(cap)) => cap,
        Ok(None) => DEFAULT_FLIGHT_CAP,
        Err(why) => {
            eprintln!(
                "warning: ignoring FOSM_FLIGHT_CAP ({why}); \
                 using the default capacity of {DEFAULT_FLIGHT_CAP} records"
            );
            DEFAULT_FLIGHT_CAP
        }
    }
}

/// The daemon's telemetry state: an on/off switch, a private registry
/// holding the phase histograms, and the flight recorder. Owned by the
/// [`Service`](crate::service::Service); the server stamps finished
/// requests here.
#[derive(Debug)]
pub struct Telemetry {
    enabled: AtomicBool,
    registry: Registry,
    flight: FlightRecorder,
}

impl Telemetry {
    /// Telemetry with the flight capacity taken from `FOSM_FLIGHT_CAP`
    /// (see [`flight_cap`]). Enabled until [`set_enabled`] says
    /// otherwise.
    ///
    /// [`set_enabled`]: Telemetry::set_enabled
    pub fn from_env() -> Telemetry {
        Telemetry::with_capacity(flight_cap(std::env::var("FOSM_FLIGHT_CAP").ok().as_deref()))
    }

    /// Telemetry with an explicit flight capacity.
    pub fn with_capacity(capacity: usize) -> Telemetry {
        Telemetry {
            enabled: AtomicBool::new(true),
            registry: Registry::new(),
            flight: FlightRecorder::new(capacity),
        }
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (`fosm serve --no-telemetry`).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The registry holding the phase histograms (and anything a
    /// request's scoped snapshot absorbed into it).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Stamps one finished request: per-kind phase histograms plus a
    /// flight record. No-op when disabled.
    pub fn record(&self, record: RequestRecord) {
        if !self.enabled() {
            return;
        }
        let kind = record.kind;
        for (phase, value) in [
            ("queue_us", record.queue_us),
            ("exec_us", record.exec_us),
            ("respond_us", record.respond_us),
            ("total_us", record.total_us),
            ("resp_bytes", record.resp_bytes),
        ] {
            self.registry
                .hist_record(&format!("serve.{phase}.{kind}"), value);
        }
        self.flight.push(record);
    }

    /// Folds a finished request's scoped snapshot in (its store and
    /// profiler counters, …). No-op when disabled.
    pub fn absorb(&self, snap: &fosm_obs::Snapshot) {
        if self.enabled() {
            self.registry.absorb(snap);
        }
    }

    /// Renders the flight recorder as an aligned table for stderr;
    /// `None` when telemetry is off or nothing was recorded.
    pub fn flight_dump(&self, reason: &str) -> Option<String> {
        if !self.enabled() {
            return None;
        }
        let records = self.flight.records();
        if records.is_empty() {
            return None;
        }
        let mut out = format!(
            "fosm-serve flight recorder ({} record(s), {} dropped) — {reason}\n\
             {:>6}  {:<10} {:<18} {:>9} {:>9} {:>9} {:>9} {:>9}  cache\n",
            records.len(),
            self.flight.dropped(),
            "seq",
            "kind",
            "outcome",
            "total_us",
            "queue_us",
            "exec_us",
            "resp_us",
            "bytes",
        );
        for r in &records {
            out.push_str(&format!(
                "{:>6}  {:<10} {:<18} {:>9} {:>9} {:>9} {:>9} {:>9}  {}\n",
                r.seq,
                r.kind,
                r.outcome,
                r.total_us,
                r.queue_us,
                r.exec_us,
                r.respond_us,
                r.resp_bytes,
                if r.cache_hit { "hit" } else { "miss" },
            ));
        }
        Some(out)
    }

    /// Writes the `"hists"` and `"flight"` sections of the telemetry
    /// body (the [`Service`](crate::service::Service) wraps them with
    /// the admission summary it owns).
    pub fn write_json_sections(&self, out: &mut String) {
        out.push_str("\"hists\":{");
        let snap = self.registry.snapshot();
        for (i, (name, hist)) in snap.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_literal(out, name);
            out.push(':');
            hist.write_json(out);
        }
        out.push_str("},\"flight\":{\"capacity\":");
        out.push_str(&self.flight.capacity().to_string());
        out.push_str(",\"dropped\":");
        out.push_str(&self.flight.dropped().to_string());
        out.push_str(",\"records\":[");
        for (i, record) in self.flight.records().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            record.write_json(out);
        }
        out.push_str("]}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: &'static str, outcome: &str, total_us: u64) -> RequestRecord {
        RequestRecord {
            seq: 0,
            kind,
            outcome: outcome.to_string(),
            queue_us: 1,
            exec_us: 3,
            respond_us: 4,
            total_us,
            resp_bytes: 5,
            cache_hit: false,
        }
    }

    #[test]
    fn ring_drops_oldest_past_capacity() {
        let flight = FlightRecorder::new(3);
        for i in 0..5 {
            flight.push(record("ping", "ok", i));
        }
        let kept = flight.records();
        assert_eq!(kept.len(), 3);
        assert_eq!(flight.dropped(), 2);
        // Oldest evicted: seqs 3..=5 survive, oldest first.
        assert_eq!(kept.iter().map(|r| r.seq).collect::<Vec<_>>(), [3, 4, 5]);
        assert_eq!(
            kept.iter().map(|r| r.total_us).collect::<Vec<_>>(),
            [2, 3, 4]
        );
    }

    #[test]
    fn flight_cap_strict_parse_and_fallback() {
        assert_eq!(flight_cap(None), DEFAULT_FLIGHT_CAP);
        assert_eq!(flight_cap(Some("")), DEFAULT_FLIGHT_CAP);
        assert_eq!(flight_cap(Some("  8 ")), 8);
        // Zero and non-numeric values fall back (with a stderr
        // warning) instead of silently mis-sizing the ring.
        assert_eq!(flight_cap(Some("0")), DEFAULT_FLIGHT_CAP);
        assert_eq!(flight_cap(Some("lots")), DEFAULT_FLIGHT_CAP);
    }

    #[test]
    fn record_stamps_per_kind_histograms_for_ok_and_err() {
        let t = Telemetry::with_capacity(16);
        t.record(record("profile", "ok", 10));
        t.record(record("profile", "bad-request", 20));
        t.record(record("ping", "ok", 1));
        let snap = t.registry().snapshot();
        assert_eq!(snap.hists["serve.total_us.profile"].count, 2);
        assert_eq!(snap.hists["serve.total_us.ping"].count, 1);
        assert_eq!(snap.hists["serve.queue_us.profile"].count, 2);
        let outcomes: Vec<_> = t
            .flight()
            .records()
            .iter()
            .map(|r| r.outcome.clone())
            .collect();
        assert_eq!(outcomes, ["ok", "bad-request", "ok"]);
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let t = Telemetry::with_capacity(16);
        t.set_enabled(false);
        t.record(record("ping", "ok", 1));
        assert!(t.flight().is_empty());
        assert!(t.registry().snapshot().hists.is_empty());
        assert!(t.flight_dump("test").is_none());
    }

    #[test]
    fn flight_dump_lists_every_record() {
        let t = Telemetry::with_capacity(4);
        assert!(t.flight_dump("empty").is_none());
        t.record(record("model", "ok", 123));
        t.record(record("stats", "model-error", 9));
        let dump = t.flight_dump("unit test").expect("non-empty dump");
        assert!(dump.starts_with("fosm-serve flight recorder (2 record(s), 0 dropped)"));
        assert!(dump.contains("model"));
        assert!(dump.contains("model-error"));
    }

    #[test]
    fn json_sections_parse_and_carry_records() {
        let t = Telemetry::with_capacity(2);
        t.record(record("ping", "ok", 7));
        let mut body = String::from("{");
        t.write_json_sections(&mut body);
        body.push('}');
        let v: serde::Value = serde_json::from_str(&body).expect("valid JSON");
        let hists = v.get("hists").expect("hists section");
        assert!(hists.get("serve.total_us.ping").is_some());
        let flight = v.get("flight").expect("flight section");
        assert!(flight.get("capacity").is_some());
        assert!(body.contains("\"capacity\":2"));
        assert!(body.contains("\"kind\":\"ping\""));
        assert!(body.contains("\"cache_hit\":false"));
    }
}
