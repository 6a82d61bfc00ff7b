//! What every workload measures and reports: the metric tables, the
//! timing loop, set-up timing, peak memory, and the per-run outcome.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::ledger::{Ledger, Span};
use crate::stats;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order. Every
/// workload reports all of them from an untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order. Every
/// workload reports all of them from a traced run; a layer that does
/// no work on a workload reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("workloads.gen_s", "s"),
    ("trace.replay_s", "s"),
    ("cache.busy_s", "s"),
    ("cache.accesses", "count"),
    ("cache.l1d_miss_ratio", "ratio"),
    ("branch.busy_s", "s"),
    ("branch.mispredict_ratio", "ratio"),
    ("depgraph.busy_s", "s"),
    ("core.profile_assembly_s", "s"),
    ("core.evaluate_s", "s"),
    ("core.prepare_s", "s"),
    ("core.structural_s", "s"),
    ("core.evaluate_at_ns", "ns"),
    ("explore.offer_s", "s"),
    ("explore.frontier_points", "count"),
    ("sim.busy_s", "s"),
    ("sim.minst_per_s", "1/s"),
    ("validate.compare_s", "s"),
    ("validate.cpi_err_pct", "%"),
    ("store.hit_ratio", "ratio"),
    ("store.fill_s", "s"),
    ("serve.queue_us.p50", "us"),
    ("serve.queue_us.p99", "us"),
    ("serve.batch_wait_us.p50", "us"),
    ("serve.batch_wait_us.p99", "us"),
    ("serve.exec_us.p50", "us"),
    ("serve.exec_us.p99", "us"),
    ("serve.respond_us.p50", "us"),
    ("serve.respond_us.p99", "us"),
    ("batch.coalesced", "count"),
    ("pool.steals", "count"),
    ("proto.encode_us", "us"),
    ("proto.resp_bytes", "bytes"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.slo_frac", "ratio"),
    ("ledger.wall_s", "s"),
    ("ledger.unattributed_frac", "ratio"),
    ("ledger.overhead_s", "s"),
];

/// How many times each workload repeats its set-up; `setup_s` is the
/// median.
pub const SETUPS: usize = 5;

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// How long the measurement phase runs.
    pub seconds: f64,
    /// Whether to run the extra traced repetition.
    pub trace: bool,
    /// The `fosm` binary the serve workload starts as its daemon.
    pub fosm: PathBuf,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and oracle checks attempted.
    pub attempted: u64,
    /// Operations that failed and oracle checks that did not hold.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Warnings that do not fail the run.
    pub warnings: Vec<String>,
    /// Set when the run measured the load generator, not the system.
    pub invalid: Option<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Workload-specific names for end-to-end quantities, printed for
    /// people: `(name, value, unit)`.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metric values by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The traced run's ledger.
    pub ledger: Option<Ledger>,
    /// The traced run's spans.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Counts one attempted operation or check, failed when `problem`
    /// is `Some`.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// Counts one check that holds when `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check((!ok).then(what));
    }

    /// Names the tail of a latency sample (seconds) for people: p90 and
    /// p99 with the sample count. Tails move with the host's noise more
    /// than the median does, so no bound gates them.
    pub fn name_tail(&mut self, latencies_s: &[f64]) {
        for (name, q) in [("p90_ms", 0.90), ("p99_ms", 0.99)] {
            let v = stats::percentile(latencies_s, q).unwrap_or(0.0);
            self.named.push((name, 1e3 * v, "ms"));
        }
        self.named
            .push(("latency_samples", latencies_s.len() as f64, "count"));
    }

    /// Stores the traced run's ledger and the layer metrics every
    /// workload derives from it.
    pub fn set_ledger(&mut self, ledger: Ledger, spans: Vec<Span>, untraced_wall_s: f64) {
        self.layers.insert("ledger.wall_s", ledger.wall_s);
        self.layers
            .insert("ledger.unattributed_frac", ledger.unattributed_frac());
        self.layers
            .insert("ledger.overhead_s", ledger.wall_s - untraced_wall_s);
        for (metric, layer) in [
            ("workloads.gen_s", "workloads"),
            ("trace.replay_s", "trace"),
            ("cache.busy_s", "cache"),
            ("branch.busy_s", "branch"),
            ("depgraph.busy_s", "depgraph"),
            ("core.profile_assembly_s", "core.profile"),
            ("core.evaluate_s", "core.evaluate"),
            ("core.prepare_s", "core.prepare"),
            ("core.structural_s", "core.structural"),
            ("explore.offer_s", "explore.offer"),
            ("sim.busy_s", "sim"),
            ("validate.compare_s", "validate"),
        ] {
            self.layers.insert(metric, ledger.get(layer));
        }
        if ledger.get("core.profile") < 0.0 {
            self.warnings.push(format!(
                "core.profile_assembly_s is negative ({:.6} s): the decomposition \
                 passes cost more than the fused call",
                ledger.get("core.profile")
            ));
        }
        self.ledger = Some(ledger);
        self.spans = spans;
    }
}

/// Operation latencies of a measurement phase, kept per slot: slot `k`
/// is the `k`-th operation of every repetition (one case, one
/// benchmark, one profile's sweep), so a slot's samples time the same
/// work and its median filters out the repetitions a noisy neighbour
/// slowed.
#[derive(Debug, Default)]
pub struct Timing {
    slots: Vec<Vec<f64>>,
}

impl Timing {
    /// Records the latency of operation `slot` of a repetition.
    pub fn op(&mut self, slot: usize, elapsed: Duration) {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, Vec::new);
        }
        self.slots[slot].push(elapsed.as_secs_f64());
    }

    /// One repetition's operation time: the sum of the slot medians.
    pub fn median_rep_s(&self) -> f64 {
        self.slots.iter().filter_map(|s| stats::median(s)).sum()
    }

    /// Fills `ops_per_s` (slots per [`median_rep_s`](Self::median_rep_s))
    /// and `p50_ms` over every operation, and names the tail.
    pub fn report(&self, out: &mut Outcome) {
        let all: Vec<f64> = self.slots.iter().flatten().copied().collect();
        let rep_s = self.median_rep_s();
        out.e2e.insert(
            "ops_per_s",
            if rep_s > 0.0 {
                self.slots.len() as f64 / rep_s
            } else {
                0.0
            },
        );
        out.e2e
            .insert("p50_ms", 1e3 * stats::percentile(&all, 0.50).unwrap_or(0.0));
        out.name_tail(&all);
    }
}

/// Calls `rep` with 0, 1, 2, … until `seconds` of wall time have
/// passed, at least once. Returns the repetition count.
pub fn repeat_for(seconds: f64, mut rep: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed().as_secs_f64() < seconds {
        rep(n);
        n += 1;
    }
    n
}

/// Runs `setup` [`SETUPS`] times and stores the median as `setup_s`.
/// Returns the last set-up's result.
pub fn time_setups<T>(out: &mut Outcome, mut setup: impl FnMut() -> T) -> T {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    out.e2e
        .insert("setup_s", stats::median(&times).unwrap_or(0.0));
    last.expect("SETUPS is positive")
}

/// Peak resident set (`VmHWM`) of a process in MiB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// Records this process's peak resident set as `peak_rss_mb`.
pub fn own_peak_rss(out: &mut Outcome) {
    match peak_rss_mb("self") {
        Ok(mb) => {
            out.e2e.insert("peak_rss_mb", mb);
        }
        Err(e) => out.check(Some(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let body = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let v: serde::Value = serde_json::from_str(&body).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            match v.get(key) {
                Some(serde::Value::Seq(items)) => items
                    .iter()
                    .map(|m| match (m.get("name"), m.get("unit")) {
                        (Some(serde::Value::Str(n)), Some(serde::Value::Str(u))) => {
                            (n.clone(), u.clone())
                        }
                        other => panic!("bad metric entry {other:?}"),
                    })
                    .collect(),
                other => panic!("no {key} list: {other:?}"),
            }
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn outcome_counts_checks() {
        let mut out = Outcome::default();
        out.expect(true, || unreachable!());
        out.expect(false, || "broken".to_string());
        out.check(None);
        assert_eq!((out.attempted, out.failed), (3, 1));
        assert_eq!(out.problems, ["broken"]);
    }

    #[test]
    fn repeat_for_runs_at_least_once() {
        let mut calls = Vec::new();
        assert_eq!(repeat_for(0.0, |i| calls.push(i)), 1);
        assert_eq!(calls, [0]);
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mb("self").expect("linux /proc") > 0.0);
    }
}
