//! Closed-loop load generator for the daemon.
//!
//! Drives N concurrent clients, each with its own connection and a
//! deterministic mixed request stream (profile and model requests over
//! two workloads and all five probe variants), and records per-request
//! latency plus wall-clock throughput. The CLI writes and checks the
//! numbers with the vendored criterion shim's own baseline writer and
//! checker (`BENCH_serve.json`), so the same `--check` semantics (fail
//! above `criterion::REGRESSION_LIMIT_PCT`% slowdown) gate daemon
//! latency that already gate the micro-benchmarks.
//!
//! Two comparison hooks keep the numbers honest:
//!
//! * **verify** — every daemon response can be compared byte-for-byte
//!   against a caller-supplied oracle (the CLI passes an in-process
//!   [`Service`](crate::service::Service), the same code the daemon
//!   runs);
//! * **sequential baseline** — [`run_sequential`] times the identical
//!   flattened request stream through a caller-supplied one-shot
//!   runner (the CLI spawns `fosm client --local` subprocesses), which
//!   is what the daemon's speedup is measured against.

use std::time::{Duration, Instant};

use fosm_obs::{Histogram, HistogramSnapshot};

use crate::client::Connection;
use crate::proto::{MachineSpec, ProfileRequest, Request, Response};

/// Benchmarks the generated stream cycles through.
const BENCHES: [&str; 2] = ["gzip", "gcc"];

/// Probe variants the generated stream cycles through.
const PROBES: [&str; 5] = ["full", "ideal", "branch", "icache", "dcache"];

/// The deterministic request stream: `clients` lists of `per_client`
/// requests each. Consecutive requests of one client cycle through
/// probe variants and alternate profile/model, while different clients
/// start at different offsets — so at any instant the daemon sees a
/// mix of same-trace requests for different probes and distinct
/// ones.
pub fn plan(clients: usize, per_client: usize, insts: u64, seed: u64) -> Vec<Vec<Request>> {
    (0..clients)
        .map(|c| {
            (0..per_client)
                .map(|i| {
                    let k = c + i * clients;
                    let p = ProfileRequest {
                        bench: BENCHES[(i / PROBES.len()) % BENCHES.len()].to_string(),
                        insts,
                        seed,
                        machine: MachineSpec::default(),
                        probe: PROBES[k % PROBES.len()].to_string(),
                    };
                    if k.is_multiple_of(2) {
                        Request::Profile(p)
                    } else {
                        Request::Model(p)
                    }
                })
                .collect()
        })
        .collect()
}

/// One phase's measurements.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Requests completed.
    pub requests: usize,
    /// Wall-clock time for the whole phase.
    pub wall: Duration,
    /// Per-request latencies, unordered.
    pub latencies: Vec<Duration>,
}

impl RunStats {
    /// The `q`-th latency percentile (0–100), by nearest-rank over the
    /// sorted samples.
    ///
    /// Defined for every input: with no samples the result is
    /// [`Duration::ZERO`]; `q` is clamped into `[0, 100]` (so `q = 0`
    /// is exactly the minimum, `q = 100` exactly the maximum, and
    /// out-of-range values saturate rather than indexing out of
    /// bounds); a NaN `q` reads as 0.
    pub fn percentile(&self, q: f64) -> Duration {
        let mut sorted = self.latencies.clone();
        sorted.sort();
        if sorted.is_empty() {
            return Duration::ZERO;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 100.0) };
        let rank = ((q / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Mean nanoseconds per request, by wall clock (the throughput
    /// figure: total work over total time, not mean latency).
    pub fn ns_per_request(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.requests.max(1) as f64
    }

    /// The latencies folded into the shared log2-bucketed
    /// [`HistogramSnapshot`] (nanoseconds) — the same mergeable
    /// primitive the daemon's telemetry and `fosm top` report on, so
    /// loadgen summaries and server-side phase histograms read on one
    /// scale and can be merged or diffed by the same tooling.
    ///
    /// Quantiles from the snapshot are bucket upper bounds: they land
    /// in the same power-of-two bucket as the exact nearest-rank
    /// [`Self::percentile`], which stays the oracle behind the
    /// `BENCH_serve.json` entries (bucket quantization would make a
    /// percentage regression gate flaky).
    pub fn latency_hist(&self) -> HistogramSnapshot {
        let hist = Histogram::new();
        for latency in &self.latencies {
            hist.record(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
        }
        hist.snapshot()
    }

    /// One human line summarising the phase from the histogram:
    /// request count plus bucketed p50/p99 upper bounds in
    /// microseconds. Rendered next to the exact `BENCH_serve.json`
    /// numbers so drift between the two summaries would be visible in
    /// the bench log itself.
    pub fn hist_summary(&self, label: &str) -> String {
        let snap = self.latency_hist();
        format!(
            "{label}: {} requests, hist p50 <= {} us, p99 <= {} us",
            snap.count,
            snap.quantile(0.50) / 1_000,
            snap.quantile(0.99) / 1_000,
        )
    }
}

/// Runs `plan` against the daemon at `addr`: one thread and one
/// connection per client, requests pipelined in order. With `verify`,
/// every response is compared byte-for-byte against the oracle and any
/// mismatch fails the run.
///
/// # Errors
///
/// Connection or protocol failures, an error response from the daemon,
/// or a verification mismatch.
pub fn run_concurrent(
    addr: &str,
    plan: &[Vec<Request>],
    verify: Option<&(dyn Fn(&Request) -> Response + Sync)>,
) -> Result<RunStats, String> {
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Duration>, String>> = std::thread::scope(|s| {
        plan.iter()
            .map(|requests| {
                s.spawn(move || {
                    let mut conn = Connection::open(addr)?;
                    let mut latencies = Vec::with_capacity(requests.len());
                    for req in requests {
                        let t0 = Instant::now();
                        let resp = conn.send(req)?;
                        latencies.push(t0.elapsed());
                        if let Response::Err { code, message } = &resp {
                            return Err(format!("daemon answered {code}: {message}"));
                        }
                        if let Some(oracle) = verify {
                            let expected = oracle(req);
                            if resp != expected {
                                return Err(format!(
                                    "response mismatch for {req:?}: daemon and local \
                                     execution disagree"
                                ));
                            }
                        }
                    }
                    Ok(latencies)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("loadgen client thread"))
            .collect()
    });
    let wall = start.elapsed();
    let mut latencies = Vec::new();
    for result in per_client {
        latencies.extend(result?);
    }
    Ok(RunStats {
        requests: latencies.len(),
        wall,
        latencies,
    })
}

/// Times the same requests run strictly one after another through a
/// caller-supplied one-shot runner (the daemon-less baseline).
///
/// # Errors
///
/// The first runner failure.
pub fn run_sequential(
    plan: &[Vec<Request>],
    one_shot: &dyn Fn(&Request) -> Result<Response, String>,
) -> Result<RunStats, String> {
    let start = Instant::now();
    let mut latencies = Vec::new();
    for requests in plan {
        for req in requests {
            let t0 = Instant::now();
            let resp = one_shot(req)?;
            latencies.push(t0.elapsed());
            if let Response::Err { code, message } = resp {
                return Err(format!("one-shot run answered {code}: {message}"));
            }
        }
    }
    Ok(RunStats {
        requests: latencies.len(),
        wall: start.elapsed(),
        latencies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_mixed() {
        let a = plan(8, 8, 20_000, 42);
        let b = plan(8, 8, 20_000, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|c| c.len() == 8));
        let flat: Vec<&Request> = a.iter().flatten().collect();
        assert!(flat.iter().any(|r| matches!(r, Request::Profile(_))));
        assert!(flat.iter().any(|r| matches!(r, Request::Model(_))));
        // Concurrent first requests cover several probe variants, so
        // the daemon sees a same-trace mix, not 8 copies of one probe.
        let first_probes: std::collections::BTreeSet<&str> = a
            .iter()
            .map(|c| match &c[0] {
                Request::Profile(p) | Request::Model(p) => p.probe.as_str(),
                _ => unreachable!("plan only emits profile/model"),
            })
            .collect();
        assert!(first_probes.len() >= 4, "got {first_probes:?}");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let stats = RunStats {
            requests: 100,
            wall: Duration::from_secs(1),
            latencies: (1..=100).map(Duration::from_millis).collect(),
        };
        // Rank 0.5 * 99 = 49.5 rounds up to index 50.
        assert_eq!(stats.percentile(50.0), Duration::from_millis(51));
        assert_eq!(stats.percentile(99.0), Duration::from_millis(99));
        assert_eq!(stats.percentile(100.0), Duration::from_millis(100));
    }

    #[test]
    fn percentile_edges_are_defined_for_every_input() {
        let empty = RunStats {
            requests: 0,
            wall: Duration::ZERO,
            latencies: Vec::new(),
        };
        for q in [0.0, 50.0, 100.0, -5.0, 250.0, f64::NAN] {
            assert_eq!(empty.percentile(q), Duration::ZERO);
        }

        let stats = RunStats {
            requests: 3,
            wall: Duration::from_secs(1),
            latencies: vec![
                Duration::from_millis(30),
                Duration::from_millis(10),
                Duration::from_millis(20),
            ],
        };
        // q = 0 is exactly the minimum (unsorted input is sorted first).
        assert_eq!(stats.percentile(0.0), Duration::from_millis(10));
        // Out-of-range and NaN quantiles saturate instead of panicking.
        assert_eq!(stats.percentile(-1.0), Duration::from_millis(10));
        assert_eq!(stats.percentile(f64::NAN), Duration::from_millis(10));
        assert_eq!(stats.percentile(101.0), Duration::from_millis(30));
        assert_eq!(stats.percentile(f64::INFINITY), Duration::from_millis(30));

        let single = RunStats {
            requests: 1,
            wall: Duration::from_secs(1),
            latencies: vec![Duration::from_millis(7)],
        };
        for q in [0.0, 50.0, 100.0] {
            assert_eq!(single.percentile(q), Duration::from_millis(7));
        }
    }

    #[test]
    fn latency_hist_matches_counts_and_summary_renders() {
        let stats = RunStats {
            requests: 100,
            wall: Duration::from_secs(1),
            latencies: (1..=100).map(Duration::from_micros).collect(),
        };
        let snap = stats.latency_hist();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.min(), 1_000);
        assert_eq!(snap.max, 100_000);
        let line = stats.hist_summary("serve");
        assert!(line.starts_with("serve: 100 requests"), "{line}");
        assert!(line.contains("p99 <= "), "{line}");

        let empty = RunStats {
            requests: 0,
            wall: Duration::ZERO,
            latencies: Vec::new(),
        };
        assert!(empty.latency_hist().is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The bucketed quantile is an upper bound on the exact
            /// nearest-rank percentile and lives in the same
            /// power-of-two bucket — "within one bucket" made precise.
            #[test]
            fn hist_quantile_brackets_exact_percentile(
                mut samples in prop::collection::vec(0u64..5_000_000, 1..200),
                q in 0.0f64..=100.0,
            ) {
                let stats = RunStats {
                    requests: samples.len(),
                    wall: Duration::from_secs(1),
                    latencies: samples.iter().copied().map(Duration::from_nanos).collect(),
                };
                let from_hist = stats.latency_hist().quantile(q / 100.0);
                samples.sort_unstable();
                // Same nearest-rank convention as
                // HistogramSnapshot::quantile (1-based ceil rank), so
                // the only divergence left to bound is the bucketing.
                let len = samples.len() as u64;
                let rank = (((q / 100.0) * len as f64).ceil() as u64).clamp(1, len);
                let exact = samples[(rank - 1) as usize];
                prop_assert!(from_hist >= exact, "hist {} < exact {}", from_hist, exact);
                prop_assert_eq!(
                    fosm_obs::hist::bucket_of(from_hist),
                    fosm_obs::hist::bucket_of(exact),
                    "hist quantile left the exact value's bucket"
                );
            }
        }
    }
}
