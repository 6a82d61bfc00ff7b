//! `serve-mixed`: an open-loop request mix against a `fosm serve`
//! daemon — the only workload that exercises the wire protocol, the
//! worker pool, the batcher and store memoization.
//!
//! Set-up starts the daemon (`--workers 2`, default settings) and warms
//! its hot set. Timed: seeded Poisson arrivals (see [`schedule`]) sent
//! from two threads over two connections. Each request's latency runs
//! from its due time, so a stall also charges the requests queued
//! behind it; how late the generator itself sent is reported apart.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fosm_bench::store::ArtifactStore;
use fosm_obs::HistogramSnapshot;
use fosm_serve::client::Connection;
use fosm_serve::proto::{encode_request, encode_response, Request, Response};
use fosm_serve::service::Service;

use crate::ledger::{self, Recorder, ROOT};
use crate::measure::{self, Ctx, Outcome};
use crate::schedule::{self, Planned};
use crate::stats;

/// Instructions per trace in every request.
const INSTS: u64 = 20_000;
/// Mean arrival rate, requests per second.
const RATE: f64 = 200.0;
/// Load threads, one connection each.
const CLIENTS: usize = 2;
/// A request slower than this (or failed) misses the latency limit.
const SLO_S: f64 = 0.020;
/// Every n-th response is checked against an in-process service.
const ORACLE_EVERY: usize = 10;
/// Generator lateness (p99) above which a run measured the load
/// generator rather than the daemon.
const LATE_LIMIT_MS: f64 = 1.0;
/// How long a stopping daemon may take to exit.
const STOP_TIMEOUT: Duration = Duration::from_secs(10);

/// A running daemon child process. Dropping it kills the process.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn start(fosm: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(fosm)
            .args(["serve", "--workers", "2"])
            .env_remove("FOSM_CACHE_DIR")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", fosm.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut daemon = Daemon {
            child,
            stdout,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr.to_string();
                Ok(daemon)
            }
            _ => Err(format!("daemon did not report its address (got {line:?})")),
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to shut down and waits for a clean exit.
    fn stop(mut self) -> Result<(), String> {
        let answer = fosm_serve::client::call(&self.addr, &Request::Shutdown);
        // Drain what it prints on the way out, so it never writes to a
        // closed pipe.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && answer.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => return Err("daemon did not stop in time".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Starts a daemon and fills its hot set.
fn start_warm(fosm: &Path, seed: u64) -> Result<Daemon, String> {
    let daemon = Daemon::start(fosm)?;
    let mut conn = Connection::open(&daemon.addr)?;
    for req in schedule::warm_set(seed, INSTS) {
        if let Response::Err { code, message } = conn.send(&req)? {
            return Err(format!("warm-up {req:?} answered {code}: {message}"));
        }
    }
    Ok(daemon)
}

/// One request's measurements.
#[derive(Debug, Clone)]
struct Sample {
    /// Due time to response, seconds; `None` when it failed.
    latency_s: Option<f64>,
    /// Send to response, seconds.
    service_s: f64,
    /// How late the generator sent it: send time minus the later of
    /// its due time and the previous response on its connection.
    late_s: f64,
    cold: bool,
}

/// What a load phase produced.
struct Phase {
    samples: Vec<Sample>,
    wall_s: f64,
    /// `(request, response)` of every [`ORACLE_EVERY`]-th request.
    kept: Vec<(Request, Response)>,
    problems: Vec<String>,
    spans: Vec<ledger::Span>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().filter_map(|s| s.latency_s).collect()
    }

    fn p50_s(&self) -> f64 {
        stats::percentile(&self.latencies(), 0.50).unwrap_or(0.0)
    }

    fn late_p99_ms(&self) -> f64 {
        let late: Vec<f64> = self.samples.iter().map(|s| s.late_s).collect();
        1e3 * stats::percentile(&late, 0.99).unwrap_or(0.0)
    }

    fn slo_frac(&self) -> f64 {
        let met = self
            .samples
            .iter()
            .filter(|s| s.latency_s.is_some_and(|l| l <= SLO_S))
            .count();
        met as f64 / self.samples.len().max(1) as f64
    }
}

/// Runs `f`, inside a span when a recorder is given.
fn spanned<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    req: u64,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(r) => r.span(name, req, |_| f()),
        None => f(),
    }
}

/// Sends one client's share of the plan over its own connection.
fn client(
    addr: &str,
    plan: &[Planned],
    me: usize,
    start: Instant,
    mut rec: Option<&mut Recorder>,
) -> (Vec<Sample>, Vec<(Request, Response)>, Vec<String>) {
    let mut samples = Vec::new();
    let mut kept = Vec::new();
    let mut problems = Vec::new();
    let mut conn = Connection::open(addr);
    let mut prev_done = start;
    for (idx, p) in plan.iter().enumerate().skip(me).step_by(CLIENTS) {
        let req = idx as u64;
        let due = start + Duration::from_secs_f64(p.due_s);
        spanned(&mut rec, "loadgen.idle", req, || {
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        });
        let sent = Instant::now();
        let late_s = sent.duration_since(due.max(prev_done)).as_secs_f64();
        let payload = spanned(&mut rec, "serve.proto", req, || encode_request(&p.request));
        let result = match &mut conn {
            Ok(c) => spanned(&mut rec, "serve.request", req, || c.send_raw(&payload)),
            Err(e) => Err(e.clone()),
        };
        let done = Instant::now();
        prev_done = done;
        let ok = match &result {
            Ok(Response::Ok { .. }) => true,
            Ok(Response::Err { code, message }) => {
                problems.push(format!("request {idx} answered {code}: {message}"));
                false
            }
            Err(e) => {
                problems.push(format!("request {idx} failed: {e}"));
                conn = Connection::open(addr);
                false
            }
        };
        samples.push(Sample {
            latency_s: ok.then(|| done.duration_since(due).as_secs_f64()),
            service_s: done.duration_since(sent).as_secs_f64(),
            late_s,
            cold: p.cold,
        });
        if let (true, Ok(resp)) = (idx % ORACLE_EVERY == 0, result) {
            kept.push((p.request.clone(), resp));
        }
    }
    (samples, kept, problems)
}

/// Runs one open-loop load phase, spanned when `traced`.
fn load(addr: &str, plan: &[Planned], traced: bool) -> Phase {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, 0);
    let mut per_client = Vec::new();
    rec.span(ROOT, 0, |rec| {
        let start = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|me| {
                    s.spawn(move || {
                        let mut own = Recorder::new(origin, me as u32 + 1);
                        let result = if traced {
                            own.span("loadgen.client", 0, |r| {
                                client(addr, plan, me, start, Some(r))
                            })
                        } else {
                            client(addr, plan, me, start, None)
                        };
                        (result, own)
                    })
                })
                .collect();
            for h in handles {
                let (result, own) = h.join().expect("load thread");
                rec.adopt(own);
                per_client.push(result);
            }
        });
    });
    let spans = rec.into_spans();
    let wall_s = spans[0].end_ns.saturating_sub(spans[0].start_ns) as f64 * 1e-9;
    let mut phase = Phase {
        samples: Vec::new(),
        wall_s,
        kept: Vec::new(),
        problems: Vec::new(),
        spans: if traced { spans } else { Vec::new() },
    };
    for (samples, kept, problems) in per_client {
        phase.samples.extend(samples);
        phase.kept.extend(kept);
        phase.problems.extend(problems);
    }
    phase
}

/// Sends one request on a fresh connection and returns its body.
fn body(addr: &str, req: &Request) -> Result<String, String> {
    match fosm_serve::client::call(addr, req)? {
        Response::Ok { body } => Ok(body),
        Response::Err { code, message } => Err(format!("{req:?} answered {code}: {message}")),
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let daemon = match measure::time_setups(&mut out, || start_warm(&ctx.fosm, ctx.seed)) {
        Ok(d) => d,
        Err(e) => {
            out.check(Some(e));
            return out;
        }
    };

    let plan = schedule::plan(ctx.seed, 0, RATE, ctx.seconds, INSTS);
    let phase = load(&daemon.addr, &plan, false);
    for p in &phase.problems {
        out.problems.push(p.clone());
    }
    out.attempted += phase.samples.len() as u64;
    out.failed += phase
        .samples
        .iter()
        .filter(|s| s.latency_s.is_none())
        .count() as u64;

    let lat = phase.latencies();
    out.e2e.insert("ops_per_s", lat.len() as f64 / phase.wall_s);
    out.e2e.insert("p50_ms", 1e3 * phase.p50_s());
    out.name_tail(&lat);
    match measure::peak_rss_mb(&daemon.pid()) {
        Ok(mb) => {
            out.e2e.insert("peak_rss_mb", mb);
        }
        Err(e) => out.check(Some(e)),
    }
    let late_p99 = phase.late_p99_ms();
    out.named.push(("req_per_s", out.e2e["ops_per_s"], "1/s"));
    out.named.push(("slo_frac", phase.slo_frac(), "ratio"));
    out.named.push(("late_p99_ms", late_p99, "ms"));
    if late_p99 > LATE_LIMIT_MS {
        out.invalid = Some(format!(
            "the load generator fell behind: late p99 {late_p99:.3} ms > {LATE_LIMIT_MS} ms"
        ));
    }

    if ctx.trace {
        traced(ctx, &daemon.addr, phase.p50_s(), &mut out);
    }

    // Oracle, after the load: sampled responses must equal an
    // in-process service's, byte for byte.
    let oracle = Service::new(Arc::new(ArtifactStore::new()), 1, Duration::ZERO);
    for (req, resp) in &phase.kept {
        out.expect(
            encode_response(&oracle.execute(req)) == encode_response(resp),
            || format!("daemon response to {req:?} differs from in-process execution"),
        );
    }
    oracle.shutdown();
    out.check(daemon.stop().err());
    out
}

/// Counters and phase histograms the daemon reports, so a phase's
/// share can be taken as the difference of two snapshots.
struct DaemonView {
    telemetry: serde::Value,
    stats: String,
}

impl DaemonView {
    fn read(addr: &str) -> Result<DaemonView, String> {
        let telemetry = body(addr, &Request::Telemetry)?;
        Ok(DaemonView {
            telemetry: serde_json::from_str(telemetry.trim_end())
                .map_err(|e| format!("bad telemetry JSON: {e:?}"))?,
            stats: body(addr, &Request::Stats)?,
        })
    }

    fn num(v: Option<&serde::Value>) -> u64 {
        match v {
            Some(serde::Value::Num(text)) => text.parse().unwrap_or(0),
            _ => 0,
        }
    }

    fn counter(&self, section: &str, key: &str) -> u64 {
        Self::num(self.telemetry.get(section).and_then(|s| s.get(key)))
    }

    fn stat(&self, key: &str) -> u64 {
        self.stats
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0)
    }

    /// A phase histogram summed over the load's request kinds.
    fn hist(&self, phase: &str) -> HistogramSnapshot {
        let mut total = HistogramSnapshot::default();
        for kind in ["model", "profile", "explore"] {
            let Some(h) = self
                .telemetry
                .get("hists")
                .and_then(|hs| hs.get(&format!("serve.{phase}.{kind}")))
            else {
                continue;
            };
            let mut snap = HistogramSnapshot {
                count: Self::num(h.get("count")),
                sum: Self::num(h.get("sum")),
                ..HistogramSnapshot::default()
            };
            if let Some(serde::Value::Map(buckets)) = h.get("buckets") {
                for (index, n) in buckets {
                    if let Ok(i) = index.parse::<usize>() {
                        if let Some(slot) = snap.buckets.get_mut(i) {
                            *slot = Self::num(Some(n));
                        }
                    }
                }
            }
            total.merge(&snap);
        }
        total
    }
}

/// `after − before`, bucket by bucket.
fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum: after.sum.saturating_sub(before.sum),
        ..HistogramSnapshot::default()
    };
    for (slot, (a, b)) in out
        .buckets
        .iter_mut()
        .zip(after.buckets.iter().zip(&before.buckets))
    {
        *slot = a.saturating_sub(*b);
    }
    out
}

/// One traced load phase with fresh cold keys, plus the daemon's own
/// phase breakdown over that phase.
fn traced(ctx: &Ctx, addr: &str, untraced_p50_s: f64, out: &mut Outcome) {
    let plan = schedule::plan(ctx.seed, 1, RATE, ctx.seconds, INSTS);
    let before = DaemonView::read(addr);
    let phase = load(addr, &plan, true);
    let after = DaemonView::read(addr);
    for p in &phase.problems {
        out.check(Some(p.clone()));
    }
    let (before, after) = match (before, after) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            out.check(Some(e));
            return;
        }
    };
    for (phase_name, p50, p99) in [
        ("queue_us", "serve.queue_us.p50", "serve.queue_us.p99"),
        (
            "batch_wait_us",
            "serve.batch_wait_us.p50",
            "serve.batch_wait_us.p99",
        ),
        ("exec_us", "serve.exec_us.p50", "serve.exec_us.p99"),
        ("respond_us", "serve.respond_us.p50", "serve.respond_us.p99"),
    ] {
        let h = hist_delta(&after.hist(phase_name), &before.hist(phase_name));
        out.layers.insert(p50, h.quantile(0.50) as f64);
        out.layers.insert(p99, h.quantile(0.99) as f64);
    }
    let resp = hist_delta(&after.hist("resp_bytes"), &before.hist("resp_bytes"));
    out.layers.insert("proto.resp_bytes", resp.mean());
    let delta = |f: &dyn Fn(&DaemonView) -> u64| f(&after).saturating_sub(f(&before)) as f64;
    out.layers.insert(
        "batch.coalesced",
        delta(&|v| v.counter("batch", "coalesced")),
    );
    out.layers
        .insert("pool.steals", delta(&|v| v.counter("pool", "steals")));
    let hits = delta(&|v| v.stat("store.profile_hit"));
    let misses = delta(&|v| v.stat("store.profile_miss"));
    out.layers.insert(
        "store.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.layers.insert(
        "store.fill_s",
        phase
            .samples
            .iter()
            .filter(|s| s.cold)
            .map(|s| s.service_s)
            .sum(),
    );
    out.layers
        .insert("loadgen.late_p99_ms", phase.late_p99_ms());
    out.layers.insert("loadgen.slo_frac", phase.slo_frac());

    let traced_p50_s = phase.p50_s();
    let requests = phase.samples.len().max(1) as f64;
    let spans = phase.spans;
    let ledger = ledger::ledger(&spans);
    out.layers.insert(
        "proto.encode_us",
        ledger.get("serve.proto") * 1e6 / requests,
    );
    out.set_ledger(ledger, spans, 0.0);
    // An open loop's wall time is fixed by its schedule, so tracing
    // overhead shows in request latency instead.
    out.layers
        .insert("ledger.overhead_s", traced_p50_s - untraced_p50_s);
}
