//! Request handlers, shared by the daemon and the in-process client.
//!
//! [`Service::execute`] is the single entry point for every request,
//! whether it arrived over a socket (`fosm serve`) or in-process
//! (`fosm client --local`). That sharing is the byte-identity
//! contract: a response body is exactly what the equivalent one-shot
//! invocation prints, because both paths run this code — there is no
//! separate "daemon rendering" to drift.
//!
//! The handlers themselves are thin: they translate protocol types
//! into the existing pipeline (workload specs, probes, the memoizing
//! artifact store, the first-order model) and render with the same
//! format strings as `crates/cli`. Concurrency lives in the layers
//! this service composes: the [`WorkerPool`](crate::pool::WorkerPool)
//! runs each request on one worker, in arrival order, and the
//! [`Batcher`](crate::batch::Batcher) coalesces same-trace profile
//! work. A request never fans out over the pool; `explore` sweeps its
//! whole grid on its own worker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_core::model::{Estimate, FirstOrderModel};
use fosm_core::params::ProcessorParams;
use fosm_core::profile::{Probe, ProgramProfile};
use fosm_sim::{MachineConfig, SimulationSet};
use fosm_validate::ToleranceSpec;
use fosm_workloads::BenchmarkSpec;

use crate::batch::{BatchStats, Batcher, LEADER_PANICKED};
use crate::pool::{PoolStats, WorkerPool};
use crate::proto::{ExploreRequest, ProfileRequest, Request, Response, ValidateRequest};
use crate::telemetry::{Telemetry, TELEMETRY_SCHEMA_VERSION};

/// The request executor: artifact store + batcher + worker pool.
pub struct Service {
    store: Arc<ArtifactStore>,
    batcher: Arc<Batcher>,
    pool: Arc<WorkerPool>,
    telemetry: Arc<Telemetry>,
    requests: AtomicU64,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("pool", &self.pool.stats())
            .finish_non_exhaustive()
    }
}

impl Service {
    /// A service over `store` with `workers` pool threads and the
    /// given batching window.
    pub fn new(store: Arc<ArtifactStore>, workers: usize, window: Duration) -> Service {
        Service {
            store,
            batcher: Arc::new(Batcher::new(window)),
            pool: Arc::new(WorkerPool::new(workers)),
            telemetry: Arc::new(Telemetry::from_env()),
            requests: AtomicU64::new(0),
        }
    }

    /// A single-threaded service over a fresh store (the
    /// `fosm client --local` path): no batching window, one worker.
    /// With `FOSM_CACHE_DIR` set, the store is disk-backed, so local
    /// runs share artifacts with a daemon pointed at the same
    /// directory.
    pub fn local() -> Service {
        let store = ArtifactStore::new();
        if let Some(disk) = fosm_bench::disk::DiskCache::from_env() {
            store.attach_disk(Arc::new(disk));
        }
        Service::new(Arc::new(store), 1, Duration::ZERO)
    }

    /// The worker pool, for the server's request dispatch.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The artifact store backing this service.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// The telemetry state (phase histograms + flight recorder).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Stops the worker pool (drains queued work, joins threads).
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }

    /// Executes one request to completion and renders the response.
    /// Never panics on malformed input — every failure is a structured
    /// [`Response::Err`].
    pub fn execute(&self, req: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        fosm_obs::counter_add("serve.requests", 1);
        let result = match req {
            Request::Ping => Ok("pong\n".to_string()),
            Request::Profile(p) => self.profile(p),
            Request::Model(p) => self.model(p),
            Request::Validate(v) => self.validate(v),
            Request::Explore(e) => self.explore(e),
            Request::Stats => Ok(self.stats_body()),
            Request::Telemetry => Ok(self.telemetry_body()),
            Request::Shutdown => Ok("shutting down\n".to_string()),
        };
        match result {
            Ok(body) => Response::ok(body),
            Err(resp) => resp,
        }
    }

    /// Resolves a profile request down to validated pipeline inputs.
    fn resolve(
        &self,
        p: &ProfileRequest,
    ) -> Result<(BenchmarkSpec, ProcessorParams, Probe), Response> {
        let spec = find_benchmark(&p.bench).map_err(|e| Response::err("bad-request", e))?;
        let params = p
            .machine
            .to_params()
            .map_err(|e| Response::err("bad-request", e))?;
        let probe =
            probe_variant(&p.probe, &p.bench).map_err(|e| Response::err("bad-request", e))?;
        Ok((spec, params, probe))
    }

    /// The profile this request describes, through the batcher.
    fn collect(
        &self,
        p: &ProfileRequest,
    ) -> Result<(ProcessorParams, Arc<ProgramProfile>), Response> {
        let (spec, params, probe) = self.resolve(p)?;
        let profile = self
            .batcher
            .profile(&self.store, &params, probe, &spec, p.insts, p.seed)
            .map_err(batch_error)?;
        Ok((params, profile))
    }

    /// `profile`: the functional profile as pretty-printed JSON (the
    /// same serialization `fosm profile` writes).
    fn profile(&self, p: &ProfileRequest) -> Result<String, Response> {
        let (_, profile) = self.collect(p)?;
        let json = serde_json::to_string_pretty(&*profile)
            .map_err(|e| Response::err("model-error", e.to_string()))?;
        Ok(format!("{json}\n"))
    }

    /// `model`: profile + first-order evaluation, rendered by
    /// [`render_estimate`] exactly as `fosm model` prints it.
    fn model(&self, p: &ProfileRequest) -> Result<String, Response> {
        let (params, profile) = self.collect(p)?;
        let est = FirstOrderModel::new(params)
            .evaluate(&profile)
            .map_err(|e| Response::err("model-error", e.to_string()))?;
        Ok(render_estimate(&profile.name, &est))
    }

    /// `validate`: one workload's differential comparison, rendered
    /// as `fosm validate --bench <name>`'s component table.
    fn validate(&self, v: &ValidateRequest) -> Result<String, Response> {
        let spec = find_benchmark(&v.bench).map_err(|e| Response::err("bad-request", e))?;
        let params = v
            .machine
            .to_params()
            .map_err(|e| Response::err("bad-request", e))?;
        let config = harness::config_of(&params);
        config
            .validate()
            .map_err(|e| Response::err("bad-request", e))?;
        let cases = vec![fosm_validate::CaseSpec {
            config,
            bench: spec,
            trace_len: v.insts,
            seed: v.seed,
        }];
        let tol = ToleranceSpec::gate();
        // One case; the sweep's own fan-out would fight the request
        // pool for cores, so it runs single-threaded here.
        let options = fosm_validate::differential::SweepOptions {
            threads: 1,
            statsim: false,
        };
        let results = fosm_validate::differential::sweep(&self.store, &cases, &tol, options)
            .map_err(|e| Response::err("model-error", format!("validation sweep failed: {e}")))?;
        let report = fosm_validate::ValidationReport::new(v.insts, v.seed, tol, results);
        Ok(report.render_table())
    }

    /// `explore`: a grid sweep answered as a frontier summary plus CSV.
    fn explore(&self, e: &ExploreRequest) -> Result<String, Response> {
        let spec = find_benchmark(&e.bench).map_err(|err| Response::err("bad-request", err))?;
        let base = fosm_explore::MachineGrid::baseline_sweep();
        let pick = |axis: &[u32], default: Vec<u32>| {
            if axis.is_empty() {
                default
            } else {
                axis.to_vec()
            }
        };
        let grid = fosm_explore::MachineGrid {
            widths: pick(&e.widths, base.widths),
            win_sizes: pick(&e.windows, base.win_sizes),
            rob_sizes: pick(&e.robs, base.rob_sizes),
            pipe_depths: pick(&e.depths, base.pipe_depths),
            l2_latencies: pick(&e.l2s, base.l2_latencies),
            mem_latencies: pick(&e.mems, base.mem_latencies),
        };
        grid.validate()
            .map_err(|err| Response::err("bad-request", err.to_string()))?;

        let axes = fosm_explore::HardwareAxes::baseline_only();
        let variants = axes.variants();
        let variant = variants[0];
        let params = ProcessorParams::baseline();
        let probe = Probe::new(format!("{}:explore", e.bench));
        let profile = self
            .batcher
            .profile(&self.store, &params, probe, &spec, e.insts, e.seed)
            .map_err(batch_error)?;

        // One sweep over the whole grid, on this request's own worker.
        let model = FirstOrderModel::new(params);
        let tag = fosm_explore::ShardTag {
            workload: 0,
            variant: 0,
        };
        let fosm_explore::ShardResult {
            configs, frontier, ..
        } = fosm_explore::sweep_profile(&model, &profile, &grid, &variant, tag)
            .map_err(|err| Response::err("model-error", err.to_string()))?;
        let workload_names = vec![e.bench.clone()];
        let rows = fosm_explore::frontier_rows(frontier.points(), &workload_names, &variants);
        let mut out = format!(
            "explored {configs} configs: 1 workload(s) x 1 hardware variant(s) x {} grid points\n",
            grid.len()
        );
        out.push_str(&format!("pareto frontier: {} point(s)\n", frontier.len()));
        out.push_str(&fosm_explore::frontier_csv(&rows));
        Ok(out)
    }

    /// `stats`: deterministic key/value diagnostics. The CI cache-reuse
    /// job greps `store.disk_hit` here, so the line set and spelling
    /// are a stable interface.
    fn stats_body(&self) -> String {
        let pool: PoolStats = self.pool.stats();
        let batch: BatchStats = self.batcher.stats();
        let store = self.store.stats();
        let disk = self.store.disk().map(|d| d.stats()).unwrap_or_default();
        let mut out = String::new();
        for (key, value) in [
            ("serve.requests", self.requests.load(Ordering::Relaxed)),
            ("pool.workers", pool.workers as u64),
            ("pool.executed", pool.executed),
            ("batch.passes", batch.passes),
            ("batch.coalesced", batch.coalesced),
            ("store.trace_hit", store.trace_hits),
            ("store.trace_miss", store.trace_misses),
            ("store.profile_hit", store.profile_hits),
            ("store.profile_miss", store.profile_misses),
            ("store.disk_hit", disk.hits),
            ("store.disk_miss", disk.misses),
            ("store.disk_insert", disk.inserts),
            ("store.disk_evict", disk.evictions),
            ("store.disk_corrupt", disk.corruptions),
        ] {
            out.push_str(&format!("{key} {value}\n"));
        }
        out
    }

    /// `telemetry`: one line of schema-versioned JSON — request totals,
    /// pool/batch traffic, per-kind phase histograms, and the flight
    /// recorder. Unlike `stats` (a frozen byte interface), this body
    /// is versioned by its `fosm_telemetry` field: it may grow fields
    /// within a version, and dropping one bumps the version.
    fn telemetry_body(&self) -> String {
        let pool: PoolStats = self.pool.stats();
        let batch: BatchStats = self.batcher.stats();
        // Export the live queue depth as a gauge too: under a request
        // scope it lands in the scoped registry and is absorbed into
        // the global manifest (last write wins).
        fosm_obs::gauge_set("serve.pool.queue_depth", pool.queue_depth as f64);
        let mut out = String::with_capacity(1024);
        out.push_str("{\"fosm_telemetry\":");
        out.push_str(&TELEMETRY_SCHEMA_VERSION.to_string());
        out.push_str(",\"enabled\":");
        out.push_str(if self.telemetry.enabled() {
            "true"
        } else {
            "false"
        });
        out.push_str(",\"requests\":");
        out.push_str(&self.requests.load(Ordering::Relaxed).to_string());
        out.push_str(",\"pool\":{");
        for (i, (key, value)) in [
            ("workers", pool.workers as u64),
            ("executed", pool.executed),
            ("parks", pool.parks),
            ("queue_depth", pool.queue_depth as u64),
        ]
        .into_iter()
        .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push_str("},\"batch\":{\"passes\":");
        out.push_str(&batch.passes.to_string());
        out.push_str(",\"coalesced\":");
        out.push_str(&batch.coalesced.to_string());
        out.push_str(",\"memo_hits\":");
        out.push_str(&batch.memo_hits.to_string());
        out.push_str("},");
        self.telemetry.write_json_sections(&mut out);
        out.push_str("}\n");
        out
    }
}

/// A batcher failure as a response: a panicked batch leader is the
/// daemon's fault (`internal`), anything else the model's.
fn batch_error(message: String) -> Response {
    let code = if message == LEADER_PANICKED {
        "internal"
    } else {
        "model-error"
    };
    Response::err(code, message)
}

/// Looks up a built-in benchmark by name (same error text as the CLI).
pub fn find_benchmark(name: &str) -> Result<BenchmarkSpec, String> {
    BenchmarkSpec::all()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown benchmark `{name}` (see `fosm bench-list`)"))
}

/// Builds the probe for one named simulation set (see
/// [`SimulationSet::parse`]) of the baseline machine, named
/// `{trace}:{name}` — the same probes `fosm profile --probes` builds.
///
/// # Errors
///
/// An unknown simulation-set name.
pub fn probe_variant(name: &str, trace: &str) -> Result<Probe, String> {
    let set = SimulationSet::parse(name)?;
    Ok(harness::probe_of(
        &MachineConfig::baseline().simulation_set(set),
        format!("{trace}:{name}"),
    ))
}

/// Renders an estimate's CPI stack, total and penalties — the text both
/// `fosm model` and the daemon's `model` request answer with.
pub fn render_estimate(name: &str, est: &Estimate) -> String {
    let mut out = format!("first-order model estimate for `{name}`:\n");
    for (component, cpi) in est.cpi_stack() {
        out.push_str(&format!("  {component:<10} {cpi:>7.4} CPI\n"));
    }
    out.push_str(&format!(
        "  {:<10} {:>7.4} CPI   ({:.3} IPC)\n",
        "total",
        est.total_cpi(),
        est.total_ipc()
    ));
    out.push_str(&format!(
        "  penalties: branch {:.1}, icache {:.1}, dcache/miss {:.1} cycles\n",
        est.branch_penalty, est.icache_penalty, est.dcache_penalty_per_miss
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_response, MachineSpec};

    fn test_service() -> Service {
        Service::new(Arc::new(ArtifactStore::new()), 2, Duration::ZERO)
    }

    fn profile_req(probe: &str) -> ProfileRequest {
        ProfileRequest {
            bench: "gzip".into(),
            insts: 3_000,
            seed: 7,
            machine: MachineSpec::default(),
            probe: probe.into(),
        }
    }

    fn body(resp: Response) -> String {
        match resp {
            Response::Ok { body } => body,
            Response::Err { code, message } => panic!("unexpected error {code}: {message}"),
        }
    }

    #[test]
    fn ping_pongs() {
        assert_eq!(body(test_service().execute(&Request::Ping)), "pong\n");
    }

    #[test]
    fn profile_returns_pretty_json_with_trailing_newline() {
        let out = body(test_service().execute(&Request::Profile(profile_req("full"))));
        assert!(out.starts_with('{') && out.ends_with("}\n"));
        let parsed: ProgramProfile =
            serde_json::from_str(out.trim_end()).expect("body is a profile");
        assert_eq!(parsed.name, "gzip:full");
    }

    #[test]
    fn model_renders_the_cpi_stack() {
        let out = body(test_service().execute(&Request::Model(profile_req("full"))));
        assert!(out.starts_with("first-order model estimate for `gzip:full`:\n"));
        assert!(out.contains(" CPI   ("));
        assert!(out.contains("penalties: branch "));
    }

    #[test]
    fn identical_requests_are_byte_identical_and_memoized() {
        let service = test_service();
        let first = body(service.execute(&Request::Model(profile_req("full"))));
        let second = body(service.execute(&Request::Model(profile_req("full"))));
        assert_eq!(first, second);
        let stats = service.store.stats();
        assert_eq!(stats.profile_hits, 1, "second request memoized");
    }

    #[test]
    fn unknown_benchmark_and_probe_are_bad_requests() {
        let service = test_service();
        for req in [
            Request::Profile(ProfileRequest {
                bench: "nope".into(),
                ..profile_req("full")
            }),
            Request::Profile(profile_req("bogus")),
        ] {
            match service.execute(&req) {
                Response::Err { code, .. } => assert_eq!(code, "bad-request"),
                Response::Ok { body } => panic!("unexpected success: {body}"),
            }
        }
    }

    #[test]
    fn invalid_machine_is_a_bad_request() {
        let service = test_service();
        let (mut zero, mut deep) = (profile_req("full"), profile_req("full"));
        zero.machine.width = 0;
        deep.machine.depth = u32::MAX;
        for (req, needle) in [(zero, "width"), (deep, "pipe_depth 4294967295 exceeds")] {
            for wrap in [Request::Profile, Request::Model] {
                match service.execute(&wrap(req.clone())) {
                    Response::Err { code, message } => {
                        assert_eq!(code, "bad-request");
                        assert!(message.contains(needle), "{message}");
                    }
                    Response::Ok { body } => panic!("unexpected success: {body}"),
                }
            }
        }
    }

    #[test]
    fn explore_returns_a_frontier_csv() {
        let req = ExploreRequest {
            bench: "gzip".into(),
            insts: 3_000,
            seed: 7,
            widths: vec![2, 4],
            windows: vec![16, 32],
            robs: vec![128],
            depths: vec![5],
            l2s: vec![12],
            mems: vec![200],
        };
        let out = body(test_service().execute(&Request::Explore(req)));
        assert!(out.starts_with("explored 4 configs:"));
        assert!(out
            .contains("workload,icache,dcache,predictor,width,window,rob,depth,l2,mem,ipc,cost\n"));
        assert!(out.contains("gzip,"));
    }

    #[test]
    fn explore_past_a_machine_maximum_is_a_bad_request() {
        let req = ExploreRequest {
            bench: "gzip".into(),
            insts: 3_000,
            seed: 7,
            widths: vec![],
            windows: vec![],
            robs: vec![],
            depths: vec![u32::MAX],
            l2s: vec![],
            mems: vec![],
        };
        match test_service().execute(&Request::Explore(req)) {
            Response::Err { code, message } => {
                assert_eq!(code, "bad-request");
                assert!(
                    message.contains("`depths` value 4294967295 exceeds the pipe_depth maximum"),
                    "{message}"
                );
            }
            Response::Ok { body } => panic!("unexpected success: {body}"),
        }
    }

    #[test]
    fn explore_bytes_are_pinned() {
        // FNV-1a digests of the encoded response frames, recorded
        // when explore still swept one shard per width and merged.
        let service = test_service();
        let baseline = ExploreRequest {
            bench: "gzip".into(),
            insts: 20_000,
            seed: 42,
            widths: vec![],
            windows: vec![],
            robs: vec![],
            depths: vec![],
            l2s: vec![],
            mems: vec![],
        };
        let custom = ExploreRequest {
            widths: vec![2, 8],
            windows: vec![32],
            ..baseline.clone()
        };
        for (req, digest) in [
            (baseline, 0xd0a6_a082_d95d_724f),
            (custom, 0x1a36_f694_e037_7cb1),
        ] {
            let frame = encode_response(&service.execute(&Request::Explore(req)));
            assert_eq!(
                fosm_trace::fnv1a64(&frame),
                digest,
                "{}",
                String::from_utf8_lossy(&frame)
            );
        }
    }

    #[test]
    fn telemetry_body_is_schema_versioned_json() {
        let service = test_service();
        service.execute(&Request::Ping);
        service.telemetry().record(crate::telemetry::RequestRecord {
            seq: 0,
            kind: "ping",
            outcome: "ok".into(),
            queue_us: 1,
            batch_wait_us: 0,
            exec_us: 2,
            respond_us: 1,
            total_us: 5,
            resp_bytes: 20,
            cache_hit: true,
        });
        let out = body(service.execute(&Request::Telemetry));
        assert!(out.starts_with("{\"fosm_telemetry\":2,"));
        assert!(out.ends_with("}\n"));
        let v: serde::Value = serde_json::from_str(out.trim_end()).expect("valid JSON");
        let pool = v.get("pool").expect("pool section");
        assert!(pool.get("queue_depth").is_some());
        assert!(pool.get("steals").is_none() && pool.get("caller_runs").is_none());
        assert!(v.get("batch").and_then(|b| b.get("passes")).is_some());
        let hists = v.get("hists").expect("hists section");
        assert!(hists.get("serve.total_us.ping").is_some());
        assert!(v.get("flight").and_then(|f| f.get("records")).is_some());
    }

    #[test]
    fn stats_lists_the_stable_counter_keys() {
        let service = test_service();
        service.execute(&Request::Ping);
        let out = body(service.execute(&Request::Stats));
        for key in [
            "serve.requests ",
            "pool.workers 2",
            "batch.passes ",
            "store.disk_hit 0",
            "store.disk_corrupt 0",
        ] {
            assert!(out.contains(key), "stats missing `{key}`:\n{out}");
        }
    }
}
