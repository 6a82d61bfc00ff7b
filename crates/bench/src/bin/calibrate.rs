//! Calibration report: measured model inputs for every synthetic
//! benchmark (α, β, L, miss rates) so workload specs can be tuned
//! against the paper's Table 1 and qualitative statements.
//!
//! Every latency and structure below comes from the same
//! [`MachineConfig`] the model is evaluated under, so calibration can
//! never silently disagree with the evaluation configuration.

use fosm_bench::store::ArtifactStore;
use fosm_bench::{harness, par};
use fosm_branch::MispredictStats;
use fosm_cache::{AccessKind, AccessOutcome, Hierarchy, LongMissRecorder};
use fosm_depgraph::{iw, powerlaw};
use fosm_isa::LatencyTable;
use fosm_sim::MachineConfig;
use fosm_trace::TraceStats;
use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};

/// Calibration reads fewer instructions than the figures by default.
const DEFAULT_CALIBRATE_LEN: u64 = 200_000;

fn main() {
    let args = harness::run_args_with_default(DEFAULT_CALIBRATE_LEN);
    let _obs = harness::obs_session("calibrate", &args);
    let n = args.trace_len;
    let config = MachineConfig::baseline();
    let store = ArtifactStore::global();
    println!(
        "{:<8} {:>6} {:>6} {:>6} {:>7} {:>7} {:>8} {:>8} {:>8} {:>9} {:>7}",
        "bench",
        "alpha",
        "beta",
        "L",
        "br%",
        "misp%",
        "i-mr%",
        "d-mr%",
        "ldm/ki",
        "ovlp",
        "code KB"
    );
    let rows = par::par_map_benchmarks(&BenchmarkSpec::all(), |spec| {
        calibrate_row(spec, &config, store, n)
            .unwrap_or_else(|why| format!("{:<8} (skipped: {why})", spec.name))
    });
    for row in rows {
        println!("{row}");
    }
}

/// Measures one benchmark's model inputs; returns a reason string
/// instead of a row when the stream is degenerate (unfittable IW
/// curve, invalid hierarchy) rather than panicking mid-report.
fn calibrate_row(
    spec: &BenchmarkSpec,
    config: &MachineConfig,
    store: &ArtifactStore,
    n: u64,
) -> Result<String, String> {
    let generator = WorkloadGenerator::new(spec, 42);
    let code_kb = generator.program().code_bytes() / 1024;
    let trace = store.trace(spec, n, 42);
    let insts = trace.decode();

    // IW characteristic.
    let pts = iw::characteristic(&insts, &[4, 8, 16, 32, 64, 128], &LatencyTable::unit());
    let law = powerlaw::fit(&pts).map_err(|e| format!("IW fit failed: {e}"))?;

    // Mix -> L (plus short-miss adjustment computed below).
    let stats = TraceStats::from_source(&mut trace.replay(), usize::MAX);
    let l_fu = stats.average_latency(&config.latencies);

    // Caches + predictor, built from the evaluation config.
    let mut hier = Hierarchy::new(config.hierarchy).map_err(|e| format!("bad hierarchy: {e}"))?;
    let mut bp = config.predictor.build();
    let mut bstats = MispredictStats::new();
    let mut longs = LongMissRecorder::new();
    let mut i_misses = 0u64;
    let mut d_short = 0u64;
    let (mut i_acc, mut d_acc) = (0u64, 0u64);
    for (idx, inst) in insts.iter().enumerate() {
        i_acc += 1;
        if !matches!(hier.access(AccessKind::IFetch, inst.pc), AccessOutcome::L1) {
            i_misses += 1;
        }
        if let Some(addr) = inst.mem_addr {
            d_acc += 1;
            let kind = if inst.op == fosm_isa::Op::Load {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            match hier.access(kind, addr) {
                AccessOutcome::L1 => {}
                AccessOutcome::L2 => d_short += 1,
                AccessOutcome::Memory => longs.record(idx as u64),
            }
        }
        if inst.op.is_cond_branch() {
            // A malformed or synthetic record may carry no outcome;
            // skip it rather than panicking mid-calibration.
            let Some(branch) = inst.branch else { continue };
            let ok = bp.observe(inst.pc, branch.taken);
            bstats.record(ok, idx as u64);
        }
    }
    // Short misses fold into L at the L2 hit latency of the same
    // config the model runs with (paper §4.3).
    let short_extra = d_short as f64 / insts.len().max(1) as f64 * config.l2_latency as f64;
    let l_total = l_fu + short_extra;
    let dist = longs.distribution(config.rob_size);
    Ok(format!(
        "{:<8} {:>6.2} {:>6.2} {:>6.2} {:>7.2} {:>7.2} {:>8.3} {:>8.3} {:>8.2} {:>9.2} {:>7}",
        spec.name,
        law.alpha(),
        law.beta(),
        l_total,
        stats.branch_fraction() * 100.0,
        bstats.rate() * 100.0,
        i_misses as f64 / i_acc as f64 * 100.0,
        (d_short + longs.count()) as f64 / d_acc.max(1) as f64 * 100.0,
        longs.count() as f64 / insts.len().max(1) as f64 * 1000.0,
        dist.overlap_factor(),
        code_kb,
    ))
}
