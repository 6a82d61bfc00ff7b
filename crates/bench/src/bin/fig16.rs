//! Figure 16: the "stack model" of performance — per-benchmark CPI
//! decomposed into ideal + L1 I-cache + L2 I-cache + L2 D-cache +
//! branch misprediction adders, as estimated by the first-order model.

use fosm_bench::store::ArtifactStore;
use fosm_bench::{harness, par};
use fosm_sim::MachineConfig;
use fosm_workloads::BenchmarkSpec;

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("fig16", &args);
    let n = args.trace_len;
    let params = harness::params_of(&MachineConfig::baseline());
    let store = ArtifactStore::global();
    println!("Figure 16: CPI stack (model components, {n} insts/benchmark)");
    println!(
        "{:<8} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "bench", "ideal", "L1-I", "L2-I", "L2-D", "branch", "total"
    );
    let stacks = par::par_map_benchmarks(&BenchmarkSpec::all(), |spec| {
        let profile = store.profile(&params, &spec.name, spec, n, harness::SEED);
        let est = harness::estimate(&params, &profile);
        (spec.name.clone(), est)
    });
    for (name, est) in &stacks {
        println!(
            "{:<8} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
            name,
            est.steady_state_cpi,
            est.icache_l1_cpi,
            est.icache_l2_cpi,
            est.dcache_cpi,
            est.branch_cpi,
            est.total_cpi()
        );
    }
    let max = stacks
        .iter()
        .map(|(_, e)| e.total_cpi())
        .fold(0.0f64, f64::max);
    println!("\nstacked bars (i=ideal, I=icache, D=dcache, B=branch):");
    for (name, est) in &stacks {
        let seg = |v: f64| ((v / max) * 56.0).round() as usize;
        println!(
            "{name:<8} |{}{}{}{}|",
            "i".repeat(seg(est.steady_state_cpi)),
            "I".repeat(seg(est.icache_l1_cpi + est.icache_l2_cpi)),
            "D".repeat(seg(est.dcache_cpi)),
            "B".repeat(seg(est.branch_cpi)),
        );
    }
    println!("\n(expected shape: mcf/twolf dominated by L2-D; gzip/bzip by branch;");
    println!(" gcc/vortex/perl/crafty with the largest I-cache components)");
}
