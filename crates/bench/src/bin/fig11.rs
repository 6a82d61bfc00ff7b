//! Figure 11: the instruction-cache miss penalty is approximately the
//! L2 miss delay (8 cycles) and independent of the front-end depth.
//! Measured from detailed simulation: real I-cache vs ideal I-cache
//! (ideal predictor and D-cache), at 5 and 9 front-end stages.
//!
//! Benchmarks with a negligible number of I-cache misses are skipped,
//! as in the paper ("Benchmarks not shown had a negligible number of
//! misses").

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_sim::{MachineConfig, SimulationSet};
use fosm_workloads::BenchmarkSpec;

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("fig11", &args);
    let n = args.trace_len;
    let store = ArtifactStore::global();
    println!("Figure 11: I-cache miss penalty vs front-end depth ({n} insts, ∆I = 8)");
    println!(
        "{:<8} {:>9} {:>12} {:>12}",
        "bench", "misses", "penalty @5", "penalty @9"
    );
    for spec in BenchmarkSpec::all() {
        // Held while the four simulations replay it.
        let _trace = store.trace(&spec, n, harness::SEED);
        let simulate = |config: &MachineConfig| store.simulate(config, &spec, n, harness::SEED);
        let mut penalties = [0.0f64; 2];
        let mut short_misses = 0u64;
        for (slot, depth) in [5u32, 9].into_iter().enumerate() {
            let real = simulate(
                &MachineConfig::baseline()
                    .simulation_set(SimulationSet::ICache)
                    .with_pipe_depth(depth),
            );
            let ideal = simulate(&MachineConfig::ideal().with_pipe_depth(depth));
            // Short misses only: long (L2) instruction misses pay the
            // memory latency and would skew the per-miss average.
            let weighted = (real.cycles as i64 - ideal.cycles as i64) as f64
                - real.icache_long_misses as f64 * 200.0;
            penalties[slot] = weighted / real.icache_short_misses.max(1) as f64;
            short_misses = real.icache_short_misses;
        }
        // The paper skips benchmarks with a negligible number of misses
        // (the per-miss average is noise below a few hundred events).
        if short_misses < (n / 200).max(500) {
            println!(
                "{:<8} {:>9} {:>12} {:>12}",
                spec.name, short_misses, "(negl.)", "(negl.)"
            );
            continue;
        }
        println!(
            "{:<8} {:>9} {:>12.1} {:>12.1}",
            spec.name, short_misses, penalties[0], penalties[1]
        );
    }
    println!("\n(expected: ≈8 cycles at both depths — the penalty tracks the miss delay,");
    println!(" not the pipeline length; paper Fig. 11 shows the same)");
}
