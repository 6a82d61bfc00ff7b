//! Figure 14: penalty per long data-cache miss — detailed simulation vs
//! the model's eq. 8 (isolated penalty × overlap factor from the
//! measured f_LDM distribution).

use fosm_bench::store::ArtifactStore;
use fosm_bench::{harness, par};
use fosm_core::dcache;
use fosm_sim::{MachineConfig, SimulationSet};
use fosm_workloads::BenchmarkSpec;

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("fig14", &args);
    let n = args.trace_len;
    let params = harness::params_of(&MachineConfig::baseline());
    let store = ArtifactStore::global();
    println!("Figure 14: penalty per long data-cache miss ({n} insts, ∆D = 200)");
    println!(
        "{:<8} {:>7} {:>8} {:>8} {:>8} {:>7}",
        "bench", "misses", "sim", "model", "eq8-paper", "ovlp"
    );
    let rows = par::par_map_benchmarks(&BenchmarkSpec::all(), |spec| {
        let only_dcache = MachineConfig::baseline().simulation_set(SimulationSet::DCache);
        let real = store.simulate(&only_dcache, spec, n, harness::SEED);
        let ideal = store.simulate(&MachineConfig::ideal(), spec, n, harness::SEED);
        let profile = store.profile(&params, &spec.name, spec, n, harness::SEED);
        (spec.name.clone(), real, ideal, profile)
    });
    let mut pairs = Vec::new();
    for (name, real, ideal, profile) in rows {
        let misses = profile.dcache_long_misses();
        if misses == 0 {
            println!("{name:<8} {:>7} (no long misses)", 0);
            continue;
        }
        let sim = (real.cycles - ideal.cycles) as f64 / real.dcache_long_misses.max(1) as f64;
        let model = dcache::penalty_per_miss(&profile.iw, &params, &profile.long_miss_distribution);
        // The paper's coarser variant: rob_fill = 0 (isolated = ∆D).
        let paper = dcache::isolated_penalty_paper(&profile.iw, &params)
            * profile.long_miss_distribution.overlap_factor();
        println!(
            "{:<8} {:>7} {:>8.1} {:>8.1} {:>8.1} {:>7.2}",
            name,
            misses,
            sim,
            model,
            paper,
            profile.long_miss_distribution.overlap_factor()
        );
        pairs.push((sim, model));
    }
    println!(
        "\naverage |error| vs simulation = {:.1}% (refined eq. 6+8 with dependence-aware f_LDM)",
        harness::mean_abs_error_pct(&pairs)
    );
}
