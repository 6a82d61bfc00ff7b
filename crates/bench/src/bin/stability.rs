//! Robustness check: is the model's Fig. 15 accuracy an artifact of one
//! random seed? Re-runs the model-vs-simulation comparison across
//! several dynamic seeds per benchmark and reports the spread.

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_sim::MachineConfig;
use fosm_workloads::BenchmarkSpec;

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("stability", &args);
    let n = args.trace_len;
    let seeds = [42u64, 1, 7, 1234];
    let config = MachineConfig::baseline();
    let params = harness::params_of(&config);
    let store = ArtifactStore::global();

    println!(
        "Stability: model error across {} seeds ({n} insts/benchmark)",
        seeds.len()
    );
    println!(
        "{:<8} {:>24} {:>9} {:>9}",
        "bench", "err% per seed", "mean", "spread"
    );
    let mut grand = Vec::new();
    for spec in BenchmarkSpec::all() {
        let mut errs = Vec::new();
        for &seed in &seeds {
            // Held while the simulation and the profile replay it.
            let _trace = store.trace(&spec, n, seed);
            let sim = store.simulate(&config, &spec, n, seed);
            let profile = store.profile(&params, &spec.name, &spec, n, seed);
            let est = harness::estimate(&params, &profile);
            errs.push(100.0 * (est.total_cpi() - sim.cpi()) / sim.cpi());
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let spread = errs.iter().fold(0.0f64, |a, &e| a.max((e - mean).abs()));
        let list = errs
            .iter()
            .map(|e| format!("{e:+.1}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:<8} {:>24} {:>8.1}% {:>8.1}%",
            spec.name, list, mean, spread
        );
        grand.extend(errs.iter().map(|e| e.abs()));
    }
    println!(
        "\ngrand mean |error| over {} runs: {:.1}%",
        grand.len(),
        grand.iter().sum::<f64>() / grand.len() as f64
    );
}
