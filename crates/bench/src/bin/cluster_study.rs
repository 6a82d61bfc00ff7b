//! Extension study (paper §7, new feature 3): partitioned/clustered
//! issue windows. Sweeps cluster counts, forwarding delays, and
//! steering policies on the detailed simulator, and compares the
//! model's first-order latency adjustment.

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_core::model::FirstOrderModel;
use fosm_sim::{ClusterConfig, MachineConfig, Steering};
use fosm_workloads::BenchmarkSpec;

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("cluster_study", &args);
    let n = args.trace_len;
    let params = harness::params_of(&MachineConfig::baseline());
    let store = ArtifactStore::global();

    println!("Cluster study: partitioned issue windows ({n} insts)");
    println!(
        "{:<8} {:<14} {:>9} {:>9} {:>9} {:>7}",
        "bench", "config", "steering", "sim CPI", "model CPI", "err%"
    );
    for spec in [
        BenchmarkSpec::vpr(),
        BenchmarkSpec::gzip(),
        BenchmarkSpec::vortex(),
    ] {
        // Held while the profile and the simulations replay it.
        let _trace = store.trace(&spec, n, harness::SEED);
        let simulate = |config: &MachineConfig| store.simulate(config, &spec, n, harness::SEED);
        let profile = store.profile(&params, &spec.name, &spec, n, harness::SEED);
        let mono = simulate(&MachineConfig::baseline());
        let mono_est = harness::estimate(&params, &profile);
        println!(
            "{:<8} {:<14} {:>9} {:>9.3} {:>9.3} {:>6.1}%",
            spec.name,
            "monolithic",
            "-",
            mono.cpi(),
            mono_est.total_cpi(),
            100.0 * (mono_est.total_cpi() - mono.cpi()) / mono.cpi()
        );
        for (clusters, delay) in [(2u32, 1u32), (2, 2), (4, 2)] {
            for steering in [Steering::RoundRobin, Steering::Dependence] {
                let cfg = ClusterConfig {
                    clusters,
                    forward_delay: delay,
                    steering,
                };
                let sim = simulate(&MachineConfig::baseline().with_clusters(cfg));
                // First-order crossing fractions: round-robin crosses
                // (k-1)/k of edges; dependence steering empirically
                // crosses about a third of that.
                let crossing = match steering {
                    Steering::RoundRobin => (clusters - 1) as f64 / clusters as f64,
                    Steering::Dependence => (clusters - 1) as f64 / clusters as f64 / 3.0,
                };
                let est = FirstOrderModel::new(params.clone())
                    .with_clusters(delay, crossing)
                    .evaluate(&profile)
                    .expect("estimate");
                println!(
                    "{:<8} {:<14} {:>9} {:>9.3} {:>9.3} {:>6.1}%",
                    spec.name,
                    format!("{clusters}x, +{delay}cyc"),
                    match steering {
                        Steering::RoundRobin => "rr",
                        Steering::Dependence => "dep",
                    },
                    sim.cpi(),
                    est.total_cpi(),
                    100.0 * (est.total_cpi() - sim.cpi()) / sim.cpi()
                );
            }
        }
    }
    println!("\n(model: crossing edges lengthen dependence chains — L grows by");
    println!(" forward_delay x crossing_fraction, the Little's-Law adjustment)");
}
