//! Extension study (paper §7, new feature 1): limited functional
//! units. The instruction mix determines a saturation level below the
//! machine width; the model's prediction is compared against the
//! detailed simulator's per-class issue limits.

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_core::model::FirstOrderModel;
use fosm_isa::FuPool;
use fosm_sim::MachineConfig;
use fosm_workloads::BenchmarkSpec;

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("fu_study", &args);
    let n = args.trace_len;
    let params = harness::params_of(&MachineConfig::baseline());
    let store = ArtifactStore::global();
    let pools: [(&str, FuPool); 3] = [
        ("alpha-like", FuPool::alpha_like()),
        (
            "1 mem port",
            FuPool {
                mem_ports: 1,
                ..FuPool::alpha_like()
            },
        ),
        (
            "2 int alus",
            FuPool {
                int_alu: 2,
                ..FuPool::alpha_like()
            },
        ),
    ];

    println!("FU study: limited functional units, model vs simulation ({n} insts)");
    println!(
        "{:<8} {:<11} {:>9} {:>9} {:>9} {:>7}",
        "bench", "pool", "eff.width", "sim CPI", "model CPI", "err%"
    );
    for spec in [
        BenchmarkSpec::eon(),
        BenchmarkSpec::mcf(),
        BenchmarkSpec::gzip(),
    ] {
        // Held while the profile and the simulations replay it.
        let _trace = store.trace(&spec, n, harness::SEED);
        let profile = store.profile(&params, &spec.name, &spec, n, harness::SEED);
        for (label, pool) in &pools {
            let config = MachineConfig::baseline().with_fu_limits(*pool);
            let sim = store.simulate(&config, &spec, n, harness::SEED);
            let est = FirstOrderModel::new(params.clone())
                .with_fu_limits(*pool)
                .evaluate(&profile)
                .expect("estimate");
            println!(
                "{:<8} {:<11} {:>9.2} {:>9.3} {:>9.3} {:>6.1}%",
                spec.name,
                label,
                est.effective_width,
                sim.cpi(),
                est.total_cpi(),
                100.0 * (est.total_cpi() - sim.cpi()) / sim.cpi()
            );
        }
    }
    println!("\n(the model caps the saturation rate at min_c units(c)/mix(c), the");
    println!(" paper's 'lower saturation level than the maximum issue width')");
}
