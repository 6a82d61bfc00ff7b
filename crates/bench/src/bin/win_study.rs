//! Structural sweep: model vs simulation across window sizes and
//! widths. Exercises the model away from the baseline point — through
//! the dataflow-limited region (small windows, where `α·W^β/L` rules)
//! into saturation (the region the paper's evaluation lives in).

use fosm_bench::store::ArtifactStore;
use fosm_bench::{harness, par};
use fosm_core::model::FirstOrderModel;
use fosm_sim::MachineConfig;
use fosm_workloads::BenchmarkSpec;

const POINTS: [(u32, u32); 8] = [
    (2, 8),
    (2, 32),
    (4, 8),
    (4, 16),
    (4, 48),
    (4, 128),
    (8, 32),
    (8, 128),
];

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("win_study", &args);
    let n = args.trace_len;
    let base = MachineConfig::baseline();
    let params = harness::params_of(&base);
    let store = ArtifactStore::global();

    println!("Window/width sweep: model vs simulation CPI ({n} insts)");
    let specs = [
        BenchmarkSpec::gzip(),
        BenchmarkSpec::vortex(),
        BenchmarkSpec::vpr(),
    ];
    // One job per (benchmark, structural point): 24 simulations fan
    // out across cores. Each benchmark's trace is held here for the
    // sweep, so its eight simulations and its one profile replay it.
    let _traces: Vec<_> = specs
        .iter()
        .map(|spec| store.trace(spec, n, harness::SEED))
        .collect();
    let jobs: Vec<(BenchmarkSpec, u32, u32)> = specs
        .iter()
        .flat_map(|spec| POINTS.iter().map(move |&(w, win)| (spec.clone(), w, win)))
        .collect();
    let cells = par::par_map(&jobs, args.threads, |(spec, width, window)| {
        let mut cfg = base.clone().with_width(*width);
        cfg.win_size = *window;
        cfg.rob_size = cfg.rob_size.max(2 * window);
        let sim = store.simulate(&cfg, spec, n, harness::SEED);
        let profile = store.profile(&params, &spec.name, spec, n, harness::SEED);
        let mut p = params.clone();
        p.width = *width;
        p.win_size = *window;
        p.rob_size = cfg.rob_size;
        let est = FirstOrderModel::new(p)
            .evaluate(&profile)
            .expect("estimate");
        (sim.cpi(), est.total_cpi())
    });
    for (s, spec) in specs.iter().enumerate() {
        println!("\n{}:", spec.name);
        println!(
            "{:>6} {:>6} {:>9} {:>10} {:>7}",
            "width", "window", "sim CPI", "model CPI", "err%"
        );
        for (i, (width, window)) in POINTS.iter().enumerate() {
            let (sim_cpi, model_cpi) = cells[s * POINTS.len() + i];
            println!(
                "{:>6} {:>6} {:>9.3} {:>10.3} {:>6.1}%",
                width,
                window,
                sim_cpi,
                model_cpi,
                100.0 * (model_cpi - sim_cpi) / sim_cpi
            );
        }
    }
    println!("\n(small windows sit on the rising part of the IW characteristic;");
    println!(" the paper's machines live in the saturated region. Expect the low-ILP");
    println!(" benchmark to degrade at very large unsaturated windows: the drain/ramp");
    println!(" walks assume the mispredicted branch is the oldest instruction at");
    println!(" resolution, which breaks when a 128-entry window never saturates —");
    println!(" the first §7 refinement the paper calls for)");
}
