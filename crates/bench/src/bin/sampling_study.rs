//! Methodology study: sampled profiling. Profiling 10% of a long run
//! costs 10% of the time — but does a profile built from systematic
//! samples spanning the whole run beat a contiguous prefix of the same
//! size? (Classic sampling-methodology question; both short profiles
//! pay the cache/predictor cold-start toll that full profiles
//! amortize.)

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_core::profile::{ProfileCollector, SamplingPlan};
use fosm_sim::MachineConfig;
use fosm_trace::Sampler;
use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("sampling_study", &args);
    let n = args.trace_len;
    let config = MachineConfig::baseline();
    let params = harness::params_of(&config);
    let store = ArtifactStore::global();

    let budget = n / 10; // profile only 10% of the instructions
    println!("Sampling study: model CPI from 10%-budget profiles ({n} insts full)");
    println!(
        "{:<8} {:>9} {:>11} {:>11} {:>11} {:>11}",
        "bench", "sim CPI", "full-trace", "contiguous", "sampled", "samp+warm"
    );
    let mut errs = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for spec in BenchmarkSpec::all() {
        // Held while the full-run simulation and profile replay it.
        let _trace = store.trace(&spec, n, harness::SEED);
        let sim = store.simulate(&config, &spec, n, harness::SEED);
        let full = harness::estimate(
            &params,
            &store.profile(&params, &spec.name, &spec, n, harness::SEED),
        );

        // Contiguous prefix of the same budget.
        let prefix = store.profile(&params, &spec.name, &spec, budget, harness::SEED);
        let contiguous = harness::estimate(&params, &prefix).total_cpi();
        // Systematic samples spanning the whole run (10k of every 100k).
        let sampled = {
            let generator = WorkloadGenerator::new(&spec, harness::SEED);
            let mut sampler = Sampler::new(generator, 10_000, 100_000).expect("valid sampling");
            let profile = ProfileCollector::new(&params)
                .with_name(&spec.name)
                .collect(&mut sampler, budget)
                .expect("profile");
            harness::estimate(&params, &profile).total_cpi()
        };
        // Samples with functional warm-up: the collector streams the
        // 40k instructions before each sample through the caches and
        // predictor without counting them.
        let warmed = {
            let mut generator = WorkloadGenerator::new(&spec, harness::SEED);
            let plan = SamplingPlan {
                sample: 10_000,
                warmup: 40_000,
                period: 100_000,
            };
            let profile = ProfileCollector::new(&params)
                .with_name(&spec.name)
                .collect_sampled(&mut generator, plan, budget)
                .expect("profile");
            harness::estimate(&params, &profile).total_cpi()
        };
        println!(
            "{:<8} {:>9.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3}",
            spec.name,
            sim.cpi(),
            full.total_cpi(),
            contiguous,
            sampled,
            warmed
        );
        errs[0].push((sim.cpi(), full.total_cpi()));
        errs[1].push((sim.cpi(), contiguous));
        errs[2].push((sim.cpi(), sampled));
        errs[3].push((sim.cpi(), warmed));
    }
    println!(
        "\navg |error| vs full-run simulation: full {:.1}%, contiguous-10% {:.1}%, sampled-10% {:.1}%, sampled+warm {:.1}%",
        harness::mean_abs_error_pct(&errs[0]),
        harness::mean_abs_error_pct(&errs[1]),
        harness::mean_abs_error_pct(&errs[2]),
        harness::mean_abs_error_pct(&errs[3])
    );
    println!("(short profiles pay a cache/predictor cold-start toll; functional");
    println!(" warm-up before each sample removes most of it — standard sampled-");
    println!(" simulation practice, here applied to the model's trace analysis)");
}
