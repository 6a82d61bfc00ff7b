//! Sensitivity study: branch predictors at comparable hardware budgets
//! (~8–16 KB of state), their misprediction rates per benchmark, and
//! the resulting model branch-CPI. The first-order model turns any
//! predictor improvement directly into CPI through eq. 2/3 — no
//! re-simulation needed.

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_branch::PredictorConfig;
use fosm_core::profile::{Probe, ProbeBank};
use fosm_sim::MachineConfig;
use fosm_workloads::BenchmarkSpec;

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("predictor_study", &args);
    let n = args.trace_len;
    let params = harness::params_of(&MachineConfig::baseline());
    let store = ArtifactStore::global();
    let predictors = [
        ("bimodal-13", PredictorConfig::Bimodal { bits: 13 }),
        ("gshare-13", PredictorConfig::Gshare { bits: 13 }),
        (
            "2level",
            PredictorConfig::TwoLevel {
                pc_bits: 11,
                history_bits: 12,
            },
        ),
        ("tournament", PredictorConfig::Tournament { bits: 12 }),
        (
            "perceptron",
            PredictorConfig::Perceptron {
                bits: 9,
                history: 24,
            },
        ),
    ];

    println!("Predictor study: misprediction rate / model branch CPI ({n} insts)");
    print!("{:<8}", "bench");
    for (name, _) in &predictors {
        print!(" {name:>16}");
    }
    println!();
    for spec in BenchmarkSpec::all() {
        print!("{:<8}", spec.name);
        // All five predictors ride one fused replay: the caches, mix,
        // and IW analysis are shared, only the predictors differ.
        let bank: ProbeBank = predictors
            .iter()
            .map(|(_, cfg)| Probe::new(spec.name.clone()).with_predictor(*cfg))
            .collect();
        let profiles = store
            .profile_many(&params, &bank, &spec, n, harness::SEED)
            .expect("profiles");
        for profile in &profiles {
            let est = harness::estimate(&params, profile);
            print!(
                " {:>8.1}%/{:>6.3}",
                profile.mispredict_rate() * 100.0,
                est.branch_cpi
            );
        }
        println!();
    }
    println!("\n(format: misprediction rate % / model branch-CPI adder)");
}
