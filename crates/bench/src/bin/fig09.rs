//! Figure 9: penalty per branch misprediction for 5- and 9-stage front
//! ends, measured from detailed simulation (real gshare vs ideal
//! predictor, ideal caches), compared with the model's eq. 2/3 range.
//!
//! The paper's observations: penalties typically 6.4–10 cycles at five
//! stages (vpr an outlier at 14.7), always above the front-end depth,
//! rising by roughly the added stages at nine.

use fosm_bench::store::ArtifactStore;
use fosm_bench::{harness, par};
use fosm_core::branch::{self, BurstAssumption};
use fosm_sim::{MachineConfig, SimulationSet};
use fosm_workloads::BenchmarkSpec;

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("fig09", &args);
    let n = args.trace_len;
    println!("Figure 9: penalty per branch misprediction, 5 vs 9 front-end stages ({n} insts)");
    println!(
        "{:<8} {:>8} {:>8}   {:>14} {:>14}",
        "bench", "sim @5", "sim @9", "model @5 (2/3)", "model @9 (2/3)"
    );
    let params5 = harness::params_of(&MachineConfig::baseline());
    let params9 = params5.clone().with_pipe_depth(9);
    let store = ArtifactStore::global();
    let rows = par::par_map_benchmarks(&BenchmarkSpec::all(), |spec| {
        let profile = store.profile(&params5, &spec.name, spec, n, harness::SEED);
        let mut sim_penalty = [0.0f64; 2];
        for (slot, depth) in [5u32, 9].into_iter().enumerate() {
            let real = store.simulate(
                &MachineConfig::baseline()
                    .simulation_set(SimulationSet::Branch)
                    .with_pipe_depth(depth),
                spec,
                n,
                harness::SEED,
            );
            let ideal = store.simulate(
                &MachineConfig::ideal().with_pipe_depth(depth),
                spec,
                n,
                harness::SEED,
            );
            sim_penalty[slot] =
                (real.cycles - ideal.cycles) as f64 / real.mispredicts.max(1) as f64;
        }
        (spec.name.clone(), sim_penalty, profile)
    });
    for (name, sim_penalty, profile) in rows {
        let model = |params| {
            let iso = branch::penalty(&profile.iw, params, BurstAssumption::Isolated);
            let brst = branch::penalty(
                &profile.iw,
                params,
                BurstAssumption::Bursts(profile.mispredict_burst_mean),
            );
            (brst, iso)
        };
        let (m5_lo, m5_hi) = model(&params5);
        let (m9_lo, m9_hi) = model(&params9);
        println!(
            "{:<8} {:>8.1} {:>8.1}   {:>6.1} - {:>5.1} {:>6.1} - {:>5.1}",
            name, sim_penalty[0], sim_penalty[1], m5_lo, m5_hi, m9_lo, m9_hi
        );
    }
    println!("\n(model range: eq. 3 with the measured burst length .. eq. 2 isolated)");
}
