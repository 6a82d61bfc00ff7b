//! Figure 2: demonstration that miss-event penalties add
//! (near-)independently. For each benchmark we run the paper's five
//! simulation sets — everything ideal; fully real; and each miss-event
//! source real in isolation — then compare the fully-real IPC with the
//! IPC predicted by adding the three independently-measured penalties
//! to the ideal time (the paper's "independent" bars).
//!
//! With `-v`, also prints the per-component CPI adders measured from
//! simulation next to the model's estimates (a per-component error
//! diagnostic beyond the paper's figure).

use fosm_bench::harness;
use fosm_sim::{MachineConfig, SimulationSet};
use fosm_workloads::BenchmarkSpec;

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("fig02", &args);
    let n = args.trace_len;
    let config = MachineConfig::baseline();
    let params = harness::params_of(&config);

    println!("Figure 2: independence of miss-events (baseline machine, {n} insts/benchmark)");
    println!(
        "{:<8} {:>9} {:>12} {:>7}",
        "bench", "combined", "independent", "err%"
    );
    if args.verbose {
        println!(
            "{:>30}   [sim adders vs model: ideal | branch | icache | dcache]",
            ""
        );
    }
    let mut pairs = Vec::new();
    for spec in BenchmarkSpec::all() {
        let trace = harness::record(&spec, n);

        let ideal = harness::simulate(&MachineConfig::ideal(), &trace);
        let real = harness::simulate(&config, &trace);
        let only = |set| harness::simulate(&config.simulation_set(set), &trace);
        let only_bp = only(SimulationSet::Branch);
        let only_ic = only(SimulationSet::ICache);
        let only_dc = only(SimulationSet::DCache);

        // Independently-derived penalties added to the ideal time.
        let independent_cycles = ideal.cycles
            + (only_bp.cycles - ideal.cycles)
            + (only_ic.cycles - ideal.cycles)
            + (only_dc.cycles - ideal.cycles);
        let combined_ipc = real.ipc();
        let independent_ipc = real.instructions as f64 / independent_cycles as f64;
        let err = 100.0 * (independent_ipc - combined_ipc) / combined_ipc;
        println!(
            "{:<8} {:>9.3} {:>12.3} {:>6.1}%",
            spec.name, combined_ipc, independent_ipc, err
        );
        pairs.push((combined_ipc, independent_ipc));

        if args.verbose {
            let inst = real.instructions as f64;
            let profile = harness::profile(&params, &spec.name, &trace);
            let est = harness::estimate(&params, &profile);
            println!(
                "{:>30}   sim: {:.3} | {:.3} | {:.3} | {:.3}",
                "",
                ideal.cpi(),
                (only_bp.cycles - ideal.cycles) as f64 / inst,
                (only_ic.cycles - ideal.cycles) as f64 / inst,
                (only_dc.cycles - ideal.cycles) as f64 / inst,
            );
            println!(
                "{:>30}   mdl: {:.3} | {:.3} | {:.3} | {:.3}",
                "",
                est.steady_state_cpi,
                est.branch_cpi,
                est.icache_l1_cpi + est.icache_l2_cpi,
                est.dcache_cpi,
            );
        }
    }
    println!(
        "\naverage |error| = {:.1}%  (paper: 5%, worst 16%)",
        harness::mean_abs_error_pct(&pairs)
    );
}
