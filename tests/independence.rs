//! The paper's founding observation (Fig. 2): miss-event penalties add
//! near-independently. Adding each independently-measured penalty to
//! the ideal time reproduces the fully-real run within a small error.

use fosm::sim::{Machine, MachineConfig, SimulationSet};
use fosm::trace::VecTrace;
use fosm::workloads::{BenchmarkSpec, WorkloadGenerator};

fn cycles(cfg: MachineConfig, trace: &VecTrace) -> u64 {
    Machine::new(cfg).run(&mut trace.clone()).cycles
}

#[test]
fn miss_event_penalties_add_independently() {
    for spec in [BenchmarkSpec::gzip(), BenchmarkSpec::twolf()] {
        let mut generator = WorkloadGenerator::new(&spec, 42);
        let trace = VecTrace::record(&mut generator, 120_000);

        let ideal = cycles(MachineConfig::ideal(), &trace);
        let real = cycles(MachineConfig::baseline(), &trace);
        let only = |set| cycles(MachineConfig::baseline().simulation_set(set), &trace);
        let (bp, ic, dc) = (
            only(SimulationSet::Branch),
            only(SimulationSet::ICache),
            only(SimulationSet::DCache),
        );

        let independent = ideal + (bp - ideal) + (ic - ideal) + (dc - ideal);
        let err = (independent as f64 - real as f64).abs() / real as f64;
        assert!(
            err < 0.12,
            "{}: independent {independent} vs combined {real} ({:.1}% error; paper: ≤16%)",
            spec.name,
            err * 100.0
        );

        // Each individual penalty is positive: every miss-event source
        // actually costs time on these workloads.
        assert!(bp > ideal);
        assert!(dc > ideal);
    }
}
