//! Differential tests of dead-cycle skipping: the machine with
//! [`Machine::skip_dead_cycles`] off steps every cycle and is the
//! oracle, so skipping must reproduce its report and miss events
//! exactly, on every machine shape the simulator supports.

use fosm_cache::TlbConfig;
use fosm_isa::{FuPool, Inst};
use fosm_trace::VecTrace;
use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};
use proptest::prelude::*;

use crate::{
    ClusterConfig, FetchBufferConfig, Machine, MachineConfig, SimReport, SimulationSet, Steering,
};

/// The run's report and events, with skipping on or off. Events are
/// compared as their debug text: their `predicted` field is `NaN`.
fn run(config: &MachineConfig, insts: &[Inst], skip: bool) -> (SimReport, Vec<String>) {
    let mut machine = Machine::new(config.clone());
    machine.skip_dead_cycles = skip;
    let (report, events) = machine.run_traced(&mut VecTrace::new(insts.to_vec()));
    (report, events.iter().map(|e| format!("{e:?}")).collect())
}

/// Cycles skipped by one run, read from the global `sim.cycles_skipped`
/// counter. Concurrent tests only ever add to it, so the delta is an
/// upper bound; callers assert lower bounds.
fn skipped_at_least(config: &MachineConfig, insts: &[Inst]) -> u64 {
    let counter = || fosm_obs::global().counter("sim.cycles_skipped");
    let before = counter();
    Machine::new(config.clone()).run(&mut VecTrace::new(insts.to_vec()));
    counter() - before
}

/// A valid machine: width 2-8 (rounded up to a multiple of the cluster
/// count), one window or 2 or 4 clusters with forwarding delay 0-3
/// under either steering, optional alpha-like functional units, fetch
/// buffer, and data TLB with next-line prefetch, reduced to one
/// simulation set.
fn machine() -> impl Strategy<Value = MachineConfig> {
    (
        (2u32..=8, 0u32..3, 0u32..=3, any::<bool>()),
        (2u32..=16, 0u32..=128, 1u32..=9),
        (4u32..=12, 30u32..=250),
        (any::<bool>(), prop::option::of((1u32..=32, 1u32..=8))),
        prop::option::of((prop::sample::select(vec![8u32, 16, 64]), 0u32..=2)),
        0usize..SimulationSet::ALL.len(),
    )
        .prop_map(
            |(
                (width, clusters, forward_delay, dependence),
                (win_quarters, rob_extra, pipe_depth),
                (l2_latency, mem_extra),
                (alpha, fetch_buffer),
                tlb,
                set,
            )| {
                let mut c = MachineConfig::baseline();
                let clusters = [1, 2, 4][clusters as usize];
                c.width = width.div_ceil(clusters) * clusters;
                c.win_size = win_quarters * 4;
                c.rob_size = c.win_size + rob_extra;
                c.pipe_depth = pipe_depth;
                c.l2_latency = l2_latency;
                c.mem_latency = l2_latency + mem_extra;
                if clusters > 1 {
                    c.clusters = Some(ClusterConfig {
                        clusters,
                        forward_delay,
                        steering: if dependence {
                            Steering::Dependence
                        } else {
                            Steering::RoundRobin
                        },
                    });
                }
                if alpha {
                    c.fu = Some(FuPool::alpha_like());
                }
                if let Some((entries, extra)) = fetch_buffer {
                    c.fetch_buffer = Some(FetchBufferConfig {
                        entries,
                        bandwidth: c.width + extra,
                    });
                }
                if let Some((entries, prefetch)) = tlb {
                    c.dtlb = Some(TlbConfig {
                        entries,
                        ..TlbConfig::baseline()
                    });
                    c.hierarchy = c.hierarchy.with_next_line_prefetch(prefetch);
                }
                let c = c.simulation_set(SimulationSet::ALL[set]);
                c.validate().expect("strategy builds valid machines");
                c
            },
        )
}

fn generate(spec: &BenchmarkSpec, seed: u64, len: u64) -> Vec<Inst> {
    VecTrace::record(&mut WorkloadGenerator::new(spec, seed), len).into_inner()
}

/// A generator trace of one of the twelve benchmarks.
fn trace() -> impl Strategy<Value = Vec<Inst>> {
    (0usize..12, any::<u64>(), 500u64..3000)
        .prop_map(|(bench, seed, len)| generate(&BenchmarkSpec::all()[bench], seed, len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn skipping_matches_stepping(config in machine(), insts in trace()) {
        let stepped = run(&config, &insts, false);
        let skipped = run(&config, &insts, true);
        prop_assert_eq!(&skipped.0, &stepped.0, "report, config {:?}", config);
        prop_assert_eq!(skipped.1, stepped.1, "events, config {:?}", config);
    }
}

#[test]
fn every_simulation_set_matches_stepping_on_a_clustered_machine() {
    let base = MachineConfig::baseline()
        .with_clusters(ClusterConfig {
            clusters: 2,
            forward_delay: 3,
            steering: Steering::Dependence,
        })
        .with_fu_limits(FuPool::alpha_like())
        .with_fetch_buffer(FetchBufferConfig::baseline())
        .with_dtlb(TlbConfig::baseline());
    let insts = generate(&BenchmarkSpec::mcf(), 7, 4000);
    for set in SimulationSet::ALL {
        let config = base.simulation_set(set);
        assert_eq!(
            run(&config, &insts, true),
            run(&config, &insts, false),
            "{set:?}"
        );
    }
}

#[test]
fn long_misses_are_skipped_not_stepped() {
    // mcf misses to memory often, and while a miss blocks the ROB
    // head the machine idles: about three quarters of its cycles are
    // jumped over. Counting a pipe front that is ready but blocked by a
    // full ROB as an event would skip only about 57%.
    let insts = generate(&BenchmarkSpec::mcf(), 3, 4000);
    let config = MachineConfig::baseline();
    let report = Machine::new(config.clone()).run(&mut VecTrace::new(insts.clone()));
    assert!(report.dcache_long_misses > 10, "{report:?}");
    let skipped = skipped_at_least(&config, &insts);
    assert!(
        skipped * 3 > report.cycles * 2,
        "skipped {skipped} of {} cycles",
        report.cycles
    );
}
