//! A fused pass shares each distinct L1, predictor and data TLB between
//! the probes that configure it alike, but flushes a shared structure's
//! statistics once for every probe that uses it. So the `profile.cache.*`
//! and `profile.branch.*` totals of one five-probe fused pass equal the
//! sum over five single-probe passes.
//!
//! The profiler flushes into the process-global registry, so this is
//! the only test in its binary.

use std::collections::BTreeMap;

use fosm_branch::PredictorConfig;
use fosm_cache::{HierarchyConfig, TlbConfig};
use fosm_core::{Probe, ProbeBank, ProcessorParams, ProfileCollector};
use fosm_trace::VecTrace;
use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};

/// The `profile.cache.*` and `profile.branch.*` counters that `run`
/// adds to the global registry.
fn counters_added(run: impl FnOnce()) -> BTreeMap<String, u64> {
    let before = fosm_obs::global().snapshot().counters;
    run();
    fosm_obs::global()
        .snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| {
            name.starts_with("profile.cache.") || name.starts_with("profile.branch.")
        })
        .map(|(name, total)| {
            let delta = total - before.get(&name).copied().unwrap_or(0);
            (name, delta)
        })
        .filter(|(_, delta)| *delta > 0)
        .collect()
}

#[test]
fn fused_counter_totals_equal_the_sum_of_single_probe_runs() {
    let h = HierarchyConfig::baseline().with_next_line_prefetch(2);
    let tlb = TlbConfig::baseline();
    let ideal = PredictorConfig::Ideal;
    // The five simulation sets of a prefetching machine with a TLB.
    let bank = ProbeBank::from(vec![
        Probe::new("full").with_hierarchy(h).with_dtlb(tlb),
        Probe::new("ideal")
            .with_hierarchy(HierarchyConfig::ideal())
            .with_predictor(ideal),
        Probe::new("branch").with_hierarchy(HierarchyConfig::ideal()),
        Probe::new("icache")
            .with_hierarchy(HierarchyConfig {
                l1d: None,
                next_line_prefetch: 0,
                ..h
            })
            .with_predictor(ideal),
        Probe::new("dcache")
            .with_hierarchy(HierarchyConfig { l1i: None, ..h })
            .with_predictor(ideal)
            .with_dtlb(tlb),
    ]);
    let params = ProcessorParams::baseline();
    let trace = VecTrace::record(
        &mut WorkloadGenerator::new(&BenchmarkSpec::gcc(), 5),
        20_000,
    );
    let collector = ProfileCollector::new(&params);

    let fused = counters_added(|| {
        collector
            .collect_many(&mut trace.replay(), &bank, u64::MAX)
            .expect("fused pass");
    });
    let single = counters_added(|| {
        for probe in bank.probes() {
            collector
                .collect_many(
                    &mut trace.replay(),
                    &ProbeBank::from(vec![probe.clone()]),
                    u64::MAX,
                )
                .expect("single-probe pass");
        }
    });
    for prefix in ["profile.cache.l1i", "profile.cache.l1d", "profile.cache.l2"] {
        assert!(
            fused.contains_key(&format!("{prefix}.misses")),
            "{prefix} saw misses"
        );
    }
    assert!(fused.contains_key("profile.cache.dtlb.misses"));
    assert!(fused.contains_key("profile.branch.mispredicts"));
    assert_eq!(fused, single);
}
