//! A fused pass shares each distinct L1, predictor and data TLB between
//! the probes that configure it alike, but flushes a shared structure's
//! statistics once for every probe that uses it. So the `profile.cache.*`
//! and `profile.branch.*` totals of one five-probe fused pass equal the
//! sum over five single-probe passes.
//!
//! The profiler flushes into the calling thread's registry, so each
//! pass here runs under its own `scoped_registry` and leaves the global
//! registry alone.

use std::collections::BTreeMap;
use std::sync::Arc;

use fosm_branch::PredictorConfig;
use fosm_cache::{HierarchyConfig, TlbConfig};
use fosm_core::{Probe, ProbeBank, ProcessorParams, ProfileCollector};
use fosm_obs::Registry;
use fosm_trace::PackedTrace;
use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};

/// The non-zero `profile.cache.*` and `profile.branch.*` counters of
/// `registry`.
fn profile_counters(registry: &Registry) -> BTreeMap<String, u64> {
    registry
        .snapshot()
        .counters
        .into_iter()
        .filter(|(name, total)| {
            *total > 0
                && (name.starts_with("profile.cache.") || name.starts_with("profile.branch."))
        })
        .collect()
}

/// The `profile.cache.*` and `profile.branch.*` counters that `run`
/// adds, read from a registry scoped to it.
fn counters_added(run: impl FnOnce()) -> BTreeMap<String, u64> {
    let registry = Arc::new(Registry::new());
    {
        let _scope = fosm_obs::scoped_registry(Arc::clone(&registry));
        run();
    }
    profile_counters(&registry)
}

/// The five simulation sets of a prefetching machine with a TLB.
fn five_probes() -> ProbeBank {
    let h = HierarchyConfig::baseline().with_next_line_prefetch(2);
    let tlb = TlbConfig::baseline();
    let ideal = PredictorConfig::Ideal;
    ProbeBank::from(vec![
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
    ])
}

fn gcc_trace() -> PackedTrace {
    PackedTrace::record(
        &mut WorkloadGenerator::new(&BenchmarkSpec::gcc(), 5),
        20_000,
    )
}

#[test]
fn fused_counter_totals_equal_the_sum_of_single_probe_runs() {
    let bank = five_probes();
    let params = ProcessorParams::baseline();
    let trace = gcc_trace();
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

/// The profiler's and the IW sweep's counters in `registry`, zero or
/// not.
fn pass_counters(registry: &Registry) -> BTreeMap<String, u64> {
    registry
        .snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("profile.") || name.starts_with("iw.sweep."))
        .collect()
}

#[test]
fn a_scoped_pass_counts_in_its_scope_and_not_globally() {
    let global_before = pass_counters(fosm_obs::global());
    let registry = Arc::new(Registry::new());
    {
        let _scope = fosm_obs::scoped_registry(Arc::clone(&registry));
        ProfileCollector::new(&ProcessorParams::baseline())
            .collect_many(&mut gcc_trace().replay(), &five_probes(), u64::MAX)
            .expect("fused pass");
    }
    // The helper thread records nothing; the caller records the sweep's
    // counters and the stage times after the join.
    let scoped = pass_counters(&registry);
    for key in [
        "profile.cache.l1i.misses",
        "profile.cache.l1d.misses",
        "profile.cache.l2.misses",
        "profile.cache.dtlb.misses",
        "profile.branch.mispredicts",
        "iw.sweep.instructions",
        "profile.stage_a.wait_ns",
        "profile.stage_b.busy_ns",
    ] {
        assert!(scoped.contains_key(key), "{key} missing from {scoped:?}");
    }
    assert_eq!(registry.counter("iw.sweep.instructions"), 20_000);
    assert_eq!(registry.counter("profile.instructions"), 5 * 20_000);
    assert_eq!(pass_counters(fosm_obs::global()), global_before);
}
