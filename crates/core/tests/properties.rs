//! Property-based tests for the first-order model's invariants.

use fosm_branch::PredictorConfig;
use fosm_cache::{BurstDistribution, CacheConfig, HierarchyConfig, Replacement, TlbConfig};
use fosm_core::branch::BurstAssumption;
use fosm_core::model::FirstOrderModel;
use fosm_core::profile::ProgramProfile;
use fosm_core::transient::{ramp_up, win_drain};
use fosm_core::{branch, dcache, icache, Probe, ProbeBank, ProcessorParams, ProfileCollector};
use fosm_depgraph::{IwCharacteristic, PowerLaw};
use fosm_trace::PackedTrace;
use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};
use proptest::prelude::*;

fn iw_strategy() -> impl Strategy<Value = IwCharacteristic> {
    (0.8f64..2.2, 0.2f64..0.9, 1.0f64..2.5)
        .prop_map(|(a, b, l)| IwCharacteristic::new(PowerLaw::new(a, b).unwrap(), l).unwrap())
}

fn profile_strategy() -> impl Strategy<Value = ProgramProfile> {
    (
        iw_strategy(),
        0u64..20_000,
        0u64..10_000,
        0u64..200,
        0u64..5_000,
    )
        .prop_map(
            |(iw, mispredicts, ic_short, ic_long, longs)| ProgramProfile {
                name: "prop".into(),
                instructions: 1_000_000,
                iw,
                cond_branches: 200_000,
                mispredicts,
                mispredict_burst_mean: 1.0,
                icache_short_misses: ic_short,
                icache_long_misses: ic_long,
                dcache_short_misses: 0,
                long_miss_distribution: BurstDistribution::all_isolated(longs),
                long_miss_distribution_paper: BurstDistribution::all_isolated(longs),
                dtlb_miss_distribution: BurstDistribution::default(),
                dtlb_walk_latency: 0,
                fu_mix: [0; 5],
            },
        )
}

fn hierarchy_strategy() -> impl Strategy<Value = HierarchyConfig> {
    prop_oneof![
        Just(HierarchyConfig::baseline()),
        Just(HierarchyConfig::ideal()),
        (1u32..4).prop_map(|depth| HierarchyConfig::baseline().with_next_line_prefetch(depth)),
        Just(HierarchyConfig {
            l1d: None,
            l2: None,
            ..HierarchyConfig::baseline()
        }),
        // Small L1s miss often, so the shared L1s feed the per-probe
        // L2s a busy stream.
        (0u32..4).prop_map(|depth| {
            let small = CacheConfig::new(1024, 2, 64, Replacement::Lru).unwrap();
            HierarchyConfig {
                l1i: Some(small),
                l1d: Some(small),
                ..HierarchyConfig::baseline().with_next_line_prefetch(depth)
            }
        }),
    ]
}

fn predictor_strategy() -> impl Strategy<Value = PredictorConfig> {
    prop_oneof![
        Just(PredictorConfig::Ideal),
        Just(PredictorConfig::baseline()),
        (6u32..13).prop_map(|bits| PredictorConfig::Gshare { bits }),
        (6u32..12).prop_map(|bits| PredictorConfig::Bimodal { bits }),
    ]
}

fn probe_strategy() -> impl Strategy<Value = Probe> {
    (
        hierarchy_strategy(),
        predictor_strategy(),
        prop::option::of(Just(TlbConfig::baseline())),
    )
        .prop_map(|(hierarchy, predictor, dtlb)| Probe {
            hierarchy,
            predictor,
            dtlb,
            name: "prop".into(),
        })
}

/// The five simulation sets of the machine whose `full` probe is given,
/// as `MachineConfig::simulation_set` builds them: everything ideal;
/// only the predictor real; only the I-side (`l1d: None` over a real
/// L2, no prefetch); only the D-side (`l1i: None`, with the TLB).
fn simulation_set_bank(full: Probe) -> Vec<Probe> {
    let h = full.hierarchy;
    let probe = |hierarchy, predictor, dtlb| Probe {
        hierarchy,
        predictor,
        dtlb,
        name: "prop".into(),
    };
    vec![
        probe(HierarchyConfig::ideal(), PredictorConfig::Ideal, None),
        probe(HierarchyConfig::ideal(), full.predictor, None),
        probe(
            HierarchyConfig {
                l1d: None,
                next_line_prefetch: 0,
                ..h
            },
            PredictorConfig::Ideal,
            None,
        ),
        probe(
            HierarchyConfig { l1i: None, ..h },
            PredictorConfig::Ideal,
            full.dtlb,
        ),
        full,
    ]
}

/// Banks with and without shared structures: arbitrary probes, the five
/// simulation sets of an arbitrary machine, and arbitrary probes each
/// repeated (so every structure is shared by at least two probes).
fn bank_strategy() -> impl Strategy<Value = Vec<Probe>> {
    prop_oneof![
        prop::collection::vec(probe_strategy(), 1..5),
        probe_strategy().prop_map(simulation_set_bank),
        (prop::collection::vec(probe_strategy(), 1..4), 0usize..3).prop_map(|(probes, skip)| {
            let repeats = probes.iter().cycle().skip(skip).take(probes.len());
            let mut bank = probes.clone();
            bank.extend(repeats.cloned());
            bank
        }),
    ]
}

fn bench_of(idx: usize) -> BenchmarkSpec {
    [
        BenchmarkSpec::gzip(),
        BenchmarkSpec::gcc(),
        BenchmarkSpec::mcf(),
        BenchmarkSpec::vpr(),
    ][idx % 4]
        .clone()
}

/// Runs the probe's configuration through the sequential (single-probe)
/// collector against a fresh replay.
fn collect_one(
    params: &ProcessorParams,
    probe: &Probe,
    trace: &PackedTrace,
    plan: Option<fosm_core::SamplingPlan>,
    max_counted: u64,
) -> ProgramProfile {
    let mut collector = ProfileCollector::new(params)
        .with_name(probe.name.clone())
        .with_hierarchy(probe.hierarchy)
        .with_predictor(probe.predictor);
    if let Some(tlb) = probe.dtlb {
        collector = collector.with_dtlb(tlb);
    }
    match plan {
        Some(plan) => collector.collect_sampled(&mut trace.replay(), plan, max_counted),
        None => collector.collect(&mut trace.replay(), max_counted),
    }
    .expect("sequential collection succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: `collect_many` over an arbitrary probe
    /// bank produces exactly the profiles `collect` produces one probe
    /// at a time — fusion and shared structures change the cost, never
    /// the answer.
    #[test]
    fn collect_many_matches_sequential_collect(
        probes in bank_strategy(),
        seed in 1u64..1000,
        bench in 0usize..4,
    ) {
        let params = ProcessorParams::baseline();
        let trace = PackedTrace::record(&mut WorkloadGenerator::new(&bench_of(bench), seed), 6_000);
        let bank = ProbeBank::from(probes.clone());
        let fused = ProfileCollector::new(&params)
            .collect_many(&mut trace.replay(), &bank, u64::MAX)
            .expect("fused collection succeeds");
        prop_assert_eq!(fused.len(), probes.len());
        for (probe, fused_profile) in probes.iter().zip(&fused) {
            let sequential = collect_one(&params, probe, &trace, None, u64::MAX);
            prop_assert_eq!(&sequential, fused_profile);
        }
    }

    /// The same invariant under systematic sampling plans, including
    /// warm-up-silent phases (structures updated, statistics frozen)
    /// and a counted-instruction budget.
    #[test]
    fn collect_many_sampled_matches_sequential(
        probes in bank_strategy(),
        seed in 1u64..1000,
        bench in 0usize..4,
        sample in 1u64..800,
        warmup in 0u64..800,
        slack in 0u64..800,
        budget in 1u64..4_000,
    ) {
        let params = ProcessorParams::baseline();
        let plan = fosm_core::SamplingPlan {
            sample,
            warmup,
            period: sample + warmup + slack,
        };
        let trace = PackedTrace::record(&mut WorkloadGenerator::new(&bench_of(bench), seed), 10_000);
        let bank = ProbeBank::from(probes.clone());
        let fused = ProfileCollector::new(&params)
            .collect_many_sampled(&mut trace.replay(), &bank, plan, budget)
            .expect("fused sampled collection succeeds");
        for (probe, fused_profile) in probes.iter().zip(&fused) {
            let sequential = collect_one(&params, probe, &trace, Some(plan), budget);
            prop_assert_eq!(&sequential, fused_profile);
        }
    }
}

proptest! {
    /// Every CPI component is non-negative and the total is their sum.
    #[test]
    fn estimate_components_are_sane(profile in profile_strategy()) {
        let est = FirstOrderModel::new(ProcessorParams::baseline())
            .evaluate(&profile)
            .unwrap();
        for (name, cpi) in est.cpi_stack() {
            prop_assert!(cpi >= 0.0, "{name} = {cpi}");
        }
        let sum: f64 = est.cpi_stack().iter().map(|(_, v)| v).sum();
        prop_assert!((sum - est.total_cpi()).abs() < 1e-9);
        prop_assert!(est.total_cpi() > 0.0);
    }

    /// CPI is monotone non-decreasing in every miss-event count.
    #[test]
    fn cpi_monotone_in_miss_events(profile in profile_strategy()) {
        let model = FirstOrderModel::new(ProcessorParams::baseline());
        let base = model.evaluate(&profile).unwrap().total_cpi();
        let mut more_br = profile.clone();
        more_br.mispredicts += 1_000;
        prop_assert!(model.evaluate(&more_br).unwrap().total_cpi() >= base);
        let mut more_ic = profile.clone();
        more_ic.icache_short_misses += 1_000;
        prop_assert!(model.evaluate(&more_ic).unwrap().total_cpi() >= base);
        let mut more_dc = profile.clone();
        more_dc.long_miss_distribution = BurstDistribution::all_isolated(
            profile.long_miss_distribution.misses() + 1_000,
        );
        prop_assert!(model.evaluate(&more_dc).unwrap().total_cpi() >= base);
    }

    /// The branch penalty is bracketed by the pipeline depth (infinite
    /// bursts) and the isolated penalty (eq. 2 >= eq. 3).
    #[test]
    fn branch_penalty_bracket(iw in iw_strategy(), n in 1.0f64..50.0, depth in 1u32..40) {
        let params = ProcessorParams::baseline().with_pipe_depth(depth);
        let burst = branch::penalty(&iw, &params, BurstAssumption::Bursts(n));
        let iso = branch::penalty(&iw, &params, BurstAssumption::Isolated);
        prop_assert!(burst >= depth as f64 - 1e-9);
        prop_assert!(burst <= iso + 1e-9);
    }

    /// The paper-form icache penalty is within drain/ramp of the miss
    /// delay and completely independent of the pipeline depth; the
    /// refined penalty never exceeds it and shrinks (weakly) as the
    /// front-end pipe deepens, since a deeper pipe buffers more work.
    #[test]
    fn icache_penalty_properties(iw in iw_strategy(), delta in 2u32..64) {
        let p5 = ProcessorParams::baseline();
        let p40 = ProcessorParams::baseline().with_pipe_depth(40);
        let a = icache::isolated_penalty_paper(&iw, &p5, delta);
        let b = icache::isolated_penalty_paper(&iw, &p40, delta);
        prop_assert!((a - b).abs() < 1e-9, "pipe depth must not matter");
        let drain = win_drain(&iw, p5.width, p5.win_size).penalty;
        let ramp = ramp_up(&iw, p5.width, p5.win_size).penalty;
        prop_assert!(a <= delta as f64 + ramp + 1e-9);
        prop_assert!(a >= (delta as f64 - drain).max(0.0) - 1e-9);
        let r5 = icache::isolated_penalty(&iw, &p5, delta);
        let r40 = icache::isolated_penalty(&iw, &p40, delta);
        prop_assert!(r5 <= a + 1e-9, "refined must not exceed the paper form");
        prop_assert!(r40 <= r5 + 1e-9, "deeper pipes hide more");
        prop_assert!(r5 >= 0.0 && r40 >= 0.0);
    }

    /// The dcache penalty per miss never exceeds the memory latency and
    /// scales linearly with the overlap factor.
    #[test]
    fn dcache_penalty_properties(iw in iw_strategy(), misses in 1u64..10_000) {
        let params = ProcessorParams::baseline();
        let isolated = BurstDistribution::all_isolated(misses);
        let p = dcache::penalty_per_miss(&iw, &params, &isolated);
        prop_assert!(p <= params.mem_latency as f64 + 1e-9);
        prop_assert!(p >= 0.0);
        // Pairing all misses halves the per-miss penalty exactly.
        if misses % 2 == 0 && misses > 0 {
            let paired = BurstDistribution::from_group_sizes(vec![0, 0, misses / 2]);
            let pp = dcache::penalty_per_miss(&iw, &params, &paired);
            prop_assert!((pp - p / 2.0).abs() < 1e-9);
        }
    }

    /// Drain and ramp penalties are non-negative and finite for the
    /// whole parameter domain.
    #[test]
    fn transients_are_finite(iw in iw_strategy(), width in 1u32..16, win in 2u32..256) {
        let d = win_drain(&iw, width, win);
        let r = ramp_up(&iw, width, win);
        prop_assert!(d.penalty.is_finite() && d.penalty >= 0.0);
        prop_assert!(r.penalty.is_finite() && r.penalty >= 0.0);
        prop_assert!(d.duration() < 10_000);
        prop_assert!(r.duration() < 10_000);
    }
}
