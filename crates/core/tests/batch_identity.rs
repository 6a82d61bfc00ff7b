//! Property test: the production evaluation path is **bit-identical**
//! to the scalar reference recipe.
//!
//! `FirstOrderModel::evaluate` and `PreparedModel::evaluate_at` must
//! reproduce `model::reference::evaluate` exactly — not approximately —
//! for every profile, parameter point, and model-variant combination.
//! Every caller runs the prepared path, and the differential
//! validation gates were tuned against the term-by-term recipe.

use fosm_cache::BurstDistribution;
use fosm_core::branch::BurstAssumption;
use fosm_core::model::{reference, Estimate, FirstOrderModel};
use fosm_core::profile::ProgramProfile;
use fosm_core::ProcessorParams;
use fosm_depgraph::{IwCharacteristic, IwPoint, PowerLaw};
use fosm_isa::FuPool;
use proptest::prelude::*;

fn iw_strategy() -> impl Strategy<Value = IwCharacteristic> {
    let fitted = (0.7f64..2.5, 0.2f64..0.9, 1.0f64..3.0)
        .prop_map(|(a, b, l)| IwCharacteristic::new(PowerLaw::new(a, b).unwrap(), l).unwrap());
    // Measured-point variant: interpolation tables exercise a different
    // issue_rate code path than the pure power law.
    let measured =
        (0.7f64..2.5, 0.2f64..0.9, 1.0f64..3.0, 0.5f64..1.5).prop_map(|(a, b, l, scale)| {
            let law = PowerLaw::new(a, b).unwrap();
            let points = [4u32, 16, 64, 256]
                .iter()
                .map(|&window| IwPoint {
                    window,
                    ipc: (law.alpha() * (window as f64).powf(law.beta()) * scale).max(0.05),
                })
                .collect();
            IwCharacteristic::with_points(law, l, points).unwrap()
        });
    prop_oneof![fitted, measured]
}

fn burst_strategy() -> impl Strategy<Value = BurstDistribution> {
    // Index = cluster size; index 0 is unused. Mix isolated misses with
    // small clusters so overlap_factor() lands strictly inside (0, 1].
    prop_oneof![
        prop::collection::vec(0u64..40, 1..6).prop_map(|mut sizes| {
            sizes.insert(0, 0);
            BurstDistribution::from_group_sizes(sizes)
        }),
        Just(BurstDistribution::default()),
    ]
}

fn profile_strategy() -> impl Strategy<Value = ProgramProfile> {
    (
        (
            iw_strategy(),
            1_000u64..2_000_000,
            0u64..50_000,
            1.0f64..4.0,
            0u64..8_000,
            0u64..900,
        ),
        (
            burst_strategy(),
            burst_strategy(),
            burst_strategy(),
            0u32..120,
            (0u64..100_000, 0u64..100_000, 0u64..100_000),
        ),
    )
        .prop_map(
            |(
                (iw, instructions, mispredicts, burst_mean, ic_short, ic_long),
                (longs, longs_paper, dtlb, dtlb_walk_latency, mix),
            )| {
                let fu_mix = [mix.0, mix.1, mix.2, mix.0 / 2, mix.1 / 2];
                ProgramProfile {
                    name: "batch-identity".into(),
                    instructions,
                    iw,
                    cond_branches: instructions / 5,
                    mispredicts: mispredicts.min(instructions / 5),
                    mispredict_burst_mean: burst_mean,
                    icache_short_misses: ic_short,
                    icache_long_misses: ic_long,
                    dcache_short_misses: ic_short / 2,
                    long_miss_distribution: longs,
                    long_miss_distribution_paper: longs_paper,
                    dtlb_miss_distribution: dtlb,
                    dtlb_walk_latency,
                    fu_mix,
                }
            },
        )
}

fn params_strategy() -> impl Strategy<Value = ProcessorParams> {
    (
        1u32..=16,
        2u32..=256,
        0u32..=384,
        1u32..=60,
        2u32..=40,
        41u32..=400,
    )
        .prop_map(
            |(width, win_size, rob_extra, pipe_depth, l2_latency, mem_latency)| ProcessorParams {
                width,
                win_size,
                rob_size: win_size + rob_extra,
                pipe_depth,
                l2_latency,
                mem_latency,
                ..ProcessorParams::baseline()
            },
        )
}

/// Every builder knob the scalar model exposes, as a composable list of
/// modifiers drawn per case.
fn variant_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..9, 0..4)
}

fn apply_variants(mut model: FirstOrderModel, variants: &[u8]) -> FirstOrderModel {
    for &v in variants {
        model = match v {
            0 => model.with_paper_simplifications(),
            1 => model.with_paper_rob_fill(),
            2 => model.with_independent_grouping(),
            3 => model.with_paper_icache_penalty(),
            4 => model.with_burst_assumption(BurstAssumption::Isolated),
            5 => model.with_burst_assumption(BurstAssumption::Bursts(3.5)),
            6 => model.with_measured_bursts(),
            7 => model.with_clusters(2, 0.3),
            8 => model.with_fetch_buffer(16),
            _ => unreachable!(),
        };
    }
    model
}

fn assert_bit_identical(scalar: &Estimate, batched: &Estimate) {
    let pairs = [
        (
            "steady_state_cpi",
            scalar.steady_state_cpi,
            batched.steady_state_cpi,
        ),
        ("branch_cpi", scalar.branch_cpi, batched.branch_cpi),
        ("icache_l1_cpi", scalar.icache_l1_cpi, batched.icache_l1_cpi),
        ("icache_l2_cpi", scalar.icache_l2_cpi, batched.icache_l2_cpi),
        ("dcache_cpi", scalar.dcache_cpi, batched.dcache_cpi),
        ("dtlb_cpi", scalar.dtlb_cpi, batched.dtlb_cpi),
        (
            "branch_penalty",
            scalar.branch_penalty,
            batched.branch_penalty,
        ),
        (
            "icache_penalty",
            scalar.icache_penalty,
            batched.icache_penalty,
        ),
        (
            "effective_width",
            scalar.effective_width,
            batched.effective_width,
        ),
        (
            "dcache_penalty_per_miss",
            scalar.dcache_penalty_per_miss,
            batched.dcache_penalty_per_miss,
        ),
        ("win_drain", scalar.win_drain, batched.win_drain),
        ("ramp_up", scalar.ramp_up, batched.ramp_up),
    ];
    for (field, s, b) in pairs {
        assert_eq!(
            s.to_bits(),
            b.to_bits(),
            "{field} diverged: scalar {s:e} vs batched {b:e}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn evaluate_is_bit_identical_to_the_reference(
        profile in profile_strategy(),
        params in params_strategy(),
        variants in variant_strategy(),
    ) {
        prop_assert!(params.validate().is_ok());
        let model = apply_variants(FirstOrderModel::new(params.clone()), &variants);
        let scalar = reference::evaluate(&model, &profile).unwrap();
        assert_bit_identical(&scalar, &model.evaluate(&profile).unwrap());
    }

    #[test]
    fn evaluate_matches_the_reference_under_fu_limits(
        profile in profile_strategy(),
        params in params_strategy(),
        pool in (1u32..6, 1u32..3, 1u32..3, 1u32..3, 1u32..3),
    ) {
        let fu = FuPool {
            int_alu: pool.0,
            int_mul_div: pool.1,
            fp_add: pool.2,
            fp_mul_div: pool.3,
            mem_ports: pool.4,
        };
        let model = FirstOrderModel::new(params.clone()).with_fu_limits(fu);
        let scalar = reference::evaluate(&model, &profile).unwrap();
        assert_bit_identical(&scalar, &model.evaluate(&profile).unwrap());
    }

    #[test]
    fn one_prepared_context_serves_the_whole_depth_axis(
        profile in profile_strategy(),
        params in params_strategy(),
    ) {
        // The explore engine's hot loop: one structural walk reused
        // across the innermost (depth × latency) axes.
        let model = FirstOrderModel::new(params.clone());
        let prepared = model.prepare(&profile).unwrap();
        let ctx = prepared.structural(params.width, params.win_size);
        for pipe_depth in [1u32, 7, 23, 60] {
            for (l2, mem) in [(4u32, 80u32), (12, 200), (30, 400)] {
                let point = ProcessorParams {
                    pipe_depth,
                    l2_latency: l2,
                    mem_latency: mem,
                    ..params.clone()
                };
                let rob_size = point.rob_size;
                let scalar = reference::evaluate(&FirstOrderModel::new(point), &profile).unwrap();
                let batched = prepared.evaluate_at(&ctx, rob_size, pipe_depth, l2, mem);
                assert_bit_identical(&scalar, &batched);
            }
        }
    }
}
