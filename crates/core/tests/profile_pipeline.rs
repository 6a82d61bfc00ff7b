//! The fused pass runs in two stages: the caches on the caller's thread
//! and the IW sweep and branch predictors on a helper, joined by a queue
//! of `ProfileCollector::CHUNK`-instruction chunks. These tests pin what
//! that split must not change, at the lengths where chunk boundaries
//! fall, against expectations computed without the pass: the IW
//! characteristic of the counted instructions, and each predictor
//! stepped inline over the touched ones. None of them depends on timing.
//!
//! Every pass runs under a `scoped_registry`, so this test binary leaves
//! the global registry alone.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use fosm_branch::{MispredictStats, PredictorConfig};
use fosm_cache::HierarchyConfig;
use fosm_core::{
    ModelError, Probe, ProbeBank, ProcessorParams, ProfileCollector, ProgramProfile, SamplingPlan,
};
use fosm_depgraph::IwCharacteristic;
use fosm_isa::Inst;
use fosm_obs::Registry;
use fosm_trace::{TraceSource, VecTrace};
use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};

const C: usize = ProfileCollector::CHUNK;

/// Every instruction counted, as `collect_many` does.
const UNSAMPLED: SamplingPlan = SamplingPlan {
    sample: u64::MAX,
    warmup: 0,
    period: u64::MAX,
};

/// Every instruction touched and three in ten of them warm-up, so
/// chunk boundaries fall at the trace lengths under test.
const WARMED: SamplingPlan = SamplingPlan {
    sample: 700,
    warmup: 300,
    period: 1_000,
};

/// A quarter of each period skipped, a quarter warm-up.
const SKIPPING: SamplingPlan = SamplingPlan {
    sample: 500,
    warmup: 250,
    period: 1_000,
};

fn gcc(len: usize) -> Vec<Inst> {
    VecTrace::record(
        &mut WorkloadGenerator::new(&BenchmarkSpec::gcc(), 11),
        len as u64,
    )
    .iter()
    .collect()
}

/// A probe with ideal caches (so no short miss lengthens `L`) and one
/// with real caches; two different predictors.
fn bank() -> ProbeBank {
    ProbeBank::from(vec![
        Probe::new("ideal-caches").with_hierarchy(HierarchyConfig::ideal()),
        Probe::new("full").with_predictor(PredictorConfig::Bimodal { bits: 10 }),
    ])
}

/// Whether each instruction is touched and whether it is counted,
/// by the plan's definition and the budget.
fn phases(len: usize, plan: SamplingPlan, budget: u64) -> Vec<(bool, bool)> {
    let skip = plan.period.saturating_sub(plan.warmup + plan.sample);
    let mut counted = 0;
    let mut out = Vec::new();
    for position in 0..len as u64 {
        if counted == budget {
            break;
        }
        let in_period = position % plan.period;
        let touched = in_period >= skip;
        let counting = in_period >= skip + plan.warmup;
        counted += counting as u64;
        out.push((touched, counting));
    }
    out
}

/// `config` stepped over every touched conditional branch, recording
/// the counted ones.
fn inline_predictor(
    config: PredictorConfig,
    insts: &[Inst],
    phases: &[(bool, bool)],
) -> MispredictStats {
    let mut predictor = config.build();
    let mut stats = MispredictStats::new();
    let mut counted = 0;
    for (inst, &(touched, counting)) in insts.iter().zip(phases) {
        if touched && inst.op.is_cond_branch() {
            let correct = predictor.observe(inst.pc, inst.branch.expect("outcome").taken);
            if counting {
                stats.record(correct, counted);
            }
        }
        counted += counting as u64;
    }
    stats.set_total_instructions(counted);
    stats
}

fn check(len: usize, plan: SamplingPlan, budget: u64) {
    // The expectations run an `IwSweep` too.
    let _scope = fosm_obs::scoped_registry(Arc::new(Registry::new()));
    let params = ProcessorParams::baseline();
    let insts = gcc(len);
    let bank = bank();
    let result = ProfileCollector::new(&params).collect_many_sampled(
        &mut VecTrace::new(insts.clone()),
        &bank,
        plan,
        budget,
    );
    let phases = phases(len, plan, budget);
    let counted: Vec<Inst> = insts
        .iter()
        .zip(&phases)
        .filter(|(_, &(_, counting))| counting)
        .map(|(inst, _)| *inst)
        .collect();
    let what = format!("length {len}, {plan:?}, budget {budget}");
    if counted.is_empty() {
        assert_eq!(result, Err(ModelError::EmptyTrace), "{what}");
        return;
    }
    let expected_iw = IwCharacteristic::from_trace(&counted, &params.latencies, 0.0);
    let profiles: Vec<ProgramProfile> = match (result, expected_iw.clone()) {
        (Ok(profiles), Ok(_)) => profiles,
        (Err(ModelError::Fit(got)), Err(expected)) => {
            assert_eq!(got, expected, "{what}");
            return;
        }
        (got, expected) => panic!("{what}: got {got:?}, expected IW {expected:?}"),
    };
    let expected_iw = expected_iw.expect("checked above");
    assert_eq!(profiles[0].iw, expected_iw, "{what}");
    // The real caches only lengthen `L`; the measured points are shared.
    assert_eq!(profiles[1].iw.law(), expected_iw.law(), "{what}");
    let burst = (params.pipe_depth * params.width) as u64;
    for (profile, probe) in profiles.iter().zip(bank.probes()) {
        assert_eq!(profile.instructions, counted.len() as u64, "{what}");
        let stats = inline_predictor(probe.predictor, &insts, &phases);
        assert_eq!(profile.cond_branches, stats.branches(), "{what}");
        assert_eq!(profile.mispredicts, stats.mispredicts(), "{what}");
        assert_eq!(
            profile.mispredict_burst_mean,
            stats.mean_burst_length(burst).max(1.0),
            "{what}"
        );
    }
}

#[test]
fn profiles_match_inline_stages_at_every_chunk_boundary() {
    for len in [0, 1, C - 1, C, C + 1, 3 * C + 7] {
        for plan in [UNSAMPLED, WARMED, SKIPPING] {
            check(len, plan, u64::MAX);
        }
    }
}

#[test]
fn a_budget_that_ends_on_a_chunk_boundary_stops_there() {
    check(3 * C + 7, UNSAMPLED, C as u64);
    check(3 * C + 7, UNSAMPLED, 2 * C as u64 + 1);
    check(3 * C + 7, WARMED, C as u64 - 1);
}

/// A source that panics once it has yielded three chunks' worth.
struct FailingSource {
    inner: WorkloadGenerator,
    left: usize,
}

impl TraceSource for FailingSource {
    fn next_inst(&mut self) -> Option<Inst> {
        if self.left == 0 {
            panic!("trace source failed after three chunks");
        }
        self.left -= 1;
        self.inner.next_inst()
    }
}

#[test]
fn a_panicking_source_reaches_the_caller_with_its_payload() {
    let params = ProcessorParams::baseline();
    let mut source = FailingSource {
        inner: WorkloadGenerator::new(&BenchmarkSpec::mcf(), 3),
        left: 3 * C,
    };
    let _scope = fosm_obs::scoped_registry(Arc::new(Registry::new()));
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        ProfileCollector::new(&params).collect_many(&mut source, &bank(), u64::MAX)
    }));
    let payload = caught.expect_err("the source panicked");
    let text = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    assert_eq!(text, Some("trace source failed after three chunks"));
    assert_eq!(
        source.left, 0,
        "the pass read every instruction it was given"
    );
}
