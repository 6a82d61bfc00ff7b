//! `profile-cold`: the cost every new trace pays. No simulator runs.
//!
//! Timed: for each of the twelve benchmarks (footprints of different
//! sizes relative to the modelled caches) at one million instructions,
//! `ArtifactStore::profile_many` of the five probes on a fresh store —
//! trace generation plus one fused profiling replay — and `evaluate` of
//! the full probe. One operation is one benchmark, so operations per
//! second are also millions of profiled instructions per second.

use std::time::Instant;

use fosm_bench::store::ArtifactStore;
use fosm_core::{FirstOrderModel, ProbeBank, ProcessorParams, ProfileCollector, ProgramProfile};
use fosm_workloads::BenchmarkSpec;

use crate::ledger::{self, Recorder, PASSES, ROOT};
use crate::measure::{self, Ctx, Outcome, Timing};
use crate::passes;
use crate::schedule::PROBES;

/// Instructions per benchmark.
const INSTS: u64 = 1_000_000;

/// The five probes the daemon also serves, named `<bench>:<probe>`.
fn bank(spec: &BenchmarkSpec) -> ProbeBank {
    PROBES
        .iter()
        .map(|p| fosm_serve::service::probe_variant(p, &spec.name).expect("built-in probe name"))
        .collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let specs = BenchmarkSpec::all();
    let banks: Vec<ProbeBank> = specs.iter().map(bank).collect();
    let params = ProcessorParams::baseline();
    let model = FirstOrderModel::new(params.clone());

    // Set-up: a warm-up profile of the first benchmark on a fresh
    // store, so the first timed operation does not pay for page faults
    // and allocator growth.
    let warm = measure::time_setups(&mut out, || {
        ArtifactStore::new().profile_many(&params, &banks[0], &specs[0], INSTS, ctx.seed)
    });
    out.check(warm.err().map(|e| format!("warm-up profile failed: {e}")));

    let mut timing = Timing::default();
    measure::repeat_for(ctx.seconds, |rep| {
        let store = ArtifactStore::new();
        let mut fused: Vec<Option<Vec<std::sync::Arc<ProgramProfile>>>> = Vec::new();
        for (slot, (spec, bank)) in specs.iter().zip(&banks).enumerate() {
            let t = Instant::now();
            let result = store
                .profile_many(&params, bank, spec, INSTS, ctx.seed)
                .and_then(|p| model.evaluate(&p[0]).map(|est| (p, est)));
            timing.op(slot, t.elapsed());
            match result {
                Ok((profiles, est)) => {
                    std::hint::black_box(est);
                    fused.push(Some(profiles));
                }
                Err(e) => {
                    out.check(Some(format!("profile of {} failed: {e}", spec.name)));
                    fused.push(None);
                }
            }
        }
        // Oracle, untimed: one rotating benchmark re-collected probe by
        // probe must equal the fused profiles bit for bit.
        let k = rep % specs.len();
        if let Some(profiles) = &fused[k] {
            let trace = store.trace(&specs[k], INSTS, ctx.seed);
            for (probe, fused) in banks[k].probes().iter().zip(profiles) {
                let single = ProfileCollector::new(&params)
                    .with_hierarchy(probe.hierarchy)
                    .with_predictor(probe.predictor)
                    .with_name(probe.name.clone())
                    .collect(&mut trace.replay(), u64::MAX);
                out.expect(
                    single.is_ok_and(|s| format!("{s:?}") == format!("{:?}", **fused)),
                    || format!("probe {} differs from its fused profile", probe.name),
                );
            }
        }
    });
    timing.report(&mut out);
    measure::own_peak_rss(&mut out);
    out.named.push(("minst_per_s", out.e2e["ops_per_s"], "1/s"));

    if ctx.trace {
        traced(
            ctx.seed,
            &specs,
            &banks,
            &params,
            timing.median_rep_s(),
            &mut out,
        );
    }
    out
}

/// One traced repetition: the timed work with each layer call
/// spanned, then decomposition passes over a slice decoded once.
fn traced(
    seed: u64,
    specs: &[BenchmarkSpec],
    banks: &[ProbeBank],
    params: &ProcessorParams,
    untraced_s: f64,
    out: &mut Outcome,
) {
    let model = FirstOrderModel::new(params.clone());
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut counts = passes::PassCounts::default();
    let mut problems = Vec::new();
    rec.span(ROOT, 0, |rec| {
        let store = ArtifactStore::new();
        for (i, (spec, bank)) in specs.iter().zip(banks).enumerate() {
            let req = i as u64;
            let trace = rec.span("workloads", req, |_| store.trace(spec, INSTS, seed));
            let (profiles, fused) = rec.span_id("core.profile", req, |_| {
                store.profile_many(params, bank, spec, INSTS, seed)
            });
            let profiles = match profiles {
                Ok(p) => p,
                Err(e) => {
                    problems.push(format!("traced profile of {} failed: {e}", spec.name));
                    continue;
                }
            };
            let est = rec.span("core.evaluate", req, |_| model.evaluate(&profiles[0]));
            if let Err(e) = est {
                problems.push(format!("traced evaluate of {} failed: {e}", spec.name));
            }
            rec.span(PASSES, req, |rec| {
                passes::split_profile(rec, req, fused, &trace, bank, params, &mut counts);
            });
        }
        rec.span("store.drop", 0, |_| drop(store));
    });
    for p in problems {
        out.check(Some(p));
    }
    counts.report(out);
    let spans = rec.into_spans();
    out.set_ledger(ledger::ledger(&spans), spans, untraced_s);
}
