//! `validate-suite`: the paper's validation method, and the one
//! workload where the detailed simulator dominates.
//!
//! Timed: the twelve cases of `CaseSpec::suite(baseline, 120_000,
//! seed)` through `differential::sweep` on one thread, with a fresh
//! disk-less `ArtifactStore` per repetition. One operation is one case.

use std::time::Instant;

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_core::{FirstOrderModel, Probe, ProbeBank};
use fosm_sim::MachineConfig;
use fosm_validate::differential::{self, CaseSpec, SweepOptions};
use fosm_validate::{CaseResult, ToleranceSpec, ValidationReport};

use crate::ledger::{self, Recorder, PASSES, ROOT};
use crate::measure::{self, Ctx, Outcome, Timing};
use crate::passes;
use crate::stats::Fnv;

/// Instructions per case.
const TRACE_LEN: u64 = 120_000;

/// Digest of the suite's results at seed 42 (see [`digest`]). Any
/// change to a simulated or modelled number moves it.
const GOLDEN_SEED: u64 = 42;
const GOLDEN_DIGEST: u64 = 0x8fee_8c1f_ec70_9497;

const OPTIONS: SweepOptions = SweepOptions {
    threads: 1,
    statsim: false,
};

/// A digest of every number in the results: `Debug` prints each `f64`
/// in its exact shortest round-trip form.
fn digest(results: &[CaseResult]) -> u64 {
    let mut fnv = Fnv::default();
    fnv.write(format!("{results:?}").as_bytes());
    fnv.finish()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cases = CaseSpec::suite(&MachineConfig::baseline(), TRACE_LEN, ctx.seed);
    let tol = ToleranceSpec::gate();

    // Set-up: one warm-up case on a fresh store, so the first timed
    // case does not pay for page faults and allocator growth.
    let warm = measure::time_setups(&mut out, || {
        differential::sweep(&ArtifactStore::new(), &cases[..1], &tol, OPTIONS)
    });
    out.check(warm.err().map(|e| format!("warm-up case failed: {e}")));

    let mut timing = Timing::default();
    let mut cpi_err = 0.0;
    measure::repeat_for(ctx.seconds, |_| {
        let store = ArtifactStore::new();
        let mut results = Vec::with_capacity(cases.len());
        for (slot, case) in cases.iter().enumerate() {
            let t = Instant::now();
            let result = differential::sweep(&store, std::slice::from_ref(case), &tol, OPTIONS);
            timing.op(slot, t.elapsed());
            match result {
                Ok(mut r) => results.append(&mut r),
                Err(e) => out.check(Some(format!("case {} failed: {e}", case.bench.name))),
            }
        }
        check(&mut out, ctx.seed, &results);
        cpi_err =
            ValidationReport::new(TRACE_LEN, ctx.seed, tol, results).mean_abs_total_error_pct();
    });
    timing.report(&mut out);
    measure::own_peak_rss(&mut out);
    out.named.push(("cases_per_s", out.e2e["ops_per_s"], "1/s"));
    out.named.push(("cpi_err_pct", cpi_err, "%"));

    if ctx.trace {
        traced(&cases, &tol, timing.median_rep_s(), &mut out);
        out.layers.insert("validate.cpi_err_pct", cpi_err);
    }
    out
}

/// The oracles: every case inside the accuracy gate, and at the
/// golden seed the exact golden digest.
fn check(out: &mut Outcome, seed: u64, results: &[CaseResult]) {
    for r in results {
        out.expect(r.within_tolerance(), || {
            format!("case {} is outside ToleranceSpec::gate()", r.bench)
        });
    }
    if seed == GOLDEN_SEED {
        let got = digest(results);
        out.expect(got == GOLDEN_DIGEST, || {
            format!("result digest {got:#018x} differs from the golden {GOLDEN_DIGEST:#018x}")
        });
    }
}

/// One traced repetition: the same case work as `run_case`, with each
/// layer call spanned, then a replay pass per simulation and the
/// profile's decomposition passes.
fn traced(cases: &[CaseSpec], tol: &ToleranceSpec, untraced_s: f64, out: &mut Outcome) {
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut sim_insts = 0u64;
    let mut counts = passes::PassCounts::default();
    let mut problems = Vec::new();
    rec.span(ROOT, 0, |rec| {
        let store = ArtifactStore::new();
        for (i, case) in cases.iter().enumerate() {
            let req = i as u64;
            let (spec, n, seed) = (&case.bench, case.trace_len, case.seed);
            let trace = rec.span("workloads", req, |_| store.trace(spec, n, seed));
            let mut sims = Vec::new();
            let (full, id) = rec.span_id("sim", req, |_| {
                store.simulate_traced(&case.config, spec, n, seed)
            });
            sim_insts += full.0.instructions;
            sims.push(id);
            for variant in [
                case.ideal_variant(),
                case.branch_variant(),
                case.icache_variant(),
                case.dcache_variant(),
            ] {
                let (report, id) =
                    rec.span_id("sim", req, |_| store.simulate(&variant, spec, n, seed));
                sim_insts += report.instructions;
                sims.push(id);
            }
            // The bank `run_case` builds, so its own lookups hit.
            let params = harness::params_of(&case.config);
            let bank: ProbeBank = [
                case.config.clone(),
                case.ideal_variant(),
                case.branch_variant(),
                case.icache_variant(),
                case.dcache_variant(),
            ]
            .iter()
            .map(|c| Probe {
                hierarchy: c.hierarchy,
                predictor: c.predictor,
                dtlb: None,
                name: spec.name.clone(),
            })
            .collect();
            let (profiles, profile_id) = rec.span_id("core.profile", req, |_| {
                store.profile_many(&params, &bank, spec, n, seed)
            });
            let profiles = match profiles {
                Ok(p) => p,
                Err(e) => {
                    problems.push(format!("traced profile of {} failed: {e}", spec.name));
                    continue;
                }
            };
            rec.span("core.evaluate", req, |_| {
                let model = FirstOrderModel::new(params.clone());
                for p in &profiles {
                    if let Err(e) = model.evaluate(p) {
                        problems.push(format!("traced evaluate of {} failed: {e}", spec.name));
                    }
                }
            });
            let before = store.stats();
            let result = rec.span("validate", req, |_| {
                differential::run_case(&store, case, tol)
            });
            let after = store.stats();
            if let Err(e) = result {
                problems.push(format!("traced case {} failed: {e}", spec.name));
            }
            if (after.sim_misses, after.profile_misses)
                != (before.sim_misses, before.profile_misses)
            {
                problems.push(format!(
                    "the validate span of {} recomputed memoized work",
                    spec.name
                ));
            }
            rec.span(PASSES, req, |rec| {
                for &id in &sims {
                    for _ in 0..passes::PASS_RUNS {
                        rec.pass("trace", req, id, |_| passes::replay_pass(&trace));
                    }
                }
                passes::split_profile(rec, req, profile_id, &trace, &bank, &params, &mut counts);
            });
        }
        rec.span("store.drop", 0, |_| drop(store));
    });
    for p in problems {
        out.check(Some(p));
    }
    counts.report(out);
    let spans = rec.into_spans();
    let ledger = ledger::ledger(&spans);
    let sim_s = ledger.get("sim");
    out.layers.insert(
        "sim.minst_per_s",
        if sim_s > 0.0 {
            sim_insts as f64 / sim_s / 1e6
        } else {
            0.0
        },
    );
    out.set_ledger(ledger, spans, untraced_s);
}
