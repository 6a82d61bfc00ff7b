//! Decomposition passes: the layers fused inside one profiling replay,
//! each timed alone so the ledger can split the fused call (see
//! [`crate::ledger`]). The passes run over a slice decoded once, so no
//! pass pays for replay; one streaming [`replay_pass`] pays for it
//! instead.

use fosm_branch::Predictor;
use fosm_cache::{AccessKind, Hierarchy};
use fosm_core::{ProbeBank, ProcessorParams};
use fosm_depgraph::IwSweep;
use fosm_isa::{Inst, Op};
use fosm_trace::{PackedTrace, TraceSource};

use crate::ledger::Recorder;
use crate::measure::Outcome;

/// Work counted by the passes. Ratios are of each bank's first probe,
/// the full machine.
#[derive(Debug, Default)]
pub struct PassCounts {
    accesses: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
    branches: u64,
    mispredicts: u64,
}

impl PassCounts {
    /// Stores the `cache.*` and `branch.*` count metrics.
    pub fn report(&self, out: &mut Outcome) {
        let ratio = |num: u64, den: u64| {
            if den > 0 {
                num as f64 / den as f64
            } else {
                0.0
            }
        };
        out.layers.insert("cache.accesses", self.accesses as f64);
        out.layers.insert(
            "cache.l1d_miss_ratio",
            ratio(self.l1d_misses, self.l1d_accesses),
        );
        out.layers.insert(
            "branch.mispredict_ratio",
            ratio(self.mispredicts, self.branches),
        );
    }
}

/// Streams a packed trace once through its replay cursor, the way the
/// fused consumers do: the `trace` layer's cost on its own.
pub fn replay_pass(trace: &PackedTrace) -> u64 {
    let mut replay = trace.replay();
    let mut acc = 0u64;
    while let Some(inst) = replay.next_inst() {
        acc = acc.wrapping_add(inst.pc);
    }
    std::hint::black_box(acc)
}

/// The caches of every probe: what the fused replay feeds each probe's
/// hierarchy.
fn cache_pass(bank: &ProbeBank, insts: &[Inst], counts: &mut PassCounts) {
    for (i, probe) in bank.probes().iter().enumerate() {
        let mut h = Hierarchy::new(probe.hierarchy).expect("probe hierarchies are valid");
        for inst in insts {
            h.access(AccessKind::IFetch, inst.pc);
            match (inst.op, inst.mem_addr) {
                (Op::Load, Some(addr)) => {
                    h.access(AccessKind::Load, addr);
                }
                (Op::Store, Some(addr)) => {
                    h.access(AccessKind::Store, addr);
                }
                _ => {}
            }
        }
        counts.accesses += h.ifetch_stats().accesses() + h.data_stats().accesses();
        if i == 0 {
            counts.l1d_accesses += h.data_stats().accesses();
            counts.l1d_misses += h.data_stats().misses();
        }
    }
}

/// The branch predictor of every probe.
fn branch_pass(bank: &ProbeBank, insts: &[Inst], counts: &mut PassCounts) {
    for (i, probe) in bank.probes().iter().enumerate() {
        let mut predictor = probe.predictor.build();
        for inst in insts {
            if let (true, Some(b)) = (inst.op.is_cond_branch(), inst.branch) {
                let correct = predictor.observe(inst.pc, b.taken);
                if i == 0 {
                    counts.branches += 1;
                    counts.mispredicts += u64::from(!correct);
                }
            }
        }
    }
}

/// The shared IW sweep, finished once and fitted once per probe.
fn iw_pass(insts: &[Inst], params: &ProcessorParams, probes: usize) {
    let mut sweep = IwSweep::paper_default();
    for inst in insts {
        sweep.push(inst);
    }
    let analysis = sweep.finish();
    for _ in 0..probes {
        std::hint::black_box(analysis.characteristic(&params.latencies, 0.0).ok());
    }
}

/// Times each pass this many times; the ledger keeps the fastest.
pub const PASS_RUNS: usize = 3;

/// Splits the fused `profile_many` span `fused` (one replay of `trace`
/// through `bank`) into replay, cache, branch and IW passes. Call it
/// inside a [`crate::ledger::PASSES`] span.
pub fn split_profile(
    rec: &mut Recorder,
    req: u64,
    fused: usize,
    trace: &PackedTrace,
    bank: &ProbeBank,
    params: &ProcessorParams,
    counts: &mut PassCounts,
) {
    let insts = trace.decode();
    for run in 0..PASS_RUNS {
        // Count the work once, not once per run.
        let mut scratch = PassCounts::default();
        let counts = if run == 0 { &mut *counts } else { &mut scratch };
        rec.pass("trace", req, fused, |_| replay_pass(trace));
        rec.pass("cache", req, fused, |_| cache_pass(bank, &insts, counts));
        rec.pass("branch", req, fused, |_| branch_pass(bank, &insts, counts));
        rec.pass("depgraph", req, fused, |_| {
            iw_pass(&insts, params, bank.len())
        });
    }
}
