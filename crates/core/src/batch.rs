//! The prepare/eval split of the first-order model: the one
//! evaluation path every caller runs.
//!
//! The paper's §5 recipe, written out term by term (kept as the test
//! oracle [`crate::model::reference::evaluate`]), recomputes
//! everything per call: it re-validates parameters, rebuilds the
//! cluster-adjusted IW characteristic, re-resolves the profile's miss
//! counts and overlap factors, and — dominating the cost — re-runs the
//! window-drain and ramp-up walks several times (directly, inside the
//! branch penalty, twice inside each I-cache penalty, inside the
//! D-cache penalty, and again on the dTLB path). Design-space
//! exploration evaluates millions of configurations against one
//! workload profile, so this module splits the recipe along its
//! data-dependence seams:
//!
//! 1. [`FirstOrderModel::prepare`] hoists everything that depends only
//!    on the *workload* into a [`PreparedModel`]: the (cluster-adjusted)
//!    IW characteristic, per-class miss counts as floats, distribution
//!    overlap factors, the functional-unit bound, and the resolved
//!    burst length. Fallible work (empty profiles, invalid FU pools,
//!    an unbuildable adjusted characteristic) all happens here, once.
//! 2. [`PreparedModel::structural`] runs the transient walks — the only
//!    iterative, expensive step — for one `(width, win_size)` pair and
//!    caches every derived quantity in a flat, `Copy`
//!    [`StructuralContext`].
//! 3. [`PreparedModel::evaluate_at`] combines a context with the cheap
//!    axes (`rob_size`, `pipe_depth`, `l2_latency`, `mem_latency`) in
//!    ~20 flops: no allocation, no `Result`, no hashing.
//!
//! [`FirstOrderModel::evaluate`] is parameter validation plus one pass
//! through all three steps; a property test pins it and `evaluate_at`
//! bit-identical to the reference recipe (`cargo test -p fosm-core
//! --test batch_identity`) across every model variant. Sweep loops
//! should order `(width, win_size)` outermost and the cheap axes
//! innermost so each walk is amortized over the whole inner block —
//! `fosm-explore` does exactly that.

use fosm_depgraph::IwCharacteristic;
use fosm_isa::FuClass;

use crate::branch::BurstAssumption;
use crate::model::Estimate;
use crate::transient::{ramp_up_summary, steady_occupancy, win_drain_summary};
use crate::{FirstOrderModel, ModelError, ProcessorParams, ProgramProfile};

/// A workload profile resolved against a model's variant flags, ready
/// for repeated configuration evaluation. Built by
/// [`FirstOrderModel::prepare`].
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedModel {
    iw: IwCharacteristic,
    n_f: f64,
    mispredicts_f: f64,
    icache_short_f: f64,
    icache_long_f: f64,
    burst_n: f64,
    fu_bound: f64,
    fetch_entries_f: f64,
    paper_rob_fill: bool,
    paper_icache: bool,
    dcache_overlap: f64,
    dcache_misses_f: f64,
    dtlb_walk_latency_f: f64,
    dtlb_overlap: f64,
    dtlb_misses_f: f64,
}

/// Every quantity the estimate needs that depends on `(width,
/// win_size)` — in particular the drain and ramp walks, the only
/// iterative part of the model. One context serves an entire inner
/// sweep over ROB sizes, pipeline depths, and miss latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructuralContext {
    width: u32,
    win_size: u32,
    width_f: f64,
    drain_penalty: f64,
    drain_issued: f64,
    ramp_penalty: f64,
    unlimited_rate: f64,
    steady_ipc: f64,
    icache_rate: f64,
    surplus: f64,
    rob_base: f64,
    win_room: f64,
}

impl StructuralContext {
    /// Walks the transients for one `(width, win_size)` pair of an IW
    /// characteristic and derives every structural quantity the
    /// estimate needs. `width` and `win_size` must be non-zero (grid
    /// validation happens before the hot loop).
    ///
    /// This is also the shared evaluation primitive the `fosm-trends`
    /// studies build on: the drain/ramp penalties, the steady-state
    /// rate, and [`branch_penalty`](Self::branch_penalty) come from
    /// the exact arithmetic of the reference recipe.
    pub fn walk(iw: &IwCharacteristic, width: u32, win_size: u32) -> Self {
        let drain = win_drain_summary(iw, width, win_size);
        let ramp = ramp_up_summary(iw, width, win_size);
        let width_f = width as f64;
        let win_f = win_size as f64;
        let unlimited_rate = iw.unlimited_issue_rate(win_f);
        let steady_ipc = iw.steady_state_ipc(win_size, width);
        // icache::steady_rate, precomputed.
        let icache_rate = unlimited_rate.min(width_f).max(f64::MIN_POSITIVE);
        // The fetch-surplus interpolation factor of icache::penalty.
        let surplus = (1.0 - steady_ipc / width_f).clamp(0.0, 1.0);
        // dcache::estimated_rob_fill, split into its (width, win)-only
        // parts; the ROB cap and the final division stay per-config.
        let win_occupancy = steady_occupancy(iw, width, win_size);
        let rob_base = win_occupancy + steady_ipc * iw.avg_latency();
        let slack = (unlimited_rate / width_f).max(1.0).sqrt();
        let win_room = ((win_f - win_occupancy).max(0.0) + drain.issued) * slack;
        StructuralContext {
            width,
            win_size,
            width_f,
            drain_penalty: drain.penalty,
            drain_issued: drain.issued,
            ramp_penalty: ramp.penalty,
            unlimited_rate,
            steady_ipc,
            icache_rate,
            surplus,
            rob_base,
            win_room,
        }
    }

    /// The issue width this context was walked for.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The window size this context was walked for.
    pub fn win_size(&self) -> u32 {
        self.win_size
    }

    /// Steady-state IPC (`iw.steady_state_ipc(win_size, width)`).
    pub fn steady_ipc(&self) -> f64 {
        self.steady_ipc
    }

    /// Window-drain penalty in cycles.
    pub fn win_drain(&self) -> f64 {
        self.drain_penalty
    }

    /// Ramp-up penalty in cycles.
    pub fn ramp_up(&self) -> f64 {
        self.ramp_penalty
    }

    /// Per-misprediction penalty at a pipeline depth (eq. 3):
    /// `∆P + (win_drain + ramp_up)/n` — bit-identical to
    /// [`crate::branch::penalty`] with the same inputs.
    pub fn branch_penalty(&self, pipe_depth: u32, burst: BurstAssumption) -> f64 {
        pipe_depth as f64 + (self.drain_penalty + self.ramp_penalty) / burst.effective_n()
    }
}

impl FirstOrderModel {
    /// Resolves a workload profile against this model's variant flags,
    /// hoisting all config-independent work (and all fallibility) out
    /// of the per-configuration evaluation.
    ///
    /// The model's own [`params`](FirstOrderModel::params) play no role
    /// in the prepared evaluator — every geometry comes from the sweep
    /// — except that variant flags (burst assumption, FU pool, paper
    /// simplifications, fetch buffer, clustering) carry over.
    ///
    /// # Errors
    ///
    /// [`ModelError::EmptyTrace`] for a zero-instruction profile;
    /// [`ModelError::InvalidParams`] for an invalid FU pool or an
    /// unbuildable cluster-adjusted IW characteristic.
    pub fn prepare(&self, profile: &ProgramProfile) -> Result<PreparedModel, ModelError> {
        if profile.instructions == 0 {
            return Err(ModelError::EmptyTrace);
        }
        let iw = if self.cluster_penalty > 0.0 {
            profile
                .iw
                .with_avg_latency(profile.iw.avg_latency() + self.cluster_penalty)
                .map_err(|e| ModelError::InvalidParams(e.to_string()))?
        } else {
            profile.iw.clone()
        };
        let fu_bound = match &self.fu {
            Some(pool) => {
                pool.validate().map_err(ModelError::InvalidParams)?;
                FuClass::ALL
                    .iter()
                    .filter_map(|&c| {
                        let frac = profile.fu_fraction(c);
                        (frac > 0.0).then(|| pool.count(c) as f64 / frac)
                    })
                    .fold(f64::INFINITY, f64::min)
            }
            None => f64::INFINITY,
        };
        let burst = if self.use_measured_bursts {
            BurstAssumption::Bursts(profile.mispredict_burst_mean)
        } else {
            self.burst
        };
        let distribution = if self.independent_grouping {
            &profile.long_miss_distribution_paper
        } else {
            &profile.long_miss_distribution
        };
        Ok(PreparedModel {
            iw,
            n_f: profile.instructions as f64,
            mispredicts_f: profile.mispredicts as f64,
            icache_short_f: profile.icache_short_misses as f64,
            icache_long_f: profile.icache_long_misses as f64,
            burst_n: burst.effective_n(),
            fu_bound,
            fetch_entries_f: self.fetch_buffer_entries as f64,
            paper_rob_fill: self.paper_rob_fill,
            paper_icache: self.paper_icache,
            dcache_overlap: distribution.overlap_factor(),
            dcache_misses_f: distribution.misses() as f64,
            dtlb_walk_latency_f: profile.dtlb_walk_latency as f64,
            dtlb_overlap: profile.dtlb_miss_distribution.overlap_factor(),
            dtlb_misses_f: profile.dtlb_miss_distribution.misses() as f64,
        })
    }
}

impl PreparedModel {
    /// The (cluster-adjusted) IW characteristic configurations are
    /// evaluated against.
    pub fn iw(&self) -> &IwCharacteristic {
        &self.iw
    }

    /// Walks the transients for one `(width, win_size)` pair. This is
    /// the expensive step — order sweeps so one context serves the
    /// whole inner block of cheap axes.
    pub fn structural(&self, width: u32, win_size: u32) -> StructuralContext {
        StructuralContext::walk(&self.iw, width, win_size)
    }

    /// Evaluates one configuration against a structural context: the
    /// allocation-free, infallible hot path. The caller is responsible
    /// for the [`ProcessorParams::validate`] invariants (non-zero
    /// fields, `win_size ≤ rob_size`, `mem_latency > l2_latency`) —
    /// validate the grid once before sweeping.
    ///
    /// Bit-identical to [`crate::model::reference::evaluate`] on the
    /// same profile and parameters (pinned by property test).
    pub fn evaluate_at(
        &self,
        ctx: &StructuralContext,
        rob_size: u32,
        pipe_depth: u32,
        l2_latency: u32,
        mem_latency: u32,
    ) -> Estimate {
        let drain = ctx.drain_penalty;
        let ramp = ctx.ramp_penalty;
        let depth_f = pipe_depth as f64;
        let mem_f = mem_latency as f64;

        // 1) Steady state, saturated at the FU-limited width.
        let effective_width = ctx.width_f.min(self.fu_bound);
        let steady_ipc = ctx.unlimited_rate.min(effective_width);
        let steady_state_cpi = 1.0 / steady_ipc;

        // 2) Branch mispredictions (eq. 2/3).
        let branch_penalty = depth_f + (drain + ramp) / self.burst_n;
        let branch_cpi = branch_penalty * self.mispredicts_f / self.n_f;

        // 3) Instruction cache (eq. 4/5, refined or paper form). With
        // the paper form the hidden work is exactly the drain penalty,
        // so both collapse to `(∆ + ramp − hidden)` — the `/ n` of the
        // reference recipe is by 1.0 and therefore exact.
        let hidden = if self.paper_icache {
            drain
        } else {
            let hidden_cycles = (ctx.drain_issued + depth_f * ctx.width_f) / ctx.icache_rate;
            drain + (hidden_cycles - drain).max(0.0) * ctx.surplus
        };
        let buffer_hide = self.fetch_entries_f / ctx.width_f;
        let icache_penalty =
            ((l2_latency as f64 + (ramp - hidden)).max(0.0) - buffer_hide).max(0.0);
        let icache_long_penalty = ((mem_f + (ramp - hidden)).max(0.0) - buffer_hide).max(0.0);
        let icache_l1_cpi = icache_penalty * self.icache_short_f / self.n_f;
        let icache_l2_cpi = icache_long_penalty * self.icache_long_f / self.n_f;

        // 4) Long data misses (eq. 6/8): finish the rob_fill estimate
        // with the per-config ROB cap and width division.
        let fill = if self.paper_rob_fill {
            0.0
        } else {
            let rob_f = rob_size as f64;
            let rob_room = rob_f - ctx.rob_base.min(rob_f);
            let fill = rob_room.min(ctx.win_room) / ctx.width_f;
            fill.min(mem_f / 2.0)
        };
        let isolated = (mem_f - fill - drain + ramp).max(0.0);
        let dcache_penalty_per_miss = isolated * self.dcache_overlap;
        let dcache_cpi = dcache_penalty_per_miss * self.dcache_misses_f / self.n_f;

        // 5) dTLB walks, sharing the fill/drain/ramp offsets.
        let dtlb_cpi = if self.dtlb_walk_latency_f > 0.0 {
            let walk_isolated = (self.dtlb_walk_latency_f - fill - drain + ramp).max(0.0);
            walk_isolated * self.dtlb_overlap * self.dtlb_misses_f / self.n_f
        } else {
            0.0
        };

        // 6) Cross-event overlap correction (see the reference recipe).
        let (icache_l1_cpi, icache_l2_cpi) = if self.paper_icache {
            (icache_l1_cpi, icache_l2_cpi)
        } else {
            let linear_total = steady_state_cpi
                + branch_cpi
                + icache_l1_cpi
                + icache_l2_cpi
                + dcache_cpi
                + dtlb_cpi;
            let data_share = ((dcache_cpi + dtlb_cpi) / linear_total).clamp(0.0, 1.0);
            (
                icache_l1_cpi * (1.0 - data_share),
                icache_l2_cpi * (1.0 - data_share),
            )
        };

        Estimate {
            steady_state_cpi,
            branch_cpi,
            icache_l1_cpi,
            icache_l2_cpi,
            dcache_cpi,
            dtlb_cpi,
            branch_penalty,
            icache_penalty,
            dcache_penalty_per_miss,
            win_drain: drain,
            ramp_up: ramp,
            effective_width,
        }
    }

    /// Convenience single-configuration evaluation: one structural walk
    /// plus one [`evaluate_at`](Self::evaluate_at). The caller is
    /// responsible for parameter validity, as in `evaluate_at`.
    pub fn evaluate_params(&self, params: &ProcessorParams) -> Estimate {
        let ctx = self.structural(params.width, params.win_size);
        self.evaluate_at(
            &ctx,
            params.rob_size,
            params.pipe_depth,
            params.l2_latency,
            params.mem_latency,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fosm_depgraph::PowerLaw;

    fn profile() -> ProgramProfile {
        use fosm_cache::BurstDistribution;
        // 5 isolated misses, 3 pairs, 1 triple: 14 misses, 9 clusters.
        let long = BurstDistribution::from_group_sizes(vec![0, 5, 3, 1]);
        ProgramProfile {
            name: "batch-synthetic".into(),
            instructions: 500_000,
            iw: IwCharacteristic::new(PowerLaw::square_root(), 1.0).unwrap(),
            cond_branches: 100_000,
            mispredicts: 5_000,
            mispredict_burst_mean: 1.4,
            icache_short_misses: 2_000,
            icache_long_misses: 150,
            dcache_short_misses: 9_000,
            long_miss_distribution: long.clone(),
            long_miss_distribution_paper: long,
            dtlb_miss_distribution: BurstDistribution::default(),
            dtlb_walk_latency: 0,
            fu_mix: [300_000, 100_000, 50_000, 40_000, 10_000],
        }
    }

    #[test]
    fn prepared_matches_the_reference_on_the_baseline() {
        let params = ProcessorParams::baseline();
        let model = FirstOrderModel::new(params.clone());
        let profile = profile();
        let scalar = crate::model::reference::evaluate(&model, &profile).unwrap();
        let batch = model.prepare(&profile).unwrap().evaluate_params(&params);
        assert_eq!(scalar, batch);
    }

    #[test]
    fn one_context_serves_many_depths() {
        let params = ProcessorParams::baseline();
        let model = FirstOrderModel::new(params.clone());
        let prepared = model.prepare(&profile()).unwrap();
        let ctx = prepared.structural(params.width, params.win_size);
        for depth in [1u32, 5, 20, 80] {
            let model = FirstOrderModel::new(params.clone().with_pipe_depth(depth));
            let scalar = crate::model::reference::evaluate(&model, &profile()).unwrap();
            let batch = prepared.evaluate_at(&ctx, params.rob_size, depth, 8, 200);
            assert_eq!(scalar, batch, "depth {depth}");
        }
    }

    #[test]
    fn empty_profiles_fail_at_prepare_time() {
        let mut p = profile();
        p.instructions = 0;
        let model = FirstOrderModel::new(ProcessorParams::baseline());
        assert!(matches!(model.prepare(&p), Err(ModelError::EmptyTrace)));
    }
}
