//! The assembled first-order model (paper §5, eq. 1).

use serde::{Deserialize, Serialize};

use fosm_isa::FuPool;

use crate::branch::BurstAssumption;
use crate::{ModelError, ProcessorParams, ProgramProfile};

/// The complete CPI estimate, broken into the paper's components.
///
/// Produced by [`FirstOrderModel::evaluate`]; the component breakdown
/// is the "stack model" of the paper's Fig. 16.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// Background CPI with no miss-events (1 / steady-state IPC).
    pub steady_state_cpi: f64,
    /// CPI added by branch mispredictions.
    pub branch_cpi: f64,
    /// CPI added by L1 instruction misses that hit in L2.
    pub icache_l1_cpi: f64,
    /// CPI added by instruction misses that go to memory.
    pub icache_l2_cpi: f64,
    /// CPI added by long data-cache misses.
    pub dcache_cpi: f64,
    /// CPI added by data-TLB misses (0 unless a TLB was profiled;
    /// paper §7 extension — modeled like long data misses).
    #[serde(default)]
    pub dtlb_cpi: f64,

    /// The per-misprediction penalty used (cycles).
    pub branch_penalty: f64,
    /// The per-L1-I-miss penalty used (cycles, ≈ ∆I).
    pub icache_penalty: f64,
    /// The average per-long-miss penalty used (cycles, ≈ ∆D × overlap).
    pub dcache_penalty_per_miss: f64,
    /// Window-drain penalty of the transient analysis (cycles).
    pub win_drain: f64,
    /// Ramp-up penalty of the transient analysis (cycles).
    pub ramp_up: f64,
    /// The effective sustainable issue width after functional-unit
    /// limits (equals the machine width when units are unbounded).
    #[serde(default)]
    pub effective_width: f64,
}

impl Estimate {
    /// Total CPI (eq. 1): the sum of all components.
    pub fn total_cpi(&self) -> f64 {
        self.steady_state_cpi
            + self.branch_cpi
            + self.icache_l1_cpi
            + self.icache_l2_cpi
            + self.dcache_cpi
            + self.dtlb_cpi
    }

    /// Total IPC (1 / total CPI).
    pub fn total_ipc(&self) -> f64 {
        1.0 / self.total_cpi()
    }

    /// The CPI stack of the paper's Fig. 16, bottom-up:
    /// ideal, L1 I-cache, L2 I-cache, L2 D-cache, branch mispredictions.
    pub fn cpi_stack(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("ideal", self.steady_state_cpi),
            ("L1 icache", self.icache_l1_cpi),
            ("L2 icache", self.icache_l2_cpi),
            ("L2 dcache", self.dcache_cpi),
            ("dtlb", self.dtlb_cpi),
            ("branch", self.branch_cpi),
        ]
    }
}

/// The first-order superscalar processor model.
///
/// Construct with processor parameters, then
/// [`evaluate`](FirstOrderModel::evaluate) any number of program
/// profiles. The
/// burst assumption for branch mispredictions defaults to the paper's
/// §5 choice (the average of the isolated and pure-pipeline penalties).
///
/// # Examples
///
/// See the [crate-level documentation](crate) for an end-to-end
/// example.
#[derive(Debug, Clone, PartialEq)]
pub struct FirstOrderModel {
    pub(crate) params: ProcessorParams,
    pub(crate) burst: BurstAssumption,
    pub(crate) use_measured_bursts: bool,
    pub(crate) paper_rob_fill: bool,
    pub(crate) independent_grouping: bool,
    pub(crate) paper_icache: bool,
    pub(crate) fu: Option<FuPool>,
    pub(crate) fetch_buffer_entries: u32,
    pub(crate) cluster_penalty: f64,
}

impl FirstOrderModel {
    /// Creates a model for the given processor, with the refined
    /// long-miss treatment enabled (see the crate docs): eq. 6 with an
    /// estimated `rob_fill` and dependence-aware f_LDM clustering.
    pub fn new(params: ProcessorParams) -> Self {
        FirstOrderModel {
            params,
            burst: BurstAssumption::PaperAverage,
            use_measured_bursts: false,
            paper_rob_fill: false,
            independent_grouping: false,
            paper_icache: false,
            fu: None,
            fetch_buffer_entries: 0,
            cluster_penalty: 0.0,
        }
    }

    /// Models a clustered issue window (paper §7, new feature 3) to
    /// first order: a fraction `crossing_fraction` of dependence edges
    /// cross clusters and pay `forward_delay` extra cycles, lengthening
    /// the average dependence chain — equivalent to raising the
    /// Little's-Law latency `L` by their product. Round-robin steering
    /// crosses `(k−1)/k` of edges; dependence-aware steering
    /// substantially fewer.
    pub fn with_clusters(mut self, forward_delay: u32, crossing_fraction: f64) -> Self {
        self.cluster_penalty = forward_delay as f64 * crossing_fraction.clamp(0.0, 1.0);
        self
    }

    /// Models an instruction fetch buffer of `entries` instructions
    /// (paper §7, new feature 2): the buffered slack keeps the pipeline
    /// fed during an I-cache miss, hiding up to `entries/width` cycles
    /// of each miss delay ("these buffers … can hide some (or all) of
    /// the I-cache miss penalty").
    pub fn with_fetch_buffer(mut self, entries: u32) -> Self {
        self.fetch_buffer_entries = entries;
        self
    }

    /// Limits functional units (paper §7, new feature 1): from the
    /// profile's instruction mix, the saturation issue rate is capped
    /// at `min_c units(c) / mix_fraction(c)` — "a lower saturation
    /// level than the maximum issue width".
    pub fn with_fu_limits(mut self, fu: FuPool) -> Self {
        self.fu = Some(fu);
        self
    }

    /// Uses the paper's §5 simplifications throughout: isolated
    /// long-miss penalty = ∆D (rob_fill ≈ 0) and purely positional
    /// f_LDM clustering. Useful for ablations and paper-exact
    /// reproduction.
    pub fn with_paper_simplifications(mut self) -> Self {
        self.paper_rob_fill = true;
        self.independent_grouping = true;
        self.paper_icache = true;
        self
    }

    /// Uses only the paper's `rob_fill ≈ 0` simplification (keeps the
    /// dependence-aware clustering).
    pub fn with_paper_rob_fill(mut self) -> Self {
        self.paper_rob_fill = true;
        self
    }

    /// Uses only the paper's positional clustering (keeps the estimated
    /// `rob_fill`).
    pub fn with_independent_grouping(mut self) -> Self {
        self.independent_grouping = true;
        self
    }

    /// Uses the paper's eq. 4 I-cache penalty (`≈ ∆`) instead of the
    /// refined form that subtracts the steady-time equivalent of the
    /// work buffered in the window and front-end pipe at stall onset
    /// (see [`crate::icache`]).
    pub fn with_paper_icache_penalty(mut self) -> Self {
        self.paper_icache = true;
        self
    }

    /// Overrides the branch-misprediction burst assumption.
    pub fn with_burst_assumption(mut self, burst: BurstAssumption) -> Self {
        self.burst = burst;
        self.use_measured_bursts = false;
        self
    }

    /// Uses each profile's *measured* mean misprediction burst length
    /// for eq. 3 instead of a fixed assumption (one of the paper's §7
    /// "future work" refinements).
    pub fn with_measured_bursts(mut self) -> Self {
        self.use_measured_bursts = true;
        self
    }

    /// The processor parameters of this model.
    pub fn params(&self) -> &ProcessorParams {
        &self.params
    }

    /// Evaluates the model and derives the per-event-class penalty
    /// view (see [`crate::events`]): the estimate's CPI adders plus
    /// the effective penalty the model attributes to *one* event of
    /// each class, guaranteed to reconcile with the adders.
    ///
    /// # Errors
    ///
    /// As [`evaluate`](FirstOrderModel::evaluate).
    pub fn event_penalties(
        &self,
        profile: &ProgramProfile,
    ) -> Result<(Estimate, crate::events::EventPenalties), ModelError> {
        let est = self.evaluate(profile)?;
        let penalties = crate::events::EventPenalties::from_estimate(&est, profile);
        Ok((est, penalties))
    }

    /// Evaluates the model on a program profile (the paper's §5 recipe):
    /// [`prepare`](FirstOrderModel::prepare) followed by one
    /// [`evaluate_params`](crate::batch::PreparedModel::evaluate_params)
    /// at this model's own parameters.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParams`] if the parameters fail validation,
    /// then everything [`prepare`](FirstOrderModel::prepare) can return
    /// ([`ModelError::EmptyTrace`] for a zero-instruction profile, an
    /// invalid FU pool or cluster-adjusted characteristic).
    pub fn evaluate(&self, profile: &ProgramProfile) -> Result<Estimate, ModelError> {
        self.params.validate().map_err(ModelError::InvalidParams)?;
        Ok(self.prepare(profile)?.evaluate_params(&self.params))
    }
}

/// The paper's §5 recipe written out term by term, retained as the test
/// oracle for [`FirstOrderModel::evaluate`] (which composes the
/// prepare/structural/evaluate-at split of [`crate::batch`]). It
/// re-derives every quantity per call — the drain and ramp walks run
/// several times — so no production path calls it; a property test
/// pins the two bit-identical (`cargo test -p fosm-core --test
/// batch_identity`).
pub mod reference {
    use fosm_depgraph::IwCharacteristic;
    use fosm_isa::FuClass;

    use super::{Estimate, FirstOrderModel};
    use crate::branch::BurstAssumption;
    use crate::transient::{ramp_up, win_drain};
    use crate::{branch, dcache, icache, ModelError, ProgramProfile};

    /// Scalar oracle for [`FirstOrderModel::evaluate`], with the same
    /// errors in the same order.
    ///
    /// # Errors
    ///
    /// As [`FirstOrderModel::evaluate`].
    pub fn evaluate(
        model: &FirstOrderModel,
        profile: &ProgramProfile,
    ) -> Result<Estimate, ModelError> {
        model.params.validate().map_err(ModelError::InvalidParams)?;
        if profile.instructions == 0 {
            return Err(ModelError::EmptyTrace);
        }
        let params = &model.params;
        // Clustering lengthens dependence chains by the expected
        // cross-cluster forwarding delay; fold it into L.
        let adjusted_iw;
        let iw: &IwCharacteristic = if model.cluster_penalty > 0.0 {
            adjusted_iw = profile
                .iw
                .with_avg_latency(profile.iw.avg_latency() + model.cluster_penalty)
                .map_err(|e| ModelError::InvalidParams(e.to_string()))?;
            &adjusted_iw
        } else {
            &profile.iw
        };
        let n = profile.instructions;

        // 1) Steady-state IPC from the IW characteristic, saturated at
        // the machine width and, if units are limited, at the
        // mix-weighted functional-unit bound.
        let fu_bound = match &model.fu {
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
        let effective_width = (params.width as f64).min(fu_bound);
        let steady_ipc = iw
            .unlimited_issue_rate(params.win_size as f64)
            .min(effective_width);
        let steady_state_cpi = 1.0 / steady_ipc;

        let drain = win_drain(iw, params.width, params.win_size).penalty;
        let ramp = ramp_up(iw, params.width, params.win_size).penalty;

        // 2) Branch misprediction penalty (eq. 2/3).
        let burst = if model.use_measured_bursts {
            BurstAssumption::Bursts(profile.mispredict_burst_mean)
        } else {
            model.burst
        };
        let branch_penalty = branch::penalty(iw, params, burst);
        let branch_cpi = branch_penalty * profile.mispredicts as f64 / n as f64;

        // 3) Instruction-cache penalties (eq. 4, refined: the work
        // buffered ahead of the stall hides part of the delay), minus
        // any slack hidden by a fetch buffer (§7 extension).
        let ic_isolated = |delta: u32| {
            if model.paper_icache {
                icache::isolated_penalty_paper(iw, params, delta)
            } else {
                icache::isolated_penalty(iw, params, delta)
            }
        };
        let buffer_hide = model.fetch_buffer_entries as f64 / params.width as f64;
        let icache_penalty = (ic_isolated(params.l2_latency) - buffer_hide).max(0.0);
        let icache_long_penalty = (ic_isolated(params.mem_latency) - buffer_hide).max(0.0);
        let icache_l1_cpi = icache_penalty * profile.icache_short_misses as f64 / n as f64;
        let icache_l2_cpi = icache_long_penalty * profile.icache_long_misses as f64 / n as f64;

        // 4) Long data-cache misses (eq. 8).
        let distribution = if model.independent_grouping {
            &profile.long_miss_distribution_paper
        } else {
            &profile.long_miss_distribution
        };
        let isolated = if model.paper_rob_fill {
            dcache::isolated_penalty_paper(iw, params)
        } else {
            dcache::isolated_penalty(iw, params)
        };
        let dcache_penalty_per_miss = isolated * distribution.overlap_factor();
        let dcache_cpi = dcache_penalty_per_miss * distribution.misses() as f64 / n as f64;

        // 5) Data-TLB misses (paper §7 extension): a page walk stalls
        // retirement like a long miss with delta = walk latency; the
        // same drain/ramp/rob_fill offsets and overlap scaling apply.
        let dtlb_cpi = if profile.dtlb_walk_latency > 0 {
            let walk_isolated = {
                let drain = win_drain(iw, params.width, params.win_size).penalty;
                let ramp = ramp_up(iw, params.width, params.win_size).penalty;
                let fill = if model.paper_rob_fill {
                    0.0
                } else {
                    dcache::estimated_rob_fill(iw, params)
                };
                (profile.dtlb_walk_latency as f64 - fill - drain + ramp).max(0.0)
            };
            walk_isolated
                * profile.dtlb_miss_distribution.overlap_factor()
                * profile.dtlb_miss_distribution.misses() as f64
                / n as f64
        } else {
            0.0
        };

        // 6) Cross-event overlap: the paper's eq. 1 stack is linear,
        // but in the full machine an instruction fetch stall that
        // lands inside a long data-miss stall is already paid for —
        // fetch was going to starve behind the blocked ROB anyway.
        // To first order, data stalls occupy `(dcache + dtlb)/total`
        // of all cycles, so that fraction of the I-cache adder comes
        // off. The correction vanishes where the components are
        // measured in isolation (an ideal data hierarchy has
        // dcache_cpi = 0), keeping per-component differential
        // validation untouched; on the full machine it recovers the
        // non-additivity the detailed simulator shows when both miss
        // sources are heavy.
        let (icache_l1_cpi, icache_l2_cpi) = if model.paper_icache {
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

        Ok(Estimate {
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
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fosm_cache::BurstDistribution;
    use fosm_depgraph::{IwCharacteristic, PowerLaw};

    fn profile(mispredicts: u64, icache_short: u64, long_misses: u64) -> ProgramProfile {
        ProgramProfile {
            name: "synthetic".into(),
            instructions: 1_000_000,
            iw: IwCharacteristic::new(PowerLaw::square_root(), 1.0).unwrap(),
            cond_branches: 200_000,
            mispredicts,
            mispredict_burst_mean: 1.0,
            icache_short_misses: icache_short,
            icache_long_misses: 0,
            dcache_short_misses: 0,
            long_miss_distribution: BurstDistribution::all_isolated(long_misses),
            long_miss_distribution_paper: BurstDistribution::all_isolated(long_misses),
            dtlb_miss_distribution: BurstDistribution::default(),
            dtlb_walk_latency: 0,
            fu_mix: [0; 5],
        }
    }

    #[test]
    fn ideal_program_runs_at_steady_state() {
        let est = FirstOrderModel::new(ProcessorParams::baseline())
            .evaluate(&profile(0, 0, 0))
            .unwrap();
        // sqrt(48) > 4 -> saturated at width 4 -> CPI 0.25.
        assert!((est.total_cpi() - 0.25).abs() < 1e-9);
        assert_eq!(est.branch_cpi, 0.0);
        assert_eq!(est.dcache_cpi, 0.0);
    }

    #[test]
    fn components_add_linearly() {
        // Paper eq. 1 is a strictly linear stack; the refined model
        // discounts the I-cache adder by the data-stall share, so the
        // exact-additivity contract holds for the paper-faithful
        // configuration.
        let model = FirstOrderModel::new(ProcessorParams::baseline()).with_paper_icache_penalty();
        let both = model.evaluate(&profile(10_000, 5_000, 1_000)).unwrap();
        let only_br = model.evaluate(&profile(10_000, 0, 0)).unwrap();
        let only_ic = model.evaluate(&profile(0, 5_000, 0)).unwrap();
        let only_dc = model.evaluate(&profile(0, 0, 1_000)).unwrap();
        let sum =
            only_br.branch_cpi + only_ic.icache_l1_cpi + only_dc.dcache_cpi + both.steady_state_cpi;
        assert!((both.total_cpi() - sum).abs() < 1e-12);
    }

    #[test]
    fn icache_stalls_inside_data_stalls_are_discounted() {
        // The refined model charges less for I-cache misses when long
        // data misses occupy a share of the cycles (the stack is
        // sub-additive, as the detailed simulator shows), and exactly
        // the isolated amount when the data hierarchy is clean.
        let model = FirstOrderModel::new(ProcessorParams::baseline());
        let alone = model.evaluate(&profile(0, 5_000, 0)).unwrap();
        let with_data = model.evaluate(&profile(0, 5_000, 1_000)).unwrap();
        assert!(
            with_data.icache_l1_cpi < alone.icache_l1_cpi,
            "{} !< {}",
            with_data.icache_l1_cpi,
            alone.icache_l1_cpi
        );
        // The discount never exceeds the data-stall share itself.
        let share = (with_data.dcache_cpi + with_data.dtlb_cpi) / with_data.total_cpi();
        assert!(with_data.icache_l1_cpi >= alone.icache_l1_cpi * (1.0 - share) - 1e-12);
    }

    #[test]
    fn penalties_match_paper_magnitudes() {
        let est = FirstOrderModel::new(ProcessorParams::baseline())
            .with_paper_icache_penalty()
            .evaluate(&profile(10_000, 5_000, 1_000))
            .unwrap();
        // §5: branch ≈ 7.5 cycles, icache ≈ 8; dcache ≈ ∆D = 200 minus
        // the eq. 6 rob_fill absorption (~27 cycles on the baseline).
        assert!(
            (6.8..=8.2).contains(&est.branch_penalty),
            "{}",
            est.branch_penalty
        );
        assert!(
            (6.5..=9.5).contains(&est.icache_penalty),
            "{}",
            est.icache_penalty
        );
        assert!(
            (160.0..=200.0).contains(&est.dcache_penalty_per_miss),
            "{}",
            est.dcache_penalty_per_miss
        );
    }

    #[test]
    fn refined_icache_penalty_hides_buffered_work() {
        // The default model subtracts the steady-time equivalent of
        // the window + front-end pipe reserve from each I-miss stall,
        // so its penalty is at most the paper's `≈ ∆` form.
        let prof = profile(0, 5_000, 0);
        let refined = FirstOrderModel::new(ProcessorParams::baseline())
            .evaluate(&prof)
            .unwrap();
        let paper = FirstOrderModel::new(ProcessorParams::baseline())
            .with_paper_icache_penalty()
            .evaluate(&prof)
            .unwrap();
        assert!(refined.icache_penalty <= paper.icache_penalty);
        assert!(refined.icache_l1_cpi <= paper.icache_l1_cpi);
        assert!(refined.icache_l1_cpi >= 0.0);
    }

    #[test]
    fn stack_components_sum_to_total() {
        let est = FirstOrderModel::new(ProcessorParams::baseline())
            .evaluate(&profile(20_000, 10_000, 3_000))
            .unwrap();
        let stack_sum: f64 = est.cpi_stack().iter().map(|(_, v)| v).sum();
        assert!((stack_sum - est.total_cpi()).abs() < 1e-12);
        assert_eq!(est.cpi_stack().len(), 6);
        assert!((est.total_ipc() * est.total_cpi() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn burst_assumptions_order_correctly() {
        let p = profile(10_000, 0, 0);
        let iso = FirstOrderModel::new(ProcessorParams::baseline())
            .with_burst_assumption(BurstAssumption::Isolated)
            .evaluate(&p)
            .unwrap();
        let avg = FirstOrderModel::new(ProcessorParams::baseline())
            .evaluate(&p)
            .unwrap();
        let heavy = FirstOrderModel::new(ProcessorParams::baseline())
            .with_burst_assumption(BurstAssumption::Bursts(8.0))
            .evaluate(&p)
            .unwrap();
        assert!(iso.branch_cpi > avg.branch_cpi);
        assert!(avg.branch_cpi > heavy.branch_cpi);
    }

    #[test]
    fn measured_bursts_use_the_profile() {
        let mut p = profile(10_000, 0, 0);
        p.mispredict_burst_mean = 3.0;
        let measured = FirstOrderModel::new(ProcessorParams::baseline())
            .with_measured_bursts()
            .evaluate(&p)
            .unwrap();
        let explicit = FirstOrderModel::new(ProcessorParams::baseline())
            .with_burst_assumption(BurstAssumption::Bursts(3.0))
            .evaluate(&p)
            .unwrap();
        assert!((measured.branch_cpi - explicit.branch_cpi).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_is_rejected() {
        let mut p = profile(0, 0, 0);
        p.instructions = 0;
        let err = FirstOrderModel::new(ProcessorParams::baseline()).evaluate(&p);
        assert_eq!(err.unwrap_err(), ModelError::EmptyTrace);
    }

    #[test]
    fn paper_simplifications_raise_the_dcache_penalty() {
        let p = profile(0, 0, 1_000);
        let refined = FirstOrderModel::new(ProcessorParams::baseline())
            .evaluate(&p)
            .unwrap();
        let paper = FirstOrderModel::new(ProcessorParams::baseline())
            .with_paper_simplifications()
            .evaluate(&p)
            .unwrap();
        assert!((paper.dcache_penalty_per_miss - 200.0).abs() < 1.0);
        assert!(refined.dcache_penalty_per_miss < paper.dcache_penalty_per_miss);
        // Steady state and branch components are untouched.
        assert_eq!(refined.steady_state_cpi, paper.steady_state_cpi);
        assert_eq!(refined.branch_cpi, paper.branch_cpi);
    }

    #[test]
    fn grouping_choice_selects_the_distribution() {
        let mut p = profile(0, 0, 0);
        // Dependence-aware view: all isolated; paper view: all paired.
        p.long_miss_distribution = BurstDistribution::all_isolated(1_000);
        p.long_miss_distribution_paper = BurstDistribution::from_group_sizes(vec![0, 0, 500]);
        let refined = FirstOrderModel::new(ProcessorParams::baseline())
            .evaluate(&p)
            .unwrap();
        let positional = FirstOrderModel::new(ProcessorParams::baseline())
            .with_independent_grouping()
            .evaluate(&p)
            .unwrap();
        assert!((refined.dcache_cpi - 2.0 * positional.dcache_cpi).abs() < 1e-9);
    }

    #[test]
    fn overlapped_long_misses_halve_their_cpi() {
        let mut paired = profile(0, 0, 0);
        paired.long_miss_distribution = BurstDistribution::from_group_sizes(vec![0, 0, 500]);
        let isolated = profile(0, 0, 1_000);
        let model = FirstOrderModel::new(ProcessorParams::baseline());
        let a = model.evaluate(&paired).unwrap();
        let b = model.evaluate(&isolated).unwrap();
        assert!((a.dcache_cpi - b.dcache_cpi / 2.0).abs() < 1e-12);
    }
}
