//! Branch-misprediction penalty (paper §4.1, eq. 2–3).

use fosm_depgraph::IwCharacteristic;
use serde::{Deserialize, Serialize};

use crate::transient::{ramp_up, win_drain};
use crate::ProcessorParams;

/// How clustered branch mispredictions are assumed to be.
///
/// Equation (3): a burst of `n` consecutive mispredictions pays the
/// drain and ramp penalties once, bracketing `n` pipeline refills, so
/// the per-misprediction penalty is `∆P + (win_drain + ramp_up)/n`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BurstAssumption {
    /// Every misprediction is isolated (`n = 1`, eq. 2) — the upper
    /// bound.
    Isolated,
    /// Mispredictions come in bursts of mean length `n ≥ 1`.
    Bursts(f64),
    /// The paper's §5 evaluation choice: the average of the isolated
    /// penalty and the pure-pipeline penalty ("the average of 5 and 10
    /// cycles, i.e. 7.5" for the baseline) — equivalent to `n = 2`.
    PaperAverage,
}

impl BurstAssumption {
    /// The burst length `n` this assumption amortizes the transient
    /// penalties over (eq. 3); used by [`penalty`] and by the batched
    /// evaluator ([`crate::batch`]), which resolves it once per
    /// prepared workload.
    pub fn effective_n(self) -> f64 {
        match self {
            BurstAssumption::Isolated => 1.0,
            BurstAssumption::Bursts(n) => n.max(1.0),
            BurstAssumption::PaperAverage => 2.0,
        }
    }
}

/// Penalty in cycles for an isolated branch misprediction (eq. 2):
/// `win_drain + ∆P + ramp_up`.
///
/// # Examples
///
/// ```
/// use fosm_core::branch::isolated_penalty;
/// use fosm_core::params::ProcessorParams;
/// use fosm_depgraph::{IwCharacteristic, PowerLaw};
///
/// let iw = IwCharacteristic::new(PowerLaw::square_root(), 1.0)?;
/// let p = isolated_penalty(&iw, &ProcessorParams::baseline());
/// // Paper Fig. 8: 2.1 + 4.9 + 2.7 ≈ 9.7 cycles for the baseline.
/// assert!((8.5..=11.0).contains(&p));
/// # Ok::<(), fosm_depgraph::FitError>(())
/// ```
pub fn isolated_penalty(iw: &IwCharacteristic, params: &ProcessorParams) -> f64 {
    penalty(iw, params, BurstAssumption::Isolated)
}

/// Penalty in cycles per branch misprediction under a burst assumption
/// (eq. 3): `∆P + (win_drain + ramp_up) / n`.
pub fn penalty(iw: &IwCharacteristic, params: &ProcessorParams, burst: BurstAssumption) -> f64 {
    let drain = win_drain(iw, params.width, params.win_size).penalty;
    let ramp = ramp_up(iw, params.width, params.win_size).penalty;
    params.pipe_depth as f64 + (drain + ramp) / burst.effective_n()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fosm_depgraph::PowerLaw;

    fn sqrt_iw() -> IwCharacteristic {
        IwCharacteristic::new(PowerLaw::square_root(), 1.0).unwrap()
    }

    fn baseline() -> ProcessorParams {
        ProcessorParams::baseline()
    }

    #[test]
    fn isolated_penalty_matches_fig8_total() {
        // 2.1 (drain) + 4.9..5 (pipe) + 2.7 (ramp) ≈ 9.7.
        let p = isolated_penalty(&sqrt_iw(), &baseline());
        assert!((9.0..=10.6).contains(&p), "penalty {p}");
    }

    #[test]
    fn penalty_exceeds_pipeline_depth() {
        // Paper observation 1: the misprediction penalty is often
        // significantly larger than the front-end depth.
        for burst in [
            BurstAssumption::Isolated,
            BurstAssumption::PaperAverage,
            BurstAssumption::Bursts(4.0),
        ] {
            let p = penalty(&sqrt_iw(), &baseline(), burst);
            assert!(p > 5.0, "{burst:?} gives {p}");
        }
    }

    #[test]
    fn infinite_bursts_approach_the_pipeline_depth() {
        let p = penalty(&sqrt_iw(), &baseline(), BurstAssumption::Bursts(1e9));
        assert!((p - 5.0).abs() < 0.01, "penalty {p}");
    }

    #[test]
    fn paper_average_is_midway() {
        let iso = penalty(&sqrt_iw(), &baseline(), BurstAssumption::Isolated);
        let avg = penalty(&sqrt_iw(), &baseline(), BurstAssumption::PaperAverage);
        let floor = baseline().pipe_depth as f64;
        assert!(((iso + floor) / 2.0 - avg).abs() < 1e-9);
        // Baseline: between 5 and 10 cycles, ≈7.5 (paper §5 step 2).
        assert!((6.8..=8.2).contains(&avg), "avg {avg}");
    }

    #[test]
    fn deeper_pipes_add_exactly_their_depth() {
        let p5 = penalty(&sqrt_iw(), &baseline(), BurstAssumption::Isolated);
        let p9 = penalty(
            &sqrt_iw(),
            &baseline().with_pipe_depth(9),
            BurstAssumption::Isolated,
        );
        assert!((p9 - p5 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bursts_below_one_clamp_to_isolated() {
        let a = penalty(&sqrt_iw(), &baseline(), BurstAssumption::Bursts(0.5));
        let b = penalty(&sqrt_iw(), &baseline(), BurstAssumption::Isolated);
        assert!((a - b).abs() < 1e-12);
    }
}
