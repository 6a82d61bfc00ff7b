//! Instruction-cache miss penalty (paper §4.2, eq. 4–5).
//!
//! The paper argues the penalty of a long fetch stall is approximately
//! the miss delay ∆, because the window-drain savings and the ramp-up
//! cost roughly cancel (eq. 4). Differential validation against the
//! detailed simulator shows that cancellation is only accurate for
//! width-bound programs: a dependence-limited program (steady IPC well
//! below the fetch width) buffers a deep reserve of work in the issue
//! window and the front-end pipe, and the back end keeps retiring from
//! that reserve while fetch is stalled. The refined penalty therefore
//! subtracts the *steady-time equivalent* of the buffered work — the
//! cycles the hidden instructions would have cost anyway — rather than
//! the paper's drain "penalty" (which is nearly zero by construction).
//! The original forms are kept as the `*_paper` variants.
//!
//! The hiding is only *sustainable* to the extent fetch has surplus
//! bandwidth to rebuild the consumed reserve before the next stall: a
//! width-bound program (steady IPC ≈ fetch width) spends every fetch
//! slot feeding steady-state issue, so a drained buffer never refills
//! and — as differential fuzzing showed on a deep-pipe machine, where
//! an unconditional `pipe_depth × width` reserve made short misses
//! free while the simulator paid nearly the paper penalty — the
//! effective hiding collapses back to the paper's drain term. The
//! refined penalty therefore interpolates between the paper form and
//! full hiding by the fetch-surplus fraction `1 − IPC/width`.

use fosm_depgraph::IwCharacteristic;

use crate::transient::{ramp_up, win_drain};
use crate::ProcessorParams;

/// Steady-state issue rate implied by the IW characteristic and the
/// machine: the fit's unlimited rate at the window size, saturated at
/// the issue width.
fn steady_rate(iw: &IwCharacteristic, params: &ProcessorParams) -> f64 {
    iw.unlimited_issue_rate(params.win_size as f64)
        .min(params.width as f64)
        .max(f64::MIN_POSITIVE)
}

/// Cycles of a fetch stall hidden by work buffered ahead of it.
///
/// At stall onset the back end holds the steady window occupancy plus
/// the front-end pipe contents (`pipe_depth × width` in-flight fetch
/// slots). It keeps issuing from that reserve while fetch is stalled;
/// the instructions it gets through are work the program no longer
/// pays for after the stall, so their steady-time equivalent —
/// `(drained + pipe) / steady_ipc` — comes off the penalty, scaled in
/// [`penalty`] by how sustainably fetch can rebuild the reserve.
pub fn hidden_cycles(iw: &IwCharacteristic, params: &ProcessorParams) -> f64 {
    let drained = win_drain(iw, params.width, params.win_size).issued;
    let pipe = params.pipe_depth as f64 * params.width as f64;
    (drained + pipe) / steady_rate(iw, params)
}

/// Penalty in cycles for an isolated instruction-cache miss with miss
/// delay `delta`: `∆ + ramp_up − hidden_cycles`, clamped at zero.
///
/// For a width-bound program the hidden work is small and this stays
/// close to the paper's `≈ ∆` (eq. 4); for a dependence-limited
/// program it can hide a large fraction of the delay — short misses
/// become nearly free, matching the detailed simulator.
///
/// # Examples
///
/// ```
/// use fosm_core::icache::{isolated_penalty, isolated_penalty_paper};
/// use fosm_core::params::ProcessorParams;
/// use fosm_depgraph::{IwCharacteristic, PowerLaw};
///
/// let iw = IwCharacteristic::new(PowerLaw::square_root(), 1.0)?;
/// let p = isolated_penalty(&iw, &ProcessorParams::baseline(), 200);
/// let paper = isolated_penalty_paper(&iw, &ProcessorParams::baseline(), 200);
/// assert!(p <= paper); // buffered work only ever shortens the stall
/// # Ok::<(), fosm_depgraph::FitError>(())
/// ```
pub fn isolated_penalty(iw: &IwCharacteristic, params: &ProcessorParams, delta: u32) -> f64 {
    penalty(iw, params, delta, 1.0)
}

/// The paper's eq. 4 penalty for an isolated miss:
/// `∆ + ramp_up − win_drain` — approximately the miss delay, and
/// independent of the pipeline depth (the §4.2 observations).
pub fn isolated_penalty_paper(iw: &IwCharacteristic, params: &ProcessorParams, delta: u32) -> f64 {
    penalty_paper(iw, params, delta, 1.0)
}

/// Penalty per miss for a burst of `n` consecutive misses:
/// `∆ + (ramp_up − hidden)/n`, clamped at zero, where `hidden`
/// interpolates between the paper's window-drain savings and the full
/// buffered-reserve hiding ([`hidden_cycles`]) by the fetch-surplus
/// fraction `1 − steady_IPC/width`.
///
/// With no surplus the reserve, once spent, never refills — each
/// subsequent stall starts from an empty buffer and the paper's eq. 5
/// is exact. With ample surplus (deeply dependence-limited code) the
/// reserve rebuilds almost for free and the full hiding applies. The
/// buffered reserve is only available once per burst, so like the
/// paper's eq. 5 the transient terms amortize over the burst length.
pub fn penalty(iw: &IwCharacteristic, params: &ProcessorParams, delta: u32, n: f64) -> f64 {
    let drain = win_drain(iw, params.width, params.win_size).penalty;
    let ramp = ramp_up(iw, params.width, params.win_size).penalty;
    let surplus = (1.0 - iw.steady_state_ipc(params.win_size, params.width) / params.width as f64)
        .clamp(0.0, 1.0);
    let hidden = drain + (hidden_cycles(iw, params) - drain).max(0.0) * surplus;
    (delta as f64 + (ramp - hidden) / n.max(1.0)).max(0.0)
}

/// The paper's eq. 5 per-miss burst penalty:
/// `∆ + (ramp_up − win_drain)/n`.
///
/// Because drain and ramp-up offset each other, this is nearly the
/// same whether misses are isolated or bursty.
pub fn penalty_paper(iw: &IwCharacteristic, params: &ProcessorParams, delta: u32, n: f64) -> f64 {
    let drain = win_drain(iw, params.width, params.win_size).penalty;
    let ramp = ramp_up(iw, params.width, params.win_size).penalty;
    (delta as f64 + (ramp - drain) / n.max(1.0)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fosm_depgraph::PowerLaw;

    fn sqrt_iw() -> IwCharacteristic {
        IwCharacteristic::new(PowerLaw::square_root(), 1.0).unwrap()
    }

    #[test]
    fn paper_penalty_is_approximately_the_miss_delay() {
        let p = isolated_penalty_paper(&sqrt_iw(), &ProcessorParams::baseline(), 8);
        assert!((6.5..=9.5).contains(&p), "penalty {p}");
    }

    #[test]
    fn paper_penalty_is_independent_of_pipeline_depth() {
        // Paper §4.2 observation 1 / Fig. 11.
        let base = ProcessorParams::baseline();
        let p5 = isolated_penalty_paper(&sqrt_iw(), &base, 8);
        let p9 = isolated_penalty_paper(&sqrt_iw(), &base.clone().with_pipe_depth(9), 8);
        assert!((p5 - p9).abs() < 1e-9);
    }

    #[test]
    fn refined_penalty_never_exceeds_the_paper_form() {
        // The hidden work includes everything the drain issues plus
        // the pipe contents, so the refinement only subtracts more.
        let iw = sqrt_iw();
        let params = ProcessorParams::baseline();
        for delta in [1, 8, 50, 200] {
            let refined = isolated_penalty(&iw, &params, delta);
            let paper = isolated_penalty_paper(&iw, &params, delta);
            assert!(refined <= paper + 1e-9, "∆={delta}: {refined} > {paper}");
        }
    }

    fn dep_limited_iw() -> IwCharacteristic {
        // rate(48) = 48^0.25 ≈ 2.6 < width 4: fetch has surplus
        // bandwidth, so the buffered-reserve hiding is sustainable.
        IwCharacteristic::new(PowerLaw::new(1.0, 0.25).unwrap(), 1.0).unwrap()
    }

    #[test]
    fn deeper_pipes_hide_more_of_the_stall() {
        // A deeper front end buffers more in-flight fetches, so for a
        // program with fetch surplus the refined penalty shrinks with
        // pipeline depth.
        let base = ProcessorParams::baseline();
        let p5 = isolated_penalty(&dep_limited_iw(), &base, 200);
        let p9 = isolated_penalty(&dep_limited_iw(), &base.clone().with_pipe_depth(9), 200);
        assert!(p9 < p5, "depth 9 penalty {p9} vs depth 5 {p5}");
    }

    #[test]
    fn width_bound_programs_get_no_hiding() {
        // sqrt(48) ≈ 6.9 saturates a 4-wide machine: steady IPC equals
        // the fetch width, no surplus ever rebuilds a drained buffer,
        // and the refined penalty collapses to the paper form — the
        // deep-pipe fuzz reproducer (gap at pipe_depth 12) showed the
        // simulator pays the paper penalty there.
        let base = ProcessorParams::baseline();
        let refined = isolated_penalty(&sqrt_iw(), &base, 8);
        let paper = isolated_penalty_paper(&sqrt_iw(), &base, 8);
        assert!((refined - paper).abs() < 1e-9, "{refined} vs {paper}");
        // And a deeper pipe must not manufacture hiding from nothing.
        let deep = isolated_penalty(&sqrt_iw(), &base.clone().with_pipe_depth(12), 8);
        assert!((deep - refined).abs() < 1e-9, "{deep} vs {refined}");
    }

    #[test]
    fn long_misses_still_pay_most_of_the_delay() {
        // The buffered reserve is bounded by window + pipe, so even
        // with fetch surplus a 200-cycle memory miss keeps the bulk of
        // its cost.
        let p = isolated_penalty(&dep_limited_iw(), &ProcessorParams::baseline(), 200);
        assert!((150.0..=200.0).contains(&p), "penalty {p}");
    }

    #[test]
    fn bursts_barely_change_the_paper_penalty() {
        // Paper §4.2 observation: same penalty isolated or in a burst.
        let iso = penalty_paper(&sqrt_iw(), &ProcessorParams::baseline(), 8, 1.0);
        let burst = penalty_paper(&sqrt_iw(), &ProcessorParams::baseline(), 8, 10.0);
        assert!((iso - burst).abs() < 1.0, "iso {iso} vs burst {burst}");
    }

    #[test]
    fn penalty_never_negative() {
        // Even with a 1-cycle delay and a large hidden reserve, clamp
        // at zero — a miss cannot speed the program up.
        let p = penalty(&sqrt_iw(), &ProcessorParams::baseline(), 1, 1.0);
        assert!(p >= 0.0);
        let paper = penalty_paper(&sqrt_iw(), &ProcessorParams::baseline(), 1, 1.0);
        assert!(paper >= 0.0);
    }
}
