//! Idealized window-limited issue simulation (paper §3, Fig. 4).
//!
//! "A practical alternative \[to solving the non-linear equations\] is
//! to perform idealized (no miss-events) trace-driven simulations with
//! an unlimited number of unit-latency functional units and unbounded
//! issue width. The only thing that is limited is the issue window
//! size." — Karkhanis & Smith, §3.
//!
//! # Kernel
//!
//! The machine being modeled issues, every cycle, *all* instructions
//! among the `W` oldest unissued ones whose producers have completed.
//! One kernel computes it: [`IwSweep`], the push-based single-sweep
//! recurrence the fused profiler streams every trace through (see
//! [`crate::streaming`] for the recurrence and its constant-state
//! form). [`characteristic`] and [`ipc_at_window`] are thin slice
//! wrappers around it, and [`reference`](mod@reference) keeps the
//! original cycle-stepped machine as the test oracle — `O(cycles × W)`
//! against the kernel's amortized `O(1)` per instruction and window
//! size.

use fosm_isa::{Inst, LatencyTable, NUM_REGS};
use serde::{Deserialize, Serialize};

use crate::IwSweep;

/// One measured point of the IW characteristic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IwPoint {
    /// Issue-window size in instructions.
    pub window: u32,
    /// Average useful instructions issued per cycle at that size.
    pub ipc: f64,
}

/// The window sizes the paper's Fig. 4 sweeps (powers of two, 2..=256).
pub const DEFAULT_WINDOW_SIZES: [u32; 8] = [2, 4, 8, 16, 32, 64, 128, 256];

/// Measures the idealized IPC of `insts` for a single window size.
///
/// The machine model is the paper's idealized extractor: instructions
/// enter a `window`-entry issue window in program order; every cycle,
/// *all* window-resident instructions whose producers have completed
/// issue simultaneously (unbounded issue width, unlimited functional
/// units); an instruction's result is ready `latency(op)` cycles after
/// issue. With [`LatencyTable::unit`] this is exactly the paper's
/// unit-latency configuration.
///
/// Computed by the streaming kernel ([`IwSweep`]);
/// [`reference::ipc_at_window`] is the cycle-stepped oracle it is
/// tested against.
///
/// Returns the average IPC (`insts.len() / cycles`), or 0.0 for an
/// empty trace.
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn ipc_at_window(insts: &[Inst], window: u32, latencies: &LatencyTable) -> f64 {
    characteristic(insts, &[window], latencies)[0].ipc
}

/// Sweeps the IW characteristic over `window_sizes`.
///
/// This is the generator of the paper's Fig. 4 curves: one idealized
/// simulation per window size over the same trace, all advanced
/// together by a single pass of [`IwSweep`] — the kernel the profiler
/// runs. Each point reports 0.0 IPC for an empty trace.
///
/// # Panics
///
/// Panics if any window size is zero.
pub fn characteristic(
    insts: &[Inst],
    window_sizes: &[u32],
    latencies: &LatencyTable,
) -> Vec<IwPoint> {
    let mut sweep = IwSweep::new(window_sizes, latencies.clone());
    for inst in insts {
        sweep.push(inst);
    }
    sweep.finish().points().to_vec()
}

/// For each instruction, the indices of its producing instructions
/// (`usize::MAX` marks a source with no in-trace producer).
fn resolve_producers(insts: &[Inst]) -> Vec<[usize; 2]> {
    let mut last_writer = [usize::MAX; NUM_REGS];
    let mut out = Vec::with_capacity(insts.len());
    for (i, inst) in insts.iter().enumerate() {
        let mut prods = [usize::MAX; 2];
        for (slot, src) in inst.sources().enumerate() {
            prods[slot] = last_writer[src.index()];
        }
        out.push(prods);
        if let Some(d) = inst.dest {
            last_writer[d.index()] = i;
        }
    }
    out
}

/// The original cycle-stepped idealized-issue machine, retained as the
/// test oracle for the streaming kernel (and for old-vs-new
/// benchmarking). Semantically identical to [`ipc_at_window`]; costs
/// `O(cycles × W)` because it rescans the window every cycle.
pub mod reference {
    use super::{resolve_producers, Inst, LatencyTable};

    /// Cycle-stepped oracle for [`super::ipc_at_window`].
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn ipc_at_window(insts: &[Inst], window: u32, latencies: &LatencyTable) -> f64 {
        assert!(window > 0, "window size must be at least 1");
        if insts.is_empty() {
            return 0.0;
        }

        let producers = resolve_producers(insts);

        let n = insts.len();
        let w = window as usize;
        // finish[i] = cycle at which instruction i's result is available.
        let mut finish = vec![u64::MAX; n];
        let mut issued = vec![false; n];
        let mut head = 0usize; // oldest unissued instruction
        let mut cycle: u64 = 0;

        while head < n {
            cycle += 1;
            // The window holds the `w` *oldest unissued* instructions:
            // issued instructions free their slots, so scan past holes.
            let mut occupied = 0usize;
            let mut i = head;
            while i < n && occupied < w {
                if !issued[i] {
                    occupied += 1;
                    let ready = producers[i]
                        .iter()
                        .all(|&p| p == usize::MAX || finish[p] <= cycle);
                    if ready {
                        issued[i] = true;
                        finish[i] = cycle + latencies.latency(insts[i].op) as u64;
                    }
                }
                i += 1;
            }
            // Slide the head past issued instructions so new ones enter.
            while head < n && issued[head] {
                head += 1;
            }
            // Progress guarantee: the oldest unissued instruction's
            // producers are all older and complete in bounded time, so it
            // issues within max-latency cycles — the loop terminates.
        }

        n as f64 / cycle as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fosm_isa::{Op, Reg};

    /// n independent single-source-free ALU ops.
    fn independent(n: usize) -> Vec<Inst> {
        (0..n)
            .map(|i| {
                Inst::alu(
                    i as u64 * 4,
                    Op::IntAlu,
                    Reg::new((i % 48) as u8),
                    None,
                    None,
                )
            })
            .collect()
    }

    /// A pure chain: each instruction depends on the previous.
    fn chain(n: usize) -> Vec<Inst> {
        (0..n)
            .map(|i| {
                Inst::alu(
                    i as u64 * 4,
                    Op::IntAlu,
                    Reg::new(1),
                    if i == 0 { None } else { Some(Reg::new(1)) },
                    None,
                )
            })
            .collect()
    }

    #[test]
    fn independent_instructions_issue_window_per_cycle() {
        let insts = independent(1000);
        for w in [2u32, 8, 32] {
            let ipc = ipc_at_window(&insts, w, &LatencyTable::unit());
            assert!(
                (ipc - w as f64).abs() / (w as f64) < 0.05,
                "window {w}: ipc {ipc}"
            );
        }
    }

    #[test]
    fn chain_issues_one_per_cycle_regardless_of_window() {
        let insts = chain(500);
        for w in [2u32, 16, 128] {
            let ipc = ipc_at_window(&insts, w, &LatencyTable::unit());
            assert!((ipc - 1.0).abs() < 0.02, "window {w}: ipc {ipc}");
        }
    }

    #[test]
    fn chain_with_latency_l_issues_one_per_l_cycles() {
        // Little's Law sanity: IntMul latency 3 halves^3 the chain rate.
        let insts: Vec<Inst> = (0..300)
            .map(|i| {
                Inst::alu(
                    i as u64 * 4,
                    Op::IntMul,
                    Reg::new(1),
                    if i == 0 { None } else { Some(Reg::new(1)) },
                    None,
                )
            })
            .collect();
        let ipc = ipc_at_window(&insts, 32, &LatencyTable::default());
        assert!((ipc - 1.0 / 3.0).abs() < 0.02, "ipc {ipc}");
    }

    #[test]
    fn ipc_is_monotone_in_window_size() {
        // Mixed workload: pairs of chains interleaved.
        let mut insts = Vec::new();
        for i in 0..2000u64 {
            let reg = Reg::new((i % 8) as u8);
            insts.push(Inst::alu(i * 4, Op::IntAlu, reg, Some(reg), None));
        }
        let pts = characteristic(&insts, &DEFAULT_WINDOW_SIZES, &LatencyTable::unit());
        for pair in pts.windows(2) {
            assert!(
                pair[1].ipc >= pair[0].ipc - 1e-9,
                "IPC must not decrease with window size: {pair:?}"
            );
        }
        // 8 independent chains: asymptotic IPC is 8.
        assert!(pts.last().unwrap().ipc <= 8.0 + 1e-9);
        assert!((pts.last().unwrap().ipc - 8.0).abs() < 0.1);
    }

    #[test]
    fn window_one_serializes_everything() {
        let insts = independent(100);
        let ipc = ipc_at_window(&insts, 1, &LatencyTable::unit());
        assert!((ipc - 1.0).abs() < 0.02);
    }

    #[test]
    fn empty_trace_gives_zero() {
        assert_eq!(ipc_at_window(&[], 8, &LatencyTable::unit()), 0.0);
        assert!(characteristic(&[], &[2, 4], &LatencyTable::unit())
            .iter()
            .all(|p| p.ipc == 0.0));
    }

    #[test]
    #[should_panic(expected = "window size")]
    fn zero_window_rejected() {
        let _ = ipc_at_window(&independent(10), 0, &LatencyTable::unit());
    }

    #[test]
    #[should_panic(expected = "window size")]
    fn zero_window_rejected_in_characteristic() {
        let _ = characteristic(&independent(10), &[4, 0], &LatencyTable::unit());
    }

    #[test]
    fn characteristic_reports_requested_sizes() {
        let insts = independent(200);
        let pts = characteristic(&insts, &[4, 16], &LatencyTable::unit());
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].window, 4);
        assert_eq!(pts[1].window, 16);
    }

    #[test]
    fn producers_resolve_through_register_reuse() {
        // r1 written twice; the consumer must see the *latest* writer.
        let insts = vec![
            Inst::alu(0, Op::IntAlu, Reg::new(1), None, None),
            Inst::alu(4, Op::IntAlu, Reg::new(1), None, None),
            Inst::alu(8, Op::IntAlu, Reg::new(2), Some(Reg::new(1)), None),
        ];
        let prods = resolve_producers(&insts);
        assert_eq!(prods[2][0], 1);
        assert_eq!(prods[0][0], usize::MAX);
    }

    /// The case where the naive `issue[i-W] + 1` window bound is wrong:
    /// issue times need not be monotone in program order, so the window
    /// constraint is the W-th *largest* prior issue cycle, not the
    /// issue cycle W instructions back.
    #[test]
    fn window_bound_uses_wth_largest_not_positional() {
        // i0: IntMul (latency 3); i1 depends on i0 → issues late (cycle 4);
        // i2, i3 independent. With W=2, i3's window constraint comes from
        // the 2nd-largest prior issue cycle (i2's, cycle 2), not i1's.
        let insts = vec![
            Inst::alu(0, Op::IntMul, Reg::new(1), None, None),
            Inst::alu(4, Op::IntAlu, Reg::new(2), Some(Reg::new(1)), None),
            Inst::alu(8, Op::IntAlu, Reg::new(3), None, None),
            Inst::alu(12, Op::IntAlu, Reg::new(4), None, None),
        ];
        let lat = LatencyTable::default();
        let fast = ipc_at_window(&insts, 2, &lat);
        let slow = reference::ipc_at_window(&insts, 2, &lat);
        assert_eq!(fast, slow);
        // issue = [1, 4, 2, 3] → 4 cycles → IPC 1.0 exactly.
        assert_eq!(fast, 1.0);
    }

    #[test]
    fn kernel_matches_reference_on_structured_traces() {
        let lat_unit = LatencyTable::unit();
        let lat_real = LatencyTable::default();
        let traces = [independent(257), chain(100), {
            let mut v = independent(64);
            v.extend(chain(64));
            v
        }];
        for insts in &traces {
            for w in [1u32, 2, 3, 7, 64, 300] {
                for lat in [&lat_unit, &lat_real] {
                    let fast = ipc_at_window(insts, w, lat);
                    let slow = reference::ipc_at_window(insts, w, lat);
                    assert_eq!(fast, slow, "window {w} diverged");
                }
            }
        }
    }
}
