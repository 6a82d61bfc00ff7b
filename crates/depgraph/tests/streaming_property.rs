//! Property test: the IW kernel ([`fosm_depgraph::IwSweep`], and the
//! `iw::characteristic` slice wrapper around it) is *exactly*
//! equivalent to the cycle-stepped oracle (`iw::reference`) on
//! randomized traces — same `(W, IPC)` points bit for bit, across
//! window sizes and both the unit and realistic latency tables.

use fosm_depgraph::{iw, IwSweep};
use fosm_isa::{Inst, LatencyTable, Op, Reg};
use proptest::prelude::*;

/// Compact generator description of one random instruction: an op
/// class spanning every latency bucket, a destination register, and
/// zero to two source registers drawn from a small pool so traces have
/// dense dependence chains, register reuse, and WAW rewrites.
fn inst_strategy() -> impl Strategy<Value = (usize, u8, Option<u8>, Option<u8>)> {
    (
        0usize..iw_ops().len(),
        0u8..12,
        prop::option::of(0u8..12),
        prop::option::of(0u8..12),
    )
}

fn iw_ops() -> &'static [Op] {
    &[
        Op::IntAlu,
        Op::IntMul,
        Op::IntDiv,
        Op::FpAdd,
        Op::FpMul,
        Op::FpDiv,
        Op::Load,
        Op::Nop,
    ]
}

fn build_trace(raw: &[(usize, u8, Option<u8>, Option<u8>)]) -> Vec<Inst> {
    raw.iter()
        .enumerate()
        .map(|(i, &(op_idx, dest, src1, src2))| {
            let pc = i as u64 * 4;
            let op = iw_ops()[op_idx];
            if op == Op::Load {
                Inst::load(pc, Reg::new(dest), src1.map(Reg::new), 0x1000 + pc)
            } else {
                Inst::alu(
                    pc,
                    op,
                    Reg::new(dest),
                    src1.map(Reg::new),
                    src2.map(Reg::new),
                )
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_sweep_matches_the_reference(
        raw in prop::collection::vec(inst_strategy(), 1..200),
        window in 1u32..40,
    ) {
        let insts = build_trace(&raw);
        // One arbitrary window plus the paper's defaults, so small and
        // irregular window sizes get coverage alongside the powers of
        // two the profiler actually sweeps.
        let mut windows = vec![window];
        windows.extend_from_slice(&iw::DEFAULT_WINDOW_SIZES);
        for latencies in [LatencyTable::unit(), LatencyTable::default()] {
            let mut sweep = IwSweep::new(&windows, latencies.clone());
            for inst in &insts {
                sweep.push(inst);
            }
            let analysis = sweep.finish();
            prop_assert_eq!(analysis.instructions(), insts.len() as u64);
            prop_assert_eq!(
                &iw::characteristic(&insts, &windows, &latencies)[..],
                analysis.points()
            );
            prop_assert_eq!(analysis.points().len(), windows.len());
            for (streamed, &window) in analysis.points().iter().zip(&windows) {
                let oracle = iw::reference::ipc_at_window(&insts, window, &latencies);
                prop_assert_eq!(streamed.window, window);
                prop_assert_eq!(
                    streamed.ipc.to_bits(),
                    oracle.to_bits(),
                    "window {} over {} insts: streamed {} != reference {}",
                    window,
                    insts.len(),
                    streamed.ipc,
                    oracle
                );
            }
        }
    }

    #[test]
    fn shared_analysis_finalizes_like_from_trace(
        raw in prop::collection::vec(inst_strategy(), 1..150),
        extra_tenths in 0u32..80,
    ) {
        let insts = build_trace(&raw);
        let extra = extra_tenths as f64 / 10.0;
        let latencies = LatencyTable::default();
        let mut sweep = IwSweep::paper_default();
        for inst in &insts {
            sweep.push(inst);
        }
        let shared = sweep.finish().characteristic(&latencies, extra);
        let direct = fosm_depgraph::IwCharacteristic::from_trace(&insts, &latencies, extra);
        match (shared, direct) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "fit disagreement: shared {:?} vs direct {:?}", a, b),
        }
    }
}
