//! Resident-memory gate for the detailed simulator: running the
//! baseline machine over a trace 10x longer than the default profiling
//! length (`fosm-bench`'s `DEFAULT_TRACE_LEN` = 300k) must not grow the
//! process high-water mark by more than a few MiB. The machine's state
//! is bounded by the instructions in flight (ROB, window, pipe), so
//! peak memory is flat in trace length; per-instruction bookkeeping of
//! even 9 bytes would add about 26 MiB here.
//!
//! Linux-only (reads `/proc/self/status`); kept as the only test in
//! this binary so no sibling test inflates the measured peak.

#![cfg(target_os = "linux")]

use fosm_isa::{Inst, Op, Reg};
use fosm_sim::{Machine, MachineConfig};
use fosm_trace::TraceSource;

/// 10x the bench harness's `DEFAULT_TRACE_LEN`.
const TRACE_LEN: u64 = 3_000_000;

/// Allowed VmHWM growth across the run: allocator slack only.
const MAX_GROWTH_KIB: u64 = 4 * 1024;

/// Peak resident set size, in KiB, from `/proc/self/status`.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    line.split_whitespace()
        .nth(1)
        .expect("VmHWM value")
        .parse()
        .expect("VmHWM parses")
}

/// A deterministic synthetic stream cycling through every instruction
/// shape, with no backing storage.
struct Synthetic {
    i: u64,
}

impl TraceSource for Synthetic {
    fn next_inst(&mut self) -> Option<Inst> {
        let i = self.i;
        self.i += 1;
        let pc = (i * 4) & 0xFFFF;
        let r = |n: u64| Reg::new((n % 48) as u8);
        Some(match i % 5 {
            0 => Inst::alu(pc, Op::IntAlu, r(i), Some(r(i + 1)), Some(r(i + 2))),
            1 => Inst::load(pc, r(i), Some(r(i + 3)), (i * 72) & 0xF_FFFF),
            2 => Inst::store(pc, r(i), None, (i * 8) & 0xFFFF),
            3 => Inst::branch(pc, Op::CondBranch, Some(r(i)), i.is_multiple_of(3), pc + 64),
            _ => Inst::alu(pc, Op::IntMul, r(i), Some(r(i + 1)), None),
        })
    }
}

#[test]
fn simulating_a_10x_trace_keeps_memory_flat() {
    let mut machine = Machine::new(MachineConfig::baseline());
    let before = vm_hwm_kib();

    let mut source = Synthetic { i: 0 };
    let report = machine.run(&mut source.take(TRACE_LEN));
    assert_eq!(report.instructions, TRACE_LEN);
    assert!(report.dcache_long_misses > 0, "{report:?}");

    let after = vm_hwm_kib();
    let growth = after.saturating_sub(before);
    assert!(
        growth <= MAX_GROWTH_KIB,
        "simulating {TRACE_LEN} instructions grew VmHWM by {growth} KiB \
         (bound {MAX_GROWTH_KIB} KiB): simulator state grows with trace length"
    );
}
