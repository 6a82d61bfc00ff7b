//! The IW kernel: a push-based single sweep of the idealized issue
//! machine of paper §3.
//!
//! The machine issues, every cycle, *all* instructions among the `W`
//! oldest unissued ones whose producers have completed. Rather than
//! stepping it cycle by cycle (see [`iw::reference`]), the kernel
//! computes each instruction's issue cycle directly from a dataflow
//! recurrence:
//!
//! ```text
//! issue[i] = max(1,  max over producers p of (issue[p] + lat(p)),  S_W(i) + 1)
//! ```
//!
//! where `S_W(i)` is the `W`-th largest issue cycle among instructions
//! `j < i`. The first two terms are plain data dependence. The third
//! is the window constraint: instruction `i` is only scanned once
//! fewer than `W` older instructions remain unissued, and the number
//! of older instructions with `issue[j] >= c` drops below `W` exactly
//! at cycle `S_W(i) + 1`. (Older instructions issuing *in* cycle `c`
//! still occupy window slots during cycle `c`, which is why the bound
//! is `>=`, matching the cycle-stepped machine's scan order.) Total
//! cycles equal the maximum issue cycle.
//!
//! Because every new issue cycle satisfies `t >= S_W + 1`, `S_W` is
//! non-decreasing over the sweep, so it is maintained with a histogram
//! of issue cycles and a monotonically rising pointer — amortized
//! `O(1)` per instruction and window size. The state never depends on
//! trace length, so the fused profiler can stream one instruction at a
//! time past it without buffering the trace:
//!
//! * producers collapse to a *last-writer finish time* per register —
//!   the recurrence only ever reads the finish time of each source
//!   register's most recent writer;
//! * the issue-cycle histogram behind `S_W` only ever holds cycles in
//!   `(s, max_issue]` (everything at or below the rising pointer `s`
//!   has been consumed), so it lives in a power-of-two *ring* whose
//!   slots are zeroed as `s` passes them.
//!
//! That is `O(window sizes × (registers + live cycle span))` state,
//! plus one fixed chunk of resolved instructions that the window states
//! run over in turn (see [`IwSweep::push`]). The slice entry points [`iw::characteristic`] and
//! [`iw::ipc_at_window`] push through the same kernel;
//! `tests/streaming_property.rs` pins it bit-identical to the
//! cycle-stepped oracle.

use fosm_isa::{Inst, LatencyTable, Op, NUM_OP_CLASSES, NUM_REGS};

use crate::iw::{self, IwPoint};
use crate::{powerlaw, FitError, IwCharacteristic};

/// Read sentinel: a permanently-zero `reg_finish` slot standing in for
/// "no in-trace producer".
const NO_PRODUCER: usize = NUM_REGS;
/// Write sink: the `reg_finish` slot destination-less instructions
/// write to, so the hot loop needs no branch on `inst.dest`. Distinct
/// from [`NO_PRODUCER`], which must stay zero.
const NO_DEST: usize = NUM_REGS + 1;

/// One instruction resolved for the window states: its two source
/// slots, its destination slot (all `< NUM_REGS + 2`, so they fit a
/// byte) and its result latency.
type Resolved = (u8, u8, u8, u32);

/// Instructions resolved and buffered before every window state runs
/// over them.
const CHUNK: usize = 256;

/// Per-window-size streaming state of the issue recurrence: `s` and
/// `cnt_gt` maintain `S_W`, `reg_finish` holds each register's
/// last-writer finish time, and `hist` is the issue-cycle histogram
/// folded into a ring.
#[derive(Debug, Clone)]
struct WindowState {
    /// Window size `W` of this sweep.
    w: u64,
    /// Finish cycle of each register's most recent writer, plus the
    /// [`NO_PRODUCER`] and [`NO_DEST`] sentinel slots.
    reg_finish: [u64; NUM_REGS + 2],
    /// Ring histogram of issue cycles in `(s, max_issue]`; length is a
    /// power of two, indexed by `cycle & (len - 1)`.
    hist: Vec<u32>,
    /// `S_W` of the processed prefix (0 until `W` instructions seen).
    s: u64,
    /// Number of processed instructions with `issue > s`.
    cnt_gt: u64,
    /// Largest issue cycle so far — the running total cycle count.
    max_issue: u64,
}

impl WindowState {
    fn new(window: u32) -> Self {
        assert!(window > 0, "window size must be at least 1");
        WindowState {
            w: window as u64,
            reg_finish: [0; NUM_REGS + 2],
            hist: vec![0; 1024],
            s: 0,
            cnt_gt: 0,
            max_issue: 0,
        }
    }

    /// Advances the recurrence over a run of instructions whose sources
    /// and destination were resolved to `reg_finish` slots by the
    /// caller (shared across all window states).
    ///
    /// `s` is the smallest cycle with fewer than `W` prior issues above
    /// it (`S_W` once `W` instructions have been seen, 0 before — which
    /// also folds the `max(1, ..)` base of the recurrence into
    /// `s + 1`). Every new issue cycle is at least `s + 1`, so `s`
    /// never moves backwards and the advance loop costs `O(total
    /// cycles)` across the whole sweep.
    fn run(&mut self, ops: &[Resolved]) {
        let w = self.w;
        // The loop-carried scalars live in locals for the whole run.
        let (mut s, mut cnt_gt, mut max_issue) = (self.s, self.cnt_gt, self.max_issue);
        for &(r0, r1, dest, lat) in ops {
            let t = (s + 1)
                .max(self.reg_finish[r0 as usize])
                .max(self.reg_finish[r1 as usize]);
            if t - s >= self.hist.len() as u64 {
                self.s = s;
                self.max_issue = max_issue;
                self.grow(t);
            }
            let mask = self.hist.len() as u64 - 1;
            self.hist[(t & mask) as usize] += 1;
            cnt_gt += 1; // t > s always, by construction
            while cnt_gt >= w {
                s += 1;
                let slot = (s & mask) as usize;
                cnt_gt -= self.hist[slot] as u64;
                // Cycle `s` leaves the live range for good; free its
                // slot so the ring can represent cycle `s + len` later.
                self.hist[slot] = 0;
            }
            max_issue = max_issue.max(t);
            self.reg_finish[dest as usize] = t + lat as u64;
        }
        self.s = s;
        self.cnt_gt = cnt_gt;
        self.max_issue = max_issue;
    }

    /// Grows the ring so cycle `t` maps to a fresh slot (called when
    /// `t - s` no longer fits). Live cycles span `(s, max_issue]`,
    /// which the push invariant keeps inside one ring length, so
    /// rehashing is a bounded copy.
    #[cold]
    fn grow(&mut self, t: u64) {
        let len = self.hist.len() as u64;
        let new_len = (t - self.s + 1).next_power_of_two().max(len * 2);
        let mut grown = vec![0u32; new_len as usize];
        let (old_mask, new_mask) = (len - 1, new_len - 1);
        for c in (self.s + 1)..=self.max_issue {
            grown[(c & new_mask) as usize] = self.hist[(c & old_mask) as usize];
        }
        self.hist = grown;
    }
}

/// An incremental IW sweep: push instructions one at a time, then
/// [`finish`](IwSweep::finish) into an [`IwAnalysis`].
///
/// One sweep serves any number of profile probes: the idealized issue
/// recurrence depends only on the instruction stream (the paper's §3
/// extractor has no caches or predictors), so a fused multi-probe
/// profiler runs exactly one of these.
///
/// # Examples
///
/// ```
/// use fosm_depgraph::{iw, IwSweep};
/// use fosm_isa::{Inst, LatencyTable, Op, Reg};
///
/// let insts: Vec<Inst> = (0..64u64)
///     .map(|i| Inst::alu(i * 4, Op::IntAlu, Reg::new((i % 8) as u8), None, None))
///     .collect();
/// let mut sweep = IwSweep::new(&iw::DEFAULT_WINDOW_SIZES, LatencyTable::unit());
/// for inst in &insts {
///     sweep.push(inst);
/// }
/// for point in sweep.finish().points() {
///     let oracle = iw::reference::ipc_at_window(&insts, point.window, &LatencyTable::unit());
///     assert_eq!(point.ipc, oracle);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct IwSweep {
    windows: Vec<u32>,
    latencies: LatencyTable,
    states: Vec<WindowState>,
    /// Resolved instructions not yet run through the window states.
    pending: Vec<Resolved>,
    instructions: u64,
    mix: [u64; NUM_OP_CLASSES],
    loads: u64,
}

impl IwSweep {
    /// A sweep over the given window sizes under `latencies`.
    ///
    /// # Panics
    ///
    /// Panics if any window size is zero.
    pub fn new(window_sizes: &[u32], latencies: LatencyTable) -> Self {
        IwSweep {
            windows: window_sizes.to_vec(),
            states: window_sizes.iter().map(|&w| WindowState::new(w)).collect(),
            pending: Vec::with_capacity(CHUNK),
            latencies,
            instructions: 0,
            mix: [0; NUM_OP_CLASSES],
            loads: 0,
        }
    }

    /// The paper's sweep: [`iw::DEFAULT_WINDOW_SIZES`] at unit latency.
    pub fn paper_default() -> Self {
        IwSweep::new(&iw::DEFAULT_WINDOW_SIZES, LatencyTable::unit())
    }

    /// Streams one instruction through every window-size state.
    ///
    /// Sources, destination, and latency are resolved once here and
    /// shared across all window states. Resolved instructions are
    /// buffered and every window state runs over each full chunk in
    /// turn: one state's register file and histogram stay hot in cache
    /// and its loop-carried scalars in registers, instead of all states
    /// being cycled through for every instruction. Each state still
    /// sees the instructions in program order, so the result is the
    /// same.
    pub fn push(&mut self, inst: &Inst) {
        let lat = self.latencies.latency(inst.op);
        let (mut r0, mut r1) = (NO_PRODUCER, NO_PRODUCER);
        for (slot, src) in inst.sources().enumerate() {
            if slot == 0 {
                r0 = src.index();
            } else {
                r1 = src.index();
            }
        }
        let dest = inst.dest.map_or(NO_DEST, |d| d.index());
        self.pending.push((r0 as u8, r1 as u8, dest as u8, lat));
        if self.pending.len() == CHUNK {
            self.run_pending();
        }
        self.instructions += 1;
        self.mix[inst.op.index()] += 1;
        if inst.op == Op::Load {
            self.loads += 1;
        }
    }

    fn run_pending(&mut self) {
        for state in &mut self.states {
            state.run(&self.pending);
        }
        self.pending.clear();
    }

    /// Instructions pushed so far.
    pub fn len(&self) -> u64 {
        self.instructions
    }

    /// Returns `true` if no instruction has been pushed.
    pub fn is_empty(&self) -> bool {
        self.instructions == 0
    }

    /// Closes the sweep: measured `(W, IPC)` points plus the op-class
    /// mix, ready to be finalized per probe.
    pub fn finish(mut self) -> IwAnalysis {
        self.run_pending();
        if self.instructions > 0 {
            let _sweep = fosm_obs::span("iw.characteristic");
            fosm_obs::counter_add("iw.sweep.instructions", self.instructions);
            fosm_obs::counter_add("iw.sweep.windows", self.windows.len() as u64);
        }
        let points = self
            .windows
            .iter()
            .zip(&self.states)
            .map(|(&window, state)| IwPoint {
                window,
                ipc: if self.instructions == 0 {
                    0.0
                } else {
                    self.instructions as f64 / state.max_issue as f64
                },
            })
            .collect();
        IwAnalysis {
            points,
            mix: self.mix,
            loads: self.loads,
            instructions: self.instructions,
        }
    }
}

/// The trace-dependent (probe-independent) half of an IW
/// characteristic: measured unit-latency points plus the op-class mix.
///
/// [`characteristic`](IwAnalysis::characteristic) finalizes it for one
/// probe by folding that probe's extra load latency into `L`; a fused
/// profiler calls it once per probe against a single shared analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct IwAnalysis {
    points: Vec<IwPoint>,
    mix: [u64; NUM_OP_CLASSES],
    loads: u64,
    instructions: u64,
}

impl IwAnalysis {
    /// The measured `(W, IPC)` points, in window-size order.
    pub fn points(&self) -> &[IwPoint] {
        &self.points
    }

    /// Dynamic instruction count per op class, in [`fosm_isa::Op::ALL`]
    /// order.
    pub fn mix(&self) -> &[u64; NUM_OP_CLASSES] {
        &self.mix
    }

    /// Dynamic loads analyzed.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Total instructions analyzed.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Fits and finalizes the characteristic for one probe:
    /// power-law fit of the shared points, mix-weighted average
    /// latency under `latencies`, plus `extra_load_latency` cycles per
    /// load (the paper's short-miss folding, §4.3).
    ///
    /// Bit-identical to [`IwCharacteristic::from_trace`] over the same
    /// instructions.
    ///
    /// # Errors
    ///
    /// Propagates fitting errors from [`powerlaw::fit`].
    pub fn characteristic(
        &self,
        latencies: &LatencyTable,
        extra_load_latency: f64,
    ) -> Result<IwCharacteristic, FitError> {
        let law = powerlaw::fit(&self.points)?;
        let total: u64 = self.mix.iter().sum();
        let mut avg = latencies.average_over(&self.mix);
        if total > 0 {
            avg += extra_load_latency * self.loads as f64 / total as f64;
        }
        IwCharacteristic::with_points(law, avg.max(1.0), self.points.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fosm_isa::Reg;

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

    fn sweep_points(insts: &[Inst], windows: &[u32], lat: &LatencyTable) -> Vec<IwPoint> {
        let mut sweep = IwSweep::new(windows, lat.clone());
        for inst in insts {
            sweep.push(inst);
        }
        sweep.finish().points().to_vec()
    }

    /// The cycle-stepped oracle's points for the same windows.
    fn oracle_points(insts: &[Inst], windows: &[u32], lat: &LatencyTable) -> Vec<IwPoint> {
        windows
            .iter()
            .map(|&window| IwPoint {
                window,
                ipc: iw::reference::ipc_at_window(insts, window, lat),
            })
            .collect()
    }

    #[test]
    fn matches_the_reference_on_structured_traces() {
        let mut mixed = chain(64);
        mixed.extend((0..64u64).map(|i| {
            Inst::alu(
                1000 + i * 4,
                Op::IntMul,
                Reg::new((i % 8) as u8),
                None,
                None,
            )
        }));
        for insts in [chain(100), mixed] {
            for lat in [LatencyTable::unit(), LatencyTable::default()] {
                let oracle = oracle_points(&insts, &iw::DEFAULT_WINDOW_SIZES, &lat);
                let streamed = sweep_points(&insts, &iw::DEFAULT_WINDOW_SIZES, &lat);
                assert_eq!(oracle, streamed);
            }
        }
    }

    #[test]
    fn empty_sweep_reports_zero_ipc() {
        let sweep = IwSweep::paper_default();
        assert!(sweep.is_empty());
        let analysis = sweep.finish();
        assert!(analysis.points().iter().all(|p| p.ipc == 0.0));
        assert_eq!(analysis.instructions(), 0);
    }

    #[test]
    #[should_panic(expected = "window size")]
    fn zero_window_rejected() {
        let _ = IwSweep::new(&[4, 0], LatencyTable::unit());
    }

    #[test]
    fn ring_histogram_survives_long_latency_gaps() {
        // An IntDiv chain stretches consecutive issue cycles by the
        // division latency, forcing ring growth past the initial
        // capacity; results must still match the oracle.
        let insts: Vec<Inst> = (0..3000)
            .map(|i| {
                Inst::alu(
                    i as u64 * 4,
                    Op::IntDiv,
                    Reg::new(1),
                    if i == 0 { None } else { Some(Reg::new(1)) },
                    None,
                )
            })
            .collect();
        let lat = LatencyTable::default();
        let oracle = oracle_points(&insts, &[2, 64], &lat);
        assert_eq!(sweep_points(&insts, &[2, 64], &lat), oracle);
    }

    #[test]
    fn analysis_finalizes_identically_to_from_trace() {
        let insts: Vec<Inst> = (0..500u64)
            .map(|i| Inst::load(i * 4, Reg::new((i % 8) as u8), None, i * 8))
            .collect();
        let mut sweep = IwSweep::paper_default();
        for inst in &insts {
            sweep.push(inst);
        }
        let analysis = sweep.finish();
        for extra in [0.0, 2.5] {
            let direct = IwCharacteristic::from_trace(&insts, &LatencyTable::default(), extra)
                .expect("fit succeeds");
            let shared = analysis
                .characteristic(&LatencyTable::default(), extra)
                .expect("fit succeeds");
            assert_eq!(direct, shared);
        }
    }
}
