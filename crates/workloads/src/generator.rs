//! The dynamic trace generator walking a [`SyntheticProgram`].

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use fosm_isa::{Inst, Op, Reg};
use fosm_trace::TraceSource;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::program::{geometric, Terminator};
use crate::{BenchmarkSpec, MemClass, SyntheticProgram};

/// Base of the heap/data segment addresses.
const DATA_BASE: u64 = 0x1000_0000;
/// Base of the per-function stack regions.
const STACK_BASE: u64 = 0x7fff_0000_0000;
/// Destination registers rotate through this range (the rest are
/// implicitly "special": zero/stack/assembler temporaries).
const DEST_LO: u8 = 8;
const DEST_HI: u8 = 55;

/// A call-stack frame: where to resume in the caller.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: usize,
    block: usize,
}

/// Deterministic dynamic instruction stream for one benchmark.
///
/// `WorkloadGenerator` executes a [`SyntheticProgram`]: it walks blocks,
/// iterates loops, follows calls (bounded depth), and cycles through the
/// program's top-level functions forever — the stream is unbounded.
/// Bound it with [`TraceSource::take`].
///
/// Register operands are drawn to match the spec's dependence-distance
/// structure; memory addresses follow each static instruction's access
/// class; branch outcomes follow each static branch's taken
/// probability. Everything is deterministic in `(spec, seed)`.
///
/// # Examples
///
/// ```
/// use fosm_trace::TraceSource;
/// use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};
///
/// let spec = BenchmarkSpec::vpr();
/// let a: Vec<_> = WorkloadGenerator::new(&spec, 1).take(100).iter().collect();
/// let b: Vec<_> = WorkloadGenerator::new(&spec, 1).take(100).iter().collect();
/// assert_eq!(a, b); // same spec + seed -> identical stream
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    program: Arc<SyntheticProgram>,
    spec: BenchmarkSpec,
    rng: SmallRng,

    // control state
    cur_func: usize,
    cur_block: usize,
    stack: Vec<Frame>,
    loop_remaining: Option<u32>,
    top_cursor: usize,

    // dataflow state
    recent_producers: VecDeque<Reg>,
    next_dest: u8,

    // memory state
    stream_pos: Vec<u64>,

    // per-static-branch pattern phase (keyed by terminator PC)
    skip_phase: HashMap<u64, u32>,

    // output buffer (one block's worth at a time)
    pending: VecDeque<Inst>,
}

impl WorkloadGenerator {
    /// Builds the program for `spec` and prepares a walker seeded with
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`BenchmarkSpec::validate`]; use
    /// [`WorkloadGenerator::try_new`] to handle invalid specs.
    pub fn new(spec: &BenchmarkSpec, seed: u64) -> Self {
        Self::try_new(spec, seed).expect("invalid benchmark spec")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns the validation message if `spec` is inconsistent.
    pub fn try_new(spec: &BenchmarkSpec, seed: u64) -> Result<Self, String> {
        let program = SyntheticProgram::build(spec)?;
        Ok(Self::from_program(Arc::new(program), seed))
    }

    /// A walker seeded with `seed` over a built `program`: the stream
    /// `WorkloadGenerator::new(program.spec(), seed)` yields, without
    /// building the program again, for callers that generate the same
    /// benchmark many times.
    pub fn from_program(program: Arc<SyntheticProgram>, seed: u64) -> Self {
        let spec = program.spec();
        WorkloadGenerator {
            spec: spec.clone(),
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_0f05),
            cur_func: 0,
            cur_block: 0,
            stack: Vec::new(),
            loop_remaining: None,
            top_cursor: 0,
            recent_producers: VecDeque::with_capacity(spec.dep_window as usize),
            next_dest: DEST_LO,
            stream_pos: vec![0; spec.num_streams as usize],
            skip_phase: HashMap::new(),
            pending: VecDeque::new(),
            program,
        }
    }

    /// The static program this generator is executing.
    pub fn program(&self) -> &SyntheticProgram {
        &self.program
    }

    /// The benchmark spec this generator was built from.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    fn alloc_dest(&mut self) -> Reg {
        let r = Reg::new(self.next_dest);
        self.next_dest = if self.next_dest >= DEST_HI {
            DEST_LO
        } else {
            self.next_dest + 1
        };
        r
    }

    fn note_producer(&mut self, r: Reg) {
        if self.recent_producers.len() == self.spec.dep_window as usize {
            self.recent_producers.pop_back();
        }
        self.recent_producers.push_front(r);
    }

    fn pick_source(&mut self) -> Option<Reg> {
        if self.recent_producers.is_empty() {
            return None;
        }
        // Long-lived values (constants, loop invariants, stack/global
        // pointers) create no dependence on recent producers.
        if self.rng.gen::<f64>() < self.spec.no_dep_p {
            return None;
        }
        let idx = if self.rng.gen::<f64>() < self.spec.dep_chain_p {
            0 // the most recent producer: a tight chain
        } else {
            self.rng.gen_range(0..self.recent_producers.len())
        };
        self.recent_producers.get(idx).copied()
    }

    fn mem_addr(&mut self, class: MemClass, stream: u32) -> u64 {
        match class {
            MemClass::Stack => {
                let base = STACK_BASE + self.cur_func as u64 * self.spec.stack_bytes;
                base + (self.rng.gen_range(0..self.spec.stack_bytes) & !7)
            }
            MemClass::Stream => {
                let share = (self.spec.data_footprint / self.spec.num_streams as u64).max(64);
                let s = stream as usize;
                let addr = DATA_BASE + stream as u64 * share + self.stream_pos[s];
                self.stream_pos[s] = (self.stream_pos[s] + self.spec.stream_stride as u64) % share;
                addr
            }
            MemClass::Random => DATA_BASE + (self.rng.gen_range(0..self.spec.data_footprint) & !7),
        }
    }

    /// Executes the current block, appending its dynamic instructions to
    /// `pending` and advancing control state.
    fn run_block(&mut self) {
        let (body_len, term, block_pc, term_pc) = {
            let block = &self.program.functions[self.cur_func].blocks[self.cur_block];
            (block.body.len(), block.term, block.pc, block.term_pc())
        };

        // Body instructions. `StaticInst` is `Copy`: index the body
        // rather than clone it per dynamic block.
        for i in 0..body_len {
            let sinst = self.program.functions[self.cur_func].blocks[self.cur_block].body[i];
            let pc = block_pc + i as u64 * 4;
            let inst = match sinst.op {
                Op::Load => {
                    let (class, stream) = sinst.mem.expect("loads carry a mem class");
                    let addr = self.mem_addr(class, stream);
                    let base = self.pick_source();
                    let dest = self.alloc_dest();
                    let inst = Inst::load(pc, dest, base, addr);
                    self.note_producer(dest);
                    inst
                }
                Op::Store => {
                    let (class, stream) = sinst.mem.expect("stores carry a mem class");
                    let addr = self.mem_addr(class, stream);
                    let value = self.pick_source().unwrap_or(Reg::new(DEST_LO));
                    let base = self.pick_source();
                    Inst::store(pc, value, base, addr)
                }
                op => {
                    let src1 = self.pick_source();
                    let src2 = if self.rng.gen::<f64>() < self.spec.two_source_p {
                        self.pick_source()
                    } else {
                        None
                    };
                    let dest = self.alloc_dest();
                    let inst = Inst::alu(pc, op, dest, src1, src2);
                    self.note_producer(dest);
                    inst
                }
            };
            self.pending.push_back(inst);
        }

        // Terminator + control transfer.
        match term {
            Terminator::FallThrough => {
                self.cur_block += 1;
            }
            Terminator::Loop { trips } => {
                let remaining = match self.loop_remaining {
                    Some(r) => r,
                    None => {
                        // Fresh entry: maybe jitter the trip count.
                        if self.rng.gen::<f64>() < self.spec.trip_jitter_p {
                            geometric(&mut self.rng, self.spec.loop_trip_mean as f64)
                                .clamp(2, 4 * self.spec.loop_trip_mean as u64)
                                as u32
                        } else {
                            trips
                        }
                    }
                };
                let cond = self.pick_source();
                if remaining > 1 {
                    self.loop_remaining = Some(remaining - 1);
                    self.pending.push_back(Inst::branch(
                        term_pc,
                        Op::CondBranch,
                        cond,
                        true,
                        block_pc,
                    ));
                    // stay on this block
                } else {
                    self.loop_remaining = None;
                    self.pending.push_back(Inst::branch(
                        term_pc,
                        Op::CondBranch,
                        cond,
                        false,
                        term_pc + 4,
                    ));
                    self.cur_block += 1;
                }
            }
            Terminator::Skip {
                p_taken, period, ..
            } => {
                let taken = if period > 0 {
                    let phase = self.skip_phase.entry(term_pc).or_insert(0);
                    let t = *phase == period - 1;
                    *phase = (*phase + 1) % period;
                    t
                } else {
                    self.rng.gen::<f64>() < p_taken
                };
                let cond = self.pick_source();
                let nblocks = self.program.functions[self.cur_func].blocks.len();
                let next = if taken {
                    (self.cur_block + 2).min(nblocks - 1)
                } else {
                    self.cur_block + 1
                };
                let target = if taken {
                    self.program.functions[self.cur_func].blocks[next].pc
                } else {
                    term_pc + 4
                };
                self.pending
                    .push_back(Inst::branch(term_pc, Op::CondBranch, cond, taken, target));
                self.cur_block = next;
            }
            Terminator::Call { callee } => {
                let callee = callee as usize;
                if self.stack.len() < self.spec.max_call_depth as usize {
                    let target = self.program.functions[callee].entry_pc();
                    self.pending
                        .push_back(Inst::branch(term_pc, Op::Call, None, true, target));
                    self.stack.push(Frame {
                        func: self.cur_func,
                        block: self.cur_block + 1,
                    });
                    self.cur_func = callee;
                    self.cur_block = 0;
                } else {
                    // Depth limit: elide the call, continue straight.
                    self.cur_block += 1;
                }
            }
            Terminator::Return => {
                let (target, func, block) = match self.stack.pop() {
                    Some(frame) => {
                        let f = &self.program.functions[frame.func];
                        (f.blocks[frame.block].pc, frame.func, frame.block)
                    }
                    None => {
                        // Top level: cycle to the next function.
                        self.top_cursor = (self.top_cursor + 1) % self.program.functions.len();
                        let f = &self.program.functions[self.top_cursor];
                        (f.entry_pc(), self.top_cursor, 0)
                    }
                };
                let cond = self.pick_source();
                self.pending
                    .push_back(Inst::branch(term_pc, Op::Return, cond, true, target));
                self.cur_func = func;
                self.cur_block = block;
            }
        }
    }
}

impl TraceSource for WorkloadGenerator {
    fn next_inst(&mut self) -> Option<Inst> {
        while self.pending.is_empty() {
            self.run_block();
        }
        self.pending.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::CODE_BASE;
    use fosm_trace::TraceStats;

    fn sample(spec: &BenchmarkSpec, n: usize) -> Vec<Inst> {
        let mut g = WorkloadGenerator::new(spec, 99);
        g.take(n as u64).iter().collect()
    }

    #[test]
    fn stream_is_unbounded_and_well_formed() {
        let insts = sample(&BenchmarkSpec::gzip(), 50_000);
        assert_eq!(insts.len(), 50_000);
        for i in &insts {
            assert!(i.is_well_formed(), "{i}");
        }
    }

    #[test]
    fn determinism_per_seed_and_divergence_across_seeds() {
        let spec = BenchmarkSpec::mcf();
        let a: Vec<_> = WorkloadGenerator::new(&spec, 5).take(2000).iter().collect();
        let b: Vec<_> = WorkloadGenerator::new(&spec, 5).take(2000).iter().collect();
        let c: Vec<_> = WorkloadGenerator::new(&spec, 6).take(2000).iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn a_shared_program_yields_the_stream_of_new() {
        let spec = BenchmarkSpec::mcf();
        let program = Arc::new(SyntheticProgram::build(&spec).unwrap());
        for seed in [5, 6] {
            let mut shared = WorkloadGenerator::from_program(Arc::clone(&program), seed);
            let a: Vec<_> = shared.take(2000).iter().collect();
            let b: Vec<_> = WorkloadGenerator::new(&spec, seed)
                .take(2000)
                .iter()
                .collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn pcs_stay_within_the_static_code_segment() {
        let spec = BenchmarkSpec::vortex();
        let g = WorkloadGenerator::new(&spec, 3);
        let hi = CODE_BASE + g.program().code_bytes();
        let insts = sample(&spec, 20_000);
        for i in &insts {
            assert!(
                i.pc >= CODE_BASE && i.pc < hi,
                "pc {:#x} out of code segment",
                i.pc
            );
        }
    }

    #[test]
    fn branch_targets_match_the_next_pc() {
        // The defining property of a consistent trace: after a branch,
        // execution continues at its recorded target; after any other
        // instruction, at pc+4 *unless* the block falls through (gaps
        // are only allowed to be forward and small).
        let insts = sample(&BenchmarkSpec::gzip(), 10_000);
        for w in insts.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if let Some(info) = a.branch {
                assert_eq!(
                    b.pc, info.target,
                    "branch at {:#x} lied about its target",
                    a.pc
                );
            }
        }
    }

    #[test]
    fn mix_approximates_spec() {
        let spec = BenchmarkSpec::gzip();
        let mut g = WorkloadGenerator::new(&spec, 11);
        let stats = TraceStats::from_source(&mut g.take(200_000), usize::MAX);
        let loads = stats.load_fraction();
        // Terminator branches dilute the body mix (MixSpec documents
        // the fractions as approximate targets), so allow a wide band.
        assert!(
            loads > 0.5 * spec.mix.load && loads < 1.2 * spec.mix.load,
            "load fraction {loads} vs target {}",
            spec.mix.load
        );
        // Roughly one conditional branch per 4-8 instructions ("one of
        // five instructions is a branch", paper §6.1).
        let bf = stats.branch_fraction();
        assert!((0.05..0.35).contains(&bf), "branch fraction {bf}");
    }

    #[test]
    fn dependences_are_tighter_for_vpr_than_vortex() {
        let mut vpr = WorkloadGenerator::new(&BenchmarkSpec::vpr(), 1);
        let mut vortex = WorkloadGenerator::new(&BenchmarkSpec::vortex(), 1);
        let s_vpr = TraceStats::from_source(&mut vpr.take(100_000), usize::MAX);
        let s_vortex = TraceStats::from_source(&mut vortex.take(100_000), usize::MAX);
        assert!(
            s_vpr.dependences().mean() < s_vortex.dependences().mean(),
            "vpr mean dist {} should be below vortex {}",
            s_vpr.dependences().mean(),
            s_vortex.dependences().mean()
        );
    }

    #[test]
    fn loops_actually_iterate() {
        // Consecutive dynamic instructions at the same PC within a short
        // window imply loop iteration.
        let insts = sample(&BenchmarkSpec::gap(), 20_000);
        let mut taken_backward = 0;
        for i in &insts {
            if let Some(b) = i.branch {
                if b.taken && b.target < i.pc {
                    taken_backward += 1;
                }
            }
        }
        assert!(
            taken_backward > 100,
            "expected loop back-edges, got {taken_backward}"
        );
    }

    #[test]
    fn memory_addresses_respect_segments() {
        let spec = BenchmarkSpec::twolf();
        let insts = sample(&spec, 30_000);
        for i in &insts {
            if let Some(addr) = i.mem_addr {
                let in_data = (DATA_BASE..DATA_BASE + spec.data_footprint + spec.data_footprint)
                    .contains(&addr);
                let in_stack = addr >= STACK_BASE;
                assert!(
                    in_data || in_stack,
                    "address {addr:#x} outside data segments"
                );
            }
        }
    }

    #[test]
    fn try_new_rejects_invalid_spec() {
        let mut spec = BenchmarkSpec::gzip();
        spec.f_mem_stream = 0.9;
        spec.f_mem_random = 0.9;
        assert!(WorkloadGenerator::try_new(&spec, 0).is_err());
    }

    #[test]
    fn call_depth_is_bounded() {
        // Track nesting via Call/Return balance; it must never exceed
        // max_call_depth.
        let spec = BenchmarkSpec::gcc();
        let insts = sample(&spec, 100_000);
        let mut depth: i64 = 0;
        let mut max_depth: i64 = 0;
        for i in &insts {
            match i.op {
                Op::Call => {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                Op::Return => depth -= 1,
                _ => {}
            }
        }
        assert!(
            max_depth <= spec.max_call_depth as i64,
            "observed depth {max_depth} > limit {}",
            spec.max_call_depth
        );
    }
}
