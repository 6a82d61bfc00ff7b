//! Static synthetic programs: functions, blocks, loops, calls.
//!
//! A [`SyntheticProgram`] is the *code* of a synthetic benchmark: a set
//! of functions made of basic blocks with stable PCs. Operation classes
//! and control structure are fixed at build time (so instruction-cache
//! and branch-predictor behaviour see a realistic, recurring PC stream);
//! registers, addresses, and branch outcomes are drawn dynamically by
//! the [`WorkloadGenerator`](crate::WorkloadGenerator).

use fosm_isa::Op;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{BenchmarkSpec, MemClass};

/// Bytes per instruction in the synthetic ISA.
pub(crate) const INST_BYTES: u64 = 4;

/// One static (non-terminator) instruction slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaticInst {
    /// Operation class (never a branch; terminators own control flow).
    pub op: Op,
    /// For memory operations: the access-pattern class and, for
    /// streams, which stream this instruction advances.
    pub mem: Option<(MemClass, u32)>,
}

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Terminator {
    /// Fall through to the next block (no instruction emitted).
    FallThrough,
    /// Backward conditional branch re-executing this block; `trips` is
    /// the block's static trip count (jitter applied dynamically).
    Loop {
        /// Static trip count (≥ 2).
        trips: u32,
    },
    /// Forward conditional branch skipping the next block when taken.
    Skip {
        /// Probability the branch is taken (ignored when `period > 0`).
        p_taken: f64,
        /// Whether this is a "hard" (data-dependent) branch.
        hard: bool,
        /// When non-zero, the branch follows a deterministic periodic
        /// pattern (taken once every `period` executions) instead of an
        /// i.i.d. Bernoulli draw — the history-correlated behaviour
        /// that lets gshare-class predictors beat per-branch bias.
        period: u32,
    },
    /// Call to another function, then continue at the next block.
    Call {
        /// Index of the callee in [`SyntheticProgram::functions`].
        callee: u32,
    },
    /// Return to the caller (always the final block's terminator).
    Return,
}

/// A basic block: straight-line body plus terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// PC of the first body instruction.
    pub pc: u64,
    /// Straight-line body.
    pub body: Vec<StaticInst>,
    /// Control-flow terminator.
    pub term: Terminator,
}

impl Block {
    /// PC of the terminator instruction (directly after the body).
    pub fn term_pc(&self) -> u64 {
        self.pc + self.body.len() as u64 * INST_BYTES
    }

    /// Bytes of code this block occupies (body + terminator if any).
    pub fn code_bytes(&self) -> u64 {
        let term_bytes = match self.term {
            Terminator::FallThrough => 0,
            _ => INST_BYTES,
        };
        self.body.len() as u64 * INST_BYTES + term_bytes
    }
}

/// A function: a straight sequence of blocks ending in a `Return` block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Index of this function within the program.
    pub index: u32,
    /// The function's blocks, laid out consecutively.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Entry PC (PC of the first block).
    pub fn entry_pc(&self) -> u64 {
        self.blocks[0].pc
    }
}

/// A complete static program built from a [`BenchmarkSpec`].
///
/// Building is deterministic in `spec.program_seed`: the same spec
/// always yields the same code layout, so instruction-cache behaviour
/// is reproducible across dynamic seeds.
///
/// # Examples
///
/// ```
/// use fosm_workloads::{BenchmarkSpec, SyntheticProgram};
///
/// let prog = SyntheticProgram::build(&BenchmarkSpec::gzip()).unwrap();
/// assert!(prog.code_bytes() > 0);
/// assert_eq!(prog.functions.len(), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticProgram {
    /// All functions. Call targets may point anywhere but the caller
    /// itself; recursion through cycles is bounded at run time by the
    /// spec's `max_call_depth`.
    pub functions: Vec<Function>,
    code_bytes: u64,
    /// The spec this program was built from.
    spec: BenchmarkSpec,
}

/// Base address of the code segment.
pub(crate) const CODE_BASE: u64 = 0x0040_0000;

impl SyntheticProgram {
    /// Builds the static program described by `spec`.
    ///
    /// # Errors
    ///
    /// Returns the message from [`BenchmarkSpec::validate`] if the spec
    /// is inconsistent.
    pub fn build(spec: &BenchmarkSpec) -> Result<Self, String> {
        spec.validate()?;
        let mut rng = SmallRng::seed_from_u64(spec.program_seed);
        let mut functions = Vec::with_capacity(spec.num_functions as usize);
        let mut pc = CODE_BASE;

        for fidx in 0..spec.num_functions {
            let nblocks = spec.blocks_per_function.max(1);
            let mut blocks = Vec::with_capacity(nblocks as usize);
            for bidx in 0..nblocks {
                let body = Self::build_body(spec, &mut rng);
                let is_last = bidx == nblocks - 1;
                let term = if is_last {
                    Terminator::Return
                } else {
                    Self::draw_terminator(spec, &mut rng, fidx)
                };
                let block = Block { pc, body, term };
                pc += block.code_bytes();
                blocks.push(block);
            }
            functions.push(Function {
                index: fidx,
                blocks,
            });
        }

        Ok(SyntheticProgram {
            functions,
            code_bytes: pc - CODE_BASE,
            spec: spec.clone(),
        })
    }

    /// The spec this program was built from.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    fn build_body(spec: &BenchmarkSpec, rng: &mut SmallRng) -> Vec<StaticInst> {
        let mean = spec.insts_per_block_mean as f64;
        let len = geometric(rng, mean).clamp(1, (4.0 * mean) as u64) as usize;
        (0..len).map(|_| Self::draw_inst(spec, rng)).collect()
    }

    fn draw_inst(spec: &BenchmarkSpec, rng: &mut SmallRng) -> StaticInst {
        let m = &spec.mix;
        let r: f64 = rng.gen();
        // Walk the cumulative mix distribution; the remainder after all
        // listed classes is plain integer ALU work.
        let classes = [
            (m.load, Op::Load),
            (m.store, Op::Store),
            (m.int_mul, Op::IntMul),
            (m.int_div, Op::IntDiv),
            (m.fp_add, Op::FpAdd),
            (m.fp_mul, Op::FpMul),
            (m.fp_div, Op::FpDiv),
        ];
        let mut acc = 0.0;
        let mut op = Op::IntAlu;
        for (fraction, candidate) in classes {
            acc += fraction;
            if r < acc {
                op = candidate;
                break;
            }
        }
        let mem = if op.is_mem() {
            let r: f64 = rng.gen();
            let class = if r < spec.f_mem_stream {
                MemClass::Stream
            } else if r < spec.f_mem_stream + spec.f_mem_random {
                MemClass::Random
            } else {
                MemClass::Stack
            };
            let stream = rng.gen_range(0..spec.num_streams);
            Some((class, stream))
        } else {
            None
        };
        StaticInst { op, mem }
    }

    fn draw_terminator(spec: &BenchmarkSpec, rng: &mut SmallRng, fidx: u32) -> Terminator {
        let r: f64 = rng.gen();
        let can_call = spec.num_functions > 1;
        if r < spec.frac_loop_blocks {
            // Static trip count around the mean, at least 2.
            let trips =
                geometric(rng, spec.loop_trip_mean as f64).clamp(2, 4 * spec.loop_trip_mean as u64);
            Terminator::Loop {
                trips: trips as u32,
            }
        } else if r < spec.frac_loop_blocks + spec.frac_call_blocks && can_call {
            // Any function other than the caller may be a target;
            // recursion through cycles is bounded by max_call_depth.
            let mut callee = rng.gen_range(0..spec.num_functions - 1);
            if callee >= fidx {
                callee += 1;
            }
            Terminator::Call { callee }
        } else if r < spec.frac_loop_blocks + spec.frac_call_blocks + spec.frac_skip_blocks {
            let kind: f64 = rng.gen();
            if kind < spec.frac_hard_branches {
                // Data-dependent: taken-probability near the configured
                // bias, on a random side of 0.5.
                // Forward conditionals skew not-taken in real code, so
                // aliased predictor entries mostly agree in direction.
                let p_taken = if rng.gen::<f64>() < 0.7 {
                    1.0 - spec.hard_branch_bias
                } else {
                    spec.hard_branch_bias
                };
                Terminator::Skip {
                    p_taken,
                    hard: true,
                    period: 0,
                }
            } else if kind < spec.frac_hard_branches + spec.frac_pattern_branches {
                // History-correlated periodic branch (e.g. the inner
                // conditional of an unrolled or strided loop).
                let period = rng.gen_range(2..=6);
                Terminator::Skip {
                    p_taken: 0.5,
                    hard: false,
                    period,
                }
            } else {
                // Highly-biased, predictor-friendly branch; mostly
                // not-taken, as forward conditionals are in real code.
                let p = rng.gen_range(0.004..0.04);
                let p_taken = if rng.gen::<f64>() < 0.8 { p } else { 1.0 - p };
                Terminator::Skip {
                    p_taken,
                    hard: false,
                    period: 0,
                }
            }
        } else {
            Terminator::FallThrough
        }
    }

    /// Total bytes of code (static footprint), the I-cache pressure knob.
    pub fn code_bytes(&self) -> u64 {
        self.code_bytes
    }
}

/// Draws from a geometric distribution with the given mean (min 1).
pub(crate) fn geometric(rng: &mut SmallRng, mean: f64) -> u64 {
    debug_assert!(mean >= 1.0);
    if mean <= 1.0 {
        return 1;
    }
    let p = 1.0 / mean;
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    (u.ln() / (1.0 - p).ln()).floor() as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic_in_program_seed() {
        let spec = BenchmarkSpec::gzip();
        let a = SyntheticProgram::build(&spec).unwrap();
        let b = SyntheticProgram::build(&spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec = BenchmarkSpec::gzip();
        let a = SyntheticProgram::build(&spec).unwrap();
        spec.program_seed ^= 0xdead_beef;
        let b = SyntheticProgram::build(&spec).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn blocks_are_contiguous_and_nonoverlapping() {
        let prog = SyntheticProgram::build(&BenchmarkSpec::gcc()).unwrap();
        let mut expected_pc = CODE_BASE;
        for f in &prog.functions {
            for b in &f.blocks {
                assert_eq!(b.pc, expected_pc, "block layout gap");
                assert!(!b.body.is_empty());
                expected_pc += b.code_bytes();
            }
        }
        assert_eq!(prog.code_bytes(), expected_pc - CODE_BASE);
    }

    #[test]
    fn every_function_ends_with_return_and_has_no_other_returns() {
        let prog = SyntheticProgram::build(&BenchmarkSpec::vortex()).unwrap();
        for f in &prog.functions {
            let (last, init) = f.blocks.split_last().unwrap();
            assert_eq!(last.term, Terminator::Return);
            for b in init {
                assert_ne!(b.term, Terminator::Return);
            }
        }
    }

    #[test]
    fn call_targets_are_valid_and_never_self() {
        let prog = SyntheticProgram::build(&BenchmarkSpec::gcc()).unwrap();
        let mut saw_call = false;
        for f in &prog.functions {
            for b in &f.blocks {
                if let Terminator::Call { callee } = b.term {
                    saw_call = true;
                    assert_ne!(callee, f.index, "direct self-recursion is not generated");
                    assert!((callee as usize) < prog.functions.len());
                }
            }
        }
        assert!(saw_call, "gcc spec should generate call blocks");
    }

    #[test]
    fn loop_trips_are_at_least_two() {
        let prog = SyntheticProgram::build(&BenchmarkSpec::gap()).unwrap();
        let mut saw_loop = false;
        for f in &prog.functions {
            for b in &f.blocks {
                if let Terminator::Loop { trips } = b.term {
                    saw_loop = true;
                    assert!(trips >= 2);
                }
            }
        }
        assert!(saw_loop);
    }

    #[test]
    fn skip_probabilities_are_probabilities() {
        let prog = SyntheticProgram::build(&BenchmarkSpec::twolf()).unwrap();
        for f in &prog.functions {
            for b in &f.blocks {
                if let Terminator::Skip { p_taken, .. } = b.term {
                    assert!((0.0..=1.0).contains(&p_taken));
                }
            }
        }
    }

    #[test]
    fn code_footprints_rank_as_designed() {
        let small = SyntheticProgram::build(&BenchmarkSpec::gzip()).unwrap();
        let large = SyntheticProgram::build(&BenchmarkSpec::gcc()).unwrap();
        assert!(
            large.code_bytes() > 4 * small.code_bytes(),
            "gcc code ({}) should dwarf gzip code ({})",
            large.code_bytes(),
            small.code_bytes()
        );
    }

    #[test]
    fn memory_instructions_carry_classes() {
        let prog = SyntheticProgram::build(&BenchmarkSpec::mcf()).unwrap();
        for f in &prog.functions {
            for b in &f.blocks {
                for i in &b.body {
                    assert_eq!(i.mem.is_some(), i.op.is_mem());
                    assert!(!i.op.is_branch(), "bodies must be branch-free");
                }
            }
        }
    }

    #[test]
    fn geometric_mean_is_roughly_right() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| geometric(&mut rng, 8.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((7.0..9.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let mut spec = BenchmarkSpec::gzip();
        spec.dep_window = 0;
        assert!(SyntheticProgram::build(&spec).is_err());
    }
}
