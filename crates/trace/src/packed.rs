//! Packed structure-of-arrays trace storage.

use fosm_isa::{BranchInfo, Inst, Op, Reg};

use crate::TraceSource;

/// `ops` column bit marking a taken branch.
pub(crate) const TAKEN_BIT: u8 = 0x80;
/// `dests`/`src0s`/`src1s` sentinel for an absent register slot.
pub(crate) const NO_REG: u8 = 0xFF;

/// An owned instruction trace in packed structure-of-arrays layout.
///
/// [`VecTrace`](crate::VecTrace) stores an array of `Inst` structs —
/// 56 bytes each, dominated by `Option` niches and fields most
/// instructions never use. `PackedTrace` splits the trace into flat
/// columns instead:
///
/// * `pcs` — one `u64` per instruction,
/// * `ops` — the [`Op`] index in the low bits, plus a taken-branch flag,
/// * `dests`/`src0s`/`src1s` — one byte per register slot
///   (`0xFF` = absent, preserving the exact slot structure),
/// * `mem_addrs`/`branch_targets` — side columns holding one entry per
///   memory/branch instruction, consumed positionally during replay.
///
/// That is 12 bytes per instruction plus 8 per memory or branch
/// instruction — roughly 4x smaller than the AoS form for typical
/// mixes — and replay walks each column linearly instead of
/// pointer-striding through fat structs.
///
/// Only *well-formed* instructions (see [`Inst::is_well_formed`]) can
/// be packed: the layout derives each instruction's shape from its op
/// class, so e.g. a load without an effective address has no encoding.
///
/// # Examples
///
/// ```
/// use fosm_isa::{Inst, Op, Reg};
/// use fosm_trace::{PackedTrace, TraceSource};
///
/// let insts = vec![
///     Inst::alu(0, Op::IntAlu, Reg::new(1), None, None),
///     Inst::load(4, Reg::new(2), Some(Reg::new(1)), 0x100),
/// ];
/// let packed = PackedTrace::from_insts(&insts);
/// assert_eq!(packed.len(), 2);
/// assert_eq!(packed.replay().iter().collect::<Vec<_>>(), insts);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PackedTrace {
    pcs: Vec<u64>,
    ops: Vec<u8>,
    dests: Vec<u8>,
    src0s: Vec<u8>,
    src1s: Vec<u8>,
    mem_addrs: Vec<u64>,
    branch_targets: Vec<u64>,
}

impl PackedTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        PackedTrace::default()
    }

    /// Packs a slice of instructions.
    ///
    /// # Panics
    ///
    /// Panics if any instruction is not well-formed.
    pub fn from_insts(insts: &[Inst]) -> Self {
        let mut t = PackedTrace::new();
        for inst in insts {
            t.push(*inst);
        }
        t
    }

    /// Records up to `n` instructions from `source` into a new trace.
    ///
    /// # Panics
    ///
    /// Panics if the source yields a non-well-formed instruction.
    pub fn record<S: TraceSource>(source: &mut S, n: u64) -> Self {
        let mut t = PackedTrace::new();
        let cap = n.min(1 << 20) as usize;
        t.pcs.reserve(cap);
        t.ops.reserve(cap);
        for _ in 0..n {
            match source.next_inst() {
                Some(i) => t.push(i),
                None => break,
            }
        }
        t
    }

    /// Appends one instruction.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not well-formed — the packed layout infers
    /// shape from the op class and cannot represent malformed records.
    pub fn push(&mut self, inst: Inst) {
        assert!(
            inst.is_well_formed(),
            "cannot pack malformed instruction {inst}"
        );
        self.pcs.push(inst.pc);
        let mut op = inst.op.index() as u8;
        if inst.branch.is_some_and(|b| b.taken) {
            op |= TAKEN_BIT;
        }
        self.ops.push(op);
        self.dests.push(pack_reg(inst.dest));
        self.src0s.push(pack_reg(inst.srcs[0]));
        self.src1s.push(pack_reg(inst.srcs[1]));
        if let Some(addr) = inst.mem_addr {
            self.mem_addrs.push(addr);
        }
        if let Some(b) = inst.branch {
            self.branch_targets.push(b.target);
        }
    }

    /// Number of instructions in the trace.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Returns `true` if the trace contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// A fresh zero-copy replay cursor over the whole trace.
    ///
    /// Cursors borrow the columns: any number can replay concurrently
    /// without cloning instruction data.
    pub fn replay(&self) -> PackedReplay<'_> {
        PackedReplay {
            trace: self,
            idx: 0,
            mem_idx: 0,
            br_idx: 0,
        }
    }

    /// Decodes the whole trace back into an instruction vector (for
    /// consumers that need random access, e.g. batch statistics).
    pub fn decode(&self) -> Vec<Inst> {
        self.replay().iter().collect()
    }

    /// Approximate heap footprint of the packed columns, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.pcs.len() * 8
            + self.ops.len()
            + self.dests.len()
            + self.src0s.len()
            + self.src1s.len()
            + self.mem_addrs.len() * 8
            + self.branch_targets.len() * 8
    }
}

fn pack_reg(reg: Option<Reg>) -> u8 {
    reg.map_or(NO_REG, |r| r.number())
}

fn unpack_reg(byte: u8) -> Option<Reg> {
    if byte == NO_REG {
        None
    } else {
        Some(Reg::new(byte))
    }
}

impl From<&[Inst]> for PackedTrace {
    fn from(insts: &[Inst]) -> Self {
        PackedTrace::from_insts(insts)
    }
}

impl From<&crate::VecTrace> for PackedTrace {
    fn from(trace: &crate::VecTrace) -> Self {
        PackedTrace::from_insts(trace.insts())
    }
}

impl FromIterator<Inst> for PackedTrace {
    fn from_iter<I: IntoIterator<Item = Inst>>(iter: I) -> Self {
        let mut t = PackedTrace::new();
        for inst in iter {
            t.push(inst);
        }
        t
    }
}

impl Extend<Inst> for PackedTrace {
    fn extend<I: IntoIterator<Item = Inst>>(&mut self, iter: I) {
        for inst in iter {
            self.push(inst);
        }
    }
}

/// A borrowing replay cursor over a [`PackedTrace`].
///
/// Reconstructs each [`Inst`] on the fly from the packed columns; the
/// memory/branch side columns are consumed positionally, which is why
/// the cursor only moves forward (create a new one to replay again).
#[derive(Debug, Clone)]
pub struct PackedReplay<'a> {
    trace: &'a PackedTrace,
    idx: usize,
    mem_idx: usize,
    br_idx: usize,
}

impl PackedReplay<'_> {
    /// Instructions left to replay.
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.idx
    }
}

impl TraceSource for PackedReplay<'_> {
    fn next_inst(&mut self) -> Option<Inst> {
        let t = self.trace;
        let raw = *t.ops.get(self.idx)?;
        let op = Op::ALL[(raw & !TAKEN_BIT) as usize];
        let mem_addr = if op.is_mem() {
            let addr = t.mem_addrs[self.mem_idx];
            self.mem_idx += 1;
            Some(addr)
        } else {
            None
        };
        let branch = if op.is_branch() {
            let target = t.branch_targets[self.br_idx];
            self.br_idx += 1;
            Some(BranchInfo {
                taken: raw & TAKEN_BIT != 0,
                target,
            })
        } else {
            None
        };
        let inst = Inst {
            pc: t.pcs[self.idx],
            op,
            dest: unpack_reg(t.dests[self.idx]),
            srcs: [unpack_reg(t.src0s[self.idx]), unpack_reg(t.src1s[self.idx])],
            mem_addr,
            branch,
        };
        self.idx += 1;
        Some(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecTrace;

    fn sample() -> Vec<Inst> {
        vec![
            Inst::nop(0),
            Inst::alu(4, Op::IntAlu, Reg::new(1), None, Some(Reg::new(3))),
            Inst::load(8, Reg::new(2), Some(Reg::new(1)), 0x100),
            Inst::store(12, Reg::new(2), None, 0x108),
            Inst::branch(16, Op::CondBranch, Some(Reg::new(2)), true, 0x40),
            Inst::branch(20, Op::Jump, None, false, 0x44),
        ]
    }

    #[test]
    fn round_trips_every_shape() {
        let insts = sample();
        let packed = PackedTrace::from_insts(&insts);
        assert_eq!(packed.len(), insts.len());
        assert_eq!(packed.decode(), insts);
    }

    #[test]
    fn preserves_source_slot_structure() {
        // src in slot 1 with slot 0 empty must survive the round trip:
        // `sources()` flattens, so collapsing slots would still iterate
        // the same regs but change the stored shape.
        let inst = Inst::alu(0, Op::IntAlu, Reg::new(1), None, Some(Reg::new(5)));
        let packed = PackedTrace::from_insts(&[inst]);
        assert_eq!(packed.decode()[0].srcs, [None, Some(Reg::new(5))]);
    }

    #[test]
    fn replay_cursors_are_independent() {
        let packed = PackedTrace::from_insts(&sample());
        let a: Vec<Inst> = packed.replay().iter().collect();
        let mut cursor = packed.replay();
        cursor.next_inst();
        assert_eq!(cursor.remaining(), packed.len() - 1);
        let b: Vec<Inst> = packed.replay().iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn record_matches_vec_trace_record() {
        let mut origin = VecTrace::new(sample());
        let packed = PackedTrace::record(&mut origin, 4);
        assert_eq!(packed.len(), 4);
        let mut origin = VecTrace::new(sample());
        let vec = VecTrace::record(&mut origin, 4);
        assert_eq!(packed.decode(), vec.insts());
    }

    #[test]
    fn packs_several_times_smaller_than_aos() {
        let aos_bytes = |n: usize| n * std::mem::size_of::<Inst>();
        // Plain arithmetic uses only the per-instruction columns: ~4x.
        let alu: Vec<Inst> = (0..6000u64)
            .map(|i| Inst::alu(i * 4, Op::IntAlu, Reg::new(1), Some(Reg::new(2)), None))
            .collect();
        let packed = PackedTrace::from_insts(&alu);
        assert!(
            packed.approx_bytes() * 4 <= aos_bytes(alu.len()),
            "ALU-only: packed {} bytes vs AoS {} bytes",
            packed.approx_bytes(),
            aos_bytes(alu.len())
        );
        // A mem/branch-heavy mix pays for the side columns but still
        // packs well over 2x smaller.
        let mixed: Vec<Inst> = sample().into_iter().cycle().take(6000).collect();
        let packed = PackedTrace::from_insts(&mixed);
        assert!(
            packed.approx_bytes() * 2 < aos_bytes(mixed.len()),
            "mixed: packed {} bytes vs AoS {} bytes",
            packed.approx_bytes(),
            aos_bytes(mixed.len())
        );
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn rejects_malformed_instructions() {
        let mut bad = Inst::load(0, Reg::new(1), None, 0x10);
        bad.mem_addr = None;
        let mut t = PackedTrace::new();
        t.push(bad);
    }
}
