//! Owned, replayable traces.

use fosm_isa::Inst;
use serde::{Deserialize, Serialize};

use crate::TraceSource;

/// An owned, replayable instruction trace.
///
/// `VecTrace` buffers a finite instruction sequence in memory. It is
/// the workhorse for experiments that must observe *the same* dynamic
/// instruction stream several times (e.g. the paper's methodology of
/// running one trace through several idealized machine configurations):
/// record once with [`VecTrace::record`], then [`reset`](VecTrace::reset)
/// between consumers.
///
/// # Examples
///
/// ```
/// use fosm_isa::Inst;
/// use fosm_trace::{TraceSource, VecTrace};
///
/// let mut origin = VecTrace::new(vec![Inst::nop(0), Inst::nop(4), Inst::nop(8)]);
/// let mut copy = VecTrace::record(&mut origin, 2);
/// assert_eq!(copy.len(), 2);
/// assert_eq!(copy.iter().count(), 2);
/// copy.reset();
/// assert_eq!(copy.iter().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct VecTrace {
    insts: Vec<Inst>,
    cursor: usize,
}

impl VecTrace {
    /// Creates a trace over the given instructions, cursor at the start.
    pub fn new(insts: Vec<Inst>) -> Self {
        VecTrace { insts, cursor: 0 }
    }

    /// Records up to `n` instructions from `source` into a new trace.
    pub fn record<S: TraceSource>(source: &mut S, n: u64) -> Self {
        let mut insts = Vec::with_capacity(n.min(1 << 20) as usize);
        for _ in 0..n {
            match source.next_inst() {
                Some(i) => insts.push(i),
                None => break,
            }
        }
        VecTrace::new(insts)
    }

    /// Number of instructions in the trace (independent of the cursor).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if the trace contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Rewinds the replay cursor to the beginning.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// The underlying instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Consumes the trace, returning the underlying instructions.
    pub fn into_inner(self) -> Vec<Inst> {
        self.insts
    }
}

impl From<Vec<Inst>> for VecTrace {
    fn from(insts: Vec<Inst>) -> Self {
        VecTrace::new(insts)
    }
}

impl FromIterator<Inst> for VecTrace {
    fn from_iter<I: IntoIterator<Item = Inst>>(iter: I) -> Self {
        VecTrace::new(iter.into_iter().collect())
    }
}

impl Extend<Inst> for VecTrace {
    fn extend<I: IntoIterator<Item = Inst>>(&mut self, iter: I) {
        self.insts.extend(iter);
    }
}

impl TraceSource for VecTrace {
    fn next_inst(&mut self) -> Option<Inst> {
        let inst = self.insts.get(self.cursor).copied()?;
        self.cursor += 1;
        Some(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fosm_isa::{Op, Reg};

    fn sample() -> Vec<Inst> {
        vec![
            Inst::nop(0),
            Inst::alu(4, Op::IntAlu, Reg::new(1), None, None),
            Inst::load(8, Reg::new(2), Some(Reg::new(1)), 0x100),
        ]
    }

    #[test]
    fn replays_in_order_and_ends() {
        let mut t = VecTrace::new(sample());
        let pcs: Vec<u64> = t.iter().map(|i| i.pc).collect();
        assert_eq!(pcs, vec![0, 4, 8]);
        assert!(t.next_inst().is_none());
    }

    #[test]
    fn reset_rewinds() {
        let mut t = VecTrace::new(sample());
        t.next_inst();
        t.next_inst();
        t.reset();
        assert_eq!(t.next_inst().unwrap().pc, 0);
    }

    #[test]
    fn record_stops_at_source_end() {
        let mut origin = VecTrace::new(sample());
        let copy = VecTrace::record(&mut origin, 100);
        assert_eq!(copy.len(), 3);
    }

    #[test]
    fn record_respects_bound() {
        let mut origin = VecTrace::new(sample());
        let copy = VecTrace::record(&mut origin, 2);
        assert_eq!(copy.len(), 2);
        // origin cursor advanced past only the recorded prefix
        assert_eq!(origin.next_inst().unwrap().pc, 8);
    }

    #[test]
    fn collection_traits() {
        let t: VecTrace = sample().into_iter().collect();
        assert_eq!(t.len(), 3);
        let mut t2 = VecTrace::default();
        assert!(t2.is_empty());
        t2.extend(sample());
        assert_eq!(t2.len(), 3);
        assert_eq!(VecTrace::from(sample()).into_inner().len(), 3);
    }
}
