//! Instruction-trace abstractions for the first-order superscalar model.
//!
//! Every input to the analytical model of Karkhanis & Smith is derived
//! from an instruction trace: cache miss rates, branch misprediction
//! rates, and the data-dependence statistics behind the IW
//! characteristic. This crate defines:
//!
//! * [`TraceSource`] — the streaming interface every trace producer
//!   (synthetic workload generators, recorded traces) implements,
//! * [`VecTrace`] — an owned, replayable trace buffer,
//! * [`PackedTrace`] — the same trace in packed structure-of-arrays
//!   columns (~4x smaller), with zero-copy replay cursors,
//! * [`CorpusWriter`]/[`CorpusFile`]/[`FileReplay`] — the one on-disk
//!   trace format (`FOSMTRC1`): versioned, checksummed files with a
//!   chunk-paged replay cursor whose resident memory is O(page), not
//!   O(trace),
//! * [`TraceStats`] — one-pass statistics over a trace (instruction
//!   mix, branch demographics, register dependence distances),
//! * adapters such as [`Take`] for bounding a stream,
//! * [`Fnv`]/[`fnv1a64`] — the FNV-1a 64 hash behind every checksum
//!   and content address in the workspace.
//!
//! # Examples
//!
//! ```
//! use fosm_isa::{Inst, Op, Reg};
//! use fosm_trace::{TraceSource, TraceStats, VecTrace};
//!
//! let insts = vec![
//!     Inst::alu(0, Op::IntAlu, Reg::new(1), None, None),
//!     Inst::alu(4, Op::IntAlu, Reg::new(2), Some(Reg::new(1)), None),
//! ];
//! let mut trace = VecTrace::new(insts);
//! let stats = TraceStats::from_source(&mut trace, usize::MAX);
//! assert_eq!(stats.instructions(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapters;
pub mod corpus;
mod packed;
mod sampling;
mod source;
mod stats;
mod vec_trace;

pub use adapters::{Iter, Take};
pub use corpus::{
    fnv1a64, write_corpus, CorpusError, CorpusFile, CorpusSummary, CorpusWriter, FileReplay, Fnv,
};
pub use packed::{PackedReplay, PackedTrace};
pub use sampling::Sampler;
pub use source::TraceSource;
pub use stats::{DependenceHistogram, TraceStats};
pub use vec_trace::VecTrace;
