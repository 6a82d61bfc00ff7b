//! Set-associative cache simulators for the first-order superscalar model.
//!
//! The analytical model of Karkhanis & Smith consumes cache *statistics*
//! — miss counts per level and the clustering ("burstiness") of long
//! data-cache misses — gathered from cheap functional simulation. This
//! crate provides:
//!
//! * [`Cache`] — a single set-associative cache level with pluggable
//!   replacement ([`Replacement`]),
//! * [`Hierarchy`] — the paper's two-level hierarchy (split L1 I/D,
//!   unified L2), with per-level idealization knobs; its two steps,
//!   [`FirstLevel`] and [`SecondLevel`], let several hierarchies share
//!   one L1,
//! * [`LongMissRecorder`] / [`BurstDistribution`] — the f_LDM(i)
//!   distribution of paper eq. (8): how long data-cache misses cluster
//!   within a reorder-buffer's worth of instructions.
//!
//! # Examples
//!
//! ```
//! use fosm_cache::{AccessKind, CacheConfig, Hierarchy, HierarchyConfig};
//!
//! # fn main() -> Result<(), fosm_cache::CacheError> {
//! let mut h = Hierarchy::new(HierarchyConfig::baseline())?;
//! let first = h.access(AccessKind::Load, 0x1234);
//! assert!(first.is_memory()); // cold miss goes to memory
//! let again = h.access(AccessKind::Load, 0x1234);
//! assert!(again.is_l1_hit());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod burst;
mod config;
mod error;
mod hierarchy;
mod level;
mod stats;
mod tlb;

pub use burst::{BurstDistribution, GroupingRule, LongMissRecorder};
pub use config::{CacheConfig, Replacement};
pub use error::CacheError;
pub use hierarchy::{
    observe_levels, AccessKind, AccessOutcome, FirstLevel, Hierarchy, HierarchyConfig, SecondLevel,
};
pub use level::Cache;
pub use stats::MissStats;
pub use tlb::{Tlb, TlbConfig};
