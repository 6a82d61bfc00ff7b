//! Benchmark and figure-regeneration harness for the first-order model.
//!
//! Each `fig*`/`table*` binary in `src/bin/` regenerates one table or
//! figure of Karkhanis & Smith (ISCA 2004); this library holds the
//! shared plumbing (argument parsing, the artifact store through
//! which every trace, simulation and profile is made, parallel
//! fan-out, text plotting).

pub mod disk;
pub mod harness;
pub mod par;
pub mod plot;
pub mod store;
