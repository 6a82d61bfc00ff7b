//! Detailed cycle-level out-of-order superscalar simulator.
//!
//! This crate is the *validation baseline* for the first-order model —
//! the stand-in for the detailed simulator Karkhanis & Smith compare
//! against in §1.1 and §5. It models exactly the machine the paper
//! describes:
//!
//! * a front-end pipeline of configurable depth ∆P feeding
//! * a single homogeneous issue window (oldest-first issue) and
//! * a separate reorder buffer, with
//! * equal fetch/dispatch/issue/retire widths `i`,
//! * an unbounded number of fully-pipelined functional units,
//! * a two-level cache hierarchy and a branch predictor, each
//!   independently idealizable ("everything ideal except X").
//!
//! Branch handling is trace-driven in the paper's style: when a
//! mispredicted branch is fetched, fetching of useful instructions
//! stops; it resumes when the branch resolves (issues), after which
//! correct-path instructions take ∆P cycles to reach the window.
//! Long data-cache misses block retirement until the data returns,
//! filling the ROB and stalling dispatch — the paper's dominant
//! long-miss mechanism (§4.3).
//!
//! # Examples
//!
//! ```
//! use fosm_sim::{Machine, MachineConfig};
//! use fosm_trace::VecTrace;
//! use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};
//!
//! let mut gen = WorkloadGenerator::new(&BenchmarkSpec::gzip(), 1);
//! let mut trace = VecTrace::record(&mut gen, 20_000);
//! let report = Machine::new(MachineConfig::baseline()).run(&mut trace);
//! assert!(report.ipc() > 0.5 && report.ipc() <= 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod machine;
#[cfg(test)]
mod oracle;
mod report;

pub use config::{ClusterConfig, FetchBufferConfig, MachineConfig, SimulationSet, Steering};
pub use fosm_branch::PredictorConfig;
pub use fosm_obs::event::{EventKind, TraceEvent};
pub use machine::Machine;
pub use report::SimReport;
