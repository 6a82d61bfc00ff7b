//! # The first-order superscalar processor model
//!
//! This crate implements the analytical performance model of
//! **Karkhanis & Smith, "A First-Order Superscalar Processor Model",
//! ISCA 2004** — the paper's primary contribution.
//!
//! The model estimates the CPI of an out-of-order superscalar processor
//! *without detailed simulation*, from three ingredients:
//!
//! 1. **Steady-state performance** under ideal conditions, derived from
//!    the program's IW characteristic (power law `I = α·W^β`, Little's
//!    Law latency scaling, issue-width saturation — [`fosm_depgraph`]).
//! 2. **Transient penalties** for the three miss-event types, computed
//!    by walking the IW characteristic ([`transient`]):
//!    * branch mispredictions (eq. 2/3): `win_drain + ∆P + ramp_up`,
//!    * instruction-cache misses (eq. 4/5): `∆I + ramp_up − win_drain`
//!      (≈ `∆I`, independent of pipeline depth),
//!    * long data-cache misses (eq. 6–8): `≈ ∆D`, scaled by the
//!      overlap factor `Σ f_LDM(i)/i` for clustered misses.
//! 3. **Miss-event counts** from cheap functional simulation
//!    ([`profile`]): cache and predictor statistics over a trace.
//!
//! Overall CPI is their sum (eq. 1):
//!
//! ```text
//! CPI = CPI_steadystate + CPI_brmisp + CPI_icachemiss + CPI_dcachemiss
//! ```
//!
//! # Examples
//!
//! ```
//! use fosm_core::model::FirstOrderModel;
//! use fosm_core::params::ProcessorParams;
//! use fosm_core::profile::ProfileCollector;
//! use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = ProcessorParams::baseline();
//! let mut trace = WorkloadGenerator::new(&BenchmarkSpec::gzip(), 42);
//! let profile = ProfileCollector::new(&params).collect(&mut trace, 100_000)?;
//! let estimate = FirstOrderModel::new(params).evaluate(&profile)?;
//! println!("CPI = {:.3}", estimate.total_cpi());
//! for (component, cpi) in estimate.cpi_stack() {
//!     println!("  {component:<12} {cpi:.3}");
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod branch;
pub mod dcache;
mod error;
pub mod events;
pub mod icache;
pub mod model;
pub mod params;
mod pipeline;
pub mod profile;
pub mod transient;

pub use batch::{PreparedModel, StructuralContext};
pub use error::ModelError;
pub use events::EventPenalties;
pub use model::{Estimate, FirstOrderModel};
pub use params::ProcessorParams;
pub use profile::{Probe, ProbeBank, ProfileCollector, ProgramProfile, SamplingPlan};
