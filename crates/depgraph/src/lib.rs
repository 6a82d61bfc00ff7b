//! Data-dependence analysis and the IW characteristic (paper §3).
//!
//! The *IW characteristic* is the relationship between issue-window size
//! `W` and the average number of instructions issued per cycle `I`,
//! under ideal conditions (no miss-events, unbounded issue width,
//! unlimited functional units). Riseman & Foster, and later Michaud,
//! Seznec & Jourdan, observed that it follows a power law
//! `I = α · W^β` with `β ≈ 0.5`; Karkhanis & Smith build their whole
//! first-order model on top of it.
//!
//! This crate reproduces the paper's practical recipe:
//!
//! 1. [`iw::characteristic`] — an *idealized trace-driven simulation*
//!    (oldest-first issue, unit-latency, unbounded width, only the
//!    window size limited) producing `(W, IPC)` points,
//! 2. [`powerlaw::fit`] — a least-squares fit of `log2 I = β·log2 W +
//!    log2 α` (the paper's Table 1 / Fig. 5),
//! 3. [`IwCharacteristic`] — the fitted law combined with the average
//!    functional-unit latency `L` via Little's Law (`I_L = I_1 / L`) and
//!    saturation at the machine's issue width (paper Fig. 6).
//!
//! # Examples
//!
//! ```
//! use fosm_depgraph::{IwCharacteristic, PowerLaw};
//!
//! // The paper's illustrative square-root law: alpha = 1, beta = 0.5.
//! let iw = IwCharacteristic::new(PowerLaw::new(1.0, 0.5)?, 1.0)?;
//! assert!((iw.unlimited_issue_rate(16.0) - 4.0).abs() < 1e-9);
//! // A 4-wide machine saturates once the window holds >= 16 entries.
//! assert_eq!(iw.issue_rate(64.0, Some(4)), 4.0);
//! # Ok::<(), fosm_depgraph::FitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod characteristic;
mod error;
pub mod iw;
pub mod powerlaw;
pub mod streaming;

pub use characteristic::IwCharacteristic;
pub use error::FitError;
pub use iw::IwPoint;
pub use powerlaw::PowerLaw;
pub use streaming::{IwAnalysis, IwResolver, IwSweep, IwWindows, ResolvedInst};
