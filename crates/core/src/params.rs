//! Processor parameters consumed by the analytical model.

use fosm_isa::LatencyTable;
use serde::{Deserialize, Serialize};

/// The microarchitecture parameters the first-order model needs.
///
/// These are deliberately fewer than a detailed simulator's
/// configuration: the model never sees cache geometries or predictor
/// tables — only the structural parameters (widths, window/ROB sizes,
/// pipeline depth) and the two miss latencies ∆I (L2) and ∆D (memory).
/// Miss *rates* arrive separately via the
/// [`ProgramProfile`](crate::profile::ProgramProfile).
///
/// # Examples
///
/// ```
/// use fosm_core::params::ProcessorParams;
///
/// let p = ProcessorParams::baseline();
/// assert_eq!(p.width, 4);
/// assert_eq!(p.mem_latency, 200);
/// p.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessorParams {
    /// Fetch/dispatch/issue/retire width `i`.
    pub width: u32,
    /// Issue-window entries.
    pub win_size: u32,
    /// Reorder-buffer entries.
    pub rob_size: u32,
    /// Front-end pipeline depth ∆P, in cycles.
    pub pipe_depth: u32,
    /// L2 access latency (∆I for instruction misses; short-miss
    /// latency for data), in cycles.
    pub l2_latency: u32,
    /// Main-memory latency (∆D for long data misses), in cycles.
    pub mem_latency: u32,
    /// Functional-unit latencies (used when folding the instruction mix
    /// into the average latency `L`).
    pub latencies: LatencyTable,
}

impl ProcessorParams {
    /// The paper's baseline machine (§1.1): width 4, 48-entry window,
    /// 128-entry ROB, 5 front-end stages, ∆I = 8, ∆D = 200.
    pub fn baseline() -> Self {
        ProcessorParams {
            width: 4,
            win_size: 48,
            rob_size: 128,
            pipe_depth: 5,
            l2_latency: 8,
            mem_latency: 200,
            latencies: LatencyTable::default(),
        }
    }

    /// Returns a copy with a different front-end depth.
    pub fn with_pipe_depth(mut self, depth: u32) -> Self {
        self.pipe_depth = depth;
        self
    }

    /// Returns a copy with a different machine width.
    pub fn with_width(mut self, width: u32) -> Self {
        self.width = width;
        self
    }

    /// The largest value [`validate`](Self::validate) accepts for each
    /// structural field, as `(field, maximum)`. Every machine the paper,
    /// the figures, the fuzzer and the design-space grids describe lies
    /// far inside these; past them a request is a mistake (a cycle count
    /// near `u32::MAX`), not a machine.
    pub const MAXIMA: [(&'static str, u32); 6] = [
        ("width", 64),
        ("win_size", 4096),
        ("rob_size", 4096),
        ("pipe_depth", 256),
        ("l2_latency", 1_000),
        ("mem_latency", 10_000),
    ];

    /// Validates structural constraints.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let values = [
            self.width,
            self.win_size,
            self.rob_size,
            self.pipe_depth,
            self.l2_latency,
            self.mem_latency,
        ];
        for ((field, max), value) in Self::MAXIMA.into_iter().zip(values) {
            if value > max {
                return Err(format!("{field} {value} exceeds the maximum {max}"));
            }
        }
        if self.width == 0 {
            return Err("width must be non-zero".into());
        }
        if self.win_size == 0 || self.rob_size == 0 {
            return Err("window and ROB must be non-empty".into());
        }
        if self.win_size > self.rob_size {
            return Err(format!(
                "issue window ({}) cannot exceed the ROB ({})",
                self.win_size, self.rob_size
            ));
        }
        if self.pipe_depth == 0 {
            return Err("front-end pipeline must have at least one stage".into());
        }
        if self.mem_latency <= self.l2_latency {
            return Err("memory latency must exceed L2 latency".into());
        }
        Ok(())
    }
}

impl Default for ProcessorParams {
    fn default() -> Self {
        ProcessorParams::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_the_paper() {
        let p = ProcessorParams::baseline();
        assert_eq!(
            (p.width, p.win_size, p.rob_size, p.pipe_depth),
            (4, 48, 128, 5)
        );
        assert_eq!((p.l2_latency, p.mem_latency), (8, 200));
        p.validate().unwrap();
    }

    /// The structural field `ProcessorParams::MAXIMA[i]` names.
    fn field(p: &mut ProcessorParams, i: usize) -> &mut u32 {
        match i {
            0 => &mut p.width,
            1 => &mut p.win_size,
            2 => &mut p.rob_size,
            3 => &mut p.pipe_depth,
            4 => &mut p.l2_latency,
            _ => &mut p.mem_latency,
        }
    }

    #[test]
    fn values_past_the_stated_maxima_are_rejected_naming_the_field() {
        for (i, (name, max)) in ProcessorParams::MAXIMA.into_iter().enumerate() {
            // The ROB and memory latency at their maxima, so the window
            // and L2 latency can reach theirs without another failure.
            let mut p = ProcessorParams::baseline();
            *field(&mut p, 2) = ProcessorParams::MAXIMA[2].1;
            *field(&mut p, 5) = ProcessorParams::MAXIMA[5].1;
            *field(&mut p, i) = max;
            assert_eq!(p.validate(), Ok(()), "{name} = {max} is accepted");
            *field(&mut p, i) = u32::MAX;
            let err = p.validate().unwrap_err();
            assert!(
                err.starts_with(&format!("{name} 4294967295 exceeds")),
                "{err}"
            );
        }
    }

    #[test]
    fn builders() {
        let p = ProcessorParams::baseline().with_pipe_depth(9).with_width(8);
        assert_eq!(p.pipe_depth, 9);
        assert_eq!(p.width, 8);
    }

    #[test]
    fn validation() {
        let mut p = ProcessorParams::baseline();
        p.win_size = p.rob_size + 1;
        assert!(p.validate().is_err());
        let mut p = ProcessorParams::baseline();
        p.mem_latency = p.l2_latency;
        assert!(p.validate().is_err());
        let mut p = ProcessorParams::baseline();
        p.width = 0;
        assert!(p.validate().is_err());
    }
}
