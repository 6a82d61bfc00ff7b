//! Grid specification: the cross-product of design axes to sweep.
//!
//! A sweep has two kinds of axes:
//!
//! * **Machine axes** ([`MachineGrid`]) — width, window, ROB, pipeline
//!   depth, and the two miss latencies. These only change model
//!   *parameters*, so one program profile serves the whole grid.
//! * **Hardware axes** ([`HardwareAxes`]) — I/D-cache geometry and the
//!   branch predictor. These change the *miss counts*, so every
//!   combination needs its own functional profile (collected once,
//!   outside the hot loop).
//!
//! Validation happens **once**, up front, over the whole cross-product
//! (`validate` checks the extreme combinations, which bound every
//! interior point, against the same limits as
//! [`ProcessorParams::validate`]) — the evaluation loop itself is
//! infallible.

use fosm_branch::PredictorConfig;
use fosm_cache::{CacheConfig, Replacement};
use fosm_core::ProcessorParams;
use serde::{Deserialize, Serialize};

/// A malformed grid, reported before any evaluation starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// An axis has no values.
    EmptyAxis(&'static str),
    /// An axis contains a zero where the model needs a positive value.
    ZeroValue(&'static str),
    /// An axis value exceeds the stated maximum of its machine field
    /// ([`ProcessorParams::MAXIMA`]).
    AboveMaximum {
        /// The axis holding the value.
        axis: &'static str,
        /// The machine field the axis sets.
        field: &'static str,
        /// The largest value on the axis.
        value: u32,
        /// The field's stated maximum.
        max: u32,
    },
    /// Some `(win_size, rob_size)` combination has `win > rob`.
    WindowExceedsRob {
        /// The largest window in the grid.
        win: u32,
        /// The smallest ROB in the grid.
        rob: u32,
    },
    /// Some `(l2, mem)` combination has `mem <= l2`.
    MemNotBeyondL2 {
        /// The largest L2 latency in the grid.
        l2: u32,
        /// The smallest memory latency in the grid.
        mem: u32,
    },
    /// A cache geometry is not realizable (bad set count / line size).
    BadGeometry(String),
    /// The product of the axis lengths does not fit in a `u64`.
    TooManyPoints,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::EmptyAxis(axis) => write!(f, "axis `{axis}` is empty"),
            GridError::ZeroValue(axis) => write!(f, "axis `{axis}` contains a zero"),
            GridError::AboveMaximum {
                axis,
                field,
                value,
                max,
            } => write!(
                f,
                "axis `{axis}` value {value} exceeds the {field} maximum {max}"
            ),
            GridError::WindowExceedsRob { win, rob } => {
                write!(f, "window {win} exceeds ROB {rob} for some grid point")
            }
            GridError::MemNotBeyondL2 { l2, mem } => {
                write!(
                    f,
                    "memory latency {mem} is not beyond L2 latency {l2} for some grid point"
                )
            }
            GridError::BadGeometry(why) => write!(f, "bad cache geometry: {why}"),
            GridError::TooManyPoints => write!(f, "the grid has more than 2^64 - 1 points"),
        }
    }
}

impl std::error::Error for GridError {}

/// The model-parameter axes of a sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineGrid {
    /// Fetch/dispatch/issue/retire widths.
    pub widths: Vec<u32>,
    /// Issue-window sizes.
    pub win_sizes: Vec<u32>,
    /// Reorder-buffer sizes.
    pub rob_sizes: Vec<u32>,
    /// Front-end pipeline depths.
    pub pipe_depths: Vec<u32>,
    /// L2 access latencies.
    pub l2_latencies: Vec<u32>,
    /// Main-memory latencies.
    pub mem_latencies: Vec<u32>,
}

impl MachineGrid {
    /// A moderate default sweep around the paper's baseline: 1152
    /// machine configurations per hardware variant.
    pub fn baseline_sweep() -> Self {
        MachineGrid {
            widths: vec![2, 4, 6, 8],
            win_sizes: vec![16, 32, 48, 64],
            rob_sizes: vec![128, 256],
            pipe_depths: vec![3, 5, 8, 12, 16, 20],
            l2_latencies: vec![8, 12],
            mem_latencies: vec![100, 200, 400],
        }
    }

    /// Number of machine configurations in the grid, saturating at
    /// `u64::MAX` ([`validate`](Self::validate) rejects such a grid).
    pub fn len(&self) -> u64 {
        self.checked_len().unwrap_or(u64::MAX)
    }

    fn checked_len(&self) -> Option<u64> {
        [
            &self.widths,
            &self.win_sizes,
            &self.rob_sizes,
            &self.pipe_depths,
            &self.l2_latencies,
            &self.mem_latencies,
        ]
        .iter()
        .try_fold(1u64, |n, axis| n.checked_mul(axis.len() as u64))
    }

    /// Whether the grid has no configurations at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks every cross-product combination once, so the evaluation
    /// loop can be infallible. Because parameter validity is monotone
    /// in each axis, checking the extremes (each axis's maximum against
    /// [`ProcessorParams::MAXIMA`], `max(win)` vs `min(rob)`, `max(l2)`
    /// vs `min(mem)`) covers all interior points: every point passes
    /// [`ProcessorParams::validate`].
    pub fn validate(&self) -> Result<(), GridError> {
        // In the order of `ProcessorParams::MAXIMA`.
        let axes: [(&'static str, &[u32]); 6] = [
            ("widths", &self.widths),
            ("windows", &self.win_sizes),
            ("robs", &self.rob_sizes),
            ("depths", &self.pipe_depths),
            ("l2", &self.l2_latencies),
            ("mem", &self.mem_latencies),
        ];
        for ((name, values), (field, max)) in axes.into_iter().zip(ProcessorParams::MAXIMA) {
            let Some(&value) = values.iter().max() else {
                return Err(GridError::EmptyAxis(name));
            };
            if values.contains(&0) {
                return Err(GridError::ZeroValue(name));
            }
            if value > max {
                return Err(GridError::AboveMaximum {
                    axis: name,
                    field,
                    value,
                    max,
                });
            }
        }
        let win = *self.win_sizes.iter().max().expect("checked non-empty");
        let rob = *self.rob_sizes.iter().min().expect("checked non-empty");
        if win > rob {
            return Err(GridError::WindowExceedsRob { win, rob });
        }
        let l2 = *self.l2_latencies.iter().max().expect("checked non-empty");
        let mem = *self.mem_latencies.iter().min().expect("checked non-empty");
        if mem <= l2 {
            return Err(GridError::MemNotBeyondL2 { l2, mem });
        }
        self.checked_len().ok_or(GridError::TooManyPoints)?;
        Ok(())
    }
}

/// One machine configuration drawn from a [`MachineGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigPoint {
    /// Issue width.
    pub width: u32,
    /// Issue-window entries.
    pub win_size: u32,
    /// Reorder-buffer entries.
    pub rob_size: u32,
    /// Front-end pipeline depth.
    pub pipe_depth: u32,
    /// L2 access latency.
    pub l2_latency: u32,
    /// Main-memory latency.
    pub mem_latency: u32,
}

/// A cache geometry axis value: `size:assoc:line`, e.g. `8k:4:64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways).
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
}

impl CacheGeometry {
    /// The L1 baseline geometry (4 KiB, 4-way, 128 B lines).
    pub fn l1_baseline() -> Self {
        let c = CacheConfig::l1_baseline();
        CacheGeometry {
            size_bytes: c.size_bytes(),
            assoc: c.assoc(),
            line_bytes: c.line_bytes(),
        }
    }

    /// Parses `size:assoc:line` where size takes an optional `k`/`K`
    /// suffix: `8k:4:64` is 8 KiB, 4-way, 64-byte lines.
    pub fn parse(s: &str) -> Result<Self, GridError> {
        let mut parts = s.split(':');
        let (size, assoc, line) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(size), Some(assoc), Some(line), None) => (size, assoc, line),
            _ => {
                return Err(GridError::BadGeometry(format!(
                    "`{s}` is not size:assoc:line"
                )))
            }
        };
        let size_bytes = match size.strip_suffix(['k', 'K']) {
            Some(kb) => kb
                .parse::<u64>()
                .map(|kb| kb * 1024)
                .map_err(|e| GridError::BadGeometry(format!("size `{size}`: {e}"))),
            None => size
                .parse::<u64>()
                .map_err(|e| GridError::BadGeometry(format!("size `{size}`: {e}"))),
        }?;
        let assoc = assoc
            .parse::<u32>()
            .map_err(|e| GridError::BadGeometry(format!("assoc `{assoc}`: {e}")))?;
        let line_bytes = line
            .parse::<u32>()
            .map_err(|e| GridError::BadGeometry(format!("line `{line}`: {e}")))?;
        let geometry = CacheGeometry {
            size_bytes,
            assoc,
            line_bytes,
        };
        geometry.to_config()?;
        Ok(geometry)
    }

    /// Realizes the geometry as a simulator cache config (LRU).
    pub fn to_config(&self) -> Result<CacheConfig, GridError> {
        CacheConfig::new(
            self.size_bytes,
            self.assoc,
            self.line_bytes,
            Replacement::Lru,
        )
        .map_err(|e| GridError::BadGeometry(e.to_string()))
    }

    /// Capacity in KiB, for the area proxy and for labels.
    pub fn kib(&self) -> f64 {
        self.size_bytes as f64 / 1024.0
    }
}

impl std::fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.size_bytes.is_multiple_of(1024) {
            write!(
                f,
                "{}k:{}:{}",
                self.size_bytes / 1024,
                self.assoc,
                self.line_bytes
            )
        } else {
            write!(f, "{}:{}:{}", self.size_bytes, self.assoc, self.line_bytes)
        }
    }
}

/// The profile-level axes: every combination re-profiles the workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareAxes {
    /// L1 instruction-cache geometries.
    pub icaches: Vec<CacheGeometry>,
    /// L1 data-cache geometries.
    pub dcaches: Vec<CacheGeometry>,
    /// Branch-predictor configurations.
    pub predictors: Vec<PredictorConfig>,
}

impl HardwareAxes {
    /// The baseline machine only: one variant, no re-profiling cost.
    pub fn baseline_only() -> Self {
        HardwareAxes {
            icaches: vec![CacheGeometry::l1_baseline()],
            dcaches: vec![CacheGeometry::l1_baseline()],
            predictors: vec![PredictorConfig::baseline()],
        }
    }

    /// Number of hardware variants (profiles per workload).
    pub fn len(&self) -> usize {
        self.icaches.len() * self.dcaches.len() * self.predictors.len()
    }

    /// Whether there are no variants.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One-shot validation: non-empty axes, realizable geometries.
    pub fn validate(&self) -> Result<(), GridError> {
        if self.icaches.is_empty() {
            return Err(GridError::EmptyAxis("icache"));
        }
        if self.dcaches.is_empty() {
            return Err(GridError::EmptyAxis("dcache"));
        }
        if self.predictors.is_empty() {
            return Err(GridError::EmptyAxis("predictors"));
        }
        for g in self.icaches.iter().chain(&self.dcaches) {
            g.to_config()?;
        }
        Ok(())
    }

    /// All variants in deterministic (icache-major, predictor-minor)
    /// order.
    pub fn variants(&self) -> Vec<HardwareVariant> {
        let mut out = Vec::with_capacity(self.len());
        for &icache in &self.icaches {
            for &dcache in &self.dcaches {
                for &predictor in &self.predictors {
                    out.push(HardwareVariant {
                        icache,
                        dcache,
                        predictor,
                    });
                }
            }
        }
        out
    }
}

/// One point on the hardware axes: a cache/predictor combination that
/// shares a single functional profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardwareVariant {
    /// L1 instruction-cache geometry.
    pub icache: CacheGeometry,
    /// L1 data-cache geometry.
    pub dcache: CacheGeometry,
    /// Branch predictor.
    pub predictor: PredictorConfig,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_sweep_validates_and_counts() {
        let grid = MachineGrid::baseline_sweep();
        grid.validate().unwrap();
        assert_eq!(grid.len(), 4 * 4 * 2 * 6 * 2 * 3);
    }

    #[test]
    fn validation_rejects_bad_cross_products() {
        let mut grid = MachineGrid::baseline_sweep();
        grid.rob_sizes = vec![32, 128];
        assert_eq!(
            grid.validate(),
            Err(GridError::WindowExceedsRob { win: 64, rob: 32 })
        );

        let mut grid = MachineGrid::baseline_sweep();
        grid.mem_latencies = vec![10, 200];
        assert_eq!(
            grid.validate(),
            Err(GridError::MemNotBeyondL2 { l2: 12, mem: 10 })
        );

        let mut grid = MachineGrid::baseline_sweep();
        grid.widths.clear();
        assert_eq!(grid.validate(), Err(GridError::EmptyAxis("widths")));

        let mut grid = MachineGrid::baseline_sweep();
        grid.pipe_depths = vec![0, 5];
        assert_eq!(grid.validate(), Err(GridError::ZeroValue("depths")));

        // Six axes of 2^11 valid values: 2^66 points, which a plain
        // product would wrap to 0.
        let base = MachineGrid::baseline_sweep();
        let huge = MachineGrid {
            widths: vec![base.widths[0]; 2048],
            win_sizes: vec![base.win_sizes[0]; 2048],
            rob_sizes: vec![base.rob_sizes[0]; 2048],
            pipe_depths: vec![base.pipe_depths[0]; 2048],
            l2_latencies: vec![base.l2_latencies[0]; 2048],
            mem_latencies: vec![base.mem_latencies[0]; 2048],
        };
        assert_eq!(huge.len(), u64::MAX);
        assert_eq!(huge.validate(), Err(GridError::TooManyPoints));
    }

    /// The axis that sets the field `ProcessorParams::MAXIMA[i]` names.
    fn axis(grid: &mut MachineGrid, i: usize) -> &mut Vec<u32> {
        match i {
            0 => &mut grid.widths,
            1 => &mut grid.win_sizes,
            2 => &mut grid.rob_sizes,
            3 => &mut grid.pipe_depths,
            4 => &mut grid.l2_latencies,
            _ => &mut grid.mem_latencies,
        }
    }

    #[test]
    fn validation_holds_each_axis_to_its_machine_maximum() {
        let grid = MachineGrid::baseline_sweep();
        for (i, (field, max)) in ProcessorParams::MAXIMA.into_iter().enumerate() {
            // The ROB and memory axes at their maxima, so the window and
            // L2 axes can reach theirs without another failure.
            let mut at_max = grid.clone();
            at_max.rob_sizes = vec![ProcessorParams::MAXIMA[2].1];
            at_max.mem_latencies = vec![ProcessorParams::MAXIMA[5].1];
            axis(&mut at_max, i).push(max);
            assert_eq!(at_max.validate(), Ok(()), "{field} = {max} is accepted");
            axis(&mut at_max, i).push(u32::MAX);
            let err = at_max.validate().unwrap_err();
            assert!(
                matches!(err, GridError::AboveMaximum { field: f, value: u32::MAX, max: m, .. } if f == field && m == max),
                "{err}"
            );
        }
        let mut deep = grid;
        deep.pipe_depths = vec![5, u32::MAX];
        assert_eq!(
            deep.validate().unwrap_err().to_string(),
            "axis `depths` value 4294967295 exceeds the pipe_depth maximum 256"
        );
    }

    #[test]
    fn geometry_parses_and_round_trips() {
        let g = CacheGeometry::parse("8k:4:64").unwrap();
        assert_eq!(g.size_bytes, 8192);
        assert_eq!(g.assoc, 4);
        assert_eq!(g.line_bytes, 64);
        assert_eq!(g.to_string(), "8k:4:64");
        assert_eq!(CacheGeometry::parse(&g.to_string()).unwrap(), g);

        assert!(CacheGeometry::parse("8k:4").is_err());
        assert!(
            CacheGeometry::parse("8k:4:63").is_err(),
            "non-power-of-two line"
        );
        assert!(CacheGeometry::parse("nope:4:64").is_err());
    }

    #[test]
    fn hardware_axes_enumerate_deterministically() {
        let axes = HardwareAxes {
            icaches: vec![
                CacheGeometry::parse("4k:4:128").unwrap(),
                CacheGeometry::parse("8k:4:128").unwrap(),
            ],
            dcaches: vec![CacheGeometry::l1_baseline()],
            predictors: vec![PredictorConfig::baseline(), PredictorConfig::Ideal],
        };
        axes.validate().unwrap();
        let variants = axes.variants();
        assert_eq!(variants.len(), 4);
        assert_eq!(variants[0].icache.size_bytes, 4096);
        assert_eq!(variants[0].predictor, PredictorConfig::baseline());
        assert_eq!(variants[1].predictor, PredictorConfig::Ideal);
        assert_eq!(variants[2].icache.size_bytes, 8192);
    }
}
