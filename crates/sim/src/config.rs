//! Machine configuration.

use fosm_branch::PredictorConfig;
use fosm_cache::{HierarchyConfig, TlbConfig};
use fosm_isa::{FuPool, LatencyTable};
use serde::{Deserialize, Serialize};

/// Full configuration of the simulated machine.
///
/// [`MachineConfig::baseline`] reproduces the paper's §1.1 baseline:
/// five front-end stages, width 4, a 48-entry window, a 128-entry ROB,
/// 4 KB L1 caches, a 512 KB L2 (8-cycle latency), 200-cycle memory, and
/// an 8K gshare predictor.
///
/// # Examples
///
/// ```
/// use fosm_sim::MachineConfig;
///
/// let cfg = MachineConfig::baseline();
/// assert_eq!(cfg.width, 4);
/// assert_eq!(cfg.win_size, 48);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Fetch = pipeline = dispatch = issue = retire width (`i`).
    pub width: u32,
    /// Issue-window entries.
    pub win_size: u32,
    /// Reorder-buffer entries.
    pub rob_size: u32,
    /// Front-end pipeline depth ∆P, in cycles.
    pub pipe_depth: u32,
    /// Functional-unit latencies.
    pub latencies: LatencyTable,
    /// L2 access latency (the ∆I of instruction misses and the latency
    /// of short data misses), in cycles.
    pub l2_latency: u32,
    /// Main-memory latency (the ∆D of long data misses), in cycles.
    pub mem_latency: u32,
    /// Cache hierarchy (levels set to `None` are ideal).
    pub hierarchy: HierarchyConfig,
    /// Branch predictor.
    pub predictor: PredictorConfig,
    /// Optional data TLB (paper §7 extension); `None` models an ideal
    /// TLB, as the paper's baseline does.
    #[serde(default)]
    pub dtlb: Option<TlbConfig>,
    /// Optional functional-unit limits (paper §7 extension); `None`
    /// models unbounded units of every class, as the paper does.
    #[serde(default)]
    pub fu: Option<FuPool>,
    /// Optional instruction fetch buffer (paper §7 extension): a
    /// prefetch queue between the I-cache and the pipeline that can
    /// hide some or all of the I-cache miss penalty. `None` couples
    /// fetch directly to the pipeline, as the paper's baseline does.
    #[serde(default)]
    pub fetch_buffer: Option<FetchBufferConfig>,
    /// Optional clustered issue window (paper §7 extension): the window
    /// and issue width are partitioned into clusters, and forwarding a
    /// result between clusters costs extra cycles. `None` models the
    /// paper's single homogeneous window.
    #[serde(default)]
    pub clusters: Option<ClusterConfig>,
}

/// How dispatch steers instructions to clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Steering {
    /// Cycle through clusters instruction by instruction.
    #[default]
    RoundRobin,
    /// Send each instruction to its first producer's cluster when that
    /// cluster has room (minimizing cross-cluster forwarding),
    /// otherwise to the least-loaded cluster.
    Dependence,
}

/// Geometry of a clustered issue window (paper §7, new feature 3:
/// "Partitioned issue windows and clustered functional units").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of clusters; window entries and issue width divide evenly
    /// across them.
    pub clusters: u32,
    /// Extra forwarding latency when a consumer reads a producer from a
    /// different cluster, in cycles.
    pub forward_delay: u32,
    /// Dispatch steering policy.
    pub steering: Steering,
}

impl ClusterConfig {
    /// A classic 2-cluster arrangement with 1-cycle inter-cluster
    /// forwarding (21264-flavoured).
    pub fn two_cluster() -> Self {
        ClusterConfig {
            clusters: 2,
            forward_delay: 1,
            steering: Steering::Dependence,
        }
    }

    /// Validates against a machine's width and window size.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated divisibility constraint.
    pub fn validate(&self, width: u32, win_size: u32) -> Result<(), String> {
        if self.clusters < 2 {
            return Err("a clustered window needs at least 2 clusters".into());
        }
        if !width.is_multiple_of(self.clusters) {
            return Err(format!(
                "issue width {width} must divide evenly into {} clusters",
                self.clusters
            ));
        }
        if !win_size.is_multiple_of(self.clusters) {
            return Err(format!(
                "window size {win_size} must divide evenly into {} clusters",
                self.clusters
            ));
        }
        Ok(())
    }
}

/// Geometry of the instruction fetch buffer (paper §7, new feature 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FetchBufferConfig {
    /// Buffer capacity in instructions.
    pub entries: u32,
    /// Prefetch bandwidth in instructions per cycle. Must exceed the
    /// pipeline width for the buffer to accumulate slack (real fetch
    /// units fetch whole cache lines per cycle).
    pub bandwidth: u32,
}

impl FetchBufferConfig {
    /// A 32-entry buffer fed at 8 instructions per cycle.
    pub fn baseline() -> Self {
        FetchBufferConfig {
            entries: 32,
            bandwidth: 8,
        }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self, width: u32) -> Result<(), String> {
        if self.entries == 0 {
            return Err("fetch buffer must have at least one entry".into());
        }
        if self.bandwidth <= width {
            return Err(format!(
                "fetch bandwidth ({}) must exceed the pipeline width ({width}) for the buffer to hide misses",
                self.bandwidth
            ));
        }
        Ok(())
    }
}

/// The paper's five simulation sets (§5): the full machine, every
/// miss-event source idealized, and one set per source with only that
/// source left real. [`MachineConfig::simulation_set`] derives each
/// from a configuration; the validation suite, `fosm profile --probes`
/// and the daemon's probes all name them the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimulationSet {
    /// The machine as configured.
    Full,
    /// Perfect caches, branch prediction and TLB (simulation set 1).
    Ideal,
    /// Only the branch predictor real (simulation set 3).
    Branch,
    /// Only the instruction cache real (simulation set 4).
    ICache,
    /// Only the data side real: data cache, its prefetcher and the data
    /// TLB (simulation set 5).
    DCache,
}

impl SimulationSet {
    /// Every set, in the `[full, ideal, branch, icache, dcache]` order
    /// the validation rows are computed in.
    pub const ALL: [SimulationSet; 5] = [
        SimulationSet::Full,
        SimulationSet::Ideal,
        SimulationSet::Branch,
        SimulationSet::ICache,
        SimulationSet::DCache,
    ];

    /// Stable lower-case name (used in flags, probe names and requests).
    pub fn name(self) -> &'static str {
        match self {
            SimulationSet::Full => "full",
            SimulationSet::Ideal => "ideal",
            SimulationSet::Branch => "branch",
            SimulationSet::ICache => "icache",
            SimulationSet::DCache => "dcache",
        }
    }

    /// Parses a stable name back to a set.
    ///
    /// # Errors
    ///
    /// Names the unknown value and lists the accepted ones.
    pub fn parse(name: &str) -> Result<SimulationSet, String> {
        SimulationSet::ALL
            .into_iter()
            .find(|set| set.name() == name)
            .ok_or_else(|| {
                format!("unknown probe `{name}` (expected full, ideal, branch, icache, or dcache)")
            })
    }
}

impl MachineConfig {
    /// The paper's baseline processor (§1.1).
    pub fn baseline() -> Self {
        MachineConfig {
            width: 4,
            win_size: 48,
            rob_size: 128,
            pipe_depth: 5,
            latencies: LatencyTable::default(),
            l2_latency: 8,
            mem_latency: 200,
            hierarchy: HierarchyConfig::baseline(),
            predictor: PredictorConfig::Gshare { bits: 13 },
            dtlb: None,
            fu: None,
            fetch_buffer: None,
            clusters: None,
        }
    }

    /// Baseline with every miss-event source idealized (the paper's
    /// simulation set 1): `baseline().simulation_set(SimulationSet::Ideal)`.
    pub fn ideal() -> Self {
        Self::baseline().simulation_set(SimulationSet::Ideal)
    }

    /// This machine as one of the paper's simulation sets (§5): the
    /// full machine, or a copy with every miss-event source idealized
    /// except the named one. Structural parameters and the other §7
    /// extensions carry over unchanged, so the sets can be derived from
    /// any configuration, not just the baseline; the data TLB counts as
    /// a miss-event source of the data side.
    pub fn simulation_set(&self, set: SimulationSet) -> Self {
        let h = self.hierarchy;
        let (hierarchy, predictor, dtlb) = match set {
            SimulationSet::Full => return self.clone(),
            SimulationSet::Ideal => (HierarchyConfig::ideal(), PredictorConfig::Ideal, None),
            SimulationSet::Branch => (HierarchyConfig::ideal(), self.predictor, None),
            SimulationSet::ICache => (
                HierarchyConfig {
                    l1d: None,
                    next_line_prefetch: 0,
                    ..h
                },
                PredictorConfig::Ideal,
                None,
            ),
            // The data TLB stays real: the simulator charges its walks
            // to loads, so it belongs to the data side.
            SimulationSet::DCache => (
                HierarchyConfig { l1i: None, ..h },
                PredictorConfig::Ideal,
                self.dtlb,
            ),
        };
        MachineConfig {
            hierarchy,
            predictor,
            dtlb,
            ..self.clone()
        }
    }

    /// Returns a copy with a different front-end depth (Fig. 9 / §6.1).
    pub fn with_pipe_depth(mut self, depth: u32) -> Self {
        self.pipe_depth = depth;
        self
    }

    /// Returns a copy with a different machine width.
    pub fn with_width(mut self, width: u32) -> Self {
        self.width = width;
        self
    }

    /// Returns a copy with a data TLB of the given geometry.
    pub fn with_dtlb(mut self, tlb: TlbConfig) -> Self {
        self.dtlb = Some(tlb);
        self
    }

    /// Returns a copy with limited functional units.
    pub fn with_fu_limits(mut self, fu: FuPool) -> Self {
        self.fu = Some(fu);
        self
    }

    /// Returns a copy with an instruction fetch buffer.
    pub fn with_fetch_buffer(mut self, buffer: FetchBufferConfig) -> Self {
        self.fetch_buffer = Some(buffer);
        self
    }

    /// Returns a copy with a clustered issue window.
    pub fn with_clusters(mut self, clusters: ClusterConfig) -> Self {
        self.clusters = Some(clusters);
        self
    }

    /// Validates structural constraints.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint. The window
    /// must fit in the ROB, all sizes must be non-zero, and memory must
    /// be slower than the L2.
    pub fn validate(&self) -> Result<(), String> {
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
        if let Some(tlb) = &self.dtlb {
            tlb.validate().map_err(|e| e.to_string())?;
        }
        if let Some(fu) = &self.fu {
            fu.validate()?;
        }
        if let Some(buffer) = &self.fetch_buffer {
            buffer.validate(self.width)?;
        }
        if let Some(clusters) = &self.clusters {
            clusters.validate(self.width, self.win_size)?;
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_the_paper() {
        let c = MachineConfig::baseline();
        assert_eq!(
            (c.width, c.win_size, c.rob_size, c.pipe_depth),
            (4, 48, 128, 5)
        );
        assert_eq!((c.l2_latency, c.mem_latency), (8, 200));
        assert_eq!(c.predictor, PredictorConfig::Gshare { bits: 13 });
        c.validate().unwrap();
    }

    #[test]
    fn simulation_sets_name_and_parse_in_order() {
        let names: Vec<&str> = SimulationSet::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["full", "ideal", "branch", "icache", "dcache"]);
        for set in SimulationSet::ALL {
            assert_eq!(SimulationSet::parse(set.name()), Ok(set));
        }
        assert_eq!(
            SimulationSet::parse("l2").unwrap_err(),
            "unknown probe `l2` (expected full, ideal, branch, icache, or dcache)"
        );
    }

    #[test]
    fn full_set_is_the_identity() {
        let config = MachineConfig::baseline()
            .with_width(8)
            .with_dtlb(TlbConfig::baseline())
            .with_fu_limits(FuPool::alpha_like());
        assert_eq!(config.simulation_set(SimulationSet::Full), config);
    }

    #[test]
    fn baseline_sets_equal_the_former_presets() {
        // The per-source presets these sets replace, spelled out: the
        // baseline with everything but one source idealized.
        let base = MachineConfig::baseline();
        let only = |hierarchy, predictor| MachineConfig {
            hierarchy,
            predictor,
            ..MachineConfig::baseline()
        };
        let (h, real) = (HierarchyConfig::baseline(), PredictorConfig::baseline());
        let ideal_h = HierarchyConfig::ideal();
        let ideal_p = PredictorConfig::Ideal;
        assert_eq!(
            base.simulation_set(SimulationSet::Ideal),
            MachineConfig::ideal()
        );
        assert_eq!(MachineConfig::ideal(), only(ideal_h, ideal_p));
        assert_eq!(
            base.simulation_set(SimulationSet::Branch),
            only(ideal_h, real)
        );
        let icache = HierarchyConfig { l1d: None, ..h };
        assert_eq!(
            base.simulation_set(SimulationSet::ICache),
            only(icache, ideal_p)
        );
        let dcache = HierarchyConfig { l1i: None, ..h };
        assert_eq!(
            base.simulation_set(SimulationSet::DCache),
            only(dcache, ideal_p)
        );
    }

    #[test]
    fn each_set_keeps_only_its_own_sources_real() {
        let mut config = MachineConfig::baseline()
            .with_width(8)
            .with_pipe_depth(9)
            .with_dtlb(TlbConfig::baseline());
        config.hierarchy = config.hierarchy.with_next_line_prefetch(2);
        // (set, predictor real, I-cache real, data side real)
        for (set, bp, ic, dc) in [
            (SimulationSet::Full, true, true, true),
            (SimulationSet::Ideal, false, false, false),
            (SimulationSet::Branch, true, false, false),
            (SimulationSet::ICache, false, true, false),
            (SimulationSet::DCache, false, false, true),
        ] {
            let v = config.simulation_set(set);
            assert_eq!(!v.predictor.is_ideal(), bp, "{set:?}");
            assert_eq!(v.hierarchy.l1i.is_some(), ic, "{set:?}");
            assert_eq!(v.hierarchy.l2.is_some(), ic || dc, "{set:?}");
            assert_eq!(v.hierarchy.l1d.is_some(), dc, "{set:?}");
            assert_eq!(v.hierarchy.next_line_prefetch == 2, dc, "{set:?}");
            assert_eq!(v.dtlb.is_some(), dc, "{set:?}");
            // Structural parameters follow the configuration.
            assert_eq!((v.width, v.pipe_depth), (8, 9), "{set:?}");
            assert_eq!(
                (v.win_size, v.mem_latency),
                (config.win_size, config.mem_latency)
            );
            v.validate().unwrap();
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = MachineConfig::baseline();
        c.win_size = 256; // > rob_size
        assert!(c.validate().is_err());
        let mut c = MachineConfig::baseline();
        c.width = 0;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::baseline();
        c.mem_latency = 8;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::baseline();
        c.pipe_depth = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_adjust_single_fields() {
        let c = MachineConfig::baseline().with_pipe_depth(9).with_width(8);
        assert_eq!(c.pipe_depth, 9);
        assert_eq!(c.width, 8);
        assert_eq!(c.win_size, 48);
    }
}
