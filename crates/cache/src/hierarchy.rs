//! The two-level cache hierarchy of the baseline machine.

use serde::{Deserialize, Serialize};

use crate::{Cache, CacheConfig, CacheError, MissStats};

/// The kind of memory access presented to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Instruction fetch (goes through the L1 I-cache).
    IFetch,
    /// Data load (L1 D-cache).
    Load,
    /// Data store (L1 D-cache; allocate-on-miss).
    Store,
}

/// Where an access was satisfied.
///
/// In the paper's terminology, a data access satisfied in
/// [`AccessOutcome::L2`] is a *short miss* (folded into the average
/// functional-unit latency) and one satisfied in
/// [`AccessOutcome::Memory`] is a *long miss* (modeled as a miss-event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessOutcome {
    /// Hit in the first-level cache.
    L1,
    /// Missed L1, hit the unified L2.
    L2,
    /// Missed both levels; serviced by main memory.
    Memory,
}

impl AccessOutcome {
    /// `true` if the access hit in L1.
    pub fn is_l1_hit(self) -> bool {
        self == AccessOutcome::L1
    }

    /// `true` if the access was a short (L2-hit) miss.
    pub fn is_l2_hit(self) -> bool {
        self == AccessOutcome::L2
    }

    /// `true` if the access went all the way to memory (a long miss).
    pub fn is_memory(self) -> bool {
        self == AccessOutcome::Memory
    }
}

/// Configuration of the two-level hierarchy.
///
/// A level set to `None` is *ideal*: every access to it hits. This is
/// how the paper's "everything ideal except X" simulations are
/// expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 instruction cache, or `None` for an ideal I-cache.
    pub l1i: Option<CacheConfig>,
    /// L1 data cache, or `None` for an ideal D-cache.
    pub l1d: Option<CacheConfig>,
    /// Unified L2, or `None` for an ideal L2 (every L1 miss is short).
    pub l2: Option<CacheConfig>,
    /// Next-line data prefetching ("always prefetch", Smith 1982): on
    /// every L1D data access, this many sequential lines are installed
    /// into L1D and L2 (0 = off — the paper's configuration, which
    /// explicitly excludes prefetching).
    #[serde(default)]
    pub next_line_prefetch: u32,
}

impl HierarchyConfig {
    /// The paper's baseline: 4 KB 4-way 128 B L1I and L1D, 512 KB 4-way
    /// 128 B unified L2, all LRU.
    pub fn baseline() -> Self {
        HierarchyConfig {
            l1i: Some(CacheConfig::l1_baseline()),
            l1d: Some(CacheConfig::l1_baseline()),
            l2: Some(CacheConfig::l2_baseline()),
            next_line_prefetch: 0,
        }
    }

    /// Returns a copy with next-line data prefetching of `lines` lines.
    pub fn with_next_line_prefetch(mut self, lines: u32) -> Self {
        self.next_line_prefetch = lines;
        self
    }

    /// Fully ideal hierarchy: every access hits in L1.
    pub fn ideal() -> Self {
        HierarchyConfig {
            l1i: None,
            l1d: None,
            l2: None,
            next_line_prefetch: 0,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::baseline()
    }
}

/// One first-level cache as the hierarchy drives it: the demand
/// access (an absent cache is ideal and hits), its hit/miss
/// statistics, and on the data side the next-line prefetch installs.
///
/// This is the L1 step of [`Hierarchy::access`]. The hierarchy is not
/// inclusive, so the L1 outcome never depends on the levels below it:
/// any number of hierarchies with the same L1 configuration can share
/// one `FirstLevel` over the same access stream, each feeding the
/// outcome to its own [`SecondLevel`].
#[derive(Debug, Clone)]
pub struct FirstLevel {
    cache: Option<Cache>,
    stats: MissStats,
    next_line_prefetch: u32,
}

impl FirstLevel {
    /// The L1 `config` (`None` for an ideal L1) that installs
    /// `next_line_prefetch` sequential lines behind every access (0 for
    /// the instruction side, which never prefetches).
    pub fn new(config: Option<CacheConfig>, next_line_prefetch: u32) -> Self {
        FirstLevel {
            cache: config.map(Cache::new),
            stats: MissStats::new(),
            next_line_prefetch,
        }
    }

    /// The L1 step of one access: returns `true` on an L1 hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let Some(cache) = &mut self.cache else {
            self.stats.record(true);
            return true;
        };
        let hit = cache.access(addr);
        self.stats.record(hit);
        // Next-line "always" prefetch: every data access pulls the
        // following lines in behind it (statistics untouched; future
        // demand accesses to them hit).
        let line = cache.config().line_bytes() as u64;
        for k in 1..=self.next_line_prefetch as u64 {
            cache.install(addr.saturating_add(k * line));
        }
        hit
    }

    /// Accesses and misses of this level (an ideal level counts every
    /// access as a hit).
    pub fn stats(&self) -> &MissStats {
        &self.stats
    }

    /// Invalidates the cache and resets the statistics.
    pub fn flush(&mut self) {
        if let Some(cache) = &mut self.cache {
            cache.flush();
        }
        self.stats.reset();
    }
}

/// Everything below the first level: the unified L2 (`None` is ideal:
/// every L1 miss is short) and the L2 half of next-line prefetch. This
/// is the below-L1 step of [`Hierarchy::access`].
#[derive(Debug, Clone)]
pub struct SecondLevel {
    cache: Option<Cache>,
    /// Lines installed behind each data access: the hierarchy's
    /// prefetch depth when it has an L1D, else 0.
    next_line_prefetch: u32,
    /// The L1D line size the prefetched lines step by.
    line_bytes: u64,
}

impl SecondLevel {
    /// The levels below L1 of `config`.
    pub fn new(config: &HierarchyConfig) -> Self {
        SecondLevel {
            cache: config.l2.map(Cache::new),
            next_line_prefetch: config.l1d.map_or(0, |_| config.next_line_prefetch),
            line_bytes: config.l1d.map_or(0, |l1d| l1d.line_bytes() as u64),
        }
    }

    /// The below-L1 step of one access whose L1 step returned `l1_hit`:
    /// a data access installs its prefetched lines, and an L1 miss
    /// then accesses the L2.
    #[inline]
    pub fn access(&mut self, kind: AccessKind, addr: u64, l1_hit: bool) -> AccessOutcome {
        let Some(cache) = &mut self.cache else {
            return if l1_hit {
                AccessOutcome::L1
            } else {
                AccessOutcome::L2
            };
        };
        if kind != AccessKind::IFetch {
            for k in 1..=self.next_line_prefetch as u64 {
                cache.install(addr.saturating_add(k * self.line_bytes));
            }
        }
        if l1_hit {
            AccessOutcome::L1
        } else if cache.access(addr) {
            AccessOutcome::L2
        } else {
            AccessOutcome::Memory
        }
    }

    /// The L2's own statistics, if an L2 is configured.
    pub fn stats(&self) -> Option<&MissStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Invalidates the L2 and resets its statistics.
    pub fn flush(&mut self) {
        if let Some(cache) = &mut self.cache {
            cache.flush();
        }
    }
}

/// A two-level cache hierarchy: split L1 I/D over a unified L2.
///
/// The hierarchy is *functional*: it models presence only, returning
/// where each access was satisfied. Latency assignment is the business
/// of the model / detailed simulator.
///
/// # Examples
///
/// ```
/// use fosm_cache::{AccessKind, AccessOutcome, Hierarchy, HierarchyConfig};
///
/// # fn main() -> Result<(), fosm_cache::CacheError> {
/// let mut h = Hierarchy::new(HierarchyConfig::baseline())?;
/// assert_eq!(h.access(AccessKind::IFetch, 0x400000), AccessOutcome::Memory);
/// assert_eq!(h.access(AccessKind::IFetch, 0x400000), AccessOutcome::L1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1i: FirstLevel,
    l1d: FirstLevel,
    l2: SecondLevel,
}

impl Hierarchy {
    /// Builds a hierarchy from a validated configuration.
    ///
    /// # Errors
    ///
    /// Currently infallible for configurations built through
    /// [`CacheConfig::new`]; the `Result` reserves room for
    /// cross-level validation (e.g. inclusive-hierarchy line-size
    /// checks) without a breaking change.
    pub fn new(config: HierarchyConfig) -> Result<Self, CacheError> {
        Ok(Hierarchy {
            config,
            l1i: FirstLevel::new(config.l1i, 0),
            l1d: FirstLevel::new(config.l1d, config.next_line_prefetch),
            l2: SecondLevel::new(&config),
        })
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Performs one access and reports where it was satisfied: the L1
    /// step ([`FirstLevel::access`]) then the below-L1 step
    /// ([`SecondLevel::access`]).
    ///
    /// An ideal (absent) L1 hits every access. An ideal L2 turns every
    /// L1 miss into a short (L2) miss.
    pub fn access(&mut self, kind: AccessKind, addr: u64) -> AccessOutcome {
        let l1 = match kind {
            AccessKind::IFetch => &mut self.l1i,
            AccessKind::Load | AccessKind::Store => &mut self.l1d,
        };
        let l1_hit = l1.access(addr);
        self.l2.access(kind, addr, l1_hit)
    }

    /// Instruction-fetch L1 statistics (accesses and misses).
    pub fn ifetch_stats(&self) -> &MissStats {
        self.l1i.stats()
    }

    /// Data-access L1 statistics (loads + stores).
    pub fn data_stats(&self) -> &MissStats {
        self.l1d.stats()
    }

    /// The L2 cache's own statistics, if an L2 is configured.
    pub fn l2_stats(&self) -> Option<&MissStats> {
        self.l2.stats()
    }

    /// Flushes every level's access/miss totals into `registry`
    /// under `<prefix>.l1i`, `<prefix>.l1d`, and `<prefix>.l2`.
    pub fn observe_into(&self, registry: &fosm_obs::Registry, prefix: &str) {
        observe_levels(
            registry,
            prefix,
            self.ifetch_stats(),
            self.data_stats(),
            self.l2_stats(),
        );
    }

    /// Invalidates all levels and resets statistics.
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
    }
}

/// Flushes one hierarchy's per-level totals into `registry` under
/// `<prefix>.l1i`, `<prefix>.l1d`, and (when there is an L2)
/// `<prefix>.l2` — the one naming rule for the hierarchy's counters,
/// whether its levels are owned or shared.
pub fn observe_levels(
    registry: &fosm_obs::Registry,
    prefix: &str,
    l1i: &MissStats,
    l1d: &MissStats,
    l2: Option<&MissStats>,
) {
    l1i.observe_into(registry, &format!("{prefix}.l1i"));
    l1d.observe_into(registry, &format!("{prefix}.l1d"));
    if let Some(l2) = l2 {
        l2.observe_into(registry, &format!("{prefix}.l2"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Replacement;

    fn small() -> Hierarchy {
        // Tiny L1s (2 lines) over a slightly bigger L2 (8 lines).
        let l1 = CacheConfig::new(128, 2, 64, Replacement::Lru).unwrap();
        let l2 = CacheConfig::new(512, 2, 64, Replacement::Lru).unwrap();
        Hierarchy::new(HierarchyConfig {
            l1i: Some(l1),
            l1d: Some(l1),
            l2: Some(l2),
            next_line_prefetch: 0,
        })
        .unwrap()
    }

    #[test]
    fn miss_path_memory_then_l1() {
        let mut h = small();
        assert_eq!(h.access(AccessKind::Load, 0x1000), AccessOutcome::Memory);
        assert_eq!(h.access(AccessKind::Load, 0x1000), AccessOutcome::L1);
    }

    #[test]
    fn l2_catches_l1_capacity_misses() {
        let mut h = small();
        // Touch 3 lines (L1 holds 2, L2 holds all 3).
        for i in 0..3u64 {
            h.access(AccessKind::Load, i * 64);
        }
        // Line 0 was evicted from L1 but lives in L2.
        assert_eq!(h.access(AccessKind::Load, 0), AccessOutcome::L2);
    }

    #[test]
    fn ifetch_and_data_use_separate_l1s() {
        let mut h = small();
        h.access(AccessKind::IFetch, 0x0);
        // Same address as data: separate L1, so still a miss — but the
        // unified L2 now holds the line.
        assert_eq!(h.access(AccessKind::Load, 0x0), AccessOutcome::L2);
        assert_eq!(h.ifetch_stats().accesses(), 1);
        assert_eq!(h.data_stats().accesses(), 1);
    }

    #[test]
    fn ideal_hierarchy_always_hits() {
        let mut h = Hierarchy::new(HierarchyConfig::ideal()).unwrap();
        for i in 0..1000u64 {
            assert_eq!(h.access(AccessKind::Load, i * 4096), AccessOutcome::L1);
        }
        assert_eq!(h.data_stats().misses(), 0);
    }

    #[test]
    fn ideal_l2_yields_short_misses_only() {
        let l1 = CacheConfig::new(128, 2, 64, Replacement::Lru).unwrap();
        let mut h = Hierarchy::new(HierarchyConfig {
            l1i: None,
            l1d: Some(l1),
            l2: None,
            next_line_prefetch: 0,
        })
        .unwrap();
        for i in 0..100u64 {
            let out = h.access(AccessKind::Load, i * 64);
            assert_ne!(out, AccessOutcome::Memory);
        }
    }

    #[test]
    fn next_line_prefetch_turns_stream_misses_into_hits() {
        let l1 = CacheConfig::new(512, 4, 64, Replacement::Lru).unwrap();
        let mut cfg = HierarchyConfig {
            l1i: None,
            l1d: Some(l1),
            l2: None,
            next_line_prefetch: 1,
        };
        let mut with = Hierarchy::new(cfg).unwrap();
        cfg.next_line_prefetch = 0;
        let mut without = Hierarchy::new(cfg).unwrap();
        // Sequential stream: every line crossing misses without
        // prefetch; with next-line prefetch only the first one does.
        for i in 0..64u64 {
            with.access(AccessKind::Load, i * 64);
            without.access(AccessKind::Load, i * 64);
        }
        assert!(without.data_stats().misses() >= 60);
        assert!(
            with.data_stats().misses() <= 2,
            "prefetch should absorb the stream, got {}",
            with.data_stats().misses()
        );
    }

    #[test]
    fn stores_allocate_like_loads() {
        let mut h = small();
        assert_eq!(h.access(AccessKind::Store, 0x40), AccessOutcome::Memory);
        assert_eq!(h.access(AccessKind::Load, 0x40), AccessOutcome::L1);
    }

    #[test]
    fn flush_restores_cold_state() {
        let mut h = small();
        h.access(AccessKind::Load, 0x0);
        h.flush();
        assert_eq!(h.access(AccessKind::Load, 0x0), AccessOutcome::Memory);
        assert_eq!(h.data_stats().accesses(), 1);
    }
}
