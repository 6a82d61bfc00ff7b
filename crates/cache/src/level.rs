//! A single set-associative cache level.

use crate::{CacheConfig, CacheError, MissStats, Replacement};

/// One way (line slot) of a set.
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    valid: bool,
    tag: u64,
    /// LRU: last-touch stamp. FIFO: fill stamp. Random: unused.
    stamp: u64,
}

/// A single set-associative cache level.
///
/// `Cache` tracks only line presence (tags), which is all a performance
/// model needs; no data is stored. Accesses update replacement state and
/// the embedded [`MissStats`].
///
/// # Examples
///
/// ```
/// use fosm_cache::{Cache, CacheConfig, Replacement};
///
/// # fn main() -> Result<(), fosm_cache::CacheError> {
/// let mut c = Cache::new(CacheConfig::new(256, 2, 64, Replacement::Lru)?);
/// assert!(!c.access(0x00)); // cold miss
/// assert!(c.access(0x3f));  // same 64-byte line: hit
/// assert_eq!(c.stats().misses(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// log2 of the line size and of the set count (both powers of two,
    /// enforced by [`CacheConfig::new`]): set and tag by shift and mask.
    line_shift: u32,
    set_shift: u32,
    ways: Vec<Way>, // num_sets * assoc, set-major
    clock: u64,
    rng: u64, // xorshift state for Replacement::Random
    stats: MissStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let slots = (config.num_sets() * config.assoc() as u64) as usize;
        Cache {
            config,
            line_shift: config.line_bytes().trailing_zeros(),
            set_shift: config.num_sets().trailing_zeros(),
            ways: vec![Way::default(); slots],
            clock: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            stats: MissStats::new(),
        }
    }

    /// Convenience constructor validating geometry in one step.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheError`] from [`CacheConfig::new`].
    pub fn with_geometry(
        size_bytes: u64,
        assoc: u32,
        line_bytes: u32,
        replacement: Replacement,
    ) -> Result<Self, CacheError> {
        Ok(Cache::new(CacheConfig::new(
            size_bytes,
            assoc,
            line_bytes,
            replacement,
        )?))
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access statistics accumulated so far.
    pub fn stats(&self) -> &MissStats {
        &self.stats
    }

    /// The (set index, tag) of a byte address: the same split as
    /// [`CacheConfig::decompose`], without its divisions.
    #[inline]
    fn decompose(&self, addr: u64) -> (u64, u64) {
        let line = addr >> self.line_shift;
        (line & ((1 << self.set_shift) - 1), line >> self.set_shift)
    }

    /// Accesses the line containing `addr`, allocating on miss.
    ///
    /// Returns `true` on hit. Loads, stores, and instruction fetches are
    /// treated identically (allocate-on-miss, no write-back modeling —
    /// only hit/miss behaviour affects the performance model).
    pub fn access(&mut self, addr: u64) -> bool {
        let hit = self.touch(addr);
        self.stats.record(hit);
        hit
    }

    /// Installs the line containing `addr` without recording an access
    /// (used for prefetch fills). A resident line is refreshed as
    /// most-recently-used under LRU; an absent line allocates a victim
    /// exactly like a demand miss, but neither case touches the
    /// statistics.
    pub fn install(&mut self, addr: u64) {
        self.touch(addr);
    }

    /// The replacement-state half of [`access`](Self::access) and
    /// [`install`](Self::install): refreshes a resident line, or fills
    /// a victim way. Returns `true` if the line was resident.
    fn touch(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let (set, tag) = self.decompose(addr);
        let assoc = self.config.assoc() as usize;
        let base = set as usize * assoc;
        let set_ways = &mut self.ways[base..base + assoc];

        if let Some(way) = set_ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            if self.config.replacement() == Replacement::Lru {
                way.stamp = self.clock;
            }
            return true;
        }

        // Miss: pick a victim (prefer an invalid way).
        let victim = if let Some(i) = set_ways.iter().position(|w| !w.valid) {
            i
        } else {
            match self.config.replacement() {
                Replacement::Lru | Replacement::Fifo => set_ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.stamp)
                    .map(|(i, _)| i)
                    .expect("associativity is non-zero"),
                Replacement::Random => {
                    // xorshift64*
                    self.rng ^= self.rng >> 12;
                    self.rng ^= self.rng << 25;
                    self.rng ^= self.rng >> 27;
                    (self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % assoc as u64) as usize
                }
            }
        };
        set_ways[victim] = Way {
            valid: true,
            tag,
            stamp: self.clock,
        };
        false
    }

    /// Checks whether the line containing `addr` is resident, without
    /// updating replacement state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.decompose(addr);
        let assoc = self.config.assoc() as usize;
        let base = set as usize * assoc;
        self.ways[base..base + assoc]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Invalidates every line and resets statistics.
    pub fn flush(&mut self) {
        self.ways.fill(Way::default());
        self.clock = 0;
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: u32, policy: Replacement) -> Cache {
        // 1 set of `assoc` 64-byte lines.
        Cache::with_geometry(64 * assoc as u64, assoc, 64, policy).unwrap()
    }

    /// Address of the i-th distinct line mapping to set 0 of `tiny`.
    fn line(i: u64) -> u64 {
        i * 64
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(2, Replacement::Lru);
        assert!(!c.access(line(0)));
        assert!(c.access(line(0)));
        assert!(c.access(line(0) + 63)); // same line
        assert_eq!(c.stats().accesses(), 3);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny(2, Replacement::Lru);
        c.access(line(0));
        c.access(line(1));
        c.access(line(0)); // line 0 now most recent
        c.access(line(2)); // evicts line 1
        assert!(c.probe(line(0)));
        assert!(!c.probe(line(1)));
        assert!(c.probe(line(2)));
    }

    #[test]
    fn fifo_evicts_oldest_fill_even_if_recently_used() {
        let mut c = tiny(2, Replacement::Fifo);
        c.access(line(0));
        c.access(line(1));
        c.access(line(0)); // touch does NOT refresh FIFO age
        c.access(line(2)); // evicts line 0 (oldest fill)
        assert!(!c.probe(line(0)));
        assert!(c.probe(line(1)));
        assert!(c.probe(line(2)));
    }

    #[test]
    fn random_replacement_keeps_exactly_assoc_lines() {
        let mut c = tiny(4, Replacement::Random);
        for i in 0..100 {
            c.access(line(i));
        }
        let resident = (0..100).filter(|&i| c.probe(line(i))).count();
        assert_eq!(resident, 4);
    }

    #[test]
    fn probe_does_not_perturb_state() {
        let mut c = tiny(2, Replacement::Lru);
        c.access(line(0));
        c.access(line(1));
        // Probing line 0 must NOT make it most-recently-used.
        assert!(c.probe(line(0)));
        c.access(line(2)); // LRU victim is still line 0
        assert!(!c.probe(line(0)));
        assert_eq!(c.stats().accesses(), 3); // probes uncounted
    }

    #[test]
    fn install_allocates_without_counting() {
        let mut c = tiny(2, Replacement::Lru);
        c.install(line(0));
        assert!(c.probe(line(0)));
        assert_eq!(c.stats().accesses(), 0);
        // Subsequent demand access hits.
        assert!(c.access(line(0)));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny(2, Replacement::Lru);
        c.access(line(0));
        c.flush();
        assert!(!c.probe(line(0)));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        // 2 sets, direct-mapped, 64-byte lines.
        let mut c = Cache::with_geometry(128, 1, 64, Replacement::Lru).unwrap();
        c.access(0); // set 0
        c.access(64); // set 1
        assert!(c.probe(0));
        assert!(c.probe(64));
        c.access(128); // set 0 again -> evicts addr 0
        assert!(!c.probe(0));
        assert!(c.probe(64));
    }

    #[test]
    fn shift_indexing_matches_the_config_split() {
        for (size, assoc, line) in [
            (4096, 4, 128),
            (512 * 1024, 4, 128),
            (1024, 8, 128),
            (128, 1, 64),
        ] {
            let cache = Cache::with_geometry(size, assoc, line, Replacement::Lru).unwrap();
            for addr in [
                0,
                63,
                64,
                127,
                4095,
                0x1234_5678,
                0x7fff_0000_1238,
                u64::MAX,
            ] {
                assert_eq!(cache.decompose(addr), cache.config().decompose(addr));
            }
        }
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes_lru() {
        // Direct truth: cyclic sweep over assoc+1 lines in one LRU set
        // misses every time.
        let mut c = tiny(2, Replacement::Lru);
        for round in 0..10 {
            for i in 0..3 {
                let hit = c.access(line(i));
                if round > 0 {
                    assert!(!hit, "cyclic sweep must thrash LRU");
                }
            }
        }
    }
}
