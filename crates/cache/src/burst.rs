//! Long-miss clustering statistics — the f_LDM(i) of paper eq. (8).
//!
//! Long data-cache misses (L2 misses) that occur within a
//! reorder-buffer's worth of instructions of each other overlap: their
//! memory latencies are paid once, not serially (paper §4.3, Fig. 13).
//! Equation (8) therefore weights the isolated miss penalty by
//! `Σ f_LDM(i) / i`, where `f_LDM(i)` is the probability that a long
//! miss belongs to a cluster of `i` overlapping misses.
//!
//! This module collects long-miss positions during functional cache
//! simulation ([`LongMissRecorder`]) and converts them, for a given ROB
//! size, into the cluster-size distribution ([`BurstDistribution`]).

use serde::{Deserialize, Serialize};

/// How consecutive long misses are assigned to the same cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum GroupingRule {
    /// A miss joins the current cluster if it is within `rob_size`
    /// instructions of the cluster's *first* miss. This matches the
    /// paper's physical argument: a second load can only overlap the
    /// first if it fits in the ROB behind it.
    #[default]
    FromLeader,
    /// A miss joins if it is within `rob_size` instructions of the
    /// *previous* miss (chains may exceed `rob_size` overall).
    FromPrevious,
}

/// Records the dynamic instruction index of every long data-cache miss.
///
/// # Examples
///
/// ```
/// use fosm_cache::LongMissRecorder;
///
/// let mut rec = LongMissRecorder::new();
/// rec.record(100);
/// rec.record(150);  // within a 128-entry ROB of the first -> overlaps
/// rec.record(5_000);
/// let dist = rec.distribution(128);
/// assert_eq!(dist.num_groups(), 2);
/// assert!((dist.overlap_factor() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct LongMissRecorder {
    indices: Vec<u64>,
    /// For each miss, the id (index into `indices`) of the most recent
    /// earlier miss its *address* transitively depends on, if any.
    depends_on: Vec<Option<u64>>,
}

impl LongMissRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LongMissRecorder::default()
    }

    /// Records an (address-)independent long miss at dynamic
    /// instruction index `inst_index`.
    ///
    /// # Panics
    ///
    /// Panics if indices are recorded out of order — the recorder is
    /// fed from a single forward pass over the trace.
    pub fn record(&mut self, inst_index: u64) {
        self.record_dependent(inst_index, None);
    }

    /// Records a long miss whose address depends (transitively, through
    /// registers) on the result of an earlier long miss.
    ///
    /// `depends_on` is the id of that earlier miss — ids number misses
    /// in record order, so the miss being recorded gets id
    /// [`count()`](Self::count) *before* this call. A dependent miss
    /// cannot overlap the miss it depends on: its address is not even
    /// known until the data returns. Tracking this refines the paper's
    /// eq. 8 (which assumes clustered misses are independent, flagged
    /// in §7 as the model's "weak link").
    ///
    /// # Panics
    ///
    /// Panics if indices go backwards or `depends_on` is not an
    /// earlier miss id.
    pub fn record_dependent(&mut self, inst_index: u64, depends_on: Option<u64>) {
        if let Some(&last) = self.indices.last() {
            assert!(
                inst_index >= last,
                "long-miss indices must be non-decreasing ({inst_index} after {last})"
            );
        }
        if let Some(d) = depends_on {
            assert!(
                d < self.indices.len() as u64,
                "depends_on {d} must reference an earlier miss (have {})",
                self.indices.len()
            );
        }
        self.indices.push(inst_index);
        self.depends_on.push(depends_on);
    }

    /// Number of long misses recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.indices.len() as u64
    }

    /// The raw miss positions.
    pub fn indices(&self) -> &[u64] {
        &self.indices
    }

    /// Builds the cluster-size distribution for a machine with
    /// `rob_size` reorder-buffer entries, using the default
    /// [`GroupingRule::FromLeader`] rule.
    pub fn distribution(&self, rob_size: u32) -> BurstDistribution {
        self.distribution_with(rob_size, GroupingRule::FromLeader)
    }

    /// Builds the cluster-size distribution with the paper's original
    /// rule: dependence information is ignored and clustering is purely
    /// positional (every miss within the ROB reach of the leader joins
    /// the cluster). Used for ablations against the dependence-aware
    /// default.
    pub fn distribution_paper(&self, rob_size: u32) -> BurstDistribution {
        let independent = LongMissRecorder {
            indices: self.indices.clone(),
            depends_on: vec![None; self.depends_on.len()],
        };
        independent.distribution(rob_size)
    }

    /// Builds the cluster-size distribution under an explicit grouping rule.
    ///
    /// A miss starts a new cluster when it falls outside the ROB reach
    /// of the cluster's anchor, **or** when its address depends on a
    /// miss belonging to the current cluster (it cannot issue — its
    /// address is unknown — until that miss's data returns, so its
    /// latency serializes rather than overlapping).
    pub fn distribution_with(&self, rob_size: u32, rule: GroupingRule) -> BurstDistribution {
        let mut sizes: Vec<u64> = Vec::new();
        let mut push_group = |size: u64| {
            let s = size as usize;
            if sizes.len() <= s {
                sizes.resize(s + 1, 0);
            }
            sizes[s] += 1;
        };
        if let Some(&first) = self.indices.first() {
            let mut anchor = first; // leader (FromLeader) or previous (FromPrevious)
            let mut leader_id = 0u64; // id of the cluster's first miss
            let mut size = 1u64;
            for (id, &idx) in self.indices.iter().enumerate().skip(1) {
                let depends_in_group = self.depends_on[id].is_some_and(|d| d >= leader_id);
                if idx - anchor < rob_size as u64 && !depends_in_group {
                    size += 1;
                    if rule == GroupingRule::FromPrevious {
                        anchor = idx;
                    }
                } else {
                    push_group(size);
                    anchor = idx;
                    leader_id = id as u64;
                    size = 1;
                }
            }
            push_group(size);
        }
        BurstDistribution::from_group_sizes(sizes)
    }
}

/// Distribution of long-miss cluster sizes — f_LDM(i) of paper eq. (8).
///
/// The [`Default`] distribution is empty (no misses).
///
/// `probability(i)` is the probability that a given long miss is part of
/// a cluster of exactly `i` overlapping misses. The model's penalty
/// scaling factor `Σ f(i)/i` is exposed as
/// [`overlap_factor`](BurstDistribution::overlap_factor); it equals
/// `clusters / misses` and lies in `(0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct BurstDistribution {
    /// `group_counts[i]` = number of clusters of size `i` (index 0 unused).
    group_counts: Vec<u64>,
    misses: u64,
    groups: u64,
}

impl BurstDistribution {
    /// Builds a distribution from per-size cluster counts
    /// (`group_counts[i]` clusters of size `i`; index 0 ignored).
    pub fn from_group_sizes(group_counts: Vec<u64>) -> Self {
        let misses = group_counts
            .iter()
            .enumerate()
            .map(|(i, &n)| i as u64 * n)
            .sum();
        let groups = group_counts.iter().skip(1).sum();
        BurstDistribution {
            group_counts,
            misses,
            groups,
        }
    }

    /// A distribution in which every miss is isolated — the natural
    /// assumption when no clustering data is available.
    pub fn all_isolated(misses: u64) -> Self {
        BurstDistribution::from_group_sizes(vec![0, misses])
    }

    /// Total long misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total clusters.
    pub fn num_groups(&self) -> u64 {
        self.groups
    }

    /// f_LDM(i): probability a miss belongs to a cluster of size `i`.
    pub fn probability(&self, size: usize) -> f64 {
        if self.misses == 0 {
            return 0.0;
        }
        let count = self.group_counts.get(size).copied().unwrap_or(0);
        (size as u64 * count) as f64 / self.misses as f64
    }

    /// The model's penalty scaling factor `Σ_i f(i)/i = clusters/misses`.
    ///
    /// 1.0 when every miss is isolated; approaches 0 as clustering
    /// grows. Returns 1.0 for an empty distribution (no misses → the
    /// factor multiplies a zero count anyway).
    pub fn overlap_factor(&self) -> f64 {
        if self.misses == 0 {
            1.0
        } else {
            self.groups as f64 / self.misses as f64
        }
    }

    /// Mean cluster size (`misses / clusters`); 0.0 when empty.
    pub fn mean_group_size(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.misses as f64 / self.groups as f64
        }
    }

    /// Largest observed cluster size (0 when empty).
    pub fn max_group_size(&self) -> usize {
        self.group_counts.iter().rposition(|&n| n > 0).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_yields_empty_distribution() {
        let rec = LongMissRecorder::new();
        let d = rec.distribution(128);
        assert_eq!(d.misses(), 0);
        assert_eq!(d.num_groups(), 0);
        assert_eq!(d.overlap_factor(), 1.0);
        assert_eq!(d.mean_group_size(), 0.0);
        assert_eq!(d.max_group_size(), 0);
    }

    #[test]
    fn isolated_misses_have_factor_one() {
        let mut rec = LongMissRecorder::new();
        for i in 0..10 {
            rec.record(i * 10_000);
        }
        let d = rec.distribution(128);
        assert_eq!(d.num_groups(), 10);
        assert_eq!(d.overlap_factor(), 1.0);
        assert_eq!(d.probability(1), 1.0);
        assert_eq!(d.probability(2), 0.0);
    }

    #[test]
    fn paired_misses_halve_the_factor() {
        // Pairs 50 apart, pairs separated by 10_000: with rob=128 each
        // pair clusters; eq. (7) says the factor is 1/2.
        let mut rec = LongMissRecorder::new();
        for i in 0..10u64 {
            rec.record(i * 10_000);
            rec.record(i * 10_000 + 50);
        }
        let d = rec.distribution(128);
        assert_eq!(d.num_groups(), 10);
        assert_eq!(d.misses(), 20);
        assert!((d.overlap_factor() - 0.5).abs() < 1e-12);
        assert_eq!(d.probability(2), 1.0);
        assert_eq!(d.mean_group_size(), 2.0);
        assert_eq!(d.max_group_size(), 2);
    }

    #[test]
    fn leader_rule_splits_long_chains() {
        // Misses every 100 instructions; rob = 250. FromLeader: leader
        // at 0 captures 100 and 200; 300 starts a new group.
        let mut rec = LongMissRecorder::new();
        for i in 0..6u64 {
            rec.record(i * 100);
        }
        let d = rec.distribution_with(250, GroupingRule::FromLeader);
        assert_eq!(d.num_groups(), 2);
        assert_eq!(d.probability(3), 1.0);

        // FromPrevious: each consecutive gap (100) is < 250, one chain.
        let d = rec.distribution_with(250, GroupingRule::FromPrevious);
        assert_eq!(d.num_groups(), 1);
        assert_eq!(d.probability(6), 1.0);
    }

    #[test]
    fn boundary_distance_exactly_rob_size_does_not_cluster() {
        let mut rec = LongMissRecorder::new();
        rec.record(0);
        rec.record(128); // distance == rob_size -> does NOT fit behind leader
        let d = rec.distribution(128);
        assert_eq!(d.num_groups(), 2);
        rec.record(255);
        // 255 is within 128 of 128? 255-128=127 < 128 yes, clusters with it.
        let d = rec.distribution(128);
        assert_eq!(d.num_groups(), 2);
        assert_eq!(d.probability(2), 2.0 / 3.0);
    }

    #[test]
    fn paper_distribution_ignores_dependence() {
        let mut rec = LongMissRecorder::new();
        rec.record_dependent(0, None);
        rec.record_dependent(40, Some(0));
        assert_eq!(rec.distribution(128).num_groups(), 2);
        assert_eq!(rec.distribution_paper(128).num_groups(), 1);
    }

    #[test]
    fn dependent_misses_split_clusters() {
        // Three misses within one ROB reach; the second depends on the
        // first, so it cannot overlap it.
        let mut rec = LongMissRecorder::new();
        rec.record_dependent(0, None);
        rec.record_dependent(40, Some(0)); // depends on the leader
        rec.record_dependent(80, None);
        let d = rec.distribution(128);
        // Groups: {0} and {40, 80}.
        assert_eq!(d.num_groups(), 2);
        assert!((d.overlap_factor() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dependence_on_completed_misses_does_not_split() {
        // The third miss depends on miss 0, which belongs to a
        // *previous* cluster (its data has long returned).
        let mut rec = LongMissRecorder::new();
        rec.record_dependent(0, None);
        rec.record_dependent(10_000, None); // new cluster, leader id 1
        rec.record_dependent(10_040, Some(0)); // old dependence: overlaps
        let d = rec.distribution(128);
        assert_eq!(d.num_groups(), 2);
        assert_eq!(d.probability(2), 2.0 / 3.0);
    }

    #[test]
    fn fully_dependent_chain_serializes_completely() {
        let mut rec = LongMissRecorder::new();
        rec.record_dependent(0, None);
        for i in 1..10u64 {
            rec.record_dependent(i * 20, Some(i - 1));
        }
        let d = rec.distribution(128);
        assert_eq!(d.num_groups(), 10);
        assert_eq!(d.overlap_factor(), 1.0);
    }

    #[test]
    #[should_panic(expected = "earlier miss")]
    fn forward_dependence_rejected() {
        let mut rec = LongMissRecorder::new();
        rec.record_dependent(0, Some(0)); // no miss 0 exists yet
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_indices_rejected() {
        let mut rec = LongMissRecorder::new();
        rec.record(100);
        rec.record(50);
    }

    #[test]
    fn all_isolated_constructor() {
        let d = BurstDistribution::all_isolated(7);
        assert_eq!(d.misses(), 7);
        assert_eq!(d.overlap_factor(), 1.0);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let d = BurstDistribution::from_group_sizes(vec![0, 3, 2, 1]); // 3+4+3 = 10 misses
        let sum: f64 = (1..=3).map(|i| d.probability(i)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((d.overlap_factor() - 6.0 / 10.0).abs() < 1e-12);
    }
}
