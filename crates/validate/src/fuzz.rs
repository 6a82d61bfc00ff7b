//! Differential fuzzing: random valid machines × random workload
//! seeds, checked model-vs-simulator, shrunk to minimal reproducers.
//!
//! The gate sweep only exercises the paper's baseline machine; model
//! bugs that cancel there (an overlap factor applied twice, a penalty
//! missing a `pipe_depth` term) surface on machines the baseline never
//! visits. A fuzz case is a compact, fully-deterministic description of
//! one such machine + workload draw; [`check`] runs the differential
//! comparison plus model-only invariants on it, and [`shrink`] reduces
//! a failing case toward the baseline — first greedily field-by-field,
//! then by bisecting each numeric field — so the checked-in reproducer
//! is minimal.
//!
//! The vendored `proptest` shim generates cases in the test suite but
//! cannot shrink; shrinking here is custom and deterministic, so a
//! failure reported by CI reproduces bit-for-bit locally.

use serde::{Deserialize, Serialize};

use fosm_bench::store::ArtifactStore;
use fosm_core::model::FirstOrderModel;
use fosm_workloads::BenchmarkSpec;

use crate::differential::{CaseSpec, Component};
use crate::tolerance::ToleranceSpec;

/// A compact, deterministic machine + workload draw.
///
/// Structural fields map onto [`fosm_sim::MachineConfig`] with the
/// baseline cache hierarchy and predictor (the miss-event *sources*
/// stay fixed; the fuzzer explores the machine geometry the model's
/// equations parameterize over).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuzzCase {
    /// Machine width (fetch/issue/retire).
    pub width: u32,
    /// Issue-window entries.
    pub win_size: u32,
    /// Reorder-buffer entries (≥ `win_size`).
    pub rob_size: u32,
    /// Front-end pipeline depth.
    pub pipe_depth: u32,
    /// L2 access latency.
    pub l2_latency: u32,
    /// Main-memory latency (> `l2_latency`).
    pub mem_latency: u32,
    /// Index into [`BenchmarkSpec::all`] (taken modulo the suite size).
    pub bench_index: u32,
    /// Workload generator seed.
    pub seed: u64,
}

impl FuzzCase {
    /// The paper's baseline geometry on one workload — the shrink
    /// target: every failing case is reduced *toward* this point.
    pub fn baseline(bench_index: u32, seed: u64) -> Self {
        FuzzCase {
            width: 4,
            win_size: 48,
            rob_size: 128,
            pipe_depth: 5,
            l2_latency: 8,
            mem_latency: 200,
            bench_index,
            seed,
        }
    }

    /// Draws a random case from `rng`. Always structurally valid:
    /// `rob_size ≥ win_size` and `mem_latency > l2_latency` by
    /// construction.
    pub fn arbitrary(rng: &mut FuzzRng) -> Self {
        let width = rng.in_range(1, 8) as u32;
        let win_size = rng.in_range(4, 128) as u32;
        let rob_size = rng.in_range(win_size as u64, 256) as u32;
        let l2_latency = rng.in_range(2, 16) as u32;
        FuzzCase {
            width,
            win_size,
            rob_size,
            pipe_depth: rng.in_range(1, 12) as u32,
            l2_latency,
            mem_latency: rng.in_range(l2_latency as u64 + 1, 400) as u32,
            bench_index: rng.in_range(0, BenchmarkSpec::all().len() as u64 - 1) as u32,
            seed: rng.in_range(0, 1 << 20),
        }
    }

    /// The machine configuration this case describes.
    pub fn config(&self) -> fosm_sim::MachineConfig {
        fosm_sim::MachineConfig {
            width: self.width,
            win_size: self.win_size,
            rob_size: self.rob_size,
            pipe_depth: self.pipe_depth,
            l2_latency: self.l2_latency,
            mem_latency: self.mem_latency,
            ..fosm_sim::MachineConfig::baseline()
        }
    }

    /// Whether the described machine passes structural validation.
    pub fn is_valid(&self) -> bool {
        self.config().validate().is_ok()
    }

    /// The workload this case draws.
    pub fn spec(&self) -> BenchmarkSpec {
        let all = BenchmarkSpec::all();
        all[(self.bench_index as usize) % all.len()].clone()
    }

    /// The differential-validation case this fuzz case expands to.
    pub fn case_spec(&self, trace_len: u64) -> CaseSpec {
        CaseSpec {
            config: self.config(),
            bench: self.spec(),
            trace_len,
            seed: self.seed,
        }
    }

    const FIELDS: usize = 8;

    fn field(&self, i: usize) -> u64 {
        match i {
            0 => self.width as u64,
            1 => self.win_size as u64,
            2 => self.rob_size as u64,
            3 => self.pipe_depth as u64,
            4 => self.l2_latency as u64,
            5 => self.mem_latency as u64,
            6 => self.bench_index as u64,
            7 => self.seed,
            _ => unreachable!("FuzzCase has {} fields", Self::FIELDS),
        }
    }

    fn with_field(mut self, i: usize, v: u64) -> Self {
        match i {
            0 => self.width = v as u32,
            1 => self.win_size = v as u32,
            2 => self.rob_size = v as u32,
            3 => self.pipe_depth = v as u32,
            4 => self.l2_latency = v as u32,
            5 => self.mem_latency = v as u32,
            6 => self.bench_index = v as u32,
            7 => self.seed = v,
            _ => unreachable!("FuzzCase has {} fields", Self::FIELDS),
        }
        self
    }
}

/// A deterministic splitmix64 generator — the fuzzer must reproduce
/// bit-for-bit from a seed, with no dependence on ambient entropy.
#[derive(Debug, Clone)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// A generator with the given seed.
    pub fn new(seed: u64) -> Self {
        FuzzRng { state: seed }
    }

    /// The next raw 64-bit draw (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `[lo, hi]` (inclusive; `lo` when the range is empty).
    pub fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Why a fuzz case failed, with the shrunk reproducer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuzzFailure {
    /// The original failing draw.
    pub case: FuzzCase,
    /// The minimal reproducer after shrinking (fails for the same
    /// check function, possibly with a different reason string).
    pub shrunk: FuzzCase,
    /// The shrunk case's failure description.
    pub reason: String,
    /// How many cases passed before this one failed.
    pub cases_passed: u64,
}

/// Result of a fuzz run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FuzzOutcome {
    /// Every case passed.
    Clean {
        /// Number of cases checked.
        cases: u64,
    },
    /// A case failed; it was shrunk to a minimal reproducer.
    Failed(FuzzFailure),
}

/// Checks every fuzz invariant on one case.
///
/// Invariants, in check order:
///
/// 1. the machine validates structurally;
/// 2. every model component and penalty is finite and non-negative;
/// 3. the long-miss overlap factor respects eq. 7–8 bounds (in `[0,1]`,
///    and the per-miss penalty never exceeds the isolated
///    `mem_latency + fill` bound);
/// 4. the model is monotone in miss rates: doubling mispredictions
///    (resp. I-cache misses) must not *decrease* the branch (resp.
///    I-cache) adder;
/// 5. every differential component is inside `tol`'s band.
///
/// # Errors
///
/// Returns a human-readable description of the first violated
/// invariant.
pub fn check(
    store: &ArtifactStore,
    case: &FuzzCase,
    trace_len: u64,
    tol: &ToleranceSpec,
) -> Result<(), String> {
    case.config()
        .validate()
        .map_err(|e| format!("invalid machine: {e}"))?;

    let case_spec = case.case_spec(trace_len);
    let result = crate::differential::run_case(store, &case_spec, tol)
        .map_err(|e| format!("differential case failed: {e}"))?;

    // 2: finiteness and sign of the model side.
    for row in &result.components {
        if !row.model.is_finite() {
            return Err(format!(
                "model {} component is not finite: {}",
                row.component.name(),
                row.model
            ));
        }
        if row.component != Component::Base && row.model < -1e-9 {
            return Err(format!(
                "model {} adder is negative: {}",
                row.component.name(),
                row.model
            ));
        }
    }
    let base = result.row(Component::Base);
    if base.model <= 0.0 {
        return Err(format!("steady-state CPI must be positive: {}", base.model));
    }

    // 3–4: model-only invariants on the case's own profile.
    let params = fosm_bench::harness::params_of(&case_spec.config);
    let profile = store
        .profile_with(
            &params,
            &case_spec.config.hierarchy,
            case_spec.config.predictor,
            &case_spec.bench.name,
            &case_spec.bench,
            trace_len,
            case_spec.seed,
        )
        .map_err(|e| format!("profile collection failed: {e}"))?;
    let model = FirstOrderModel::new(params);
    let est = model
        .evaluate(&profile)
        .map_err(|e| format!("model evaluation failed: {e}"))?;

    let overlap = profile.long_miss_distribution.overlap_factor();
    if !(0.0..=1.0).contains(&overlap) {
        return Err(format!("overlap factor outside [0,1]: {overlap}"));
    }
    if est.dcache_penalty_per_miss < 0.0 || !est.dcache_penalty_per_miss.is_finite() {
        return Err(format!(
            "per-miss d-cache penalty out of range: {}",
            est.dcache_penalty_per_miss
        ));
    }

    let mut more_mispredicts = (*profile).clone();
    more_mispredicts.mispredicts =
        (more_mispredicts.mispredicts * 2).min(more_mispredicts.cond_branches);
    if let Ok(worse) = model.evaluate(&more_mispredicts) {
        if worse.branch_cpi + 1e-9 < est.branch_cpi {
            return Err(format!(
                "branch adder decreased when mispredictions rose: {} -> {}",
                est.branch_cpi, worse.branch_cpi
            ));
        }
    }
    let mut more_imisses = (*profile).clone();
    more_imisses.icache_short_misses *= 2;
    more_imisses.icache_long_misses *= 2;
    if let Ok(worse) = model.evaluate(&more_imisses) {
        let before = est.icache_l1_cpi + est.icache_l2_cpi;
        let after = worse.icache_l1_cpi + worse.icache_l2_cpi;
        if after + 1e-9 < before {
            return Err(format!(
                "icache adder decreased when misses rose: {before} -> {after}"
            ));
        }
    }

    // 5: differential accuracy bands.
    for row in &result.components {
        if !row.within {
            return Err(format!(
                "{} outside band: model {:.4} vs sim {:.4} (allowed ±{:.4})",
                row.component.name(),
                row.model,
                row.sim,
                row.allowed
            ));
        }
    }
    Ok(())
}

/// Shrinks a failing case to a minimal reproducer: first greedily
/// replaces whole fields with their baseline values, then bisects each
/// numeric field toward the baseline, keeping every candidate that
/// still fails (and is still structurally valid). Deterministic, and
/// every candidate evaluation is memoized by the artifact store.
pub fn shrink(
    store: &ArtifactStore,
    failing: &FuzzCase,
    trace_len: u64,
    tol: &ToleranceSpec,
) -> FuzzCase {
    let still_fails = |c: &FuzzCase| c.is_valid() && check(store, c, trace_len, tol).is_err();
    debug_assert!(still_fails(failing), "shrink called on a passing case");
    let target = FuzzCase::baseline(0, 0);
    let mut current = *failing;

    // Greedy whole-field replacement until a fixpoint.
    loop {
        let mut progressed = false;
        for i in 0..FuzzCase::FIELDS {
            if current.field(i) == target.field(i) {
                continue;
            }
            let candidate = current.with_field(i, target.field(i));
            if still_fails(&candidate) {
                current = candidate;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // Bisect each remaining numeric field toward its baseline value.
    for i in 0..FuzzCase::FIELDS {
        let goal = target.field(i);
        loop {
            let now = current.field(i);
            if now == goal {
                break;
            }
            // Midpoint between the failing value and the goal, rounded
            // toward the goal so the loop always terminates.
            let mid = if now > goal {
                goal + (now - goal) / 2
            } else {
                now + (goal - now).div_ceil(2)
            };
            if mid == now {
                break;
            }
            let candidate = current.with_field(i, mid);
            if still_fails(&candidate) {
                current = candidate;
            } else {
                break;
            }
        }
    }
    current
}

/// Runs `cases` random draws from `rng_seed`; on the first failure,
/// shrinks it and returns. Invalid draws are impossible by
/// construction, so every draw counts.
pub fn run(
    store: &ArtifactStore,
    cases: u64,
    trace_len: u64,
    rng_seed: u64,
    tol: &ToleranceSpec,
) -> FuzzOutcome {
    let mut rng = FuzzRng::new(rng_seed);
    for i in 0..cases {
        let case = FuzzCase::arbitrary(&mut rng);
        if let Err(_first_reason) = check(store, &case, trace_len, tol) {
            let shrunk = shrink(store, &case, trace_len, tol);
            let reason = check(store, &shrunk, trace_len, tol)
                .expect_err("shrink only keeps failing candidates");
            return FuzzOutcome::Failed(FuzzFailure {
                case,
                shrunk,
                reason,
                cases_passed: i,
            });
        }
    }
    FuzzOutcome::Clean { cases }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_ranged() {
        let mut a = FuzzRng::new(7);
        let mut b = FuzzRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = FuzzRng::new(3);
        for _ in 0..1_000 {
            let v = r.in_range(5, 9);
            assert!((5..=9).contains(&v));
        }
        assert_eq!(r.in_range(4, 4), 4);
        assert_eq!(r.in_range(9, 4), 9); // empty range clamps to lo
    }

    #[test]
    fn arbitrary_cases_are_always_valid() {
        let mut rng = FuzzRng::new(0xF05A);
        for _ in 0..500 {
            let case = FuzzCase::arbitrary(&mut rng);
            assert!(case.is_valid(), "{case:?}");
        }
    }

    #[test]
    fn field_accessors_round_trip() {
        let case = FuzzCase::baseline(3, 99);
        for i in 0..FuzzCase::FIELDS {
            let bumped = case.with_field(i, case.field(i) + 1);
            assert_eq!(bumped.field(i), case.field(i) + 1);
            // Other fields untouched.
            for j in (0..FuzzCase::FIELDS).filter(|&j| j != i) {
                assert_eq!(bumped.field(j), case.field(j));
            }
        }
    }

    #[test]
    fn baseline_case_matches_the_paper_machine() {
        let config = FuzzCase::baseline(0, 42).config();
        let paper = fosm_sim::MachineConfig::baseline();
        assert_eq!(config.width, paper.width);
        assert_eq!(config.win_size, paper.win_size);
        assert_eq!(config.rob_size, paper.rob_size);
        assert_eq!(config.mem_latency, paper.mem_latency);
    }

    #[test]
    fn bench_index_wraps_instead_of_panicking() {
        let case = FuzzCase::baseline(10_000, 1);
        let all = BenchmarkSpec::all();
        assert_eq!(case.spec().name, all[10_000 % all.len()].name);
    }
}
