//! Per-component model-vs-simulator differencing.
//!
//! The detailed simulator reports one CPI number; the paper validates
//! the model *per component* by simulating machine variants with
//! exactly one miss-event source left real (its "simulation sets",
//! §5). This module derives those variants from an arbitrary
//! [`MachineConfig`] — not just the baseline — through
//! [`MachineConfig::simulation_set`], so every validation case, fuzz
//! case, and CI gate uses the same methodology:
//!
//! | component | model value                             | simulator reference            |
//! |-----------|-----------------------------------------|--------------------------------|
//! | base      | steady-state CPI (ideal-cache profile)  | all-ideal variant CPI          |
//! | branch    | eq. 2–5 branch adder                    | (bp-only − ideal) CPI          |
//! | icache    | L1 + L2 I-miss adders                   | (icache-only − ideal) CPI      |
//! | dcache    | eq. 6–8 long-miss adder + short-miss    | (dcache-only − ideal) CPI      |
//! |           | `L`-folding + dTLB adder                |                                |
//! | total     | eq. 1 total CPI                         | full-machine CPI               |
//!
//! The short-miss folding term needs care: the model folds short data
//! misses into the background latency `L` (paper §4.3), so its
//! "steady-state" CPI under a real hierarchy already contains part of
//! what the simulator's data-cache-only variant measures as the
//! d-cache delta. Differencing two profiles — one under the real
//! hierarchy, one under an ideal hierarchy — splits that folding back
//! out and attributes it to the d-cache component where the simulator
//! puts it.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use fosm_bench::harness;
use fosm_bench::par;
use fosm_bench::store::ArtifactStore;
use fosm_core::model::{Estimate, FirstOrderModel};
use fosm_core::profile::{ProbeBank, ProgramProfile};
use fosm_core::ModelError;
use fosm_sim::{MachineConfig, SimulationSet};
use fosm_workloads::BenchmarkSpec;

use crate::events::{self, EventClassDiff};
use crate::tolerance::ToleranceSpec;

/// A validated CPI component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Component {
    /// Steady-state (background) CPI.
    Base,
    /// Branch-misprediction adder.
    Branch,
    /// Instruction-cache adder (L1 + L2).
    ICache,
    /// Long data-cache adder (plus short-miss folding and dTLB).
    DCache,
    /// Total CPI.
    Total,
}

impl Component {
    /// Every component, in report order.
    pub const ALL: [Component; 5] = [
        Component::Base,
        Component::Branch,
        Component::ICache,
        Component::DCache,
        Component::Total,
    ];

    /// Stable lower-case name (used in flags, reports, and metrics).
    pub fn name(self) -> &'static str {
        match self {
            Component::Base => "base",
            Component::Branch => "branch",
            Component::ICache => "icache",
            Component::DCache => "dcache",
            Component::Total => "total",
        }
    }

    /// Parses the stable name back to a component.
    pub fn parse(name: &str) -> Option<Component> {
        Component::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// One validation case: a machine configuration against one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseSpec {
    /// Full machine configuration (the real one; idealized variants are
    /// derived from it).
    pub config: MachineConfig,
    /// Workload to drive the comparison with.
    pub bench: BenchmarkSpec,
    /// Dynamic trace length.
    pub trace_len: u64,
    /// Workload generator seed.
    pub seed: u64,
}

impl CaseSpec {
    /// The standard sweep: one case per synthetic SPEC workload under
    /// a shared machine configuration.
    pub fn suite(config: &MachineConfig, trace_len: u64, seed: u64) -> Vec<CaseSpec> {
        BenchmarkSpec::all()
            .into_iter()
            .map(|bench| CaseSpec {
                config: config.clone(),
                bench,
                trace_len,
                seed,
            })
            .collect()
    }

    /// The all-ideal variant (simulation set 1): perfect caches,
    /// perfect branch prediction, perfect TLB.
    pub fn ideal_variant(&self) -> MachineConfig {
        self.config.simulation_set(SimulationSet::Ideal)
    }

    /// Only the branch predictor real (simulation set 3).
    pub fn branch_variant(&self) -> MachineConfig {
        self.config.simulation_set(SimulationSet::Branch)
    }

    /// Only the instruction cache real (simulation set 4).
    pub fn icache_variant(&self) -> MachineConfig {
        self.config.simulation_set(SimulationSet::ICache)
    }

    /// Only the data side real (simulation set 5): data cache plus the
    /// data TLB, whose misses the simulator also charges to loads.
    pub fn dcache_variant(&self) -> MachineConfig {
        self.config.simulation_set(SimulationSet::DCache)
    }
}

/// The five simulation sets of `config`, in [`SimulationSet::ALL`]
/// order — the order [`compare_components`] consumes.
fn simulation_sets(config: &MachineConfig) -> [MachineConfig; 5] {
    SimulationSet::ALL.map(|set| config.simulation_set(set))
}

/// The model's estimate on each of the five simulation-set profiles,
/// in order.
fn estimates(
    model: &FirstOrderModel,
    profiles: &[Arc<ProgramProfile>],
) -> Result<[Estimate; 5], ModelError> {
    let ests = profiles
        .iter()
        .map(|p| model.evaluate(p))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ests.try_into().expect("one profile per simulation set"))
}

/// One component's model-vs-simulator comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComponentRow {
    /// Which component this row measures.
    pub component: Component,
    /// The model's CPI contribution.
    pub model: f64,
    /// The simulator's reference CPI contribution.
    pub sim: f64,
    /// Absolute error allowed by the tolerance band.
    pub allowed: f64,
    /// Whether the model value is inside the band.
    pub within: bool,
}

impl ComponentRow {
    /// Absolute model − simulator error.
    pub fn error(&self) -> f64 {
        self.model - self.sim
    }

    /// Relative error in percent (0 when the reference is ~0).
    pub fn error_pct(&self) -> f64 {
        if self.sim.abs() < 1e-12 {
            0.0
        } else {
            100.0 * (self.model - self.sim) / self.sim
        }
    }
}

/// The full per-component comparison for one case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseResult {
    /// Workload name.
    pub bench: String,
    /// Per-component rows in [`Component::ALL`] order.
    pub components: Vec<ComponentRow>,
    /// The statistical simulator's CPI on the same inputs, when the
    /// sweep was asked to run it (the related-work accuracy baseline).
    #[serde(default)]
    pub statsim_cpi: Option<f64>,
    /// Per-event-class sim-vs-model penalty diff on the full machine,
    /// from the traced simulator run (one entry per
    /// [`events::CLASSES`] entry, in that order).
    #[serde(default)]
    pub event_diff: Vec<EventClassDiff>,
}

impl CaseResult {
    /// The row for `component` (all five are always present).
    pub fn row(&self, component: Component) -> &ComponentRow {
        self.components
            .iter()
            .find(|r| r.component == component)
            .expect("every CaseResult carries all five component rows")
    }

    /// Whether every component is inside its band.
    pub fn within_tolerance(&self) -> bool {
        self.components.iter().all(|r| r.within)
    }
}

/// Options for [`sweep`].
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Worker threads for the case fan-out.
    pub threads: usize,
    /// Also run the statistical simulator per case (slower; used by the
    /// related-work comparison, not the CI gate).
    pub statsim: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 1,
            statsim: false,
        }
    }
}

/// Runs one validation case: five simulator variants, five matched
/// functional profiles (collected in a single fused trace replay),
/// five model evaluations, five component comparisons.
///
/// # Errors
///
/// Propagates [`ModelError`] from profile collection or model
/// evaluation (e.g. an empty trace or a degenerate IW fit).
pub fn run_case(
    store: &ArtifactStore,
    case: &CaseSpec,
    tol: &ToleranceSpec,
) -> Result<CaseResult, ModelError> {
    run_case_with(store, case, tol, false)
}

fn run_case_with(
    store: &ArtifactStore,
    case: &CaseSpec,
    tol: &ToleranceSpec,
    statsim: bool,
) -> Result<CaseResult, ModelError> {
    let _span = fosm_obs::span("validate_case");
    let (spec, n, seed) = (&case.bench, case.trace_len, case.seed);

    // Detailed-simulator references: the full machine and the four
    // idealization variants, all config-derived. The full machine runs
    // traced so its miss-event stream feeds the per-event diff below.
    let variants = simulation_sets(&case.config);
    let traced_full = store.simulate_traced(&variants[0], spec, n, seed);
    let mut sims = [traced_full.0.cpi(); 5];
    for (slot, config) in sims.iter_mut().zip(&variants).skip(1) {
        *slot = store.simulate(config, spec, n, seed).cpi();
    }

    // Model inputs, matched to the simulation sets: each component's
    // model value is computed from a profile collected under *that
    // component's* variant machine, exactly as the paper feeds each
    // simulation set's validation from the same isolated
    // configuration. (Profiling under the full hierarchy instead
    // conflates components — e.g. data traffic evicts instruction
    // lines from the shared L2, inflating the I-cache adder with
    // misses the icache-only reference machine never sees.) The total
    // row still uses the full-machine profile, so cross-component
    // interactions the first-order model ignores show up there, not
    // smeared over the per-component rows.
    let params = harness::params_of(&case.config);
    let bank: ProbeBank = variants
        .iter()
        .map(|config| harness::probe_of(config, spec.name.clone()))
        .collect();
    let profiles = store.profile_many(&params, &bank, spec, n, seed)?;
    let model = FirstOrderModel::new(params.clone());
    let ests = estimates(&model, &profiles)?;
    let components = compare_components(&ests, sims, tol);

    // Per-event diff: the model's effective per-event penalties (from
    // the full-machine estimate) against the traced event stream.
    let penalties = fosm_core::EventPenalties::from_estimate(&ests[0], &profiles[0]);
    let event_diff = events::diff(&traced_full.1, &penalties, &profiles[0], &params);

    let statsim_cpi = statsim.then(|| {
        use fosm_statsim::{CollectorConfig, StatMachine, StatProfile, SynthesizedTrace};
        let trace = store.trace(spec, n, seed);
        let insts = trace.decode();
        let stat_profile = StatProfile::from_trace(&insts, CollectorConfig::default());
        let mut synth = SynthesizedTrace::new(&stat_profile, seed);
        StatMachine::baseline().run(&mut synth, n).cpi()
    });

    Ok(CaseResult {
        bench: spec.name.clone(),
        components,
        statsim_cpi,
        event_diff,
    })
}

/// The per-component model-vs-simulator comparison shared by the
/// workload and corpus case paths. Estimates and simulator CPIs are
/// both ordered `[full, ideal, branch, icache, dcache]`.
fn compare_components(
    ests: &[Estimate; 5],
    sims: [f64; 5],
    tol: &ToleranceSpec,
) -> Vec<ComponentRow> {
    let [est_full, est_ideal, est_branch, est_icache, est_dcache] = ests;
    let [sim_full, sim_ideal, sim_branch, sim_icache, sim_dcache] = sims;

    // Short data misses are folded into `L` (paper §4.3), so a real
    // D-cache's steady state exceeds the ideal hierarchy's by the
    // folded amount; the simulator's dcache-only delta contains it.
    let short_fold = est_dcache.steady_state_cpi - est_ideal.steady_state_cpi;

    let pairs = [
        (Component::Base, est_ideal.steady_state_cpi, sim_ideal),
        (
            Component::Branch,
            est_branch.branch_cpi,
            sim_branch - sim_ideal,
        ),
        (
            Component::ICache,
            est_icache.icache_l1_cpi + est_icache.icache_l2_cpi,
            sim_icache - sim_ideal,
        ),
        (
            Component::DCache,
            est_dcache.dcache_cpi + est_dcache.dtlb_cpi + short_fold,
            sim_dcache - sim_ideal,
        ),
        (Component::Total, est_full.total_cpi(), sim_full),
    ];
    pairs
        .into_iter()
        .map(|(component, model, sim)| {
            let band = tol.band(component);
            ComponentRow {
                component,
                model,
                sim,
                allowed: band.allowed(sim),
                within: band.accepts(model, sim),
            }
        })
        .collect()
}

/// One corpus-file validation case: a machine configuration against an
/// on-disk `FOSMTRC1` corpus instead of a generated workload.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// Full machine configuration (variants are derived from it).
    pub config: MachineConfig,
    /// Path of the corpus file to validate against.
    pub path: std::path::PathBuf,
}

/// Runs one corpus-file validation case: the same five simulator
/// variants and five matched profiles as [`run_case`], but sourced
/// from an on-disk corpus through the store's corpus paths (paged
/// replay of the file). The miss-event diff
/// is omitted — the traced-run harness is workload-keyed — so
/// `event_diff` is empty and the case is named after the file stem.
///
/// # Errors
///
/// [`ModelError::Corpus`] if the file cannot be opened or is corrupt,
/// plus everything [`run_case`] can return.
pub fn run_corpus_case(
    store: &ArtifactStore,
    case: &CorpusCase,
    tol: &ToleranceSpec,
) -> Result<CaseResult, ModelError> {
    let _span = fosm_obs::span("validate_corpus_case");
    let corpus = fosm_trace::CorpusFile::open(&case.path)
        .map_err(|e| ModelError::Corpus(format!("{}: {e}", case.path.display())))?;
    let bench = case
        .path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| case.path.display().to_string());

    let variants = simulation_sets(&case.config);
    let mut sims = [0.0f64; 5];
    for (slot, config) in sims.iter_mut().zip(&variants) {
        *slot = store.simulate_corpus(config, &corpus)?.cpi();
    }

    let params = harness::params_of(&case.config);
    let bank: ProbeBank = variants
        .iter()
        .map(|config| harness::probe_of(config, bench.clone()))
        .collect();
    let profiles = store.profile_many_corpus(&params, &bank, &corpus)?;
    let ests = estimates(&FirstOrderModel::new(params), &profiles)?;
    let components = compare_components(&ests, sims, tol);

    Ok(CaseResult {
        bench,
        components,
        statsim_cpi: None,
        event_diff: Vec::new(),
    })
}

/// Fans [`run_corpus_case`] over a list of corpus files under one
/// shared configuration, preserving input order. Each worker opens its
/// own [`fosm_trace::CorpusFile`] (its own file descriptor), so the
/// paged cursors never contend on seek state.
///
/// # Errors
///
/// Returns the first case's error (in input order) if any case fails.
pub fn corpus_sweep(
    store: &ArtifactStore,
    config: &MachineConfig,
    paths: &[std::path::PathBuf],
    tol: &ToleranceSpec,
    threads: usize,
) -> Result<Vec<CaseResult>, ModelError> {
    let cases: Vec<CorpusCase> = paths
        .iter()
        .map(|path| CorpusCase {
            config: config.clone(),
            path: path.clone(),
        })
        .collect();
    par::par_map(&cases, threads, |case| run_corpus_case(store, case, tol))
        .into_iter()
        .collect()
}

/// Fans [`run_case`] over a case list, preserving input order.
///
/// # Errors
///
/// Returns the first case's error (in input order) if any case fails.
pub fn sweep(
    store: &ArtifactStore,
    cases: &[CaseSpec],
    tol: &ToleranceSpec,
    options: SweepOptions,
) -> Result<Vec<CaseResult>, ModelError> {
    par::par_map(cases, options.threads, |case| {
        run_case_with(store, case, tol, options.statsim)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_names_round_trip() {
        for c in Component::ALL {
            assert_eq!(Component::parse(c.name()), Some(c));
        }
        assert_eq!(Component::parse("bogus"), None);
    }

    #[test]
    fn suite_covers_every_benchmark_once() {
        let cases = CaseSpec::suite(&MachineConfig::baseline(), 1_000, 1);
        let names: Vec<&str> = cases.iter().map(|c| c.bench.name.as_str()).collect();
        assert_eq!(names.len(), BenchmarkSpec::all().len());
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(deduped, names);
    }

    #[test]
    fn case_variants_are_the_simulation_sets() {
        let case = CaseSpec {
            config: MachineConfig::baseline().with_width(8).with_pipe_depth(9),
            bench: BenchmarkSpec::gzip(),
            trace_len: 1_000,
            seed: 1,
        };
        let variants = [
            case.ideal_variant(),
            case.branch_variant(),
            case.icache_variant(),
            case.dcache_variant(),
        ];
        assert_eq!(variants[..], simulation_sets(&case.config)[1..]);
    }

    #[test]
    fn run_case_produces_all_components_and_orders_them() {
        let store = ArtifactStore::new();
        let case = CaseSpec {
            config: MachineConfig::baseline(),
            bench: BenchmarkSpec::gzip(),
            trace_len: 20_000,
            seed: harness::SEED,
        };
        let result = run_case(&store, &case, &ToleranceSpec::gate()).expect("case runs");
        let order: Vec<Component> = result.components.iter().map(|r| r.component).collect();
        assert_eq!(order, Component::ALL.to_vec());
        for row in &result.components {
            assert!(row.model.is_finite(), "{:?}", row);
            assert!(row.sim.is_finite(), "{:?}", row);
            assert!(row.allowed >= 0.0);
        }
        // The total row really is the full model vs the full simulator.
        let total = result.row(Component::Total);
        assert!(total.model > 0.0 && total.sim > 0.0);
        assert!(result.statsim_cpi.is_none());
    }

    #[test]
    fn event_diff_reconciles_with_the_model_adders() {
        let store = ArtifactStore::new();
        let case = CaseSpec {
            config: MachineConfig::baseline(),
            bench: BenchmarkSpec::gzip(),
            trace_len: 20_000,
            seed: harness::SEED,
        };
        let result = run_case(&store, &case, &ToleranceSpec::gate()).expect("case runs");
        let classes: Vec<&str> = result.event_diff.iter().map(|d| d.class.as_str()).collect();
        assert_eq!(classes, crate::events::CLASSES.to_vec());

        // The model-side per-class CPI sums must reconcile with the
        // estimate's aggregate miss adders (the ISSUE's 1e-6 gate). The
        // four diffed classes exclude the dTLB adder, which has no
        // traced event kind.
        let params = harness::params_of(&case.config);
        let trace = harness::record_seeded(&case.bench, case.trace_len, case.seed);
        let profile = harness::profile_with(
            &params,
            &case.config.hierarchy,
            case.config.predictor,
            &case.bench.name,
            &trace,
        )
        .expect("profile collection succeeds");
        let est = harness::estimate(&params, &profile);
        let model_sum: f64 = result.event_diff.iter().map(|d| d.model_cpi).sum();
        let adders = est.total_cpi() - est.steady_state_cpi - est.dtlb_cpi;
        assert!(
            (model_sum - adders).abs() < 1e-6,
            "per-class sum {model_sum} vs adders {adders}"
        );

        // The sim side saw real events and attributed real cycles.
        for d in &result.event_diff {
            assert!(d.sim_cpi.is_finite() && d.sim_cpi >= 0.0);
            assert_eq!(d.histogram.len(), crate::events::HISTOGRAM_LABELS.len());
            let bucketed: u64 =
                d.histogram.iter().sum::<u64>() + d.histogram_overlapped.iter().sum::<u64>();
            assert_eq!(bucketed, d.sim_events, "{}", d.class);
        }
        let branch = &result.event_diff[0];
        assert!(branch.sim_events > 0, "gzip mispredicts under the baseline");
    }

    #[test]
    fn corpus_case_matches_the_workload_case_on_the_same_stream() {
        // A corpus written from the workload's recorded trace must
        // validate to bit-identical component rows: the file round
        // trip and the paged replay are both exact.
        let case = CaseSpec {
            config: MachineConfig::baseline(),
            bench: BenchmarkSpec::gzip(),
            trace_len: 20_000,
            seed: harness::SEED,
        };
        let path = std::env::temp_dir().join(format!(
            "fosm-validate-corpus-{}-gzip.fct",
            std::process::id()
        ));
        let trace = harness::record_seeded(&case.bench, case.trace_len, case.seed);
        fosm_trace::write_corpus(&path, &trace).expect("write corpus");

        let store = ArtifactStore::new();
        let from_workload = run_case(&store, &case, &ToleranceSpec::gate()).expect("workload case");
        let corpus_case = CorpusCase {
            config: case.config.clone(),
            path: path.clone(),
        };
        let from_corpus =
            run_corpus_case(&store, &corpus_case, &ToleranceSpec::gate()).expect("corpus case");
        for (a, b) in from_workload.components.iter().zip(&from_corpus.components) {
            assert_eq!(a.component, b.component);
            assert_eq!(a.model.to_bits(), b.model.to_bits(), "{:?}", a.component);
            assert_eq!(a.sim.to_bits(), b.sim.to_bits(), "{:?}", a.component);
        }
        assert!(from_corpus.event_diff.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corpus_sweep_shards_files_across_workers_in_order() {
        let config = MachineConfig::baseline();
        let mut paths = Vec::new();
        for (i, spec) in [BenchmarkSpec::gzip(), BenchmarkSpec::gcc()]
            .iter()
            .enumerate()
        {
            let path = std::env::temp_dir().join(format!(
                "fosm-validate-sweep-{}-{i}.fct",
                std::process::id()
            ));
            let trace = harness::record_seeded(spec, 10_000, harness::SEED);
            fosm_trace::write_corpus(&path, &trace).expect("write corpus");
            paths.push(path);
        }
        let store = ArtifactStore::new();
        let results = corpus_sweep(&store, &config, &paths, &ToleranceSpec::gate(), 2)
            .expect("corpus sweep runs");
        let names: Vec<&str> = results.iter().map(|r| r.bench.as_str()).collect();
        assert_eq!(
            names,
            vec![
                paths[0].file_stem().unwrap().to_str().unwrap(),
                paths[1].file_stem().unwrap().to_str().unwrap(),
            ]
        );
        for r in &results {
            assert_eq!(r.components.len(), Component::ALL.len());
        }
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn sweep_preserves_case_order_at_any_thread_count() {
        let store = ArtifactStore::new();
        let cases: Vec<CaseSpec> = CaseSpec::suite(&MachineConfig::baseline(), 5_000, 1)
            .into_iter()
            .take(3)
            .collect();
        let serial = sweep(
            &store,
            &cases,
            &ToleranceSpec::gate(),
            SweepOptions::default(),
        )
        .expect("serial sweep runs");
        let parallel = sweep(
            &store,
            &cases,
            &ToleranceSpec::gate(),
            SweepOptions {
                threads: 3,
                statsim: false,
            },
        )
        .expect("parallel sweep runs");
        let names = |rs: &[CaseResult]| rs.iter().map(|r| r.bench.clone()).collect::<Vec<_>>();
        assert_eq!(names(&serial), names(&parallel));
        for (a, b) in serial.iter().zip(&parallel) {
            for (ra, rb) in a.components.iter().zip(&b.components) {
                assert_eq!(ra.model.to_bits(), rb.model.to_bits());
                assert_eq!(ra.sim.to_bits(), rb.sim.to_bits());
            }
        }
    }

    #[test]
    fn statsim_option_populates_the_baseline_cpi() {
        let store = ArtifactStore::new();
        let cases = [CaseSpec {
            config: MachineConfig::baseline(),
            bench: BenchmarkSpec::gzip(),
            trace_len: 10_000,
            seed: 1,
        }];
        let results = sweep(
            &store,
            &cases,
            &ToleranceSpec::gate(),
            SweepOptions {
                threads: 1,
                statsim: true,
            },
        )
        .expect("statsim sweep runs");
        let cpi = results[0].statsim_cpi.expect("statsim ran");
        assert!(cpi.is_finite() && cpi > 0.0);
    }
}
