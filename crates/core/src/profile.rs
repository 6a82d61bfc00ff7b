//! Program profiles from functional-level trace analysis (paper §5).
//!
//! The whole point of the first-order model is that its inputs come
//! from *cheap* simulation: "simple trace-driven simulations of caches
//! and branch predictors have a definite, useful role to play" (§7).
//! [`ProfileCollector`] runs exactly those simulations — a cache
//! hierarchy, a branch predictor, and the idealized IW analysis — in
//! one pass over a trace, producing the [`ProgramProfile`] the model
//! consumes. No cycle-level machinery is involved.

use fosm_branch::{MispredictStats, PredictorConfig};
use fosm_cache::{
    AccessKind, AccessOutcome, BurstDistribution, CacheConfig, FirstLevel, HierarchyConfig,
    LongMissRecorder, SecondLevel, Tlb, TlbConfig,
};
use fosm_depgraph::{IwAnalysis, IwCharacteristic, IwResolver, IwSweep};
use fosm_isa::{FuClass, Inst, Op, NUM_REGS};
use fosm_trace::TraceSource;
use serde::{Deserialize, Serialize};

use crate::pipeline::{self, BranchRecord, Chunk, StageA, StageB};
use crate::{ModelError, ProcessorParams};

/// A systematic sampling plan with functional warm-up (SimPoint-style
/// practice applied to the paper's trace-driven methodology).
///
/// Each `period` of the trace is split into three phases: `skip`
/// instructions are fast-forwarded (structures see nothing), then
/// `warmup` instructions update caches and predictors *without*
/// counting statistics, then `sample` instructions are fully counted.
/// `skip = period − warmup − sample`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingPlan {
    /// Counted instructions per period.
    pub sample: u64,
    /// Warm-up instructions preceding each sample.
    pub warmup: u64,
    /// Total period length.
    pub period: u64,
}

impl SamplingPlan {
    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// Returns a message when the phases do not fit in the period.
    pub fn validate(&self) -> Result<(), String> {
        if self.sample == 0 {
            return Err("sample length must be non-zero".into());
        }
        if self.warmup + self.sample > self.period {
            return Err(format!(
                "warmup {} + sample {} exceed the period {}",
                self.warmup, self.sample, self.period
            ));
        }
        Ok(())
    }

    /// Fraction of the trace that is *touched* (warmed or counted).
    pub fn touched_ratio(&self) -> f64 {
        (self.warmup + self.sample) as f64 / self.period as f64
    }
}

/// Everything the first-order model needs to know about a program.
///
/// All fields are gathered by [`ProfileCollector::collect`]; they can
/// also be constructed directly (e.g. for parametric studies like the
/// paper's §6, where the misprediction rate is an assumption rather
/// than a measurement).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramProfile {
    /// Program name for reports.
    pub name: String,
    /// Dynamic instructions profiled.
    pub instructions: u64,
    /// The fitted IW characteristic, with short data-cache misses
    /// folded into the average latency `L` (paper §4.3: short misses
    /// behave like long-latency functional units).
    pub iw: IwCharacteristic,
    /// Dynamic conditional branches.
    pub cond_branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// Mean misprediction burst length (the `n` of eq. 3), measured
    /// with a threshold of one pipeline refill's worth of instructions.
    pub mispredict_burst_mean: f64,
    /// Instruction fetches missing L1I but hitting L2.
    pub icache_short_misses: u64,
    /// Instruction fetches missing to memory.
    pub icache_long_misses: u64,
    /// Loads missing L1D but hitting L2 (short misses; folded into `L`).
    pub dcache_short_misses: u64,
    /// Loads missing to memory, with their clustering within
    /// `rob_size` instructions (f_LDM of eq. 8), refined by address
    /// dependence (a dependent miss cannot overlap its producer).
    pub long_miss_distribution: BurstDistribution,
    /// The same clustering with the paper's purely positional rule
    /// (dependence ignored) — kept for ablation studies.
    pub long_miss_distribution_paper: BurstDistribution,
    /// Data-TLB miss clustering (empty unless a TLB was configured) —
    /// the paper's §7 extension: TLB misses act like long data misses.
    #[serde(default)]
    pub dtlb_miss_distribution: BurstDistribution,
    /// Page-walk latency of the configured TLB (0 when none).
    #[serde(default)]
    pub dtlb_walk_latency: u32,
    /// Dynamic instruction counts per functional-unit class (in
    /// [`FuClass::ALL`] order) — the "instruction mix statistics" the
    /// paper's §7 limited-FU extension calls for.
    #[serde(default)]
    pub fu_mix: [u64; 5],
}

impl ProgramProfile {
    /// Fraction of dynamic instructions issuing to `class`.
    pub fn fu_fraction(&self, class: FuClass) -> f64 {
        let total: u64 = self.fu_mix.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.fu_mix[class.index()] as f64 / total as f64
        }
    }

    /// Long data-cache misses (loads to memory).
    pub fn dcache_long_misses(&self) -> u64 {
        self.long_miss_distribution.misses()
    }

    /// Branch mispredictions per instruction.
    pub fn mispredicts_per_inst(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.instructions as f64
        }
    }

    /// Misprediction rate over conditional branches.
    pub fn mispredict_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.cond_branches as f64
        }
    }
}

/// Collects a [`ProgramProfile`] by functional-level simulation.
///
/// The collector owns *configurations* only; each call to
/// [`collect`](ProfileCollector::collect) instantiates fresh cache and
/// predictor state, so profiles never contaminate each other.
///
/// # Examples
///
/// ```
/// use fosm_core::params::ProcessorParams;
/// use fosm_core::profile::ProfileCollector;
/// use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = ProcessorParams::baseline();
/// let mut trace = WorkloadGenerator::new(&BenchmarkSpec::vpr(), 1);
/// let profile = ProfileCollector::new(&params)
///     .with_name("vpr")
///     .collect(&mut trace, 50_000)?;
/// assert_eq!(profile.instructions, 50_000);
/// assert!(profile.iw.law().beta() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProfileCollector {
    params: ProcessorParams,
    hierarchy: HierarchyConfig,
    predictor: PredictorConfig,
    dtlb: Option<TlbConfig>,
    name: String,
}

impl ProfileCollector {
    /// Touched instructions per chunk that a pass hands from its
    /// caches to the IW sweep and the branch predictors, which run on
    /// one helper thread (DESIGN.md, "Fused multi-probe profiling").
    pub const CHUNK: usize = pipeline::CHUNK;

    /// Creates a collector for the given processor parameters, with the
    /// paper's baseline cache hierarchy and 8K gshare predictor.
    pub fn new(params: &ProcessorParams) -> Self {
        ProfileCollector {
            params: params.clone(),
            hierarchy: HierarchyConfig::baseline(),
            predictor: PredictorConfig::baseline(),
            dtlb: None,
            name: "unnamed".to_string(),
        }
    }

    /// Sets the cache hierarchy used for functional simulation.
    pub fn with_hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.hierarchy = hierarchy;
        self
    }

    /// Sets the branch predictor used for functional simulation.
    pub fn with_predictor(mut self, predictor: PredictorConfig) -> Self {
        self.predictor = predictor;
        self
    }

    /// Adds a data TLB to the functional simulation (paper §7: TLB
    /// misses act like long data-cache misses).
    pub fn with_dtlb(mut self, tlb: TlbConfig) -> Self {
        self.dtlb = Some(tlb);
        self
    }

    /// Sets the profile name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Consumes up to `max_insts` instructions from `trace` and returns
    /// the program profile.
    ///
    /// # Errors
    ///
    /// [`ModelError::EmptyTrace`] for an empty trace,
    /// [`ModelError::Fit`] when the IW characteristic cannot be fitted
    /// (e.g. the trace is too short for a meaningful power law), and
    /// [`ModelError::InvalidParams`] for inconsistent parameters.
    pub fn collect<S: TraceSource>(
        &self,
        trace: &mut S,
        max_insts: u64,
    ) -> Result<ProgramProfile, ModelError> {
        let plan = SamplingPlan {
            sample: u64::MAX,
            warmup: 0,
            period: u64::MAX,
        };
        self.collect_sampled(trace, plan, max_insts)
    }

    /// Profiles `trace` under a systematic [`SamplingPlan`]: per
    /// period, skipped instructions are discarded, warm-up instructions
    /// update the caches and predictor silently, and sample
    /// instructions are fully counted — until `max_counted`
    /// instructions have been counted or the trace ends.
    ///
    /// # Errors
    ///
    /// As [`collect`](Self::collect), plus [`ModelError::InvalidParams`]
    /// for an inconsistent plan.
    pub fn collect_sampled<S: TraceSource>(
        &self,
        trace: &mut S,
        plan: SamplingPlan,
        max_counted: u64,
    ) -> Result<ProgramProfile, ModelError> {
        let bank = ProbeBank::from(vec![self.probe()]);
        let mut profiles = self.collect_many_sampled(trace, &bank, plan, max_counted)?;
        Ok(profiles.pop().expect("one probe yields one profile"))
    }

    /// The collector's own configuration as a standalone [`Probe`].
    pub fn probe(&self) -> Probe {
        Probe {
            hierarchy: self.hierarchy,
            predictor: self.predictor,
            dtlb: self.dtlb,
            name: self.name.clone(),
        }
    }

    /// Profiles every probe in `bank` from **one** replay of `trace`.
    ///
    /// The instruction stream, functional-unit mix, and idealized IW
    /// sweep are shared across the bank, and so is each first-level
    /// cache, predictor and data TLB that several probes configure
    /// alike: it sees each instruction once and its outcome fans out
    /// to every probe that uses it. Each probe keeps its own L2 and
    /// miss bookkeeping. The returned profiles (in bank order) are
    /// bit-identical to running [`collect`](Self::collect) once per
    /// probe against fresh replays of the same trace — fusion changes
    /// the cost, not the answer.
    ///
    /// The pass runs the IW window states and the predictors on one
    /// helper thread beside the caches, which stay on the calling
    /// thread with the trace; each sees the stream in program order,
    /// so the profiles are the same. A panic on either thread reaches
    /// the caller with its payload.
    ///
    /// An empty bank returns no profiles without consuming the trace.
    ///
    /// # Errors
    ///
    /// As [`collect`](Self::collect).
    pub fn collect_many<S: TraceSource>(
        &self,
        trace: &mut S,
        bank: &ProbeBank,
        max_insts: u64,
    ) -> Result<Vec<ProgramProfile>, ModelError> {
        let plan = SamplingPlan {
            sample: u64::MAX,
            warmup: 0,
            period: u64::MAX,
        };
        self.collect_many_sampled(trace, bank, plan, max_insts)
    }

    /// [`collect_many`](Self::collect_many) under a [`SamplingPlan`]:
    /// one replay, shared skip/warm-up/sample phases, and one L1I, L1D,
    /// predictor and data TLB per distinct configuration in the bank.
    ///
    /// # Errors
    ///
    /// As [`collect_sampled`](Self::collect_sampled).
    pub fn collect_many_sampled<S: TraceSource>(
        &self,
        trace: &mut S,
        bank: &ProbeBank,
        plan: SamplingPlan,
        max_counted: u64,
    ) -> Result<Vec<ProgramProfile>, ModelError> {
        let _collect_span = fosm_obs::span("profile.collect");
        self.params.validate().map_err(ModelError::InvalidParams)?;
        if plan.sample != u64::MAX {
            plan.validate().map_err(ModelError::InvalidParams)?;
        }
        let mut shared = Shared::default();
        let mut states = bank
            .probes()
            .iter()
            .map(|probe| ProbeState::new(probe, &mut shared))
            .collect::<Result<Vec<_>, _>>()?;
        if states.is_empty() {
            return Ok(Vec::new());
        }
        fosm_obs::counter_add("profile.probes", states.len() as u64);
        if states.len() > 1 {
            // Replays the old sequential path would have needed.
            fosm_obs::counter_add("profile.fused_passes_saved", states.len() as u64 - 1);
        }

        // Stream the trace once, in two stages (see `pipeline`): every
        // shared structure sees every touched instruction once and the
        // probes read its outcome; the IW sweep and mix see only counted
        // ones.
        let (resolver, windows) = IwSweep::paper_default().into_parts();
        let predictors = shared
            .predictors
            .configs
            .iter()
            .map(|c| c.build())
            .collect();
        let mut pass = Pass {
            trace,
            skip_len: plan.period.saturating_sub(plan.warmup + plan.sample),
            plan,
            max_counted,
            position: 0,
            counted: 0,
            shared: &mut shared,
            states: &mut states,
            resolver,
            fu_mix: [0; 5],
        };
        let (stage_b, times) = pipeline::run(
            &mut pass,
            StageB {
                windows,
                predictors,
            },
        );
        let Pass {
            counted,
            resolver,
            fu_mix,
            ..
        } = pass;
        fosm_obs::counter_add("profile.stage_a.wait_ns", times.a_wait.as_nanos() as u64);
        fosm_obs::counter_add("profile.stage_b.busy_ns", times.b_busy.as_nanos() as u64);
        if counted == 0 {
            return Err(ModelError::EmptyTrace);
        }
        let analysis = IwSweep::from_parts(resolver, stage_b.windows).finish();
        for stats in &mut shared.predictors.runs {
            stats.set_total_instructions(counted);
        }
        states
            .into_iter()
            .zip(bank.probes())
            .map(|(state, probe)| {
                state.finish(&shared, &self.params, probe, &analysis, counted, fu_mix)
            })
            .collect()
    }
}

/// Stage A of a fused pass: the trace, the sampling plan, the caches
/// and TLBs, and the per-probe state.
struct Pass<'a, S> {
    trace: &'a mut S,
    plan: SamplingPlan,
    /// Instructions skipped at the start of each period.
    skip_len: u64,
    max_counted: u64,
    /// Instructions read from the trace.
    position: u64,
    /// Instructions counted.
    counted: u64,
    shared: &'a mut Shared,
    states: &'a mut [ProbeState],
    resolver: IwResolver,
    fu_mix: [u64; 5],
}

impl<S: TraceSource> StageA for Pass<'_, S> {
    fn fill(&mut self, chunk: &mut Chunk) -> bool {
        while !chunk.is_full() {
            if self.counted == self.max_counted {
                return false;
            }
            let Some(inst) = self.trace.next_inst() else {
                return false;
            };
            let in_period = self.position % self.plan.period;
            self.position += 1;
            if in_period < self.skip_len {
                continue; // fast-forward
            }
            chunk.touched += 1;
            let counting = in_period >= self.skip_len + self.plan.warmup;
            self.shared.observe(&inst, counting, self.counted);
            for state in self.states.iter_mut().filter(|s| s.real_l1i || s.real_l1d) {
                state.observe(&inst, self.shared, counting, self.counted);
            }
            if inst.op.is_cond_branch() {
                let taken = inst.branch.expect("branches carry outcomes").taken;
                let counted = counting.then_some(self.counted);
                chunk
                    .branches
                    .push(BranchRecord::new(inst.pc, taken, counted));
            }
            if counting {
                self.fu_mix[inst.op.fu_class().index()] += 1;
                chunk.iw.push(self.resolver.resolve(&inst));
                self.counted += 1;
            }
        }
        true
    }

    fn fold(&mut self, chunk: &Chunk) {
        for (stats, verdicts) in self.shared.predictors.runs.iter_mut().zip(chunk.verdicts()) {
            for (branch, &correct) in chunk.branches.iter().zip(verdicts) {
                if let Some(index) = branch.counted() {
                    stats.record(correct, index);
                }
            }
        }
    }
}

/// One functional-simulation configuration inside a [`ProbeBank`]: the
/// cache hierarchy, branch predictor, and optional data TLB a profile
/// should be measured against, plus the profile's name.
///
/// Probes deliberately exclude the trace-dependent analyses (mix, IW
/// characteristic): those are identical for every probe and computed
/// once per fused pass.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Cache hierarchy simulated for this probe.
    pub hierarchy: HierarchyConfig,
    /// Branch predictor simulated for this probe.
    pub predictor: PredictorConfig,
    /// Optional data TLB (paper §7 extension).
    pub dtlb: Option<TlbConfig>,
    /// Name given to the resulting profile.
    pub name: String,
}

impl Probe {
    /// A probe with the paper's baseline hierarchy and predictor.
    pub fn new(name: impl Into<String>) -> Self {
        Probe {
            hierarchy: HierarchyConfig::baseline(),
            predictor: PredictorConfig::baseline(),
            dtlb: None,
            name: name.into(),
        }
    }

    /// Sets the cache hierarchy.
    pub fn with_hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.hierarchy = hierarchy;
        self
    }

    /// Sets the branch predictor.
    pub fn with_predictor(mut self, predictor: PredictorConfig) -> Self {
        self.predictor = predictor;
        self
    }

    /// Adds a data TLB.
    pub fn with_dtlb(mut self, tlb: TlbConfig) -> Self {
        self.dtlb = Some(tlb);
        self
    }
}

/// An ordered collection of [`Probe`]s fed from one trace replay by
/// [`ProfileCollector::collect_many`].
#[derive(Debug, Clone, Default)]
pub struct ProbeBank {
    probes: Vec<Probe>,
}

impl ProbeBank {
    /// An empty bank.
    pub fn new() -> Self {
        ProbeBank::default()
    }

    /// Appends a probe.
    pub fn push(&mut self, probe: Probe) {
        self.probes.push(probe);
    }

    /// The probes, in profile-output order.
    pub fn probes(&self) -> &[Probe] {
        &self.probes
    }

    /// Number of probes in the bank.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Returns `true` if the bank holds no probes.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }
}

impl From<Vec<Probe>> for ProbeBank {
    fn from(probes: Vec<Probe>) -> Self {
        ProbeBank { probes }
    }
}

impl FromIterator<Probe> for ProbeBank {
    fn from_iter<I: IntoIterator<Item = Probe>>(iter: I) -> Self {
        ProbeBank {
            probes: iter.into_iter().collect(),
        }
    }
}

/// Structures of one kind in a fused pass, one per distinct
/// configuration.
struct Distinct<C, S> {
    configs: Vec<C>,
    runs: Vec<S>,
}

impl<C, S> Default for Distinct<C, S> {
    fn default() -> Self {
        Distinct {
            configs: Vec::new(),
            runs: Vec::new(),
        }
    }
}

impl<C: PartialEq, S> Distinct<C, S> {
    /// The index of the structure for `config`, built on first use.
    fn index(
        &mut self,
        config: C,
        build: impl FnOnce(&C) -> Result<S, ModelError>,
    ) -> Result<usize, ModelError> {
        if let Some(i) = self.configs.iter().position(|c| *c == config) {
            return Ok(i);
        }
        self.runs.push(build(&config)?);
        self.configs.push(config);
        Ok(self.runs.len() - 1)
    }
}

/// An L1 and whether the current instruction's access hit it.
struct L1Run {
    level: FirstLevel,
    hit: bool,
}

impl L1Run {
    fn new(config: Option<CacheConfig>, next_line_prefetch: u32) -> Self {
        L1Run {
            level: FirstLevel::new(config, next_line_prefetch),
            hit: false,
        }
    }
}

/// A data TLB and the counted loads it missed on.
struct TlbRun {
    tlb: Tlb,
    misses: LongMissRecorder,
}

/// The functional structures a fused pass shares between probes (paper
/// §2: each miss event's structure is simulated on its own, so probes
/// that configure one alike can share it). The L1 outcome never depends
/// on the L2, so L1s are shared and each probe keeps its own
/// [`SecondLevel`]; a predictor's and a TLB's records depend on nothing
/// else, so they are shared whole.
#[derive(Default)]
struct Shared {
    l1i: Distinct<Option<CacheConfig>, L1Run>,
    /// Keyed by the L1D and its prefetch depth (0 when the L1D is ideal).
    l1d: Distinct<(Option<CacheConfig>, u32), L1Run>,
    /// The mispredictions of each predictor on the counted stream; the
    /// predictors themselves run on stage B.
    predictors: Distinct<PredictorConfig, MispredictStats>,
    dtlbs: Distinct<TlbConfig, TlbRun>,
}

impl Shared {
    /// Streams one touched instruction through every shared cache and
    /// TLB (the predictors run on stage B); records are kept only when
    /// `counting`. `counted_idx` is the
    /// index the instruction will have in the counted stream.
    fn observe(&mut self, inst: &Inst, counting: bool, counted_idx: u64) {
        for run in &mut self.l1i.runs {
            run.hit = run.level.access(inst.pc);
        }
        if let Some(addr) = inst.mem_addr {
            if inst.op == Op::Load {
                for run in &mut self.dtlbs.runs {
                    if !run.tlb.access(addr) && counting {
                        run.misses.record(counted_idx);
                    }
                }
            }
            for run in &mut self.l1d.runs {
                run.hit = run.level.access(addr);
            }
        }
    }
}

/// Per-probe streaming state: the shared structures the probe reads,
/// its own L2, and the miss bookkeeping that depends on that L2.
struct ProbeState {
    l1i: usize,
    l1d: usize,
    predictor: usize,
    dtlb: Option<usize>,
    /// Whether the L1I / L1D is real. An ideal L1 hits every access
    /// and, with no L1D, nothing is prefetched: that side never reaches
    /// the L2, so the probe skips it.
    real_l1i: bool,
    real_l1d: bool,
    l2: SecondLevel,
    longs: LongMissRecorder,
    icache_short: u64,
    icache_long: u64,
    dcache_short: u64,
    reg_taint: [Option<u64>; NUM_REGS],
}

impl ProbeState {
    fn new(probe: &Probe, shared: &mut Shared) -> Result<Self, ModelError> {
        let h = &probe.hierarchy;
        let l1d_prefetch = h.l1d.map_or(0, |_| h.next_line_prefetch);
        Ok(ProbeState {
            l1i: shared.l1i.index(h.l1i, |c| Ok(L1Run::new(*c, 0)))?,
            l1d: shared
                .l1d
                .index((h.l1d, l1d_prefetch), |(c, p)| Ok(L1Run::new(*c, *p)))?,
            predictor: shared
                .predictors
                .index(probe.predictor, |_| Ok(MispredictStats::new()))?,
            dtlb: match probe.dtlb {
                Some(cfg) => Some(shared.dtlbs.index(cfg, |c| {
                    let tlb = Tlb::new(*c)
                        .map_err(|e| ModelError::InvalidParams(format!("data TLB: {e}")))?;
                    Ok(TlbRun {
                        tlb,
                        misses: LongMissRecorder::new(),
                    })
                })?),
                None => None,
            },
            real_l1i: h.l1i.is_some(),
            real_l1d: h.l1d.is_some(),
            l2: SecondLevel::new(h),
            longs: LongMissRecorder::new(),
            icache_short: 0,
            icache_long: 0,
            dcache_short: 0,
            reg_taint: [None; NUM_REGS],
        })
    }

    /// Takes one instruction's shared L1 outcomes through the probe's
    /// L2; misses are counted only when `counting`. `counted_idx` is the
    /// index the instruction will have in the counted stream.
    fn observe(&mut self, inst: &Inst, shared: &Shared, counting: bool, counted_idx: u64) {
        if self.real_l1i {
            let l1i_hit = shared.l1i.runs[self.l1i].hit;
            let ic = self.l2.access(AccessKind::IFetch, inst.pc, l1i_hit);
            if counting {
                match ic {
                    AccessOutcome::L1 => {}
                    AccessOutcome::L2 => self.icache_short += 1,
                    AccessOutcome::Memory => self.icache_long += 1,
                }
            }
        }
        if !self.real_l1d {
            return;
        }
        // Register taint: the latest long miss a value depends on. Every
        // taint is `None` until the first long miss, so until then there
        // is nothing to propagate.
        let src_taint = if self.longs.count() > 0 {
            inst.sources()
                .filter_map(|r| self.reg_taint[r.index()])
                .max()
        } else {
            None
        };
        let mut dest_taint = src_taint;
        if let Some(addr) = inst.mem_addr {
            let l1d_hit = shared.l1d.runs[self.l1d].hit;
            if inst.op == Op::Load {
                let outcome = self.l2.access(AccessKind::Load, addr, l1d_hit);
                if counting {
                    match outcome {
                        AccessOutcome::L1 => {}
                        AccessOutcome::L2 => self.dcache_short += 1,
                        AccessOutcome::Memory => {
                            let id = self.longs.count();
                            self.longs.record_dependent(counted_idx, src_taint);
                            dest_taint = Some(id);
                        }
                    }
                }
            } else {
                self.l2.access(AccessKind::Store, addr, l1d_hit);
            }
        }
        if let Some(dest) = inst.dest.filter(|_| self.longs.count() > 0) {
            self.reg_taint[dest.index()] = dest_taint;
        }
    }

    fn finish(
        self,
        shared: &Shared,
        params: &ProcessorParams,
        probe: &Probe,
        analysis: &IwAnalysis,
        counted: u64,
        fu_mix: [u64; 5],
    ) -> Result<ProgramProfile, ModelError> {
        let bstats = &shared.predictors.runs[self.predictor];
        let dtlb = self.dtlb.map(|i| &shared.dtlbs.runs[i]);

        // One bulk flush of the functional structures' counters per
        // profile, a shared structure's once for each probe that uses
        // it; the per-instruction stream stays uninstrumented.
        fosm_obs::with_registry(|registry| {
            fosm_cache::observe_levels(
                registry,
                "profile.cache",
                shared.l1i.runs[self.l1i].level.stats(),
                shared.l1d.runs[self.l1d].level.stats(),
                self.l2.stats(),
            );
            if let Some(run) = dtlb {
                run.tlb.observe_into(registry, "profile.cache.dtlb");
            }
            bstats.observe_into(registry, "profile.branch");
            registry.counter_add("profile.instructions", counted);
        });

        // Short misses lengthen the average load latency (paper §4.3);
        // this is the only probe-dependent input to the shared IW
        // analysis, folded in at finalization.
        let hit_latency = params.latencies.latency(Op::Load) as f64;
        let loads = analysis.loads();
        let extra_load_latency = if loads == 0 {
            0.0
        } else {
            (params.l2_latency as f64 - hit_latency).max(0.0) * self.dcache_short as f64
                / loads as f64
        };
        let iw = analysis.characteristic(&params.latencies, extra_load_latency)?;

        // Mispredictions within one pipeline refill of instructions
        // form a burst (they share one drain/ramp bracket, eq. 3).
        let burst_threshold = (params.pipe_depth * params.width) as u64;
        let no_tlb = LongMissRecorder::new();

        Ok(ProgramProfile {
            name: probe.name.clone(),
            instructions: counted,
            iw,
            cond_branches: bstats.branches(),
            mispredicts: bstats.mispredicts(),
            mispredict_burst_mean: bstats.mean_burst_length(burst_threshold).max(1.0),
            icache_short_misses: self.icache_short,
            icache_long_misses: self.icache_long,
            dcache_short_misses: self.dcache_short,
            long_miss_distribution: self.longs.distribution(params.rob_size),
            long_miss_distribution_paper: self.longs.distribution_paper(params.rob_size),
            dtlb_miss_distribution: dtlb
                .map_or(&no_tlb, |run| &run.misses)
                .distribution(params.rob_size),
            dtlb_walk_latency: probe.dtlb.map_or(0, |t| t.walk_latency),
            fu_mix,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};

    fn collect(spec: &BenchmarkSpec, n: u64) -> ProgramProfile {
        let params = ProcessorParams::baseline();
        let mut gen = WorkloadGenerator::new(spec, 7);
        ProfileCollector::new(&params)
            .with_name(spec.name.clone())
            .collect(&mut gen, n)
            .expect("collection succeeds")
    }

    #[test]
    fn gzip_profile_is_sane() {
        let p = collect(&BenchmarkSpec::gzip(), 100_000);
        assert_eq!(p.instructions, 100_000);
        assert_eq!(p.name, "gzip");
        assert!(p.cond_branches > 5_000);
        assert!(p.mispredict_rate() > 0.01 && p.mispredict_rate() < 0.35);
        let beta = p.iw.law().beta();
        assert!((0.3..=0.8).contains(&beta), "beta {beta}");
        assert!(p.iw.avg_latency() >= 1.0);
        assert!(p.mispredict_burst_mean >= 1.0);
    }

    #[test]
    fn mcf_is_dominated_by_long_misses() {
        let mcf = collect(&BenchmarkSpec::mcf(), 100_000);
        let gzip = collect(&BenchmarkSpec::gzip(), 100_000);
        assert!(
            mcf.dcache_long_misses() > 10 * gzip.dcache_long_misses().max(1),
            "mcf {} vs gzip {}",
            mcf.dcache_long_misses(),
            gzip.dcache_long_misses()
        );
        // Heavy clustering within the ROB for pointer-chasing misses.
        assert!(mcf.long_miss_distribution.overlap_factor() < 0.5);
    }

    #[test]
    fn code_heavy_benchmarks_miss_in_the_icache() {
        let gcc = collect(&BenchmarkSpec::gcc(), 100_000);
        let gzip = collect(&BenchmarkSpec::gzip(), 100_000);
        assert!(gcc.icache_short_misses + gcc.icache_long_misses > 300);
        assert!(
            gzip.icache_short_misses + gzip.icache_long_misses
                < (gcc.icache_short_misses + gcc.icache_long_misses) / 10
        );
    }

    #[test]
    fn ideal_hierarchy_produces_no_cache_misses() {
        let params = ProcessorParams::baseline();
        let mut gen = WorkloadGenerator::new(&BenchmarkSpec::mcf(), 3);
        let p = ProfileCollector::new(&params)
            .with_hierarchy(HierarchyConfig::ideal())
            .collect(&mut gen, 50_000)
            .unwrap();
        assert_eq!(p.icache_short_misses + p.icache_long_misses, 0);
        assert_eq!(p.dcache_short_misses, 0);
        assert_eq!(p.dcache_long_misses(), 0);
        // The IW characteristic is unaffected by cache idealization
        // apart from the latency folding.
        assert!(p.iw.law().beta() > 0.0);
    }

    #[test]
    fn ideal_predictor_produces_no_mispredicts() {
        let params = ProcessorParams::baseline();
        let mut gen = WorkloadGenerator::new(&BenchmarkSpec::gzip(), 3);
        let p = ProfileCollector::new(&params)
            .with_predictor(PredictorConfig::Ideal)
            .collect(&mut gen, 50_000)
            .unwrap();
        assert_eq!(p.mispredicts, 0);
        assert!(p.cond_branches > 0);
        assert_eq!(p.mispredicts_per_inst(), 0.0);
    }

    #[test]
    fn empty_trace_is_rejected() {
        let params = ProcessorParams::baseline();
        let mut empty = fosm_trace::VecTrace::default();
        let err = ProfileCollector::new(&params).collect(&mut empty, 1000);
        assert_eq!(err.unwrap_err(), ModelError::EmptyTrace);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut params = ProcessorParams::baseline();
        params.win_size = params.rob_size + 1;
        let mut gen = WorkloadGenerator::new(&BenchmarkSpec::gzip(), 3);
        let err = ProfileCollector::new(&params).collect(&mut gen, 1000);
        assert!(matches!(err, Err(ModelError::InvalidParams(_))));
    }

    #[test]
    fn sampled_collection_counts_only_samples() {
        let params = ProcessorParams::baseline();
        let mut gen = WorkloadGenerator::new(&BenchmarkSpec::gzip(), 7);
        let plan = crate::SamplingPlan {
            sample: 5_000,
            warmup: 5_000,
            period: 50_000,
        };
        let p = ProfileCollector::new(&params)
            .collect_sampled(&mut gen, plan, 15_000)
            .unwrap();
        assert_eq!(p.instructions, 15_000);
        assert!(p.cond_branches > 500);
        assert!(p.mispredict_rate() < 0.5);
    }

    #[test]
    fn warmup_reduces_cold_start_misses() {
        // Same counted budget; with warm-up the caches and predictor
        // are hot when counting starts.
        let params = ProcessorParams::baseline();
        let collect = |warmup: u64| {
            let mut gen = WorkloadGenerator::new(&BenchmarkSpec::gcc(), 7);
            let plan = crate::SamplingPlan {
                sample: 10_000,
                warmup,
                period: 100_000,
            };
            ProfileCollector::new(&params)
                .collect_sampled(&mut gen, plan, 30_000)
                .unwrap()
        };
        let cold = collect(0);
        let warm = collect(60_000);
        let long_misses = |p: &ProgramProfile| p.dcache_long_misses() + p.icache_long_misses;
        assert!(
            long_misses(&warm) < long_misses(&cold),
            "warm {} vs cold {}",
            long_misses(&warm),
            long_misses(&cold)
        );
    }

    #[test]
    fn invalid_sampling_plan_rejected() {
        let params = ProcessorParams::baseline();
        let mut gen = WorkloadGenerator::new(&BenchmarkSpec::gzip(), 7);
        let plan = crate::SamplingPlan {
            sample: 60_000,
            warmup: 60_000,
            period: 100_000,
        };
        let err = ProfileCollector::new(&params).collect_sampled(&mut gen, plan, 1_000);
        assert!(matches!(err, Err(ModelError::InvalidParams(_))));
        assert!(crate::SamplingPlan {
            sample: 0,
            warmup: 0,
            period: 10
        }
        .validate()
        .is_err());
        let ok = crate::SamplingPlan {
            sample: 10,
            warmup: 20,
            period: 100,
        };
        assert!(ok.validate().is_ok());
        assert!((ok.touched_ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn short_misses_raise_the_average_latency() {
        // Real caches -> short misses -> larger L than ideal caches.
        let params = ProcessorParams::baseline();
        let spec = BenchmarkSpec::gzip();
        let real = ProfileCollector::new(&params)
            .collect(&mut WorkloadGenerator::new(&spec, 3), 50_000)
            .unwrap();
        let ideal = ProfileCollector::new(&params)
            .with_hierarchy(HierarchyConfig::ideal())
            .collect(&mut WorkloadGenerator::new(&spec, 3), 50_000)
            .unwrap();
        assert!(real.iw.avg_latency() > ideal.iw.avg_latency());
    }
}
