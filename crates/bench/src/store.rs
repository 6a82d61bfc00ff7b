//! In-process memoizing artifact store: the one way a workload key
//! `(spec, n, seed)` becomes instructions, a simulation or a profile.
//!
//! The figure binaries re-derive the same artifacts over and over: the
//! `report` binary profiles each benchmark once per experiment
//! section, the sweep studies re-simulate identical `(trace, config)`
//! pairs, and `calibrate` replays the whole suite per candidate. Every
//! one of those artifacts is a pure function of its inputs — traces of
//! `(spec, seed, length)`, simulator reports and profiles of
//! `(trace, config)` — so the store memoizes them behind [`Arc`]s:
//!
//! * [`ArtifactStore::trace`] — the recorded trace of a key, shared
//!   while some caller holds it: the table keeps only a [`Weak`]
//!   reference, so the trace is freed when its last holder drops it;
//! * [`ArtifactStore::simulate`] — detailed-simulator reports, keyed
//!   `(trace key, machine config)`;
//! * [`ArtifactStore::profile`] — functional profiles, keyed
//!   `(trace key, processor params, profile name)`.
//!
//! Simulations and profiles read their instructions by one rule: they
//! replay the trace if a caller holds it, or else stream the generator
//! of `(spec, seed)` over the memoized program, bounded to `n`. A
//! caller that reads one key several times (a validation case runs
//! five simulation sets) holds the trace for that operation.
//!
//! Keys embed the full `Debug` rendering of the spec/config/params
//! (Rust's `{:?}` for `f64` is the exact shortest round-trip form, so
//! distinct configurations can never collide). Values are computed
//! outside the table lock — concurrent callers may race to compute the
//! same artifact, but the first insert wins and the computation is
//! deterministic, so every caller observes identical values and
//! figure output stays byte-identical to a cold, serial run.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use fosm_branch::PredictorConfig;
use fosm_cache::HierarchyConfig;
use fosm_core::params::ProcessorParams;
use fosm_core::profile::{Probe, ProbeBank, ProfileCollector, ProgramProfile};
use fosm_core::ModelError;
use fosm_sim::{Machine, MachineConfig, SimReport, TraceEvent};
use fosm_trace::{CorpusFile, PackedTrace, TraceSource};
use fosm_workloads::{BenchmarkSpec, SyntheticProgram, WorkloadGenerator};

use crate::disk::DiskCache;

/// Key of a recorded trace: exact spec rendering, seed, length.
type TraceKey = (String, u64, u64);

/// Key of a simulation: trace key, full machine configuration
/// rendering.
type SimKey = (TraceKey, String);

/// Key of a functional profile: trace key, full probe configuration
/// rendering, probe name.
type ProfileKey = (TraceKey, String, String);

/// Hit/miss counters for one artifact kind.
#[derive(Debug, Default)]
struct Counter {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl Counter {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
    fn insert(&self) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }
    fn load(&self) -> [u64; 3] {
        [&self.hits, &self.misses, &self.inserts].map(|c| c.load(Ordering::Relaxed))
    }
}

/// A memo table: values behind `Arc`s, the first insert of a key
/// wins, and every lookup and insert is counted.
struct Memo<K, V> {
    table: Mutex<HashMap<K, Arc<V>>>,
    traffic: Counter,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            table: Mutex::new(HashMap::new()),
            traffic: Counter::default(),
        }
    }
}

impl<K: Eq + Hash, V> Memo<K, V> {
    /// The memoized value of `key`, counted as a hit or a miss.
    fn get(&self, key: &K) -> Option<Arc<V>> {
        let found = self.table.lock().expect("store lock").get(key).cloned();
        match found {
            Some(_) => self.traffic.hit(),
            None => self.traffic.miss(),
        }
        found
    }

    /// Inserts `value` unless a concurrent caller inserted `key`
    /// first. Returns the table's value and whether it is this call's.
    fn insert(&self, key: K, value: V) -> (Arc<V>, bool) {
        match self.table.lock().expect("store lock").entry(key) {
            Entry::Occupied(e) => (Arc::clone(e.get()), false),
            Entry::Vacant(e) => {
                self.traffic.insert();
                (Arc::clone(e.insert(Arc::new(value))), true)
            }
        }
    }

    /// The memoized value of `key`, or else `compute`'s. The value is
    /// computed *outside* the lock, so a slow simulation never
    /// serializes unrelated lookups, and a concurrent duplicate
    /// computation loses to the first insert. The flag says whether
    /// this call computed the value that won — for side effects that
    /// must happen exactly once per key. Errors are not memoized.
    fn get_or_try<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        match self.get(&key) {
            Some(v) => Ok((v, false)),
            None => Ok(self.insert(key, compute()?)),
        }
    }
}

/// A snapshot of the store's traffic, for diagnostics output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Explicit [`ArtifactStore::trace`] calls served by a trace that
    /// a live holder shares. Simulations and profiles never count
    /// here: they replay a held trace or stream the generator.
    pub trace_hits: u64,
    /// [`ArtifactStore::trace`] calls that recorded the trace because
    /// no caller held it.
    pub trace_misses: u64,
    /// Simulator reports served from memory.
    pub sim_hits: u64,
    /// Simulator runs actually executed.
    pub sim_misses: u64,
    /// Profiles served from memory.
    pub profile_hits: u64,
    /// Profile collections actually executed.
    pub profile_misses: u64,
    /// Traces that won the insert race (misses minus discarded
    /// duplicate recordings).
    pub trace_inserts: u64,
    /// Simulator reports that won the insert race.
    pub sim_inserts: u64,
    /// Profiles that won the insert race.
    pub profile_inserts: u64,
}

impl StoreStats {
    /// Flushes the store's traffic counters into an observability
    /// registry under `store.{trace,sim,profile}.{hits,misses,inserts}`.
    pub fn observe_into(&self, registry: &fosm_obs::Registry) {
        for (kind, hits, misses, inserts) in [
            (
                "trace",
                self.trace_hits,
                self.trace_misses,
                self.trace_inserts,
            ),
            ("sim", self.sim_hits, self.sim_misses, self.sim_inserts),
            (
                "profile",
                self.profile_hits,
                self.profile_misses,
                self.profile_inserts,
            ),
        ] {
            registry.counter_add(&format!("store.{kind}.hits"), hits);
            registry.counter_add(&format!("store.{kind}.misses"), misses);
            registry.counter_add(&format!("store.{kind}.inserts"), inserts);
        }
    }
}

/// A simulation's report plus its miss-event stream.
type TracedRun = (SimReport, Vec<TraceEvent>);

/// One memoized simulation: the report, shared alone for
/// [`ArtifactStore::simulate`], and the run with its miss events, which
/// are empty unless the entry keeps them.
struct SimRun {
    report: Arc<SimReport>,
    traced: Arc<TracedRun>,
}

/// The memoizing artifact store. One global instance serves a whole
/// process (see [`ArtifactStore::global`]); independent instances can
/// be created for tests.
#[derive(Default)]
pub struct ArtifactStore {
    /// Recorded traces, alive only while a caller holds one; dead
    /// entries are pruned on insert.
    traces: Mutex<HashMap<TraceKey, Weak<PackedTrace>>>,
    trace_traffic: Counter,
    /// Built static programs, keyed by the exact spec rendering: a
    /// streamed simulation or profile walks one without rebuilding it,
    /// so the artifacts of one key computed one request at a time
    /// build it once.
    programs: Mutex<HashMap<String, Arc<SyntheticProgram>>>,
    /// Simulations, keyed by whether the entry keeps its miss events.
    sims: Memo<(SimKey, bool), SimRun>,
    profiles: Memo<ProfileKey, ProgramProfile>,
    /// Optional persistence layer: profiles missing from the in-memory
    /// table are read through it before being recomputed, and written
    /// through it after computation, so the warm state survives
    /// process restarts (the serve daemon's cache-reuse contract).
    /// Attached at most once.
    disk: OnceLock<Arc<DiskCache>>,
}

impl ArtifactStore {
    /// A fresh, empty store.
    pub fn new() -> Self {
        ArtifactStore::default()
    }

    /// The process-wide store shared by the figure binaries. When
    /// `FOSM_CACHE_DIR` is set, the store is backed by an on-disk
    /// cache rooted there (budget `FOSM_CACHE_MAX_BYTES`, default
    /// 1 GiB).
    pub fn global() -> &'static ArtifactStore {
        static GLOBAL: OnceLock<ArtifactStore> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let store = ArtifactStore::new();
            if let Some(disk) = DiskCache::from_env() {
                store.attach_disk(Arc::new(disk));
            }
            store
        })
    }

    /// Backs this store with an on-disk cache. Has no effect if a
    /// cache is already attached (the first one wins).
    pub fn attach_disk(&self, disk: Arc<DiskCache>) {
        let _ = self.disk.set(disk);
    }

    /// The attached on-disk cache, if any.
    pub fn disk(&self) -> Option<&Arc<DiskCache>> {
        self.disk.get()
    }

    /// The benchmark's recorded trace (packed SoA layout): the one a
    /// live caller already holds, or a new recording. The store keeps
    /// only a weak reference, so the trace lives exactly as long as
    /// some caller holds the returned `Arc`; while one does, every
    /// simulation and profile of the key replays it. Memory only: the
    /// disk cache never holds traces, because generating one from
    /// `(spec, n, seed)` is cheaper than loading it back.
    pub fn trace(&self, spec: &BenchmarkSpec, n: u64, seed: u64) -> Arc<PackedTrace> {
        let key = trace_key(spec, n, seed);
        if let Some(trace) = self.held(&key) {
            self.trace_traffic.hit();
            return trace;
        }
        self.trace_traffic.miss();
        let recorded = {
            let _span = fosm_obs::span("record");
            Arc::new(PackedTrace::record(&mut self.generator(spec, seed), n))
        };
        let mut table = self.traces.lock().expect("store lock");
        if let Some(raced) = table.get(&key).and_then(Weak::upgrade) {
            return raced;
        }
        table.retain(|_, trace| trace.strong_count() > 0);
        table.insert(key, Arc::downgrade(&recorded));
        self.trace_traffic.insert();
        recorded
    }

    /// The trace of `key` if a caller holds it. Not trace traffic.
    fn held(&self, key: &TraceKey) -> Option<Arc<PackedTrace>> {
        let table = self.traces.lock().expect("store lock");
        table.get(key).and_then(Weak::upgrade)
    }

    /// The detailed simulator's report for `(trace, config)`, running
    /// the simulation on first use.
    pub fn simulate(
        &self,
        config: &MachineConfig,
        spec: &BenchmarkSpec,
        n: u64,
        seed: u64,
    ) -> Arc<SimReport> {
        let key = (trace_key(spec, n, seed), format!("{config:?}"));
        let Ok(sim) = self.memo_sim(key, false, |keep| {
            Ok::<_, Infallible>(self.run_keyed(config, spec, n, seed, keep))
        });
        Arc::clone(&sim.report)
    }

    /// The detailed simulator's report *plus its miss-event stream*
    /// for `(trace, config)`. The report is identical to
    /// [`simulate`](Self::simulate)'s ([`fosm_sim::Machine::run_traced`]
    /// is exact).
    pub fn simulate_traced(
        &self,
        config: &MachineConfig,
        spec: &BenchmarkSpec,
        n: u64,
        seed: u64,
    ) -> Arc<TracedRun> {
        let key = (trace_key(spec, n, seed), format!("{config:?}"));
        let Ok(sim) = self.memo_sim(key, true, |keep| {
            Ok::<_, Infallible>(self.run_keyed(config, spec, n, seed, keep))
        });
        Arc::clone(&sim.traced)
    }

    /// Memoizes one simulation. `run(keep)` simulates, and returns the
    /// run's miss events when `keep` is set. The entry keeps them when
    /// the caller asks (`traced`) or the process's event sink is on;
    /// the sink thus sends every lookup of `key` to one entry, and the
    /// call that computes and inserts it publishes its events. A
    /// concurrent duplicate computation, discarded by the memo,
    /// publishes nothing, so the trace file is byte-equal at any
    /// thread count.
    fn memo_sim<E>(
        &self,
        key: SimKey,
        traced: bool,
        run: impl FnOnce(bool) -> Result<TracedRun, E>,
    ) -> Result<Arc<SimRun>, E> {
        let publish = fosm_obs::trace_enabled();
        let keep = traced || publish;
        let (sim, won) = self.sims.get_or_try((key, keep), || {
            let (report, events) = run(keep)?;
            Ok(SimRun {
                report: Arc::new(report.clone()),
                traced: Arc::new((report, events)),
            })
        })?;
        if won && publish {
            fosm_obs::publish_events(&sim.traced.1);
        }
        Ok(sim)
    }

    /// One simulation of a workload key, by the store's input rule: a
    /// replay of the trace if a caller holds it, else the generator
    /// streamed over the memoized program.
    fn run_keyed(
        &self,
        config: &MachineConfig,
        spec: &BenchmarkSpec,
        n: u64,
        seed: u64,
        keep: bool,
    ) -> TracedRun {
        match self.held(&trace_key(spec, n, seed)) {
            Some(trace) => run_machine(config, &mut trace.replay(), keep),
            None => run_machine(config, &mut self.generator(spec, seed).take(n), keep),
        }
    }

    /// The functional profile for `(trace, params, name)` under the
    /// baseline hierarchy and predictor, collecting it on first use.
    pub fn profile(
        &self,
        params: &ProcessorParams,
        name: &str,
        spec: &BenchmarkSpec,
        n: u64,
        seed: u64,
    ) -> Arc<ProgramProfile> {
        self.profile_with(
            params,
            &HierarchyConfig::baseline(),
            PredictorConfig::baseline(),
            name,
            spec,
            n,
            seed,
        )
        .expect("baseline profile collection on a recorded trace succeeds")
    }

    /// The functional profile under an explicit cache hierarchy and
    /// branch predictor, keyed by the full functional configuration so
    /// machine variants (ideal, branch-only, …) never collide.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from collection (arbitrary fuzzed
    /// configurations can legitimately fail); errors are not memoized.
    #[allow(clippy::too_many_arguments)]
    pub fn profile_with(
        &self,
        params: &ProcessorParams,
        hierarchy: &HierarchyConfig,
        predictor: PredictorConfig,
        name: &str,
        spec: &BenchmarkSpec,
        n: u64,
        seed: u64,
    ) -> Result<Arc<ProgramProfile>, ModelError> {
        let probe = Probe {
            hierarchy: *hierarchy,
            predictor,
            dtlb: None,
            name: name.to_string(),
        };
        let bank = ProbeBank::from(vec![probe]);
        let mut profiles = self.profile_many(params, &bank, spec, n, seed)?;
        Ok(profiles.pop().expect("one probe yields one profile"))
    }

    /// One functional profile per probe in `bank` (bank order), keyed
    /// individually: memoized probes are served from the store, and
    /// all missing probes are collected together in a **single fused
    /// pass** (see [`ProfileCollector::collect_many`]), by the same
    /// input rule as a simulation.
    ///
    /// # Errors
    ///
    /// As [`profile_with`](Self::profile_with).
    pub fn profile_many(
        &self,
        params: &ProcessorParams,
        bank: &ProbeBank,
        spec: &BenchmarkSpec,
        n: u64,
        seed: u64,
    ) -> Result<Vec<Arc<ProgramProfile>>, ModelError> {
        let tkey = trace_key(spec, n, seed);
        self.profile_many_keyed(params, bank, &tkey, |sub_bank| match self.held(&tkey) {
            Some(trace) => collect_many(params, sub_bank, &mut trace.replay()),
            None => collect_many(params, sub_bank, &mut self.generator(spec, seed).take(n)),
        })
    }

    /// A generator of `(spec, seed)` over the memoized program of
    /// `spec`, building the program on first use. Program builds are
    /// not reported store traffic.
    fn generator(&self, spec: &BenchmarkSpec, seed: u64) -> WorkloadGenerator {
        let program = Arc::clone(
            self.programs
                .lock()
                .expect("store lock")
                .entry(format!("{spec:?}"))
                .or_insert_with(|| {
                    Arc::new(SyntheticProgram::build(spec).expect("invalid benchmark spec"))
                }),
        );
        WorkloadGenerator::from_program(program, seed)
    }

    /// One functional profile per probe, collected from an on-disk
    /// corpus file instead of a recorded workload. Keys gain the
    /// corpus's file identity (path + byte size + content digest), so
    /// rewriting a corpus in place can never serve stale profiles.
    ///
    /// The fused fill replays the file through the paged
    /// [`fosm_trace::FileReplay`] cursor, so resident memory is O(page)
    /// whatever the corpus length.
    ///
    /// # Errors
    ///
    /// As [`profile_with`](Self::profile_with), plus
    /// [`ModelError::Corpus`] if the file turns out to be unreadable or
    /// corrupt mid-replay.
    pub fn profile_many_corpus(
        &self,
        params: &ProcessorParams,
        bank: &ProbeBank,
        corpus: &CorpusFile,
    ) -> Result<Vec<Arc<ProgramProfile>>, ModelError> {
        self.profile_many_keyed(params, bank, &corpus_trace_key(corpus), |sub_bank| {
            let mut replay = corpus.replay();
            let profiles = collect_many(params, sub_bank, &mut replay)?;
            match replay.take_error() {
                Some(e) => Err(corpus_error(corpus, &e)),
                None => Ok(profiles),
            }
        })
    }

    /// The memoization core shared by the workload and corpus profile
    /// paths: serves per-probe hits from memory, reads the rest through
    /// the disk cache, and hands only the probes absent from both
    /// layers to `fill` for a single fused pass.
    fn profile_many_keyed(
        &self,
        params: &ProcessorParams,
        bank: &ProbeBank,
        tkey: &TraceKey,
        fill: impl FnOnce(&ProbeBank) -> Result<Vec<ProgramProfile>, ModelError>,
    ) -> Result<Vec<Arc<ProgramProfile>>, ModelError> {
        let keys: Vec<ProfileKey> = bank
            .probes()
            .iter()
            .map(|probe| {
                (
                    tkey.clone(),
                    probe_config_key(params, probe),
                    probe.name.clone(),
                )
            })
            .collect();
        let mut slots: Vec<Option<Arc<ProgramProfile>>> = Vec::with_capacity(keys.len());
        for key in &keys {
            let slot = self.profiles.get(key);
            // Live scoped counters alongside the run-boundary
            // `StoreStats::observe_into` flush (which uses the
            // `store.profile.hits`/`misses` names): a daemon request's
            // scoped registry sees its own memo traffic immediately,
            // without double-counting the flushed aggregate.
            let name = match slot {
                Some(_) => "store.profile.memo_hits",
                None => "store.profile.memo_misses",
            };
            fosm_obs::counter_add(name, 1);
            slots.push(slot);
        }
        let mut missing: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
        // Read memory-missing probes through the disk cache before
        // paying for a replay; only probes absent from both layers join
        // the fused pass.
        if let Some(disk) = self.disk.get() {
            missing.retain(|&i| {
                match disk.load::<ProgramProfile>("profile", &disk_profile_key(&keys[i])) {
                    Some(profile) => {
                        slots[i] = Some(self.profiles.insert(keys[i].clone(), profile).0);
                        false
                    }
                    None => true,
                }
            });
        }
        if !missing.is_empty() {
            let sub_bank: ProbeBank = missing.iter().map(|&i| bank.probes()[i].clone()).collect();
            let computed = fill(&sub_bank)?;
            for (&i, profile) in missing.iter().zip(computed) {
                if let Some(disk) = self.disk.get() {
                    disk.store("profile", &disk_profile_key(&keys[i]), &profile);
                }
                slots[i] = Some(self.profiles.insert(keys[i].clone(), profile).0);
            }
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("every probe resolved"))
            .collect())
    }

    /// The detailed simulator's report for `(corpus, config)`, memoized
    /// in the same simulation table as the workload path (corpus trace
    /// keys are prefixed `corpus:` and embed the content digest, so the
    /// two key families can never collide). Errors are not memoized.
    ///
    /// # Errors
    ///
    /// [`ModelError::Corpus`] if the file is unreadable or corrupt.
    pub fn simulate_corpus(
        &self,
        config: &MachineConfig,
        corpus: &CorpusFile,
    ) -> Result<Arc<SimReport>, ModelError> {
        let key = (corpus_trace_key(corpus), format!("{config:?}"));
        let sim = self.memo_sim(key, false, |keep| {
            let mut replay = corpus.replay();
            let run = run_machine(config, &mut replay, keep);
            match replay.take_error() {
                Some(e) => Err(corpus_error(corpus, &e)),
                None => Ok(run),
            }
        })?;
        Ok(Arc::clone(&sim.report))
    }

    /// Current hit/miss counts.
    pub fn stats(&self) -> StoreStats {
        let [trace_hits, trace_misses, trace_inserts] = self.trace_traffic.load();
        let [sim_hits, sim_misses, sim_inserts] = self.sims.traffic.load();
        let [profile_hits, profile_misses, profile_inserts] = self.profiles.traffic.load();
        StoreStats {
            trace_hits,
            trace_misses,
            sim_hits,
            sim_misses,
            profile_hits,
            profile_misses,
            trace_inserts,
            sim_inserts,
            profile_inserts,
        }
    }
}

/// One detailed-simulator run over `source`, with its miss events when
/// `keep` is set.
fn run_machine<S: TraceSource>(config: &MachineConfig, source: &mut S, keep: bool) -> TracedRun {
    let _span = fosm_obs::span("simulate");
    let mut machine = Machine::new(config.clone());
    if keep {
        machine.run_traced(source)
    } else {
        (machine.run(source), Vec::new())
    }
}

/// One fused profile pass over `source` for every probe in `bank`.
fn collect_many<S: TraceSource>(
    params: &ProcessorParams,
    bank: &ProbeBank,
    source: &mut S,
) -> Result<Vec<ProgramProfile>, ModelError> {
    let _span = fosm_obs::span("profile");
    ProfileCollector::new(params).collect_many(source, bank, u64::MAX)
}

fn trace_key(spec: &BenchmarkSpec, n: u64, seed: u64) -> TraceKey {
    (format!("{spec:?}"), seed, n)
}

/// Trace key of a corpus file: the `corpus:`-prefixed identity string
/// (path + byte size + content digest) in the spec slot, the digest in
/// the seed slot, and the instruction count in the length slot. The
/// prefix keeps corpus keys disjoint from every workload spec's
/// `Debug` rendering.
fn corpus_trace_key(corpus: &CorpusFile) -> TraceKey {
    (
        format!("corpus:{}", corpus.identity()),
        corpus.digest(),
        corpus.len(),
    )
}

/// Wraps a corpus-path failure as [`ModelError::Corpus`], naming the
/// file.
fn corpus_error(corpus: &CorpusFile, e: &dyn std::fmt::Display) -> ModelError {
    ModelError::Corpus(format!("{}: {e}", corpus.path().display()))
}

/// Renders a profile key as the disk cache's logical key string. The
/// rendering embeds the full spec `Debug` output, so distinct specs
/// can never alias on disk any more than they can in memory.
fn disk_profile_key(key: &ProfileKey) -> String {
    format!("{key:?}")
}

/// Configuration half of a profile key: the full functional setup,
/// including the optional data TLB, so no two probe configurations can
/// share an entry.
fn probe_config_key(params: &ProcessorParams, probe: &Probe) -> String {
    format!(
        "{params:?}|{:?}|{:?}|{:?}",
        probe.hierarchy, probe.predictor, probe.dtlb
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;

    /// An unmemoized recording of `n` instructions of `spec` at the
    /// figure seed: the reference the store's paths must match.
    fn recorded(spec: &BenchmarkSpec, n: u64) -> PackedTrace {
        PackedTrace::record(&mut WorkloadGenerator::new(spec, harness::SEED), n)
    }

    /// An unmemoized baseline profile of `trace`.
    fn direct_profile(params: &ProcessorParams, name: &str, trace: &PackedTrace) -> ProgramProfile {
        ProfileCollector::new(params)
            .with_name(name)
            .collect(&mut trace.replay(), u64::MAX)
            .expect("profile")
    }

    #[test]
    fn trace_is_shared_while_held_and_rerecorded_after() {
        let store = ArtifactStore::new();
        let spec = BenchmarkSpec::gzip();
        let a = store.trace(&spec, 2_000, 7);
        let b = store.trace(&spec, 2_000, 7);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 2_000);
        let s = store.stats();
        assert_eq!((s.trace_hits, s.trace_misses, s.trace_inserts), (1, 1, 1));

        // The last holder drops the trace and the store lets it go: the
        // next call records it again, identically.
        let first = (*a).clone();
        drop((a, b));
        assert!(store.held(&trace_key(&spec, 2_000, 7)).is_none());
        let again = store.trace(&spec, 2_000, 7);
        assert_eq!(*again, first);
        let s = store.stats();
        assert_eq!((s.trace_hits, s.trace_misses, s.trace_inserts), (1, 2, 2));

        // A dead entry is pruned when another trace is inserted.
        drop(again);
        let _other = store.trace(&spec, 1_000, 7);
        assert_eq!(store.traces.lock().unwrap().len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let store = ArtifactStore::new();
        let spec = BenchmarkSpec::gzip();
        let a = store.trace(&spec, 1_000, 7);
        let b = store.trace(&spec, 1_000, 8); // different seed
        let c = store.trace(&spec, 1_500, 7); // different length
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_ne!(&*a, &*b);
    }

    #[test]
    fn simulations_stream_or_replay_a_held_trace_and_keep_none() {
        let store = ArtifactStore::new();
        let spec = BenchmarkSpec::gzip();
        let config = MachineConfig::baseline();
        let direct = Machine::new(config.clone()).run(&mut recorded(&spec, 3_000).replay());
        let streamed = store.simulate(&config, &spec, 3_000, harness::SEED);
        assert_eq!(*streamed, direct);
        assert!(store.traces.lock().unwrap().is_empty(), "no trace kept");
        // Second lookup is a hit on the same allocation.
        let again = store.simulate(&config, &spec, 3_000, harness::SEED);
        assert!(Arc::ptr_eq(&streamed, &again));
        assert_eq!(store.stats().sim_misses, 1);

        // While a caller holds the trace, a simulation replays it,
        // uncounted, to the same report, and keeps no copy.
        let store = ArtifactStore::new();
        let held = store.trace(&spec, 3_000, harness::SEED);
        assert_eq!(
            *store.simulate(&config, &spec, 3_000, harness::SEED),
            direct
        );
        assert_eq!(Arc::strong_count(&held), 1);
        let s = store.stats();
        assert_eq!(
            (s.trace_hits, s.trace_misses),
            (0, 1),
            "only trace() counts"
        );
    }

    #[test]
    fn profile_matches_direct_run() {
        let store = ArtifactStore::new();
        let spec = BenchmarkSpec::gzip();
        let params = harness::params_of(&MachineConfig::baseline());
        let direct = direct_profile(&params, &spec.name, &recorded(&spec, 3_000));
        let memoized = store.profile(&params, &spec.name, &spec, 3_000, harness::SEED);
        assert_eq!(*memoized, direct);
        assert_eq!(store.stats().profile_misses, 1);
    }

    #[test]
    fn traced_simulation_matches_untraced_report() {
        let store = ArtifactStore::new();
        let spec = BenchmarkSpec::gzip();
        let config = MachineConfig::baseline();
        let untraced = store.simulate(&config, &spec, 3_000, harness::SEED);
        let traced = store.simulate_traced(&config, &spec, 3_000, harness::SEED);
        assert_eq!(*untraced, traced.0);
        assert!(!traced.1.is_empty(), "baseline gzip run produces events");
        // Second lookup hits the entry that keeps the events.
        let again = store.simulate_traced(&config, &spec, 3_000, harness::SEED);
        assert!(Arc::ptr_eq(&traced, &again));
    }

    #[test]
    fn concurrent_lookups_converge_on_one_value() {
        let store = ArtifactStore::new();
        let spec = BenchmarkSpec::gzip();
        let traces: Vec<Arc<PackedTrace>> =
            crate::par::par_map(&[0u32; 8], 8, |_| store.trace(&spec, 1_000, 3));
        for t in &traces {
            assert!(Arc::ptr_eq(t, &traces[0]));
        }
    }

    fn temp_disk(name: &str) -> Arc<DiskCache> {
        let root = std::env::temp_dir().join(format!(
            "fosm-store-disk-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        Arc::new(DiskCache::new(root, u64::MAX).expect("temp disk cache"))
    }

    /// The kind directories a disk cache holds, sorted.
    fn disk_kinds(disk: &DiskCache) -> Vec<String> {
        let mut kinds: Vec<String> = std::fs::read_dir(disk.root())
            .expect("cache root")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        kinds.sort();
        kinds
    }

    #[test]
    fn warm_store_restart_serves_profiles_from_disk() {
        let disk = temp_disk("restart");
        let spec = BenchmarkSpec::gzip();
        let params = harness::params_of(&MachineConfig::baseline());
        let path = temp_corpus("restart", 2_000);
        let corpus = CorpusFile::open(&path).expect("open corpus");
        let bank = ProbeBank::from(vec![Probe::new("gzip".to_string())]);

        // Cold process: both profiles computed and written through;
        // neither the workload trace nor the corpus is persisted.
        let cold_store = ArtifactStore::new();
        cold_store.attach_disk(Arc::clone(&disk));
        let cold_profile = cold_store.profile(&params, &spec.name, &spec, 2_000, 7);
        let cold_corpus = cold_store
            .profile_many_corpus(&params, &bank, &corpus)
            .expect("cold corpus profiles");
        assert_eq!(disk.stats().inserts, 2, "two profiles written through");
        assert_eq!(
            disk_kinds(&disk),
            ["profile"],
            "the disk holds profiles only"
        );

        // "Restart": a fresh store sharing only the disk directory.
        let warm_store = ArtifactStore::new();
        warm_store.attach_disk(Arc::clone(&disk));
        let warm_profile = warm_store.profile(&params, &spec.name, &spec, 2_000, 7);
        let warm_corpus = warm_store
            .profile_many_corpus(&params, &bank, &corpus)
            .expect("warm corpus profiles");
        let json = |p: &ProgramProfile| serde_json::to_string(p).expect("profile serializes");
        assert_eq!(json(&warm_profile), json(&cold_profile));
        assert_eq!(json(&warm_corpus[0]), json(&cold_corpus[0]));
        let stats = disk.stats();
        assert_eq!(stats.hits, 2, "warm run must be served from disk");
        assert_eq!(stats.inserts, 2, "warm run must not recompute");
        assert_eq!(warm_store.stats().trace_misses, 0, "no trace regenerated");
        assert_eq!(disk_kinds(&disk), ["profile"]);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(disk.root());
    }

    #[test]
    fn corrupted_disk_entry_is_recomputed_identically() {
        let disk = temp_disk("corrupt");
        let spec = BenchmarkSpec::gzip();
        let params = harness::params_of(&MachineConfig::baseline());
        let cold_store = ArtifactStore::new();
        cold_store.attach_disk(Arc::clone(&disk));
        let original = cold_store.profile(&params, &spec.name, &spec, 1_500, 11);

        // Truncate the one blob on disk mid-payload.
        let kind_dir = disk.root().join("profile");
        let entry = std::fs::read_dir(&kind_dir)
            .expect("profile dir")
            .flatten()
            .next()
            .expect("one entry")
            .path();
        let bytes = std::fs::read(&entry).expect("entry readable");
        std::fs::write(&entry, &bytes[..bytes.len() / 3]).expect("truncate");

        let warm_store = ArtifactStore::new();
        warm_store.attach_disk(Arc::clone(&disk));
        let recomputed = warm_store.profile(&params, &spec.name, &spec, 1_500, 11);
        assert_eq!(*recomputed, *original, "recompute must be deterministic");
        let stats = disk.stats();
        assert_eq!(stats.corruptions, 1);
        assert_eq!(stats.inserts, 2, "recomputed profile re-written through");
        let _ = std::fs::remove_dir_all(disk.root());
    }

    fn temp_corpus(name: &str, n: u64) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "fosm-store-corpus-test-{}-{name}.fct",
            std::process::id()
        ));
        fosm_trace::write_corpus(&path, &recorded(&BenchmarkSpec::gzip(), n))
            .expect("write corpus");
        path
    }

    #[test]
    fn corpus_profile_matches_the_in_memory_profile_of_the_same_stream() {
        let path = temp_corpus("profile", 3_000);
        let corpus = CorpusFile::open(&path).expect("open corpus");
        let spec = BenchmarkSpec::gzip();
        let params = harness::params_of(&MachineConfig::baseline());
        let store = ArtifactStore::new();
        let bank = ProbeBank::from(vec![Probe::new(spec.name.clone())]);
        let profiles = store
            .profile_many_corpus(&params, &bank, &corpus)
            .expect("corpus profiles");
        let direct = direct_profile(&params, &spec.name, &recorded(&spec, 3_000));
        assert_eq!(*profiles[0], direct, "paged replay must be exact");
        // Second call is a pure memory hit on the identity-keyed entry.
        let again = store
            .profile_many_corpus(&params, &bank, &corpus)
            .expect("corpus profiles again");
        assert!(Arc::ptr_eq(&profiles[0], &again[0]));
        let s = store.stats();
        assert_eq!((s.profile_hits, s.profile_misses), (1, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corpus_simulation_matches_the_in_memory_run() {
        let path = temp_corpus("simulate", 3_000);
        let corpus = CorpusFile::open(&path).expect("open corpus");
        let config = MachineConfig::baseline();
        let trace = recorded(&BenchmarkSpec::gzip(), 3_000);
        let direct = Machine::new(config.clone()).run(&mut trace.replay());

        let store = ArtifactStore::new();
        let report = store.simulate_corpus(&config, &corpus).expect("sim");
        assert_eq!(*report, direct, "paged replay must be exact");
        let again = store.simulate_corpus(&config, &corpus).expect("sim hit");
        assert!(Arc::ptr_eq(&report, &again));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_many_serves_hits_and_fuses_the_rest() {
        let store = ArtifactStore::new();
        let spec = BenchmarkSpec::gzip();
        let params = harness::params_of(&MachineConfig::baseline());
        // Warm one probe through the single-probe path.
        let warm = store
            .profile_with(
                &params,
                &HierarchyConfig::ideal(),
                PredictorConfig::Ideal,
                &spec.name,
                &spec,
                3_000,
                harness::SEED,
            )
            .expect("profile");
        let bank = ProbeBank::from(vec![
            Probe::new(spec.name.clone())
                .with_hierarchy(HierarchyConfig::ideal())
                .with_predictor(PredictorConfig::Ideal),
            Probe::new(spec.name.clone()),
        ]);
        let profiles = store
            .profile_many(&params, &bank, &spec, 3_000, harness::SEED)
            .expect("fused profiles");
        assert_eq!(profiles.len(), 2);
        // First probe is the memoized allocation; second was collected
        // in the fused fill and matches a direct computation.
        assert!(Arc::ptr_eq(&profiles[0], &warm));
        let direct = direct_profile(&params, &spec.name, &recorded(&spec, 3_000));
        assert_eq!(*profiles[1], direct);
        let s = store.stats();
        assert_eq!(s.profile_hits, 1);
        assert_eq!(s.profile_misses, 2);
        assert_eq!(s.profile_inserts, 2);
    }

    #[test]
    fn cold_profiles_stream_and_replay_only_a_held_trace() {
        let store = ArtifactStore::new();
        let spec = BenchmarkSpec::gzip();
        let params = harness::params_of(&MachineConfig::baseline());
        let streamed = store.profile(&params, "streamed", &spec, 3_000, harness::SEED);
        assert!(store.traces.lock().unwrap().is_empty(), "no trace kept");
        assert_eq!(
            store.stats().trace_misses,
            0,
            "streaming is no trace traffic"
        );

        // While a caller holds the trace, a profile replays it,
        // uncounted, and gets the same answer.
        let held = store.trace(&spec, 3_000, harness::SEED);
        let before = store.stats();
        let replayed = store.profile(&params, "replayed", &spec, 3_000, harness::SEED);
        let after = store.stats();
        assert_eq!(
            (after.trace_hits, after.trace_misses),
            (before.trace_hits, before.trace_misses)
        );
        assert_eq!(Arc::strong_count(&held), 1, "the profile kept no copy");
        let strip = |p: &ProgramProfile| ProgramProfile {
            name: String::new(),
            ..p.clone()
        };
        assert_eq!(strip(&streamed), strip(&replayed));
    }
}
