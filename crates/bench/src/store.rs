//! In-process memoizing artifact store.
//!
//! The figure binaries re-derive the same artifacts over and over: the
//! `report` binary records each benchmark's trace once per experiment
//! section, the sweep studies re-simulate identical `(trace, config)`
//! pairs, and `calibrate` replays the whole suite per candidate. Every
//! one of those artifacts is a pure function of its inputs — traces of
//! `(spec, seed, length)`, simulator reports and profiles of
//! `(trace, config)` — so the store memoizes them behind [`Arc`]s:
//!
//! * [`ArtifactStore::trace`] — recorded traces, keyed
//!   `(spec, seed, len)`;
//! * [`ArtifactStore::simulate`] — detailed-simulator reports, keyed
//!   `(trace key, machine config)`;
//! * [`ArtifactStore::profile`] — functional profiles, keyed
//!   `(trace key, processor params, profile name)`.
//!
//! Keys embed the full `Debug` rendering of the spec/config/params
//! (Rust's `{:?}` for `f64` is the exact shortest round-trip form, so
//! distinct configurations can never collide). Values are computed
//! outside the table lock — concurrent callers may race to compute the
//! same artifact, but the first insert wins and the computation is
//! deterministic, so every caller observes identical values and
//! figure output stays byte-identical to a cold, serial run.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use fosm_branch::PredictorConfig;
use fosm_cache::HierarchyConfig;
use fosm_core::params::ProcessorParams;
use fosm_core::profile::{Probe, ProbeBank, ProgramProfile};
use fosm_core::ModelError;
use fosm_sim::{MachineConfig, SimReport};
use fosm_trace::{CorpusFile, PackedTrace};
use fosm_workloads::BenchmarkSpec;

use crate::disk::DiskCache;
use crate::harness;

/// Key of a recorded trace: exact spec rendering, seed, length.
type TraceKey = (String, u64, u64);

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
}

/// A snapshot of the store's traffic, for diagnostics output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Trace lookups served from memory / recorded fresh.
    pub trace_hits: u64,
    /// Traces recorded because no memoized copy existed.
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
    /// duplicate computations).
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

/// A traced simulation artifact: the report plus its miss-event stream.
type TracedRun = (SimReport, Vec<fosm_sim::TraceEvent>);

/// The memoizing artifact store. One global instance serves a whole
/// process (see [`ArtifactStore::global`]); independent instances can
/// be created for tests.
#[derive(Default)]
pub struct ArtifactStore {
    traces: Mutex<HashMap<TraceKey, Arc<PackedTrace>>>,
    reports: Mutex<HashMap<(TraceKey, String), Arc<SimReport>>>,
    traced: Mutex<HashMap<(TraceKey, String), Arc<TracedRun>>>,
    profiles: Mutex<HashMap<ProfileKey, Arc<ProgramProfile>>>,
    trace_traffic: Counter,
    sim_traffic: Counter,
    profile_traffic: Counter,
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

    /// The benchmark's recorded trace (packed SoA layout), recording
    /// it on first use. Memory only: the disk cache never holds traces,
    /// because generating one from `(spec, n, seed)` is cheaper than
    /// loading it back.
    pub fn trace(&self, spec: &BenchmarkSpec, n: u64, seed: u64) -> Arc<PackedTrace> {
        memo(
            &self.traces,
            &self.trace_traffic,
            trace_key(spec, n, seed),
            || harness::record_seeded(spec, n, seed),
        )
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
        let trace = self.trace(spec, n, seed);
        let key = (trace_key(spec, n, seed), format!("{config:?}"));
        let tracer = fosm_obs::tracer();
        if !tracer.enabled() {
            return memo(&self.reports, &self.sim_traffic, key, || {
                harness::simulate(config, &trace)
            });
        }
        // With the global tracer on, events are collected locally and
        // published only by the thread that wins the insert race —
        // otherwise a concurrent duplicate computation (discarded by
        // the memo) would double-record its events and the trace file
        // would stop being byte-equal across thread counts.
        let mut collected: Option<Vec<fosm_sim::TraceEvent>> = None;
        let (report, won) = memo_entry(&self.reports, &self.sim_traffic, key, || {
            let (report, events) = harness::simulate_traced(config, &trace);
            collected = Some(events);
            report
        });
        if won {
            if let Some(mut events) = collected {
                tracer.record_batch(&mut events);
            }
        }
        report
    }

    /// The detailed simulator's report *plus its miss-event stream*
    /// for `(trace, config)`, memoized in its own table (keys never
    /// collide with the untraced reports; the reports themselves are
    /// identical — [`fosm_sim::Machine::run_traced`] is exact).
    pub fn simulate_traced(
        &self,
        config: &MachineConfig,
        spec: &BenchmarkSpec,
        n: u64,
        seed: u64,
    ) -> Arc<TracedRun> {
        let trace = self.trace(spec, n, seed);
        memo(
            &self.traced,
            &self.sim_traffic,
            (trace_key(spec, n, seed), format!("{config:?}")),
            || harness::simulate_traced(config, &trace),
        )
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
    /// replay** (see [`harness::profile_many`]).
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
        self.profile_many_keyed(params, bank, &trace_key(spec, n, seed), |sub_bank| {
            let trace = self.trace(spec, n, seed);
            harness::profile_many(params, sub_bank, &trace)
        })
    }

    /// The memoized profile of `probe` on `(spec, n, seed)` under
    /// `params`, if the in-memory table already holds it. Checks memory
    /// only: no disk read and no collection. A hit is counted exactly
    /// as [`profile_many`](Self::profile_many) counts one; a miss is
    /// not counted at all, because the caller is expected to fall back
    /// to `profile_many`, which counts it.
    pub fn memoized_profile(
        &self,
        params: &ProcessorParams,
        probe: &Probe,
        spec: &BenchmarkSpec,
        n: u64,
        seed: u64,
    ) -> Option<Arc<ProgramProfile>> {
        let key = profile_key(&trace_key(spec, n, seed), params, probe);
        let profile = self
            .profiles
            .lock()
            .expect("store lock")
            .get(&key)
            .cloned()?;
        self.profile_traffic.hit();
        fosm_obs::counter_add("store.profile.memo_hits", 1);
        Some(profile)
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
            let profiles = harness::profile_many_from(params, sub_bank, &mut replay)?;
            match replay.take_error() {
                Some(e) => Err(corpus_error(corpus, &e)),
                None => Ok(profiles),
            }
        })
    }

    /// The memoization core shared by the workload and corpus profile
    /// paths: serves per-probe hits from memory, reads the rest through
    /// the disk cache, and hands only the probes absent from both
    /// layers to `fill` for a single fused replay.
    fn profile_many_keyed(
        &self,
        params: &ProcessorParams,
        bank: &ProbeBank,
        tkey: &TraceKey,
        fill: impl FnOnce(&ProbeBank) -> Result<Vec<ProgramProfile>, ModelError>,
    ) -> Result<Vec<Arc<ProgramProfile>>, ModelError> {
        if bank.is_empty() {
            return Ok(Vec::new());
        }
        let keys: Vec<_> = bank
            .probes()
            .iter()
            .map(|probe| profile_key(tkey, params, probe))
            .collect();
        let mut slots: Vec<Option<Arc<ProgramProfile>>> = {
            let table = self.profiles.lock().expect("store lock");
            keys.iter().map(|key| table.get(key).cloned()).collect()
        };
        let mut missing: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
        for slot in &slots {
            if slot.is_some() {
                self.profile_traffic.hit();
                // Live scoped counters alongside the run-boundary
                // `StoreStats::observe_into` flush (which uses the
                // `store.profile.hits`/`misses` names): a daemon
                // request's scoped registry sees its own memo traffic
                // immediately, without double-counting the flushed
                // aggregate.
                fosm_obs::counter_add("store.profile.memo_hits", 1);
            } else {
                self.profile_traffic.miss();
                fosm_obs::counter_add("store.profile.memo_misses", 1);
            }
        }
        // Read memory-missing probes through the disk cache before
        // paying for a replay; only probes absent from both layers join
        // the fused pass.
        if let Some(disk) = self.disk.get() {
            let mut still_missing = Vec::with_capacity(missing.len());
            for &i in &missing {
                let disk_key = disk_profile_key(&keys[i]);
                match disk.load::<ProgramProfile>("profile", &disk_key) {
                    Some(profile) => slots[i] = Some(self.insert_profile(&keys[i], profile)),
                    None => still_missing.push(i),
                }
            }
            missing = still_missing;
        }
        if !missing.is_empty() {
            let sub_bank: ProbeBank = missing.iter().map(|&i| bank.probes()[i].clone()).collect();
            let computed = fill(&sub_bank)?;
            for (&i, profile) in missing.iter().zip(computed) {
                if let Some(disk) = self.disk.get() {
                    disk.store("profile", &disk_profile_key(&keys[i]), &profile);
                }
                slots[i] = Some(self.insert_profile(&keys[i], profile));
            }
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("every probe resolved"))
            .collect())
    }

    /// The detailed simulator's report for `(corpus, config)`, memoized
    /// in the same reports table as the workload path (corpus trace
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
        if let Some(v) = self.reports.lock().expect("store lock").get(&key) {
            self.sim_traffic.hit();
            return Ok(Arc::clone(v));
        }
        self.sim_traffic.miss();
        let mut replay = corpus.replay();
        let report = harness::simulate_from(config, &mut replay);
        if let Some(e) = replay.take_error() {
            return Err(corpus_error(corpus, &e));
        }
        match self.reports.lock().expect("store lock").entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(Arc::clone(e.get())),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.sim_traffic.insert();
                Ok(Arc::clone(e.insert(Arc::new(report))))
            }
        }
    }

    /// Inserts a computed (or disk-loaded) profile into the in-memory
    /// table, keeping the first inserted allocation on a race.
    fn insert_profile(&self, key: &ProfileKey, profile: ProgramProfile) -> Arc<ProgramProfile> {
        let mut table = self.profiles.lock().expect("store lock");
        match table.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(e) => Arc::clone(e.get()),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.profile_traffic.insert();
                Arc::clone(e.insert(Arc::new(profile)))
            }
        }
    }

    /// Current hit/miss counts.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            trace_hits: self.trace_traffic.hits.load(Ordering::Relaxed),
            trace_misses: self.trace_traffic.misses.load(Ordering::Relaxed),
            sim_hits: self.sim_traffic.hits.load(Ordering::Relaxed),
            sim_misses: self.sim_traffic.misses.load(Ordering::Relaxed),
            profile_hits: self.profile_traffic.hits.load(Ordering::Relaxed),
            profile_misses: self.profile_traffic.misses.load(Ordering::Relaxed),
            trace_inserts: self.trace_traffic.inserts.load(Ordering::Relaxed),
            sim_inserts: self.sim_traffic.inserts.load(Ordering::Relaxed),
            profile_inserts: self.profile_traffic.inserts.load(Ordering::Relaxed),
        }
    }
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

/// The profile key of `probe` on the trace `tkey` under `params`: the
/// one definition shared by the batch path and the memory-only lookup,
/// so the two can never disagree on a key.
fn profile_key(tkey: &TraceKey, params: &ProcessorParams, probe: &Probe) -> ProfileKey {
    (
        tkey.clone(),
        probe_config_key(params, probe),
        probe.name.clone(),
    )
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

/// Double-checked memoization: the value is computed *outside* the
/// lock (so a slow simulation never serializes unrelated lookups), and
/// a concurrent duplicate computation is discarded in favor of the
/// first insert.
fn memo<K, V>(
    table: &Mutex<HashMap<K, Arc<V>>>,
    traffic: &Counter,
    key: K,
    compute: impl FnOnce() -> V,
) -> Arc<V>
where
    K: Eq + Hash,
{
    memo_entry(table, traffic, key, compute).0
}

/// Like [`memo`], also reporting whether this call's computation won
/// the insert race (`false` on a hit or a discarded duplicate) — for
/// side effects that must happen exactly once per key.
fn memo_entry<K, V>(
    table: &Mutex<HashMap<K, Arc<V>>>,
    traffic: &Counter,
    key: K,
    compute: impl FnOnce() -> V,
) -> (Arc<V>, bool)
where
    K: Eq + Hash,
{
    if let Some(v) = table.lock().expect("store lock").get(&key) {
        traffic.hit();
        return (Arc::clone(v), false);
    }
    traffic.miss();
    let v = Arc::new(compute());
    match table.lock().expect("store lock").entry(key) {
        std::collections::hash_map::Entry::Occupied(e) => (Arc::clone(e.get()), false),
        std::collections::hash_map::Entry::Vacant(e) => {
            traffic.insert();
            (Arc::clone(e.insert(v)), true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_recorded_once_and_shared() {
        let store = ArtifactStore::new();
        let spec = BenchmarkSpec::gzip();
        let a = store.trace(&spec, 2_000, 7);
        let b = store.trace(&spec, 2_000, 7);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 2_000);
        let s = store.stats();
        assert_eq!((s.trace_hits, s.trace_misses, s.trace_inserts), (1, 1, 1));
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
    fn memoized_simulation_matches_direct_run() {
        let store = ArtifactStore::new();
        let spec = BenchmarkSpec::gzip();
        let config = MachineConfig::baseline();
        let direct = {
            let trace = harness::record_seeded(&spec, 3_000, harness::SEED);
            harness::simulate(&config, &trace)
        };
        let memoized = store.simulate(&config, &spec, 3_000, harness::SEED);
        assert_eq!(*memoized, direct);
        // Second lookup is a hit on the same allocation.
        let again = store.simulate(&config, &spec, 3_000, harness::SEED);
        assert!(Arc::ptr_eq(&memoized, &again));
        assert_eq!(store.stats().sim_misses, 1);
    }

    #[test]
    fn memoized_profile_matches_direct_run() {
        let store = ArtifactStore::new();
        let spec = BenchmarkSpec::gzip();
        let params = harness::params_of(&MachineConfig::baseline());
        let direct = {
            let trace = harness::record_seeded(&spec, 3_000, harness::SEED);
            harness::profile(&params, &spec.name, &trace)
        };
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
        // Second lookup hits the traced table's own entry.
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
        let trace = harness::record_seeded(&BenchmarkSpec::gzip(), n, harness::SEED);
        fosm_trace::write_corpus(&path, &trace).expect("write corpus");
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
        let trace = harness::record_seeded(&spec, 3_000, harness::SEED);
        let direct = harness::profile(&params, &spec.name, &trace);
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
        let trace = harness::record_seeded(&BenchmarkSpec::gzip(), 3_000, harness::SEED);
        let direct = harness::simulate(&config, &trace);

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
        let trace = store.trace(&spec, 3_000, harness::SEED);
        let direct = harness::profile(&params, &spec.name, &trace);
        assert_eq!(*profiles[1], direct);
        let s = store.stats();
        assert_eq!(s.profile_hits, 1);
        assert_eq!(s.profile_misses, 2);
        assert_eq!(s.profile_inserts, 2);
    }

    #[test]
    fn memoized_profile_reads_memory_only_and_counts_only_hits() {
        let store = ArtifactStore::new();
        let spec = BenchmarkSpec::gzip();
        let params = harness::params_of(&MachineConfig::baseline());
        let probe = Probe::new(spec.name.clone()).with_predictor(PredictorConfig::Ideal);
        let registry = Arc::new(fosm_obs::Registry::new());
        let _scope = fosm_obs::scoped_registry(Arc::clone(&registry));

        assert!(store
            .memoized_profile(&params, &probe, &spec, 3_000, harness::SEED)
            .is_none());
        let s = store.stats();
        assert_eq!(
            (s.profile_hits, s.profile_misses),
            (0, 0),
            "a miss counts nothing"
        );
        assert_eq!(s.trace_misses, 0, "no trace recorded on a miss");

        let filled = store
            .profile_many(
                &params,
                &ProbeBank::from(vec![probe.clone()]),
                &spec,
                3_000,
                harness::SEED,
            )
            .expect("fill")
            .pop()
            .expect("one profile");
        let before = store.stats();
        let memo = store
            .memoized_profile(&params, &probe, &spec, 3_000, harness::SEED)
            .expect("hit after the fill");
        assert!(Arc::ptr_eq(&memo, &filled));
        let after = store.stats();
        assert_eq!(after.profile_hits, before.profile_hits + 1, "one hit");
        assert_eq!(after.profile_misses, before.profile_misses, "no miss");
        assert_eq!(registry.counter("store.profile.memo_hits"), 1);
        assert_eq!(
            registry.counter("store.profile.memo_misses"),
            1,
            "the fill's"
        );

        // Another probe name on the same trace is a different key.
        let other = Probe::new("other").with_predictor(PredictorConfig::Ideal);
        assert!(store
            .memoized_profile(&params, &other, &spec, 3_000, harness::SEED)
            .is_none());
    }
}
