//! Request batching: coalescing concurrent profile requests into one
//! fused trace replay.
//!
//! Collecting a functional profile replays the whole recorded trace,
//! and the replay cost is dominated by trace traversal, not by the
//! probe machinery riding on it — which is exactly why the core layer
//! grew `profile_many` (one traversal, N probes). The daemon sees the
//! complementary opportunity: *independent clients* asking for
//! different probe variants of the **same trace** at the **same
//! time**. Each request alone would pay a full replay; together they
//! need one.
//!
//! Only requests that must compute enter a batch. A request whose
//! profile the store already holds in memory is answered straight
//! from it ([`ArtifactStore::memoized_profile`]); it never opens or
//! joins a batch and waits for no window. The rest go through
//! [`Batcher`]'s leader–follower coalescing, keyed by
//! `(trace, model params)`:
//!
//! * the first request for a key opens a batch and becomes its
//!   **leader**; it waits out a short batching window (default
//!   [`DEFAULT_WINDOW`]) during which **followers** with the same key
//!   append their probes to the open batch;
//! * when the window closes, the leader atomically closes the batch
//!   (later arrivals open a fresh one), runs **exactly one**
//!   [`ArtifactStore::profile_many`] pass over all accumulated probes,
//!   and hands each follower its result;
//! * a failure (invalid probe configuration) is broadcast to the whole
//!   batch — every member requested the same trace, so the failure is
//!   common property;
//! * a leader that panics still closes its batch on the way out and
//!   broadcasts [`LEADER_PANICKED`], so no follower waits forever on
//!   a result that will never come.
//!
//! The batching window trades latency for throughput: a window of
//! `w` adds at most `w` to an isolated request that must compute, but
//! under concurrent load the fused replay divides the dominant cost by
//! the batch size. The daemon's default (2 ms) is far below the cost
//! of even a small replay. Warm requests pay none of it: a memoized
//! model evaluation costs tens of microseconds, so waiting out the
//! window would make it the largest part of their latency.
//!
//! For deterministic tests, [`Batcher::with_manual_gate`] replaces the
//! timed window with an explicit gate: the leader blocks until
//! [`Batcher::release_gate`], so a test can pile K concurrent requests
//! into one batch and then prove exactly one fused pass ran.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use fosm_bench::store::ArtifactStore;
use fosm_core::params::ProcessorParams;
use fosm_core::profile::{Probe, ProbeBank, ProgramProfile};
use fosm_workloads::BenchmarkSpec;

/// Default batching window for the daemon.
pub const DEFAULT_WINDOW: Duration = Duration::from_millis(2);

/// The error every follower of a batch receives when its leader
/// panicked before publishing a result.
pub const LEADER_PANICKED: &str = "the batch leader panicked";

/// What one batch coalesces over: the exact trace identity plus the
/// model parameters (probes with different params cannot share a
/// `profile_many` call).
type BatchKey = (String, u64, u64, String);

/// One open batch. Shared between its leader and followers; the map
/// only holds it while the batch is accepting members.
struct Cell {
    state: Mutex<CellState>,
    done: Condvar,
}

struct CellState {
    /// Probes accumulated so far (leader's first).
    probes: Vec<Probe>,
    /// Set when the leader closes the batch; new arrivals must open a
    /// fresh one.
    closed: bool,
    /// The per-probe results, in `probes` order, once computed.
    result: Option<BatchResult>,
}

type BatchResult = Result<Vec<Arc<ProgramProfile>>, String>;

/// Timing source for the leader's wait: a real window, or a manual
/// gate a test releases explicitly.
enum Gate {
    Window(Duration),
    Manual {
        state: Mutex<bool>,
        released: Condvar,
    },
}

/// Batching traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Fused `profile_many` passes executed.
    pub passes: u64,
    /// Requests that joined an existing batch (each saved one replay).
    pub coalesced: u64,
    /// Requests answered from the store's memory without a batch.
    pub memo_hits: u64,
}

/// The request coalescer. One per daemon, shared by every request.
pub struct Batcher {
    open: Mutex<HashMap<BatchKey, Arc<Cell>>>,
    gate: Gate,
    passes: AtomicU64,
    coalesced: AtomicU64,
    memo_hits: AtomicU64,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher").finish_non_exhaustive()
    }
}

impl Batcher {
    /// A batcher whose leaders wait out `window` before computing.
    pub fn new(window: Duration) -> Batcher {
        Batcher::with_gate(Gate::Window(window))
    }

    /// A batcher whose leaders block until [`release_gate`]
    /// (test-only determinism; see the module docs).
    ///
    /// [`release_gate`]: Batcher::release_gate
    pub fn with_manual_gate() -> Batcher {
        Batcher::with_gate(Gate::Manual {
            state: Mutex::new(false),
            released: Condvar::new(),
        })
    }

    fn with_gate(gate: Gate) -> Batcher {
        Batcher {
            open: Mutex::new(HashMap::new()),
            gate,
            passes: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
        }
    }

    /// Opens the manual gate, letting the currently blocked leader
    /// close its batch and compute. The gate re-latches for the next
    /// batch. No-op on a window batcher.
    pub fn release_gate(&self) {
        if let Gate::Manual { state, released } = &self.gate {
            *state.lock().expect("batch gate") = true;
            released.notify_all();
        }
    }

    /// Probes currently parked in the open batch for a key (test
    /// introspection; racy by nature, use only under a closed gate).
    pub fn open_batch_len(
        &self,
        params: &ProcessorParams,
        spec: &BenchmarkSpec,
        insts: u64,
        seed: u64,
    ) -> usize {
        self.parked(&batch_key(params, spec, insts, seed))
    }

    fn parked(&self, key: &BatchKey) -> usize {
        self.open
            .lock()
            .expect("batcher map")
            .get(key)
            .map_or(0, |cell| {
                cell.state.lock().expect("batch cell").probes.len()
            })
    }

    /// Current traffic counters.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            passes: self.passes.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
        }
    }

    /// The profile of `probe` on `(spec, insts, seed)` under `params`.
    /// A profile already in the store's memory is returned at once,
    /// without a batch. Otherwise the request is coalesced with any
    /// concurrent request for the same trace and params, and blocks
    /// for at most the batching window plus the fused replay.
    ///
    /// # Errors
    ///
    /// Collection errors (invalid probe configurations), broadcast to
    /// every member of the batch, or [`LEADER_PANICKED`].
    pub fn profile(
        &self,
        store: &ArtifactStore,
        params: &ProcessorParams,
        probe: Probe,
        spec: &BenchmarkSpec,
        insts: u64,
        seed: u64,
    ) -> Result<Arc<ProgramProfile>, String> {
        if let Some(profile) = store.memoized_profile(params, &probe, spec, insts, seed) {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(profile);
        }
        self.coalesce(batch_key(params, spec, insts, seed), probe, |bank| {
            store
                .profile_many(params, bank, spec, insts, seed)
                .map_err(|e| e.to_string())
        })
    }

    /// Joins the open batch for `key`, or opens one and leads it, in
    /// which case `compute` runs the fused pass over every member's
    /// probe.
    fn coalesce(
        &self,
        key: BatchKey,
        probe: Probe,
        compute: impl FnOnce(&ProbeBank) -> BatchResult,
    ) -> Result<Arc<ProgramProfile>, String> {
        loop {
            let (cell, my_index) = {
                let mut open = self.open.lock().expect("batcher map");
                match open.get(&key) {
                    Some(cell) => {
                        let cell = Arc::clone(cell);
                        // Join under the cell lock; if the leader
                        // closed the batch between the map lookup and
                        // here, retry with a fresh batch.
                        let mut state = cell.state.lock().expect("batch cell");
                        if state.closed {
                            continue;
                        }
                        state.probes.push(probe.clone());
                        let index = state.probes.len() - 1;
                        drop(state);
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        fosm_obs::counter_add("serve.batch.coalesced", 1);
                        (cell, index)
                    }
                    None => {
                        let cell = Arc::new(Cell {
                            state: Mutex::new(CellState {
                                probes: vec![probe.clone()],
                                closed: false,
                                result: None,
                            }),
                            done: Condvar::new(),
                        });
                        open.insert(key.clone(), Arc::clone(&cell));
                        drop(open);
                        return self.lead(&key, &cell, compute);
                    }
                }
            };
            // Follower: wait for the leader's broadcast. The park time
            // is charged to this request's `batch_wait` phase via the
            // scoped registry.
            let wait_start = std::time::Instant::now();
            let mut state = cell.state.lock().expect("batch cell");
            while state.result.is_none() {
                state = cell.done.wait(state).expect("batch cell");
            }
            let result = state.result.as_ref().expect("checked above");
            let outcome = match result {
                Ok(profiles) => Ok(Arc::clone(&profiles[my_index])),
                Err(e) => Err(e.clone()),
            };
            drop(state);
            fosm_obs::counter_add(
                "serve.batch_wait_ns",
                u64::try_from(wait_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            return outcome;
        }
    }

    /// Leader path: wait out the gate, close the batch, run the one
    /// fused pass, broadcast.
    fn lead(
        &self,
        key: &BatchKey,
        cell: &Cell,
        compute: impl FnOnce(&ProbeBank) -> BatchResult,
    ) -> Result<Arc<ProgramProfile>, String> {
        let broadcast = Broadcast {
            open: &self.open,
            key,
            cell,
            sent: false,
        };
        let gate_start = std::time::Instant::now();
        match &self.gate {
            Gate::Window(window) => {
                if !window.is_zero() {
                    std::thread::sleep(*window);
                }
            }
            Gate::Manual { state, released } => {
                let mut opened = state.lock().expect("batch gate");
                while !*opened {
                    opened = released.wait(opened).expect("batch gate");
                }
                // Consume the release: the next leader waits again.
                *opened = false;
            }
        }
        // The leader's window is wait, not compute: charge it to the
        // request's `batch_wait` phase like a follower's park.
        fosm_obs::counter_add(
            "serve.batch_wait_ns",
            u64::try_from(gate_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        // Close: out of the map first, so arrivals after this point
        // start a new batch; then the cell, so arrivals that already
        // hold the Arc see `closed` and retry.
        self.open.lock().expect("batcher map").remove(key);
        let probes = {
            let mut state = cell.state.lock().expect("batch cell");
            state.closed = true;
            state.probes.clone()
        };
        let bank: ProbeBank = probes.into();
        self.passes.fetch_add(1, Ordering::Relaxed);
        fosm_obs::counter_add("serve.batch.passes", 1);
        fosm_obs::hist_record("serve.batch.occupancy", bank.len() as u64);
        let result = compute(&bank);
        let my_profile = match &result {
            Ok(profiles) => Ok(Arc::clone(&profiles[0])),
            Err(e) => Err(e.clone()),
        };
        broadcast.send(result);
        my_profile
    }
}

/// A leader's duty to its followers: publish the batch's result
/// exactly once. [`send`](Broadcast::send) publishes the computed one;
/// if the leader unwinds first, the drop closes the batch and
/// publishes [`LEADER_PANICKED`] instead. The locks are taken poison-
/// tolerant there, because a second panic while unwinding aborts.
struct Broadcast<'a> {
    open: &'a Mutex<HashMap<BatchKey, Arc<Cell>>>,
    key: &'a BatchKey,
    cell: &'a Cell,
    sent: bool,
}

impl Broadcast<'_> {
    fn send(mut self, result: BatchResult) {
        self.publish(result);
        self.sent = true;
    }

    fn publish(&self, result: BatchResult) {
        let mut state = self
            .cell
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.closed = true;
        state.result = Some(result);
        drop(state);
        self.cell.done.notify_all();
    }
}

impl Drop for Broadcast<'_> {
    fn drop(&mut self) {
        if self.sent {
            return;
        }
        // Map before cell, the order `coalesce` takes them in.
        let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        if open
            .get(self.key)
            .is_some_and(|cell| std::ptr::eq(&**cell, self.cell))
        {
            open.remove(self.key);
        }
        drop(open);
        self.publish(Err(LEADER_PANICKED.to_string()));
    }
}

/// The coalescing key. Embeds full `Debug` renderings, like the
/// artifact store's keys, so distinct configurations can never fuse.
fn batch_key(params: &ProcessorParams, spec: &BenchmarkSpec, insts: u64, seed: u64) -> BatchKey {
    (format!("{spec:?}"), insts, seed, format!("{params:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fosm_branch::PredictorConfig;
    use fosm_cache::HierarchyConfig;

    fn variant(name: &str, i: usize) -> Probe {
        // Five distinct functional configurations so a fused batch
        // exercises genuinely different probes.
        let probe = Probe::new(format!("{name}-{i}"));
        match i % 5 {
            0 => probe,
            1 => probe
                .with_hierarchy(HierarchyConfig::ideal())
                .with_predictor(PredictorConfig::Ideal),
            2 => probe.with_hierarchy(HierarchyConfig::ideal()),
            3 => probe.with_predictor(PredictorConfig::Ideal),
            _ => probe.with_hierarchy(HierarchyConfig::baseline().with_next_line_prefetch(1)),
        }
    }

    #[test]
    fn k_concurrent_requests_fuse_into_exactly_one_pass() {
        const K: usize = 5;
        let store = ArtifactStore::new();
        let batcher = Batcher::with_manual_gate();
        let params = ProcessorParams::baseline();
        let spec = BenchmarkSpec::gzip();
        // All K request threads route their instrumentation into one
        // shared registry, so the core fused-pass counter is exact.
        let registry = Arc::new(fosm_obs::Registry::new());

        let profiles = std::thread::scope(|s| {
            let handles: Vec<_> = (0..K)
                .map(|i| {
                    let batcher = &batcher;
                    let store = &store;
                    let params = &params;
                    let spec = &spec;
                    let registry = Arc::clone(&registry);
                    s.spawn(move || {
                        let _scope = fosm_obs::scoped_registry(registry);
                        batcher.profile(store, params, variant("probe", i), spec, 3_000, 7)
                    })
                })
                .collect();
            // Wait until every request has parked in the one open
            // batch, then open the gate.
            while batcher.open_batch_len(&params, &spec, 3_000, 7) < K {
                std::thread::yield_now();
            }
            batcher.release_gate();
            handles
                .into_iter()
                .map(|h| h.join().expect("request thread"))
                .collect::<Vec<_>>()
        });

        for (i, profile) in profiles.iter().enumerate() {
            let profile = profile.as_ref().expect("profile collected");
            assert_eq!(profile.name, format!("probe-{i}"));
        }
        let stats = batcher.stats();
        assert_eq!(stats.passes, 1, "exactly one fused pass");
        assert_eq!(stats.coalesced as usize, K - 1);
        // The store saw one profile_many call covering all K probes.
        let store_stats = store.stats();
        assert_eq!(store_stats.profile_misses as usize, K);
        assert_eq!(store_stats.profile_inserts as usize, K);
        // And the core replay fused K states into one traversal:
        // `profile.fused_passes_saved` counts states beyond the first.
        assert_eq!(
            registry.counter("profile.fused_passes_saved") as usize,
            K - 1
        );
        // Telemetry: the one pass recorded its occupancy, and both the
        // leader's gate wait and the followers' parks were charged to
        // the batch_wait phase.
        let occupancy = registry
            .hist_snapshot("serve.batch.occupancy")
            .expect("occupancy recorded");
        assert_eq!(occupancy.count, 1);
        assert_eq!(occupancy.max, K as u64);
        assert!(registry.counter("serve.batch_wait_ns") > 0);
    }

    #[test]
    fn memoized_probes_skip_the_batch_and_new_probes_still_park() {
        let store = Arc::new(ArtifactStore::new());
        let batcher = Arc::new(Batcher::with_manual_gate());
        let params = ProcessorParams::baseline();
        let spec = BenchmarkSpec::gzip();
        let warm = variant("warm", 0);
        store
            .profile_many(
                &params,
                &ProbeBank::from(vec![warm.clone()]),
                &spec,
                3_000,
                7,
            )
            .expect("fill");

        // The gate is never released before this returns: only the
        // memory fast path can answer within the deadline. Not a scoped
        // thread, so a regression fails the test instead of hanging it.
        let registry = Arc::new(fosm_obs::Registry::new());
        let (tx, rx) = std::sync::mpsc::channel();
        let request = {
            let (store, batcher, params, spec, registry) = (
                Arc::clone(&store),
                Arc::clone(&batcher),
                params.clone(),
                spec.clone(),
                Arc::clone(&registry),
            );
            std::thread::spawn(move || {
                let _scope = fosm_obs::scoped_registry(registry);
                let _ = tx.send(batcher.profile(&store, &params, warm, &spec, 3_000, 7));
            })
        };
        let profile = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("memoized probe answered without the gate")
            .expect("profile");
        request.join().expect("request thread");
        assert_eq!(profile.name, "warm-0");
        assert_eq!(
            batcher.stats(),
            BatchStats {
                passes: 0,
                coalesced: 0,
                memo_hits: 1
            }
        );
        assert_eq!(registry.counter("serve.batch_wait_ns"), 0);
        assert_eq!(registry.counter("store.profile.memo_hits"), 1);

        // A new probe on the same warm trace must compute, so it parks
        // in a batch until the gate opens.
        std::thread::scope(|s| {
            let request =
                s.spawn(|| batcher.profile(&store, &params, variant("cold", 1), &spec, 3_000, 7));
            while batcher.open_batch_len(&params, &spec, 3_000, 7) < 1 {
                assert!(!request.is_finished(), "a new probe must park in a batch");
                std::thread::yield_now();
            }
            batcher.release_gate();
            request.join().expect("request thread").expect("profile");
        });
        let stats = batcher.stats();
        assert_eq!((stats.passes, stats.memo_hits), (1, 1));
    }

    #[test]
    fn a_panicking_leader_fails_its_followers_instead_of_stranding_them() {
        let batcher = Arc::new(Batcher::with_manual_gate());
        let key: BatchKey = ("trace".into(), 1, 2, "params".into());
        let leader = {
            let (batcher, key) = (Arc::clone(&batcher), key.clone());
            std::thread::spawn(move || {
                batcher.coalesce(key, variant("lead", 0), |_| panic!("injected leader fault"))
            })
        };
        while batcher.parked(&key) < 1 {
            std::thread::yield_now();
        }
        // Not a scoped thread, so a stranded follower fails the test
        // instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let follower = {
            let (batcher, key) = (Arc::clone(&batcher), key.clone());
            std::thread::spawn(move || {
                let outcome = batcher.coalesce(key, variant("follow", 1), |_| {
                    unreachable!("a follower never computes")
                });
                let _ = tx.send(outcome);
            })
        };
        while batcher.parked(&key) < 2 {
            std::thread::yield_now();
        }
        batcher.release_gate();
        assert!(leader.join().is_err(), "the leader's panic propagates");
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the follower is answered");
        assert_eq!(outcome.unwrap_err(), LEADER_PANICKED);
        follower.join().expect("follower thread");
        // The failed batch is closed: the next request opens a new one.
        assert_eq!(batcher.parked(&key), 0);
        std::thread::scope(|s| {
            let next = s.spawn(|| {
                batcher.coalesce(key.clone(), variant("next", 0), |bank| {
                    assert_eq!(bank.len(), 1);
                    Err("recomputed".to_string())
                })
            });
            while batcher.parked(&key) < 1 {
                std::thread::yield_now();
            }
            batcher.release_gate();
            assert_eq!(
                next.join().expect("next request").unwrap_err(),
                "recomputed"
            );
        });
    }

    #[test]
    fn batch_results_match_unbatched_collection() {
        let store = ArtifactStore::new();
        let reference_store = ArtifactStore::new();
        let batcher = Batcher::new(Duration::ZERO);
        let params = ProcessorParams::baseline();
        let spec = BenchmarkSpec::gzip();
        for i in 0..5 {
            let probe = variant("v", i);
            let batched = batcher
                .profile(&store, &params, probe.clone(), &spec, 2_000, 3)
                .expect("batched profile");
            let direct = reference_store
                .profile_many(&params, &ProbeBank::from(vec![probe]), &spec, 2_000, 3)
                .expect("direct profile")
                .pop()
                .expect("one probe, one profile");
            assert_eq!(*batched, *direct);
        }
    }

    #[test]
    fn different_traces_do_not_fuse() {
        let store = ArtifactStore::new();
        let batcher = Batcher::new(Duration::ZERO);
        let params = ProcessorParams::baseline();
        let spec = BenchmarkSpec::gzip();
        batcher
            .profile(&store, &params, variant("a", 0), &spec, 2_000, 3)
            .expect("first");
        batcher
            .profile(&store, &params, variant("b", 1), &spec, 2_000, 4)
            .expect("second");
        assert_eq!(batcher.stats().passes, 2);
        assert_eq!(batcher.stats().coalesced, 0);
    }

    #[test]
    fn failure_is_broadcast_to_the_whole_batch() {
        let store = ArtifactStore::new();
        let batcher = Batcher::new(Duration::ZERO);
        let params = ProcessorParams {
            // A window the profiler must reject (window > ROB).
            win_size: 4096,
            rob_size: 16,
            ..ProcessorParams::baseline()
        };
        let spec = BenchmarkSpec::gzip();
        let result = batcher.profile(&store, &params, variant("bad", 0), &spec, 1_000, 1);
        assert!(result.is_err(), "invalid params must fail, not panic");
    }
}
