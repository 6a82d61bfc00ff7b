//! The artifact store publishes each simulation's miss events once,
//! whichever of `simulate` and `simulate_traced` computes it. The event
//! sink is per process, so this test has a binary of its own.

use fosm_bench::store::ArtifactStore;
use fosm_sim::MachineConfig;
use fosm_workloads::BenchmarkSpec;

/// Flushes the sink to `path` and counts the events written.
fn flushed_events(path: &std::path::Path) -> usize {
    fosm_obs::flush_trace();
    let text = std::fs::read_to_string(path).expect("trace written");
    text.matches("\"ph\":\"X\"").count()
}

#[test]
fn each_simulation_publishes_its_events_once_in_either_order() {
    let path = std::env::temp_dir().join(format!("fosm-store-events-{}.json", std::process::id()));
    fosm_obs::enable_trace(path.clone(), fosm_obs::trace_capacity(None));
    let (config, spec) = (MachineConfig::baseline(), BenchmarkSpec::gzip());
    for simulate_first in [true, false] {
        let store = ArtifactStore::new();
        let report = simulate_first.then(|| store.simulate(&config, &spec, 3_000, 42));
        let traced = store.simulate_traced(&config, &spec, 3_000, 42);
        let report = report.unwrap_or_else(|| store.simulate(&config, &spec, 3_000, 42));
        assert_eq!(*report, traced.0);
        assert!(!traced.1.is_empty());
        assert_eq!(flushed_events(&path), traced.1.len(), "published once");
        let stats = store.stats();
        assert_eq!((stats.sim_misses, stats.sim_hits), (1, 1), "one simulation");
    }
    let _ = std::fs::remove_file(&path);
}
