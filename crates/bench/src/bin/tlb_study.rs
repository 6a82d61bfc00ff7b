//! Extension study (paper §7, new feature 4): data-TLB misses as a
//! fourth miss-event class. Sweeps TLB sizes on the memory-intensive
//! benchmarks and compares the model's TLB component against detailed
//! simulation.

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_cache::TlbConfig;
use fosm_core::model::FirstOrderModel;
use fosm_core::profile::{Probe, ProbeBank};
use fosm_sim::MachineConfig;
use fosm_workloads::BenchmarkSpec;

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("tlb_study", &args);
    let n = args.trace_len;
    let params = harness::params_of(&MachineConfig::baseline());
    let store = ArtifactStore::global();
    println!("TLB study: CPI with a data TLB, model vs simulation ({n} insts)");
    println!(
        "{:<8} {:>8} {:>9} {:>9} {:>9} {:>7}",
        "bench", "entries", "misses/ki", "sim CPI", "model CPI", "err%"
    );
    for spec in [
        BenchmarkSpec::mcf(),
        BenchmarkSpec::twolf(),
        BenchmarkSpec::parser(),
    ] {
        // Held while the profiles and the simulations replay it.
        let _trace = store.trace(&spec, n, harness::SEED);
        let sizes = [16u32, 64, 256];
        let tlbs = sizes.map(|entries| TlbConfig {
            entries,
            page_bytes: 4096,
            walk_latency: 120,
        });
        // One fused replay profiles every TLB size at once.
        let bank: ProbeBank = tlbs
            .iter()
            .map(|&tlb| Probe::new(spec.name.clone()).with_dtlb(tlb))
            .collect();
        let profiles = store
            .profile_many(&params, &bank, &spec, n, harness::SEED)
            .expect("profiles");
        for ((entries, tlb), profile) in sizes.into_iter().zip(tlbs).zip(&profiles) {
            let config = MachineConfig::baseline().with_dtlb(tlb);
            let sim = store.simulate(&config, &spec, n, harness::SEED);
            let est = FirstOrderModel::new(params.clone())
                .evaluate(profile)
                .expect("estimate");
            println!(
                "{:<8} {:>8} {:>9.2} {:>9.3} {:>9.3} {:>6.1}%",
                spec.name,
                entries,
                1000.0 * sim.dtlb_misses as f64 / n as f64,
                sim.cpi(),
                est.total_cpi(),
                100.0 * (est.total_cpi() - sim.cpi()) / sim.cpi()
            );
        }
    }
    println!("\n(the paper predicts TLB misses 'will act much like long data cache");
    println!(" misses' — the same overlap scaling and ROB-fill offsets apply)");
}
