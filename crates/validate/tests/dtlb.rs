//! The validation's model probes carry each simulation set's data TLB.
//!
//! The dcache row compares the model against a simulator variant that
//! keeps the configured TLB, so the model must be profiled under that
//! TLB too: on a workload that thrashes a small TLB, the model's dcache
//! value has to grow by the page-walk adder, exactly as the simulator's
//! does.

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_cache::TlbConfig;
use fosm_sim::MachineConfig;
use fosm_validate::differential::{run_case, Component};
use fosm_validate::{CaseSpec, ToleranceSpec};
use fosm_workloads::BenchmarkSpec;

const TRACE_LEN: u64 = 30_000;

/// A TLB small enough that mcf's pointer-chasing blows it regularly.
fn tiny_tlb() -> TlbConfig {
    TlbConfig {
        entries: 16,
        page_bytes: 4096,
        walk_latency: 120,
    }
}

fn dcache_row(store: &ArtifactStore, config: MachineConfig) -> (f64, f64) {
    let case = CaseSpec {
        config,
        bench: BenchmarkSpec::mcf(),
        trace_len: TRACE_LEN,
        seed: harness::SEED,
    };
    let result = run_case(store, &case, &ToleranceSpec::gate()).expect("case runs");
    let row = result.row(Component::DCache);
    (row.model, row.sim)
}

#[test]
fn dcache_model_row_pays_for_tlb_walks() {
    let store = ArtifactStore::new();
    let (model_without, sim_without) = dcache_row(&store, MachineConfig::baseline());
    let (model_with, sim_with) =
        dcache_row(&store, MachineConfig::baseline().with_dtlb(tiny_tlb()));
    assert!(
        sim_with > sim_without,
        "the simulator's data side pays for walks: {sim_with} vs {sim_without}"
    );
    assert!(
        model_with > model_without,
        "the model's dcache row must charge the same walks: {model_with} vs {model_without}"
    );
}
