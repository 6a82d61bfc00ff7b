//! Resident-memory gate for a validation case's trace: the case holds
//! its recorded trace while its five simulation sets and fused profile
//! replay it, and the store lets the trace go when the case returns.
//! Eight 200k-instruction cases through one store must therefore grow
//! the process high-water mark by about one case's working set, not by
//! eight packed traces. Keeping every trace in the store grew it by
//! about 30 MB; holding each for its case only, by about 12 MB.
//!
//! Linux-only (reads `/proc/self/status`); kept as the only test in
//! this binary so no sibling test inflates the measured peak.

#![cfg(target_os = "linux")]

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_sim::MachineConfig;
use fosm_validate::differential::{self, CaseSpec};
use fosm_validate::ToleranceSpec;

const TRACE_LEN: u64 = 200_000;

/// Allowed VmHWM growth over all eight cases: between the two.
const MAX_GROWTH_KIB: u64 = 20 * 1024;

/// Peak resident set size, in KiB, from `/proc/self/status`.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    line.split_whitespace()
        .nth(1)
        .expect("VmHWM value")
        .parse()
        .expect("VmHWM parses")
}

#[test]
fn validation_cases_free_their_traces() {
    let cases: Vec<CaseSpec> =
        CaseSpec::suite(&MachineConfig::baseline(), TRACE_LEN, harness::SEED)
            .into_iter()
            .take(8)
            .collect();
    let store = ArtifactStore::new();
    let before = vm_hwm_kib();

    for case in &cases {
        differential::run_case(&store, case, &ToleranceSpec::gate()).expect("case runs");
    }

    let growth = vm_hwm_kib().saturating_sub(before);
    assert_eq!(
        store.stats().trace_misses,
        8,
        "each case recorded its trace"
    );
    assert!(
        growth < MAX_GROWTH_KIB,
        "eight {TRACE_LEN}-instruction validation cases grew VmHWM by {growth} KiB \
         (bound {MAX_GROWTH_KIB} KiB): the store is keeping traces"
    );
}
