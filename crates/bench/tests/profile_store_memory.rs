//! Resident-memory gate for the store's cold workload profiles: a
//! profile of a trace the store does not hold streams the generator
//! straight into the profiler, so nothing per instruction is kept.
//! Eight distinct cold 1M-instruction `ArtifactStore::profile_many`
//! calls through one store must grow the process high-water mark by
//! less than one recorded 1M-instruction `PackedTrace` (about 15 MB).
//! Recording each trace and keeping it in the store's traces table
//! grows it by about that much per call.
//!
//! Linux-only (reads `/proc/self/status`); kept as the only test in
//! this binary so no sibling test inflates the measured peak.

#![cfg(target_os = "linux")]

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_core::profile::{Probe, ProbeBank};
use fosm_sim::MachineConfig;
use fosm_workloads::BenchmarkSpec;

const TRACE_LEN: u64 = 1_000_000;

/// Allowed VmHWM growth over all eight calls: less than one packed
/// trace.
const MAX_GROWTH_KIB: u64 = 15 * 1024;

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
fn cold_workload_profiles_keep_no_trace() {
    let spec = BenchmarkSpec::gzip();
    let params = harness::params_of(&MachineConfig::baseline());
    let bank = ProbeBank::from(vec![Probe::new(spec.name.clone())]);
    let store = ArtifactStore::new();
    let before = vm_hwm_kib();

    for seed in 1..=8 {
        let profiles = store
            .profile_many(&params, &bank, &spec, TRACE_LEN, seed)
            .expect("cold profile");
        assert_eq!(profiles[0].instructions, TRACE_LEN);
    }

    let growth = vm_hwm_kib().saturating_sub(before);
    assert_eq!(store.stats().profile_misses, 8, "every call was cold");
    assert!(
        growth < MAX_GROWTH_KIB,
        "eight cold {TRACE_LEN}-instruction profiles grew VmHWM by {growth} KiB \
         (bound {MAX_GROWTH_KIB} KiB): the store is keeping traces"
    );
}
