//! Resident-memory gate for the store's corpus paths: profiling and
//! simulating a 1M-instruction corpus file through
//! `ArtifactStore::profile_many_corpus` and `simulate_corpus` must
//! replay it page by page. Holding the trace in memory in any
//! per-instruction form would grow the process high-water mark by
//! tens of MiB — a pre-decoded table of 23 B per instruction is
//! 22 MiB here — so the bound sits below that.
//!
//! Linux-only (reads `/proc/self/status`); kept as the only test in
//! this binary so no sibling test inflates the measured peak.

#![cfg(target_os = "linux")]

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_core::profile::{Probe, ProbeBank};
use fosm_sim::MachineConfig;
use fosm_trace::{CorpusFile, CorpusWriter};
use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};

const TRACE_LEN: u64 = 1_000_000;

/// Allowed VmHWM growth: less than 23 bytes per instruction.
const MAX_GROWTH_KIB: u64 = 23 * TRACE_LEN / 1024;

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
fn corpus_profile_and_simulation_page_the_file() {
    let path =
        std::env::temp_dir().join(format!("fosm-store-corpus-rss-{}.fct", std::process::id()));
    let spec = BenchmarkSpec::gzip();

    // Stream the workload straight to the file: no in-memory trace.
    let mut writer = CorpusWriter::create(&path).expect("create writer");
    let written = writer
        .append_source(&mut WorkloadGenerator::new(&spec, harness::SEED), TRACE_LEN)
        .expect("stream corpus");
    assert_eq!(written, TRACE_LEN);
    writer.finish().expect("finish corpus");

    let corpus = CorpusFile::open(&path).expect("open corpus");
    let config = MachineConfig::baseline();
    let params = harness::params_of(&config);
    let store = ArtifactStore::new();
    let before = vm_hwm_kib();

    let profiles = store
        .profile_many_corpus(
            &params,
            &ProbeBank::from(vec![Probe::new(spec.name)]),
            &corpus,
        )
        .expect("corpus profile");
    assert_eq!(profiles[0].instructions, TRACE_LEN);
    let report = store
        .simulate_corpus(&config, &corpus)
        .expect("corpus simulation");
    assert_eq!(report.instructions, TRACE_LEN);

    let growth = vm_hwm_kib().saturating_sub(before);
    let _ = std::fs::remove_file(&path);
    assert!(
        growth < MAX_GROWTH_KIB,
        "profiling and simulating {TRACE_LEN} instructions grew VmHWM by {growth} KiB \
         (bound {MAX_GROWTH_KIB} KiB): the corpus is not being paged"
    );
}
