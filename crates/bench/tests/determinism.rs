//! Determinism gate: figure output must be byte-identical at any
//! thread count.
//!
//! The figure binaries fan work out across worker threads (see
//! `fosm_bench::par`) but print serially in benchmark order, and all
//! observability output is routed to stderr or a file — so stdout is
//! required to be a pure function of the configuration. These tests
//! run representative binaries at `--threads 1` and `--threads 8` and
//! fail on the first differing byte.

use std::process::{Command, Output};

/// Short trace so the gate stays fast; determinism does not depend on
/// trace length.
const TRACE_LEN: &str = "8000";

fn run(exe: &str, extra: &[&str]) -> Output {
    let out = Command::new(exe)
        .args(extra)
        .env_remove("FOSM_THREADS")
        .env_remove("FOSM_METRICS")
        .env_remove("FOSM_TRACE")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{exe} {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn assert_thread_invariant(exe: &str) {
    let serial = run(exe, &[TRACE_LEN, "--threads", "1"]);
    let parallel = run(exe, &[TRACE_LEN, "--threads", "8"]);
    assert!(
        serial.stdout == parallel.stdout,
        "{exe}: stdout differs between --threads 1 and --threads 8\n\
         --- threads=1 ---\n{}\n--- threads=8 ---\n{}",
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout)
    );
    assert!(!serial.stdout.is_empty(), "{exe}: produced no output");
}

#[test]
fn fig15_stdout_is_thread_invariant() {
    assert_thread_invariant(env!("CARGO_BIN_EXE_fig15"));
}

#[test]
fn report_stdout_is_thread_invariant() {
    assert_thread_invariant(env!("CARGO_BIN_EXE_report"));
}

/// `--trace <path>` must write byte-identical Chrome trace-event JSON
/// at any thread count: events are recorded once per unique simulation
/// (the artifact store publishes a racing duplicate's events exactly
/// once) and the exporter sorts by cycle extent, so neither scheduling
/// nor thread identity can leak into the file. `fig15` runs one
/// simulation per benchmark, `fig02` five over one held trace.
#[test]
fn trace_files_are_thread_invariant() {
    for exe in [env!("CARGO_BIN_EXE_fig15"), env!("CARGO_BIN_EXE_fig02")] {
        let dir = std::env::temp_dir().join(format!("fosm-trace-det-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path_1 = dir.join("threads1.trace.json");
        let path_8 = dir.join("threads8.trace.json");

        let traced = |threads, path: &std::path::Path| {
            run(
                exe,
                &[
                    TRACE_LEN,
                    "--threads",
                    threads,
                    "--trace",
                    path.to_str().unwrap(),
                ],
            )
        };
        let serial = traced("1", &path_1);
        let parallel = traced("8", &path_8);
        assert_eq!(
            serial.stdout, parallel.stdout,
            "{exe}: --trace changed stdout across thread counts"
        );

        let a = std::fs::read(&path_1).expect("trace written at --threads 1");
        let b = std::fs::read(&path_8).expect("trace written at --threads 8");
        assert!(!a.is_empty(), "{exe}: trace file is empty");
        assert!(
            a == b,
            "{exe}: trace files differ between --threads 1 ({} bytes) and --threads 8 ({} bytes)",
            a.len(),
            b.len()
        );
        let text = String::from_utf8(a).expect("trace is UTF-8");
        assert!(
            text.starts_with("{\"traceEvents\":["),
            "{exe}: not a Chrome trace"
        );
        assert!(text.contains("\"ph\":\"X\""), "{exe}: no complete events");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `--metrics <path>` must leave stdout untouched and write exactly
/// one line of valid JSON with the manifest schema marker.
#[test]
fn metrics_flag_keeps_stdout_clean_and_writes_json() {
    let exe = env!("CARGO_BIN_EXE_fig15");
    let dir = std::env::temp_dir().join(format!("fosm-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest_path = dir.join("fig15.metrics.json");
    let manifest_arg = manifest_path.to_str().expect("utf-8 temp path");

    let plain = run(exe, &[TRACE_LEN, "--threads", "2"]);
    let with_metrics = run(
        exe,
        &[TRACE_LEN, "--threads", "2", "--metrics", manifest_arg],
    );
    assert_eq!(
        plain.stdout, with_metrics.stdout,
        "--metrics changed stdout"
    );

    let body = std::fs::read_to_string(&manifest_path).expect("manifest written");
    assert_eq!(body.trim_end().lines().count(), 1, "one JSON line");
    let value: serde::Value = serde_json::from_str(body.trim_end()).expect("valid JSON");
    let serde::Value::Map(map) = value else {
        panic!("manifest is not a JSON object: {body}");
    };
    let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
    for expected in ["fosm_obs", "binary", "meta", "counters", "gauges", "spans"] {
        assert!(
            keys.contains(&expected),
            "manifest lacks `{expected}`: {body}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
