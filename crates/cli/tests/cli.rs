//! End-to-end tests of the `fosm` binary (record → stats → profile →
//! model → simulate), driven through the real executable.

use std::process::{Command, Output};

fn fosm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fosm"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("fosm-cli-test-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

#[test]
fn full_pipeline_record_profile_model_simulate() {
    let trace = tmp("pipe.fct");
    let profile = tmp("pipe.json");

    let out = fosm(&[
        "record", "--bench", "gzip", "--insts", "30000", "-o", &trace,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("30000 instructions"));

    let out = fosm(&["stats", &trace]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("conditional branches"));

    let out = fosm(&["profile", &trace, "-o", &profile]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = fosm(&["model", &profile]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("total"), "{text}");
    assert!(text.contains("IPC"));

    let out = fosm(&["simulate", &trace]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("CPI"));

    // Machine flags flow through.
    let out = fosm(&["model", &profile, "--depth", "20"]);
    assert!(out.status.success());

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&profile);
}

#[test]
fn bench_list_names_all_twelve() {
    let out = fosm(&["bench-list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    for name in [
        "bzip", "crafty", "eon", "gap", "gcc", "gzip", "mcf", "parser", "perl", "twolf", "vortex",
        "vpr",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn helpful_errors() {
    let out = fosm(&["record", "--bench", "nonexistent", "-o", "/tmp/x.fct"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));

    let out = fosm(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = fosm(&["stats", "/definitely/not/a/file.fct"]);
    assert!(!out.status.success());

    let out = fosm(&["model", "--width"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));

    let out = fosm(&[]);
    assert!(!out.status.success());
}

#[test]
fn invalid_machine_flags_are_rejected() {
    let trace = tmp("flags.fct");
    let out = fosm(&["record", "--bench", "bzip", "--insts", "1000", "-o", &trace]);
    assert!(out.status.success());
    // window > rob is structurally invalid.
    let out = fosm(&["simulate", &trace, "--window", "256", "--rob", "128"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot exceed"));
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn extension_flags_flow_through() {
    let trace = tmp("ext.fct");
    let out = fosm(&[
        "record", "--bench", "twolf", "--insts", "20000", "-o", &trace,
    ]);
    assert!(out.status.success());

    // Extended simulation runs and reports TLB misses.
    let out = fosm(&[
        "simulate",
        &trace,
        "--clusters",
        "2",
        "--fu",
        "--buffer",
        "16",
        "--tlb",
        "32",
        "--prefetch",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Sampled profiling with warm-up.
    let out = fosm(&[
        "profile", &trace, "--sample", "2000", "--warmup", "4000", "--period", "10000",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"instructions\": 4000"));

    // Invalid cluster geometry is caught.
    let out = fosm(&["simulate", &trace, "--clusters", "3"]);
    assert!(!out.status.success());
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn validate_runs_the_differential_harness() {
    // One benchmark at a short trace keeps this fast; the full
    // 12-workload sweep at the tuned length is the CI accuracy gate.
    let out = fosm(&[
        "validate",
        "--bench",
        "gzip",
        "--insts",
        "30000",
        "--threads",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("component status"), "{text}");
    assert!(text.contains("gzip"), "{text}");
    assert!(text.contains("mean |total CPI error|"), "{text}");
}

#[test]
fn validate_check_gates_on_tolerance() {
    // An absurdly tight band must trip the gate and exit non-zero...
    let out = fosm(&[
        "validate",
        "--bench",
        "gzip",
        "--insts",
        "30000",
        "--threads",
        "1",
        "--tol",
        "all=0.0001:0",
        "--check",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("accuracy gate failed"), "{err}");
    assert!(err.contains("VIOLATION"), "{err}");

    // ...and a wide-open band must pass.
    let out = fosm(&[
        "validate",
        "--bench",
        "gzip",
        "--insts",
        "30000",
        "--threads",
        "1",
        "--tol",
        "all=10:10",
        "--check",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn validate_writes_schema_versioned_reports() {
    let report = tmp("validate-report.json");
    let out = fosm(&[
        "validate",
        "--bench",
        "mcf",
        "--insts",
        "30000",
        "--threads",
        "1",
        "--report",
        &report,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&report).expect("report written");
    let parsed =
        fosm_validate::ValidationReport::from_json(&json).expect("schema-versioned report parses");
    assert_eq!(parsed.cases.len(), 1);
    assert_eq!(parsed.cases[0].bench, "mcf");
    assert!(!parsed.cases[0].components.is_empty());
    let _ = std::fs::remove_file(&report);
}

#[test]
fn validate_reads_tolerance_baselines() {
    // The committed CI baseline must parse and drive the gate.
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../validation/tolerances.json"
    );
    let out = fosm(&[
        "validate",
        "--bench",
        "gzip",
        "--insts",
        "30000",
        "--threads",
        "1",
        "--baseline",
        baseline,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A missing or malformed baseline is a hard error.
    let out = fosm(&["validate", "--baseline", "/nope/missing.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read tolerance baseline"));
}

#[test]
fn validate_replays_fuzz_reproducers() {
    // The checked-in regression reproducer passes post-fix.
    let case = r#"{"width":1,"win_size":48,"rob_size":180,"pipe_depth":5,"l2_latency":8,"mem_latency":200,"bench_index":6,"seed":0}"#;
    let out = fosm(&["validate", "--fuzz-repro", case, "--insts", "30000"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("passes all invariants"));

    // Garbage JSON is rejected with a parse error, not a panic.
    let out = fosm(&["validate", "--fuzz-repro", "{not json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("malformed fuzz case"));
}

#[test]
fn trace_attributes_events_and_writes_chrome_json() {
    let (chrome, trace) = (tmp("trace-chrome.json"), tmp("trace-flag.json"));
    let run = ["trace", "gzip", "--insts", "30000", "--top", "5"];
    let out = fosm(&[&run[..], &["--chrome", &chrome, "--trace", &trace]].concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    // The per-class table, the exact-reconciliation contract line, and
    // the worst-attributed-events table are all part of the output.
    assert!(text.contains("branch"), "{text}");
    assert!(text.contains("reconciliation"), "{text}");
    assert!(text.contains("|Δ| 0.00e0"), "{text}");
    assert!(text.contains("top 5 worst-attributed events"), "{text}");

    let json = std::fs::read_to_string(&chrome).expect("chrome trace written");
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"predicted\""));

    // `--trace` writes the run's events without the model's
    // annotation, and `FOSM_TRACE` does what `--trace` does.
    assert!(!miss_events(&trace).is_empty(), "--trace wrote no events");
    assert_eq!(miss_events(&trace), miss_events(&chrome));
    let env_trace = tmp("trace-env.json");
    let status = Command::new(env!("CARGO_BIN_EXE_fosm"))
        .args(run)
        .env("FOSM_TRACE", &env_trace)
        .status()
        .expect("binary runs");
    assert!(status.success());
    assert_eq!(std::fs::read(&env_trace).ok(), std::fs::read(&trace).ok());
    for path in [chrome, trace, env_trace] {
        let _ = std::fs::remove_file(path);
    }

    // Unknown benchmarks are rejected up front.
    let out = fosm(&["trace", "nonexistent"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));
}

/// The `(kind, inst, start, extent, delta)` of every miss event in a
/// Chrome trace file, sorted. The model's `predicted` annotation is
/// cut, so a `--trace` and a `--chrome` file of one run compare equal.
fn miss_events(path: &str) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("trace file written");
    let mut events: Vec<String> = text
        .lines()
        .filter(|line| line.contains("\"ph\":\"X\""))
        .map(|line| line.trim_end_matches(',').split(",\"predicted\"").next())
        .map(|event| event.unwrap().trim_end_matches('}').to_string())
        .collect();
    events.sort();
    events
}

#[test]
fn validate_trace_holds_the_full_machine_run_at_any_thread_count() {
    let full = tmp("validate-full.json");
    assert!(
        fosm(&["trace", "gzip", "--insts", "8000", "--chrome", &full])
            .status
            .success()
    );
    let traced = |threads: &str| {
        let path = tmp(&format!("validate-threads{threads}.json"));
        let case = ["--bench", "gzip", "--insts", "8000", "--threads", threads];
        let out = fosm(&[&["validate", "--trace", &path][..], &case].concat());
        assert!(out.status.success(), "{out:?}");
        path
    };
    let (serial, parallel) = (traced("1"), traced("8"));
    assert_eq!(std::fs::read(&serial).ok(), std::fs::read(&parallel).ok());

    // The file holds the full machine's events beside the four
    // idealized variants' own.
    let (mut events, full_events) = (miss_events(&serial), miss_events(&full));
    assert!(events.len() > full_events.len());
    for event in &full_events {
        let at = events.binary_search(event);
        events.remove(at.unwrap_or_else(|_| panic!("missing {event}")));
    }
    for path in [full, serial, parallel] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn metrics_diff_gates_on_counter_growth() {
    let a = tmp("manifest-a.json");
    let b = tmp("manifest-b.json");
    std::fs::write(
        &a,
        r#"{"fosm_obs":1,"binary":"x","meta":{},"counters":{"sim.retired":1000,"profile.stage_a.wait_ns":70000},"gauges":{},"spans":{"run":{"count":1,"total_ns":100,"mean_ns":100.0}}}"#,
    )
    .unwrap();
    std::fs::write(
        &b,
        r#"{"fosm_obs":1,"binary":"x","meta":{},"counters":{"sim.retired":1500,"profile.stage_a.wait_ns":2100000},"gauges":{},"spans":{"run":{"count":1,"total_ns":110,"mean_ns":110.0}}}"#,
    )
    .unwrap();

    // Ungated: report-only, exits zero.
    let out = fosm(&["metrics", "diff", &a, &b]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("sim.retired"), "{text}");
    assert!(text.contains("+50.0%"), "{text}");

    // Gated at 10%: the 50% counter growth must fail the run.
    let out = fosm(&["metrics", "diff", &a, &b, "--max-regress", "10"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("REGRESSION counters.sim.retired"), "{err}");
    // A `*_ns` counter is a wall-clock total: reported, never gated.
    assert!(!err.contains("wait_ns"), "{err}");

    // A generous bound passes (span growth is 10%, counter gate at 60%,
    // the 30x `wait_ns` growth is not gated).
    let out = fosm(&["metrics", "diff", &a, &b, "--max-regress", "60"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Identical manifests: no differences, no gate.
    let out = fosm(&["metrics", "diff", &a, &a, "--max-regress", "0"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no differences"));

    let out = fosm(&["metrics", "frobnicate"]);
    assert!(!out.status.success());

    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn metrics_diff_gates_on_hist_quantile_growth() {
    let a = tmp("manifest-hist-a.json");
    let b = tmp("manifest-hist-b.json");
    std::fs::write(
        &a,
        r#"{"fosm_obs":1,"binary":"x","meta":{},"counters":{},"gauges":{},"spans":{},"hists":{"serve.total_us.profile":{"count":10,"sum":100,"min":5,"max":31,"p50":15,"p99":31,"buckets":{"4":8,"5":2}}}}"#,
    )
    .unwrap();
    std::fs::write(
        &b,
        r#"{"fosm_obs":1,"binary":"x","meta":{},"counters":{},"gauges":{},"spans":{},"hists":{"serve.total_us.profile":{"count":20,"sum":900,"min":5,"max":127,"p50":63,"p99":127,"buckets":{"4":8,"6":10,"7":2}}}}"#,
    )
    .unwrap();

    // Ungated: the summary rows are reported, exit zero.
    let out = fosm(&["metrics", "diff", &a, &b]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("hists (count/p50/p99):"), "{text}");
    assert!(text.contains("serve.total_us.profile.p99"), "{text}");

    // Gated at 50%: p50 grew 320%, p99 grew ~310% — both must fail.
    let out = fosm(&["metrics", "diff", &a, &b, "--max-regress", "50"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        err.contains("REGRESSION hists.serve.total_us.profile.p50"),
        "{err}"
    );
    assert!(
        err.contains("REGRESSION hists.serve.total_us.profile.p99"),
        "{err}"
    );
    // The doubled count is informational, never gated.
    assert!(!err.contains("serve.total_us.profile.count grew"), "{err}");

    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn stats_rejects_garbage_files() {
    let path = tmp("garbage.fct");
    std::fs::write(&path, b"this is not a trace").unwrap();
    let out = fosm(&["stats", &path]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("corpus format error"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_trace_command_reads_what_record_writes() {
    let trace = tmp("roundtrip.fct");
    let out = fosm(&[
        "record", "--bench", "gzip", "--insts", "30000", "-o", &trace,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for args in [
        &["corpus", "verify", &trace][..],
        &["stats", &trace],
        &["simulate", &trace],
        &["profile", &trace],
        &[
            "profile",
            &trace,
            "--probes",
            "full,ideal,branch,icache,dcache",
        ],
        &[
            "profile", &trace, "--sample", "5000", "--warmup", "5000", "--period", "10000",
        ],
    ] {
        let out = fosm(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn truncated_trace_files_are_rejected_with_their_path() {
    let trace = tmp("whole.fct");
    let out = fosm(&["record", "--bench", "mcf", "--insts", "5000", "-o", &trace]);
    assert!(out.status.success());
    let bytes = std::fs::read(&trace).unwrap();
    let cut = tmp("cut.fct");
    std::fs::write(&cut, &bytes[..bytes.len() - 3]).unwrap();
    for command in ["stats", "simulate", "profile"] {
        let out = fosm(&[command, &cut]);
        assert!(!out.status.success(), "{command} accepted a truncated file");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains(&cut), "{command}: {err}");
    }
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&cut);
}

#[test]
fn explore_small_grid_prints_a_frontier_and_passes_sim_check() {
    // A small grid well inside the simulator-validated envelope, so the
    // frontier corners survive the `--sim-check` accuracy gate.
    let out = fosm(&[
        "explore",
        "--insts",
        "30000",
        "--widths",
        "2,4",
        "--windows",
        "16,32",
        "--robs",
        "64",
        "--depths",
        "3,5",
        "--l2s",
        "8",
        "--mems",
        "200",
        "--sim-check",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("explored 8 configs"), "{text}");
    assert!(!text.contains("pareto frontier: 0 point(s)"), "{text}");
    assert!(text.contains("sim-check"), "{text}");
    assert!(!text.contains("FAIL"), "{text}");
    // Timing (machine-dependent) stays off stdout.
    assert!(!text.contains("evals/sec"), "{text}");
}

#[test]
fn explore_report_is_byte_identical_across_thread_counts() {
    let run = |threads: &str, export: &str| {
        let out = fosm(&[
            "explore",
            "--insts",
            "30000",
            "--threads",
            threads,
            "--widths",
            "2,4",
            "--windows",
            "16,32",
            "--robs",
            "64,128",
            "--depths",
            "3,5",
            "--l2s",
            "8",
            "--mems",
            "200",
            "--frontier",
            "--export",
            export,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let a = tmp("explore-t1.json");
    let b = tmp("explore-t8.json");
    // The only line allowed to differ is the one naming the export path.
    let strip_path_line = |s: String| {
        s.lines()
            .filter(|l| !l.starts_with("frontier written to"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let stdout_1 = strip_path_line(run("1", &a));
    let stdout_8 = strip_path_line(run("8", &b));
    assert_eq!(stdout_1, stdout_8, "stdout must not depend on --threads");
    let report_1 = std::fs::read_to_string(&a).unwrap();
    let report_8 = std::fs::read_to_string(&b).unwrap();
    assert_eq!(report_1, report_8, "exported report must be byte-equal");
    assert!(report_1.contains("\"schema_version\": 1"));
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn explore_rejects_invalid_grids_up_front() {
    // window > rob is invalid at the extremes: caught before the sweep.
    let out = fosm(&[
        "explore",
        "--windows",
        "256",
        "--robs",
        "128",
        "--insts",
        "5000",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("window"), "{err}");

    // A depth past the machine maximum is caught the same way.
    let out = fosm(&["explore", "--depths", "4294967295", "--insts", "5000"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        err.contains("`depths` value 4294967295 exceeds the pipe_depth maximum 256"),
        "{err}"
    );

    // Six axes of 2048 valid values: 2^66 points, which must be
    // refused, not wrapped to 0 and swept.
    let axis = |value: &str| vec![value; 2048].join(",");
    let axes = [
        ("--widths", axis("4")),
        ("--windows", axis("32")),
        ("--robs", axis("128")),
        ("--depths", axis("5")),
        ("--l2s", axis("12")),
        ("--mems", axis("200")),
    ];
    let mut args = vec![
        "explore",
        "--bench",
        "gzip",
        "--insts",
        "5000",
        "--threads",
        "1",
    ];
    for (flag, values) in &axes {
        args.extend([*flag, values.as_str()]);
    }
    let out = fosm(&args);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        err.contains("the grid has more than 2^64 - 1 points"),
        "{err}"
    );
}

#[test]
fn validate_loads_tolerances_once_per_invocation() {
    let metrics = tmp("validate-tol-loads.json");
    let out = fosm(&[
        "validate",
        "--bench",
        "gzip",
        "--insts",
        "20000",
        "--metrics",
        &metrics,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        manifest.contains("\"cli.validate.tolerance_loads\":1"),
        "tolerance bands must be parsed exactly once: {manifest}"
    );
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn profile_probes_parse_the_machine_setup_once() {
    let trace = tmp("probes-once.fct");
    let out = fosm(&[
        "record", "--bench", "gzip", "--insts", "20000", "-o", &trace,
    ]);
    assert!(out.status.success());

    let metrics = tmp("probes-once.json");
    let profile = tmp("probes-once-profile.json");
    let out = fosm(&[
        "profile",
        &trace,
        "--probes",
        "full,ideal,branch,icache,dcache",
        "-o",
        &profile,
        "--metrics",
        &metrics,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        manifest.contains("\"cli.profile.config_loads\":1"),
        "five probe variants must share one machine-flag parse: {manifest}"
    );
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&profile);
    let _ = std::fs::remove_file(&metrics);
}

const MACHINE: &[&str] = &["width", "window", "rob", "depth", "l2", "mem"];
const GRID: &[&str] = &["widths", "windows", "robs", "depths", "l2s", "mems"];
const WORKLOAD: &[&str] = &["bench", "insts", "seed"];
const CONNECT: &[&str] = &["addr", "local"];
const GLOBAL: &[&str] = &["metrics", "trace", "help"];

/// A command's words, its own flags, and the shared groups it takes.
type Declared = (
    &'static [&'static str],
    &'static [&'static str],
    &'static [&'static [&'static str]],
);

/// Every command (with its action word, where it takes one) and the
/// flags it declares: the CLI's whole surface.
fn surface() -> Vec<(Vec<&'static str>, Vec<&'static str>)> {
    let own: &[Declared] = &[
        (&["record"], &["bench", "insts", "seed", "out"], &[]),
        (&["corpus", "info"], &[], &[]),
        (&["corpus", "verify"], &[], &[]),
        (&["stats"], &[], &[]),
        (
            &["profile"],
            &[
                "out", "probes", "sample", "warmup", "period", "prefetch", "tlb",
            ],
            &[MACHINE],
        ),
        (&["model"], &[], &[MACHINE]),
        (
            &["simulate"],
            &[
                "ideal", "prefetch", "tlb", "clusters", "forward", "fu", "buffer",
            ],
            &[MACHINE],
        ),
        (
            &["validate"],
            &[
                "insts",
                "seed",
                "threads",
                "bench",
                "tol",
                "baseline",
                "check",
                "report",
                "statsim",
                "corpus",
                "fuzz",
                "fuzz-seed",
                "fuzz-repro",
            ],
            &[MACHINE],
        ),
        (
            &["explore"],
            &[
                "bench",
                "insts",
                "seed",
                "threads",
                "icaches",
                "dcaches",
                "predictors",
                "top",
                "frontier",
                "export",
                "sim-check",
            ],
            &[GRID],
        ),
        (&["trace"], &["insts", "seed", "top", "chrome"], &[MACHINE]),
        (&["metrics", "diff"], &["max-regress"], &[]),
        (
            &["serve"],
            &["addr", "workers", "port-file", "no-telemetry"],
            &[],
        ),
        (&["client", "ping"], &[], &[CONNECT]),
        (&["client", "stats"], &[], &[CONNECT]),
        (&["client", "telemetry"], &[], &[CONNECT]),
        (&["client", "shutdown"], &[], &[CONNECT]),
        (
            &["client", "profile"],
            &["probe"],
            &[CONNECT, WORKLOAD, MACHINE],
        ),
        (
            &["client", "model"],
            &["probe"],
            &[CONNECT, WORKLOAD, MACHINE],
        ),
        (&["client", "validate"], &[], &[CONNECT, WORKLOAD, MACHINE]),
        (&["client", "explore"], &[], &[CONNECT, WORKLOAD, GRID]),
        (
            &["loadgen"],
            &[
                "addr",
                "clients",
                "requests",
                "insts",
                "seed",
                "verify",
                "seq",
                "min-speedup",
                "out",
                "baseline",
                "check",
            ],
            &[],
        ),
        (&["top"], &["addr", "interval", "once", "json"], &[]),
        (&["bench-list"], &[], &[]),
    ];
    own.iter()
        .map(|(words, flags, groups)| {
            let mut all = flags.to_vec();
            groups.iter().for_each(|g| all.extend_from_slice(g));
            all.extend_from_slice(GLOBAL);
            (words.to_vec(), all)
        })
        .collect()
}

#[test]
fn every_command_rejects_unknown_flags_and_documents_its_own() {
    let full = fosm(&["help"]);
    assert!(full.status.success());
    let full = String::from_utf8_lossy(&full.stdout).into_owned();
    for (words, flags) in surface() {
        let cmd = words.join(" ");
        let mut argv = words.clone();
        argv.extend_from_slice(&["--bogus", "1"]);
        let out = fosm(&argv);
        assert!(!out.status.success(), "{cmd} accepted --bogus");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.contains("--bogus") && err.contains(&format!("`fosm {cmd}`")),
            "{cmd}: {err}"
        );

        let mut argv = words.clone();
        argv.push("--help");
        let out = fosm(&argv);
        assert!(out.status.success(), "{cmd} --help failed");
        let help = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(help.contains(&format!("fosm {cmd} ")), "{cmd}: {help}");
        for flag in &flags {
            let row = format!("--{flag} ");
            assert!(help.contains(&row), "`fosm {cmd} --help` lacks --{flag}");
            assert!(full.contains(&row), "`fosm help` lacks --{flag}");
        }
    }
}

#[test]
fn malformed_flags_name_the_flag_and_the_command() {
    let trace = tmp("strict.fct");
    let out = fosm(&["record", "--bench", "gzip", "--insts", "2000", "-o", &trace]);
    assert!(out.status.success());
    for (argv, needle) in [
        (
            vec!["simulate", &trace, "--widht", "8"],
            "unknown flag --widht for `fosm simulate`",
        ),
        (
            vec!["simulate", &trace, "--width", "2", "--width", "8"],
            "flag --width given twice to `fosm simulate`",
        ),
        (
            vec!["validate", "--check=1"],
            "flag --check of `fosm validate` takes no value",
        ),
        (
            vec!["stats", &trace, "extra.fct"],
            "unexpected argument `extra.fct` for `fosm stats`",
        ),
        (
            vec!["stats", &trace, "--metrics"],
            "flag --metrics of `fosm stats` needs a value",
        ),
        (
            vec!["loadgen", "--addr", "127.0.0.1:9", "--check"],
            "flag --check of `fosm loadgen` needs --baseline",
        ),
        (
            vec!["loadgen", "--addr", "127.0.0.1:9", "--min-speedup", "3"],
            "flag --min-speedup of `fosm loadgen` needs --seq",
        ),
        (
            vec!["profile", &trace, "--warmup", "100"],
            "flag --warmup of `fosm profile` needs --sample",
        ),
        (
            vec!["profile", &trace, "--period", "100"],
            "flag --period of `fosm profile` needs --sample",
        ),
        (
            vec!["simulate", &trace, "--forward", "2"],
            "flag --forward of `fosm simulate` needs --clusters",
        ),
        (
            vec!["validate", "--fuzz-seed", "7"],
            "flag --fuzz-seed of `fosm validate` needs --fuzz",
        ),
        (
            vec!["simulate", &trace, "--ideal", "--prefetch", "1"],
            "flag --ideal of `fosm simulate` excludes --prefetch",
        ),
        (
            vec!["validate", "--fuzz", "8", "--check"],
            "flag --fuzz of `fosm validate` excludes --check",
        ),
        // The request batcher's window flag is gone with the batcher.
        (
            vec!["serve", "--batch-window", "2"],
            "unknown flag --batch-window for `fosm serve`",
        ),
    ] {
        let out = fosm(&argv);
        assert_eq!(out.status.code(), Some(1), "{argv:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains(needle), "{argv:?}: {err}");
    }

    // `--name=value` works for every value flag, not only the globals.
    let spaced = fosm(&["simulate", &trace, "--width", "8"]);
    let equals = fosm(&["simulate", &trace, "--width=8"]);
    assert!(equals.status.success());
    assert_eq!(spaced.stdout, equals.stdout);
    let _ = std::fs::remove_file(&trace);
}
