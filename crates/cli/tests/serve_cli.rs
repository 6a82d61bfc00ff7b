//! End-to-end tests of the daemon subcommands: `fosm serve` as a real
//! child process, `fosm client` over the wire and with `--local`, a
//! small `fosm loadgen` run with response verification, and `fosm top`
//! against the live telemetry endpoint.

use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn fosm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fosm"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("fosm-serve-cli-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

/// Starts `fosm serve` on an ephemeral port and waits for the port
/// file; returns the child and the bound address.
fn start_daemon(tag: &str, extra: &[&str]) -> (Child, String, String) {
    let port_file = tmp(&format!("{tag}.port"));
    let _ = std::fs::remove_file(&port_file);
    let mut args = vec![
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--port-file",
        &port_file,
    ];
    args.extend_from_slice(extra);
    let child = Command::new(env!("CARGO_BIN_EXE_fosm"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            if !addr.trim().is_empty() {
                break addr.trim().to_string();
            }
        }
        assert!(Instant::now() < deadline, "daemon never wrote {port_file}");
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, addr, port_file)
}

fn shutdown_daemon(mut child: Child, addr: &str, port_file: &str) {
    let out = fosm(&["client", "shutdown", "--addr", addr]);
    assert!(
        out.status.success(),
        "shutdown failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "shutting down\n");
    let status = child.wait().expect("daemon reaped");
    assert!(status.success(), "daemon exited {status:?}");
    let _ = std::fs::remove_file(port_file);
}

#[test]
fn daemon_round_trip_matches_local_execution_byte_for_byte() {
    let (child, addr, port_file) = start_daemon("roundtrip", &[]);

    let out = fosm(&["client", "ping", "--addr", &addr]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "pong\n");

    // The same request over the wire and through --local must print
    // identical bytes — the daemon runs the exact one-shot code path.
    for action in ["model", "profile"] {
        let req = [
            action, "--bench", "gzip", "--insts", "20000", "--probe", "branch",
        ];
        let mut wire = vec!["client"];
        wire.extend_from_slice(&req);
        wire.extend_from_slice(&["--addr", &addr]);
        let wire_out = fosm(&wire);
        assert!(
            wire_out.status.success(),
            "{}",
            String::from_utf8_lossy(&wire_out.stderr)
        );
        let mut local = vec!["client"];
        local.extend_from_slice(&req);
        local.push("--local");
        let local_out = fosm(&local);
        assert!(
            local_out.status.success(),
            "{}",
            String::from_utf8_lossy(&local_out.stderr)
        );
        assert_eq!(
            wire_out.stdout, local_out.stdout,
            "{action}: wire and --local bytes differ"
        );
        assert!(!wire_out.stdout.is_empty());
    }

    // Stats exposes the stable counter keys.
    let out = fosm(&["client", "stats", "--addr", &addr]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("serve.requests "), "{text}");
    assert!(text.contains("pool.workers 2"), "{text}");
    assert!(text.contains("store.profile_miss "), "{text}");

    shutdown_daemon(child, &addr, &port_file);
}

#[test]
fn client_errors_are_structured_and_nonzero() {
    let out = fosm(&[
        "client",
        "model",
        "--local",
        "--bench",
        "no-such-bench",
        "--insts",
        "20000",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("bad-request"), "{err}");
    assert!(err.contains("no-such-bench"), "{err}");

    let out = fosm(&["client", "model", "--local", "--depth", "4294967295"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("bad-request"), "{err}");
    assert!(err.contains("pipe_depth"), "{err}");

    let out = fosm(&["client", "frobnicate", "--local"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown client action"));

    // No --addr and no --local is a usage error, not a hang.
    let out = fosm(&["client", "ping"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"));
}

#[test]
fn loadgen_verifies_and_writes_a_criterion_baseline() {
    let (child, addr, port_file) = start_daemon("loadgen", &[]);
    let bench_path = tmp("BENCH_serve.json");

    let out = fosm(&[
        "loadgen",
        "--addr",
        &addr,
        "--clients",
        "4",
        "--requests",
        "3",
        "--insts",
        "8000",
        "--verify",
        "-o",
        &bench_path,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("12 requests over 4 clients"), "{text}");
    assert!(text.contains("all responses verified"), "{text}");
    assert!(text.contains("latency p50"), "{text}");

    let body = std::fs::read_to_string(&bench_path).expect("baseline written");
    assert!(body.contains("\"group\": \"serve\""), "{body}");
    assert!(body.contains("\"serve/p50\""), "{body}");
    assert!(body.contains("\"serve/p99\""), "{body}");
    assert!(body.contains("\"serve/ns_per_req\""), "{body}");

    // Comparing against the baseline we just wrote reports no
    // regression (same numbers) and exits zero with --check.
    let out = fosm(&[
        "loadgen",
        "--addr",
        &addr,
        "--clients",
        "2",
        "--requests",
        "2",
        "--insts",
        "8000",
        "--baseline",
        &bench_path,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("vs baseline"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let _ = std::fs::remove_file(&bench_path);
    shutdown_daemon(child, &addr, &port_file);
}

#[test]
fn top_once_json_returns_populated_telemetry_snapshot() {
    let (child, addr, port_file) = start_daemon("top", &[]);

    // Put traffic of two kinds (plus one error) on the wire so the
    // per-kind histograms and the flight recorder have content.
    assert!(fosm(&["client", "ping", "--addr", &addr]).status.success());
    assert!(
        fosm(&["client", "profile", "--addr", &addr, "--bench", "gzip", "--insts", "8000",])
            .status
            .success()
    );
    assert!(!fosm(&[
        "client",
        "profile",
        "--addr",
        &addr,
        "--bench",
        "no-such-bench",
        "--insts",
        "8000",
    ])
    .status
    .success());

    // The CI-friendly form: one raw schema-versioned JSON body.
    let out = fosm(&["top", "--addr", &addr, "--once", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(body.contains("\"fosm_telemetry\":3"), "{body}");
    assert!(body.contains("\"serve.total_us.ping\""), "{body}");
    assert!(body.contains("\"serve.queue_us.profile\""), "{body}");
    assert!(body.contains("\"kind\":\"ping\""), "{body}");
    assert!(body.contains("\"outcome\":\"bad-request\""), "{body}");

    // `fosm client telemetry` prints the identical body shape.
    let out = fosm(&["client", "telemetry", "--addr", &addr]);
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"fosm_telemetry\":3"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Table mode renders the histogram and flight sections.
    let out = fosm(&["top", "--addr", &addr, "--once"]);
    assert!(out.status.success());
    let table = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(table.starts_with("fosm top —"), "{table}");
    assert!(table.contains("serve.total_us.profile"), "{table}");
    assert!(table.contains("flight recorder"), "{table}");

    shutdown_daemon(child, &addr, &port_file);
}

#[test]
fn no_telemetry_flag_disables_recording() {
    let (child, addr, port_file) = start_daemon("notelem", &["--no-telemetry"]);
    assert!(fosm(&["client", "ping", "--addr", &addr]).status.success());
    let out = fosm(&["top", "--addr", &addr, "--once", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(body.contains("\"enabled\":false"), "{body}");
    assert!(!body.contains("\"serve.total_us.ping\""), "{body}");
    shutdown_daemon(child, &addr, &port_file);
}
