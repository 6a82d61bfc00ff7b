//! `phase_study` splits its trace into two 50,000-instruction phases,
//! so a shorter trace is a usage error, not a panic.

use std::process::Command;

#[test]
fn a_trace_shorter_than_two_phases_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_phase_study"))
        .arg("20000")
        .output()
        .expect("run phase_study");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "no table for a rejected length");
    assert!(
        stderr.contains("phase_study needs TRACE_LEN >= 100000"),
        "{stderr}"
    );
}
