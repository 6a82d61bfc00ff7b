//! The one benchmark every performance claim about fosm is measured
//! with: four workloads, end-to-end metrics from untraced runs, and a
//! per-layer ledger from a traced repetition.
//!
//! ```text
//! fosm-benchmark [--workload W] [--seed S] [--seconds T]
//!                [--trace 0|1|PATH] [--repeat N]
//! ```
//!
//! With `--workload`, the workload runs in this process; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics, or with `--trace` the
//! per-layer ones). Without it, every workload runs in a child process
//! of its own, so each one's peak memory is its own. `--repeat N` runs
//! each workload N times with seeds S, S+1, … and prints each metric's
//! median, quartiles and spread against its bound in `BENCHMARK.json`.
//! The exit code is non-zero whenever an operation or oracle failed.

mod explore_warm;
mod ledger;
mod measure;
mod passes;
mod profile_cold;
mod schedule;
mod serve_mixed;
mod stats;
mod validate_suite;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use measure::{Ctx, Outcome, END_TO_END, PER_LAYER};

/// Every workload, in run order.
const WORKLOADS: [&str; 4] = [
    "validate-suite",
    "profile-cold",
    "explore-warm",
    "serve-mixed",
];

/// Directory traced runs write their spans to by default.
const TRACE_DIR: &str = "benchmark/out";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    /// `None`: untraced. `Some(path)`: traced, spans written to `path`
    /// (a default under [`TRACE_DIR`] for `--trace 1`).
    trace: Option<Option<PathBuf>>,
    repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 42,
        seconds: 15,
        trace: None,
        repeat: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|e| format!("bad value `{v}` for {flag}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                out.workload = Some(w);
            }
            "--seed" => out.seed = number(value()?)?,
            "--seconds" => out.seconds = number(value()?)?.max(1),
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(None),
                    path => Some(Some(PathBuf::from(path))),
                }
            }
            "--repeat" => out.repeat = Some(number(value()?)?.max(1) as usize),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

/// The path of this binary. `run.sh` builds the `fosm` binary beside it.
fn own_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fosm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.workload, args.repeat) {
        (_, Some(n)) => repeat(&args, n),
        (Some(w), None) => run_one(&args, w),
        (None, None) => run_all(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fosm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(args: &Args, workload: &str) -> Result<(), String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace.is_some(),
        fosm: own_exe()?.with_file_name("fosm"),
    };
    let outcome = match workload {
        "validate-suite" => validate_suite::run(&ctx),
        "profile-cold" => profile_cold::run(&ctx),
        "explore-warm" => explore_warm::run(&ctx),
        "serve-mixed" => serve_mixed::run(&ctx),
        other => return Err(format!("unknown workload `{other}`")),
    };
    if let Some(target) = &args.trace {
        let path = target.clone().unwrap_or_else(|| {
            PathBuf::from(TRACE_DIR).join(format!("trace-{workload}-{}.json", args.seed))
        });
        write_trace(&path, &outcome)?;
        println!("spans written to {}", path.display());
    }
    print_outcome(workload, args, &outcome);
    if outcome.failed > 0 {
        return Err(format!(
            "{workload}: {} of {} operations failed",
            outcome.failed, outcome.attempted
        ));
    }
    Ok(())
}

fn write_trace(path: &std::path::Path, outcome: &Outcome) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, ledger::chrome_json(&outcome.spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Human lines, then the result object as the last line.
fn print_outcome(workload: &str, args: &Args, outcome: &Outcome) {
    println!("workload {workload} (seed {}):", args.seed);
    let table: &[(&str, &str)] = if args.trace.is_some() {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let values = if args.trace.is_some() {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    let mut metrics = Vec::with_capacity(table.len());
    let mut finite = true;
    for &(name, unit) in table {
        let value = values.get(name).copied().unwrap_or(0.0);
        finite &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {name:<26} {value:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for (name, value, unit) in &outcome.named {
        println!("  {name:<26} {value:>16.6} {unit}   (printed only)");
    }
    if let Some(l) = &outcome.ledger {
        println!("ledger of the traced repetition:");
        print!("{}", l.render());
        println!(
            "  unattributed_frac {:.4}, tracing overhead {:+.6} s",
            l.unattributed_frac(),
            outcome
                .layers
                .get("ledger.overhead_s")
                .copied()
                .unwrap_or(0.0)
        );
    }
    for w in &outcome.warnings {
        println!("warning: {w}");
    }
    if let Some(why) = &outcome.invalid {
        println!("invalid: {why}");
    }
    for p in &outcome.problems {
        println!("FAILED: {p}");
    }
    let correct = outcome.failed == 0 && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

/// Re-runs this binary as a child process for one workload, returning
/// its standard output and whether it succeeded. A traced child writes
/// its spans to the default path.
fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<(String, bool), String> {
    let output = Command::new(own_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot run the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    Ok((stdout, output.status.success()))
}

/// Every workload, each in its own child process.
fn run_all(args: &Args) -> Result<(), String> {
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let (stdout, ok) = child(args, w, args.seed, args.trace.is_some())?;
        print!("{stdout}");
        if !ok {
            failed.push(w);
        }
    }
    if failed.is_empty() {
        println!("all {} workloads correct", WORKLOADS.len());
        Ok(())
    } else {
        Err(format!("failed workloads: {}", failed.join(", ")))
    }
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Vec<(String, f64)> {
    let Ok(body) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(serde::Value::Map(top)) = serde_json::from_str::<serde::Value>(&body) else {
        return Vec::new();
    };
    let Some((_, serde::Value::Seq(metrics))) = top.iter().find(|(k, _)| k == "end_to_end") else {
        return Vec::new();
    };
    metrics
        .iter()
        .filter_map(|m| match (m.get("name"), m.get("bound")) {
            (Some(serde::Value::Str(n)), Some(serde::Value::Num(b))) => {
                Some((n.clone(), b.parse().ok()?))
            }
            _ => None,
        })
        .collect()
}

/// The metric values in a result line.
fn parse_result(stdout: &str) -> Option<Vec<(String, f64)>> {
    let last = stdout.lines().last()?;
    let v: serde::Value = serde_json::from_str(last).ok()?;
    let Some(serde::Value::Map(metrics)) = v.get("metrics") else {
        return None;
    };
    metrics
        .iter()
        .map(|(name, m)| match m.get("value") {
            Some(serde::Value::Num(text)) => Some((name.clone(), text.parse().ok()?)),
            _ => None,
        })
        .collect()
}

/// `--repeat N`: N untraced runs per workload with consecutive seeds.
fn repeat(args: &Args, n: usize) -> Result<(), String> {
    let bounds = bounds();
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_ok = true;
    for w in workloads {
        let mut values: Vec<(String, Vec<f64>)> = Vec::new();
        let mut invalid = 0;
        for i in 0..n {
            let seed = args.seed + i as u64;
            let (stdout, ok) = child(args, w, seed, false)?;
            if !ok {
                all_ok = false;
                println!("{w} seed {seed}: FAILED\n{stdout}");
                continue;
            }
            if let Some(line) = stdout.lines().find(|l| l.starts_with("invalid:")) {
                invalid += 1;
                println!("{w} seed {seed}: run discarded, {line}");
                continue;
            }
            for (name, value) in parse_result(&stdout).unwrap_or_default() {
                match values.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, vs)) => vs.push(value),
                    None => values.push((name, vec![value])),
                }
            }
        }
        println!(
            "{w}: {} valid runs of {n} ({invalid} invalid), seeds {}..={}",
            values.first().map_or(0, |v| v.1.len()),
            args.seed,
            args.seed + n as u64 - 1
        );
        println!(
            "  {:<14} {:>14} {:>14} {:>14} {:>8} {:>7}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (name, vs) in &values {
            let med = stats::median(vs).unwrap_or(0.0);
            let (q1, q3) = stats::quartiles(vs).map_or((med, med), |q| (q[0], q[2]));
            let spread = stats::spread(vs).unwrap_or(0.0);
            let bound = bounds.iter().find(|(b, _)| b == name).map(|b| b.1);
            let flag = match bound {
                Some(b) if spread > b => "  SPREAD ABOVE BOUND",
                _ => "",
            };
            println!(
                "  {name:<14} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}% {:>7}{flag}",
                100.0 * spread,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
            );
        }
    }
    if all_ok {
        Ok(())
    } else {
        Err("some runs failed".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_contract_flags() {
        let a = parse(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("serve-mixed"));
        assert_eq!((a.seed, a.seconds), (7, 12));
        assert_eq!(a.trace, Some(None));
        assert_eq!(parse(&["--trace", "0"]).expect("valid").trace, None);
        assert_eq!(
            parse(&["--trace", "out.json"]).expect("valid").trace,
            Some(Some(PathBuf::from("out.json")))
        );
        assert_eq!(parse(&[]).expect("valid").seed, 42);
    }

    #[test]
    fn rejects_unknown_input() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn parses_a_result_line() {
        let out = "human line\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
                   \"metrics\": {\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}\n";
        assert_eq!(parse_result(out), Some(vec![("p50_ms".to_string(), 1.5)]));
    }
}
