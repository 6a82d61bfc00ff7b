//! `fosm` — command-line interface to the first-order model toolchain.
//!
//! ```text
//! fosm record  --bench gzip --insts 500000 --seed 42 -o gzip.fct
//! fosm stats   gzip.fct
//! fosm profile gzip.fct -o gzip-profile.json
//! fosm model   gzip-profile.json [--width 4 --window 48 --rob 128 --depth 5]
//! fosm simulate gzip.fct [--depth 5 --width 4]
//! fosm bench-list
//! ```
//!
//! Traces are checksummed `FOSMTRC1` files (`fosm_trace::corpus`),
//! replayed page by page; profiles are JSON (`serde_json`), so they
//! can be archived, diffed, and fed back into `fosm model` without
//! re-profiling.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

mod args;
mod commands;
mod serve_cmd;

fn main() -> ExitCode {
    let argv = strip_global_flags(std::env::args().skip(1).collect());
    let result = run(argv);
    let tracer = fosm_obs::tracer();
    if tracer.enabled() {
        if let Some(path) = tracer.path() {
            if let Err(e) = tracer.flush_to_path(&path) {
                eprintln!(
                    "warning: cannot write miss-event trace {}: {e}",
                    path.display()
                );
            }
        }
    }
    fosm_obs::emit("fosm");
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes the global `--metrics <path>` and `--trace <path>` flags
/// (either `--flag value` or `--flag=value`, any position) from the
/// command line, pointing the observability sink / miss-event tracer
/// at them. Handled here so every subcommand accepts the flags without
/// threading them through the per-command parsers.
fn strip_global_flags(argv: Vec<String>) -> Vec<String> {
    let mut rest = Vec::with_capacity(argv.len());
    let mut iter = argv.into_iter();
    while let Some(arg) = iter.next() {
        if let Some(path) = arg.strip_prefix("--metrics=") {
            fosm_obs::set_sink(fosm_obs::Sink::JsonFile(path.into()));
        } else if arg == "--metrics" {
            if let Some(path) = iter.next() {
                fosm_obs::set_sink(fosm_obs::Sink::JsonFile(path.into()));
            }
        } else if let Some(path) = arg.strip_prefix("--trace=") {
            fosm_obs::tracer().enable_to(Some(path.into()));
        } else if arg == "--trace" {
            if let Some(path) = iter.next() {
                fosm_obs::tracer().enable_to(Some(path.into()));
            }
        } else {
            rest.push(arg);
        }
    }
    rest
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let Some(command) = argv.first() else {
        print_usage();
        return Err("no command given".into());
    };
    fosm_obs::meta_set("command", command);
    let _span = fosm_obs::span(&format!("cli.{command}"));
    let rest = &argv[1..];
    match command.as_str() {
        "record" => commands::record(args::Parsed::new(rest)?),
        "corpus" => commands::corpus(args::Parsed::new(rest)?),
        "stats" => commands::stats(args::Parsed::new(rest)?),
        "profile" => commands::profile(args::Parsed::new(rest)?),
        "model" => commands::model(args::Parsed::new(rest)?),
        "simulate" => commands::simulate(args::Parsed::new(rest)?),
        "validate" => commands::validate(args::Parsed::new(rest)?),
        "explore" => commands::explore(args::Parsed::new(rest)?),
        "trace" => commands::trace(args::Parsed::new(rest)?),
        "metrics" => commands::metrics(args::Parsed::new(rest)?),
        "serve" => serve_cmd::serve(args::Parsed::new(rest)?),
        "client" => serve_cmd::client(args::Parsed::new(rest)?),
        "loadgen" => serve_cmd::loadgen(args::Parsed::new(rest)?),
        "top" => serve_cmd::top(args::Parsed::new(rest)?),
        "bench-list" => commands::bench_list(),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `fosm help`)")),
    }
}

fn print_usage() {
    eprintln!(
        "fosm — first-order superscalar processor model toolchain

USAGE:
    fosm record  --bench <name> [--insts N] [--seed S] -o <trace.fct>
    fosm corpus  info <trace.fct>
    fosm corpus  verify <trace.fct>
    fosm stats   <trace.fct>
    fosm profile <trace.fct> [-o <profile.json>] [--probes LIST]
                 [machine flags]
    fosm model   <profile.json> [machine flags]
    fosm simulate <trace.fct> [machine flags] [--ideal]
    fosm validate [validation flags] [machine flags]
    fosm explore [explore flags]
    fosm trace   <bench> [--insts N] [--seed S] [--top K]
                 [--chrome <out.json>] [machine flags]
    fosm metrics diff <a.json> <b.json> [--max-regress PCT]
    fosm serve   [serve flags]
    fosm client  <action> (--addr HOST:PORT | --local) [request flags]
    fosm loadgen --addr HOST:PORT [loadgen flags]
    fosm top     --addr HOST:PORT [--interval MS] [--once] [--json]
    fosm bench-list

    Any command also accepts --metrics <path> to write a JSON run
    manifest (counters, span timings) there; FOSM_METRICS=human|json
    selects a stderr sink instead. --trace <path> (or FOSM_TRACE)
    records detailed-simulator miss events to Chrome trace-event JSON.

MACHINE FLAGS (default: the paper's baseline):
    --width N     issue width            (4)
    --window N    issue-window entries   (48)
    --rob N       reorder-buffer entries (128)
    --depth N     front-end stages       (5)
    --l2 N        L2 latency, cycles     (8)
    --mem N       memory latency, cycles (200)

VALIDATION FLAGS (fosm validate):
    --insts N       trace length per workload          (120000)
    --seed S        workload generator seed            (42)
    --threads N     parallel validation workers        (all cores)
    --bench NAME    validate one workload only         (all 12)
    --tol SPEC      tolerance overrides, e.g. branch=0.3:0.05,total=0.1
    --baseline P    load tolerance bands from a JSON file
    --check         exit non-zero on any out-of-band component
    --report P      write the full JSON validation report to P
    --statsim       also run the statistical-simulation baseline
    --corpus LIST   validate comma-separated trace files
                    (sharded across --threads workers) instead of the
                    synthetic workload suite
    --fuzz N        differential-fuzz N random machines instead
    --fuzz-seed S   fuzzer RNG seed
    --fuzz-repro J  replay one fuzz case from its JSON form

EXPLORE FLAGS (fosm explore):
    --bench NAME    workload to sweep; `all` for the suite    (gzip)
    --insts N       trace length per workload                 (120000)
    --seed S        workload generator seed                   (42)
    --threads N     parallel sweep shards                     (all cores)
    --widths L --windows L --robs L --depths L --l2s L --mems L
                    comma-separated machine-grid axes (baseline sweep)
    --icaches L --dcaches L   cache geometries, e.g. 8k:4:64,16k:2:64
    --predictors L  predictor axis, e.g. gshare:13,bimodal:10
    --top K         frontier corner points to print           (10)
    --frontier      print the full frontier as CSV on stdout
    --export P      write the frontier to P (.json report or CSV)
    --sim-check N   re-simulate N frontier corners and gate them

SERVE FLAGS (fosm serve — model-as-a-service daemon):
    --addr A          listen address            (127.0.0.1:0 = any port)
    --workers N       worker-pool threads       (all cores)
    --batch-window MS request-batching window   (2)
                      only requests that must compute wait for it;
                      memoized profiles are answered at once
    --port-file P     write the bound address to P
    --no-telemetry    disable per-request histograms + flight recorder
    Set FOSM_CACHE_DIR to persist profiles on disk across restarts
    (FOSM_CACHE_MAX_BYTES caps the cache size in bytes).
    FOSM_FLIGHT_CAP sets the flight-recorder ring size (default 256).

TOP FLAGS (fosm top — live daemon telemetry):
    --interval MS     refresh period in live mode        (1000)
    --once            print one snapshot and exit
    --json            print the raw schema-versioned telemetry JSON
                      body instead of the table (--once --json is the
                      CI-friendly form)

CLIENT ACTIONS (fosm client — one request per invocation):
    ping | stats | telemetry | shutdown
    profile | model      [--bench NAME] [--insts N] [--seed S]
                         [--probe full|ideal|branch|icache|dcache]
                         [machine flags]
    validate             [--bench NAME] [--insts N] [--seed S] [machine flags]
    explore              [--bench NAME] [--insts N] [--seed S]
                         [--widths L --windows L --robs L --depths L
                          --l2s L --mems L]
    --local executes the request in-process through the exact daemon
    code path (byte-identical output, no server needed).

LOADGEN FLAGS (fosm loadgen — daemon latency/throughput):
    --clients N       concurrent client connections      (8)
    --requests M      requests per client                (8)
    --insts N         trace length per request           (20000)
    --seed S          workload generator seed            (42)
    --verify          byte-compare every response to in-process execution
    --seq             also time the stream as sequential one-shot
                      subprocesses and report the daemon's speedup
    --min-speedup X   fail below X-fold speedup (with --seq)
    -o P              write BENCH_serve.json-format baseline to P
    --baseline P      compare against a committed baseline
    --check           exit non-zero on any >25% latency regression

TRACE FLAGS (fosm trace):
    --insts N     trace length                         (120000)
    --seed S      workload generator seed              (42)
    --top K       worst-attributed events to print     (10)
    --chrome P    write Chrome trace-event JSON to P (Perfetto-loadable)

EXTENSION FLAGS (paper §7 features):
    --prefetch N  next-line data prefetch lines      (profile, simulate)
    --tlb N       data TLB with N entries            (profile, simulate)
    --clusters K  K-cluster issue window             (simulate)
    --forward D   inter-cluster forwarding, cycles   (simulate; default 1)
    --fu          alpha-like functional-unit limits  (simulate)
    --buffer N    N-entry instruction fetch buffer   (simulate)
    --sample S --warmup W --period P   sampled profiling (profile)
    --probes LIST  comma list of probe variants profiled from ONE fused
                   trace replay (profile): full, ideal, branch, icache,
                   dcache — e.g. --probes full,ideal,branch; emits a
                   JSON array in list order"
    );
}

/// Opens a file for buffered reading with a contextual error.
pub(crate) fn open_in(path: &str) -> Result<BufReader<File>, String> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| format!("cannot open {path}: {e}"))
}

/// Opens a file for buffered writing with a contextual error.
pub(crate) fn open_out(path: &str) -> Result<BufWriter<File>, String> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| format!("cannot create {path}: {e}"))
}
