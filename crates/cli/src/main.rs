//! `fosm` — command-line interface to the first-order model toolchain.
//!
//! ```text
//! fosm record  --bench gzip --insts 500000 --seed 42 -o gzip.fct
//! fosm stats   gzip.fct
//! fosm profile gzip.fct -o gzip-profile.json
//! fosm model   gzip-profile.json --width=8 --window 96
//! fosm simulate gzip.fct --depth 9
//! fosm help simulate
//! ```
//!
//! Each command declares its positionals and flags in one table,
//! `args::COMMANDS`, which both parses the command line strictly and
//! prints the help.
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = run(&argv);
    fosm_obs::flush_trace();
    fosm_obs::emit("fosm");
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(command) = argv.first() else {
        eprint!("{}", args::help(None)?);
        return Err("no command given".into());
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        print!("{}", args::help(argv.get(1).map(String::as_str))?);
        return Ok(());
    }
    if argv.iter().any(|arg| arg == "--help" || arg == "-h") {
        print!("{}", args::help(Some(command))?);
        return Ok(());
    }
    let (spec, rest) = args::lookup(argv)?;
    let args = args::Parsed::new(spec, rest)?;
    if let Some(path) = args.flag("metrics") {
        fosm_obs::set_sink(fosm_obs::Sink::JsonFile(path.into()));
    }
    let env_trace = || std::env::var("FOSM_TRACE").ok().filter(|p| !p.is_empty());
    if let Some(path) = args.flag("trace").map(String::from).or_else(env_trace) {
        let capacity = fosm_obs::trace_capacity(std::env::var("FOSM_TRACE_CAP").ok().as_deref());
        fosm_obs::enable_trace(path.into(), capacity);
    }
    fosm_obs::meta_set("command", command);
    let _span = fosm_obs::span(&format!("cli.{command}"));
    (spec.run)(args)
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
