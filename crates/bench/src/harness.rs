//! Shared plumbing for the figure-regeneration binaries.

use fosm_core::model::{Estimate, FirstOrderModel};
use fosm_core::params::ProcessorParams;
use fosm_core::profile::{Probe, ProgramProfile};
use fosm_sim::MachineConfig;

/// Default dynamic trace length per benchmark. Override with the first
/// CLI argument of any figure binary.
pub const DEFAULT_TRACE_LEN: u64 = 300_000;

/// Seed used for every figure (fixed for reproducibility).
pub const SEED: u64 = 42;

/// Parsed command line shared by every figure binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    /// Dynamic trace length per benchmark (first positional argument).
    pub trace_len: u64,
    /// Worker threads for parallel sections (`--threads N`, then the
    /// `FOSM_THREADS` environment variable, then all available cores).
    pub threads: usize,
    /// Run-manifest destination (`--metrics <path>`); beats the
    /// `FOSM_METRICS` environment variable when present.
    pub metrics: Option<String>,
    /// Miss-event trace destination (`--trace <path>`); beats the
    /// `FOSM_TRACE` environment variable when present.
    pub trace: Option<String>,
    /// Extra diagnostic output (`-v`), for the binaries that have any.
    pub verbose: bool,
}

/// Parses the standard figure-binary command line:
///
/// ```text
/// <binary> [TRACE_LEN] [--threads N] [--metrics <path>] [--trace <path>] [-v]
/// ```
///
/// Anything else, or a value that does not parse, prints the error and
/// exits with status 2.
pub fn run_args() -> RunArgs {
    run_args_with_default(DEFAULT_TRACE_LEN)
}

/// Like [`run_args`], with a binary-specific default trace length.
pub fn run_args_with_default(default_len: u64) -> RunArgs {
    parse_args(
        std::env::args().skip(1),
        std::env::var("FOSM_THREADS").ok(),
        default_len,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn parse_args(
    mut args: impl Iterator<Item = String>,
    threads_env: Option<String>,
    default_len: u64,
) -> Result<RunArgs, String> {
    let mut trace_len = None;
    let mut threads: Option<usize> = None;
    let mut metrics: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut verbose = false;
    while let Some(arg) = args.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) if name.starts_with("--") => (name, Some(value.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| args.next().filter(|v| !v.starts_with("--")))
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match name {
            "--threads" => {
                let raw = value()?;
                let n = raw
                    .parse()
                    .map_err(|e| format!("bad --threads `{raw}`: {e}"))?;
                threads = Some(n);
            }
            "--metrics" => metrics = Some(value()?),
            "--trace" => trace = Some(value()?),
            "-v" => verbose = true,
            _ if trace_len.is_none() && !name.starts_with('-') => {
                let n = name
                    .parse()
                    .map_err(|e| format!("bad TRACE_LEN `{name}`: {e}"))?;
                trace_len = Some(n);
            }
            _ => {
                return Err(format!(
                    "unexpected argument `{arg}` (usage: [TRACE_LEN] [--threads N] \
                     [--metrics <path>] [--trace <path>] [-v])"
                ))
            }
        }
    }
    let threads = threads
        .or_else(|| threads_from_env(threads_env.filter(|v| !v.trim().is_empty())?))
        .unwrap_or_else(crate::par::available_threads)
        .max(1);
    Ok(RunArgs {
        trace_len: trace_len.unwrap_or(default_len),
        threads,
        metrics,
        trace,
        verbose,
    })
}

/// Parses a `FOSM_THREADS` value; a malformed one is reported on
/// stderr (once per process) and ignored.
fn threads_from_env(raw: String) -> Option<usize> {
    static WARNED: std::sync::Once = std::sync::Once::new();
    match raw.trim().parse() {
        Ok(n) => Some(n),
        Err(e) => {
            WARNED.call_once(|| {
                eprintln!("warning: ignoring FOSM_THREADS (`{raw}`: {e}); using all cores");
            });
            None
        }
    }
}

/// Opens the observability session for a figure binary: selects the
/// sink (a `--metrics <path>` flag beats `FOSM_METRICS`), stamps the
/// run configuration into the manifest metadata, and — when dropped at
/// the end of `main` — flushes the artifact-store counters, records
/// total wall-clock time, and emits the run manifest.
pub fn obs_session(binary: &'static str, args: &RunArgs) -> ObsSession {
    if let Some(path) = &args.metrics {
        fosm_obs::set_sink(fosm_obs::Sink::JsonFile(path.into()));
    }
    if let Some(path) = &args.trace {
        fosm_obs::tracer().enable_to(Some(path.into()));
    }
    fosm_obs::meta_set("binary", binary);
    fosm_obs::meta_set("seed", SEED);
    fosm_obs::meta_set("trace_len", args.trace_len);
    fosm_obs::meta_set("threads", args.threads);
    ObsSession {
        binary,
        start: std::time::Instant::now(),
    }
}

/// Guard returned by [`obs_session`]; emits the run manifest on drop.
#[must_use = "bind to a named local so the manifest is emitted at the end of main"]
pub struct ObsSession {
    binary: &'static str,
    start: std::time::Instant,
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        fosm_obs::flush_trace();
        let registry = fosm_obs::global();
        crate::store::ArtifactStore::global()
            .stats()
            .observe_into(registry);
        registry.gauge_set("wall_s", self.start.elapsed().as_secs_f64());
        fosm_obs::emit(self.binary);
    }
}

/// Evaluates the first-order model on a profile.
pub fn estimate(params: &ProcessorParams, profile: &ProgramProfile) -> Estimate {
    FirstOrderModel::new(params.clone())
        .evaluate(profile)
        .expect("model evaluation on a valid profile succeeds")
}

/// The model's [`ProcessorParams`] matching a simulator configuration.
pub fn params_of(config: &MachineConfig) -> ProcessorParams {
    ProcessorParams {
        width: config.width,
        win_size: config.win_size,
        rob_size: config.rob_size,
        pipe_depth: config.pipe_depth,
        l2_latency: config.l2_latency,
        mem_latency: config.mem_latency,
        latencies: config.latencies.clone(),
    }
}

/// The baseline simulator configuration with the structural fields and
/// latencies of `params` — the inverse of [`params_of`].
pub fn config_of(params: &ProcessorParams) -> MachineConfig {
    MachineConfig {
        width: params.width,
        win_size: params.win_size,
        rob_size: params.rob_size,
        pipe_depth: params.pipe_depth,
        l2_latency: params.l2_latency,
        mem_latency: params.mem_latency,
        latencies: params.latencies.clone(),
        ..MachineConfig::baseline()
    }
}

/// The profiling probe matching a simulator configuration: the same
/// cache hierarchy, branch predictor and data TLB, so a profile
/// collected under it feeds the model exactly the miss events that
/// machine sees.
pub fn probe_of(config: &MachineConfig, name: impl Into<String>) -> Probe {
    Probe {
        hierarchy: config.hierarchy,
        predictor: config.predictor,
        dtlb: config.dtlb,
        name: name.into(),
    }
}

/// Mean absolute relative error (in percent) across paired values.
pub fn mean_abs_error_pct(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let total: f64 = pairs
        .iter()
        .map(|(reference, value)| ((value - reference) / reference).abs())
        .sum();
    100.0 * total / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_of_round_trips_structural_fields() {
        let cfg = MachineConfig::baseline();
        let p = params_of(&cfg);
        assert_eq!(p.width, cfg.width);
        assert_eq!(p.rob_size, cfg.rob_size);
        assert_eq!(p.mem_latency, cfg.mem_latency);
        assert_eq!(config_of(&p), cfg);
        let wide = ProcessorParams::baseline()
            .with_width(8)
            .with_pipe_depth(12);
        assert_eq!(params_of(&config_of(&wide)), wide);
    }

    #[test]
    fn arg_parsing_variants() {
        let try_parse = |args: &[&str], env: Option<&str>| {
            parse_args(
                args.iter().map(|s| s.to_string()),
                env.map(String::from),
                DEFAULT_TRACE_LEN,
            )
        };
        let parse = |args: &[&str], env: Option<&str>| try_parse(args, env).unwrap();
        assert_eq!(parse(&[], None).trace_len, DEFAULT_TRACE_LEN);
        assert_eq!(parse(&["12345"], None).trace_len, 12_345);
        assert_eq!(parse(&["--threads", "3"], None).threads, 3);
        assert_eq!(
            parse(&["--threads=5", "777"], None),
            RunArgs {
                trace_len: 777,
                threads: 5,
                metrics: None,
                trace: None,
                verbose: false,
            }
        );
        assert_eq!(
            parse(&["--metrics", "out.json"], None).metrics.as_deref(),
            Some("out.json")
        );
        assert_eq!(
            parse(&["--metrics=m.json", "400"], None),
            RunArgs {
                trace_len: 400,
                threads: parse(&[], None).threads,
                metrics: Some("m.json".to_string()),
                trace: None,
                verbose: false,
            }
        );
        assert_eq!(
            parse(&["--trace", "t.json"], None).trace.as_deref(),
            Some("t.json")
        );
        assert_eq!(
            parse(&["--trace=x.json", "400"], None).trace.as_deref(),
            Some("x.json")
        );
        // CLI beats the environment; the environment beats detection.
        assert_eq!(parse(&["--threads", "2"], Some("9")).threads, 2);
        assert_eq!(parse(&[], Some("9")).threads, 9);
        // Degenerate values clamp to one worker.
        assert_eq!(parse(&["--threads", "0"], None).threads, 1);
        // An empty or malformed environment value falls back to detection.
        assert_eq!(parse(&[], Some("banana")).threads, parse(&[], None).threads);
        assert_eq!(parse(&[], Some(" ")).threads, parse(&[], None).threads);
        assert!(parse(&["-v", "400"], None).verbose);
        // Unknown flags, unparsable values and missing values are errors
        // that name the argument.
        for (args, needle) in [
            (&["--verbose", "400"][..], "`--verbose`"),
            (&["8k"], "TRACE_LEN `8k`"),
            (&["400", "500"], "`500`"),
            (&["--threads", "banana"], "--threads `banana`"),
            (&["--threads=x"], "--threads `x`"),
            (&["--metrics"], "--metrics needs a value"),
            (&["--trace", "--threads", "2"], "--trace needs a value"),
        ] {
            let err = try_parse(args, None).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn error_metric() {
        assert_eq!(mean_abs_error_pct(&[]), 0.0);
        let e = mean_abs_error_pct(&[(2.0, 2.2), (1.0, 0.9)]);
        assert!((e - 10.0).abs() < 1e-9);
    }
}
