//! The CLI subcommands.

use std::io::Write;
use std::sync::Arc;

use fosm_bench::harness::{config_of, probe_of};
use fosm_cache::{HierarchyConfig, TlbConfig};
use fosm_core::model::FirstOrderModel;
use fosm_core::params::ProcessorParams;
use fosm_core::profile::{Probe, ProbeBank, ProfileCollector, ProgramProfile, SamplingPlan};
use fosm_isa::FuPool;
use fosm_serve::service::{find_benchmark, render_estimate};
use fosm_sim::{ClusterConfig, FetchBufferConfig, Machine, MachineConfig, SimulationSet, Steering};
use fosm_trace::{CorpusFile, CorpusWriter, FileReplay, TraceStats};
use fosm_validate::ToleranceSpec;
use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};

use crate::args::Parsed;
use crate::{open_in, open_out};

/// The validated model parameters from the standard machine flags —
/// the same parse `fosm client` sends to the daemon.
fn machine_params(args: &Parsed) -> Result<ProcessorParams, String> {
    crate::serve_cmd::machine_spec(args)?.to_params()
}

/// Shared extension flags: `--prefetch N`, `--tlb ENTRIES`.
fn hierarchy_from(args: &Parsed) -> Result<HierarchyConfig, String> {
    let prefetch: u32 = args.get("prefetch")?.unwrap_or(0u32);
    Ok(HierarchyConfig::baseline().with_next_line_prefetch(prefetch))
}

fn tlb_from(args: &Parsed) -> Result<Option<TlbConfig>, String> {
    match args.get("tlb")?.unwrap_or(0u32) {
        0 => Ok(None),
        entries => {
            let tlb = TlbConfig {
                entries,
                ..TlbConfig::baseline()
            };
            tlb.validate().map_err(|e| e.to_string())?;
            Ok(Some(tlb))
        }
    }
}

/// `fosm record`: writes a `FOSMTRC1` trace file (see DESIGN.md for
/// the format), the one on-disk trace format every other command reads.
pub fn record(args: Parsed) -> Result<(), String> {
    let bench = args.flag("bench").ok_or("--bench <name> is required")?;
    let spec = find_benchmark(bench)?;
    let insts: u64 = args.get("insts")?.unwrap_or(500_000u64);
    let seed: u64 = args.get("seed")?.unwrap_or(42u64);
    let out = args.flag("out").ok_or("-o <trace.fct> is required")?;

    let mut generator = WorkloadGenerator::new(&spec, seed);
    let mut writer = CorpusWriter::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let written = writer
        .append_source(&mut generator, insts)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    let summary = writer
        .finish()
        .map_err(|e| format!("cannot finish {out}: {e}"))?;
    println!(
        "wrote {written} instructions of `{bench}` (seed {seed}) to {out} \
         ({} bytes, digest {:016x})",
        summary.file_bytes, summary.digest
    );
    Ok(())
}

/// Opens and header-validates a `FOSMTRC1` trace file.
fn open_trace(path: &str) -> Result<CorpusFile, String> {
    CorpusFile::open(path).map_err(|e| format!("{path}: {e}"))
}

/// Runs `f` over a paged replay of `corpus`, then surfaces the read or
/// decode error that ended the replay early, if any.
fn with_replay<T>(
    path: &str,
    corpus: &CorpusFile,
    f: impl FnOnce(&mut FileReplay<'_>) -> T,
) -> Result<T, String> {
    let mut replay = corpus.replay();
    let out = f(&mut replay);
    match replay.take_error() {
        Some(e) => Err(format!("{path}: {e}")),
        None => Ok(out),
    }
}

pub fn corpus_info(args: Parsed) -> Result<(), String> {
    let path = args.positional(0);
    let corpus = open_trace(path)?;
    println!(
        "{path}: {} instructions ({} mem records, {} branch records)",
        corpus.len(),
        corpus.mem_records(),
        corpus.branch_records()
    );
    println!(
        "  {} bytes on disk, digest {:016x}",
        corpus.file_bytes(),
        corpus.digest()
    );
    for (i, s) in corpus.sections().iter().enumerate() {
        println!(
            "  section {:<15} offset {:>12} len {:>12} checksum {:016x}",
            CorpusFile::section_name(i),
            s.offset,
            s.byte_len,
            s.checksum
        );
    }
    Ok(())
}

/// `fosm corpus verify`: re-reads every section and checks its
/// checksum; exits non-zero on any corruption.
pub fn corpus_verify(args: Parsed) -> Result<(), String> {
    let path = args.positional(0);
    let corpus = open_trace(path)?;
    corpus.verify().map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: OK ({} instructions, digest {:016x})",
        corpus.len(),
        corpus.digest()
    );
    Ok(())
}

pub fn stats(args: Parsed) -> Result<(), String> {
    let path = args.positional(0);
    let corpus = open_trace(path)?;
    let stats = with_replay(path, &corpus, |replay| {
        TraceStats::from_source(replay, usize::MAX)
    })?;
    println!("{path}: {} instructions", stats.instructions());
    println!(
        "  conditional branches: {} ({:.1}% of instructions, {:.1}% taken)",
        stats.cond_branches(),
        stats.branch_fraction() * 100.0,
        stats.taken_fraction() * 100.0
    );
    println!("  loads: {:.1}%", stats.load_fraction() * 100.0);
    println!(
        "  mean dependence distance: {:.1} instructions",
        stats.dependences().mean()
    );
    println!(
        "  operands within 4 insts of their producer: {:.1}%",
        stats.dependences().cumulative(4) * 100.0
    );
    Ok(())
}

/// Parses the per-invocation machine setup (params plus the full
/// machine with the `--prefetch`/`--tlb` extensions) exactly once; every
/// `--probes` variant derives from this single parse. The counter lets
/// the regression tests pin the one-parse-per-invocation contract.
fn machine_setup(args: &Parsed) -> Result<(ProcessorParams, MachineConfig), String> {
    fosm_obs::counter_add("cli.profile.config_loads", 1);
    let params = machine_params(args)?;
    let config = MachineConfig {
        hierarchy: hierarchy_from(args)?,
        dtlb: tlb_from(args)?,
        ..config_of(&params)
    };
    Ok((params, config))
}

/// `fosm profile`: a full profile goes through the artifact store's
/// corpus path (paged replay, the resulting profiles persisted when
/// `FOSM_CACHE_DIR` is set); a sampled one runs the collector directly
/// on a paged replay of the file.
pub fn profile(args: Parsed) -> Result<(), String> {
    let path = args.positional(0);
    let (params, config) = machine_setup(&args)?;
    let plan = match args.get::<u64>("sample")? {
        Some(sample) => Some(SamplingPlan {
            sample,
            warmup: args.get("warmup")?.unwrap_or(0),
            period: args.get("period")?.unwrap_or(10 * sample),
        }),
        None => None,
    };
    let corpus = open_trace(path)?;

    // One fused replay profiles every requested simulation set at once.
    let probe = |name: &str| -> Result<Probe, String> {
        let set = SimulationSet::parse(name)?;
        Ok(probe_of(
            &config.simulation_set(set),
            format!("{path}:{name}"),
        ))
    };
    let bank: ProbeBank = args
        .list("probes", vec![probe_of(&config, path)], probe)?
        .into();
    let profiles: Vec<Arc<ProgramProfile>> = match plan {
        None => fosm_bench::store::ArtifactStore::global()
            .profile_many_corpus(&params, &bank, &corpus)
            .map_err(|e| format!("{path}: {e}"))?,
        Some(plan) => with_replay(path, &corpus, |replay| {
            ProfileCollector::new(&params).collect_many_sampled(replay, &bank, plan, u64::MAX)
        })?
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(Arc::new)
        .collect(),
    };

    let out = args.flag("out");
    if args.flag("probes").is_some() {
        let rendered: Vec<&ProgramProfile> = profiles.iter().map(|p| &**p).collect();
        write_json(out, &rendered)?;
        if let Some(out) = out {
            println!(
                "wrote {} fused profiles ({} instructions each) to {out}",
                rendered.len(),
                rendered.first().map_or(0, |p| p.instructions)
            );
        }
    } else {
        let profile = &*profiles[0];
        write_json(out, profile)?;
        if let Some(out) = out {
            println!(
                "wrote profile of {} instructions to {out}",
                profile.instructions
            );
        }
    }
    Ok(())
}

/// Pretty-prints `value` as JSON to the file `out`, or to stdout
/// (newline-terminated) when no `-o` was given.
fn write_json<T: serde::Serialize + ?Sized>(out: Option<&str>, value: &T) -> Result<(), String> {
    match out {
        Some(out) => {
            let mut file = open_out(out)?;
            serde_json::to_writer_pretty(&mut file, value).map_err(|e| e.to_string())?;
            file.flush().map_err(|e| format!("cannot write {out}: {e}"))
        }
        None => {
            serde_json::to_writer_pretty(std::io::stdout().lock(), value)
                .map_err(|e| e.to_string())?;
            println!();
            Ok(())
        }
    }
}

pub fn model(args: Parsed) -> Result<(), String> {
    let path = args.positional(0);
    let params = machine_params(&args)?;
    let profile: ProgramProfile =
        serde_json::from_reader(open_in(path)?).map_err(|e| format!("{path}: {e}"))?;
    let est = FirstOrderModel::new(params)
        .evaluate(&profile)
        .map_err(|e| e.to_string())?;
    print!("{}", render_estimate(&profile.name, &est));
    Ok(())
}

pub fn simulate(args: Parsed) -> Result<(), String> {
    let path = args.positional(0);
    let mut config = config_of(&machine_params(&args)?);
    if args.has("ideal") {
        config = config.simulation_set(SimulationSet::Ideal);
    } else {
        config.hierarchy = hierarchy_from(&args)?;
    }
    if let Some(tlb) = tlb_from(&args)? {
        config = config.with_dtlb(tlb);
    }
    match args.get("clusters")?.unwrap_or(0u32) {
        0 | 1 => {}
        clusters => {
            config = config.with_clusters(ClusterConfig {
                clusters,
                forward_delay: args.get("forward")?.unwrap_or(1u32),
                steering: Steering::Dependence,
            });
        }
    }
    if args.has("fu") {
        config = config.with_fu_limits(FuPool::alpha_like());
    }
    if let Some(entries) = args.get::<u32>("buffer")? {
        let bandwidth = 2 * config.width.max(4);
        config = config.with_fetch_buffer(FetchBufferConfig { entries, bandwidth });
    }
    config.validate()?;
    let mut machine = Machine::try_new(config)?;
    let corpus = open_trace(path)?;
    let report = with_replay(path, &corpus, |replay| {
        if fosm_obs::trace_enabled() {
            let (report, events) = machine.run_traced(replay);
            fosm_obs::publish_events(&events);
            report
        } else {
            machine.run(replay)
        }
    })?;
    println!(
        "simulated {} instructions in {} cycles",
        report.instructions, report.cycles
    );
    println!("  IPC {:.3}   CPI {:.3}", report.ipc(), report.cpi());
    println!(
        "  mispredicts {} ({:.1}% of {} branches)",
        report.mispredicts,
        report.mispredict_rate() * 100.0,
        report.cond_branches
    );
    println!(
        "  icache misses {} short / {} long; dcache {} short / {} long",
        report.icache_short_misses,
        report.icache_long_misses,
        report.dcache_short_misses,
        report.dcache_long_misses
    );
    Ok(())
}

pub fn bench_list(_: Parsed) -> Result<(), String> {
    println!("built-in synthetic benchmarks (SPECint2000-like):");
    for spec in BenchmarkSpec::all() {
        println!(
            "  {:<8} dep(chain {:.2}, free {:.2})  footprint {:>5} KiB  funcs {}",
            spec.name,
            spec.dep_chain_p,
            spec.no_dep_p,
            spec.data_footprint / 1024,
            spec.num_functions
        );
    }
    Ok(())
}

/// Loads the gate tolerance bands (committed baseline file or the
/// built-in gate) exactly once per invocation. The counter lets the
/// regression tests pin the one-parse-per-invocation contract.
fn tolerance_from(args: &Parsed) -> Result<ToleranceSpec, String> {
    fosm_obs::counter_add("cli.validate.tolerance_loads", 1);
    match args.flag("baseline") {
        Some(path) => {
            let json = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read tolerance baseline {path}: {e}"))?;
            serde_json::from_str::<ToleranceSpec>(&json)
                .map_err(|e| format!("malformed tolerance baseline {path}: {e}"))
        }
        None => Ok(ToleranceSpec::gate()),
    }
}

/// `fosm validate`: runs the differential validation harness, the
/// analytical model against the detailed simulator's idealization
/// variants on identical inputs, gating each CPI component against
/// tolerance bands.
pub fn validate(args: Parsed) -> Result<(), String> {
    let params = machine_params(&args)?;
    let config = config_of(&params);
    config.validate()?;
    let insts: u64 = args.get("insts")?.unwrap_or(120_000u64);
    let seed: u64 = args.get("seed")?.unwrap_or(42u64);
    let threads: usize = args
        .get("threads")?
        .unwrap_or_else(fosm_bench::par::available_threads)
        .max(1);
    let store = fosm_bench::store::ArtifactStore::global();
    // `--fuzz-repro` replays one fuzz case, as a failing fuzz run
    // prints it.
    if let Some(json) = args.flag("fuzz-repro") {
        let case: fosm_validate::FuzzCase =
            serde_json::from_str(json).map_err(|e| format!("malformed fuzz case: {e}"))?;
        fosm_validate::fuzz::check(store, &case, insts, &ToleranceSpec::fuzz())
            .map_err(|reason| format!("case fails: {reason}"))?;
        println!("case passes all invariants: {case:?}");
        return Ok(());
    }

    // Tolerances: the fuzzer's, or the committed baseline file (or the
    // built-in gate), then ad-hoc `--tol` overrides on top. A fuzz run
    // never pays for (or fails on) a baseline parse it does not use.
    let fuzz: Option<u64> = args.get("fuzz")?;
    let mut tol = match fuzz {
        Some(_) => ToleranceSpec::fuzz(),
        None => tolerance_from(&args)?,
    };
    if let Some(overrides) = args.flag("tol") {
        tol.apply_overrides(overrides)?;
    }
    if let Some(cases) = fuzz {
        return run_fuzz(store, &args, cases, insts, tol);
    }

    // Corpus-file workloads: validate each listed `FOSMTRC1` file
    // against the same machine configuration, sharded across the same
    // worker pool as the synthetic sweep.
    if args.has("corpus") {
        let paths = args.list("corpus", vec![], str::parse::<std::path::PathBuf>)?;
        let results =
            fosm_validate::differential::corpus_sweep(store, &config, &paths, &tol, threads)
                .map_err(|e| format!("corpus validation sweep failed: {e}"))?;
        let report = fosm_validate::ValidationReport::new(insts, seed, tol, results);
        report.observe_into(fosm_obs::global());
        return finish_validation(&args, &report);
    }

    let cases = match args.flag("bench") {
        Some(name) => vec![fosm_validate::CaseSpec {
            config: config.clone(),
            bench: find_benchmark(name)?,
            trace_len: insts,
            seed,
        }],
        None => fosm_validate::CaseSpec::suite(&config, insts, seed),
    };
    let options = fosm_validate::differential::SweepOptions {
        threads,
        statsim: args.has("statsim"),
    };
    let results = fosm_validate::differential::sweep(store, &cases, &tol, options)
        .map_err(|e| format!("validation sweep failed: {e}"))?;
    let report = fosm_validate::ValidationReport::new(insts, seed, tol, results);
    report.observe_into(fosm_obs::global());
    finish_validation(&args, &report)
}

/// The shared tail of `fosm validate`: renders the table, writes the
/// optional JSON report, and applies `--check` gate semantics. Used by
/// both the synthetic sweep and the corpus-file sweep.
fn finish_validation(
    args: &Parsed,
    report: &fosm_validate::ValidationReport,
) -> Result<(), String> {
    print!("{}", report.render_table());
    if args.has("statsim") {
        print_statsim_comparison(report);
    }
    if let Some(path) = args.flag("report") {
        let json = report.to_json().map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("cannot write report {path}: {e}"))?;
        println!("report written to {path}");
    }
    if args.has("check") && !report.passed() {
        let violations = report.violations();
        for v in &violations {
            eprintln!(
                "VIOLATION {}/{}: model {:.4} vs sim {:.4} (allowed ±{:.4})",
                v.bench,
                v.component.name(),
                v.model,
                v.sim,
                v.allowed
            );
        }
        // Attach the per-event error histogram so a failing gate names
        // the event class behind the residual, not just the component.
        let summary = report.render_event_summary();
        if !summary.is_empty() {
            eprintln!("\n{summary}");
        }
        return Err(format!(
            "accuracy gate failed: {} component(s) outside tolerance",
            violations.len()
        ));
    }
    Ok(())
}

fn run_fuzz(
    store: &fosm_bench::store::ArtifactStore,
    args: &Parsed,
    cases: u64,
    insts: u64,
    tol: ToleranceSpec,
) -> Result<(), String> {
    let fuzz_seed: u64 = args.get("fuzz-seed")?.unwrap_or(0xF05Au64);
    println!(
        "fuzzing {cases} random machine/workload draws ({insts} insts each, seed {fuzz_seed:#x})"
    );
    match fosm_validate::fuzz::run(store, cases, insts, fuzz_seed, &tol) {
        fosm_validate::FuzzOutcome::Clean { cases } => {
            println!("fuzz clean: {cases} cases within invariants");
            Ok(())
        }
        fosm_validate::FuzzOutcome::Failed(failure) => {
            eprintln!(
                "fuzz failure after {} passing case(s): {}",
                failure.cases_passed, failure.reason
            );
            eprintln!("  original: {:?}", failure.case);
            eprintln!("  shrunk:   {:?}", failure.shrunk);
            eprintln!(
                "  reproduce with: fosm validate --fuzz-repro '{}'",
                serde_json::to_string(&failure.shrunk).map_err(|e| e.to_string())?
            );
            Err("differential fuzzing found an invariant violation".into())
        }
    }
}

/// `fosm trace`: runs the detailed simulator with event tracing on one
/// synthetic workload, prices every traced miss event with the
/// analytical model's per-event penalties, and prints the per-class
/// error histogram plus a top-K table of worst-attributed events.
pub fn trace(args: Parsed) -> Result<(), String> {
    let bench = args.positional(0);
    let spec = find_benchmark(bench)?;
    let params = machine_params(&args)?;
    let config = config_of(&params);
    config.validate()?;
    let insts: u64 = args.get("insts")?.unwrap_or(120_000u64);
    let seed: u64 = args.get("seed")?.unwrap_or(42u64);
    let top: usize = args.get("top")?.unwrap_or(10usize);

    // The traced simulation and the profile replay the trace held here.
    let store = fosm_bench::store::ArtifactStore::global();
    let _trace = store.trace(&spec, insts, seed);
    let traced = store.simulate_traced(&config, &spec, insts, seed);
    let (report, events) = &*traced;
    let profile = store
        .profile_with(
            &params,
            &config.hierarchy,
            config.predictor,
            &spec.name,
            &spec,
            insts,
            seed,
        )
        .map_err(|e| format!("profile collection failed: {e}"))?;
    let (est, penalties) = FirstOrderModel::new(params.clone())
        .event_penalties(&profile)
        .map_err(|e| e.to_string())?;
    let diffs = fosm_validate::events::diff(events, &penalties, &profile, &params);

    println!(
        "traced `{}`: {} instructions, {} cycles (sim CPI {:.4}, model CPI {:.4})",
        spec.name,
        report.instructions,
        report.cycles,
        report.cpi(),
        est.total_cpi()
    );
    print!("{}", fosm_validate::events::render(&diffs));

    // The per-class model CPIs are the estimate's adders re-expressed
    // per event, so this reconciles exactly; it is printed as the
    // visible contract with `fosm validate`'s aggregate rows.
    let per_class: f64 = diffs.iter().map(|d| d.model_cpi).sum();
    let adders = est.total_cpi() - est.steady_state_cpi - est.dtlb_cpi;
    println!(
        "\nreconciliation: per-class model CPI {per_class:.6} vs aggregate adders {adders:.6} \
         (|Δ| {:.2e})",
        (per_class - adders).abs()
    );

    let mut worst: Vec<fosm_obs::TraceEvent> = events
        .iter()
        .filter(|e| e.kind != fosm_obs::EventKind::IntervalBoundary)
        .map(|e| e.annotate(penalties.for_event(e, &params)))
        .collect();
    worst.sort_by(|a, b| {
        let score = |e: &fosm_obs::TraceEvent| (e.extent() as f64 - e.predicted).abs();
        score(b)
            .total_cmp(&score(a))
            .then(a.sort_key().cmp(&b.sort_key()))
    });
    println!(
        "\ntop {} worst-attributed events (|sim extent − predicted| cycles):",
        top.min(worst.len())
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>8} {:>10} {:>8}",
        "event", "inst", "start", "end", "extent", "predicted", "error"
    );
    for e in worst.iter().take(top) {
        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>8} {:>10.1} {:>+8.1}",
            e.kind.name(),
            e.inst,
            e.start,
            e.end,
            e.extent(),
            e.predicted,
            e.extent() as f64 - e.predicted
        );
    }

    if let Some(path) = args.flag("chrome") {
        let annotated: Vec<fosm_obs::TraceEvent> = events
            .iter()
            .map(|e| e.annotate(penalties.for_event(e, &params)))
            .collect();
        fosm_obs::chrome::write_to(std::path::Path::new(path), &annotated, 0)
            .map_err(|e| format!("cannot write chrome trace {path}: {e}"))?;
        println!(
            "\nchrome trace written to {path} ({} events)",
            annotated.len()
        );
    }
    Ok(())
}

/// `fosm metrics diff`: compares two run manifests written via
/// `--metrics`/`FOSM_METRICS`: counter deltas, gauge deltas, span
/// `total_ns` ratios, and histogram summaries (`count`/`p50`/`p99` per
/// histogram). Growth beyond `--max-regress` in a counter, span timing
/// or histogram quantile fails the run; gauges, histogram counts and
/// `*_ns` counters are informational (serving more requests is not
/// slower, and a `*_ns` counter is a wall-clock total, such as a fused
/// pass's stage times, that differs between identical runs).
pub fn metrics_diff(args: Parsed) -> Result<(), String> {
    let a = load_manifest(args.positional(0))?;
    let b = load_manifest(args.positional(1))?;
    let max_regress: Option<f64> = args.get("max-regress")?;

    let mut regressions: Vec<String> = Vec::new();
    let mut changed = 0usize;
    for (section, heading, fields) in [
        ("counters", "counters:", &[][..]),
        ("gauges", "gauges:", &[]),
        ("spans", "spans (total_ns):", &["total_ns"]),
        ("hists", "hists (count/p50/p99):", &["count", "p50", "p99"]),
    ] {
        let rows = merged_numbers(numbers(&a, section, fields), numbers(&b, section, fields));
        if !rows.is_empty() {
            println!("{heading}");
        }
        for (key, va, vb) in rows.into_iter().filter(|(_, va, vb)| va != vb) {
            changed += 1;
            let pct = if va != 0.0 {
                100.0 * (vb - va) / va
            } else {
                f64::INFINITY
            };
            let ratio = match section {
                "spans" => format!(" (x{:.2})", if va != 0.0 { vb / va } else { f64::INFINITY }),
                _ => String::new(),
            };
            match section {
                "spans" => println!("  {key:<40} {va:>14} -> {vb:<14}{ratio}"),
                _ => println!("  {key:<40} {va:>14} -> {vb:<14} ({pct:+.1}%)"),
            }
            let gated = match section {
                "gauges" => false,
                "counters" => !key.ends_with("_ns"),
                "hists" => key.ends_with(".p50") || key.ends_with(".p99"),
                _ => true,
            };
            if gated && vb > va && exceeds(pct, max_regress) {
                regressions.push(format!("{section}.{key} grew {pct:+.1}%{ratio}"));
            }
        }
    }
    if changed == 0 {
        println!("no differences in counters, gauges, span totals, or hists");
    }
    if !regressions.is_empty() {
        for r in &regressions {
            eprintln!("REGRESSION {r}");
        }
        return Err(format!(
            "{} regression(s) above --max-regress {}%",
            regressions.len(),
            max_regress.unwrap_or(0.0)
        ));
    }
    Ok(())
}

fn exceeds(pct: f64, max_regress: Option<f64>) -> bool {
    matches!(max_regress, Some(max) if pct > max)
}

/// Parses the last manifest line of a `--metrics` output file (the
/// JSON sink writes one manifest per line; the last one wins).
fn load_manifest(path: &str) -> Result<serde::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{path}: empty manifest file"))?;
    serde_json::from_str(line).map_err(|e| format!("{path}: {e}"))
}

/// Flattens one manifest section into `(key, number)` rows: with no
/// `fields`, the section's own numbers (`counters`, `gauges`); with one
/// field, that field of each entry (`spans`' `total_ns`); with several,
/// each of them, keyed `{entry}.{field}` (`hists`' summaries).
fn numbers(manifest: &serde::Value, section: &str, fields: &[&str]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(serde::Value::Map(entries)) = manifest.get(section) else {
        return out;
    };
    for (key, value) in entries {
        let cells: Vec<(String, Option<&serde::Value>)> = match fields {
            [] => vec![(key.clone(), Some(value))],
            [field] => vec![(key.clone(), value.get(field))],
            _ => fields
                .iter()
                .map(|f| (format!("{key}.{f}"), value.get(f)))
                .collect(),
        };
        for (name, cell) in cells {
            if let Some(serde::Value::Num(raw)) = cell {
                if let Ok(v) = raw.parse() {
                    out.push((name, v));
                }
            }
        }
    }
    out
}

/// Key-unions two `(name, value)` lists; a missing side reads as 0.
fn merged_numbers(a: Vec<(String, f64)>, b: Vec<(String, f64)>) -> Vec<(String, f64, f64)> {
    let mut keys: Vec<&String> = a
        .iter()
        .map(|(k, _)| k)
        .chain(b.iter().map(|(k, _)| k))
        .collect();
    keys.sort();
    keys.dedup();
    let find = |list: &[(String, f64)], key: &str| {
        list.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    keys.iter()
        .map(|k| (k.to_string(), find(&a, k), find(&b, k)))
        .collect()
}

fn print_statsim_comparison(report: &fosm_validate::ValidationReport) {
    use fosm_validate::Component;
    println!("\nrelated-work baseline (statistical simulation) on the same inputs:");
    println!(
        "{:<8} {:>8} {:>9} {:>7} {:>9} {:>7}",
        "bench", "sim CPI", "stat CPI", "err%", "model CPI", "err%"
    );
    let mut stat_pairs = Vec::new();
    let mut model_pairs = Vec::new();
    for case in &report.cases {
        let Some(stat_cpi) = case.statsim_cpi else {
            continue;
        };
        let total = case.row(Component::Total);
        println!(
            "{:<8} {:>8.3} {:>9.3} {:>6.1}% {:>9.3} {:>6.1}%",
            case.bench,
            total.sim,
            stat_cpi,
            100.0 * (stat_cpi - total.sim) / total.sim,
            total.model,
            total.error_pct()
        );
        stat_pairs.push((total.sim, stat_cpi));
        model_pairs.push((total.sim, total.model));
    }
    println!(
        "\navg |error|: statistical simulation {:.1}%, first-order model {:.1}%",
        fosm_bench::harness::mean_abs_error_pct(&stat_pairs),
        fosm_bench::harness::mean_abs_error_pct(&model_pairs)
    );
}

// ---------------------------------------------------------------------
// `fosm explore` — design-space exploration over the batched model.
// ---------------------------------------------------------------------

/// Builds the machine grid from the plural axis flags, defaulting every
/// unspecified axis to the baseline sweep, and validates it once —
/// the streaming evaluator itself has no `Result` in the hot path.
fn grid_from(args: &Parsed) -> Result<fosm_explore::MachineGrid, String> {
    let base = fosm_explore::MachineGrid::baseline_sweep();
    let grid = fosm_explore::MachineGrid {
        widths: args.list("widths", base.widths, str::parse)?,
        win_sizes: args.list("windows", base.win_sizes, str::parse)?,
        rob_sizes: args.list("robs", base.rob_sizes, str::parse)?,
        pipe_depths: args.list("depths", base.pipe_depths, str::parse)?,
        l2_latencies: args.list("l2s", base.l2_latencies, str::parse)?,
        mem_latencies: args.list("mems", base.mem_latencies, str::parse)?,
    };
    grid.validate().map_err(|e| e.to_string())?;
    Ok(grid)
}

/// Builds the hardware axes (`--icaches`/`--dcaches` geometry lists,
/// `--predictors` labels) and validates them once.
fn hardware_axes_from(args: &Parsed) -> Result<fosm_explore::HardwareAxes, String> {
    let base = fosm_explore::HardwareAxes::baseline_only();
    let geometry = fosm_explore::CacheGeometry::parse;
    let axes = fosm_explore::HardwareAxes {
        icaches: args.list("icaches", base.icaches, geometry)?,
        dcaches: args.list("dcaches", base.dcaches, geometry)?,
        predictors: args.list("predictors", base.predictors, fosm_explore::parse_predictor)?,
    };
    axes.validate().map_err(|e| e.to_string())?;
    Ok(axes)
}

/// A compact `icache/dcache/predictor` label for one hardware variant.
fn variant_label(v: &fosm_explore::HardwareVariant) -> String {
    format!(
        "{}/{}/{}",
        v.icache,
        v.dcache,
        fosm_explore::predictor_label(v.predictor)
    )
}

/// The cache hierarchy a hardware variant's profiles are collected
/// with (and its corner points simulated with).
fn variant_hierarchy(v: &fosm_explore::HardwareVariant) -> Result<HierarchyConfig, String> {
    Ok(HierarchyConfig {
        l1i: Some(v.icache.to_config().map_err(|e| e.to_string())?),
        l1d: Some(v.dcache.to_config().map_err(|e| e.to_string())?),
        ..HierarchyConfig::baseline()
    })
}

/// The full simulator machine a frontier point corresponds to, for
/// `--sim-check` re-simulation.
fn corner_config(
    point: &fosm_explore::DesignPoint,
    variants: &[fosm_explore::HardwareVariant],
) -> Result<MachineConfig, String> {
    let variant = &variants[point.variant as usize];
    let config = MachineConfig {
        width: point.config.width,
        win_size: point.config.win_size,
        rob_size: point.config.rob_size,
        pipe_depth: point.config.pipe_depth,
        l2_latency: point.config.l2_latency,
        mem_latency: point.config.mem_latency,
        hierarchy: variant_hierarchy(variant)?,
        predictor: variant.predictor,
        ..MachineConfig::baseline()
    };
    config.validate()?;
    Ok(config)
}

/// `fosm explore`: sweeps the machine grid for every (workload,
/// hardware-variant) pair through the batched evaluator and prints the
/// global Pareto frontier of IPC against the area/energy proxy. Timing
/// goes to stderr only, so stdout is byte-identical across `--threads`.
pub fn explore(args: Parsed) -> Result<(), String> {
    let grid = grid_from(&args)?;
    let axes = hardware_axes_from(&args)?;
    let insts: u64 = args.get("insts")?.unwrap_or(120_000u64);
    let seed: u64 = args.get("seed")?.unwrap_or(42u64);
    let threads: usize = args
        .get("threads")?
        .unwrap_or_else(fosm_bench::par::available_threads)
        .max(1);
    let top: usize = args.get("top")?.unwrap_or(10usize);

    let specs: Vec<BenchmarkSpec> = match args.flag("bench") {
        None => vec![BenchmarkSpec::gzip()],
        Some("all") => BenchmarkSpec::all(),
        Some(name) => vec![find_benchmark(name)?],
    };
    let workload_names: Vec<String> = specs.iter().map(|s| s.name.to_string()).collect();
    let variants = axes.variants();
    let variant_labels: Vec<String> = variants.iter().map(variant_label).collect();
    let variant_setups = variants
        .iter()
        .map(variant_hierarchy)
        .collect::<Result<Vec<_>, _>>()?;

    // One fused replay per workload profiles every hardware variant at
    // once; the memoizing store shares traces across invocations.
    let store = fosm_bench::store::ArtifactStore::global();
    let params = ProcessorParams::baseline();
    let profiles = fosm_bench::par::par_map(&specs, threads, |spec| {
        let bank: ProbeBank = variants
            .iter()
            .enumerate()
            .map(|(v, variant)| {
                Probe::new(format!("{}:{}", spec.name, variant_labels[v]))
                    .with_hierarchy(variant_setups[v])
                    .with_predictor(variant.predictor)
            })
            .collect::<Vec<Probe>>()
            .into();
        store
            .profile_many(&params, &bank, spec, insts, seed)
            .map_err(|e| e.to_string())
    })
    .into_iter()
    .collect::<Result<Vec<_>, String>>()?;

    // The model sweep itself: one shard per (workload, variant) pair,
    // order-preserving fan-out so the merge is deterministic.
    let mut shard_inputs = Vec::new();
    for (w, per_variant) in profiles.iter().enumerate() {
        for (v, profile) in per_variant.iter().enumerate() {
            let tag = fosm_explore::ShardTag {
                workload: w as u32,
                variant: v as u32,
            };
            shard_inputs.push((tag, profile.clone()));
        }
    }
    let model = FirstOrderModel::new(params.clone());
    let t0 = std::time::Instant::now();
    let shards = fosm_bench::par::par_map(&shard_inputs, threads, |(tag, profile)| {
        fosm_explore::sweep_profile(
            &model,
            profile,
            &grid,
            &variants[tag.variant as usize],
            *tag,
        )
        .map_err(|e| e.to_string())
    })
    .into_iter()
    .collect::<Result<Vec<_>, String>>()?;
    let elapsed = t0.elapsed().as_secs_f64();
    let configs: u64 = shards.iter().map(|s| s.configs).sum();
    // Timing is machine-dependent: stderr only, never in the report.
    eprintln!(
        "evaluated {configs} configs in {elapsed:.3}s ({:.2}M evals/sec)",
        configs as f64 / elapsed / 1e6
    );

    let frontier = fosm_explore::merge_frontiers(&shards);
    println!(
        "explored {configs} configs: {} workload(s) x {} hardware variant(s) x {} grid points",
        specs.len(),
        variants.len(),
        grid.len()
    );
    println!("pareto frontier: {} point(s)", frontier.len());

    let corner_rows = fosm_explore::frontier_rows(
        &frontier.corners(top.min(frontier.len())),
        &workload_names,
        &variants,
    );
    println!(
        "{:<8} {:>5} {:>6} {:>5} {:>5} {:>4} {:>5} {:>8} {:>9}  {:<10} {:<10} predictor",
        "bench", "width", "window", "rob", "depth", "l2", "mem", "ipc", "cost", "icache", "dcache"
    );
    for r in &corner_rows {
        println!(
            "{:<8} {:>5} {:>6} {:>5} {:>5} {:>4} {:>5} {:>8.4} {:>9.2}  {:<10} {:<10} {}",
            r.workload,
            r.width,
            r.window,
            r.rob,
            r.depth,
            r.l2,
            r.mem,
            r.ipc,
            r.cost,
            r.icache,
            r.dcache,
            r.predictor
        );
    }

    let all_rows = || fosm_explore::frontier_rows(frontier.points(), &workload_names, &variants);
    if args.has("frontier") {
        print!("{}", fosm_explore::frontier_csv(&all_rows()));
    }
    if let Some(path) = args.flag("export") {
        let rows = all_rows();
        let rendered = if path.ends_with(".json") {
            fosm_explore::report_json(&fosm_explore::ExploreReport {
                schema_version: fosm_explore::SCHEMA_VERSION,
                configs,
                workloads: workload_names.clone(),
                variants: variant_labels.clone(),
                frontier: rows,
            })
        } else {
            fosm_explore::frontier_csv(&rows)
        };
        std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("frontier written to {path}");
    }

    let sim_check: usize = args.get("sim-check")?.unwrap_or(0usize);
    if sim_check > 0 {
        let mut corners = Vec::new();
        for point in frontier.corners(sim_check) {
            let c = &point.config;
            corners.push(fosm_validate::CornerSpec {
                label: format!(
                    "{} w{}/win{}/rob{}/d{}/l2-{}/mem{}",
                    workload_names[point.workload as usize],
                    c.width,
                    c.win_size,
                    c.rob_size,
                    c.pipe_depth,
                    c.l2_latency,
                    c.mem_latency
                ),
                config: corner_config(&point, &variants)?,
                bench: specs[point.workload as usize].clone(),
            });
        }
        let results = fosm_validate::check_corners(
            store,
            &corners,
            insts,
            seed,
            &ToleranceSpec::fuzz(),
            threads,
        )
        .map_err(|e| format!("sim-check failed to run: {e}"))?;
        let mut failed = 0usize;
        for r in &results {
            let total = r.result.row(fosm_validate::Component::Total);
            let status = if r.passed() {
                "ok"
            } else {
                failed += 1;
                "FAIL"
            };
            println!(
                "sim-check {}: {status} (model {:.4} vs sim {:.4} CPI)",
                r.label, total.model, total.sim
            );
        }
        if failed > 0 {
            return Err(format!(
                "sim-check: {failed} of {} corner(s) outside tolerance",
                results.len()
            ));
        }
    }
    Ok(())
}
