//! The `fosm` command table and its parser.
//!
//! [`COMMANDS`] declares every command's positionals and flags, each
//! flag with its kind and one help line. [`Parsed::new`] accepts
//! exactly those (`--name value`, `--name=value`, `-o` for `--out`) and
//! rejects anything else by name; [`help`] renders the same rows.

use std::collections::BTreeMap;
use std::fmt::{Display, Write};
use std::str::FromStr;

use crate::{commands, serve_cmd};

/// One declared flag: its name, its metavar (`None` for a switch), one
/// help line, the flag it only modifies, if any, and the flags its mode
/// never reads. Giving it without the first, or with any of the others,
/// is an error rather than a silent no-op.
pub struct Flag {
    name: &'static str,
    metavar: Option<&'static str>,
    help: &'static str,
    requires: Option<&'static str>,
    excludes: &'static [&'static str],
}

const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        metavar: Some(metavar),
        help,
        requires: None,
        excludes: &[],
    }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        metavar: None,
        help,
        requires: None,
        excludes: &[],
    }
}

impl Flag {
    const fn requires(self, other: &'static str) -> Flag {
        Flag {
            requires: Some(other),
            ..self
        }
    }

    const fn excludes(self, others: &'static [&'static str]) -> Flag {
        Flag {
            excludes: others,
            ..self
        }
    }
}

/// Flags several commands share, declared once.
pub struct Group {
    title: &'static str,
    flags: &'static [Flag],
}

/// One command, or one action of `corpus`, `metrics` and `client`: its
/// usage (the command words, then one `<metavar>` per positional), the
/// function that runs it, the shared groups it takes, and its own flags.
pub struct Spec {
    usage: &'static str,
    shared: &'static [&'static Group],
    flags: &'static [Flag],
    pub run: fn(Parsed) -> Result<(), String>,
}

impl Spec {
    /// The command words: `stats`, `client ping`.
    fn title(&self) -> &'static str {
        self.usage.split(" <").next().unwrap_or_default()
    }

    fn command(&self) -> &'static str {
        self.usage.split(' ').next().unwrap_or_default()
    }

    fn action(&self) -> &'static str {
        self.title()
            .split_once(' ')
            .map_or("", |(_, action)| action)
    }

    fn positionals(&self) -> impl Iterator<Item = &'static str> + Clone {
        self.usage.split(' ').filter(|w| w.starts_with('<'))
    }

    fn find(&self, name: &str) -> Option<&'static Flag> {
        let shared = self.shared.iter().copied().chain([&GLOBAL]);
        let mut flags = self.flags.iter().chain(shared.flat_map(|g| g.flags));
        flags.find(|f| f.name == name)
    }
}

#[rustfmt::skip]
const MACHINE: Group = Group { title: "machine flags (default: the paper's baseline)", flags: &[
    value("width", "N", "issue width (4)"),
    value("window", "N", "issue-window entries (48)"),
    value("rob", "N", "reorder-buffer entries (128)"),
    value("depth", "N", "front-end pipeline stages (5)"),
    value("l2", "N", "L2 latency, cycles (8)"),
    value("mem", "N", "memory latency, cycles (200)"),
]};

#[rustfmt::skip]
const GRID: Group = Group { title: "grid axes", flags: &[
    value("widths", "L", "comma-separated issue widths (baseline sweep)"),
    value("windows", "L", "comma-separated issue-window sizes (baseline sweep)"),
    value("robs", "L", "comma-separated reorder-buffer sizes (baseline sweep)"),
    value("depths", "L", "comma-separated front-end depths (baseline sweep)"),
    value("l2s", "L", "comma-separated L2 latencies (baseline sweep)"),
    value("mems", "L", "comma-separated memory latencies (baseline sweep)"),
]};

const INSTS: Flag = value("insts", "N", "trace length per workload (120000)");
const SEED: Flag = value("seed", "S", "workload generator seed (42)");
const THREADS: Flag = value("threads", "N", "worker threads (all cores)");
const PREFETCH: Flag = value("prefetch", "N", "next-line data prefetch lines (0)");
const TLB: Flag = value("tlb", "N", "data TLB with N entries (none)");
const PROBE: Flag = value("probe", "NAME", "full|ideal|branch|icache|dcache (full)");

#[rustfmt::skip]
const WORKLOAD: Group = Group { title: "workload flags", flags: &[
    value("bench", "NAME", "workload (gzip)"),
    INSTS,
    SEED,
]};

#[rustfmt::skip]
const CONNECT: Group = Group { title: "connection flags", flags: &[
    value("addr", "HOST:PORT", "the daemon to send the request to"),
    switch("local", "run the request in-process: the daemon's code path, same bytes"),
]};

#[rustfmt::skip]
const GLOBAL: Group = Group { title: "global flags (every command)", flags: &[
    value("metrics", "P", "write a JSON run manifest to P (or FOSM_METRICS=human|json)"),
    value("trace", "P", "write simulator miss events to P as Chrome JSON (or FOSM_TRACE)"),
    switch("help", "print this command's flags and exit (-h)"),
]};

const BANNER: &str = "fosm — first-order superscalar processor model toolchain\n\n";

/// The daemon's environment variables, listed by `fosm help [serve]`.
const ENVIRONMENT: &str = "environment (fosm serve):
    FOSM_CACHE_DIR       persist profiles on disk across restarts
    FOSM_CACHE_MAX_BYTES cap that cache's size in bytes
    FOSM_FLIGHT_CAP      flight-recorder ring size (256)
";

/// Every command `fosm` runs, in help order.
#[rustfmt::skip]
pub static COMMANDS: &[Spec] = &[
    Spec { usage: "record", run: commands::record, shared: &[], flags: &[
        value("bench", "NAME", "benchmark to record (required; see `fosm bench-list`)"),
        value("insts", "N", "instructions to record (500000)"),
        SEED,
        value("out", "P", "trace file to write (required; -o P)"),
    ]},
    Spec { usage: "corpus info <trace.fct>", run: commands::corpus_info, shared: &[], flags: &[] },
    Spec { usage: "corpus verify <trace.fct>", run: commands::corpus_verify, shared: &[],
        flags: &[] },
    Spec { usage: "stats <trace.fct>", run: commands::stats, shared: &[], flags: &[] },
    Spec { usage: "profile <trace.fct>", run: commands::profile, shared: &[&MACHINE], flags: &[
        value("out", "P", "write the profile JSON to P, not stdout (-o P)"),
        value("probes", "LIST", "full,ideal,branch,icache,dcache: one fused replay, a JSON array"),
        value("sample", "S", "sampled profiling: S instructions per sample"),
        value("warmup", "W", "warm-up instructions before each sample (0)").requires("sample"),
        value("period", "P", "instructions between sample starts (10 x S)").requires("sample"),
        PREFETCH,
        TLB,
    ]},
    Spec { usage: "model <profile.json>", run: commands::model, shared: &[&MACHINE], flags: &[] },
    Spec { usage: "simulate <trace.fct>", run: commands::simulate, shared: &[&MACHINE], flags: &[
        switch("ideal", "ideal caches and predictor (no miss events)").excludes(&["prefetch"]),
        PREFETCH,
        TLB,
        value("clusters", "K", "K-cluster issue window"),
        value("forward", "D", "inter-cluster forwarding, cycles (1)").requires("clusters"),
        switch("fu", "alpha-like functional-unit limits"),
        value("buffer", "N", "N-entry instruction fetch buffer"),
    ]},
    Spec { usage: "validate", run: commands::validate, shared: &[&MACHINE], flags: &[
        INSTS,
        SEED,
        THREADS,
        value("bench", "NAME", "validate one workload only (all 12)"),
        value("tol", "SPEC", "tolerance overrides, e.g. branch=0.3:0.05,total=0.1"),
        value("baseline", "P", "load tolerance bands from a JSON file"),
        switch("check", "exit non-zero on any out-of-band component"),
        value("report", "P", "write the full JSON validation report to P"),
        switch("statsim", "also run the statistical-simulation baseline"),
        value("corpus", "LIST", "validate these comma-separated trace files instead"),
        value("fuzz", "N", "differential-fuzz N random machines instead").excludes(&[
            "check", "report", "baseline", "bench", "corpus", "statsim",
            "width", "window", "rob", "depth", "l2", "mem", "seed", "threads",
        ]),
        value("fuzz-seed", "S", "fuzzer RNG seed (0xF05A)").requires("fuzz"),
        value("fuzz-repro", "J", "replay one fuzz case from its JSON form").excludes(&[
            "fuzz", "check", "report", "baseline", "bench", "corpus", "statsim", "tol",
            "width", "window", "rob", "depth", "l2", "mem", "seed", "threads",
        ]),
    ]},
    Spec { usage: "explore", run: commands::explore, shared: &[&GRID], flags: &[
        value("bench", "NAME", "workload to sweep; `all` for the suite (gzip)"),
        INSTS,
        SEED,
        THREADS,
        value("icaches", "L", "I-cache geometries, e.g. 8k:4:64,16k:2:64"),
        value("dcaches", "L", "D-cache geometries"),
        value("predictors", "L", "predictor axis, e.g. gshare:13,bimodal:10"),
        value("top", "K", "frontier corner points to print (10)"),
        switch("frontier", "print the full frontier as CSV on stdout"),
        value("export", "P", "write the frontier to P (.json report, else CSV)"),
        value("sim-check", "N", "re-simulate N frontier corners and gate them"),
    ]},
    Spec { usage: "trace <bench>", run: commands::trace, shared: &[&MACHINE], flags: &[
        INSTS,
        SEED,
        value("top", "K", "worst-attributed events to print (10)"),
        value("chrome", "P", "write Chrome trace-event JSON to P (Perfetto-loadable)"),
    ]},
    Spec { usage: "metrics diff <a.json> <b.json>", run: commands::metrics_diff, shared: &[],
        flags: &[
        value("max-regress", "PCT", "fail when a counter, span or quantile grew over PCT%"),
    ]},
    Spec { usage: "serve", run: serve_cmd::serve, shared: &[], flags: &[
        value("addr", "A", "listen address (127.0.0.1:0 = any port)"),
        value("workers", "N", "requests run at once (all cores)"),
        value("port-file", "P", "write the bound address to P"),
        switch("no-telemetry", "disable per-request histograms and the flight recorder"),
    ]},
    Spec { usage: "client ping", run: serve_cmd::client, shared: &[&CONNECT], flags: &[] },
    Spec { usage: "client stats", run: serve_cmd::client, shared: &[&CONNECT], flags: &[] },
    Spec { usage: "client telemetry", run: serve_cmd::client, shared: &[&CONNECT], flags: &[] },
    Spec { usage: "client shutdown", run: serve_cmd::client, shared: &[&CONNECT], flags: &[] },
    Spec { usage: "client profile", run: serve_cmd::client, flags: &[PROBE],
        shared: &[&CONNECT, &WORKLOAD, &MACHINE] },
    Spec { usage: "client model", run: serve_cmd::client, flags: &[PROBE],
        shared: &[&CONNECT, &WORKLOAD, &MACHINE] },
    Spec { usage: "client validate", run: serve_cmd::client, flags: &[],
        shared: &[&CONNECT, &WORKLOAD, &MACHINE] },
    Spec { usage: "client explore", run: serve_cmd::client, flags: &[],
        shared: &[&CONNECT, &WORKLOAD, &GRID] },
    Spec { usage: "loadgen", run: serve_cmd::loadgen, shared: &[], flags: &[
        value("addr", "HOST:PORT", "the daemon to drive (required)"),
        value("clients", "N", "concurrent client connections (8)"),
        value("requests", "M", "requests per client (8)"),
        value("insts", "N", "trace length per request (20000)"),
        SEED,
        switch("verify", "byte-compare every response to in-process execution"),
        switch("seq", "also time the stream as sequential one-shot subprocesses"),
        value("min-speedup", "X", "fail below an X-fold daemon speedup").requires("seq"),
        value("out", "P", "write a BENCH_serve.json-format baseline to P (-o P)"),
        value("baseline", "P", "compare against a committed baseline"),
        switch("check", "exit non-zero on any >25% latency regression").requires("baseline"),
    ]},
    Spec { usage: "top", run: serve_cmd::top, shared: &[], flags: &[
        value("addr", "HOST:PORT", "the daemon to poll (required)"),
        value("interval", "MS", "refresh period in live mode (1000)"),
        switch("once", "print one snapshot and exit"),
        switch("json", "print the raw telemetry JSON body instead of the table"),
    ]},
    Spec { usage: "bench-list", run: commands::bench_list, shared: &[], flags: &[] },
];

/// Finds the spec `argv` names (the command, then the action word where
/// the command takes one) and returns it with the arguments after.
pub fn lookup(argv: &[String]) -> Result<(&'static Spec, &[String]), String> {
    let command = &argv[0];
    let specs: Vec<&'static Spec> = COMMANDS.iter().filter(|s| s.command() == command).collect();
    let actions: Vec<&str> = specs.iter().map(|s| s.action()).collect();
    let actions = actions.join(", ");
    match (&specs[..], argv.get(1)) {
        ([], _) => Err(format!("unknown command `{command}` (try `fosm help`)")),
        ([spec], _) if spec.action().is_empty() => Ok((spec, &argv[1..])),
        (_, None) => Err(format!("`fosm {command}` needs an action ({actions})")),
        (_, Some(word)) => match specs.iter().find(|s| s.action() == word) {
            Some(spec) => Ok((spec, &argv[2..])),
            None => Err(format!(
                "unknown {command} action `{word}` (expected {actions})"
            )),
        },
    }
}

/// One command's parsed arguments: positionals in order, flags by name
/// (a switch maps to an empty string).
pub struct Parsed {
    spec: &'static Spec,
    positional: Vec<String>,
    flags: BTreeMap<&'static str, String>,
}

impl Parsed {
    /// Parses `args` against `spec`. Rejects an undeclared flag, a flag
    /// given twice, a value on a switch, a missing value, a missing or
    /// extra positional, a flag given without the flag it requires, and
    /// a flag given with one it excludes.
    pub fn new(spec: &'static Spec, args: &[String]) -> Result<Self, String> {
        let cmd = spec.title();
        let (mut positional, mut flags) = (Vec::new(), BTreeMap::new());
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let Some(long) = arg.strip_prefix("--").or((arg == "-o").then_some("out")) else {
                positional.push(arg.clone());
                continue;
            };
            let (name, inline) = long
                .split_once('=')
                .map_or((long, None), |(n, v)| (n, Some(v)));
            let flag = spec.find(name).ok_or_else(|| {
                let command = spec.command();
                format!("unknown flag --{name} for `fosm {cmd}` (see `fosm help {command}`)")
            })?;
            let value = match (flag.metavar, inline) {
                (None, None) => String::new(),
                (None, Some(_)) => {
                    return Err(format!("flag --{name} of `fosm {cmd}` takes no value"))
                }
                (Some(_), Some(value)) => value.to_string(),
                (Some(_), None) => iter
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("flag --{name} of `fosm {cmd}` needs a value"))?
                    .clone(),
            };
            if flags.insert(flag.name, value).is_some() {
                return Err(format!("flag --{name} given twice to `fosm {cmd}`"));
            }
        }
        let mut declared = spec.positionals();
        if let Some(extra) = positional.get(declared.clone().count()) {
            return Err(format!("unexpected argument `{extra}` for `fosm {cmd}`"));
        }
        if let Some(missing) = declared.nth(positional.len()) {
            return Err(format!("`fosm {cmd}` needs {missing}"));
        }
        for name in flags.keys() {
            let flag = spec.find(name).expect("parsed flags are declared");
            if let Some(needed) = flag.requires.filter(|n| !flags.contains_key(n)) {
                return Err(format!("flag --{name} of `fosm {cmd}` needs --{needed}"));
            }
            if let Some(other) = flag.excludes.iter().find(|o| flags.contains_key(*o)) {
                return Err(format!("flag --{name} of `fosm {cmd}` excludes --{other}"));
            }
        }
        Ok(Parsed {
            spec,
            positional,
            flags,
        })
    }

    /// The action word (`client ping` → `ping`); empty for plain commands.
    pub fn action(&self) -> &'static str {
        self.spec.action()
    }

    /// The `i`-th declared positional ([`Parsed::new`] checked that all
    /// are present).
    pub fn positional(&self, i: usize) -> &str {
        &self.positional[i]
    }

    /// The raw value of a flag, if given.
    pub fn flag(&self, name: &str) -> Option<&str> {
        let cmd = self.spec.title();
        debug_assert!(
            self.spec.find(name).is_some(),
            "`fosm {cmd}` reads undeclared --{name}"
        );
        self.flags.get(name).map(String::as_str)
    }

    /// Whether a flag (typically a switch) was given.
    pub fn has(&self, name: &str) -> bool {
        self.flag(name).is_some()
    }

    /// A flag parsed into `T`, if given.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let cmd = self.spec.title();
        let parse = |raw: &str| {
            raw.parse()
                .map_err(|e| format!("bad --{name} for `fosm {cmd}`: {e}"))
        };
        self.flag(name).map(parse).transpose()
    }

    /// A comma-separated list flag, each item read by `parse`, or
    /// `default` when the flag is absent.
    pub fn list<T, E: Display>(
        &self,
        name: &str,
        default: Vec<T>,
        parse: impl Fn(&str) -> Result<T, E>,
    ) -> Result<Vec<T>, String> {
        let Some(raw) = self.flag(name) else {
            return Ok(default);
        };
        let item = |s: &str| parse(s.trim()).map_err(|e| format!("bad value in --{name}: {e}"));
        raw.split(',').map(item).collect()
    }
}

fn write_rows(out: &mut String, flags: &[Flag]) {
    for f in flags {
        let name = format!("--{} {}", f.name, f.metavar.unwrap_or(""));
        let needs = f
            .requires
            .map_or(String::new(), |r| format!(" (with --{r})"));
        let excludes = match f.excludes {
            [] => String::new(),
            others => format!(" (not with --{})", others.join(", --")),
        };
        let _ = writeln!(out, "    {name:<20} {}{needs}{excludes}", f.help);
    }
}

/// The help text. With no topic: every command with its own flags, then
/// each shared group once. With a command: every flag of each of its
/// specs, then the global flags.
pub fn help(topic: Option<&str>) -> Result<String, String> {
    if let Some(t) = topic.filter(|t| COMMANDS.iter().all(|s| s.command() != *t)) {
        return Err(format!("unknown command `{t}` (try `fosm help`)"));
    }
    let (mut out, groups) = match topic {
        None => (
            BANNER.to_string(),
            vec![&MACHINE, &WORKLOAD, &GRID, &CONNECT, &GLOBAL],
        ),
        Some(_) => (String::new(), vec![&GLOBAL]),
    };
    for spec in COMMANDS
        .iter()
        .filter(|s| topic.is_none_or(|t| s.command() == t))
    {
        let _ = writeln!(out, "fosm {} [flags]", spec.usage);
        write_rows(&mut out, spec.flags);
        for group in spec.shared {
            let _ = writeln!(out, "    + {}", group.title);
            write_rows(&mut out, if topic.is_some() { group.flags } else { &[] });
        }
        out.push('\n');
    }
    for group in groups {
        let _ = writeln!(out, "{}:", group.title);
        write_rows(&mut out, group.flags);
    }
    if topic.is_none_or(|t| t == "serve") {
        let _ = write!(out, "\n{ENVIRONMENT}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Parses `fosm <argv>`.
    fn try_parse(argv: &[&str]) -> Result<Parsed, String> {
        let argv = strings(argv);
        let (spec, rest) = lookup(&argv)?;
        Parsed::new(spec, rest)
    }

    fn parse(argv: &[&str]) -> Parsed {
        try_parse(argv).unwrap()
    }

    fn parse_err(argv: &[&str]) -> String {
        match try_parse(argv) {
            Ok(_) => panic!("{argv:?} parsed"),
            Err(e) => e,
        }
    }

    #[test]
    fn positionals_and_flags() {
        let p = parse(&["profile", "trace.trc", "--width", "8", "-o", "out.json"]);
        assert_eq!(p.positional(0), "trace.trc");
        assert_eq!(p.flag("out"), Some("out.json"));
        assert_eq!(p.get::<u32>("width").unwrap(), Some(8));
        assert_eq!(p.get::<u32>("depth").unwrap(), None);
    }

    #[test]
    fn equals_form_works_for_every_value_flag() {
        let p = parse(&["simulate", "t.fct", "--width=8", "--metrics=m.json"]);
        assert_eq!(p.get::<u32>("width").unwrap(), Some(8));
        assert_eq!(p.flag("metrics"), Some("m.json"));
        assert_eq!(p.get::<u32>("depth").unwrap(), None);
    }

    #[test]
    fn boolean_ideal_flag() {
        let p = parse(&["simulate", "t.trc", "--ideal"]);
        assert!(p.has("ideal"));
        assert_eq!(p.positional(0), "t.trc");
    }

    #[test]
    fn boolean_validate_flags_take_no_value() {
        let p = parse(&["validate", "--check", "--statsim", "--insts", "5000"]);
        assert!(p.has("check"));
        assert!(p.has("statsim"));
        assert_eq!(p.get::<u64>("insts").unwrap(), Some(5_000));
    }

    #[test]
    fn adjacent_boolean_flags_do_not_eat_each_other() {
        // `fosm top --once --json` and `serve --no-telemetry --port-file P`
        // both rely on boolean flags never consuming the next token.
        let p = parse(&["top", "--once", "--json", "--addr", "a:1"]);
        assert!(p.has("once"));
        assert!(p.has("json"));
        assert_eq!(p.flag("addr"), Some("a:1"));
        let p = parse(&["serve", "--no-telemetry", "--port-file", "p"]);
        assert!(p.has("no-telemetry"));
        assert_eq!(p.flag("port-file"), Some("p"));
    }

    #[test]
    fn lists_parse_or_default() {
        let p = parse(&["explore", "--widths", "2, 4,8"]);
        assert_eq!(
            p.list("widths", vec![1], str::parse::<u32>).unwrap(),
            vec![2, 4, 8]
        );
        assert_eq!(
            p.list("robs", vec![64], str::parse::<u32>).unwrap(),
            vec![64]
        );
        assert!(p
            .list("robs", vec![], str::parse::<u32>)
            .unwrap()
            .is_empty());
        let err = parse(&["explore", "--mems", "200,x"])
            .list("mems", vec![], str::parse::<u32>)
            .unwrap_err();
        assert!(err.contains("--mems"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = parse_err(&["model", "p.json", "--width"]);
        assert!(
            err.contains("--width") && err.contains("`fosm model`"),
            "{err}"
        );
        // A following flag is not taken as the value.
        let err = parse_err(&["stats", "t.fct", "--metrics", "--trace", "x"]);
        assert!(
            err.contains("--metrics of `fosm stats` needs a value"),
            "{err}"
        );
    }

    #[test]
    fn bad_parse_reports_flag_name() {
        let p = parse(&["model", "p.json", "--width", "lots"]);
        let err = p.get::<u32>("width").unwrap_err();
        assert!(
            err.contains("--width") && err.contains("`fosm model`"),
            "{err}"
        );
    }

    #[test]
    fn missing_positional_names_it() {
        let err = parse_err(&["stats"]);
        assert!(
            err.contains("<trace.fct>") && err.contains("`fosm stats`"),
            "{err}"
        );
        let err = parse_err(&["metrics", "diff", "a.json"]);
        assert!(err.contains("<b.json>"), "{err}");
    }

    #[test]
    fn malformed_command_lines_are_rejected_by_name() {
        for (argv, needle) in [
            (
                &["simulate", "t.fct", "--widht", "8"][..],
                "unknown flag --widht for `fosm simulate`",
            ),
            (
                &["record", "--bogus-flag", "7"],
                "unknown flag --bogus-flag for `fosm record`",
            ),
            (
                &["stats", "t.fct", "-v"],
                "unexpected argument `-v` for `fosm stats`",
            ),
            (
                &["simulate", "t.fct", "--width", "2", "--width", "8"],
                "--width given twice",
            ),
            (
                &["validate", "--check=1"],
                "--check of `fosm validate` takes no value",
            ),
            (
                &["stats", "t.fct", "extra.fct"],
                "unexpected argument `extra.fct`",
            ),
            (
                &["profile", "t.fct", "--probes", "full", "--ideal"],
                "--ideal for `fosm profile`",
            ),
            (
                &["client", "ping", "--bench", "gzip"],
                "--bench for `fosm client ping`",
            ),
            (
                &["client", "frobnicate"],
                "unknown client action `frobnicate`",
            ),
            (&["client"], "`fosm client` needs an action (ping, stats,"),
            (&["frobnicate"], "unknown command `frobnicate`"),
        ] {
            let err = parse_err(argv);
            assert!(err.contains(needle), "{argv:?}: {err}");
        }
    }

    #[test]
    fn flags_need_what_they_modify_and_reject_what_their_mode_ignores() {
        for (argv, needle) in [
            (
                &["loadgen", "--addr", "a:1", "--check"][..],
                "--check of `fosm loadgen` needs --baseline",
            ),
            (
                &["loadgen", "--addr", "a:1", "--min-speedup", "3"],
                "needs --seq",
            ),
            (&["profile", "t.fct", "--warmup", "10"], "needs --sample"),
            (&["profile", "t.fct", "--period", "10"], "needs --sample"),
            (&["simulate", "t.fct", "--forward", "2"], "needs --clusters"),
            (&["validate", "--fuzz-seed", "7"], "needs --fuzz"),
            (
                &["simulate", "t.fct", "--prefetch", "1", "--ideal"],
                "--ideal of `fosm simulate` excludes --prefetch",
            ),
            (
                &["validate", "--fuzz", "8", "--check"],
                "--fuzz of `fosm validate` excludes --check",
            ),
            (
                &["validate", "--fuzz", "8", "--report", "r"],
                "excludes --report",
            ),
            (
                &["validate", "--fuzz", "8", "--baseline", "b"],
                "excludes --baseline",
            ),
            (
                &["validate", "--fuzz", "8", "--bench", "gzip"],
                "excludes --bench",
            ),
            (
                &["validate", "--fuzz", "8", "--corpus", "t.fct"],
                "excludes --corpus",
            ),
            (
                &["validate", "--fuzz", "8", "--statsim"],
                "excludes --statsim",
            ),
            (
                &["validate", "--fuzz", "1", "--width", "8"],
                "--fuzz of `fosm validate` excludes --width",
            ),
            (
                &["validate", "--fuzz", "1", "--mem", "400"],
                "excludes --mem",
            ),
            (
                &["validate", "--fuzz", "1", "--seed", "9"],
                "excludes --seed",
            ),
            (
                &["validate", "--fuzz", "1", "--threads", "1"],
                "excludes --threads",
            ),
            (
                &["validate", "--fuzz-repro", "{}", "--depth", "9"],
                "--fuzz-repro of `fosm validate` excludes --depth",
            ),
            (
                &["validate", "--fuzz-repro", "{}", "--seed", "9"],
                "excludes --seed",
            ),
            (
                &["validate", "--fuzz-repro", "{}", "--fuzz", "2"],
                "excludes --fuzz",
            ),
            (
                &["validate", "--fuzz-repro", "{}", "--tol", "x"],
                "excludes --tol",
            ),
        ] {
            let err = parse_err(argv);
            assert!(err.contains(needle), "{argv:?}: {err}");
        }
        assert!(try_parse(&["loadgen", "--addr", "a:1", "--baseline", "b", "--check"]).is_ok());
        assert!(try_parse(&["simulate", "t.fct", "--clusters", "2", "--forward", "2"]).is_ok());
        assert!(try_parse(&["simulate", "t.fct", "--ideal", "--tlb", "8"]).is_ok());
        assert!(try_parse(&["validate", "--fuzz", "8", "--fuzz-seed", "1", "--tol", "x"]).is_ok());
        assert!(try_parse(&["validate", "--fuzz-repro", "{}", "--insts", "3000"]).is_ok());
    }

    #[test]
    fn every_spec_declares_each_flag_once_and_requires_a_declared_flag() {
        for spec in COMMANDS {
            let groups = spec.shared.iter().copied().chain([&GLOBAL]);
            let all: Vec<&Flag> = spec
                .flags
                .iter()
                .chain(groups.flat_map(|g| g.flags))
                .collect();
            for (i, f) in all.iter().enumerate() {
                assert!(
                    all[..i].iter().all(|g| g.name != f.name),
                    "`fosm {}` declares --{} twice",
                    spec.title(),
                    f.name
                );
                if let Some(needed) = f.requires {
                    assert!(
                        spec.find(needed).is_some(),
                        "--{} requires --{needed}",
                        f.name
                    );
                }
                for other in f.excludes {
                    assert!(
                        spec.find(other).is_some(),
                        "`fosm {}`: --{} excludes undeclared --{other}",
                        spec.title(),
                        f.name
                    );
                }
            }
        }
    }

    #[test]
    fn help_states_every_flag() {
        let full = help(None).unwrap();
        for spec in COMMANDS {
            let own = help(Some(spec.command())).unwrap();
            for f in spec
                .flags
                .iter()
                .chain(spec.shared.iter().flat_map(|g| g.flags))
            {
                let row = format!("--{} ", f.name);
                assert!(full.contains(&row), "fosm help lacks --{}", f.name);
                assert!(
                    own.contains(&row),
                    "fosm help {} lacks --{}",
                    spec.title(),
                    f.name
                );
            }
        }
        assert!(help(Some("frobnicate")).is_err());
    }
}
