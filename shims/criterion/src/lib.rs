//! Vendored, API-compatible subset of `criterion`.
//!
//! Implements the benchmarking surface this workspace uses —
//! `benchmark_group`, `bench_function`, `bench_with_input`,
//! `Throughput`, `BenchmarkId`, `criterion_group!`/`criterion_main!` —
//! with simple wall-clock measurement: at least [`MIN_SAMPLES`]
//! samples, each an adaptively sized batch of iterations, summarized as
//! their minimum, median and median absolute deviation (MAD).
//!
//! Behavior matches criterion's cargo integration: a full measurement
//! pass runs only under `cargo bench` (cargo passes `--bench`);
//! any other invocation (e.g. `cargo test` compiling/running bench
//! targets) runs each benchmark once as a smoke test.
//!
//! Each finished group appends its results to `BENCH_<group>.json` in
//! the directory named by `FOSM_BENCH_OUT_DIR` (default: the current
//! working directory), giving the repo a machine-readable perf
//! trajectory across PRs.
//!
//! Passing `--check <baseline.json>` after `--` turns the run into a
//! regression gate: results are measured as usual but compared against
//! the named baseline instead of overwriting it, and the process exits
//! non-zero if any benchmark's median is more than
//! [`REGRESSION_LIMIT_PCT`] slower than its baseline entry and the
//! slowdown also lies outside the noise band of the two measurements
//! ([`NOISE_MADS`] times their summed MADs).

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier with a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds `<name>/<parameter>`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{parameter}", name.into()),
        }
    }

    /// Builds an id from the parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// The fewest timing samples a measurement takes, whatever the
/// configured sample size.
pub const MIN_SAMPLES: usize = 10;

/// One benchmark's timing samples, summarized in nanoseconds per
/// iteration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Estimate {
    /// Median sample.
    pub median: f64,
    /// Fastest sample.
    pub min: f64,
    /// Median absolute deviation of the samples from the median.
    pub mad: f64,
    /// Number of samples (1 for a single measurement).
    pub samples: usize,
}

impl Estimate {
    /// Summarizes `samples` (nanoseconds per iteration; reordered).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &mut [f64]) -> Estimate {
        assert!(!samples.is_empty(), "an estimate needs samples");
        let median_of = |v: &mut [f64]| {
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        };
        let median = median_of(samples);
        let min = samples[0];
        let mut deviations: Vec<f64> = samples.iter().map(|s| (s - median).abs()).collect();
        Estimate {
            median,
            min,
            mad: median_of(&mut deviations),
            samples: samples.len(),
        }
    }

    /// A single measurement, with no spread recorded.
    pub fn point(ns: f64) -> Estimate {
        Estimate {
            median: ns,
            min: ns,
            mad: 0.0,
            samples: 1,
        }
    }
}

/// The measurement engine handed to benchmark closures.
pub struct Bencher<'a> {
    mode: Mode,
    sample_size: usize,
    /// The measurement, filled by `iter`.
    result: &'a mut Estimate,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Full measurement (`cargo bench`).
    Measure,
    /// One iteration, no timing (`cargo test` smoke pass).
    Smoke,
}

impl Bencher<'_> {
    /// Runs `f` repeatedly and records its time per iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.mode == Mode::Smoke {
            black_box(f());
            *self.result = Estimate::point(0.0);
            return;
        }
        // Warm up and size the batch so one sample spans >= ~5ms.
        let mut batch: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(5) || batch >= 1 << 20 {
                break;
            }
            let scale = (Duration::from_millis(8).as_nanos() as u64)
                .checked_div(elapsed.as_nanos().max(1) as u64)
                .unwrap_or(8)
                .clamp(2, 1000);
            batch = batch.saturating_mul(scale);
        }
        let mut samples: Vec<f64> = (0..self.sample_size.max(MIN_SAMPLES))
            .map(|_| {
                let start = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        *self.result = Estimate::from_samples(&mut samples);
    }
}

/// One finished measurement.
#[derive(Debug, Clone)]
struct Record {
    id: String,
    estimate: Estimate,
    /// Elements or bytes per iteration, from the group's throughput.
    per_iter: Option<u64>,
}

/// A named group of benchmarks sharing throughput settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    records: Vec<Record>,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput used to derive rate figures.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Overrides the per-benchmark sample count.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n;
        self
    }

    /// Overrides the measurement time (accepted for API parity; the
    /// shim sizes batches adaptively instead).
    pub fn measurement_time(&mut self, _t: Duration) -> &mut Self {
        self
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into().id;
        let mut estimate = Estimate::point(f64::NAN);
        let mut bencher = Bencher {
            mode: self.criterion.mode,
            sample_size: self.criterion.sample_size,
            result: &mut estimate,
        };
        f(&mut bencher);
        self.finish_one(id, estimate);
        self
    }

    /// Benchmarks `f` with an explicit input under `id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into().id;
        let mut estimate = Estimate::point(f64::NAN);
        let mut bencher = Bencher {
            mode: self.criterion.mode,
            sample_size: self.criterion.sample_size,
            result: &mut estimate,
        };
        f(&mut bencher, input);
        self.finish_one(id, estimate);
        self
    }

    fn finish_one(&mut self, id: String, estimate: Estimate) {
        let full = format!("{}/{}", self.name, id);
        let ns = estimate.median;
        if self.criterion.mode == Mode::Measure {
            let rate = match self.throughput {
                Some(Throughput::Elements(n)) => {
                    format!("  thrpt: {:>12} elem/s", format_rate(n, ns))
                }
                Some(Throughput::Bytes(n)) => {
                    format!("  thrpt: {:>12} B/s", format_rate(n, ns))
                }
                None => String::new(),
            };
            println!(
                "{full:<48} time: {:>12}/iter (min {}, mad {}){rate}",
                format_ns(ns),
                format_ns(estimate.min),
                format_ns(estimate.mad)
            );
        } else {
            println!("{full}: ok (smoke)");
        }
        self.records.push(Record {
            id,
            estimate,
            per_iter: match self.throughput {
                Some(Throughput::Elements(n)) | Some(Throughput::Bytes(n)) => Some(n),
                None => None,
            },
        });
    }

    /// Finishes the group: in check mode, compares against the chosen
    /// baseline; otherwise flushes a fresh JSON baseline.
    pub fn finish(self) {
        if self.criterion.mode != Mode::Measure {
            return;
        }
        if let Some(baseline) = self.criterion.check_against.clone() {
            let body = match std::fs::read_to_string(&baseline) {
                Ok(body) => body,
                Err(e) => {
                    eprintln!("check: cannot read {}: {e}", baseline.display());
                    CHECK_FAILED.store(true, Ordering::Relaxed);
                    return;
                }
            };
            let measured: Vec<(String, Estimate)> = self
                .records
                .iter()
                .map(|r| (r.id.clone(), r.estimate))
                .collect();
            let mut ok = true;
            for line in check_report(&measured, &body) {
                if line.starts_with("REGRESSION") {
                    ok = false;
                }
                println!("{}: {line}", self.name);
            }
            if ok {
                println!(
                    "{}: check passed (within {REGRESSION_LIMIT_PCT:.0}% or the noise band of {})",
                    self.name,
                    baseline.display()
                );
            } else {
                CHECK_FAILED.store(true, Ordering::Relaxed);
            }
            return;
        }
        let dir = std::env::var("FOSM_BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.name));
        let entries: Vec<(&str, Estimate, Option<u64>)> = self
            .records
            .iter()
            .map(|r| (r.id.as_str(), r.estimate, r.per_iter))
            .collect();
        let body = baseline_json(&self.name, &entries);
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("(baseline written to {})", path.display());
        }
    }
}

/// Renders a `BENCH_<group>.json` baseline body from `(id, estimate,
/// per_iter)` entries: one benchmark per line, so [`parse_baseline`]
/// reads it back exactly. `ns_per_iter` is the median; an estimate of
/// several samples also records `min_ns`, `mad_ns` and `samples`.
pub fn baseline_json(group: &str, entries: &[(&str, Estimate, Option<u64>)]) -> String {
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"group\": \"{group}\",\n"));
    body.push_str("  \"benchmarks\": {\n");
    for (i, (id, est, per_iter)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        let spread = if est.samples > 1 {
            format!(
                ", \"min_ns\": {:.1}, \"mad_ns\": {:.1}, \"samples\": {}",
                est.min, est.mad, est.samples
            )
        } else {
            String::new()
        };
        let thrpt = per_iter.map_or(String::new(), |n| format!(", \"per_iter\": {n}"));
        body.push_str(&format!(
            "    \"{id}\": {{\"ns_per_iter\": {:.1}{spread}{thrpt}}}{sep}\n",
            est.median
        ));
    }
    body.push_str("  }\n}\n");
    body
}

/// Allowed slowdown versus the baseline before `--check` fails.
pub const REGRESSION_LIMIT_PCT: f64 = 25.0;

/// Width of the noise band, in multiples of the summed MADs of the
/// baseline and the new measurement: a slowdown inside it is not a
/// regression, however large its percentage.
pub const NOISE_MADS: f64 = 3.0;

/// Set when any group's `--check` comparison finds a regression.
static CHECK_FAILED: AtomicBool = AtomicBool::new(false);

/// Whether any `--check` comparison failed so far (used by
/// `criterion_main!` to derive the process exit code).
pub fn check_failed() -> bool {
    CHECK_FAILED.load(Ordering::Relaxed)
}

/// Compares measured `(id, estimate)` entries against a baseline file
/// body (the format written by [`baseline_json`]) and renders one
/// verdict line per benchmark, prefixed `REGRESSION` when the median is
/// more than [`REGRESSION_LIMIT_PCT`]% slower and the slowdown exceeds
/// the noise band ([`NOISE_MADS`] times the summed MADs). Entries
/// absent on either side are reported but are not regressions — a
/// benchmark suite is allowed to grow.
pub fn check_report(measured: &[(String, Estimate)], baseline_body: &str) -> Vec<String> {
    let baseline = parse_baseline(baseline_body);
    let mut lines = Vec::new();
    for (id, cur) in measured {
        match baseline.iter().find(|(base_id, _)| base_id == id) {
            None => lines.push(format!("{id}: new benchmark, no baseline entry")),
            Some((_, base)) => {
                let slowdown = cur.median - base.median;
                let delta_pct = 100.0 * slowdown / base.median;
                let noise = NOISE_MADS * (cur.mad + base.mad);
                let verdict = format!(
                    "{id}: {} vs baseline {} ({delta_pct:+.1}%, noise band {})",
                    format_ns(cur.median),
                    format_ns(base.median),
                    format_ns(noise)
                );
                if delta_pct > REGRESSION_LIMIT_PCT && slowdown > noise {
                    lines.push(format!(
                        "REGRESSION {verdict}, limit +{REGRESSION_LIMIT_PCT:.0}%"
                    ));
                } else {
                    lines.push(verdict);
                }
            }
        }
    }
    for (id, _) in &baseline {
        if !measured.iter().any(|(cur_id, _)| cur_id == id) {
            lines.push(format!("{id}: in baseline but not measured this run"));
        }
    }
    lines
}

/// Extracts `(id, estimate)` pairs from a baseline file. The format is
/// the shim's own output — one benchmark per line, e.g.
/// `    "record/gzip": {"ns_per_iter": 1234.5, "min_ns": 1200.0,
/// "mad_ns": 10.5, "samples": 10, "per_iter": 50000},` — so a
/// line-oriented scan is exact. An entry without `min_ns`/`mad_ns`
/// reads as a single measurement.
pub fn parse_baseline(body: &str) -> Vec<(String, Estimate)> {
    let number = |rest: &str, key: &str| -> Option<f64> {
        let after = rest.split_once(&format!("\"{key}\":"))?.1;
        after
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect::<String>()
            .parse()
            .ok()
    };
    let mut out = Vec::new();
    for line in body.lines() {
        let Some(rest) = line.trim_start().strip_prefix('"') else {
            continue;
        };
        let Some((id, rest)) = rest.split_once('"') else {
            continue;
        };
        if id == "group" {
            continue;
        }
        let Some(median) = number(rest, "ns_per_iter") else {
            continue;
        };
        let mut estimate = Estimate::point(median);
        if let (Some(min), Some(mad)) = (number(rest, "min_ns"), number(rest, "mad_ns")) {
            estimate.min = min;
            estimate.mad = mad;
            estimate.samples = number(rest, "samples").map_or(1, |n| n as usize);
        }
        out.push((id.to_string(), estimate));
    }
    out
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn format_rate(per_iter: u64, ns: f64) -> String {
    let rate = per_iter as f64 / (ns / 1e9);
    if rate >= 1e9 {
        format!("{:.3} G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.3} M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.3} K", rate / 1e3)
    } else {
        format!("{rate:.1}")
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    mode: Mode,
    sample_size: usize,
    /// Baseline to compare against (`--check <path>`) instead of
    /// writing a new one.
    check_against: Option<std::path::PathBuf>,
}

impl Default for Criterion {
    fn default() -> Self {
        // cargo bench passes `--bench` to the target binary; anything
        // else (notably `cargo test`, which also builds and runs
        // harness=false bench targets) gets a fast smoke pass.
        let mut measure = false;
        let mut check_against = None;
        let mut args = std::env::args();
        while let Some(arg) = args.next() {
            if arg == "--bench" {
                measure = true;
            } else if let Some(path) = arg.strip_prefix("--check=") {
                check_against = Some(path.into());
            } else if arg == "--check" {
                check_against = args.next().map(Into::into);
            }
        }
        // A check run must measure, whatever the harness passed.
        if check_against.is_some() {
            measure = true;
        }
        Criterion {
            mode: if measure { Mode::Measure } else { Mode::Smoke },
            sample_size: 10,
            check_against,
        }
    }
}

impl Criterion {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    /// Accepts a measurement-time hint (API parity; ignored).
    pub fn measurement_time(self, _t: Duration) -> Self {
        self
    }

    /// Accepts CLI configuration (API parity; mode is derived from
    /// `--bench` in [`Criterion::default`]).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        BenchmarkGroup {
            criterion: self,
            name,
            throughput: None,
            records: Vec::new(),
        }
    }

    /// Benchmarks a standalone function (no group).
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group("standalone");
        group.bench_function(id, f);
        // Standalone results are printed but not written as a baseline.
        self
    }

    /// Runs registered target functions (called by `criterion_main!`).
    pub fn final_summary(&self) {}
}

/// Declares a benchmark group in the style of criterion.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
            criterion.final_summary();
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            if $crate::check_failed() {
                std::process::exit(1);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_criterion() -> Criterion {
        Criterion {
            mode: Mode::Smoke,
            sample_size: 3,
            check_against: None,
        }
    }

    #[test]
    fn smoke_mode_runs_each_bench_once() {
        let mut c = smoke_criterion();
        let mut calls = 0u32;
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Elements(10));
        group.bench_function("f", |b| b.iter(|| calls += 1));
        group.finish();
        assert_eq!(calls, 1);
    }

    #[test]
    fn measure_mode_times_iterations() {
        let mut c = Criterion {
            mode: Mode::Measure,
            sample_size: 3,
            check_against: None,
        };
        std::env::set_var("FOSM_BENCH_OUT_DIR", std::env::temp_dir());
        let mut acc = 0u64;
        {
            let mut group = c.benchmark_group("shimtest");
            group.bench_function("busy", |b| {
                b.iter(|| {
                    for i in 0..100u64 {
                        acc = acc.wrapping_add(black_box(i));
                    }
                })
            });
            group.finish();
        }
        let path = std::env::temp_dir().join("BENCH_shimtest.json");
        let body = std::fs::read_to_string(&path).expect("baseline written");
        assert!(body.contains("\"busy\""));
        let _ = std::fs::remove_file(path);
        assert!(acc > 0);
        // Three samples were asked for; the shim takes its minimum.
        let (_, busy) = &parse_baseline(&body)[0];
        assert_eq!(busy.samples, MIN_SAMPLES, "{body}");
        assert!(busy.min <= busy.median && busy.mad >= 0.0, "{body}");
    }

    #[test]
    fn estimates_summarize_samples() {
        let mut samples = [14.0, 10.0, 12.0, 11.0, 40.0];
        let e = Estimate::from_samples(&mut samples);
        // Sorted: 10 11 12 14 40; deviations from 12: 0 1 2 2 28.
        assert_eq!((e.median, e.min, e.mad, e.samples), (12.0, 10.0, 2.0, 5));
        assert_eq!(Estimate::point(7.0).mad, 0.0);
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("baseline", "gzip").id, "baseline/gzip");
        assert_eq!(BenchmarkId::from_parameter(32).id, "32");
    }

    const BASELINE: &str = r#"{
  "group": "functional",
  "benchmarks": {
    "record/gzip": {"ns_per_iter": 1000.0, "per_iter": 50000},
    "simulate/gzip": {"ns_per_iter": 2000.0},
    "noisy/gzip": {"ns_per_iter": 2000.0, "min_ns": 1500.0, "mad_ns": 150.0, "samples": 10}
  }
}
"#;

    #[test]
    fn baseline_parsing_extracts_all_entries() {
        let parsed = parse_baseline(BASELINE);
        let noisy = Estimate {
            median: 2000.0,
            min: 1500.0,
            mad: 150.0,
            samples: 10,
        };
        assert_eq!(
            parsed,
            vec![
                ("record/gzip".to_string(), Estimate::point(1000.0)),
                ("simulate/gzip".to_string(), Estimate::point(2000.0)),
                ("noisy/gzip".to_string(), noisy),
            ]
        );
    }

    fn record(id: &str, ns: f64) -> (String, Estimate) {
        (id.to_string(), Estimate::point(ns))
    }

    #[test]
    fn baseline_json_round_trips_through_the_parser() {
        let sampled = Estimate::from_samples(&mut [99.0, 97.0, 105.0]);
        let body = baseline_json(
            "serve",
            &[
                ("serve/p50", Estimate::point(1234.5), None),
                ("record/gzip", sampled, Some(50_000)),
            ],
        );
        assert!(body.contains("\"per_iter\": 50000"), "{body}");
        assert!(!body.lines().nth(3).unwrap().contains("mad_ns"), "{body}");
        assert_eq!(
            parse_baseline(&body),
            vec![
                ("serve/p50".to_string(), Estimate::point(1234.5)),
                ("record/gzip".to_string(), sampled),
            ]
        );
    }

    #[test]
    fn check_flags_only_regressions_beyond_limit() {
        let records = [
            record("record/gzip", 1200.0),   // +20%: within the limit
            record("simulate/gzip", 2600.0), // +30%: regression
            record("profile/gzip", 99.0),    // not in the baseline
        ];
        let report = check_report(&records, BASELINE);
        assert_eq!(report.len(), 4);
        assert!(!report[0].starts_with("REGRESSION"), "{}", report[0]);
        assert!(report[1].starts_with("REGRESSION"), "{}", report[1]);
        assert!(report[2].contains("no baseline entry"), "{}", report[2]);
        assert!(report[3].contains("noisy/gzip"), "{}", report[3]);
    }

    #[test]
    fn check_forgives_slowdowns_inside_the_noise_band() {
        let slower = |mad: f64| {
            let current = Estimate {
                median: 2600.0, // +30%, beyond the limit
                min: 2300.0,
                mad,
                samples: 10,
            };
            check_report(&[("noisy/gzip".to_string(), current)], BASELINE)
        };
        // Band 3 * (150 + 100) = 750 > 600: noise.
        assert!(
            !slower(100.0)[0].starts_with("REGRESSION"),
            "{:?}",
            slower(100.0)
        );
        // Band 3 * (150 + 0) = 450 < 600: a regression.
        assert!(
            slower(0.0)[0].starts_with("REGRESSION"),
            "{:?}",
            slower(0.0)
        );
    }

    #[test]
    fn check_reports_baseline_entries_that_were_not_measured() {
        let report = check_report(&[record("record/gzip", 900.0)], BASELINE);
        assert!(report.iter().all(|l| !l.starts_with("REGRESSION")));
        assert!(report
            .iter()
            .any(|l| l.contains("simulate/gzip") && l.contains("not measured")));
    }
}
