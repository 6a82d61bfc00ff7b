//! Spans the benchmark records around its own calls into each layer,
//! and the ledger that adds their self times back up to wall time —
//! the way the paper's CPI adders add up to total CPI (eq. 1).
//!
//! Spans are kept in memory and written out when the run ends. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.
//!
//! Some layers run fused inside one call (`collect_many` feeds the
//! caches, the predictors and the IW sweep from one replay), so they
//! cannot be spanned from outside. The traced run instead times them
//! as separate *decomposition passes* inside a [`PASSES`] span. Each
//! pass names the fused span it splits; the ledger moves the pass's
//! time (its fastest run, when repeated) from the fused span to the
//! pass, and leaves the fused span with the residual. Everything under
//! [`PASSES`] is extra work the untraced run does not do, so it is
//! excluded from wall time.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the span covering one whole traced repetition. Its self
/// time is the unattributed part of the ledger.
pub const ROOT: &str = "rep";

/// Name of the span holding decomposition passes.
pub const PASSES: &str = "ledger.passes";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, nanoseconds after the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the recorder's origin.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// Request (or operation) id shared by the spans of one request.
    pub req: u64,
    /// Recording thread.
    pub tid: u32,
    /// For a decomposition pass: the fused span it splits.
    pub splits: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`. Recorders of
    /// one run share an origin so their spans line up.
    pub fn new(origin: Instant, tid: u32) -> Recorder {
        Recorder {
            origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn record<T>(
        &mut self,
        name: &'static str,
        req: u64,
        splits: Option<usize>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, usize) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
            tid: self.tid,
            splits,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        self.record(name, req, None, f).0
    }

    /// Like [`span`](Self::span), also returning the span's id so a
    /// later decomposition pass can name it.
    pub fn span_id<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, usize) {
        self.record(name, req, None, f)
    }

    /// Runs a decomposition pass of layer `name` that splits the fused
    /// span `fused`. Call it inside a [`PASSES`] span.
    pub fn pass<T>(
        &mut self,
        name: &'static str,
        req: u64,
        fused: usize,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        self.record(name, req, Some(fused), f).0
    }

    /// Moves another thread's spans under the currently open span.
    pub fn adopt(&mut self, other: Recorder) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s.splits = s.splits.map(|f| f + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer self times that add back up to the traced wall time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Root span time minus decomposition passes: the wall time of the
    /// work the untraced run does.
    pub wall_s: f64,
    /// Self seconds per layer, after passes are split out of their
    /// fused spans.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Self time of the root spans: time no layer span covers.
    pub unattributed_s: f64,
    /// Sum of every self time, root included. Equals `wall_s` when one
    /// thread recorded everything; with several threads each thread's
    /// time counts, and shares are taken of this total.
    pub total_s: f64,
}

impl Ledger {
    /// Self seconds of one layer (0 when it never ran).
    pub fn get(&self, layer: &str) -> f64 {
        self.self_s.get(layer).copied().unwrap_or(0.0)
    }

    /// Unattributed time as a share of the total.
    pub fn unattributed_frac(&self) -> f64 {
        if self.total_s > 0.0 {
            self.unattributed_s / self.total_s
        } else {
            0.0
        }
    }

    /// A table of every layer's self time and share, largest first.
    pub fn render(&self) -> String {
        let mut rows: Vec<(&str, f64)> = self.self_s.iter().map(|(k, v)| (*k, *v)).collect();
        rows.push(("(unattributed)", self.unattributed_s));
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut out = format!("  {:<26} {:>12} {:>8}\n", "layer", "self_s", "share");
        for (name, secs) in rows {
            let share = if self.total_s > 0.0 {
                100.0 * secs / self.total_s
            } else {
                0.0
            };
            out.push_str(&format!("  {name:<26} {secs:>12.6} {share:>7.2}%\n"));
        }
        out.push_str(&format!(
            "  {:<26} {:>12.6} (wall {:.6} s)\n",
            "total", self.total_s, self.wall_s
        ));
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Each span's self time in nanoseconds.
fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.dur_ns() - covered_ns(kids, span.start_ns, span.end_ns))
        .collect()
}

/// Builds the ledger of a traced run.
pub fn ledger(spans: &[Span]) -> Ledger {
    let self_ns = self_times_ns(spans);
    let secs = |ns: u64| ns as f64 * 1e-9;
    // Parents always precede their children, so one forward pass
    // marks every span inside a PASSES subtree.
    let mut in_passes = vec![false; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        in_passes[i] = span.name == PASSES || span.parent.is_some_and(|p| in_passes[p]);
    }
    let mut out = Ledger::default();
    // A pass repeated on one fused span splits off its fastest run:
    // noise only ever adds time to a deterministic computation.
    let mut splits: BTreeMap<(usize, &'static str), f64> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let own = secs(self_ns[i]);
        if span.parent.is_none() {
            out.wall_s += secs(span.dur_ns());
        }
        if span.name == PASSES {
            out.wall_s -= secs(span.dur_ns());
        } else if let Some(fused) = span.splits {
            splits
                .entry((fused, span.name))
                .and_modify(|best| *best = best.min(own))
                .or_insert(own);
        } else if in_passes[i] {
            // Set-up inside a pass container (decoding a slice, …)
            // is not work the untraced run does.
        } else if span.name == ROOT {
            out.unattributed_s += own;
        } else {
            *out.self_s.entry(span.name).or_default() += own;
        }
    }
    for ((fused, name), secs) in splits {
        *out.self_s.entry(name).or_default() += secs;
        *out.self_s.entry(spans[fused].name).or_default() -= secs;
    }
    out.total_s = out.unattributed_s + out.self_s.values().sum::<f64>();
    out
}

/// The spans as a Chrome trace-event JSON document (load it in
/// Perfetto or `chrome://tracing`). Ids, parents, request ids and
/// split targets ride along in each event's `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let opt = |v: Option<usize>| v.map_or(-1, |v| v as i64);
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{},\"req\":{},\"splits\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            opt(s.parent),
            s.req,
            opt(s.splits),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
            tid: 0,
            splits: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two threads' spans under one root overlap in time.
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("x", 0, 60, Some(0)),
            span("y", 40, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 60, 50]);
        let l = ledger(&spans);
        assert!((l.wall_s - 100e-9).abs() < 1e-18);
        assert!((l.total_s - 120e-9).abs() < 1e-18);
    }

    #[test]
    fn passes_split_their_fused_span_and_leave_wall_time() {
        let mut spans = vec![
            span(ROOT, 0, 100, None),
            span("fused", 10, 40, Some(0)),
            span("inner", 20, 30, Some(1)),
            span("c", 50, 60, Some(0)),
            span(PASSES, 60, 90, Some(0)),
            span("part", 65, 72, Some(4)),
            span("part", 75, 84, Some(4)),
        ];
        spans[5].splits = Some(1);
        spans[6].splits = Some(1);
        let l = ledger(&spans);
        let ns = |v: f64| (v * 1e9).round() as i64;
        // Passes and their container leave the wall: 100 - 30.
        assert_eq!(ns(l.wall_s), 70);
        // Fused self 20, minus the faster (7 ns) of the two passes.
        assert_eq!(ns(l.get("fused")), 13);
        assert_eq!(ns(l.get("part")), 7);
        assert_eq!(ns(l.get("inner")), 10);
        assert_eq!(ns(l.get("c")), 10);
        assert_eq!(ns(l.unattributed_s), 30);
        // The ledger adds back up to wall time.
        assert_eq!(ns(l.total_s), ns(l.wall_s));
        assert!(!l.self_s.contains_key(PASSES));
    }

    #[test]
    fn recorder_nests_and_adopts() {
        let origin = Instant::now();
        let mut main = Recorder::new(origin, 0);
        main.span(ROOT, 0, |rec| {
            let (_, fused) = rec.span_id("fused", 1, |rec| rec.span("child", 1, |_| ()));
            rec.span(PASSES, 1, |rec| rec.pass("part", 1, fused, |_| ()));
            let mut worker = Recorder::new(origin, 1);
            worker.span("remote", 2, |_| ());
            rec.adopt(worker);
        });
        let spans = main.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, [ROOT, "fused", "child", PASSES, "part", "remote"]);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[4].splits, Some(1));
        assert_eq!(spans[5].parent, Some(0));
        assert_eq!(spans[5].tid, 1);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let json = chrome_json(&spans);
        let parsed: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(parsed.get("traceEvents").is_some());
    }
}
