//! Per-event sim-vs-model penalty diffing.
//!
//! The per-component rows in [`crate::differential`] compare *aggregate*
//! CPI adders. This module drills one level deeper: it takes the
//! detailed simulator's typed miss-event stream (collected by
//! `Machine::run_traced`) and buckets the sim-vs-model penalty error
//! **per event class** and **by interval overlap** — whether the event's
//! cycle extent overlapped another miss event's, which is exactly the
//! regime where the first-order model's independence assumption (paper
//! §3) is expected to fray.
//!
//! The model side comes from [`fosm_core::EventPenalties`], whose
//! per-event values are constructed by inverting the adder arithmetic,
//! so the per-class `model_cpi` sums reported here reconcile with the
//! aggregate CPI adders of the same estimate *exactly* (to floating
//! point) — any residual a consumer observes is sim-vs-model error,
//! never bookkeeping drift.

use serde::{Deserialize, Serialize};

use fosm_core::events::EventPenalties;
use fosm_core::params::ProcessorParams;
use fosm_core::profile::ProgramProfile;
use fosm_obs::event::{EventKind, TraceEvent};

/// Relative-error bucket edges (fractions of the predicted penalty).
/// An event with relative error `r = (sim − model) / model` lands in
/// the first bucket whose upper edge exceeds `r`; `r` past the last
/// edge lands in the final open bucket. Seven buckets total.
pub const HISTOGRAM_EDGES: [f64; 6] = [-0.5, -0.2, -0.05, 0.05, 0.2, 0.5];

/// Human-readable labels for the seven histogram buckets.
pub const HISTOGRAM_LABELS: [&str; 7] = [
    "<-50%", "-50..-20", "-20..-5", "±5%", "+5..+20", "+20..+50", ">+50%",
];

/// Event classes diffed, in report order. These refine the traced
/// [`EventKind`]s: I-fetch misses split into the L2-hit and the
/// memory class because the model prices them differently.
pub const CLASSES: [&str; 4] = ["branch", "icache_l1", "icache_l2", "dcache"];

/// The traced event's diff class, or `None` for interval boundaries
/// (which carry no penalty and are not diffed).
pub fn class_of(event: &TraceEvent, params: &ProcessorParams) -> Option<&'static str> {
    match event.kind {
        EventKind::BranchMispredict => Some("branch"),
        EventKind::ICacheMiss => {
            if event.delta <= params.l2_latency as u64 {
                Some("icache_l1")
            } else {
                Some("icache_l2")
            }
        }
        EventKind::LongDCacheMiss => Some("dcache"),
        EventKind::IntervalBoundary => None,
    }
}

/// One event class's sim-vs-model comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventClassDiff {
    /// Class name (one of [`CLASSES`]).
    pub class: String,
    /// Events of this class in the simulator's trace.
    pub sim_events: u64,
    /// Events of this class the functional profile counted (what the
    /// model multiplied its per-event penalty by).
    pub model_events: u64,
    /// Simulator events whose cycle extent overlapped another miss
    /// event's extent (any class).
    pub overlapped: u64,
    /// Total cycles covered by this class's event extents.
    pub sim_cycles: u64,
    /// Mean simulator cycles per event (0 when no events).
    pub sim_per_event: f64,
    /// The model's effective predicted penalty per event.
    pub model_per_event: f64,
    /// Simulator-side CPI attribution: `sim_cycles / instructions`.
    pub sim_cpi: f64,
    /// Model-side CPI adder reassembled from the per-event penalty:
    /// `model_per_event × model_events / instructions`. Sums across
    /// classes reconcile exactly with the estimate's adders.
    pub model_cpi: f64,
    /// Per-event relative-error histogram for *isolated* events
    /// (seven buckets, edges in [`HISTOGRAM_EDGES`]).
    pub histogram: Vec<u64>,
    /// The same histogram for events that overlapped another miss
    /// event — where the model's independence assumption is stressed.
    pub histogram_overlapped: Vec<u64>,
}

impl EventClassDiff {
    /// `model_cpi − sim_cpi`.
    pub fn cpi_error(&self) -> f64 {
        self.model_cpi - self.sim_cpi
    }

    /// Relative CPI error in percent (0 when the sim side is ~0).
    pub fn error_pct(&self) -> f64 {
        if self.sim_cpi.abs() < 1e-12 {
            0.0
        } else {
            100.0 * self.cpi_error() / self.sim_cpi
        }
    }
}

/// The histogram bucket for a relative error `r`.
fn bucket(rel: f64) -> usize {
    HISTOGRAM_EDGES
        .iter()
        .position(|&edge| rel < edge)
        .unwrap_or(HISTOGRAM_EDGES.len())
}

/// Relative error of a simulator extent against a predicted penalty.
/// A zero prediction maps zero extents to the center bucket and any
/// real extent to the top overflow bucket.
fn relative_error(extent: u64, predicted: f64) -> f64 {
    if predicted.abs() < 1e-9 {
        if extent == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (extent as f64 - predicted) / predicted
    }
}

/// Diffs a traced event stream against the model's per-event
/// penalties, one [`EventClassDiff`] per entry of [`CLASSES`].
///
/// `profile` must be the functional profile the penalties were derived
/// from (it supplies the model-side event counts and the instruction
/// total); `params` classifies I-fetch misses by level.
pub fn diff(
    events: &[TraceEvent],
    penalties: &EventPenalties,
    profile: &ProgramProfile,
    params: &ProcessorParams,
) -> Vec<EventClassDiff> {
    let n = profile.instructions.max(1) as f64;

    // Overlap marking: sort miss events by extent start; an event
    // overlaps when it starts before some earlier event ends, or when
    // its successor starts before it ends. Touching endpoints are
    // adjacent, not overlapping.
    let mut miss: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind != EventKind::IntervalBoundary)
        .collect();
    miss.sort_by_key(|e| e.sort_key());
    let mut overlapped = vec![false; miss.len()];
    let mut max_end = 0u64;
    for i in 0..miss.len() {
        if i > 0 && miss[i].start < max_end {
            overlapped[i] = true;
        }
        if i + 1 < miss.len() && miss[i + 1].start < miss[i].end {
            overlapped[i] = true;
        }
        max_end = max_end.max(miss[i].end);
    }

    CLASSES
        .iter()
        .map(|&class| {
            let (model_events, model_per_event) = match class {
                "branch" => (profile.mispredicts, penalties.branch),
                "icache_l1" => (profile.icache_short_misses, penalties.icache_l1),
                "icache_l2" => (profile.icache_long_misses, penalties.icache_l2),
                "dcache" => (profile.long_miss_distribution.misses(), penalties.dcache),
                _ => unreachable!("CLASSES is exhaustive"),
            };
            let mut d = EventClassDiff {
                class: class.to_string(),
                sim_events: 0,
                model_events,
                overlapped: 0,
                sim_cycles: 0,
                sim_per_event: 0.0,
                model_per_event,
                sim_cpi: 0.0,
                model_cpi: model_per_event * model_events as f64 / n,
                histogram: vec![0; HISTOGRAM_LABELS.len()],
                histogram_overlapped: vec![0; HISTOGRAM_LABELS.len()],
            };
            for (event, &lapped) in miss.iter().zip(&overlapped) {
                if class_of(event, params) != Some(class) {
                    continue;
                }
                d.sim_events += 1;
                d.sim_cycles += event.extent();
                let slot = bucket(relative_error(event.extent(), model_per_event));
                if lapped {
                    d.overlapped += 1;
                    d.histogram_overlapped[slot] += 1;
                } else {
                    d.histogram[slot] += 1;
                }
            }
            if d.sim_events > 0 {
                d.sim_per_event = d.sim_cycles as f64 / d.sim_events as f64;
            }
            d.sim_cpi = d.sim_cycles as f64 / n;
            d
        })
        .collect()
}

/// Renders the per-class table plus error histograms — the format
/// `fosm trace` prints and the CI accuracy gate attaches on failure.
pub fn render(diffs: &[EventClassDiff]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>7} {:>7} {:>7} {:>9} {:>9} {:>9} {:>9} {:>8}\n",
        "class", "sim#", "model#", "overlap", "sim/ev", "model/ev", "sim CPI", "mod CPI", "err%"
    ));
    for d in diffs {
        out.push_str(&format!(
            "{:<10} {:>7} {:>7} {:>7} {:>9.1} {:>9.1} {:>9.4} {:>9.4} {:>+7.1}%\n",
            d.class,
            d.sim_events,
            d.model_events,
            d.overlapped,
            d.sim_per_event,
            d.model_per_event,
            d.sim_cpi,
            d.model_cpi,
            d.error_pct()
        ));
    }
    out.push_str("\nper-event relative error (isolated | overlapped):\n");
    for d in diffs {
        if d.sim_events == 0 {
            continue;
        }
        out.push_str(&format!("  {:<10}", d.class));
        for (i, label) in HISTOGRAM_LABELS.iter().enumerate() {
            out.push_str(&format!(
                " {label}:{}|{}",
                d.histogram[i], d.histogram_overlapped[i]
            ));
        }
        out.push('\n');
    }
    out
}

/// Merges per-case diffs class-wise (counts and histograms add; the
/// per-event means and CPIs re-derive from the merged totals using the
/// summed instruction count). Used by the sweep-level report summary.
pub fn merge(per_case: &[Vec<EventClassDiff>], instructions: u64) -> Vec<EventClassDiff> {
    let n = instructions.max(1) as f64;
    CLASSES
        .iter()
        .map(|&class| {
            let mut merged = EventClassDiff {
                class: class.to_string(),
                sim_events: 0,
                model_events: 0,
                overlapped: 0,
                sim_cycles: 0,
                sim_per_event: 0.0,
                model_per_event: 0.0,
                sim_cpi: 0.0,
                model_cpi: 0.0,
                histogram: vec![0; HISTOGRAM_LABELS.len()],
                histogram_overlapped: vec![0; HISTOGRAM_LABELS.len()],
            };
            let mut predicted_cycles = 0.0;
            for diffs in per_case {
                let Some(d) = diffs.iter().find(|d| d.class == class) else {
                    continue;
                };
                merged.sim_events += d.sim_events;
                merged.model_events += d.model_events;
                merged.overlapped += d.overlapped;
                merged.sim_cycles += d.sim_cycles;
                predicted_cycles += d.model_per_event * d.model_events as f64;
                for i in 0..HISTOGRAM_LABELS.len() {
                    merged.histogram[i] += d.histogram[i];
                    merged.histogram_overlapped[i] += d.histogram_overlapped[i];
                }
            }
            if merged.sim_events > 0 {
                merged.sim_per_event = merged.sim_cycles as f64 / merged.sim_events as f64;
            }
            if merged.model_events > 0 {
                merged.model_per_event = predicted_cycles / merged.model_events as f64;
            }
            merged.sim_cpi = merged.sim_cycles as f64 / n;
            merged.model_cpi = predicted_cycles / n;
            merged
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fosm_cache::BurstDistribution;
    use fosm_depgraph::{IwCharacteristic, PowerLaw};

    fn profile(mispredicts: u64, icache_short: u64, long_misses: u64) -> ProgramProfile {
        ProgramProfile {
            name: "synthetic".into(),
            instructions: 100_000,
            iw: IwCharacteristic::new(PowerLaw::square_root(), 1.0).unwrap(),
            cond_branches: 20_000,
            mispredicts,
            mispredict_burst_mean: 1.0,
            icache_short_misses: icache_short,
            icache_long_misses: 0,
            dcache_short_misses: 0,
            long_miss_distribution: BurstDistribution::all_isolated(long_misses),
            long_miss_distribution_paper: BurstDistribution::all_isolated(long_misses),
            dtlb_miss_distribution: BurstDistribution::default(),
            dtlb_walk_latency: 0,
            fu_mix: [0; 5],
        }
    }

    fn penalties() -> EventPenalties {
        EventPenalties {
            branch: 10.0,
            icache_l1: 8.0,
            icache_l2: 200.0,
            dcache: 180.0,
            dtlb: 0.0,
        }
    }

    #[test]
    fn buckets_cover_the_line() {
        assert_eq!(bucket(-1.0), 0);
        assert_eq!(bucket(-0.3), 1);
        assert_eq!(bucket(-0.1), 2);
        assert_eq!(bucket(0.0), 3);
        assert_eq!(bucket(0.1), 4);
        assert_eq!(bucket(0.3), 5);
        assert_eq!(bucket(9.0), 6);
        assert_eq!(bucket(f64::INFINITY), 6);
        assert_eq!(HISTOGRAM_EDGES.len() + 1, HISTOGRAM_LABELS.len());
    }

    #[test]
    fn overlap_marking_is_symmetric() {
        let params = ProcessorParams::baseline();
        // Two overlapping branch events and one isolated one.
        let events = [
            TraceEvent::new(EventKind::BranchMispredict, 1, 10, 25, 0),
            TraceEvent::new(EventKind::BranchMispredict, 2, 20, 30, 0),
            TraceEvent::new(EventKind::BranchMispredict, 3, 100, 110, 0),
            // Boundaries never participate in overlap marking.
            TraceEvent::new(EventKind::IntervalBoundary, 0, 0, 200, 0),
        ];
        let d = diff(&events, &penalties(), &profile(3, 0, 0), &params);
        let branch = &d[0];
        assert_eq!(branch.sim_events, 3);
        assert_eq!(branch.overlapped, 2, "both partners of the pair count");
        let isolated: u64 = branch.histogram.iter().sum();
        let lapped: u64 = branch.histogram_overlapped.iter().sum();
        assert_eq!((isolated, lapped), (1, 2));
    }

    #[test]
    fn touching_extents_are_adjacent_not_overlapping() {
        let params = ProcessorParams::baseline();
        let events = [
            TraceEvent::new(EventKind::BranchMispredict, 1, 10, 20, 0),
            TraceEvent::new(EventKind::BranchMispredict, 2, 20, 30, 0),
        ];
        let d = diff(&events, &penalties(), &profile(2, 0, 0), &params);
        assert_eq!(d[0].overlapped, 0);
    }

    #[test]
    fn classes_split_and_cpis_reconcile() {
        let params = ProcessorParams::baseline();
        let pen = penalties();
        let prof = profile(2, 1, 1);
        let l2 = params.l2_latency as u64;
        let mem = params.mem_latency as u64;
        let events = [
            TraceEvent::new(EventKind::BranchMispredict, 1, 0, 12, 0),
            TraceEvent::new(EventKind::BranchMispredict, 2, 50, 58, 0),
            TraceEvent::new(EventKind::ICacheMiss, 3, 100, 100 + l2, l2),
            TraceEvent::new(EventKind::LongDCacheMiss, 4, 300, 480, mem),
        ];
        let d = diff(&events, &pen, &prof, &params);
        let by = |c: &str| d.iter().find(|x| x.class == c).unwrap();
        assert_eq!(by("branch").sim_events, 2);
        assert_eq!(by("branch").sim_cycles, 20);
        assert_eq!(by("icache_l1").sim_events, 1);
        assert_eq!(by("icache_l2").sim_events, 0);
        assert_eq!(by("dcache").sim_events, 1);

        // The model side is per_event × count / n by construction, so
        // the class sums equal EventPenalties::miss_cpi exactly.
        let model_sum: f64 = d.iter().map(|x| x.model_cpi).sum();
        assert!((model_sum - pen.miss_cpi(&prof)).abs() < 1e-12);

        // The sim side is total extent cycles over instructions.
        let n = prof.instructions as f64;
        assert!((by("dcache").sim_cpi - 180.0 / n).abs() < 1e-12);
        assert_eq!(by("dcache").histogram[3], 1, "exact match is center");
    }

    #[test]
    fn zero_prediction_buckets_do_not_divide_by_zero() {
        let params = ProcessorParams::baseline();
        let pen = EventPenalties {
            branch: 0.0,
            icache_l1: 0.0,
            icache_l2: 0.0,
            dcache: 0.0,
            dtlb: 0.0,
        };
        let events = [
            TraceEvent::new(EventKind::BranchMispredict, 1, 0, 0, 0),
            TraceEvent::new(EventKind::BranchMispredict, 2, 5, 25, 0),
        ];
        let d = diff(&events, &pen, &profile(2, 0, 0), &params);
        assert_eq!(d[0].histogram[3], 1, "0 vs 0 is a perfect match");
        assert_eq!(d[0].histogram[6], 1, "nonzero vs 0 overflows high");
    }

    #[test]
    fn merge_adds_counts_and_rederives_rates() {
        let params = ProcessorParams::baseline();
        let pen = penalties();
        let prof = profile(1, 0, 0);
        let a = diff(
            &[TraceEvent::new(EventKind::BranchMispredict, 1, 0, 12, 0)],
            &pen,
            &prof,
            &params,
        );
        let b = diff(
            &[TraceEvent::new(EventKind::BranchMispredict, 1, 0, 8, 0)],
            &pen,
            &prof,
            &params,
        );
        let merged = merge(&[a, b], 2 * prof.instructions);
        let branch = &merged[0];
        assert_eq!(branch.sim_events, 2);
        assert_eq!(branch.sim_cycles, 20);
        assert_eq!(branch.model_events, 2);
        assert!((branch.sim_per_event - 10.0).abs() < 1e-12);
        assert!((branch.model_per_event - 10.0).abs() < 1e-12);
        assert!((branch.sim_cpi - 20.0 / 200_000.0).abs() < 1e-15);
        let rendered = render(&merged);
        assert!(rendered.contains("branch"));
        assert!(rendered.contains("err%"));
    }
}
