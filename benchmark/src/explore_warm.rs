//! `explore-warm`: design-space sweeps over profiles built in set-up.
//!
//! Timed: `sweep_profile` of each benchmark's profile over a
//! 147,456-point grid, then `merge_frontiers`. Only the model and the
//! Pareto frontier do work here; trace generation, caches and the
//! simulator do none, so a change to those layers should show no
//! change on this workload. One operation is one profile's sweep.

use std::sync::Arc;
use std::time::Instant;

use fosm_bench::store::ArtifactStore;
use fosm_core::{FirstOrderModel, Probe, ProbeBank, ProcessorParams, ProgramProfile};
use fosm_explore::cost::{hardware_cost, machine_cost};
use fosm_explore::{
    merge_frontiers, sweep_profile, ConfigPoint, DesignPoint, HardwareAxes, HardwareVariant,
    MachineGrid, ParetoFrontier, ShardResult, ShardTag,
};
use fosm_workloads::BenchmarkSpec;

use crate::ledger::{self, Recorder, ROOT};
use crate::measure::{self, Ctx, Outcome, Timing};

/// Instructions per profile.
const INSTS: u64 = 120_000;

/// 8 widths × 8 windows × 8 ROBs × 8 depths × 6 L2 × 6 memory
/// latencies = 147,456 configurations per profile.
fn grid() -> MachineGrid {
    MachineGrid {
        widths: (1..=8).collect(),
        win_sizes: (1..=8).map(|k| 8 * k).collect(),
        rob_sizes: vec![64, 96, 128, 160, 192, 256, 320, 384],
        pipe_depths: vec![3, 5, 7, 9, 11, 13, 16, 20],
        l2_latencies: vec![6, 8, 10, 12, 14, 16],
        mem_latencies: vec![100, 150, 200, 250, 300, 400],
    }
}

/// Builds the full-probe profile of every benchmark on a fresh store.
fn profiles(seed: u64) -> Result<Vec<Arc<ProgramProfile>>, String> {
    let store = ArtifactStore::new();
    let params = ProcessorParams::baseline();
    BenchmarkSpec::all()
        .iter()
        .map(|spec| {
            let bank = ProbeBank::from(vec![Probe::new(spec.name.clone())]);
            store
                .profile_many(&params, &bank, spec, INSTS, seed)
                .map(|mut p| p.remove(0))
                .map_err(|e| format!("profile of {} failed: {e}", spec.name))
        })
        .collect()
}

fn tag(workload: usize) -> ShardTag {
    ShardTag {
        workload: workload as u32,
        variant: 0,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let grid = grid();
    if let Err(e) = grid.validate() {
        out.check(Some(format!("invalid grid: {e}")));
        return out;
    }
    let variant = HardwareAxes::baseline_only().variants()[0];
    let model = FirstOrderModel::new(ProcessorParams::baseline());

    let profiles = match measure::time_setups(&mut out, || profiles(ctx.seed)) {
        Ok(p) => p,
        Err(e) => {
            out.check(Some(e));
            return out;
        }
    };

    let mut timing = Timing::default();
    let mut frontier = ParetoFrontier::new();
    measure::repeat_for(ctx.seconds, |_| {
        let mut shards = Vec::with_capacity(profiles.len());
        for (i, profile) in profiles.iter().enumerate() {
            let t = Instant::now();
            let shard = sweep_profile(&model, profile, &grid, &variant, tag(i));
            timing.op(i, t.elapsed());
            match shard {
                Ok(s) => shards.push(s),
                Err(e) => out.check(Some(format!("sweep of profile {i} failed: {e}"))),
            }
        }
        frontier = merge_frontiers(&shards);
        check(&mut out, &frontier, &profiles);
    });
    timing.report(&mut out);
    measure::own_peak_rss(&mut out);
    out.named.push((
        "mconfigs_per_s",
        out.e2e["ops_per_s"] * grid.len() as f64 / 1e6,
        "1/s",
    ));

    if ctx.trace {
        let untraced_s = timing.median_rep_s();
        traced(
            &model, &profiles, &grid, &variant, &frontier, untraced_s, &mut out,
        );
    }
    out
}

/// The oracle: every frontier point re-evaluated through the scalar
/// model reproduces its IPC bit for bit.
fn check(out: &mut Outcome, frontier: &ParetoFrontier, profiles: &[Arc<ProgramProfile>]) {
    for point in frontier.points() {
        let scalar = FirstOrderModel::new(fosm_explore::params_of(&point.config))
            .evaluate(&profiles[point.workload as usize]);
        out.expect(
            scalar.is_ok_and(|e| (1.0 / e.total_cpi()).to_bits() == point.ipc.to_bits()),
            || {
                format!(
                    "frontier point {:?} differs from the scalar model",
                    point.config
                )
            },
        );
    }
}

/// One traced repetition: `sweep_profile`'s loop rebuilt from the
/// public pieces — `prepare`, `structural`, `evaluate_at` and
/// `ParetoFrontier::offer` — with each spanned per structural block.
fn traced(
    model: &FirstOrderModel,
    profiles: &[Arc<ProgramProfile>],
    grid: &MachineGrid,
    variant: &HardwareVariant,
    untraced_frontier: &ParetoFrontier,
    untraced_s: f64,
    out: &mut Outcome,
) {
    let base_cost = hardware_cost(variant);
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut problems = Vec::new();
    let mut configs = 0u64;
    let merged = rec.span(ROOT, 0, |rec| {
        let mut shards = Vec::with_capacity(profiles.len());
        let mut points: Vec<DesignPoint> = Vec::new();
        for (i, profile) in profiles.iter().enumerate() {
            let req = i as u64;
            let prepared = match rec.span("core.prepare", req, |_| model.prepare(profile)) {
                Ok(p) => p,
                Err(e) => {
                    problems.push(format!("traced prepare of profile {i} failed: {e}"));
                    continue;
                }
            };
            let mut frontier = ParetoFrontier::new();
            let mut best_ipc: Option<DesignPoint> = None;
            for &width in &grid.widths {
                for &win_size in &grid.win_sizes {
                    let ctx = rec.span("core.structural", req, |_| {
                        prepared.structural(width, win_size)
                    });
                    rec.span("core.evaluate_at", req, |_| {
                        points.clear();
                        for &rob_size in &grid.rob_sizes {
                            for &l2_latency in &grid.l2_latencies {
                                for &mem_latency in &grid.mem_latencies {
                                    for &pipe_depth in &grid.pipe_depths {
                                        let config = ConfigPoint {
                                            width,
                                            win_size,
                                            rob_size,
                                            pipe_depth,
                                            l2_latency,
                                            mem_latency,
                                        };
                                        let est = prepared.evaluate_at(
                                            &ctx,
                                            rob_size,
                                            pipe_depth,
                                            l2_latency,
                                            mem_latency,
                                        );
                                        points.push(DesignPoint {
                                            config,
                                            variant: 0,
                                            workload: i as u32,
                                            ipc: 1.0 / est.total_cpi(),
                                            cost: base_cost + machine_cost(&config),
                                        });
                                    }
                                }
                            }
                        }
                    });
                    configs += points.len() as u64;
                    rec.span("explore.offer", req, |_| {
                        for &point in &points {
                            frontier.offer(point);
                            match best_ipc {
                                Some(best) if best.ipc >= point.ipc => {}
                                _ => best_ipc = Some(point),
                            }
                        }
                    });
                }
            }
            shards.push(ShardResult {
                tag: tag(i),
                configs: grid.len(),
                frontier,
                best_ipc,
            });
        }
        rec.span("explore.merge", 0, |_| merge_frontiers(&shards))
    });
    if merged != *untraced_frontier {
        problems.push("the traced sweep's frontier differs from sweep_profile's".to_string());
    }
    for p in problems {
        out.check(Some(p));
    }
    out.layers
        .insert("explore.frontier_points", merged.len() as f64);
    let spans = rec.into_spans();
    let ledger = ledger::ledger(&spans);
    out.layers.insert(
        "core.evaluate_at_ns",
        ledger.get("core.evaluate_at") * 1e9 / configs.max(1) as f64,
    );
    out.set_ledger(ledger, spans, untraced_s);
}
