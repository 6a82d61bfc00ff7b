//! Criterion benches: the functional-level toolchain the model's
//! inputs come from — trace generation, cache simulation, branch
//! prediction, and the idealized IW analysis.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fosm_bench::harness;
use fosm_branch::{Gshare, Predictor};
use fosm_cache::{AccessKind, Hierarchy, HierarchyConfig};
use fosm_core::model::FirstOrderModel;
use fosm_core::profile::{ProbeBank, ProfileCollector};
use fosm_depgraph::iw;
use fosm_explore::engine::{sweep_profile, ShardTag};
use fosm_explore::grid::{HardwareAxes, MachineGrid};
use fosm_isa::LatencyTable;
use fosm_sim::{Machine, MachineConfig, SimulationSet};
use fosm_trace::{PackedTrace, TraceSource};
use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};
use std::hint::black_box;

const TRACE_LEN: u64 = 50_000;

/// The five simulation-set probes a validation case profiles (full
/// machine plus the four single-source idealizations) — the workload
/// the fused collector was built to accelerate.
fn validation_bank(name: &str) -> ProbeBank {
    SimulationSet::ALL
        .into_iter()
        .map(|set| harness::probe_of(&MachineConfig::baseline().simulation_set(set), name))
        .collect()
}

fn functional_toolchain(c: &mut Criterion) {
    let spec = BenchmarkSpec::gzip();
    let trace = PackedTrace::record(&mut WorkloadGenerator::new(&spec, harness::SEED), TRACE_LEN);
    let insts = trace.decode();
    let params = harness::params_of(&MachineConfig::baseline());

    let mut group = c.benchmark_group("functional");
    group.throughput(Throughput::Elements(TRACE_LEN));

    group.bench_function("workload-generation", |b| {
        b.iter(|| {
            let mut generator = WorkloadGenerator::new(&spec, 42);
            let mut last = None;
            for _ in 0..TRACE_LEN {
                last = generator.next_inst();
            }
            black_box(last)
        })
    });

    group.bench_function("cache-hierarchy", |b| {
        b.iter(|| {
            let mut h = Hierarchy::new(HierarchyConfig::baseline()).unwrap();
            let mut hits = 0u64;
            for inst in &insts {
                if h.access(AccessKind::IFetch, inst.pc).is_l1_hit() {
                    hits += 1;
                }
                if let Some(addr) = inst.mem_addr {
                    h.access(AccessKind::Load, addr);
                }
            }
            black_box(hits)
        })
    });

    group.bench_function("gshare-prediction", |b| {
        b.iter(|| {
            let mut p = Gshare::new(13);
            let mut correct = 0u64;
            for inst in &insts {
                // Conditional branches without an outcome record are
                // skipped, not unwrapped: a malformed trace must not
                // panic the benchmark harness.
                if let (true, Some(branch)) = (inst.op.is_cond_branch(), inst.branch) {
                    if p.observe(inst.pc, branch.taken) {
                        correct += 1;
                    }
                }
            }
            black_box(correct)
        })
    });

    // The IW kernel the profiler runs (`IwSweep`, behind the slice
    // wrappers), against the cycle-stepped oracle it is tested
    // against.
    group.bench_function("iw-analysis-w64", |b| {
        b.iter(|| black_box(iw::ipc_at_window(&insts, 64, &LatencyTable::unit())))
    });

    group.bench_function("iw-analysis-w64-reference", |b| {
        b.iter(|| {
            black_box(iw::reference::ipc_at_window(
                &insts,
                64,
                &LatencyTable::unit(),
            ))
        })
    });

    group.bench_function("iw-characteristic-all-windows", |b| {
        b.iter(|| {
            black_box(iw::characteristic(
                &insts,
                &iw::DEFAULT_WINDOW_SIZES,
                &LatencyTable::unit(),
            ))
        })
    });

    // Tracer overhead budget: `Machine::run` collects no miss events
    // and reads no global, so this must track the pre-tracer baseline
    // within the noop budget. The traced variant collects every miss
    // event and bounds the enabled cost.
    group.bench_function("detailed-sim-tracer-off", |b| {
        let config = MachineConfig::baseline();
        b.iter(|| black_box(Machine::new(config.clone()).run(&mut trace.replay())))
    });

    group.bench_function("detailed-sim-traced", |b| {
        let config = MachineConfig::baseline();
        b.iter(|| black_box(Machine::new(config.clone()).run_traced(&mut trace.replay())))
    });

    group.bench_function("full-profile-collection", |b| {
        b.iter(|| {
            black_box(
                ProfileCollector::new(&params)
                    .collect(&mut trace.replay(), u64::MAX)
                    .unwrap(),
            )
        })
    });

    // The five-variant validation workload, both ways: five sequential
    // replays (the pre-fusion shape of `run_case`) vs one fused replay
    // through the probe bank. The fused entry is the PR's headline
    // number; the gate requires >= 2.5x between the two.
    let bank = validation_bank(&spec.name);
    group.bench_function("full-profile-sequential-x5", |b| {
        b.iter(|| {
            for probe in bank.probes() {
                black_box(
                    ProfileCollector::new(&params)
                        .with_hierarchy(probe.hierarchy)
                        .with_predictor(probe.predictor)
                        .with_name(probe.name.clone())
                        .collect(&mut trace.replay(), u64::MAX)
                        .unwrap(),
                );
            }
        })
    });

    group.bench_function("full-profile-fused-x5", |b| {
        b.iter(|| {
            black_box(
                ProfileCollector::new(&params)
                    .collect_many(&mut trace.replay(), &bank, u64::MAX)
                    .unwrap(),
            )
        })
    });

    // Model evaluation, both granularities: one configuration per call
    // (`FirstOrderModel::evaluate`, which prepares the profile and
    // walks the transients afresh every time) vs the explore engine
    // streaming a 1000-config grid — 5 widths × 5 windows × 40 depths
    // — through one prepared workload. `--check` fails if either side
    // drifts.
    let profile = ProfileCollector::new(&params)
        .collect(&mut trace.replay(), u64::MAX)
        .unwrap();
    let model = FirstOrderModel::new(params.clone());

    group.throughput(Throughput::Elements(1));
    group.bench_function("model-eval-scalar", |b| {
        b.iter(|| black_box(model.evaluate(&profile).unwrap()))
    });

    let grid = MachineGrid {
        widths: vec![1, 2, 4, 8, 16],
        win_sizes: vec![16, 32, 48, 64, 96],
        rob_sizes: vec![128],
        pipe_depths: (1..=40).collect(),
        l2_latencies: vec![8],
        mem_latencies: vec![200],
    };
    grid.validate().unwrap();
    assert_eq!(grid.len(), 1000);
    let variant = HardwareAxes::baseline_only().variants()[0];
    let tag = ShardTag {
        workload: 0,
        variant: 0,
    };
    group.throughput(Throughput::Elements(grid.len()));
    group.bench_function("model-eval-batch-x1k", |b| {
        b.iter(|| black_box(sweep_profile(&model, &profile, &grid, &variant, tag).unwrap()))
    });

    // The two production replay paths, folding the same full `Inst`
    // stream: the paged FileReplay cursor over a corpus file (what
    // `profile_many_corpus` and `simulate_corpus` read) vs the
    // in-memory PackedTrace cursor (what workload profiling reads).
    let corpus_path = std::env::temp_dir().join(format!(
        "fosm-bench-functional-corpus-{}.fct",
        std::process::id()
    ));
    fosm_trace::write_corpus(&corpus_path, &trace).expect("write bench corpus");
    let corpus = fosm_trace::CorpusFile::open(&corpus_path).expect("open bench corpus");

    group.throughput(Throughput::Elements(TRACE_LEN));
    group.bench_function("corpus-replay-cold", |b| {
        b.iter(|| {
            let mut replay = corpus.replay();
            let mut acc = 0u64;
            while let Some(inst) = replay.next_inst() {
                acc ^= inst.pc ^ inst.mem_addr.unwrap_or(0);
            }
            assert!(replay.take_error().is_none());
            black_box(acc)
        })
    });

    group.bench_function("packed-replay", |b| {
        b.iter(|| {
            let mut replay = trace.replay();
            let mut acc = 0u64;
            while let Some(inst) = replay.next_inst() {
                acc ^= inst.pc ^ inst.mem_addr.unwrap_or(0);
            }
            black_box(acc)
        })
    });

    // Telemetry primitive budget: histogram recording sits on the
    // daemon's per-request path (six samples per request), so the
    // per-sample cost must stay down at relaxed-atomic-increment
    // scale; merge is the scoped-registry absorb path (64 saturating
    // bucket adds), paid once per request per histogram.
    let (hist_a, hist_b) = {
        let a = fosm_obs::Histogram::new();
        let b = fosm_obs::Histogram::new();
        for i in 0..1_000u64 {
            a.record(i * 37);
            b.record(i * 91);
        }
        (a.snapshot(), b.snapshot())
    };
    group.throughput(Throughput::Elements(1_000));
    group.bench_function("hist-record-x1k", |b| {
        b.iter(|| {
            let h = fosm_obs::Histogram::new();
            for i in 0..1_000u64 {
                h.record(black_box(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            }
            black_box(h.count())
        })
    });

    group.throughput(Throughput::Elements(1));
    group.bench_function("hist-merge", |b| {
        b.iter(|| {
            let mut merged = hist_a;
            merged.merge(black_box(&hist_b));
            black_box(merged.count)
        })
    });

    group.finish();
    let _ = std::fs::remove_file(&corpus_path);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = functional_toolchain
}
criterion_main!(benches);
