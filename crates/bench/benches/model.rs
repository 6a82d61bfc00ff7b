//! Criterion benches: the analytical model itself — the paper's
//! headline speed claim. One model evaluation replaces an entire
//! detailed simulation run, and a full design-space sweep costs less
//! than simulating a single configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_core::model::FirstOrderModel;
use fosm_core::transient::{ramp_up, win_drain};
use fosm_depgraph::{IwCharacteristic, PowerLaw};
use fosm_sim::MachineConfig;
use fosm_trends::issue_width::IssueWidthStudy;
use fosm_trends::pipeline::PipelineStudy;
use fosm_workloads::BenchmarkSpec;
use std::hint::black_box;

fn model_evaluation(c: &mut Criterion) {
    let params = harness::params_of(&MachineConfig::baseline());
    let profile = ArtifactStore::new().profile(
        &params,
        "gzip",
        &BenchmarkSpec::gzip(),
        50_000,
        harness::SEED,
    );
    let iw = IwCharacteristic::new(PowerLaw::square_root(), 1.0).unwrap();

    let mut group = c.benchmark_group("model");

    group.bench_function("evaluate-one-config", |b| {
        let model = FirstOrderModel::new(params.clone());
        b.iter(|| black_box(model.evaluate(&profile).unwrap()))
    });

    group.bench_function("transient-walks", |b| {
        b.iter(|| {
            black_box(win_drain(&iw, 4, 48));
            black_box(ramp_up(&iw, 4, 48));
        })
    });

    group.bench_function("design-space-100-points", |b| {
        b.iter(|| {
            let mut best = f64::INFINITY;
            for width in [2u32, 4, 6, 8] {
                for win in [16u32, 32, 48, 64, 128] {
                    for depth in [5u32, 9, 14, 20, 30] {
                        let mut p = params.clone();
                        p.width = width;
                        p.win_size = win;
                        p.rob_size = p.rob_size.max(win);
                        p.pipe_depth = depth;
                        let est = FirstOrderModel::new(p).evaluate(&profile).unwrap();
                        best = best.min(est.total_cpi());
                    }
                }
            }
            black_box(best)
        })
    });

    group.bench_function("pipeline-depth-study", |b| {
        let study = PipelineStudy::paper();
        b.iter(|| black_box(study.optimal_depth(3, 1..=100).unwrap()))
    });

    group.bench_function("issue-width-inversion", |b| {
        let study = IssueWidthStudy::paper(iw.clone());
        b.iter(|| black_box(study.distance_for_fraction(8, 0.3).unwrap()))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = model_evaluation
}
criterion_main!(benches);
