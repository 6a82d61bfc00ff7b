//! Criterion benches: detailed-simulator throughput.
//!
//! These quantify the cost side of the paper's trade-off — cycle-level
//! simulation is what the analytical model avoids. Compare with the
//! `model` bench group: the model evaluates a configuration in
//! microseconds; the simulator takes milliseconds for even a small
//! trace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fosm_bench::harness;
use fosm_sim::{Machine, MachineConfig, SimReport};
use fosm_trace::PackedTrace;
use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};
use std::hint::black_box;

const TRACE_LEN: u64 = 50_000;

fn record(spec: &BenchmarkSpec) -> PackedTrace {
    PackedTrace::record(&mut WorkloadGenerator::new(spec, harness::SEED), TRACE_LEN)
}

fn simulate(config: &MachineConfig, trace: &PackedTrace) -> SimReport {
    Machine::new(config.clone()).run(&mut trace.replay())
}

fn simulator_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(TRACE_LEN));
    for spec in [
        BenchmarkSpec::gzip(),
        BenchmarkSpec::mcf(),
        BenchmarkSpec::gcc(),
    ] {
        let trace = record(&spec);
        group.bench_with_input(
            BenchmarkId::new("baseline", &spec.name),
            &trace,
            |b, trace| b.iter(|| black_box(simulate(&MachineConfig::baseline(), trace))),
        );
    }
    let trace = record(&BenchmarkSpec::gzip());
    group.bench_function("ideal-machine", |b| {
        b.iter(|| black_box(simulate(&MachineConfig::ideal(), &trace)))
    });
    let mut wide = MachineConfig::baseline();
    wide.width = 8;
    wide.win_size = 96;
    wide.rob_size = 256;
    group.bench_function("8-wide-machine", |b| {
        b.iter(|| black_box(simulate(&wide, &trace)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = simulator_throughput
}
criterion_main!(benches);
