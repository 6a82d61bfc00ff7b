//! The paper's three summary observations (§7), verified end-to-end
//! against the detailed simulator on synthetic workloads.

use fosm::sim::{Machine, MachineConfig, SimulationSet};
use fosm::trace::VecTrace;
use fosm::workloads::{BenchmarkSpec, WorkloadGenerator};

const TRACE_LEN: u64 = 100_000;

fn record(spec: &BenchmarkSpec) -> VecTrace {
    let mut generator = WorkloadGenerator::new(spec, 42);
    VecTrace::record(&mut generator, TRACE_LEN)
}

fn run(cfg: MachineConfig, trace: &VecTrace) -> fosm::sim::SimReport {
    Machine::new(cfg).run(&mut trace.clone())
}

/// Observation 1: "The branch misprediction penalty is often
/// significantly larger than the front-end pipeline depth."
#[test]
fn branch_penalty_exceeds_pipeline_depth() {
    let trace = record(&BenchmarkSpec::gzip());
    let real = run(
        MachineConfig::baseline().simulation_set(SimulationSet::Branch),
        &trace,
    );
    let ideal = run(MachineConfig::ideal(), &trace);
    let penalty = (real.cycles - ideal.cycles) as f64 / real.mispredicts as f64;
    assert!(real.mispredicts > 100, "need a meaningful sample");
    assert!(
        penalty > 5.0,
        "penalty {penalty:.1} must exceed the 5-stage front end"
    );
    assert!(
        penalty < 15.0,
        "penalty {penalty:.1} should stay first-order"
    );
}

/// Observation 2: "Instruction cache penalty is independent of the
/// front-end pipeline; it depends largely on the miss delay."
#[test]
fn icache_penalty_tracks_miss_delay_not_depth() {
    let trace = record(&BenchmarkSpec::gcc());
    let mut penalties = Vec::new();
    for depth in [5u32, 9] {
        let real = run(
            MachineConfig::baseline()
                .simulation_set(SimulationSet::ICache)
                .with_pipe_depth(depth),
            &trace,
        );
        let ideal = run(MachineConfig::ideal().with_pipe_depth(depth), &trace);
        assert!(real.icache_short_misses > 300, "need a meaningful sample");
        let adjusted = (real.cycles as i64 - ideal.cycles as i64) as f64
            - real.icache_long_misses as f64 * 200.0;
        penalties.push(adjusted / real.icache_short_misses as f64);
    }
    assert!(
        (penalties[0] - penalties[1]).abs() < 1.0,
        "depth changed the penalty: {penalties:?}"
    );
    assert!(
        (penalties[0] - 8.0).abs() < 2.0,
        "penalty {:.1} should approximate the 8-cycle L2 delay",
        penalties[0]
    );
}

/// Observation 3: "The data cache penalty for an isolated long miss is
/// essentially the miss delay. For multiple misses that occur within a
/// number of instructions equal to the ROB size, the combined miss
/// penalty is the same as an isolated miss."
#[test]
fn overlapped_long_misses_share_one_penalty() {
    use fosm::isa::{Inst, Op, Reg};

    // Hand-built traces: independent filler with (a) one long-miss
    // load, (b) two independent long-miss loads 40 instructions apart
    // (well within the 128-entry ROB).
    let filler = |n: usize, base_pc: u64| -> Vec<Inst> {
        (0..n)
            .map(|i| {
                Inst::alu(
                    base_pc + i as u64 * 4,
                    Op::IntAlu,
                    Reg::new((i % 24) as u8),
                    None,
                    None,
                )
            })
            .collect()
    };
    let build = |miss_addrs: &[(usize, u64)]| -> VecTrace {
        let mut insts = filler(800, 0);
        for &(at, addr) in miss_addrs {
            insts[at] = Inst::load(at as u64 * 4, Reg::new(30), None, addr);
        }
        VecTrace::new(insts)
    };
    // Baseline caches: distinct far-apart addresses are cold misses to
    // memory (4 KB L1, 512 KB L2, first touch).
    let none = build(&[]);
    let one = build(&[(100, 0x40_0000_0000)]);
    let two = build(&[(100, 0x40_0000_0000), (140, 0x50_0000_0000)]);

    let cfg = MachineConfig::baseline().simulation_set(SimulationSet::DCache);
    let t_none = run(cfg.clone(), &none).cycles as i64;
    let t_one = run(cfg.clone(), &one).cycles as i64;
    let t_two = run(cfg, &two).cycles as i64;

    let isolated = t_one - t_none;
    let combined = t_two - t_none;
    assert!(
        isolated > 150,
        "an isolated long miss must cost most of the 200-cycle delay, got {isolated}"
    );
    // The second overlapped miss adds almost nothing.
    assert!(
        combined - isolated < 30,
        "overlapped misses should share one penalty: isolated {isolated}, combined {combined}"
    );
}
