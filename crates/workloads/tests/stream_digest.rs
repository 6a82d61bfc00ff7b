//! Pins the generated instruction streams: an FNV-1a digest of the
//! first million instructions of each of the twelve benchmarks at seed
//! 42. A change to the generator that moves one RNG draw, one address,
//! one register or one branch outcome fails here, so generation can be
//! made cheaper without changing what it generates.

use fosm_isa::{Inst, Reg};
use fosm_trace::{Fnv, TraceSource};
use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};

const SEED: u64 = 42;
const INSTS: u64 = 1_000_000;

/// Digest of the first [`INSTS`] instructions at [`SEED`], recorded
/// when the test was written.
const PINNED: [(&str, u64); 12] = [
    ("bzip", 0x938d2f7ad1d28a51),
    ("crafty", 0x7000f9c8b6760c1e),
    ("eon", 0xfca44caa4c60c9f8),
    ("gap", 0x55fe2ca0b12be726),
    ("gcc", 0x26a559a23c4cd40f),
    ("gzip", 0x8d3f101850d8ff7a),
    ("mcf", 0x52eae1cd1f970164),
    ("parser", 0x40a5da886f9aaef3),
    ("perl", 0x588e93d8c9fa2d8c),
    ("twolf", 0xe60266ec64a95608),
    ("vortex", 0x4f347cce10e9057b),
    ("vpr", 0x020c06fa97f10306),
];

/// Folds every field of `inst` into `hash` in a fixed byte layout.
fn fold(hash: &mut Fnv, inst: &Inst) {
    let reg = |r: Option<Reg>| r.map_or(u8::MAX, |r| r.index() as u8);
    hash.update(&inst.pc.to_le_bytes());
    hash.update(&[
        inst.op.index() as u8,
        reg(inst.dest),
        reg(inst.srcs[0]),
        reg(inst.srcs[1]),
        u8::from(inst.mem_addr.is_some()),
        inst.branch.map_or(u8::MAX, |b| u8::from(b.taken)),
    ]);
    if let Some(addr) = inst.mem_addr {
        hash.update(&addr.to_le_bytes());
    }
    if let Some(branch) = inst.branch {
        hash.update(&branch.target.to_le_bytes());
    }
}

fn stream_digest(spec: &BenchmarkSpec) -> u64 {
    let mut generator = WorkloadGenerator::new(spec, SEED);
    let mut hash = Fnv::default();
    for _ in 0..INSTS {
        let inst = generator.next_inst().expect("the generator is unbounded");
        fold(&mut hash, &inst);
    }
    hash.finish()
}

#[test]
fn generated_streams_are_pinned() {
    let specs = BenchmarkSpec::all();
    let got: Vec<(&str, u64)> = specs
        .iter()
        .map(|spec| (spec.name.as_str(), stream_digest(spec)))
        .collect();
    assert_eq!(got, PINNED, "a generated stream changed");
}
