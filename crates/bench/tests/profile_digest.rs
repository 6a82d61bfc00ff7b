//! Pins the fused five-probe profiles: for each benchmark, an FNV-1a
//! digest of the `Debug` text of the `full`, `ideal`, `branch`,
//! `icache` and `dcache` profiles that one cold
//! `ArtifactStore::profile_many` call returns at 50k instructions. Two
//! machines: the baseline, and the baseline with two lines of
//! next-line prefetch and the baseline data TLB. Changing how the
//! profiler gets its instructions or simulates its structures must not
//! move a digest.

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_cache::TlbConfig;
use fosm_core::ProbeBank;
use fosm_sim::{MachineConfig, SimulationSet};
use fosm_trace::Fnv;
use fosm_workloads::BenchmarkSpec;

const INSTS: u64 = 50_000;

/// `(benchmark, baseline digest, prefetch-2 + dTLB digest)`, recorded
/// when the test was written.
const PINNED: [(&str, u64, u64); 12] = [
    ("bzip", 0x853fe09d22a7451a, 0x818a9b6aab3d5428),
    ("crafty", 0xbca8da4fe9936812, 0x02cb0bf7e90547fa),
    ("eon", 0x54fb205a36a35747, 0xd35ee408753534b7),
    ("gap", 0x16b0def131728db2, 0xff425f0a39d250e9),
    ("gcc", 0x54b9e34a3b3f4702, 0x7cbe069775d8c80f),
    ("gzip", 0x1916a867f80acce6, 0x6a3d7f4c851af238),
    ("mcf", 0x7157453080fcde31, 0x500c3d3dcbc3c699),
    ("parser", 0xb210cf6793dbce42, 0x3360c94ec9d34ba4),
    ("perl", 0x8306e0673f2b95cc, 0xcc2a043badf79d3f),
    ("twolf", 0x913a29dc59cbe86d, 0xeb751ae05d6a9d90),
    ("vortex", 0xc1bb187bfea6ff80, 0xe3f10ac5cea39f22),
    ("vpr", 0x9ba2acc1633ef757, 0xfe5f90d2cdd70d3a),
];

fn prefetch_tlb() -> MachineConfig {
    let mut config = MachineConfig::baseline().with_dtlb(TlbConfig::baseline());
    config.hierarchy.next_line_prefetch = 2;
    config
}

/// Digest of the five simulation-set profiles of `spec` on `machine`.
fn fused_digest(machine: &MachineConfig, spec: &BenchmarkSpec) -> u64 {
    let bank: ProbeBank = SimulationSet::ALL
        .iter()
        .map(|&set| {
            harness::probe_of(
                &machine.simulation_set(set),
                format!("{}:{}", spec.name, set.name()),
            )
        })
        .collect();
    let params = harness::params_of(machine);
    let profiles = ArtifactStore::new()
        .profile_many(&params, &bank, spec, INSTS, harness::SEED)
        .expect("fused profiles");
    let mut hash = Fnv::default();
    for profile in &profiles {
        hash.update(format!("{:?}", **profile).as_bytes());
    }
    hash.finish()
}

#[test]
fn fused_five_probe_profiles_are_pinned() {
    let (baseline, variant) = (MachineConfig::baseline(), prefetch_tlb());
    let got: Vec<(String, u64, u64)> = BenchmarkSpec::all()
        .iter()
        .map(|spec| {
            (
                spec.name.clone(),
                fused_digest(&baseline, spec),
                fused_digest(&variant, spec),
            )
        })
        .collect();
    let want: Vec<(String, u64, u64)> = PINNED
        .iter()
        .map(|&(name, base, var)| (name.to_string(), base, var))
        .collect();
    assert_eq!(got, want, "a fused profile changed");
}
