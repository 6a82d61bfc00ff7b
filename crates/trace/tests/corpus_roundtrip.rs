//! Property-based tests for the `FOSMTRC1` corpus file format:
//! encode→write→paged-`FileReplay` is bit-identical to the in-memory
//! `PackedTrace::replay()` cursor, and any single corrupted byte is
//! detected by the header/section checksums.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use fosm_isa::{Inst, Op, Reg};
use fosm_trace::{write_corpus, CorpusFile, PackedTrace, TraceSource};
use proptest::prelude::*;

fn inst_strategy() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (
            0u8..48,
            prop::option::of(0u8..48),
            prop::option::of(0u8..48)
        )
            .prop_map(|(d, a, b)| {
                Inst::alu(0, Op::IntAlu, Reg::new(d), a.map(Reg::new), b.map(Reg::new))
            }),
        (0u8..48, prop::option::of(0u8..48), 0u64..1 << 20).prop_map(|(d, b, addr)| Inst::load(
            0,
            Reg::new(d),
            b.map(Reg::new),
            addr
        )),
        (0u8..48, 0u64..1 << 20).prop_map(|(v, addr)| Inst::store(0, Reg::new(v), None, addr)),
        (any::<bool>(), 0u64..1 << 20).prop_map(|(taken, target)| Inst::branch(
            0,
            Op::CondBranch,
            None,
            taken,
            target
        )),
    ]
}

fn trace_strategy() -> impl Strategy<Value = Vec<Inst>> {
    prop::collection::vec(inst_strategy(), 0..300).prop_map(|mut insts| {
        for (i, inst) in insts.iter_mut().enumerate() {
            inst.pc = i as u64 * 4;
        }
        insts
    })
}

/// A unique scratch path per proptest case (cases run sequentially,
/// but a shrink replays cases out of order — never share file state).
fn scratch() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "fosm-corpus-prop-{}-{}.fct",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    /// The paged file cursor decodes bit-identically to the in-memory
    /// packed cursor over the same instructions.
    #[test]
    fn file_replay_matches_memory_replay(insts in trace_strategy()) {
        let packed = PackedTrace::from_insts(&insts);
        let path = scratch();
        write_corpus(&path, &packed).expect("write corpus");
        let corpus = CorpusFile::open(&path).expect("open corpus");
        corpus.verify().expect("fresh corpus verifies");
        prop_assert_eq!(corpus.len() as usize, insts.len());
        let mut replay = corpus.replay();
        let decoded: Vec<Inst> = replay.iter().collect();
        prop_assert!(replay.take_error().is_none());
        prop_assert_eq!(decoded, packed.decode());
        let _ = std::fs::remove_file(&path);
    }

    /// Flipping any single byte of the file is detected: either the
    /// header fails validation at open, or a section checksum fails
    /// verify. (Every file byte is covered by exactly one of the two.)
    #[test]
    fn any_byte_corruption_is_detected(
        insts in trace_strategy(),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let path = scratch();
        write_corpus(&path, &PackedTrace::from_insts(&insts)).expect("write corpus");
        let mut bytes = std::fs::read(&path).expect("read back");
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        std::fs::write(&path, &bytes).expect("tamper");
        let detected = match CorpusFile::open(&path) {
            Err(_) => true,
            Ok(corpus) => corpus.verify().is_err(),
        };
        prop_assert!(detected, "flip {flip:#04x} at byte {pos} went unnoticed");
        let _ = std::fs::remove_file(&path);
    }
}
