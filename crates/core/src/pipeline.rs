//! The two stages of a fused profiling pass.
//!
//! Paper §3 extracts the IW characteristic from the instruction stream
//! alone, and paper §2 simulates each miss-event structure on its own,
//! so the IW sweep and the branch predictors share no state with the
//! caches. A pass therefore runs in two stages joined by a small queue
//! of [`Chunk`]s:
//!
//! * **Stage A** (the caller's thread, [`StageA`]): the trace source —
//!   which need not be `Send` — the shared L1s and data TLBs, each
//!   probe's L2 and register taint, the instruction mix, and the IW
//!   resolve step. It fills chunks in program order.
//! * **Stage B** (one scoped helper thread, [`StageB`]): the IW window
//!   states and the predictors. It runs over each chunk in the order
//!   stage A sent them and writes each predictor's verdicts back into
//!   the chunk; stage A folds them into the misprediction statistics
//!   when the chunk comes back for refilling.
//!
//! Each structure sees the same stream in the same order as on one
//! thread, so every profile is bit-identical. Stage B owns no
//! statistics and records no metrics (metric registries are scoped per
//! thread); stage A allocates every buffer and stage B's state before
//! the helper starts, so the helper does not allocate.
//!
//! Faults: each stage closes its side of the queue when it stops, also
//! while unwinding from a panic, and a stage waiting on the queue stops
//! waiting once the other side is closed. A panic on stage B so ends
//! stage A's loop, and stage A joins the helper and resumes the
//! helper's panic with its original payload. A panic on stage A ends
//! the helper's loop, and `thread::scope` joins the helper before the
//! panic continues. Neither stage waits to put a chunk in: each queue
//! has room for every chunk there is.

use std::collections::VecDeque;
use std::panic;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use fosm_branch::Predictor;
use fosm_depgraph::{IwWindows, ResolvedInst};

/// Touched instructions per chunk. A chunk holds this many IW records
/// (4 bytes each) and verdicts (1 byte per predictor) at most, and room
/// for a quarter as many branch records (16 bytes each): 18 KiB with
/// one predictor.
pub(crate) const CHUNK: usize = 2048;

/// Chunks in flight: one filling on stage A, the others queued for or
/// running on stage B. About 54 KiB in all.
const CHUNKS: usize = 3;

/// One touched conditional branch for the predictors: its PC, its
/// direction, and its index in the counted stream when it is counted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BranchRecord {
    pc: u64,
    /// `(counted index + 1) << 1 | taken`, with 0 for the index of a
    /// warm-up branch.
    key: u64,
}

impl BranchRecord {
    pub(crate) fn new(pc: u64, taken: bool, counted: Option<u64>) -> Self {
        let index = counted.map_or(0, |i| i + 1);
        BranchRecord {
            pc,
            key: index << 1 | taken as u64,
        }
    }

    fn taken(self) -> bool {
        self.key & 1 == 1
    }

    /// The branch's index in the counted stream, `None` during warm-up.
    pub(crate) fn counted(self) -> Option<u64> {
        (self.key >> 1).checked_sub(1)
    }
}

/// A run of touched instructions in program order, as stage B needs
/// them.
pub(crate) struct Chunk {
    /// Touched instructions filled in.
    pub(crate) touched: usize,
    /// The counted instructions, resolved for the IW window states.
    pub(crate) iw: Vec<ResolvedInst>,
    /// The touched conditional branches.
    pub(crate) branches: Vec<BranchRecord>,
    /// Stage B's verdicts, predictor by predictor: whether predictor
    /// `p` was right on branch `b` is `correct[p * branches.len() + b]`.
    correct: Vec<bool>,
}

impl Chunk {
    fn new(predictors: usize) -> Self {
        Chunk {
            touched: 0,
            iw: Vec::with_capacity(CHUNK),
            // Room for one conditional branch in four instructions; a
            // branchier chunk grows it on stage A.
            branches: Vec::with_capacity(CHUNK / 4),
            // Room for every touched instruction being a branch, so
            // stage B never grows it.
            correct: Vec::with_capacity(CHUNK * predictors),
        }
    }

    pub(crate) fn is_full(&self) -> bool {
        self.touched == CHUNK
    }

    /// Each predictor's verdicts, one slice per predictor in stage B's
    /// order, aligned with [`branches`](Self::branches).
    pub(crate) fn verdicts(&self) -> impl Iterator<Item = &[bool]> {
        self.correct.chunks_exact(self.branches.len().max(1))
    }

    fn clear(&mut self) {
        self.touched = 0;
        self.iw.clear();
        self.branches.clear();
        self.correct.clear();
    }
}

/// The structures of a pass that read only the instruction stream.
pub(crate) struct StageB {
    pub(crate) windows: IwWindows,
    pub(crate) predictors: Vec<Box<dyn Predictor>>,
}

impl StageB {
    /// Runs every structure over `chunk`, one structure at a time, and
    /// writes the predictors' verdicts into it.
    fn run(&mut self, chunk: &mut Chunk) {
        self.windows.run(&chunk.iw);
        let branches = &chunk.branches;
        for predictor in &mut self.predictors {
            chunk
                .correct
                .extend(branches.iter().map(|b| predictor.observe(b.pc, b.taken())));
        }
    }
}

/// The caller's half of a pass.
pub(crate) trait StageA {
    /// Fills `chunk` (empty) with the next touched instructions until it
    /// is full; returns `false` once the stream has ended.
    fn fill(&mut self, chunk: &mut Chunk) -> bool;

    /// Takes stage B's verdicts on `chunk`. Called once per chunk, in
    /// the order the chunks were filled.
    fn fold(&mut self, chunk: &Chunk);
}

/// How long each stage spent, for the pass's counters.
pub(crate) struct StageTimes {
    /// Time stage A waited for stage B to hand back a chunk.
    pub(crate) a_wait: Duration,
    /// Time stage B spent running over chunks.
    pub(crate) b_busy: Duration,
}

/// The chunks between the two stages. Each queue has room for every
/// chunk, so neither stage allocates or waits to put one in; a stage
/// waits only for a chunk to take.
struct Queue {
    state: Mutex<Queues>,
    changed: Condvar,
}

struct Queues {
    /// Filled chunks for stage B, oldest first.
    full: VecDeque<Chunk>,
    /// Chunks stage B has run over, for stage A, oldest first.
    done: VecDeque<Chunk>,
    /// Stage A sends no more: it has sent its last chunk, or it is
    /// unwinding.
    a_closed: bool,
    /// Stage B takes no more: it has run over the last chunk, or it is
    /// unwinding.
    b_closed: bool,
}

impl Queue {
    fn new() -> Self {
        Queue {
            state: Mutex::new(Queues {
                full: VecDeque::with_capacity(CHUNKS),
                done: VecDeque::with_capacity(CHUNKS),
                a_closed: false,
                b_closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queues> {
        // Neither stage panics while it holds the lock.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until `take` finds something in the queues.
    fn wait_for<T>(&self, take: impl Fn(&mut Queues) -> Option<T>) -> T {
        let mut queues = self.lock();
        loop {
            if let Some(found) = take(&mut queues) {
                return found;
            }
            queues = self
                .changed
                .wait(queues)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn update<T>(&self, change: impl FnOnce(&mut Queues) -> T) -> T {
        let result = change(&mut self.lock());
        self.changed.notify_all();
        result
    }

    /// Stage A: queues a filled chunk for stage B. Returns `false`,
    /// dropping the chunk, once stage B has closed its side.
    fn send(&self, chunk: Chunk) -> bool {
        self.update(|q| {
            if !q.b_closed {
                q.full.push_back(chunk);
            }
            !q.b_closed
        })
    }

    /// Stage A: the oldest chunk stage B has run over, or `None` once
    /// stage B has closed its side.
    fn take_done(&self) -> Option<Chunk> {
        self.wait_for(|q| q.done.pop_front().map(Some).or(q.b_closed.then_some(None)))
    }

    /// Stage B: the oldest filled chunk, or `None` once stage A has
    /// closed its side and none is left.
    fn take_full(&self) -> Option<Chunk> {
        self.wait_for(|q| q.full.pop_front().map(Some).or(q.a_closed.then_some(None)))
    }
}

/// Closes one stage's side of the queue when dropped, also while the
/// stage unwinds, so the other stage stops waiting for it.
struct Closer<'q> {
    queue: &'q Queue,
    stage_a: bool,
}

impl Drop for Closer<'_> {
    fn drop(&mut self) {
        let stage_a = self.stage_a;
        self.queue.update(|q| {
            if stage_a {
                q.a_closed = true;
            } else {
                q.b_closed = true;
            }
        });
    }
}

/// Runs a pass: `a` fills chunks on this thread and `b` runs over them
/// on a helper. Returns `b` when both stages have seen the whole
/// stream.
pub(crate) fn run(a: &mut impl StageA, mut b: StageB) -> (StageB, StageTimes) {
    let mut spare: Vec<Chunk> = (0..CHUNKS)
        .map(|_| Chunk::new(b.predictors.len()))
        .collect();
    let queue = &Queue::new();
    thread::scope(|scope| {
        let helper = scope.spawn(move || {
            let _closer = Closer {
                queue,
                stage_a: false,
            };
            let mut busy = Duration::ZERO;
            while let Some(mut chunk) = queue.take_full() {
                let start = Instant::now();
                b.run(&mut chunk);
                busy += start.elapsed();
                queue.update(|q| q.done.push_back(chunk));
            }
            (b, busy)
        });
        let mut a_wait = Duration::ZERO;
        {
            let _closer = Closer {
                queue,
                stage_a: true,
            };
            let mut chunk = spare.pop().expect("at least one chunk");
            let mut more = a.fill(&mut chunk);
            // Every chunk goes through stage B, the last, partial one
            // too. Once stage B has stopped, the join below says why.
            while queue.send(chunk) && more {
                chunk = match spare.pop() {
                    Some(fresh) => fresh,
                    None => {
                        let start = Instant::now();
                        let back = queue.take_done();
                        a_wait += start.elapsed();
                        let Some(mut back) = back else { break };
                        a.fold(&back);
                        back.clear();
                        back
                    }
                };
                more = a.fill(&mut chunk);
            }
        }
        let (b, b_busy) = helper
            .join()
            .unwrap_or_else(|payload| panic::resume_unwind(payload));
        for back in queue.lock().done.drain(..) {
            a.fold(&back);
        }
        (b, StageTimes { a_wait, b_busy })
    })
}

#[cfg(test)]
mod tests {
    use std::panic::AssertUnwindSafe;

    use fosm_depgraph::IwSweep;

    use super::*;

    /// A predictor that fails on its first branch.
    struct Failing;

    impl Predictor for Failing {
        fn predict(&self, _pc: u64) -> bool {
            panic!("predictor failed")
        }

        fn update(&mut self, _pc: u64, _taken: bool) {}

        fn name(&self) -> String {
            "failing".into()
        }
    }

    /// Stage A over `chunks` full chunks of taken branches.
    struct Branches {
        chunks: usize,
        folded: usize,
    }

    impl StageA for Branches {
        fn fill(&mut self, chunk: &mut Chunk) -> bool {
            if self.chunks == 0 {
                return false;
            }
            self.chunks -= 1;
            chunk.touched = CHUNK;
            chunk
                .branches
                .extend((0..CHUNK as u64).map(|pc| BranchRecord::new(pc, true, None)));
            self.chunks > 0
        }

        fn fold(&mut self, _chunk: &Chunk) {
            self.folded += 1;
        }
    }

    fn failing_stage_b() -> StageB {
        StageB {
            windows: IwSweep::paper_default().into_parts().1,
            predictors: vec![Box::new(Failing)],
        }
    }

    #[test]
    fn a_stage_b_panic_reaches_the_caller_with_its_payload() {
        // The stream ends in the first chunk, or runs past the spares.
        for chunks in [1, 10] {
            let mut a = Branches { chunks, folded: 0 };
            let caught = panic::catch_unwind(AssertUnwindSafe(|| run(&mut a, failing_stage_b())));
            let payload = caught.err().expect("stage B panicked");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"predictor failed"));
            assert_eq!(a.folded, 0, "no chunk came back from stage B");
        }
    }

    #[test]
    fn branch_records_round_trip() {
        for (taken, counted) in [(true, None), (false, Some(0)), (true, Some(1 << 40))] {
            let record = BranchRecord::new(7, taken, counted);
            assert_eq!((record.taken(), record.counted()), (taken, counted));
        }
    }
}
