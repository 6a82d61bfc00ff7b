//! The cycle-level machine.

use std::collections::VecDeque;

use fosm_branch::Predictor;
use fosm_cache::{AccessKind, AccessOutcome, Hierarchy, Tlb};
use fosm_isa::{FuClass, Inst, Op, NUM_REGS};
use fosm_obs::event::{EventKind, TraceEvent};
use fosm_trace::TraceSource;

use crate::{MachineConfig, SimReport};

/// Marks "no producer" in a dependence slot.
const NO_PRODUCER: u64 = u64::MAX;

/// An instruction in the front-end pipeline. Its sequence number is
/// implicit: the pipe dispatches in order.
#[derive(Debug, Clone, Copy)]
struct PipeEntry {
    ready: u64,
    inst: Inst,
    mispredicted: bool,
}

/// Marks the end of a wake-up list.
const NO_WAITER: u64 = u64::MAX;

/// A dispatched instruction, in its reorder-buffer slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Completion cycle; `u64::MAX` until the instruction issues.
    done: u64,
    /// Latest arrival among the operands whose producers have issued:
    /// once `pending` is 0, the first cycle the instruction can issue.
    ready_at: u64,
    /// Producers that have not issued yet.
    pending: u8,
    /// Operands waiting for this instruction's result, as a list of
    /// `consumer * 2 + operand` links through the consumers'
    /// `next_waiter`, ending in `NO_WAITER`.
    waiters: u64,
    next_waiter: [u64; 2],
    /// Extra cycles before each producer's result reaches this
    /// instruction's cluster (the forwarding delay when they differ).
    forward: [u32; 2],
    comp_latency: u32,
    fu_class: FuClass,
    cluster: u8,
    mispredicted: bool,
    long_miss_load: bool,
}

impl Slot {
    /// A slot before dispatch fills in the instruction.
    const EMPTY: Slot = Slot {
        done: u64::MAX,
        ready_at: 0,
        pending: 0,
        waiters: NO_WAITER,
        next_waiter: [NO_WAITER; 2],
        forward: [0; 2],
        comp_latency: 0,
        fu_class: FuClass::IntAlu,
        cluster: 0,
        mispredicted: false,
        long_miss_load: false,
    };
}

/// The reorder buffer: the in-flight instructions `[front, dispatched)`
/// in slots indexed by sequence number modulo a power-of-two length.
/// The issue window lists the sequence numbers of its unissued
/// instructions, so issuing moves no slot, and an issuing producer
/// wakes its waiting operands, so no readiness is ever recomputed.
///
/// A slot outlives its instruction's retirement until `seq + len`
/// dispatches into it, which is late enough that a consumer finding
/// its producer's slot reused can count that operand as ready, even
/// across clusters. Let producer `p` retire at cycle `r` (so its
/// `done <= r`). When that cycle's dispatch ends, the ROB holds only
/// sequence numbers above `p` and at most `rob_size` of them, and each
/// later cycle dispatches at most `width` more. With
/// `len >= rob_size + width * (forward_delay + 1)`, `p + len` therefore
/// dispatches no earlier than cycle `r + forward_delay + 1`. A consumer
/// dispatched then or later issues a cycle after that at the soonest,
/// when `done + forward_delay` has passed.
struct Rob {
    slots: Vec<Slot>,
    mask: u64,
}

impl Rob {
    fn new(rob_size: u64, width: u64, forward_delay: u64) -> Self {
        let len = (rob_size + width * (forward_delay + 1)).next_power_of_two();
        Rob {
            slots: vec![Slot::EMPTY; len as usize],
            mask: len - 1,
        }
    }

    fn slot(&self, seq: u64) -> &Slot {
        &self.slots[(seq & self.mask) as usize]
    }

    fn slot_mut(&mut self, seq: u64) -> &mut Slot {
        &mut self.slots[(seq & self.mask) as usize]
    }

    /// First cycle instruction `seq` can issue (`u64::MAX` while a
    /// producer has not issued).
    fn ready_at(&self, seq: u64) -> u64 {
        let s = self.slot(seq);
        if s.pending > 0 {
            u64::MAX
        } else {
            s.ready_at
        }
    }

    /// Puts instruction `seq`, the next to dispatch, into its slot and
    /// hooks each operand onto its producer: an issued producer's
    /// result time counts at once, an unissued one's when it issues. A
    /// producer whose slot was reused (see above) counts as ready.
    fn dispatch(&mut self, seq: u64, producers: [u64; 2], slot: Slot) {
        *self.slot_mut(seq) = slot;
        for (k, p) in producers.into_iter().enumerate() {
            // `p + len <= seq`: instruction `p + len` took the slot.
            if p == NO_PRODUCER || p + self.mask < seq {
                continue;
            }
            let done = self.slot(p).done;
            if done == u64::MAX {
                let head = std::mem::replace(&mut self.slot_mut(p).waiters, seq * 2 + k as u64);
                let s = self.slot_mut(seq);
                s.next_waiter[k] = head;
                s.pending += 1;
            } else {
                let s = self.slot_mut(seq);
                s.ready_at = s.ready_at.max(done + s.forward[k] as u64);
            }
        }
    }

    /// Issues instruction `seq`, completing at `done`, and wakes the
    /// operands waiting for it.
    fn issue(&mut self, seq: u64, done: u64) {
        let s = self.slot_mut(seq);
        s.done = done;
        let mut waiter = std::mem::replace(&mut s.waiters, NO_WAITER);
        while waiter != NO_WAITER {
            let k = (waiter % 2) as usize;
            let s = self.slot_mut(waiter / 2);
            s.ready_at = s.ready_at.max(done + s.forward[k] as u64);
            s.pending -= 1;
            waiter = s.next_waiter[k];
        }
    }
}

/// Records an I-fetch miss event plus the interval boundary it
/// terminates (shared by the fetch-buffer and direct fetch paths).
fn push_icache_event(
    buf: &mut Vec<TraceEvent>,
    last_boundary_cycle: &mut u64,
    retired: u64,
    seq: u64,
    cycle: u64,
    stall_until: u64,
    delta: u64,
) {
    let onset = cycle.max(*last_boundary_cycle);
    buf.push(TraceEvent::new(
        EventKind::IntervalBoundary,
        retired,
        *last_boundary_cycle,
        onset,
        0,
    ));
    *last_boundary_cycle = onset;
    buf.push(TraceEvent::new(
        EventKind::ICacheMiss,
        seq,
        cycle,
        stall_until,
        delta,
    ));
}

/// The detailed out-of-order machine (see the crate docs for the
/// microarchitecture it models).
///
/// A `Machine` owns mutable predictor and cache state; create a fresh
/// machine per run (or per benchmark) so runs do not contaminate each
/// other.
///
/// # Examples
///
/// ```
/// use fosm_isa::{Inst, Op, Reg};
/// use fosm_sim::{Machine, MachineConfig};
/// use fosm_trace::VecTrace;
///
/// // A hundred independent single-cycle instructions on an ideal
/// // 4-wide machine retire at ~4 IPC.
/// let insts: Vec<Inst> = (0..100)
///     .map(|i| Inst::alu(i * 4, Op::IntAlu, Reg::new((i % 32) as u8), None, None))
///     .collect();
/// let report = Machine::new(MachineConfig::ideal()).run(&mut VecTrace::new(insts));
/// assert!(report.ipc() > 3.0);
/// ```
pub struct Machine {
    config: MachineConfig,
    predictor: Box<dyn Predictor>,
    hierarchy: Hierarchy,
    dtlb: Option<Tlb>,
    /// Whether a cycle in which nothing happens jumps straight to the
    /// next event. Always on; this crate's tests turn it off to get the
    /// one-cycle-at-a-time oracle from the same loop.
    pub(crate) skip_dead_cycles: bool,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("config", &self.config)
            .field("predictor", &self.predictor.name())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`];
    /// use [`Machine::try_new`] to handle invalid configurations.
    pub fn new(config: MachineConfig) -> Self {
        Self::try_new(config).expect("invalid machine configuration")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns the validation message for inconsistent configurations.
    pub fn try_new(config: MachineConfig) -> Result<Self, String> {
        config.validate()?;
        let hierarchy = Hierarchy::new(config.hierarchy).map_err(|e| e.to_string())?;
        let dtlb = match &config.dtlb {
            Some(cfg) => Some(Tlb::new(*cfg).map_err(|e| e.to_string())?),
            None => None,
        };
        Ok(Machine {
            predictor: config.predictor.build(),
            hierarchy,
            dtlb,
            config,
            skip_dead_cycles: true,
        })
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Runs the machine over `trace` until the trace is exhausted and
    /// the pipeline drains, returning the report. Collects no miss
    /// events; [`run_traced`](Machine::run_traced) returns them.
    ///
    /// Bound unbounded sources with [`TraceSource::take`] before
    /// passing them in.
    pub fn run<S: TraceSource>(&mut self, trace: &mut S) -> SimReport {
        let _run_span = fosm_obs::span("sim.run");
        self.run_impl(trace, None)
    }

    /// Like [`run`](Machine::run), but also collects this run's miss
    /// events and returns them to the caller. The report is identical
    /// to the untraced run's.
    pub fn run_traced<S: TraceSource>(&mut self, trace: &mut S) -> (SimReport, Vec<TraceEvent>) {
        let _run_span = fosm_obs::span("sim.run");
        let mut events = Vec::new();
        let report = self.run_impl(trace, Some(&mut events));
        (report, events)
    }

    fn run_impl<S: TraceSource>(
        &mut self,
        trace: &mut S,
        mut events: Option<&mut Vec<TraceEvent>>,
    ) -> SimReport {
        let cfg = &self.config;
        let width = cfg.width as usize;
        let mut report = SimReport::default();

        // Front end. The pipe holds `pipe_depth` stages of `width`
        // slots each; when dispatch backs up (window or ROB full) the
        // stages fill and fetch stalls. Without this bound the front
        // end acts as an unbounded implicit fetch buffer, silently
        // hiding I-cache-miss and branch-resolution stalls behind a
        // cushion no real machine has (an *explicit* cushion is the
        // opt-in `FetchBufferConfig` extension).
        let pipe_cap = cfg.pipe_depth as usize * width;
        let mut pipe: VecDeque<PipeEntry> = VecDeque::new();
        let mut pending_inst: Option<Inst> = None;
        let mut fetch_stall_until: u64 = 0;
        let mut blocked_on_branch = false;
        // Prefetch queue, used only when a fetch buffer is configured.
        let mut prefetch: VecDeque<(Inst, bool)> = VecDeque::new();
        let mut trace_done = false;
        let mut next_seq: u64 = 0;

        // Back end: the ROB holds `[rob_front_seq, dispatched)`, and
        // the window the unissued ones among them, oldest first.
        let mut window: Vec<u64> = Vec::with_capacity(cfg.win_size as usize);
        let mut rob_front_seq: u64 = 0;
        let mut dispatched: u64 = 0;
        let rob_size = cfg.rob_size as u64;
        // Fetch cycle of the one mispredicted branch that can be in
        // flight (fetch stops behind it): anchors its traced extent.
        let mut branch_fetch_cycle: u64 = 0;
        let mut last_writer = [NO_PRODUCER; NUM_REGS];
        // Clustered-window state: the cluster of each register's last
        // writer, and per-cluster occupancy and issue counts.
        let num_clusters = cfg.clusters.map_or(1, |c| c.clusters as usize);
        let forward_delay = cfg.clusters.map_or(0, |c| c.forward_delay);
        let cluster_win_cap = cfg.win_size as usize / num_clusters;
        let cluster_width = width / num_clusters;
        let mut last_writer_cluster = [0u8; NUM_REGS];
        let mut cluster_occupancy = vec![0usize; num_clusters];
        let mut cluster_issued = vec![0usize; num_clusters];
        let mut steer_cursor = 0usize;
        let mut rob = Rob::new(rob_size, width as u64, forward_delay as u64);

        let mut cycle: u64 = 0;
        let skip_dead_cycles = self.skip_dead_cycles;
        let mut cycles_skipped: u64 = 0;
        // Cycle the last traced interval closed at (monotonic; a miss
        // event whose onset precedes it clamps forward).
        let mut last_boundary_cycle: u64 = 0;
        loop {
            // ---- retire (in order, up to `width`) ----
            let mut retired = 0;
            while retired < width
                && rob_front_seq < dispatched
                && rob.slot(rob_front_seq).done <= cycle
            {
                rob_front_seq += 1;
                report.instructions += 1;
                retired += 1;
            }

            // ---- issue (oldest-first ready-first, up to `width`,
            //      bounded per functional-unit class if configured) ----
            // Issued entries leave the window in the same pass: of the
            // `i` entries visited, `kept` stay, in order.
            let mut issued = 0;
            let mut kept = 0;
            let mut i = 0;
            let mut fu_used = [0u32; FuClass::ALL.len()];
            cluster_issued.fill(0);
            while issued < width && i < window.len() {
                let seq = window[i];
                i += 1;
                let can_issue = rob.ready_at(seq) <= cycle && {
                    let e = rob.slot(seq);
                    // this cluster's issue ports may be busy
                    (num_clusters == 1 || cluster_issued[e.cluster as usize] < cluster_width)
                        // all units of this class may be busy this cycle
                        && cfg
                            .fu
                            .is_none_or(|pool| fu_used[e.fu_class.index()] < pool.count(e.fu_class))
                };
                if !can_issue {
                    window[kept] = seq;
                    kept += 1;
                    continue;
                }
                let e = *rob.slot(seq);
                let finish = cycle + e.comp_latency as u64;
                rob.issue(seq, finish);
                fu_used[e.fu_class.index()] += 1;
                cluster_issued[e.cluster as usize] += 1;
                cluster_occupancy[e.cluster as usize] -= 1;
                issued += 1;
                let rob_idx = seq - rob_front_seq;

                if e.mispredicted {
                    // Branch resolution: flush is implicit (wrong-path
                    // instructions are never fetched); fetching of
                    // correct-path instructions resumes when the branch
                    // completes.
                    debug_assert!(blocked_on_branch);
                    blocked_on_branch = false;
                    fetch_stall_until = fetch_stall_until.max(finish);
                    // Unissued: those kept so far and all after this one.
                    let remaining = (kept + window.len() - i) as u64;
                    report.window_insts_at_mispredict_sum += remaining;
                    report.window_insts_at_mispredict_count += 1;
                    if let Some(buf) = events.as_deref_mut() {
                        // Fetch stopped when the branch entered the
                        // pipe; useful instructions reach the window
                        // again a pipe refill after it resolves.
                        let onset = branch_fetch_cycle.max(last_boundary_cycle);
                        buf.push(TraceEvent::new(
                            EventKind::IntervalBoundary,
                            report.instructions,
                            last_boundary_cycle,
                            onset,
                            0,
                        ));
                        last_boundary_cycle = onset;
                        buf.push(TraceEvent::new(
                            EventKind::BranchMispredict,
                            seq,
                            branch_fetch_cycle,
                            finish + cfg.pipe_depth as u64,
                            0,
                        ));
                    }
                }
                if e.long_miss_load {
                    report.rob_ahead_of_long_miss_sum += rob_idx;
                    report.rob_ahead_of_long_miss_count += 1;
                    if let Some(buf) = events.as_deref_mut() {
                        let onset = cycle.max(last_boundary_cycle);
                        buf.push(TraceEvent::new(
                            EventKind::IntervalBoundary,
                            report.instructions,
                            last_boundary_cycle,
                            onset,
                            0,
                        ));
                        last_boundary_cycle = onset;
                        buf.push(TraceEvent::new(
                            EventKind::LongDCacheMiss,
                            seq,
                            cycle,
                            finish,
                            cfg.mem_latency as u64,
                        ));
                    }
                }
            }
            window.drain(kept..i);

            // ---- dispatch (in order, up to `width`) ----
            let mut dispatched_now = 0;
            while dispatched_now < width
                && dispatched - rob_front_seq < rob_size
                && window.len() < cfg.win_size as usize
            {
                let Some(front) = pipe.front() else { break };
                if front.ready > cycle {
                    break;
                }
                // Clustered dispatch: pick a target cluster before
                // committing to dispatch (in-order dispatch stalls if
                // the chosen cluster is full under round-robin).
                let mut producers = [NO_PRODUCER; 2];
                let mut producer_clusters = [0u8; 2];
                for (slot, src) in front.inst.sources().enumerate() {
                    producers[slot] = last_writer[src.index()];
                    producer_clusters[slot] = last_writer_cluster[src.index()];
                }
                let cluster: u8 = if num_clusters > 1 {
                    use crate::config::Steering;
                    let steering = cfg.clusters.expect("checked").steering;
                    let pick = match steering {
                        Steering::RoundRobin => steer_cursor % num_clusters,
                        Steering::Dependence => {
                            let preferred = (0..2)
                                .filter(|&k| producers[k] != NO_PRODUCER)
                                .map(|k| producer_clusters[k] as usize)
                                .find(|&c| cluster_occupancy[c] < cluster_win_cap);
                            preferred.unwrap_or_else(|| {
                                // Least-loaded cluster.
                                (0..num_clusters)
                                    .min_by_key(|&c| cluster_occupancy[c])
                                    .expect("at least one cluster")
                            })
                        }
                    };
                    if cluster_occupancy[pick] >= cluster_win_cap {
                        break; // target cluster full: in-order dispatch stalls
                    }
                    steer_cursor += 1;
                    pick as u8
                } else {
                    0
                };
                let pe = pipe.pop_front().expect("checked non-empty");
                let inst = pe.inst;
                let seq = dispatched;

                let mut long_miss_load = false;
                let comp_latency = match inst.op {
                    Op::Load => {
                        let addr = inst.mem_addr.expect("loads carry addresses");
                        // A data-TLB miss serializes a page walk in
                        // front of the cache access.
                        let walk = match &mut self.dtlb {
                            Some(tlb) => {
                                if tlb.access(addr) {
                                    0
                                } else {
                                    report.dtlb_misses += 1;
                                    tlb.config().walk_latency
                                }
                            }
                            None => 0,
                        };
                        walk + match self.hierarchy.access(AccessKind::Load, addr) {
                            AccessOutcome::L1 => cfg.latencies.latency(Op::Load),
                            AccessOutcome::L2 => {
                                report.dcache_short_misses += 1;
                                cfg.l2_latency
                            }
                            AccessOutcome::Memory => {
                                report.dcache_long_misses += 1;
                                long_miss_load = true;
                                cfg.mem_latency
                            }
                        }
                    }
                    Op::Store => {
                        // Stores retire through a write buffer: they
                        // warm the cache but never block completion.
                        let addr = inst.mem_addr.expect("stores carry addresses");
                        self.hierarchy.access(AccessKind::Store, addr);
                        1
                    }
                    op => cfg.latencies.latency(op),
                };

                if let Some(d) = inst.dest {
                    last_writer[d.index()] = seq;
                    last_writer_cluster[d.index()] = cluster;
                }
                if pe.mispredicted {
                    branch_fetch_cycle = pe.ready.saturating_sub(cfg.pipe_depth as u64);
                }
                cluster_occupancy[cluster as usize] += 1;
                let slot = Slot {
                    // Cross-cluster results arrive late.
                    forward: producer_clusters.map(|c| {
                        if num_clusters > 1 && c != cluster {
                            forward_delay
                        } else {
                            0
                        }
                    }),
                    comp_latency,
                    fu_class: inst.op.fu_class(),
                    cluster,
                    mispredicted: pe.mispredicted,
                    long_miss_load,
                    ..Slot::EMPTY
                };
                rob.dispatch(seq, producers, slot);
                window.push(seq);
                dispatched += 1;
                dispatched_now += 1;
            }

            // ---- fetch ----
            let fetch_state = (next_seq, trace_done, fetch_stall_until, prefetch.len());
            // With a fetch buffer: first feed the pipe from the buffer
            // (up to `width`), then prefetch into the buffer (up to its
            // bandwidth) — so buffered instructions keep the pipeline
            // fed while an I-cache miss stalls the prefetcher.
            // Without one: fetch couples the I-cache directly to the
            // pipe, as in the paper's baseline.
            if let Some(fb) = cfg.fetch_buffer {
                let mut fed = 0;
                while fed < width && pipe.len() < pipe_cap {
                    let Some((inst, mispredicted)) = prefetch.pop_front() else {
                        break;
                    };
                    next_seq += 1;
                    pipe.push_back(PipeEntry {
                        ready: cycle + cfg.pipe_depth as u64,
                        inst,
                        mispredicted,
                    });
                    fed += 1;
                }
                if !blocked_on_branch && cycle >= fetch_stall_until && !trace_done {
                    let mut prefetched = 0;
                    while prefetched < fb.bandwidth as usize && prefetch.len() < fb.entries as usize
                    {
                        let inst = match pending_inst.take() {
                            Some(i) => i,
                            None => {
                                let Some(i) = trace.next_inst() else {
                                    trace_done = true;
                                    break;
                                };
                                match self.hierarchy.access(AccessKind::IFetch, i.pc) {
                                    AccessOutcome::L1 => i,
                                    AccessOutcome::L2 => {
                                        report.icache_short_misses += 1;
                                        fetch_stall_until = cycle + cfg.l2_latency as u64;
                                        pending_inst = Some(i);
                                        if let Some(buf) = events.as_deref_mut() {
                                            push_icache_event(
                                                buf,
                                                &mut last_boundary_cycle,
                                                report.instructions,
                                                next_seq,
                                                cycle,
                                                fetch_stall_until,
                                                cfg.l2_latency as u64,
                                            );
                                        }
                                        break;
                                    }
                                    AccessOutcome::Memory => {
                                        report.icache_long_misses += 1;
                                        fetch_stall_until = cycle + cfg.mem_latency as u64;
                                        pending_inst = Some(i);
                                        if let Some(buf) = events.as_deref_mut() {
                                            push_icache_event(
                                                buf,
                                                &mut last_boundary_cycle,
                                                report.instructions,
                                                next_seq,
                                                cycle,
                                                fetch_stall_until,
                                                cfg.mem_latency as u64,
                                            );
                                        }
                                        break;
                                    }
                                }
                            }
                        };
                        let mut mispredicted = false;
                        if inst.op.is_cond_branch() {
                            let taken = inst.branch.expect("branches carry outcomes").taken;
                            let correct = self.predictor.observe(inst.pc, taken);
                            report.cond_branches += 1;
                            if !correct {
                                report.mispredicts += 1;
                                mispredicted = true;
                            }
                        }
                        prefetch.push_back((inst, mispredicted));
                        prefetched += 1;
                        if mispredicted {
                            blocked_on_branch = true;
                            break;
                        }
                    }
                }
            } else if !blocked_on_branch && cycle >= fetch_stall_until && !trace_done {
                let mut fetched = 0;
                while fetched < width && pipe.len() < pipe_cap {
                    let inst = match pending_inst.take() {
                        Some(i) => i,
                        None => {
                            let Some(i) = trace.next_inst() else {
                                trace_done = true;
                                break;
                            };
                            match self.hierarchy.access(AccessKind::IFetch, i.pc) {
                                AccessOutcome::L1 => i,
                                AccessOutcome::L2 => {
                                    report.icache_short_misses += 1;
                                    fetch_stall_until = cycle + cfg.l2_latency as u64;
                                    pending_inst = Some(i);
                                    if let Some(buf) = events.as_deref_mut() {
                                        push_icache_event(
                                            buf,
                                            &mut last_boundary_cycle,
                                            report.instructions,
                                            next_seq,
                                            cycle,
                                            fetch_stall_until,
                                            cfg.l2_latency as u64,
                                        );
                                    }
                                    break;
                                }
                                AccessOutcome::Memory => {
                                    report.icache_long_misses += 1;
                                    fetch_stall_until = cycle + cfg.mem_latency as u64;
                                    pending_inst = Some(i);
                                    if let Some(buf) = events.as_deref_mut() {
                                        push_icache_event(
                                            buf,
                                            &mut last_boundary_cycle,
                                            report.instructions,
                                            next_seq,
                                            cycle,
                                            fetch_stall_until,
                                            cfg.mem_latency as u64,
                                        );
                                    }
                                    break;
                                }
                            }
                        }
                    };
                    next_seq += 1;
                    let mut mispredicted = false;
                    if inst.op.is_cond_branch() {
                        let taken = inst.branch.expect("branches carry outcomes").taken;
                        let correct = self.predictor.observe(inst.pc, taken);
                        report.cond_branches += 1;
                        if !correct {
                            report.mispredicts += 1;
                            mispredicted = true;
                        }
                    }
                    pipe.push_back(PipeEntry {
                        ready: cycle + cfg.pipe_depth as u64,
                        inst,
                        mispredicted,
                    });
                    fetched += 1;
                    if mispredicted {
                        // Fetching of useful instructions stops until
                        // the branch resolves.
                        blocked_on_branch = true;
                        break;
                    }
                }
            }

            let rob_len = dispatched - rob_front_seq;
            report.window_occupancy_sum += window.len() as u64;
            report.rob_occupancy_sum += rob_len;
            cycle += 1;

            if trace_done
                && pipe.is_empty()
                && rob_len == 0
                && prefetch.is_empty()
                && pending_inst.is_none()
            {
                break;
            }

            // ---- skip dead cycles ----
            // A cycle that retired, issued, dispatched and fetched
            // nothing left the state as it found it, so every cycle
            // before the next event would do nothing as well: jump to
            // that event, charging the skipped cycles their occupancy.
            // An event is a cycle at which one of the time comparisons
            // above flips: the ROB head completes, a window entry's
            // operands arrive, the pipe front reaches dispatch, or a
            // fetch stall ends. A pipe front that is already ready but
            // blocked by a full ROB, window or cluster is no event; only
            // a retire or an issue can unblock it.
            let idle = retired == 0
                && issued == 0
                && dispatched_now == 0
                && fetch_state == (next_seq, trace_done, fetch_stall_until, prefetch.len());
            if idle && skip_dead_cycles {
                let now = cycle - 1;
                let mut next = if rob_len > 0 {
                    rob.slot(rob_front_seq).done
                } else {
                    u64::MAX
                };
                for &seq in &window {
                    next = next.min(rob.ready_at(seq));
                }
                if let Some(front) = pipe.front().filter(|f| f.ready > now) {
                    next = next.min(front.ready);
                }
                if fetch_stall_until > now {
                    next = next.min(fetch_stall_until);
                }
                if next != u64::MAX && next > cycle {
                    let skipped = next - cycle;
                    report.window_occupancy_sum += window.len() as u64 * skipped;
                    report.rob_occupancy_sum += rob_len * skipped;
                    cycles_skipped += skipped;
                    cycle = next;
                }
            }
        }

        report.cycles = cycle;
        if let Some(buf) = events {
            // Close the trailing interval (the steady-state tail after
            // the last miss event).
            buf.push(TraceEvent::new(
                EventKind::IntervalBoundary,
                report.instructions,
                last_boundary_cycle,
                cycle,
                0,
            ));
        }
        fosm_obs::with_registry(|registry| {
            report.observe_into(registry, "sim");
            registry.counter_add("sim.cycles_skipped", cycles_skipped);
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictorConfig;
    use fosm_cache::{CacheConfig, HierarchyConfig, Replacement};
    use fosm_isa::Reg;
    use fosm_trace::VecTrace;

    fn independents(n: usize) -> Vec<Inst> {
        (0..n)
            .map(|i| {
                Inst::alu(
                    i as u64 * 4,
                    Op::IntAlu,
                    Reg::new((i % 32) as u8),
                    None,
                    None,
                )
            })
            .collect()
    }

    fn chain(n: usize) -> Vec<Inst> {
        (0..n)
            .map(|i| {
                Inst::alu(
                    i as u64 * 4,
                    Op::IntAlu,
                    Reg::new(1),
                    if i == 0 { None } else { Some(Reg::new(1)) },
                    None,
                )
            })
            .collect()
    }

    fn run_ideal(insts: Vec<Inst>) -> SimReport {
        Machine::new(MachineConfig::ideal()).run(&mut VecTrace::new(insts))
    }

    #[test]
    fn independent_instructions_reach_full_width() {
        let r = run_ideal(independents(4000));
        assert_eq!(r.instructions, 4000);
        assert!(r.ipc() > 3.8, "ipc {}", r.ipc());
        assert!(r.ipc() <= 4.0 + 1e-9);
    }

    #[test]
    fn dependence_chain_runs_at_one_ipc() {
        let r = run_ideal(chain(2000));
        assert!((r.ipc() - 1.0).abs() < 0.05, "ipc {}", r.ipc());
    }

    #[test]
    fn multiply_chain_runs_at_one_over_latency() {
        let insts: Vec<Inst> = (0..900)
            .map(|i| {
                Inst::alu(
                    i as u64 * 4,
                    Op::IntMul,
                    Reg::new(1),
                    if i == 0 { None } else { Some(Reg::new(1)) },
                    None,
                )
            })
            .collect();
        let r = run_ideal(insts);
        // IntMul latency 3 -> one instruction every 3 cycles.
        assert!((r.ipc() - 1.0 / 3.0).abs() < 0.02, "ipc {}", r.ipc());
    }

    #[test]
    fn narrow_machine_halves_throughput() {
        let mut cfg = MachineConfig::ideal();
        cfg.width = 2;
        let r = Machine::new(cfg).run(&mut VecTrace::new(independents(4000)));
        assert!((r.ipc() - 2.0).abs() < 0.1, "ipc {}", r.ipc());
    }

    #[test]
    fn mispredicted_branch_costs_at_least_the_pipeline_depth() {
        // Independent instructions with a single always-mispredicted
        // branch in the middle (NeverTaken predictor, taken branch).
        let mut insts = independents(800);
        insts[400] = Inst::branch(400 * 4, Op::CondBranch, None, true, 401 * 4);
        let mut with_miss = MachineConfig::ideal();
        with_miss.predictor = PredictorConfig::NeverTaken;
        let r_miss = Machine::new(with_miss).run(&mut VecTrace::new(insts.clone()));
        let r_ideal = run_ideal(insts);
        assert_eq!(r_miss.mispredicts, 1);
        let penalty = r_miss.cycles as i64 - r_ideal.cycles as i64;
        // Paper: penalty = win_drain + pipe_depth + ramp_up >= pipe_depth.
        assert!(
            penalty >= 5,
            "penalty {penalty} should be at least the front-end depth"
        );
        assert!(penalty <= 30, "penalty {penalty} unreasonably large");
    }

    #[test]
    fn deeper_pipeline_raises_branch_penalty() {
        let mut insts = independents(800);
        for k in [200usize, 400, 600] {
            insts[k] = Inst::branch(k as u64 * 4, Op::CondBranch, None, true, (k as u64 + 1) * 4);
        }
        let mk = |depth| {
            let mut c = MachineConfig::ideal().with_pipe_depth(depth);
            c.predictor = PredictorConfig::NeverTaken;
            Machine::new(c).run(&mut VecTrace::new(insts.clone()))
        };
        let shallow = mk(5);
        let deep = mk(9);
        assert_eq!(shallow.mispredicts, 3);
        // Each of the 3 mispredictions should cost 4-8 extra cycles
        // (one per added stage for the refill, plus up to one more for
        // the branch's own travel when it resolves before the window
        // drains, as these dependence-free branches do).
        let delta = deep.cycles as i64 - shallow.cycles as i64;
        assert!((12..=24).contains(&delta), "delta {delta}, expected 12..24");
    }

    #[test]
    fn icache_miss_stalls_fetch_by_l2_latency() {
        // Tiny L1I (2 lines of 64 B) and huge L2: every 16th instruction
        // crosses a line; lines cycle so each crossing is a short miss.
        let l1i = CacheConfig::new(128, 2, 64, Replacement::Lru).unwrap();
        let mut cfg = MachineConfig::ideal();
        cfg.hierarchy = HierarchyConfig {
            l1i: Some(l1i),
            l1d: None,
            l2: None,
            next_line_prefetch: 0,
        };
        let r = Machine::new(cfg).run(&mut VecTrace::new(independents(3200)));
        assert!(
            r.icache_short_misses > 100,
            "misses {}",
            r.icache_short_misses
        );
        let ideal = run_ideal(independents(3200));
        let per_miss = (r.cycles as f64 - ideal.cycles as f64) / r.icache_short_misses as f64;
        // Paper §4.2: the I-cache miss penalty approximately equals the
        // miss delay (8 cycles here).
        assert!(
            (6.0..=9.5).contains(&per_miss),
            "per-miss penalty {per_miss}, expected ~8"
        );
    }

    #[test]
    fn long_data_miss_blocks_retirement_and_fills_rob() {
        // One cold load (tiny L1D and L2 -> miss to memory) followed by
        // independent instructions.
        let l1d = CacheConfig::new(128, 2, 64, Replacement::Lru).unwrap();
        let l2 = CacheConfig::new(256, 2, 64, Replacement::Lru).unwrap();
        let mut insts = vec![Inst::load(0, Reg::new(40), None, 0x9000)];
        insts.extend(independents(600).into_iter().map(|mut i| {
            i.pc += 4;
            i
        }));
        let mut cfg = MachineConfig::ideal();
        cfg.hierarchy = HierarchyConfig {
            l1i: None,
            l1d: Some(l1d),
            l2: Some(l2),
            next_line_prefetch: 0,
        };
        let r = Machine::new(cfg).run(&mut VecTrace::new(insts));
        assert_eq!(r.dcache_long_misses, 1);
        // Expected time: the load issues at ~cycle 7 and completes at
        // ~207; retirement then drains all 601 instructions at the
        // retire width, 601/4 ≈ 150 cycles -> ~357 total.
        assert!(r.cycles >= 340, "cycles {}", r.cycles);
        assert!(r.cycles <= 380, "cycles {}", r.cycles);
        // While blocked, the ROB should have filled.
        assert!(
            r.mean_rob_occupancy() > 60.0,
            "rob occ {}",
            r.mean_rob_occupancy()
        );
    }

    #[test]
    fn retired_producer_still_pays_the_forwarding_delay() {
        // A long miss heads a full 128-entry ROB. When it retires, the
        // two instructions dispatched in its place include seq 129, on
        // the other cluster (round robin), which reads the miss's
        // result: it must still wait out the 3-cycle forwarding delay,
        // although the miss has left the ROB. A ring of only `rob_size`
        // slots would have reused the miss's slot by then.
        let forward_delay = 3;
        let mut cfg = MachineConfig::ideal().with_clusters(crate::ClusterConfig {
            clusters: 2,
            forward_delay,
            steering: crate::Steering::RoundRobin,
        });
        cfg.width = 2;
        cfg.win_size = 64;
        cfg.rob_size = 128;
        cfg.hierarchy = HierarchyConfig {
            l1i: None,
            l1d: Some(CacheConfig::new(128, 2, 64, Replacement::Lru).unwrap()),
            l2: Some(CacheConfig::new(256, 2, 64, Replacement::Lru).unwrap()),
            next_line_prefetch: 0,
        };
        let run = |dependent: bool| {
            let mut insts = vec![Inst::load(0, Reg::new(40), None, 0x9000)];
            insts.extend(
                (1..=128)
                    .map(|i| Inst::alu(i * 4, Op::IntAlu, Reg::new((i % 32) as u8), None, None)),
            );
            let source = dependent.then(|| Reg::new(40));
            insts.push(Inst::alu(129 * 4, Op::IntAlu, Reg::new(41), source, None));
            insts.extend(
                (130..330)
                    .map(|i| Inst::alu(i * 4, Op::IntAlu, Reg::new(41), Some(Reg::new(41)), None)),
            );
            Machine::new(cfg.clone()).run(&mut VecTrace::new(insts))
        };
        let (with, without) = (run(true), run(false));
        assert_eq!(with.dcache_long_misses, 1);
        // Without the dependence seq 129 issues the cycle after it
        // dispatches; with it, `forward_delay` cycles after.
        assert_eq!(with.cycles, without.cycles + forward_delay as u64 - 1);
    }

    #[test]
    fn ideal_run_is_deterministic() {
        let a = run_ideal(independents(1000));
        let b = run_ideal(independents(1000));
        assert_eq!(a, b);
    }

    #[test]
    fn window_size_limits_extractable_parallelism() {
        // Interleave 8 chains; a tiny window cannot see across chains.
        let mut insts = Vec::new();
        for i in 0..4000u64 {
            let r = Reg::new((i % 8) as u8);
            insts.push(Inst::alu(i * 4, Op::IntAlu, r, Some(r), None));
        }
        let mut small = MachineConfig::ideal();
        small.width = 8;
        small.win_size = 2;
        let mut big = MachineConfig::ideal();
        big.width = 8;
        big.win_size = 48;
        let r_small = Machine::new(small).run(&mut VecTrace::new(insts.clone()));
        let r_big = Machine::new(big).run(&mut VecTrace::new(insts));
        assert!(
            r_big.ipc() > 2.0 * r_small.ipc(),
            "big {} vs small {}",
            r_big.ipc(),
            r_small.ipc()
        );
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let r = Machine::new(MachineConfig::ideal()).run(&mut VecTrace::default());
        assert_eq!(r.instructions, 0);
        assert!(r.cycles <= 2);
    }

    #[test]
    fn traced_run_reports_identically_and_collects_events() {
        let mut insts = independents(800);
        insts[400] = Inst::branch(400 * 4, Op::CondBranch, None, true, 401 * 4);
        let mut cfg = MachineConfig::ideal();
        cfg.predictor = PredictorConfig::NeverTaken;
        let untraced = Machine::new(cfg.clone()).run(&mut VecTrace::new(insts.clone()));
        let (traced, events) = Machine::new(cfg).run_traced(&mut VecTrace::new(insts));
        // Tracing must not perturb the simulation.
        assert_eq!(untraced, traced);
        let branches: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::BranchMispredict)
            .collect();
        assert_eq!(branches.len() as u64, traced.mispredicts);
        let b = branches[0];
        assert_eq!(b.inst, 400);
        assert!(b.end > b.start, "mispredict extent must be positive");
        assert!(b.predicted.is_nan(), "sim must not invent predictions");
        // Every miss event terminates an interval; plus the tail.
        let boundaries = events
            .iter()
            .filter(|e| e.kind == EventKind::IntervalBoundary)
            .count();
        assert_eq!(boundaries, branches.len() + 1);
    }

    #[test]
    fn traced_event_counts_match_report_counters() {
        // Tiny caches force both I-misses and a long D-miss.
        let l1i = CacheConfig::new(128, 2, 64, Replacement::Lru).unwrap();
        let l1d = CacheConfig::new(128, 2, 64, Replacement::Lru).unwrap();
        let l2 = CacheConfig::new(256, 2, 64, Replacement::Lru).unwrap();
        let mut insts = vec![Inst::load(0, Reg::new(40), None, 0x9000)];
        insts.extend(independents(600).into_iter().map(|mut i| {
            i.pc += 4;
            i
        }));
        let mut cfg = MachineConfig::ideal();
        cfg.hierarchy = HierarchyConfig {
            l1i: Some(l1i),
            l1d: Some(l1d),
            l2: Some(l2),
            next_line_prefetch: 0,
        };
        let (r, events) = Machine::new(cfg.clone()).run_traced(&mut VecTrace::new(insts));
        let count = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count() as u64;
        assert_eq!(
            count(EventKind::ICacheMiss),
            r.icache_short_misses + r.icache_long_misses
        );
        assert_eq!(count(EventKind::LongDCacheMiss), r.dcache_long_misses);
        assert!(r.dcache_long_misses >= 1);
        // The long miss is charged the memory latency.
        let d = events
            .iter()
            .find(|e| e.kind == EventKind::LongDCacheMiss)
            .unwrap();
        assert_eq!(d.delta, cfg.mem_latency as u64);
        assert!(d.extent() >= cfg.mem_latency as u64);
        // Intervals tile the run: boundaries are monotonic and the
        // last one ends at the final cycle.
        let bounds: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::IntervalBoundary)
            .collect();
        for pair in bounds.windows(2) {
            assert!(pair[0].end == pair[1].start, "intervals must tile");
        }
        assert_eq!(bounds.last().unwrap().end, r.cycles);
    }

    #[test]
    fn stores_do_not_block_retirement() {
        // Stores that miss to memory retire immediately via the write
        // buffer: total time stays ~n/width.
        let l1d = CacheConfig::new(128, 2, 64, Replacement::Lru).unwrap();
        let l2 = CacheConfig::new(256, 2, 64, Replacement::Lru).unwrap();
        let mut insts = Vec::new();
        for i in 0..400u64 {
            insts.push(Inst::store(i * 4, Reg::new(1), None, 0x10000 + i * 4096));
        }
        let mut cfg = MachineConfig::ideal();
        cfg.hierarchy = HierarchyConfig {
            l1i: None,
            l1d: Some(l1d),
            l2: Some(l2),
            next_line_prefetch: 0,
        };
        let r = Machine::new(cfg).run(&mut VecTrace::new(insts));
        assert_eq!(r.dcache_long_misses, 0, "store misses are not long misses");
        assert!(r.ipc() > 3.0, "ipc {}", r.ipc());
    }
}
