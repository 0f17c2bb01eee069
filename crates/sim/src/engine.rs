//! The out-of-order pipeline engine.
//!
//! Stage order within one [`Core::tick`] is writeback → commit → issue →
//! LSQ → rename → fetch, so results produced in cycle *n* can wake
//! dependents issuing in cycle *n* (back-to-back execution), and resources
//! freed by commit are reusable the same cycle.
//!
//! Speculation is real: fetch follows the branch predictor, wrong-path
//! instructions execute with real values (reading real memory through the
//! backend, which is precisely how Spectre gadgets obtain secrets), and a
//! resolved misprediction squashes younger instructions, rolls back the
//! rename map youngest-first, repairs predictor history, and notifies the
//! memory backend so it can wipe speculative state above the squashing
//! timestamp (§4.2).

use crate::bpred::{BranchUpdate, TournamentPredictor};
use crate::config::{CoreConfig, TaintMode};
use crate::fu::FuPool;
use crate::lsq::{ForwardResult, LoadQueue, LoadState, StoreQueue};
use crate::mem_if::{AccessKind, LoadResp, MemReq, MemoryBackend};
use crate::regfile::{PhysReg, RegFile};
use crate::rob::{Rob, RobStatus};
use crate::trace::{SquashCause, TraceEvent, TraceSink};
use crate::wakeup::WakeupTable;
use gm_isa::{alu_eval, branch_taken, pc_to_addr, FuClass, Inst, Op, Program, Reg};
use gm_mem::line_addr;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

/// Data-cache ports: loads/stores the LSQ may send to memory per cycle.
const MEM_PORTS: usize = 2;

/// An instruction-cache response within this many cycles of `now` is
/// treated as pipelined (no fetch stall); anything slower stalls fetch.
const IFETCH_PIPELINED: u64 = 3;

/// Cycles with no commit before the engine assumes deadlock and panics.
const DEADLOCK_CYCLES: u64 = 200_000;

#[derive(Clone, Debug)]
struct Fetched {
    pc: u64,
    inst: Inst,
    pred_taken: bool,
    pred_target: u64,
    ghist_before: u64,
    ras_cp: Option<crate::bpred::RasCheckpoint>,
    avail_at: u64,
    fetch_line: u64,
    /// Cycle the frontend fetched this instruction (trace only).
    fetched_at: u64,
}

/// One issue-queue slot. The IQ is a fixed slab: rename fills a free
/// slot, issue and squash free it, and nothing ever moves.
#[derive(Clone, Copy, Debug)]
struct IqEntry {
    /// The occupant's seq, or [`IQ_FREE`].
    seq: u64,
    srcs: [Option<PhysReg>; 2],
    class: FuClass,
}

/// The seq of an empty IQ slot (real seqs start at 1).
const IQ_FREE: u64 = 0;

/// What one send attempt did with a send-list load.
enum SendOutcome {
    /// Parked, blocked on a store, or forwarded: the load left the send
    /// list without claiming a memory port.
    Left,
    /// Sent to memory on a port; the load left the send list.
    Sent,
    /// Rejected for MSHR pressure on a port; the load stays on the send
    /// list, backing off until the given cycle.
    Retry(u64),
}

/// Inserts `(seq, x)` into `list`, kept sorted by seq, unless `seq` is
/// already there; returns whether it inserted. Scans from the back,
/// where joins usually land.
fn insert_by_seq<T>(list: &mut Vec<(u64, T)>, seq: u64, x: T) -> bool {
    let pos = list.iter().rposition(|e| e.0 <= seq).map_or(0, |i| i + 1);
    if pos > 0 && list[pos - 1].0 == seq {
        return false;
    }
    list.insert(pos, (seq, x));
    true
}

const EV_EXEC: u64 = 0;
const EV_LOAD: u64 = 1;

/// Aggregate per-core statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles this core has ticked (including replayed quiescent ones).
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions fetched (including later-squashed wrong path).
    pub fetched: u64,
    /// Instructions squashed by misprediction recovery.
    pub squashed: u64,
    /// Branch mispredictions taken.
    pub mispredicts: u64,
    /// Loads committed.
    pub loads_committed: u64,
    /// Stores committed.
    pub stores_committed: u64,
    /// Loads satisfied by store-queue forwarding.
    pub load_forwards: u64,
    /// Loads delayed by the STT taint gate.
    pub stt_delays: u64,
    /// Non-pipelined ops delayed by strictness-ordered FU scheduling.
    pub strict_fu_delays: u64,
    /// Loads replayed after a leapfrog cancellation.
    pub load_replays: u64,
    /// Loads rejected with Retry (MSHR pressure).
    pub load_retries: u64,
}

impl CoreStats {
    /// Instructions per cycle over the committed stream.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// One simulated out-of-order core.
pub struct Core {
    cfg: CoreConfig,
    id: usize,
    program: Program,
    bpred: TournamentPredictor,
    regs: RegFile,
    rob: Rob,
    /// The IQ slab (`iq_entries` slots) and its free slots.
    iq: Vec<IqEntry>,
    iq_free: Vec<u32>,
    lq: LoadQueue,
    sq: StoreQueue,
    fu: FuPool,
    fetch_pc: u64,
    fetch_queue: VecDeque<Fetched>,
    cur_fetch_line: Option<u64>,
    fetch_stall_until: u64,
    next_seq: u64,
    halted: bool,
    // (time, seq, kind, ticket) min-heap.
    events: BinaryHeap<Reverse<(u64, u64, u64, u64)>>,
    stall_commit_until: u64,
    /// Load at the ROB head whose commit_load was already issued, with
    /// the cycle it becomes committable (commit_load is called once).
    pending_commit: Option<(u64, u64)>,
    last_commit_cycle: u64,
    last_committed_iline: u64,
    stats: CoreStats,
    /// Calls to [`Core::tick`] made while this core was not halted.
    ticks: u64,
    /// Whether this core is the reference oracle (see
    /// [`Core::set_reference`]): issue scans the whole IQ in seq order
    /// instead of the wakeup-driven ready set, and the LSQ scans the
    /// whole LQ instead of the send list.
    reference: bool,
    /// Per-physical-register lists of IQ entries waiting on that value.
    wakeup: WakeupTable,
    /// `(seq, slot)` of the IQ entries whose sources are all ready,
    /// sorted by seq (so issue selects oldest-first, exactly like the
    /// seq-ordered scan).
    ready: Vec<(u64, u32)>,
    /// `(seq, slot)` of the non-pipelined (IntDiv/FpDiv/FpSqrt) IQ
    /// entries, sorted by seq. Under §4.9 strict FU ordering these drive
    /// the blocked/strict accounting even while their sources are not
    /// ready.
    nonpipe: Vec<(u64, u32)>,
    /// Reusable wakeup drain buffer (no per-writeback allocation).
    scratch_woken: Vec<(u64, u32)>,
    /// Reusable issue visit list (no per-cycle allocation).
    scratch_visit: Vec<(u64, u32)>,
    /// The send list: `(seq, retry_at)` of every load the LSQ send stage
    /// may try ([`LoadEntry::sendable`]), sorted by seq, each with its
    /// MSHR-retry backoff cached. Loads join at AGU, unpark, store
    /// unblock and leapfrog cancel-replay, and leave at send, forward,
    /// block, park and squash, so the stage walks its candidates, not the
    /// queue.
    ///
    /// [`LoadEntry::sendable`]: crate::lsq::LoadEntry::sendable
    send: Vec<(u64, u64)>,
    /// Whether the current tick changed state (see [`Core::tick`]).
    tick_progress: bool,
    /// Strictness-blocked non-pipelined ops counted this tick.
    idle_strict_fu_delays: u64,
    /// Seqs of STT-parked loads (see [`LoadEntry::parked`]), sorted
    /// ascending. Because visibility is monotone in age — an older load
    /// has a subset of a younger load's possible blockers — the visible
    /// parked loads are always a prefix, so the unpark check is O(1) per
    /// stage run until something actually unparks.
    parked_seqs: Vec<u64>,
    /// Observer of per-instruction lifecycle edges (see
    /// [`TraceSink`]). `None` in production: every hook is then a
    /// single branch and no event is ever constructed. Hooks only
    /// *read* engine state, so an installed sink provably cannot
    /// perturb simulation (pinned by the trace-neutrality oracle
    /// tests).
    trace: Option<Rc<RefCell<dyn TraceSink>>>,
}

impl Core {
    /// Builds a core at reset, about to fetch `program` from pc 0.
    ///
    /// Initial register values from the program are applied; initial data
    /// segments must be installed into the backend by the caller (see
    /// [`Core::install_program_data`]).
    pub fn new(id: usize, cfg: CoreConfig, program: Program) -> Self {
        cfg.validate();
        if let Err(i) = program.validate() {
            panic!(
                "program {:?} has invalid control target at {i}",
                program.name
            );
        }
        let mut regs = RegFile::new(cfg.int_regs, cfg.fp_regs);
        for &(r, v) in &program.init_regs {
            let p = regs.lookup(r);
            regs.write(p, v);
        }
        Self {
            bpred: TournamentPredictor::new(cfg.bpred),
            regs,
            rob: Rob::new(cfg.rob_entries),
            iq: vec![
                IqEntry {
                    seq: IQ_FREE,
                    srcs: [None; 2],
                    class: FuClass::IntAlu,
                };
                cfg.iq_entries
            ],
            iq_free: (0..cfg.iq_entries as u32).rev().collect(),
            lq: LoadQueue::new(cfg.lq_entries),
            sq: StoreQueue::new(cfg.sq_entries),
            fu: FuPool::new(cfg.int_alu, cfg.fp_alu, cfg.muldiv),
            fetch_pc: 0,
            fetch_queue: VecDeque::new(),
            cur_fetch_line: None,
            fetch_stall_until: 0,
            next_seq: 1,
            halted: false,
            events: BinaryHeap::new(),
            stall_commit_until: 0,
            pending_commit: None,
            last_commit_cycle: 0,
            last_committed_iline: u64::MAX,
            stats: CoreStats::default(),
            ticks: 0,
            reference: false,
            wakeup: WakeupTable::new(cfg.int_regs + cfg.fp_regs),
            ready: Vec::with_capacity(cfg.iq_entries),
            nonpipe: Vec::with_capacity(cfg.iq_entries),
            scratch_woken: Vec::new(),
            scratch_visit: Vec::with_capacity(cfg.iq_entries),
            send: Vec::with_capacity(cfg.lq_entries),
            tick_progress: false,
            idle_strict_fu_delays: 0,
            parked_seqs: Vec::new(),
            trace: None,
            cfg,
            id,
            program,
        }
    }

    /// Writes the program's initial data segments into the backend's
    /// functional memory. Call once before the first tick.
    pub fn install_program_data(&self, mem: &mut dyn MemoryBackend) {
        for seg in &self.program.data {
            mem.write_bytes_shared(seg.base, &seg.bytes);
        }
    }

    /// Whether `Halt` has committed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// This core's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Calls to [`Core::tick`] so far that found this core running. A
    /// run loop that skips quiescent cycles ticks fewer times than the
    /// cycles it simulates; one that ticks every cycle, as
    /// `Machine::run_reference` does, ticks once per cycle until halt.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Turns this core into the reference oracle: issue re-scans the
    /// whole IQ in seq order instead of selecting from the wakeup-driven
    /// ready set, and the LSQ re-scans the whole LQ instead of walking
    /// the send list. Ticked every cycle by `Machine::run_reference`, it
    /// has no shortcut at all, so the production path is checked against
    /// it for bit-identity. Call before the first tick.
    pub fn set_reference(&mut self) {
        self.reference = true;
    }

    /// Installs a trace sink observing this core's per-instruction
    /// lifecycle edges (see [`TraceSink`]). Cores sharing a machine may
    /// share one sink through clones of the same `Rc` handle. Call
    /// before the first tick; tracing never changes simulated
    /// behaviour.
    pub fn set_trace(&mut self, sink: Rc<RefCell<dyn TraceSink>>) {
        self.trace = Some(sink);
    }

    /// Delivers one trace event if a sink is installed. The closure
    /// defers event construction, so the untraced path is a lone
    /// branch.
    #[inline]
    fn emit(&self, now: u64, make: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &self.trace {
            t.borrow_mut().event(now, self.id, &make());
        }
    }

    /// Writes a result register and wakes the IQ entries waiting on it.
    /// Every in-flight result write must go through here (initial-state
    /// writes in [`Core::new`] predate the first dispatch and need not).
    fn write_reg(&mut self, p: PhysReg, val: u64, now: u64) {
        self.regs.write(p, val);
        if !self.wakeup.is_empty(p) {
            self.wake_waiters(p, now);
        }
    }

    /// Drains `p`'s wakeup list: every waiter whose sources are now all
    /// ready moves into the sorted ready set. A record whose slot no
    /// longer holds its seq is stale — the waiter was squashed after
    /// registering — and is dropped here.
    fn wake_waiters(&mut self, p: PhysReg, now: u64) {
        let mut woken = std::mem::take(&mut self.scratch_woken);
        woken.clear();
        self.wakeup.drain_into(p, &mut woken);
        for &(seq, slot) in &woken {
            let q = &self.iq[slot as usize];
            // An entry waiting on the same register through both source
            // slots is drained twice; it is inserted once.
            if q.seq == seq
                && q.srcs.iter().flatten().all(|&s| self.regs.is_ready(s))
                && insert_by_seq(&mut self.ready, seq, slot)
            {
                self.emit(now, || TraceEvent::Ready { seq });
            }
        }
        self.scratch_woken = woken;
    }

    /// Architectural (committed) value of register `r`.
    ///
    /// Only meaningful when the pipeline is drained (halted); mid-flight
    /// it reflects the most recent rename.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs.read(self.regs.lookup(r))
    }

    /// Advances one cycle against `mem`, returning the earliest cycle at
    /// which this core's state can change again.
    ///
    /// A tick makes *progress* when it changes any observable state:
    /// pops a writeback event, commits, issues, touches the memory
    /// backend, renames, or fetches. A progress tick returns `now + 1`.
    /// A tick with no progress is *quiescent* and returns
    /// `Core::next_wake`: ticking again before then would be quiescent
    /// too, with identical per-cycle stall counters, so a run loop may
    /// jump straight to that cycle after calling
    /// [`Core::account_idle_cycles`] for the elided ones — unless the
    /// backend queues a cancellation for this core meanwhile, the one
    /// channel that changes a core's state from outside. A halted core
    /// returns `u64::MAX`. The result is always bounded by the deadlock
    /// deadline, so a stuck core still panics at the same cycle the
    /// reference loop would.
    ///
    /// Every tick calls writeback, commit, issue, LSQ, rename and fetch
    /// in that order; each stage returns at once when it has nothing to
    /// do.
    pub fn tick(&mut self, mem: &mut dyn MemoryBackend, now: u64) -> u64 {
        if self.halted {
            return u64::MAX;
        }
        self.tick_progress = false;
        self.idle_strict_fu_delays = 0;
        self.ticks += 1;
        self.stats.cycles = now + 1;
        self.fu.new_cycle();
        self.drain_cancellations(mem);
        self.writeback(mem, now);
        self.commit(mem, now);
        self.issue(now);
        self.lsq_tick(mem, now);
        self.rename(now);
        self.fetch(mem, now);
        if now.saturating_sub(self.last_commit_cycle) > DEADLOCK_CYCLES {
            panic!(
                "core {} deadlocked: no commit since cycle {} (now {now}); \
                 head={:?}",
                self.id,
                self.last_commit_cycle,
                self.rob.head().map(|e| (e.seq, e.pc, e.inst, e.status))
            );
        }
        if self.tick_progress {
            now + 1
        } else {
            self.next_wake(now)
        }
    }

    /// Earliest cycle after a quiescent tick at `now` at which any stage
    /// can find work — the wake times of exactly the quantities the
    /// stages' entry checks in [`Core::tick`] test: the writeback event
    /// heap, fetch/commit stalls, a done-but-future ROB head, the
    /// frontend delay of the next rename candidate, and the earliest
    /// load-retry backoff cached on the send list. The deadlock deadline
    /// bounds the result so a wedged core still panics exactly where the
    /// per-cycle engine does.
    fn next_wake(&self, now: u64) -> u64 {
        let mut wake = self.last_commit_cycle + DEADLOCK_CYCLES + 1;
        // The event heap also covers every non-pipelined FU release:
        // `FuPool::issue` holds a divider until `now + latency`, the
        // cycle its op's `EV_EXEC` event is due, and events are only
        // ever popped when due, never dropped early.
        if let Some(&Reverse((t, _, _, _))) = self.events.peek() {
            wake = wake.min(t);
        }
        if self.fetch_stall_until > now {
            wake = wake.min(self.fetch_stall_until);
        }
        if self.stall_commit_until > now {
            wake = wake.min(self.stall_commit_until);
        }
        let head_done_at = self.rob.head_done_at();
        if head_done_at != u64::MAX && head_done_at > now {
            wake = wake.min(head_done_at);
        }
        if let Some(f) = self.fetch_queue.front() {
            if f.avail_at > now {
                wake = wake.min(f.avail_at);
            }
        }
        // Parked and store-blocked loads never carry future retries (the
        // retry check precedes the park gate and the forward check), so
        // the send list holds every pending backoff.
        for &(_, retry_at) in &self.send {
            if retry_at > now {
                wake = wake.min(retry_at);
            }
        }
        wake.max(now + 1)
    }

    /// Replays the per-cycle stall counters for `cycles` elided
    /// quiescent cycles, so skipping is invisible in the statistics.
    /// (STT delays need no replay: parked loads settle their whole
    /// waiting interval in one lazy addition — see
    /// `LoadEntry::parked`.)
    pub fn account_idle_cycles(&mut self, cycles: u64) {
        self.stats.strict_fu_delays += self.idle_strict_fu_delays * cycles;
    }

    /// Runs this core alone until halt or `max_cycles`, returning the
    /// final cycle count.
    ///
    /// After each quiescent tick the clock jumps straight to the core's
    /// next wake (see [`Core::tick`]), so a stretch stalled on memory or
    /// a long-latency unit costs one tick.
    pub fn run(&mut self, mem: &mut dyn MemoryBackend, max_cycles: u64) -> u64 {
        self.install_program_data(mem);
        let mut now = 0;
        while !self.halted && now < max_cycles {
            let wake = self.tick(mem, now).min(max_cycles);
            now += 1;
            if wake > now {
                self.account_idle_cycles(wake - now);
                now = wake;
            }
        }
        assert!(
            self.halted,
            "program did not halt within {max_cycles} cycles"
        );
        now
    }

    // ---- cancellations (leapfrogging, §4.5) ----

    fn drain_cancellations(&mut self, mem: &mut dyn MemoryBackend) {
        let cancelled = mem.take_cancellations(self.id);
        if cancelled.is_empty() {
            return;
        }
        self.tick_progress = true;
        for ticket in cancelled {
            if let Some(seq) = self.lq.cancel_ticket(ticket) {
                self.stats.load_replays += 1;
                let retry_at = self.lq.get(seq).expect("just cancelled").retry_at;
                insert_by_seq(&mut self.send, seq, retry_at);
            }
        }
    }

    // ---- writeback ----

    fn writeback(&mut self, mem: &mut dyn MemoryBackend, now: u64) {
        while let Some(&Reverse((t, _, _, _))) = self.events.peek() {
            if t > now {
                break;
            }
            let Reverse((_, seq, kind, ticket)) = self.events.pop().expect("peeked");
            self.tick_progress = true;
            match kind {
                EV_EXEC => self.complete_exec(mem, seq, now),
                EV_LOAD => self.complete_load(seq, ticket, now),
                _ => unreachable!("unknown event kind"),
            }
        }
    }

    fn complete_exec(&mut self, mem: &mut dyn MemoryBackend, seq: u64, now: u64) {
        let Some(ri) = self.rob.find(seq) else {
            return; // squashed while in flight
        };
        self.rob.set_done_at(ri, now);
        self.emit(now, || TraceEvent::Writeback { seq });
        let e = self.rob.at(ri);
        let inst = e.inst;
        let result = e.result;
        let result_tainted = e.result_tainted;
        let phys_rd = e.phys_rd;
        if let (Some(_rd), Some(p)) = (inst.dest(), phys_rd) {
            if inst.op != Op::Sc {
                // Store-conditionals resolve at commit.
                self.write_reg(p, result, now);
                self.regs.set_taint(p, result_tainted);
            }
        }
        if inst.op.is_ctrl() {
            self.resolve_branch(mem, ri, now);
        }
    }

    fn complete_load(&mut self, seq: u64, ticket: u64, now: u64) {
        let Some(li) = self.lq.find(seq) else {
            return; // squashed
        };
        let le = self.lq.at(li);
        match le.state {
            LoadState::InFlight { ticket: t } if t == ticket => {}
            LoadState::Done if le.forwarded && ticket == u64::MAX => {}
            _ => return, // cancelled and re-issued, or stale
        }
        let value = le.value;
        let le = self.lq.at_mut(li);
        le.state = LoadState::Done;
        le.done_at = now;
        let taint_mode = self.cfg.taint_mode;
        let Some(ri) = self.rob.find(seq) else {
            return;
        };
        self.rob.set_done_at(ri, now);
        self.emit(now, || TraceEvent::Writeback { seq });
        let e = self.rob.at_mut(ri);
        e.result = value;
        let phys_rd = e.phys_rd;
        let speculative = e.issued_speculatively;
        if let Some(p) = phys_rd {
            let tainted = taint_mode.is_some() && speculative;
            self.write_reg(p, value, now);
            self.regs.set_taint(p, tainted);
        }
    }

    /// `ri` is the ROB position of the resolving branch (see
    /// [`Rob::find`]); squashing only removes younger entries, so it
    /// stays valid throughout.
    fn resolve_branch(&mut self, mem: &mut dyn MemoryBackend, ri: usize, now: u64) {
        let e = self.rob.at(ri);
        let mispredict = if e.taken != e.pred_taken {
            true
        } else {
            e.taken && e.actual_target != e.pred_target
        };
        if !mispredict {
            return;
        }
        let (seq, inst, ghist_before, taken, target) =
            (e.seq, e.inst, e.ghist_before, e.taken, e.actual_target);
        self.rob.at_mut(ri).mispredicted = true;
        self.stats.mispredicts += 1;
        self.squash_after(mem, seq, target, now, SquashCause::Mispredict);
        if inst.op.is_cond_branch() {
            self.bpred.repair_ghist(ghist_before, taken);
        } else {
            self.bpred.restore_ghist(ghist_before);
        }
    }

    fn squash_after(
        &mut self,
        mem: &mut dyn MemoryBackend,
        seq: u64,
        redirect_pc: u64,
        now: u64,
        cause: SquashCause,
    ) {
        let max_ts = self.next_seq.saturating_sub(1);
        let regs = &mut self.regs;
        let bpred = &mut self.bpred;
        let wakeup = &mut self.wakeup;
        let trace = self.trace.as_deref();
        let core_id = self.id;
        let n = self.rob.squash_above(seq, |e| {
            if let (Some(rd), Some(new), Some(old)) = (e.inst.dest(), e.phys_rd, e.old_phys_rd) {
                regs.unrename(rd, new, old);
                // A freed register never gets written; anything still on
                // its wakeup list was younger and is being squashed too.
                wakeup.clear(new);
            }
            if let Some(cp) = e.ras_cp {
                bpred.ras_restore(cp);
            }
            if let Some(t) = trace {
                t.borrow_mut().event(
                    now,
                    core_id,
                    &TraceEvent::Squash {
                        seq: e.seq,
                        pc: e.pc,
                        op: e.inst.op,
                        cause,
                    },
                );
            }
        });
        self.stats.squashed += n as u64;
        for (slot, q) in self.iq.iter_mut().enumerate() {
            if q.seq > seq {
                q.seq = IQ_FREE;
                self.iq_free.push(slot as u32);
            }
        }
        self.ready
            .truncate(self.ready.partition_point(|&(s, _)| s <= seq));
        self.nonpipe
            .truncate(self.nonpipe.partition_point(|&(s, _)| s <= seq));
        // Squashed parked loads settle their STT delay now: the per-cycle
        // gate would have counted them every cycle up to (but excluding)
        // this one — the squash removes them before this cycle's LSQ scan.
        while let Some(&s) = self.parked_seqs.last() {
            if s <= seq {
                break;
            }
            self.parked_seqs.pop();
            let le = self.lq.get(s).expect("parked load still queued");
            self.stats.stt_delays += (now - le.parked_since) - le.park_deficit;
        }
        self.lq.squash_above(seq);
        self.send
            .truncate(self.send.partition_point(|&(s, _)| s <= seq));
        self.sq.squash_above(seq);
        self.fetch_queue.clear();
        self.cur_fetch_line = None;
        self.fetch_pc = redirect_pc;
        self.fetch_stall_until = self.fetch_stall_until.max(now + 1);
        mem.squash(self.id, seq, max_ts);
    }

    // ---- commit ----

    fn commit(&mut self, mem: &mut dyn MemoryBackend, now: u64) {
        for _ in 0..self.cfg.commit_width {
            if self.stall_commit_until > now {
                break;
            }
            // One check covers "empty", "not done", and "done in the
            // future" at once (see [`Rob::head_ready`]).
            if !self.rob.head_ready(now) {
                break;
            }
            let head = self.rob.head().expect("ready head exists");
            let seq = head.seq;
            let inst = head.inst;
            let fetch_line = head.fetch_line;
            let mem_addr = head.mem_addr;
            // Past these checks something always changes: a commit, a halt,
            // or a commit-time stall being installed.
            self.tick_progress = true;

            match inst.op {
                Op::Ld(_) | Op::Ll => {
                    let addr = mem_addr.expect("committing load has an address");
                    match self.pending_commit {
                        Some((s, _)) if s == seq => {
                            // commit_load already ran; the stall expired.
                            self.pending_commit = None;
                        }
                        _ => {
                            let req = MemReq {
                                core: self.id,
                                addr,
                                size: inst.op.mem_size().expect("load").bytes(),
                                ts: seq,
                                pc: head.pc,
                                now,
                                speculative: false,
                                kind: AccessKind::Load,
                            };
                            let ready = mem.commit_load(&req);
                            if ready > now {
                                // Scheme requires a commit-time memory
                                // action (e.g. InvisiSpec validation or a
                                // §4.6 coherence replay): stall once.
                                self.pending_commit = Some((seq, ready));
                                self.stall_commit_until = ready;
                                break;
                            }
                        }
                    }
                    self.lq.pop_head(seq);
                    self.stats.loads_committed += 1;
                }
                Op::St(_) | Op::Sc => {
                    let addr = mem_addr.expect("committing store has an address");
                    let entry = self.sq.pop_head(seq);
                    let data = entry.data.expect("resolved store");
                    let req = MemReq {
                        core: self.id,
                        addr,
                        size: inst.op.mem_size().expect("store").bytes(),
                        ts: seq,
                        pc: head.pc,
                        now,
                        speculative: false,
                        kind: AccessKind::Store,
                    };
                    if inst.op == Op::Sc {
                        let ok = mem.sc_try(self.id, addr, seq);
                        if ok {
                            mem.store_commit(&req, data);
                        }
                        let phys_rd = self.rob.head().expect("still head").phys_rd;
                        if let Some(p) = phys_rd {
                            // The SC result register may have waiters in
                            // the IQ (it only resolves here, at commit).
                            self.write_reg(p, if ok { 0 } else { 1 }, now);
                            self.regs.set_taint(p, false);
                        }
                    } else {
                        mem.store_commit(&req, data);
                    }
                    self.stats.stores_committed += 1;
                    // The drained store no longer shadows older stores
                    // (or memory) from the loads it partially overlapped.
                    self.unblock_loads(seq);
                }
                Op::Halt => {
                    // Drain the wrong-path tail fetched past the halt so
                    // the rename map reflects architectural state.
                    let pc = head.pc;
                    self.squash_after(mem, seq, pc, now, SquashCause::HaltDrain);
                    self.halted = true;
                }
                _ => {}
            }

            let head = self.rob.head().expect("still head");
            if inst.op.is_cond_branch() {
                self.bpred.train(&BranchUpdate {
                    pc: head.pc,
                    taken: head.taken,
                    ghist_before: head.ghist_before,
                    target: head.actual_target,
                });
            } else if inst.op == Op::Jalr {
                self.bpred.btb_insert(head.pc, head.actual_target);
            }

            if fetch_line != self.last_committed_iline {
                mem.commit_ifetch(self.id, fetch_line);
                self.last_committed_iline = fetch_line;
            }

            let head = self.rob.head().expect("present");
            if let (Some(rd), Some(old)) = (head.inst.dest(), head.old_phys_rd) {
                self.regs.release(rd, old);
            }
            let pc = head.pc;
            self.emit(now, || TraceEvent::Commit {
                seq,
                pc,
                op: inst.op,
            });
            self.rob.drop_head();
            self.stats.committed += 1;
            self.last_commit_cycle = now;
            if self.halted {
                break;
            }
        }
    }

    // ---- issue ----

    fn older_unresolved_branch(&self, seq: u64) -> bool {
        self.rob.older_unresolved_ctrl(seq)
    }

    fn older_pending_mem(&self, seq: u64) -> bool {
        self.rob.older_pending_mem(seq)
    }

    fn older_pending_fence(&self, seq: u64) -> bool {
        self.rob.older_fence(seq)
    }

    /// One visited IQ slot's trip through the issue checks. Both visit
    /// orders of [`Core::issue`] share it, so the per-entry semantics —
    /// strict-FU gating, FU availability, fence serialisation, AGU vs ALU
    /// issue — cannot drift between them. Returns `true` when the entry
    /// issued (the caller frees the slot).
    ///
    /// `issued`/`blocked_nonpipelined` carry the per-cycle scan state
    /// across visited entries.
    fn try_issue_entry(
        &mut self,
        slot: usize,
        now: u64,
        issued: &mut usize,
        blocked_nonpipelined: &mut usize,
    ) -> bool {
        let q = self.iq[slot];
        let ready = q.srcs.iter().flatten().all(|&p| self.regs.is_ready(p));
        let nonpipelined = matches!(q.class, FuClass::IntDiv | FuClass::FpDiv | FuClass::FpSqrt);
        // §4.9: strictness-ordered scheduling of non-pipelined units —
        // an op may not overtake an older, not-yet-issued op that may
        // use the same unit (all such ops share the Mult/Div pool).
        if self.cfg.strict_fu_order && nonpipelined && *blocked_nonpipelined > 0 {
            self.stats.strict_fu_delays += 1;
            self.idle_strict_fu_delays += 1;
            *blocked_nonpipelined += 1;
            return false;
        }
        if !ready || !self.fu.can_issue(q.class, now) {
            if nonpipelined {
                *blocked_nonpipelined += 1;
            }
            return false;
        }
        let ri = self.rob.find(q.seq).expect("IQ entry has live ROB entry");
        let inst = self.rob.at(ri).inst;

        // Fences issue only from the ROB head, and serialise: no
        // younger instruction may issue until the fence commits
        // (lfence-style, which also makes rdcycle measurements
        // well-defined for the attack harness).
        if inst.op == Op::Fence && self.rob.head().map(|h| h.seq) != Some(q.seq) {
            return false;
        }
        if inst.op != Op::Fence && self.older_pending_fence(q.seq) {
            return false;
        }

        let v1 = q.srcs[0].map_or(0, |p| self.regs.read(p));
        let v2 = q.srcs[1].map_or(0, |p| self.regs.read(p));
        let taint = self.cfg.taint_mode.is_some()
            && q.srcs.iter().flatten().any(|&p| self.regs.is_tainted(p));
        let latency = inst.op.latency();
        self.fu.issue(q.class, now, latency);
        *issued += 1;
        self.tick_progress = true;
        self.emit(now, || TraceEvent::Issue { seq: q.seq });

        if inst.op.is_mem() {
            // AGU: resolve the address; the LSQ takes over next phase.
            let addr = v1.wrapping_add(inst.imm as u64);
            let e = self.rob.at_mut(ri);
            e.status = RobStatus::Issued;
            e.mem_addr = Some(addr);
            if inst.op.is_load() {
                let le = self.lq.get_mut(q.seq).expect("allocated at rename");
                le.addr = Some(addr);
                le.state = LoadState::Ready;
                le.addr_tainted = taint;
                let retry_at = le.retry_at;
                insert_by_seq(&mut self.send, q.seq, retry_at);
            } else {
                self.sq.resolve(q.seq, addr, v2);
                // The store's address is now visible to the forward
                // check: wake the loads it was blocking.
                self.unblock_loads(q.seq);
                // Stores complete once resolved; data drains at commit.
                self.events
                    .push(Reverse((now + latency, q.seq, EV_EXEC, 0)));
            }
            return true;
        }

        // Non-memory ops: compute the result now; it becomes visible
        // at writeback (now + latency).
        let e = self.rob.at_mut(ri);
        e.status = RobStatus::Issued;
        e.result_tainted = taint;
        if inst.op.is_ctrl() {
            let (taken, target) = match inst.op {
                Op::Jal => (true, inst.imm as u64),
                Op::Jalr => (true, v1.wrapping_add(inst.imm as u64)),
                _ => {
                    let t = branch_taken(inst.op, v1, v2);
                    (t, if t { inst.imm as u64 } else { e.pc + 1 })
                }
            };
            e.taken = taken;
            e.actual_target = target;
            e.result = e.pc + 1; // link value for jal/jalr
        } else {
            e.result = alu_eval(inst.op, v1, v2, inst.imm, now);
        }
        self.events
            .push(Reverse((now + latency, q.seq, EV_EXEC, 0)));
        true
    }

    /// Issues up to `issue_width` IQ entries, oldest first. The fast path
    /// visits only the entries that can matter this cycle — the ready
    /// set, plus (under §4.9 strict FU ordering) the waiting
    /// non-pipelined entries, whose presence gates and counts younger
    /// non-pipelined ops. Both lists are seq-sorted, so the merged visit
    /// order is the whole-IQ scan's oldest-first order, which a
    /// reference core walks instead, and the selection is bit-identical.
    /// Issued slots go back to the free list; no entry moves.
    fn issue(&mut self, now: u64) {
        let mut visit = std::mem::take(&mut self.scratch_visit);
        visit.clear();
        if self.reference {
            let live = self.iq.iter().enumerate().filter(|(_, q)| q.seq != IQ_FREE);
            visit.extend(live.map(|(slot, q)| (q.seq, slot as u32)));
            visit.sort_unstable();
        } else if self.cfg.strict_fu_order {
            // Merge the two sorted lists, deduplicating ready
            // non-pipelined entries (they appear in both).
            let (mut i, mut j) = (0, 0);
            while i < self.ready.len() || j < self.nonpipe.len() {
                let a = self.ready.get(i).copied().unwrap_or((u64::MAX, 0));
                let b = self.nonpipe.get(j).copied().unwrap_or((u64::MAX, 0));
                visit.push(a.min(b));
                i += usize::from(a.0 <= b.0);
                j += usize::from(b.0 <= a.0);
            }
        } else {
            // Waiting non-pipelined entries have no observable effect
            // without strict ordering; only ready entries are visited.
            visit.extend_from_slice(&self.ready);
        }

        let mut issued = 0;
        let mut blocked_nonpipelined = 0usize;
        for &(seq, slot) in &visit {
            if issued >= self.cfg.issue_width {
                break;
            }
            debug_assert_eq!(
                self.iq[slot as usize].seq, seq,
                "visit lists track live IQ slots"
            );
            if self.try_issue_entry(slot as usize, now, &mut issued, &mut blocked_nonpipelined) {
                self.iq[slot as usize].seq = IQ_FREE;
                self.iq_free.push(slot);
            }
        }
        if issued > 0 {
            let iq = &self.iq;
            self.ready.retain(|&(s, slot)| iq[slot as usize].seq == s);
            self.nonpipe.retain(|&(s, slot)| iq[slot as usize].seq == s);
        }
        self.scratch_visit = visit;
    }

    // ---- LSQ: send ready loads to memory ----

    fn lsq_tick(&mut self, mem: &mut dyn MemoryBackend, now: u64) {
        // No load to send or unpark. The reference core scans the whole
        // LQ every tick instead.
        if !self.reference && self.send.is_empty() && self.parked_seqs.is_empty() {
            return;
        }
        // Unpark STT loads whose visibility point arrived. The event that
        // makes a parked load visible (an older branch or memory access
        // resolving) is always processed by this core's own writeback or
        // commit stage earlier in this very tick, so checking here — after
        // those stages, before the send pass — re-admits the load on
        // exactly the cycle the per-cycle gate would have passed it.
        if !self.parked_seqs.is_empty() {
            self.unpark_visible(now);
        }
        let (sent, last_send_seq) = if self.reference {
            self.send_scan(mem, now)
        } else {
            self.send_listed(mem, now)
        };
        // Port-pressure correction for the lazy STT accounting: when both
        // memory ports were claimed, the per-cycle gate never reached any
        // load younger than the last sender this cycle, so it would not
        // have counted a delay for it. Parked loads in that shadow accrue
        // a deficit that the settle subtracts. (A load that parked *this*
        // cycle was necessarily visited before the final send, so its seq
        // is older and it correctly takes no deficit.)
        if sent >= MEM_PORTS && !self.parked_seqs.is_empty() {
            let from = self.parked_seqs.partition_point(|&s| s <= last_send_seq);
            for i in from..self.parked_seqs.len() {
                let seq = self.parked_seqs[i];
                self.lq
                    .get_mut(seq)
                    .expect("parked load is live")
                    .park_deficit += 1;
            }
        }
    }

    /// The send pass: walks the send list oldest-first, stopping as soon
    /// as both memory ports are claimed, and returns the ports claimed
    /// and the seq of the last load that claimed one. Each attempt only
    /// ever changes its own load and list position (a leapfrog
    /// cancellation triggered by `mem.load` is queued in the backend and
    /// drained next tick), so the walk sees exactly what the whole-queue
    /// scan of [`Core::send_scan`] sees.
    fn send_listed(&mut self, mem: &mut dyn MemoryBackend, now: u64) -> (usize, u64) {
        debug_assert!(
            self.send.iter().copied().eq(self
                .lq
                .iter()
                .filter(|le| le.sendable())
                .map(|le| (le.seq, le.retry_at))),
            "send list drifted from the queue"
        );
        debug_assert_eq!(
            self.lq.blocked(),
            {
                let blocked = self
                    .lq
                    .iter()
                    .filter_map(|le| le.blocked_on.map(|s| (s, le.seq)));
                let mut blocked: Vec<_> = blocked.collect();
                blocked.sort_unstable();
                blocked
            },
            "blocked-load list drifted from the queue"
        );
        let (mut sent, mut last_send_seq) = (0, 0);
        let mut k = 0;
        while k < self.send.len() && sent < MEM_PORTS {
            let (seq, retry_at) = self.send[k];
            if retry_at > now {
                k += 1;
                continue;
            }
            match self.send_load(mem, seq, now) {
                SendOutcome::Left => {
                    self.send.remove(k);
                }
                SendOutcome::Sent => {
                    self.send.remove(k);
                    (sent, last_send_seq) = (sent + 1, seq);
                }
                SendOutcome::Retry(at) => {
                    self.send[k].1 = at;
                    k += 1;
                    (sent, last_send_seq) = (sent + 1, seq);
                }
            }
        }
        (sent, last_send_seq)
    }

    /// Reference send pass: scans the whole LQ oldest-first for sendable
    /// loads, then rebuilds the send list from the queue.
    fn send_scan(&mut self, mem: &mut dyn MemoryBackend, now: u64) -> (usize, u64) {
        let (mut sent, mut last_send_seq) = (0, 0);
        for li in 0..self.lq.len() {
            if sent >= MEM_PORTS {
                break;
            }
            let le = self.lq.at(li);
            if !le.sendable() || le.retry_at > now {
                continue;
            }
            let seq = le.seq;
            if !matches!(self.send_load(mem, seq, now), SendOutcome::Left) {
                (sent, last_send_seq) = (sent + 1, seq);
            }
        }
        self.send.clear();
        let sendable = self.lq.iter().filter(|le| le.sendable());
        self.send.extend(sendable.map(|le| (le.seq, le.retry_at)));
        (sent, last_send_seq)
    }

    /// One sendable load's trip through the STT gate, the store-forward
    /// check and a memory port.
    fn send_load(&mut self, mem: &mut dyn MemoryBackend, seq: u64, now: u64) -> SendOutcome {
        let li = self.lq.find(seq).expect("send candidate is queued");
        let le = *self.lq.at(li);
        let addr = le.addr.expect("Ready implies resolved address");

        // STT gate: tainted-address loads wait for their visibility
        // point. An invisible load parks — it leaves the send list until
        // `unpark_visible` re-admits it, and its delay counter is settled
        // in one addition then. (Visibility is monotone: blockers of this
        // load only ever resolve or squash — younger instructions can't
        // be its blockers — so a load that passes the gate once passes it
        // forever and parks at most once.)
        if let Some(mode) = self.cfg.taint_mode {
            if le.addr_tainted {
                let visible = match mode {
                    TaintMode::Spectre => !self.older_unresolved_branch(seq),
                    TaintMode::Future => {
                        !self.older_unresolved_branch(seq) && !self.older_pending_mem(seq)
                    }
                };
                if !visible {
                    let e = self.lq.at_mut(li);
                    e.parked = true;
                    e.parked_since = now;
                    e.park_deficit = 0;
                    let pos = self.parked_seqs.partition_point(|&s| s < seq);
                    self.parked_seqs.insert(pos, seq);
                    self.emit(now, || TraceEvent::MemPark { seq });
                    return SendOutcome::Left;
                }
            }
        }

        match self.sq.forward(seq, addr, le.size) {
            ForwardResult::UnknownAddr(s) | ForwardResult::Partial(s) => {
                // Re-check only when that store resolves or drains;
                // until then the check's result cannot change.
                self.lq.block_on(li, s);
                self.emit(now, || TraceEvent::MemBlock { seq, store_seq: s });
                SendOutcome::Left
            }
            ForwardResult::Forward(v) => {
                if self.rob.get(seq).is_some_and(|e| e.inst.op == Op::Ll) {
                    // Reservation is placed when the value is read, so
                    // any later remote store makes the SC fail.
                    mem.ll_reserve(self.id, addr, seq);
                }
                let le = self.lq.at_mut(li);
                le.value = v;
                le.state = LoadState::Done;
                le.done_at = now + 1;
                le.forwarded = true;
                le.filled_locally = true;
                self.stats.load_forwards += 1;
                self.tick_progress = true;
                self.events.push(Reverse((now + 1, seq, EV_LOAD, u64::MAX)));
                self.emit(now, || TraceEvent::MemForward { seq });
                SendOutcome::Left
            }
            ForwardResult::NoMatch => {
                self.tick_progress = true;
                let speculative = self.older_unresolved_branch(seq);
                let ri = self.rob.find(seq).expect("live load");
                let e = self.rob.at(ri);
                if e.inst.op == Op::Ll {
                    mem.ll_reserve(self.id, addr, seq);
                }
                let req = MemReq {
                    core: self.id,
                    addr,
                    size: le.size,
                    ts: seq,
                    pc: e.pc,
                    now,
                    speculative: true,
                    kind: AccessKind::Load,
                };
                match mem.load(&req) {
                    LoadResp::Done {
                        at,
                        ticket,
                        filled_locally,
                    } => {
                        let value = mem.read_value(addr, le.size);
                        let le = self.lq.at_mut(li);
                        le.state = LoadState::InFlight { ticket };
                        le.value = value;
                        le.filled_locally = filled_locally;
                        self.rob.at_mut(ri).issued_speculatively = speculative;
                        self.events
                            .push(Reverse((at.max(now + 1), seq, EV_LOAD, ticket)));
                        self.emit(now, || TraceEvent::MemSend { seq, addr });
                        SendOutcome::Sent
                    }
                    LoadResp::Retry { at } => {
                        let retry_at = at.max(now + 1);
                        self.lq.at_mut(li).retry_at = retry_at;
                        self.stats.load_retries += 1;
                        self.emit(now, || TraceEvent::MemRetry { seq, retry_at });
                        SendOutcome::Retry(retry_at)
                    }
                }
            }
        }
    }

    /// Returns the loads blocked on store `store_seq` to the send list
    /// (the store resolved its address or drained).
    fn unblock_loads(&mut self, store_seq: u64) {
        let send = &mut self.send;
        self.lq.unblock_store(store_seq, |le| {
            insert_by_seq(send, le.seq, le.retry_at);
        });
    }

    /// Re-admits parked STT loads whose visibility point has arrived,
    /// settling each one's delay statistic for the whole parked interval
    /// in a single addition — bit-identical to counting one delay per
    /// cycle the per-cycle gate would have counted. Because visibility is
    /// monotone in age, the visible parked loads form a prefix of the
    /// sorted list; the common no-unpark case is a single comparison.
    fn unpark_visible(&mut self, now: u64) {
        let mode = self
            .cfg
            .taint_mode
            .expect("parked loads exist only under STT");
        let mut unparked = 0;
        for i in 0..self.parked_seqs.len() {
            let seq = self.parked_seqs[i];
            let visible = match mode {
                TaintMode::Spectre => !self.older_unresolved_branch(seq),
                TaintMode::Future => {
                    !self.older_unresolved_branch(seq) && !self.older_pending_mem(seq)
                }
            };
            if !visible {
                break;
            }
            let le = self.lq.get_mut(seq).expect("parked load is live");
            le.parked = false;
            self.stats.stt_delays += (now - le.parked_since) - le.park_deficit;
            le.park_deficit = 0;
            let retry_at = le.retry_at;
            insert_by_seq(&mut self.send, seq, retry_at);
            self.emit(now, || TraceEvent::MemUnpark { seq });
            unparked += 1;
        }
        if unparked > 0 {
            self.parked_seqs.drain(..unparked);
        }
    }

    // ---- rename/dispatch ----

    fn rename(&mut self, now: u64) {
        for _ in 0..self.cfg.rename_width {
            let Some(front) = self.fetch_queue.front() else {
                break;
            };
            if front.avail_at > now {
                break;
            }
            if self.rob.free() == 0 || self.iq_free.is_empty() {
                break;
            }
            let inst = front.inst;
            if inst.op.is_load() && self.lq.free() == 0 {
                break;
            }
            if inst.op.is_store() && self.sq.free() == 0 {
                break;
            }
            if let Some(rd) = inst.dest() {
                if self.regs.free_count(rd.is_fp()) == 0 {
                    break;
                }
            }
            let f = self.fetch_queue.pop_front().expect("checked");
            self.tick_progress = true;
            let seq = self.next_seq;
            self.next_seq += 1;

            // Capture source mappings before renaming the destination
            // (an instruction may read and write the same register).
            let mut srcs = [None, None];
            for (si, s) in f.inst.sources().enumerate() {
                srcs[si] = Some(self.regs.lookup(s));
            }
            let renamed = f
                .inst
                .dest()
                .map(|rd| self.regs.rename(rd).expect("free count checked above"));

            let e = self.rob.push(seq, f.pc, f.inst, f.fetch_line);
            e.pred_taken = f.pred_taken;
            e.pred_target = f.pred_target;
            e.ghist_before = f.ghist_before;
            e.ras_cp = f.ras_cp;
            if let Some((new, old)) = renamed {
                e.phys_rd = Some(new);
                e.old_phys_rd = Some(old);
            }
            if f.inst.op.is_load() {
                self.lq
                    .push(seq, f.inst.op.mem_size().expect("load").bytes());
            }
            if f.inst.op.is_store() {
                self.sq
                    .push(seq, f.inst.op.mem_size().expect("store").bytes());
            }
            let class = f.inst.op.fu_class();
            let slot = self.iq_free.pop().expect("free slot checked above");
            self.iq[slot as usize] = IqEntry { seq, srcs, class };
            self.emit(now, || TraceEvent::Rename {
                seq,
                pc: f.pc,
                op: f.inst.op,
                fetched_at: f.fetched_at,
            });
            self.emit(now, || TraceEvent::Dispatch { seq });
            // Wakeup bookkeeping: wait on every in-flight source; go
            // straight to the ready set when there is none. Dispatch is
            // in seq order, so a plain push keeps both lists sorted.
            let mut waiting = false;
            for &p in srcs.iter().flatten() {
                if !self.regs.is_ready(p) {
                    self.wakeup.watch(p, seq, slot);
                    waiting = true;
                }
            }
            if !waiting {
                self.ready.push((seq, slot));
                self.emit(now, || TraceEvent::Ready { seq });
            }
            if matches!(class, FuClass::IntDiv | FuClass::FpDiv | FuClass::FpSqrt) {
                self.nonpipe.push((seq, slot));
            }
        }
    }

    // ---- fetch ----

    fn fetch(&mut self, mem: &mut dyn MemoryBackend, now: u64) {
        if self.fetch_stall_until > now {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_queue.len() >= self.cfg.fetch_buffer {
                break;
            }
            let Some(inst) = self.program.fetch(self.fetch_pc) else {
                // Ran past the end of the text (can happen transiently on
                // a wrong path): stall until redirected.
                break;
            };
            let pc = self.fetch_pc;
            let iaddr = pc_to_addr(pc);
            let fetch_line = line_addr(iaddr);

            if self.cur_fetch_line != Some(fetch_line) {
                self.tick_progress = true; // the ifetch touches the backend
                let req = MemReq {
                    core: self.id,
                    addr: fetch_line,
                    size: gm_mem::LINE_BYTES,
                    ts: self.next_seq + self.fetch_queue.len() as u64,
                    pc,
                    now,
                    speculative: true,
                    kind: AccessKind::Ifetch,
                };
                match mem.ifetch(&req) {
                    LoadResp::Done { at, .. } => {
                        if at > now + IFETCH_PIPELINED {
                            self.fetch_stall_until = at;
                            self.cur_fetch_line = Some(fetch_line);
                            break;
                        }
                        self.cur_fetch_line = Some(fetch_line);
                    }
                    LoadResp::Retry { at } => {
                        self.fetch_stall_until = at.max(now + 1);
                        break;
                    }
                }
            }

            let mut pred_taken = false;
            let mut pred_target = pc + 1;
            let mut ghist_before = self.bpred.ghist();
            let mut ras_cp = None;
            match inst.op {
                op if op.is_cond_branch() => {
                    let p = self.bpred.predict(pc);
                    ghist_before = p.ghist_before;
                    pred_taken = p.taken;
                    if p.taken {
                        pred_target = inst.imm as u64;
                        if self.bpred.btb_lookup(pc).is_none() {
                            // Target produced by decode: one-cycle bubble.
                            self.fetch_stall_until = now + 2;
                        }
                    }
                }
                Op::Jal => {
                    pred_taken = true;
                    pred_target = inst.imm as u64;
                    if inst.rd == Reg::x(1) {
                        ras_cp = Some(self.bpred.ras_push(pc + 1));
                    }
                }
                Op::Jalr => {
                    pred_taken = true;
                    if inst.rd.is_zero() && inst.rs1 == Reg::x(1) {
                        let (t, cp) = self.bpred.ras_pop();
                        pred_target = t;
                        ras_cp = Some(cp);
                    } else if let Some(t) = self.bpred.btb_lookup(pc) {
                        pred_target = t;
                    } else {
                        // No predicted target: fall through and let the
                        // resolution redirect (costs a full squash).
                        pred_target = pc + 1;
                    }
                }
                _ => {}
            }

            self.tick_progress = true;
            self.fetch_queue.push_back(Fetched {
                pc,
                inst,
                pred_taken,
                pred_target,
                ghist_before,
                ras_cp,
                avail_at: now + self.cfg.frontend_delay,
                fetch_line,
                fetched_at: now,
            });
            self.stats.fetched += 1;
            self.emit(now, || TraceEvent::Fetch { pc, op: inst.op });
            self.fetch_pc = pred_target;
            if inst.op == Op::Halt {
                break; // nothing sensible to fetch past a halt
            }
            if pred_taken {
                break; // taken control flow ends the fetch group
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_isa::Asm;
    use gm_mem::SparseMem;

    /// Minimal fixed-latency backend for core unit tests.
    pub(super) struct FlatMem {
        mem: SparseMem,
        latency: u64,
        next_ticket: u64,
        reservation: Option<(usize, u64)>,
        loads_seen: u64,
    }

    impl FlatMem {
        pub(super) fn new(latency: u64) -> Self {
            Self {
                mem: SparseMem::new(),
                latency,
                next_ticket: 0,
                reservation: None,
                loads_seen: 0,
            }
        }
    }

    impl MemoryBackend for FlatMem {
        fn load(&mut self, req: &MemReq) -> LoadResp {
            self.next_ticket += 1;
            self.loads_seen += 1;
            LoadResp::Done {
                at: req.now + self.latency,
                ticket: self.next_ticket,
                filled_locally: true,
            }
        }
        fn commit_load(&mut self, req: &MemReq) -> u64 {
            req.now
        }
        fn store_commit(&mut self, req: &MemReq, value: u64) {
            self.mem.write(req.addr, value, req.size);
        }
        fn ifetch(&mut self, req: &MemReq) -> LoadResp {
            self.next_ticket += 1;
            LoadResp::Done {
                at: req.now + 2,
                ticket: self.next_ticket,
                filled_locally: true,
            }
        }
        fn commit_ifetch(&mut self, _core: usize, _line: u64) {}
        fn squash(&mut self, _core: usize, _above: u64, _max: u64) {}
        fn take_cancellations(&mut self, _core: usize) -> Vec<u64> {
            Vec::new()
        }
        fn read_value(&self, addr: u64, size: u64) -> u64 {
            self.mem.read(addr, size)
        }
        fn write_value(&mut self, addr: u64, value: u64, size: u64) {
            self.mem.write(addr, value, size);
        }
        fn ll_reserve(&mut self, core: usize, addr: u64, _ts: u64) {
            self.reservation = Some((core, gm_mem::line_addr(addr)));
        }
        fn sc_try(&mut self, core: usize, addr: u64, _ts: u64) -> bool {
            let ok = self.reservation == Some((core, gm_mem::line_addr(addr)));
            self.reservation = None;
            ok
        }
    }

    fn run(program: gm_isa::Program) -> (Core, FlatMem) {
        let mut core = Core::new(0, CoreConfig::tiny(), program);
        let mut mem = FlatMem::new(4);
        core.run(&mut mem, 1_000_000);
        (core, mem)
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut a = Asm::new("t");
        let (x1, x2, x3) = (Reg::x(1), Reg::x(2), Reg::x(3));
        a.li(x1, 6);
        a.li(x2, 7);
        a.mul(x3, x1, x2);
        a.addi(x3, x3, 1);
        a.halt();
        let (core, _) = run(a.assemble());
        assert_eq!(core.reg(Reg::x(3)), 43);
        assert_eq!(core.stats().committed, 5);
    }

    #[test]
    fn counted_loop_commits_expected_instructions() {
        let mut a = Asm::new("t");
        let (x1, x2) = (Reg::x(1), Reg::x(2));
        a.li(x1, 0);
        a.li(x2, 100);
        let top = a.here();
        a.addi(x1, x1, 1);
        a.bne(x1, x2, top);
        a.halt();
        let (core, _) = run(a.assemble());
        assert_eq!(core.reg(Reg::x(1)), 100);
        // 2 setup + 200 loop body + 1 halt.
        assert_eq!(core.stats().committed, 203);
        assert!(core.stats().cycles < 2000, "loop should be fast");
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut a = Asm::new("t");
        let (x1, x2, x3) = (Reg::x(1), Reg::x(2), Reg::x(3));
        a.li(x1, 0x1000);
        a.li(x2, 0xabcd);
        a.st(x2, x1, 0);
        a.fence(); // drain the store before the load re-reads memory
        a.ld(x3, x1, 0);
        a.halt();
        let (core, mem) = run(a.assemble());
        assert_eq!(core.reg(Reg::x(3)), 0xabcd);
        assert_eq!(mem.read_value(0x1000, 8), 0xabcd);
    }

    #[test]
    fn store_forwarding_skips_memory() {
        let mut a = Asm::new("t");
        let (x1, x2, x3) = (Reg::x(1), Reg::x(2), Reg::x(3));
        a.li(x1, 0x2000);
        a.li(x2, 99);
        a.st(x2, x1, 0);
        a.ld(x3, x1, 0); // forwards from the store queue
        a.halt();
        let (core, _) = run(a.assemble());
        assert_eq!(core.reg(Reg::x(3)), 99);
        assert_eq!(core.stats().load_forwards, 1);
    }

    #[test]
    fn data_segment_visible_to_loads() {
        let mut a = Asm::new("t");
        a.data(gm_isa::DataSegment::words(0x3000, &[111, 222]));
        let (x1, x2, x3) = (Reg::x(1), Reg::x(2), Reg::x(3));
        a.li(x1, 0x3000);
        a.ld(x2, x1, 0);
        a.ld(x3, x1, 8);
        a.halt();
        let (core, _) = run(a.assemble());
        assert_eq!(core.reg(Reg::x(2)), 111);
        assert_eq!(core.reg(Reg::x(3)), 222);
    }

    #[test]
    fn mispredicted_branch_recovers_architecturally() {
        // A data-dependent branch the predictor cannot know initially:
        // x1 = 1 -> branch taken path must win.
        let mut a = Asm::new("t");
        let (x1, x2) = (Reg::x(1), Reg::x(2));
        a.li(x1, 1);
        let taken = a.label();
        a.bne(x1, Reg::ZERO, taken);
        a.li(x2, 111); // wrong path
        a.halt();
        a.bind(taken);
        a.li(x2, 222);
        a.halt();
        let (core, _) = run(a.assemble());
        assert_eq!(core.reg(Reg::x(2)), 222);
    }

    #[test]
    fn wrong_path_execution_is_squashed_not_committed() {
        // Train a loop-exit branch; the final iteration mispredicts and
        // wrong-path instructions must not commit.
        let mut a = Asm::new("t");
        let (x1, x2, x3) = (Reg::x(1), Reg::x(2), Reg::x(3));
        a.li(x1, 0);
        a.li(x2, 50);
        let top = a.here();
        a.addi(x1, x1, 1);
        a.bne(x1, x2, top);
        a.li(x3, 1); // only reached after loop exit
        a.halt();
        let (core, _) = run(a.assemble());
        assert_eq!(core.reg(Reg::x(1)), 50);
        assert_eq!(core.reg(Reg::x(3)), 1);
        assert!(core.stats().mispredicts >= 1, "loop exit mispredicts");
        assert!(core.stats().squashed > 0);
        // Architectural commit count is exactly the sequential count.
        assert_eq!(core.stats().committed, 2 + 100 + 2);
    }

    #[test]
    fn rdcycle_increases_monotonically() {
        let mut a = Asm::new("t");
        let (x1, x2) = (Reg::x(1), Reg::x(2));
        a.rdcycle(x1);
        a.div(Reg::x(3), Reg::x(4), Reg::x(5)); // some latency
        a.rdcycle(x2);
        a.halt();
        let (core, _) = run(a.assemble());
        assert!(core.reg(Reg::x(2)) >= core.reg(Reg::x(1)));
    }

    #[test]
    fn jal_jalr_call_return() {
        let mut a = Asm::new("t");
        let (x1, x5) = (Reg::x(1), Reg::x(5));
        let fun = a.label();
        a.jal(x1, fun); // call: link in x1 (ra)
        a.li(Reg::x(6), 5); // return lands here... pc 1
        a.halt();
        a.bind(fun);
        a.li(x5, 77);
        a.jalr(Reg::ZERO, x1, 0); // return
        let (core, _) = run(a.assemble());
        assert_eq!(core.reg(Reg::x(5)), 77);
        assert_eq!(core.reg(Reg::x(6)), 5);
    }

    #[test]
    fn ll_sc_succeeds_uncontended() {
        let mut a = Asm::new("t");
        let (x1, x2, x3) = (Reg::x(1), Reg::x(2), Reg::x(3));
        a.li(x1, 0x4000);
        a.ll(x2, x1);
        a.addi(x2, x2, 1);
        a.sc(x3, x2, x1);
        a.halt();
        let (core, mem) = run(a.assemble());
        assert_eq!(core.reg(Reg::x(3)), 0, "sc must succeed");
        assert_eq!(mem.read_value(0x4000, 8), 1);
    }

    #[test]
    fn division_by_zero_is_defined() {
        let mut a = Asm::new("t");
        a.li(Reg::x(1), 42);
        a.div(Reg::x(2), Reg::x(1), Reg::ZERO);
        a.halt();
        let (core, _) = run(a.assemble());
        assert_eq!(core.reg(Reg::x(2)), u64::MAX);
    }

    #[test]
    fn stt_spectre_delays_dependent_loads() {
        // Pointer chase under an unresolved branch: with taint tracking
        // the dependent load must record delays.
        let mut a = Asm::new("t");
        a.data(gm_isa::DataSegment::words(0x5000, &[0x5100]));
        a.data(gm_isa::DataSegment::words(0x5100, &[7]));
        let (x1, x2, x3, x9) = (Reg::x(1), Reg::x(2), Reg::x(3), Reg::x(9));
        a.li(x1, 0x5000);
        a.li(x9, 1000);
        let skip = a.label();
        a.div(Reg::x(8), x9, Reg::x(7)); // slow op keeps the branch unresolved
        a.beq(Reg::x(8), Reg::ZERO, skip); // resolved late; predicted early
        a.ld(x2, x1, 0); // speculative load -> tainted dest
        a.ld(x3, x2, 0); // tainted address -> delayed under STT
        a.bind(skip);
        a.halt();
        let prog = a.assemble();

        let mut cfg = CoreConfig::tiny();
        cfg.taint_mode = Some(TaintMode::Spectre);
        let mut core = Core::new(0, cfg, prog.clone());
        let mut mem = FlatMem::new(4);
        core.run(&mut mem, 1_000_000);
        let delayed = core.stats().stt_delays;

        let mut core2 = Core::new(0, CoreConfig::tiny(), prog);
        let mut mem2 = FlatMem::new(4);
        core2.run(&mut mem2, 1_000_000);
        assert_eq!(core2.stats().stt_delays, 0, "no gate without STT");
        assert!(delayed > 0, "STT must delay the tainted load");
    }

    #[test]
    fn strict_fu_order_counts_delays_and_preserves_results() {
        // Two divides where the younger's operands are ready first.
        let mut a = Asm::new("t");
        let (x1, x2, x3, x4) = (Reg::x(1), Reg::x(2), Reg::x(3), Reg::x(4));
        a.li(x1, 100);
        a.li(x2, 5);
        a.mul(x3, x1, x2); // x3 = 500, ready later
        a.div(x4, x3, x2); // older divide waits on mul
        a.div(Reg::x(5), x1, x2); // younger divide ready immediately
        a.halt();
        let prog = a.assemble();

        let mut cfg = CoreConfig::tiny();
        cfg.strict_fu_order = true;
        let mut core = Core::new(0, cfg, prog.clone());
        let mut mem = FlatMem::new(4);
        core.run(&mut mem, 1_000_000);
        assert_eq!(core.reg(Reg::x(4)), 100);
        assert_eq!(core.reg(Reg::x(5)), 20);
        assert!(
            core.stats().strict_fu_delays > 0,
            "younger div must wait for the older div to issue"
        );
    }

    #[test]
    fn fence_orders_memory_operations() {
        let mut a = Asm::new("t");
        let (x1, x2) = (Reg::x(1), Reg::x(2));
        a.li(x1, 0x6000);
        a.st(x1, x1, 0);
        a.fence();
        a.ld(x2, x1, 0);
        a.halt();
        let (core, _) = run(a.assemble());
        assert_eq!(core.reg(Reg::x(2)), 0x6000);
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn runaway_program_detected() {
        let mut a = Asm::new("t");
        let top = a.here();
        a.j(top); // infinite loop, no halt
        let mut core = Core::new(0, CoreConfig::tiny(), a.assemble());
        let mut mem = FlatMem::new(1);
        core.run(&mut mem, 10_000);
    }

    #[test]
    fn ipc_is_reasonable_for_ilp_heavy_code() {
        let mut a = Asm::new("t");
        for i in 1..9 {
            a.li(Reg::x(i), i as i64);
        }
        let top = a.label();
        a.bind(top);
        // 8 independent adds per iteration.
        for i in 1..9 {
            a.addi(Reg::x(i), Reg::x(i), 1);
        }
        a.li(Reg::x(10), 2000);
        a.addi(Reg::x(9), Reg::x(9), 1);
        a.bne(Reg::x(9), Reg::x(10), top);
        a.halt();
        let mut core = Core::new(0, CoreConfig::micro2021(), a.assemble());
        let mut mem = FlatMem::new(4);
        core.run(&mut mem, 10_000_000);
        assert!(
            core.stats().ipc() > 2.0,
            "8-wide core should sustain IPC > 2 on independent adds, got {}",
            core.stats().ipc()
        );
    }
}
