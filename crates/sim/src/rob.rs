//! The reorder buffer.
//!
//! Entries are identified by their global sequence number (`seq`), which
//! doubles as the paper's Temporal-Order timestamp: rename allocates
//! sequence numbers in (speculative) program order, exactly as §4.4
//! assigns timestamps at issue into the pipeline.

use crate::bpred::RasCheckpoint;
use crate::regfile::PhysReg;
use gm_isa::{Inst, Op};
use std::collections::VecDeque;

/// Execution status of a ROB entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RobStatus {
    /// Waiting in the issue queue (or LSQ) for operands/resources.
    Waiting,
    /// Issued to a functional unit or the memory system.
    Issued,
    /// Result produced; may commit when it reaches the head.
    Done,
}

/// One in-flight instruction.
#[derive(Clone, Debug)]
pub struct RobEntry {
    /// Global sequence number == Temporal-Order timestamp.
    pub seq: u64,
    /// Instruction index in the program.
    pub pc: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// Pipeline progress of this entry.
    pub status: RobStatus,
    /// New physical destination, if any.
    pub phys_rd: Option<PhysReg>,
    /// Previous mapping of the destination (squash/commit bookkeeping).
    pub old_phys_rd: Option<PhysReg>,
    /// Cycle the result becomes available.
    pub done_at: u64,
    /// Computed result value (for destination writeback at writeback
    /// time; loads fill this from memory).
    pub result: u64,
    // ---- control flow ----
    /// Predicted direction for conditional branches (or `true` for
    /// unconditional).
    pub pred_taken: bool,
    /// Predicted next pc.
    pub pred_target: u64,
    /// Global-history snapshot for repair/training.
    pub ghist_before: u64,
    /// RAS repair checkpoint for call/return instructions.
    pub ras_cp: Option<RasCheckpoint>,
    /// Set at resolution when prediction was wrong.
    pub mispredicted: bool,
    /// Resolved direction (conditional branches).
    pub taken: bool,
    /// Resolved next pc.
    pub actual_target: u64,
    // ---- memory ----
    /// Line address the instruction was fetched from (IMinion commit
    /// notification, §4.8).
    pub fetch_line: u64,
    /// Load/store queue slot, identified by seq (the queues are searched
    /// by seq).
    pub is_mem: bool,
    /// For loads: the resolved byte address (after AGU).
    pub mem_addr: Option<u64>,
    /// STT: whether this load was issued while speculative (its dest is
    /// tainted).
    pub issued_speculatively: bool,
    /// STT: whether the computed result derives from tainted sources.
    pub result_tainted: bool,
}

impl RobEntry {
    fn new(seq: u64, pc: u64, inst: Inst, fetch_line: u64) -> Self {
        Self {
            seq,
            pc,
            inst,
            status: RobStatus::Waiting,
            phys_rd: None,
            old_phys_rd: None,
            done_at: 0,
            result: 0,
            pred_taken: false,
            pred_target: pc + 1,
            ghist_before: 0,
            ras_cp: None,
            mispredicted: false,
            taken: false,
            actual_target: pc + 1,
            fetch_line,
            is_mem: inst.op.is_mem(),
            mem_addr: None,
            issued_speculatively: false,
            result_tainted: false,
        }
    }
}

/// The reorder buffer: a bounded FIFO of in-flight instructions ordered
/// by sequence number.
///
/// Three sorted watch lists mirror the entries so the per-cycle ordering
/// queries the issue and LSQ stages ask — "is there an older unresolved
/// branch / pending memory op / fence?" — are O(1) reads of the oldest
/// watched seq instead of prefix scans of the whole buffer.
#[derive(Clone, Debug)]
pub struct Rob {
    entries: VecDeque<RobEntry>,
    /// The entries' seqs, mirrored densely: `seqs[i] == entries[i].seq`.
    /// Seq lookups binary-search this deque instead of `entries` — the
    /// whole window is a handful of cache lines, versus one line per
    /// probed ~200-byte entry.
    seqs: VecDeque<u64>,
    capacity: usize,
    /// Seqs of control-flow entries whose status is not yet `Done`.
    unresolved_ctrl: Vec<u64>,
    /// Seqs of memory entries whose status is not yet `Done`.
    unresolved_mem: Vec<u64>,
    /// Seqs of in-flight fences (watched until commit, not completion).
    fences: Vec<u64>,
}

/// Removes `seq` from a sorted watch list, if present.
fn unwatch(list: &mut Vec<u64>, seq: u64) {
    if let Ok(i) = list.binary_search(&seq) {
        list.remove(i);
    }
}

impl Rob {
    /// Creates an empty ROB with the given capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB needs at least one entry");
        Self {
            entries: VecDeque::with_capacity(capacity),
            seqs: VecDeque::with_capacity(capacity),
            capacity,
            unresolved_ctrl: Vec::new(),
            unresolved_mem: Vec::new(),
            fences: Vec::new(),
        }
    }

    /// Remaining capacity.
    pub fn free(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Number of in-flight instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ROB is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Allocates an entry at the tail.
    ///
    /// # Panics
    ///
    /// Panics when full (caller must check [`Rob::free`]) or when `seq`
    /// does not exceed the current tail (program order violation).
    pub fn push(&mut self, seq: u64, pc: u64, inst: Inst, fetch_line: u64) -> &mut RobEntry {
        assert!(self.free() > 0, "ROB overflow");
        if let Some(tail) = self.entries.back() {
            assert!(seq > tail.seq, "sequence numbers must be monotonic");
        }
        if inst.op.is_ctrl() {
            self.unresolved_ctrl.push(seq);
        }
        if inst.op.is_mem() {
            self.unresolved_mem.push(seq);
        }
        if inst.op == Op::Fence {
            self.fences.push(seq);
        }
        self.seqs.push_back(seq);
        self.entries
            .push_back(RobEntry::new(seq, pc, inst, fetch_line));
        self.entries.back_mut().expect("just pushed")
    }

    /// Looks up an entry by sequence number.
    pub fn get(&self, seq: u64) -> Option<&RobEntry> {
        self.index_of(seq).map(|i| &self.entries[i])
    }

    fn index_of(&self, seq: u64) -> Option<usize> {
        // Seqs are allocated consecutively, so `seq - front` is the
        // exact index unless a squash gap sits in between — check that
        // guess first and fall back to binary search over the dense
        // mirror only when a gap (or absence) disproves it.
        let &front = self.seqs.front()?;
        if let Some(guess) = seq.checked_sub(front) {
            let guess = guess as usize;
            if guess < self.seqs.len() && self.seqs[guess] == seq {
                return Some(guess);
            }
        }
        self.seqs.binary_search(&seq).ok()
    }

    /// Position of the entry with sequence `seq`, for repeated O(1)
    /// access through [`Rob::at`]/[`Rob::at_mut`] — one search where a
    /// lookup per access would do several. Positions are stable until the
    /// buffer's membership changes (push, pop, squash of *older-or-equal*
    /// entries; squashing strictly younger entries keeps `i` valid).
    pub fn find(&self, seq: u64) -> Option<usize> {
        self.index_of(seq)
    }

    /// The entry at position `i` (see [`Rob::find`]).
    pub fn at(&self, i: usize) -> &RobEntry {
        &self.entries[i]
    }

    /// Mutable entry at position `i` (see [`Rob::find`]).
    ///
    /// Never set `status` to [`RobStatus::Done`] through this handle —
    /// that is [`Rob::set_done_at`]'s job, and going around it would
    /// leave the watch lists stale.
    pub fn at_mut(&mut self, i: usize) -> &mut RobEntry {
        &mut self.entries[i]
    }

    /// Marks position `i` (see [`Rob::find`]) as executed: sets its
    /// status to [`RobStatus::Done`] with result time `now` and releases
    /// it from the ordering watch lists its op is actually on.
    pub fn set_done_at(&mut self, i: usize, now: u64) {
        let e = &mut self.entries[i];
        e.status = RobStatus::Done;
        e.done_at = now;
        let (seq, op) = (e.seq, e.inst.op);
        if op.is_ctrl() {
            unwatch(&mut self.unresolved_ctrl, seq);
        }
        if op.is_mem() {
            unwatch(&mut self.unresolved_mem, seq);
        }
    }

    /// The oldest entry.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Whether the head entry has a result ready to commit at `now`:
    /// its status is [`RobStatus::Done`] and `done_at <= now`. `now`
    /// must be below `u64::MAX` (the not-done value of
    /// [`Rob::head_done_at`]).
    pub fn head_ready(&self, now: u64) -> bool {
        self.head_done_at() <= now
    }

    /// The head entry's `done_at` when it is [`RobStatus::Done`], else
    /// `u64::MAX` (also when empty).
    pub fn head_done_at(&self) -> u64 {
        match self.entries.front() {
            Some(e) if e.status == RobStatus::Done => e.done_at,
            _ => u64::MAX,
        }
    }

    /// Removes the oldest entry (commit) without moving it out: callers
    /// read what they need from [`Rob::head`] first (a `RobEntry` is a
    /// couple of hundred bytes).
    ///
    /// # Panics
    ///
    /// Panics when the ROB is empty.
    pub fn drop_head(&mut self) {
        self.unwatch_head();
        self.seqs.pop_front();
        self.entries.pop_front();
    }

    /// Releases the head from the ordering watch lists it is still on.
    /// A committing entry is `Done`, so the ctrl/mem lists were already
    /// pruned by `set_done_at`; fences stay watched until here.
    fn unwatch_head(&mut self) {
        let head = self.entries.front().expect("drop_head on an empty ROB");
        let (seq, op) = (head.seq, head.inst.op);
        if op.is_ctrl() {
            unwatch(&mut self.unresolved_ctrl, seq);
        }
        if op.is_mem() {
            unwatch(&mut self.unresolved_mem, seq);
        }
        if op == Op::Fence {
            unwatch(&mut self.fences, seq);
        }
    }

    /// Removes every entry with `seq > above`, youngest first, invoking
    /// `on_squash` for each (rename rollback). Returns how many were
    /// squashed.
    pub fn squash_above(&mut self, above: u64, mut on_squash: impl FnMut(&RobEntry)) -> usize {
        for list in [
            &mut self.unresolved_ctrl,
            &mut self.unresolved_mem,
            &mut self.fences,
        ] {
            while list.last().is_some_and(|&s| s > above) {
                list.pop();
            }
        }
        let mut n = 0;
        while self.entries.back().is_some_and(|e| e.seq > above) {
            let e = self.entries.pop_back().expect("checked non-empty");
            self.seqs.pop_back();
            on_squash(&e);
            n += 1;
        }
        n
    }

    /// Whether a control-flow entry older than `seq` has not produced
    /// its result yet. O(1): reads the oldest watched seq.
    pub fn older_unresolved_ctrl(&self, seq: u64) -> bool {
        self.unresolved_ctrl.first().is_some_and(|&s| s < seq)
    }

    /// Whether a memory entry older than `seq` has not completed yet.
    /// O(1): reads the oldest watched seq.
    pub fn older_pending_mem(&self, seq: u64) -> bool {
        self.unresolved_mem.first().is_some_and(|&s| s < seq)
    }

    /// Whether a fence older than `seq` is still in flight (fences are
    /// watched until they commit). O(1): reads the oldest watched seq.
    pub fn older_fence(&self, seq: u64) -> bool {
        self.fences.first().is_some_and(|&s| s < seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_isa::Inst;

    /// A finite "any time" for readiness probes — `u64::MAX` is
    /// [`Rob::head_done_at`]'s not-done value and not a valid `now`.
    const FOREVER: u64 = u64::MAX - 1;

    /// Marks the live entry `seq` done at `now`.
    fn set_done(r: &mut Rob, seq: u64, now: u64) {
        let i = r.find(seq).expect("seq is live");
        r.set_done_at(i, now);
    }

    fn rob3() -> Rob {
        let mut r = Rob::new(8);
        for seq in [10, 11, 12] {
            r.push(seq, seq, Inst::nop(), 0);
        }
        r
    }

    #[test]
    fn push_lookup_and_capacity() {
        let mut r = Rob::new(2);
        assert_eq!(r.free(), 2);
        r.push(1, 0, Inst::nop(), 0);
        assert_eq!(r.free(), 1);
        assert!(r.get(1).is_some());
        assert!(r.get(2).is_none());
        r.push(5, 1, Inst::nop(), 0);
        assert_eq!(r.free(), 0);
        assert_eq!(r.get(5).unwrap().pc, 1);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut r = Rob::new(1);
        r.push(1, 0, Inst::nop(), 0);
        r.push(2, 1, Inst::nop(), 0);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn non_monotonic_seq_panics() {
        let mut r = Rob::new(4);
        r.push(5, 0, Inst::nop(), 0);
        r.push(5, 1, Inst::nop(), 0);
    }

    #[test]
    fn commit_pops_in_order() {
        let mut r = rob3();
        assert_eq!(r.head().unwrap().seq, 10);
        r.drop_head();
        assert_eq!(r.head().unwrap().seq, 11);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn squash_above_removes_youngest_first() {
        let mut r = rob3();
        let mut order = Vec::new();
        let n = r.squash_above(10, |e| order.push(e.seq));
        assert_eq!(n, 2);
        assert_eq!(order, vec![12, 11], "youngest squashed first");
        assert_eq!(r.len(), 1);
        assert!(r.get(11).is_none());
        assert!(r.get(10).is_some());
    }

    #[test]
    fn squash_above_tail_is_noop() {
        let mut r = rob3();
        assert_eq!(r.squash_above(99, |_| panic!("nothing to squash")), 0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn any_older_scans_strictly_older() {
        // The positions below `find(seq)` hold exactly the older entries.
        let any_older = |r: &Rob, seq, pred: fn(&RobEntry) -> bool| {
            (0..r.find(seq).expect("seq is live")).any(|i| pred(r.at(i)))
        };
        let mut r = rob3();
        set_done(&mut r, 10, 0);
        assert!(!any_older(&r, 11, |e| e.status != RobStatus::Done));
        assert!(any_older(&r, 12, |e| e.status != RobStatus::Done)); // 11 waiting
        assert!(!any_older(&r, 10, |_| true), "head has nothing older");
    }

    #[test]
    fn watch_lists_answer_ordering_queries_in_o1() {
        use gm_isa::{Op, Reg};
        let mut r = Rob::new(8);
        let inst = |op| Inst::new(op, Reg::ZERO, Reg::ZERO, Reg::ZERO, 0);
        r.push(10, 0, inst(Op::Beq), 0); // ctrl
        r.push(11, 1, inst(Op::Ld(gm_isa::MemSize::B8)), 0); // mem
        r.push(12, 2, inst(Op::Fence), 0);
        r.push(13, 3, Inst::nop(), 0);
        assert!(r.older_unresolved_ctrl(11));
        assert!(!r.older_unresolved_ctrl(10), "nothing older than head");
        assert!(r.older_pending_mem(13));
        assert!(!r.older_pending_mem(11));
        assert!(r.older_fence(13));
        assert!(!r.older_fence(12));

        // Completion releases ctrl/mem watches...
        set_done(&mut r, 10, 5);
        assert!(!r.older_unresolved_ctrl(13));
        set_done(&mut r, 11, 6);
        assert!(!r.older_pending_mem(13));
        // ...but fences stay watched until they commit.
        set_done(&mut r, 12, 7);
        assert!(r.older_fence(13));
        r.drop_head(); // 10
        r.drop_head(); // 11
        r.drop_head(); // 12 — fence leaves the window
        assert!(!r.older_fence(13));
    }

    #[test]
    fn squash_prunes_watch_lists() {
        use gm_isa::{Op, Reg};
        let mut r = Rob::new(8);
        let inst = |op| Inst::new(op, Reg::ZERO, Reg::ZERO, Reg::ZERO, 0);
        r.push(10, 0, Inst::nop(), 0);
        r.push(11, 1, inst(Op::Beq), 0);
        r.push(12, 2, inst(Op::Ld(gm_isa::MemSize::B8)), 0);
        r.push(13, 3, inst(Op::Fence), 0);
        r.squash_above(10, |_| {});
        assert!(!r.older_unresolved_ctrl(u64::MAX));
        assert!(!r.older_pending_mem(u64::MAX));
        assert!(!r.older_fence(u64::MAX));
        // A squashed seq can no longer be found to mark done.
        assert!(r.find(12).is_none());
    }

    #[test]
    fn head_ready_tracks_head_completion() {
        let mut r = rob3();
        assert!(!r.head_ready(FOREVER), "waiting head is never ready");
        assert_eq!(r.head_done_at(), u64::MAX);

        // A non-head completion leaves the head not ready...
        set_done(&mut r, 11, 3);
        assert!(!r.head_ready(FOREVER));
        // ...while a head completion publishes its done-at.
        set_done(&mut r, 10, 5);
        assert_eq!(r.head_done_at(), 5);
        assert!(!r.head_ready(4), "result not available yet");
        assert!(r.head_ready(5));

        // Commit makes the already-done successor the head.
        r.drop_head();
        assert_eq!(r.head_done_at(), 3);
        assert!(r.head_ready(3));
        r.drop_head();
        assert!(!r.head_ready(FOREVER), "12 is still waiting");
        set_done(&mut r, 12, 9);
        r.drop_head();
        assert_eq!(r.head_done_at(), u64::MAX, "empty ROB is never ready");
    }

    #[test]
    fn head_ready_survives_squash() {
        let mut r = rob3();
        set_done(&mut r, 10, 2);
        r.squash_above(10, |_| {});
        assert!(r.head_ready(2), "tail squash keeps the done head");
        r.squash_above(0, |_| {});
        assert_eq!(r.head_done_at(), u64::MAX, "full squash leaves no head");
        // Refill after the squash: the fresh head starts un-done.
        r.push(20, 0, Inst::nop(), 0);
        assert!(!r.head_ready(FOREVER));
        set_done(&mut r, 20, 7);
        assert_eq!(r.head_done_at(), 7);
    }

    #[test]
    fn lookup_after_commits_and_squashes() {
        let mut r = rob3();
        r.drop_head();
        r.squash_above(11, |_| {});
        assert!(r.get(10).is_none());
        assert!(r.get(12).is_none());
        assert_eq!(r.get(11).unwrap().seq, 11);
        // Push a new post-squash seq with a gap.
        r.push(20, 7, Inst::nop(), 0);
        assert_eq!(r.get(20).unwrap().pc, 7);
    }
}
