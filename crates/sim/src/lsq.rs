//! Load and store queues.
//!
//! The store queue buffers speculative stores until commit (no speculative
//! store ever reaches the cache — §4.6, footnote 7) and forwards data to
//! younger loads. The load queue tracks each load's address resolution and
//! its in-flight memory access, including replay after a leapfrog
//! cancellation (§4.5).
//!
//! Memory dependence handling is conservative: a load waits until every
//! older store address is known, so there is no memory-order
//! misspeculation to recover from. The LSQ naturally transmits data in
//! forwards-program order, which the paper notes already provides Temporal
//! Order for data flow.

use crate::mem_if::Ticket;
use std::collections::VecDeque;

/// Outcome of checking a load against older stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardResult {
    /// No older store overlaps: go to memory.
    NoMatch,
    /// Fully covered by an older store: use this value, skip memory.
    Forward(u64),
    /// Partially overlapped by the older store with this seq: wait until
    /// it commits and drains.
    Partial(u64),
    /// The older store with this seq has an unresolved address: wait.
    UnknownAddr(u64),
}

/// A buffered speculative store.
#[derive(Clone, Copy, Debug)]
pub struct StoreEntry {
    pub seq: u64,
    /// Resolved at execute.
    pub addr: Option<u64>,
    pub size: u64,
    /// Store data, available once the data operand was read at execute.
    pub data: Option<u64>,
}

/// The store queue.
#[derive(Clone, Debug)]
pub struct StoreQueue {
    entries: VecDeque<StoreEntry>,
    capacity: usize,
}

impl StoreQueue {
    /// Creates an empty queue.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            entries: VecDeque::new(),
            capacity,
        }
    }

    /// Remaining slots.
    pub fn free(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Allocates a slot at rename.
    ///
    /// # Panics
    ///
    /// Panics when full.
    pub fn push(&mut self, seq: u64, size: u64) {
        assert!(self.free() > 0, "store queue overflow");
        self.entries.push_back(StoreEntry {
            seq,
            addr: None,
            size,
            data: None,
        });
    }

    /// Records the resolved address and data (execute).
    pub fn resolve(&mut self, seq: u64, addr: u64, data: u64) {
        let i = self
            .entries
            .binary_search_by_key(&seq, |e| e.seq)
            .expect("resolving a store not in the queue");
        let e = &mut self.entries[i];
        e.addr = Some(addr);
        e.data = Some(data);
    }

    /// Removes the oldest store (commit).
    ///
    /// # Panics
    ///
    /// Panics if the head is not `seq` — stores must drain in order.
    pub fn pop_head(&mut self, seq: u64) -> StoreEntry {
        let head = self.entries.pop_front().expect("store queue empty");
        assert_eq!(head.seq, seq, "stores must commit in order");
        head
    }

    /// Drops all stores with `seq > above` (squash).
    pub fn squash_above(&mut self, above: u64) {
        while self.entries.back().is_some_and(|e| e.seq > above) {
            self.entries.pop_back();
        }
    }

    /// Checks a load at `addr`/`size` with sequence `load_seq` against all
    /// older stores, youngest first.
    pub fn forward(&self, load_seq: u64, addr: u64, size: u64) -> ForwardResult {
        for e in self.entries.iter().rev().filter(|e| e.seq < load_seq) {
            let Some(saddr) = e.addr else {
                return ForwardResult::UnknownAddr(e.seq);
            };
            let s_end = saddr + e.size;
            let l_end = addr + size;
            let overlaps = addr < s_end && saddr < l_end;
            if !overlaps {
                continue;
            }
            if saddr <= addr && l_end <= s_end {
                let data = e.data.expect("resolved store always has data");
                let shift = 8 * (addr - saddr);
                let val = data >> shift;
                let masked = if size == 8 {
                    val
                } else {
                    val & ((1u64 << (8 * size)) - 1)
                };
                return ForwardResult::Forward(masked);
            }
            return ForwardResult::Partial(e.seq);
        }
        ForwardResult::NoMatch
    }

    /// Whether any older store's address is still unresolved.
    pub fn any_unresolved_older(&self, load_seq: u64) -> bool {
        self.entries
            .iter()
            .any(|e| e.seq < load_seq && e.addr.is_none())
    }

    /// Number of buffered stores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Progress of one load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadState {
    /// Waiting for address operands.
    WaitAddr,
    /// Address known; waiting to be sent to memory (or blocked on an
    /// older store / fence / taint delay).
    Ready,
    /// Sent to the memory system.
    InFlight { ticket: Ticket },
    /// Value available at `done_at`.
    Done,
}

/// An in-flight load.
#[derive(Clone, Copy, Debug)]
pub struct LoadEntry {
    pub seq: u64,
    pub addr: Option<u64>,
    pub size: u64,
    pub state: LoadState,
    pub done_at: u64,
    pub value: u64,
    /// Earliest retry cycle after an MSHR-full rejection.
    pub retry_at: u64,
    /// Whether the data was retained in a core-local speculative
    /// structure (GhostMinion); if not, commit may need a reload (§6.4).
    pub filled_locally: bool,
    /// Whether the value was forwarded from the store queue.
    pub forwarded: bool,
    /// STT: whether the address operands were tainted at AGU time.
    pub addr_tainted: bool,
    /// Store this load's forward check stopped at (unresolved address or
    /// partial overlap). The result cannot change until that store
    /// resolves or drains — the engine clears this then — so the LSQ
    /// skips the candidate instead of re-running the forward scan every
    /// cycle. Always an *older* store, so a squash that keeps the load
    /// keeps the blocker. Set only through [`LoadQueue::block_on`], which
    /// keeps the queue's list of blocked loads.
    pub blocked_on: Option<u64>,
    /// STT: the load failed its visibility check and is parked until the
    /// last older unresolved branch (and, under `TaintMode::Future`,
    /// memory access) resolves. Parked loads leave the LSQ send stage
    /// entirely; the engine settles their delay statistics lazily when
    /// they unpark (or are squashed), so nothing re-checks them per
    /// cycle.
    pub parked: bool,
    /// Cycle at which the load parked (meaningful only while `parked`).
    pub parked_since: u64,
    /// Cycles within the parked interval that the per-cycle engine would
    /// *not* have counted as an STT delay because both memory ports were
    /// claimed by older loads before the scan reached this one. Subtracted
    /// at settle time so the lazy accounting is bit-identical.
    pub park_deficit: u64,
}

impl LoadEntry {
    /// Whether the LSQ send stage may try this load: its address is
    /// resolved and it is neither STT-parked nor waiting on a store.
    pub fn sendable(&self) -> bool {
        self.state == LoadState::Ready && !self.parked && self.blocked_on.is_none()
    }
}

/// Marks a seq in [`LoadQueue`]'s lookup table that is not a live load.
const NO_LOAD: u64 = u64::MAX;

/// The load queue.
///
/// Every load gets an *allocation index*: the count of loads committed
/// before it plus its position, so it is stable for the load's life
/// (a squash rewinds the count with the tail, and the next load reuses
/// the index). A dense table indexed by `seq - first_seq` holds each
/// load's allocation index, so a seq lookup is two array reads and one
/// seq comparison, not a search. Table slots of squashed loads or of
/// non-load seqs fail that comparison.
#[derive(Clone, Debug)]
pub struct LoadQueue {
    entries: VecDeque<LoadEntry>,
    capacity: usize,
    /// Loads committed so far: the allocation index of `entries[0]`.
    popped: u64,
    /// `by_seq[k]` is the allocation index of the load with seq
    /// `first_seq + k` ([`NO_LOAD`] for seqs that are not loads). It
    /// spans the seqs from the oldest load to the youngest.
    by_seq: VecDeque<u64>,
    first_seq: u64,
    /// The loads whose `blocked_on` is set, as (store seq, load seq) in
    /// ascending order, so [`LoadQueue::unblock_store`] finds a store's
    /// loads by binary search. Most queued loads can be blocked at once
    /// (a load waits for every older store address), so a walk over
    /// them would cost nearly as much as one over the queue.
    blocked: Vec<(u64, u64)>,
}

impl LoadQueue {
    /// Creates an empty queue.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            entries: VecDeque::new(),
            capacity,
            popped: 0,
            by_seq: VecDeque::new(),
            first_seq: 0,
            blocked: Vec::new(),
        }
    }

    /// Remaining slots.
    pub fn free(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Allocates a slot at rename.
    ///
    /// # Panics
    ///
    /// Panics when full.
    pub fn push(&mut self, seq: u64, size: u64) {
        assert!(self.free() > 0, "load queue overflow");
        if self.entries.is_empty() {
            self.by_seq.clear();
            self.first_seq = seq;
        }
        // Seqs only grow, so `seq` lands at or past the table's end.
        let off = (seq - self.first_seq) as usize;
        debug_assert!(off >= self.by_seq.len(), "load seqs must grow");
        self.by_seq.resize(off, NO_LOAD);
        self.by_seq
            .push_back(self.popped + self.entries.len() as u64);
        self.entries.push_back(LoadEntry {
            seq,
            addr: None,
            size,
            state: LoadState::WaitAddr,
            done_at: 0,
            value: 0,
            retry_at: 0,
            filled_locally: false,
            forwarded: false,
            addr_tainted: false,
            blocked_on: None,
            parked: false,
            parked_since: 0,
            park_deficit: 0,
        });
    }

    /// Marks the load at position `i` as waiting on store `store_seq`
    /// (see `LoadEntry::blocked_on`).
    pub fn block_on(&mut self, i: usize, store_seq: u64) {
        let e = &mut self.entries[i];
        debug_assert!(e.blocked_on.is_none(), "blocked loads are not re-checked");
        e.blocked_on = Some(store_seq);
        let key = (store_seq, e.seq);
        let pos = self.blocked.partition_point(|&k| k < key);
        self.blocked.insert(pos, key);
    }

    /// The loads waiting on a store, as (store seq, load seq) in
    /// ascending order.
    pub fn blocked(&self) -> &[(u64, u64)] {
        &self.blocked
    }

    /// Clears the store-blocked marker of every load waiting on store
    /// `seq` (called when that store resolves its address or drains at
    /// commit) and hands each released load to `released`, oldest first;
    /// the loads become forward-check candidates again. Costs a binary
    /// search plus the released loads, not a walk over the queue.
    pub fn unblock_store(&mut self, seq: u64, mut released: impl FnMut(&LoadEntry)) {
        let at = self.blocked.partition_point(|&(store, _)| store < seq);
        while let Some(&(store, load)) = self.blocked.get(at) {
            if store != seq {
                break;
            }
            self.blocked.remove(at);
            let i = self.index_of(load).expect("blocked load is queued");
            self.entries[i].blocked_on = None;
            released(&self.entries[i]);
        }
    }

    /// Position of the entry with sequence `seq`, in O(1) through the
    /// allocation-index table.
    fn index_of(&self, seq: u64) -> Option<usize> {
        let off = seq.checked_sub(self.first_seq)?;
        let alloc = *self.by_seq.get(usize::try_from(off).ok()?)?;
        // A stale or `NO_LOAD` index wraps past the queue's length.
        let i = alloc.wrapping_sub(self.popped) as usize;
        (self.entries.get(i)?.seq == seq).then_some(i)
    }

    /// Looks up a load by seq.
    pub fn get(&self, seq: u64) -> Option<&LoadEntry> {
        self.index_of(seq).map(|i| &self.entries[i])
    }

    /// Mutable lookup by seq.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut LoadEntry> {
        self.index_of(seq).map(move |i| &mut self.entries[i])
    }

    /// Position of the load with sequence `seq`, for repeated O(1)
    /// access through [`LoadQueue::at`]/[`LoadQueue::at_mut`]. Positions
    /// are stable until the queue's membership changes (push, pop,
    /// squash).
    pub fn find(&self, seq: u64) -> Option<usize> {
        self.index_of(seq)
    }

    /// The load at position `i` (see [`LoadQueue::find`]).
    pub fn at(&self, i: usize) -> &LoadEntry {
        &self.entries[i]
    }

    /// Mutable load at position `i` (see [`LoadQueue::find`]).
    pub fn at_mut(&mut self, i: usize) -> &mut LoadEntry {
        &mut self.entries[i]
    }

    /// Iterates over loads, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &LoadEntry> {
        self.entries.iter()
    }

    /// Mutable iteration over loads, oldest first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut LoadEntry> {
        self.entries.iter_mut()
    }

    /// Removes the oldest load (commit).
    ///
    /// # Panics
    ///
    /// Panics if the head is not `seq`.
    pub fn pop_head(&mut self, seq: u64) -> LoadEntry {
        let head = self.entries.pop_front().expect("load queue empty");
        assert_eq!(head.seq, seq, "loads must commit in order");
        self.popped += 1;
        if head.blocked_on.is_some() {
            self.blocked.retain(|&(_, load)| load != seq);
        }
        let gone = (seq + 1 - self.first_seq) as usize;
        self.by_seq.drain(..gone.min(self.by_seq.len()));
        self.first_seq = seq + 1;
        head
    }

    /// Drops all loads with `seq > above` (squash).
    pub fn squash_above(&mut self, above: u64) {
        while self.entries.back().is_some_and(|e| e.seq > above) {
            self.entries.pop_back();
        }
        self.blocked.retain(|&(_, load)| load <= above);
        self.by_seq
            .truncate((above + 1).saturating_sub(self.first_seq) as usize);
    }

    /// Finds the load owning a cancelled in-flight ticket and reverts it
    /// to `Ready` for replay. Returns its seq if found (it may have been
    /// squashed in the meantime).
    pub fn cancel_ticket(&mut self, ticket: Ticket) -> Option<u64> {
        for e in self.entries.iter_mut() {
            if e.state == (LoadState::InFlight { ticket }) {
                e.state = LoadState::Ready;
                return Some(e.seq);
            }
        }
        None
    }

    /// Number of loads in the queue.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_forward_full_containment() {
        let mut sq = StoreQueue::new(4);
        sq.push(10, 8);
        sq.resolve(10, 0x100, 0x1122_3344_5566_7788);
        // Load of 4 bytes at +4 inside the store.
        assert_eq!(
            sq.forward(11, 0x104, 4),
            ForwardResult::Forward(0x1122_3344)
        );
        // Full-width load.
        assert_eq!(
            sq.forward(11, 0x100, 8),
            ForwardResult::Forward(0x1122_3344_5566_7788)
        );
    }

    #[test]
    fn store_forward_only_from_older() {
        let mut sq = StoreQueue::new(4);
        sq.push(20, 8);
        sq.resolve(20, 0x100, 7);
        // A load *older* than the store must not see it.
        assert_eq!(sq.forward(15, 0x100, 8), ForwardResult::NoMatch);
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut sq = StoreQueue::new(4);
        sq.push(10, 8);
        sq.resolve(10, 0x100, 1);
        sq.push(12, 8);
        sq.resolve(12, 0x100, 2);
        assert_eq!(sq.forward(15, 0x100, 8), ForwardResult::Forward(2));
    }

    #[test]
    fn unknown_address_blocks() {
        let mut sq = StoreQueue::new(4);
        sq.push(10, 8); // unresolved
        assert_eq!(sq.forward(11, 0x100, 8), ForwardResult::UnknownAddr(10));
        assert!(sq.any_unresolved_older(11));
        assert!(!sq.any_unresolved_older(10));
    }

    #[test]
    fn partial_overlap_reported() {
        let mut sq = StoreQueue::new(4);
        sq.push(10, 4);
        sq.resolve(10, 0x102, 0xaabbccdd);
        // 8-byte load at 0x100 partially covered by 4-byte store at 0x102.
        assert_eq!(sq.forward(11, 0x100, 8), ForwardResult::Partial(10));
    }

    #[test]
    fn store_commit_in_order_and_squash() {
        let mut sq = StoreQueue::new(4);
        sq.push(10, 8);
        sq.push(11, 8);
        sq.push(12, 8);
        sq.squash_above(10);
        assert_eq!(sq.len(), 1);
        sq.resolve(10, 0x0, 5);
        let e = sq.pop_head(10);
        assert_eq!(e.data, Some(5));
        assert!(sq.is_empty());
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn store_commit_out_of_order_panics() {
        let mut sq = StoreQueue::new(4);
        sq.push(10, 8);
        sq.push(11, 8);
        sq.pop_head(11);
    }

    #[test]
    fn load_queue_lifecycle() {
        let mut lq = LoadQueue::new(2);
        lq.push(5, 8);
        assert_eq!(lq.free(), 1);
        {
            let e = lq.get_mut(5).unwrap();
            e.addr = Some(0x40);
            e.state = LoadState::Ready;
        }
        let e = lq.get(5).unwrap();
        assert_eq!(e.addr, Some(0x40));
        let popped = lq.pop_head(5);
        assert_eq!(popped.seq, 5);
        assert!(lq.is_empty());
    }

    #[test]
    fn load_squash_drops_young() {
        let mut lq = LoadQueue::new(4);
        lq.push(5, 8);
        lq.push(7, 8);
        lq.push(9, 8);
        lq.squash_above(6);
        assert_eq!(lq.len(), 1);
        assert!(lq.get(5).is_some());
    }

    #[test]
    fn seq_lookup_survives_gaps_commits_and_squashes() {
        let mut lq = LoadQueue::new(4);
        lq.push(3, 8);
        lq.push(7, 8);
        lq.push(8, 8);
        assert_eq!(lq.find(7), Some(1));
        assert!(lq.get(5).is_none(), "a seq between loads is not a load");
        assert!(lq.get(2).is_none() && lq.get(9).is_none());
        lq.pop_head(3);
        assert_eq!(lq.find(8), Some(1), "positions shift at commit");
        lq.squash_above(7);
        assert!(lq.get(8).is_none(), "squashed");
        // The next load reuses the squashed load's allocation index.
        lq.push(12, 4);
        assert!(lq.get(8).is_none(), "a reused index does not alias");
        assert_eq!(lq.get(12).map(|e| e.size), Some(4));
        lq.squash_above(0);
        assert!(lq.is_empty() && lq.get(7).is_none());
        lq.push(20, 8);
        assert_eq!(lq.find(20), Some(0));
    }

    #[test]
    fn unblock_store_releases_only_its_loads() {
        let mut lq = LoadQueue::new(4);
        for (seq, blocker) in [(5, 2), (6, 4), (7, 2), (8, 4)] {
            lq.push(seq, 8);
            lq.block_on(lq.find(seq).unwrap(), blocker);
        }
        assert_eq!(lq.blocked(), &[(2, 5), (2, 7), (4, 6), (4, 8)]);
        let mut released = Vec::new();
        lq.unblock_store(2, |e| released.push(e.seq));
        assert_eq!(released, vec![5, 7]);
        assert_eq!(lq.get(6).unwrap().blocked_on, Some(4));
        assert_eq!(lq.blocked(), &[(4, 6), (4, 8)]);
        // Squash and commit drop blocked loads from the list too.
        lq.squash_above(7);
        assert_eq!(lq.blocked(), &[(4, 6)]);
        lq.pop_head(5);
        lq.pop_head(6);
        assert!(lq.blocked().is_empty());
        lq.unblock_store(4, |_| panic!("nothing is blocked"));
    }

    #[test]
    fn cancel_ticket_reverts_to_ready() {
        let mut lq = LoadQueue::new(4);
        lq.push(5, 8);
        lq.get_mut(5).unwrap().state = LoadState::InFlight { ticket: 99 };
        assert_eq!(lq.cancel_ticket(99), Some(5));
        assert_eq!(lq.get(5).unwrap().state, LoadState::Ready);
        assert_eq!(lq.cancel_ticket(99), None, "already cancelled");
        assert_eq!(lq.cancel_ticket(1234), None, "unknown ticket");
    }

    #[test]
    fn forward_mask_sizes() {
        let mut sq = StoreQueue::new(2);
        sq.push(1, 8);
        sq.resolve(1, 0x0, u64::MAX);
        assert_eq!(sq.forward(2, 0x0, 1), ForwardResult::Forward(0xff));
        assert_eq!(sq.forward(2, 0x3, 2), ForwardResult::Forward(0xffff));
    }
}
