//! Per-physical-register wakeup lists for the event-driven issue stage.
//!
//! The issue queue used to be scanned linearly every cycle, re-checking
//! every entry's source ready bits — cost proportional to IQ *occupancy*,
//! which is worst exactly when the machine is stalled (a full IQ waiting
//! on memory). With wakeup lists the dependency graph is walked instead:
//! a dispatching instruction registers itself on each not-yet-ready
//! source register, and the writeback that produces that register wakes
//! precisely the instructions waiting on it. Issue cost becomes
//! O(instructions woken + instructions issued).
//!
//! Coherence rules (the engine upholds these; see `Core`):
//!
//! * an entry is registered at dispatch on every source register whose
//!   value is still in flight;
//! * a register's list is drained when its value is written (the only
//!   ready-bit `false → true` transition for a live consumer);
//! * a squash clears the list of every unrenamed (freed) register —
//!   any waiter on it was younger than the squashed producer and is
//!   gone from the IQ; waiters squashed while their *surviving*
//!   producer is still in flight are dropped lazily when that producer
//!   writes back.
//!
//! A record names its waiter by `(seq, slot)`: the IQ is a fixed slab,
//! so the writeback reads the slot directly, and a record whose seq no
//! longer matches the slot's occupant is stale (the waiter issued or
//! was squashed, and the slot may since hold a younger entry — seqs are
//! never reused, so a stale record cannot alias a live one).
//!
//! # Storage: one arena, not one `Vec` per register
//!
//! The table used to be `Vec<Vec<u64>>` — 512 independent heap
//! allocations per core (Table 1 has 256+256 physical registers), each
//! with its own 24-byte header and allocator slack, multiplied by every
//! core in a many-core sweep. It is now a single arena of singly-linked
//! nodes shared by *all* registers of the core: a flat `heads`/`tails`
//! index pair per register (8 bytes) plus one growable node pool with an
//! intrusive free list. Watch/drain/clear are O(1)/O(waiters) exactly as
//! before, nodes are recycled without ever returning memory to the
//! allocator, and the whole table is two allocations regardless of
//! register count — so wide sweeps stop paying per-register table
//! memory.

use crate::regfile::PhysReg;

/// Sentinel index marking an empty list / the end of the free list.
const NIL: u32 = u32::MAX;

/// One waiter record in the arena: the waiting IQ entry's sequence
/// number and slab slot, and the next record on the same register's
/// list.
#[derive(Clone, Copy, Debug)]
struct Node {
    seq: u64,
    slot: u32,
    next: u32,
}

/// Per-physical-register lists of IQ entries (by `(seq, slot)`)
/// waiting for that register's value, backed by one shared node arena.
#[derive(Clone, Debug)]
pub struct WakeupTable {
    /// First waiter node per register (`NIL` = no waiters).
    heads: Vec<u32>,
    /// Last waiter node per register, for O(1) FIFO append.
    tails: Vec<u32>,
    /// The shared node pool. Freed nodes are threaded onto `free` and
    /// recycled; the pool grows only when more waiters are simultaneously
    /// live than ever before (bounded by two source operands per IQ
    /// entry plus lazily-dropped squashed waiters).
    nodes: Vec<Node>,
    /// Head of the free list inside `nodes` (`NIL` = pool exhausted).
    free: u32,
}

impl WakeupTable {
    /// A table covering `phys_regs` physical registers, all lists empty.
    pub fn new(phys_regs: usize) -> Self {
        Self {
            heads: vec![NIL; phys_regs],
            tails: vec![NIL; phys_regs],
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Takes a node off the free list, or grows the pool.
    fn alloc(&mut self, seq: u64, slot: u32) -> u32 {
        let node = Node {
            seq,
            slot,
            next: NIL,
        };
        if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("wakeup arena index fits in u32");
            self.nodes.push(node);
            idx
        }
    }

    /// Registers the IQ entry `seq` in slab slot `slot` as waiting on `p`.
    pub fn watch(&mut self, p: PhysReg, seq: u64, slot: u32) {
        let idx = self.alloc(seq, slot);
        let r = p.0 as usize;
        if self.heads[r] == NIL {
            self.heads[r] = idx;
        } else {
            self.nodes[self.tails[r] as usize].next = idx;
        }
        self.tails[r] = idx;
    }

    /// Whether no entry is waiting on `p`.
    pub fn is_empty(&self, p: PhysReg) -> bool {
        self.heads[p.0 as usize] == NIL
    }

    /// Detaches `p`'s list, returning its head (the register ends up
    /// empty). The caller walks/frees the chain.
    fn take(&mut self, p: PhysReg) -> u32 {
        let r = p.0 as usize;
        let head = self.heads[r];
        self.heads[r] = NIL;
        self.tails[r] = NIL;
        head
    }

    /// Moves `p`'s waiters into `into` (appending, in watch order),
    /// leaving the list empty and recycling the nodes.
    pub fn drain_into(&mut self, p: PhysReg, into: &mut Vec<(u64, u32)>) {
        let mut cur = self.take(p);
        while cur != NIL {
            let node = self.nodes[cur as usize];
            into.push((node.seq, node.slot));
            self.nodes[cur as usize].next = self.free;
            self.free = cur;
            cur = node.next;
        }
    }

    /// Drops every waiter of `p` (squash recovery: the register was
    /// unrenamed, so all of its waiters were squashed with it).
    pub fn clear(&mut self, p: PhysReg) {
        let mut cur = self.take(p);
        while cur != NIL {
            let next = self.nodes[cur as usize].next;
            self.nodes[cur as usize].next = self.free;
            self.free = cur;
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watch_drain_roundtrip() {
        let mut w = WakeupTable::new(4);
        let p = PhysReg(2);
        assert!(w.is_empty(p));
        w.watch(p, 10, 3);
        w.watch(p, 12, 5);
        assert!(!w.is_empty(p));
        let mut out = Vec::new();
        w.drain_into(p, &mut out);
        assert_eq!(out, vec![(10, 3), (12, 5)], "records keep their slots");
        assert!(w.is_empty(p));
    }

    #[test]
    fn clear_drops_waiters() {
        let mut w = WakeupTable::new(4);
        w.watch(PhysReg(1), 7, 0);
        w.clear(PhysReg(1));
        assert!(w.is_empty(PhysReg(1)));
        // Other registers are untouched.
        w.watch(PhysReg(3), 9, 0);
        w.clear(PhysReg(1));
        assert!(!w.is_empty(PhysReg(3)));
    }

    #[test]
    fn drain_appends_to_existing_scratch() {
        let mut w = WakeupTable::new(2);
        w.watch(PhysReg(0), 1, 0);
        let mut out = vec![(99, 7)];
        w.drain_into(PhysReg(0), &mut out);
        assert_eq!(out, vec![(99, 7), (1, 0)]);
    }

    #[test]
    fn arena_recycles_nodes_instead_of_growing() {
        let mut w = WakeupTable::new(8);
        let mut out = Vec::new();
        for round in 0..100u64 {
            for r in 0..8u16 {
                w.watch(PhysReg(r), round * 8 + u64::from(r), 0);
            }
            for r in 0..8u16 {
                out.clear();
                w.drain_into(PhysReg(r), &mut out);
                assert_eq!(out, vec![(round * 8 + u64::from(r), 0)]);
            }
        }
        // 100 rounds of 8 concurrent waiters never need more than 8 nodes.
        assert_eq!(w.nodes.len(), 8, "freed nodes must be recycled");
    }

    #[test]
    fn interleaved_lists_stay_disjoint() {
        let mut w = WakeupTable::new(4);
        // Interleave watches across registers so the chains interleave in
        // the arena, then check each register drains exactly its own.
        for i in 0..12u64 {
            w.watch(PhysReg((i % 4) as u16), i, 0);
        }
        for r in 0..4u16 {
            let mut out = Vec::new();
            w.drain_into(PhysReg(r), &mut out);
            let expect: Vec<(u64, u32)> = (0..12)
                .filter(|i| i % 4 == u64::from(r))
                .map(|i| (i, 0))
                .collect();
            assert_eq!(out, expect, "register {r} drains its own watch order");
        }
    }

    #[test]
    fn clear_then_watch_reuses_freed_chain() {
        let mut w = WakeupTable::new(2);
        for i in 0..5 {
            w.watch(PhysReg(0), i, 0);
        }
        let grown = w.nodes.len();
        w.clear(PhysReg(0));
        for i in 10..15 {
            w.watch(PhysReg(1), i, 0);
        }
        assert_eq!(w.nodes.len(), grown, "cleared nodes feed later watches");
        let mut out = Vec::new();
        w.drain_into(PhysReg(1), &mut out);
        assert_eq!(out, vec![(10, 0), (11, 0), (12, 0), (13, 0), (14, 0)]);
    }
}
