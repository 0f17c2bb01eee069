//! The interface between the core and the memory system.
//!
//! `gm-sim` is mitigation-agnostic; every scheme in the paper (GhostMinion
//! and all baselines) is a different implementation of [`MemoryBackend`]
//! in the `ghostminion` crate. The interface is shaped by the paper's
//! mechanisms:
//!
//! * loads carry a **timestamp** (`ts`) so the backend can apply
//!   TimeGuarding and leapfrogging;
//! * loads can be **cancelled in flight** when an older request leapfrogs
//!   them out of an MSHR (§4.5) — the core drains
//!   [`MemoryBackend::take_cancellations`] each cycle and replays;
//! * **commit notifications** let the backend move data from a
//!   GhostMinion into the L1 (§4.3), run InvisiSpec-style exposure loads,
//!   or train prefetchers non-speculatively (§4.7);
//! * **squash notifications** wipe speculative state above a timestamp
//!   (§4.2, footnote 2).

/// Identifies an in-flight load issued to the backend, so a leapfrog
/// cancellation can be routed back to the owning load-queue entry.
pub type Ticket = u64;

/// What kind of access a request is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Data load (speculative at issue time).
    Load,
    /// Data store (non-speculative: performed at commit).
    Store,
    /// Instruction fetch.
    Ifetch,
}

/// A memory request from the core.
#[derive(Clone, Copy, Debug)]
pub struct MemReq {
    /// Issuing core index.
    pub core: usize,
    /// Byte address.
    pub addr: u64,
    /// Access size in bytes (1–8); ignored for ifetch (whole line).
    pub size: u64,
    /// Temporal-Order timestamp: the instruction's sequence number.
    pub ts: u64,
    /// Program counter of the instruction (prefetcher training index).
    pub pc: u64,
    /// Current cycle.
    pub now: u64,
    /// `true` while the instruction may still be squashed. Commit-time
    /// requests pass `false` and must never touch speculative structures.
    pub speculative: bool,
    /// What kind of access this is.
    pub kind: AccessKind,
}

/// Backend response to a timed load/ifetch request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadResp {
    /// The access was accepted; data is usable at cycle `at`. `ticket`
    /// identifies it for possible later cancellation, and
    /// `filled_locally` reports whether the data was retained in a
    /// core-local speculative structure (it may not be, e.g. a
    /// TimeGuarded GhostMinion fill that found no legal slot, §4.4).
    Done {
        /// Cycle at which the data becomes usable.
        at: u64,
        /// Handle for a later leapfrog cancellation.
        ticket: Ticket,
        /// Whether the data was retained in a core-local speculative
        /// structure.
        filled_locally: bool,
    },
    /// No resources (e.g. all MSHRs held by requests this one must not
    /// displace); retry no earlier than `at`.
    Retry {
        /// Earliest cycle at which the core should retry.
        at: u64,
    },
}

impl LoadResp {
    /// The completion cycle for accepted accesses.
    pub fn done_at(&self) -> Option<u64> {
        match self {
            LoadResp::Done { at, .. } => Some(*at),
            LoadResp::Retry { .. } => None,
        }
    }
}

/// The memory system a core talks to. Implemented per mitigation scheme
/// by the `ghostminion` crate; a trivial fixed-latency implementation
/// lives in this crate's tests.
pub trait MemoryBackend {
    /// Issues a (speculative) data load.
    fn load(&mut self, req: &MemReq) -> LoadResp;

    /// Notifies that a load is committing. Returns the cycle at which the
    /// commit may proceed (≥ `req.now`); schemes whose commit path is off
    /// the critical path return `req.now` unchanged, whereas e.g.
    /// InvisiSpec's exposure load returns a later cycle.
    fn commit_load(&mut self, req: &MemReq) -> u64;

    /// Performs a store at commit: timing (write-allocate, coherence
    /// upgrade) and the functional write of `value`. Does not block
    /// commit; contention appears through shared MSHR/bus state.
    fn store_commit(&mut self, req: &MemReq, value: u64);

    /// Issues an instruction fetch for the line containing `req.addr`.
    fn ifetch(&mut self, req: &MemReq) -> LoadResp;

    /// Notifies that an instruction fetched from `line_addr` committed,
    /// so an instruction-side minion may promote the line (§4.8). The
    /// promotion is off the critical path and charges no cycles, so the
    /// call carries no time.
    fn commit_ifetch(&mut self, core: usize, line_addr: u64);

    /// Squash: wipe core-local speculative state with timestamp strictly
    /// greater than `above_ts` (§4.2: timing-invariant single-cycle wipe,
    /// so the call carries no time). `max_ts` is the youngest squashed
    /// timestamp (for order auditing).
    fn squash(&mut self, core: usize, above_ts: u64, max_ts: u64);

    /// Drains tickets of in-flight loads the backend cancelled (leapfrog
    /// steals, §4.5). The core replays those loads.
    fn take_cancellations(&mut self, core: usize) -> Vec<Ticket>;

    /// Whether `core` may have cancellations waiting — the one channel
    /// through which the backend pushes events *at* a core. A quiescent
    /// core re-ticks early only when this returns `true`, so backends
    /// that can answer cheaply should override it; the conservative
    /// default keeps unoptimised backends correct (the core simply
    /// re-runs its stages every cycle, as it always did).
    fn cancellations_pending(&self, _core: usize) -> bool {
        true
    }

    /// Functional read with no timing side effects (used for load values
    /// and by test oracles).
    fn read_value(&self, addr: u64, size: u64) -> u64;

    /// Functional write with no timing side effects (used to set up
    /// initial program data).
    fn write_value(&mut self, addr: u64, value: u64, size: u64);

    /// Bulk functional write of a whole byte slice (program-image
    /// installation). Semantically identical to a loop of
    /// [`write_value`](Self::write_value) calls — the default *is* that
    /// loop — but backends with a line-granular functional memory
    /// should override it: installing a multi-MiB data segment word by
    /// word through dynamic dispatch costs more than simulating the
    /// program that uses it.
    fn write_bytes(&mut self, base: u64, bytes: &[u8]) {
        let mut addr = base;
        for chunk in bytes.chunks(8) {
            let mut v = 0u64;
            for (i, b) in chunk.iter().enumerate() {
                v |= (*b as u64) << (8 * i);
            }
            self.write_value(addr, v, chunk.len() as u64);
            addr += chunk.len() as u64;
        }
    }

    /// Like [`write_bytes`](Self::write_bytes), but the image arrives
    /// as a shared reference-counted slice. Backends whose functional
    /// memory can alias it (copy-on-write) should override this to
    /// install the `Arc` itself — program images are the bulk of a
    /// machine's construction cost, and most workloads never store
    /// into them. The default copies.
    fn write_bytes_shared(&mut self, base: u64, bytes: &std::sync::Arc<[u8]>) {
        self.write_bytes(base, bytes);
    }

    /// Sets a load-linked reservation for `core` on `addr`'s line,
    /// tagged with the LL's sequence number.
    fn ll_reserve(&mut self, core: usize, addr: u64, ts: u64);

    /// Attempts a store-conditional with sequence `ts`: returns `true`
    /// (and consumes the reservation) if a reservation from an *older*
    /// load-linked is intact. Requiring `ll_ts < ts` prevents a
    /// speculative LL from a later loop iteration re-arming the
    /// reservation after a remote store cleared it.
    fn sc_try(&mut self, core: usize, addr: u64, ts: u64) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_at_extracts_completion() {
        let d = LoadResp::Done {
            at: 42,
            ticket: 1,
            filled_locally: true,
        };
        assert_eq!(d.done_at(), Some(42));
        assert_eq!(LoadResp::Retry { at: 9 }.done_at(), None);
    }
}
