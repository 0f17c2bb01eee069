//! Functional-unit pools.
//!
//! Pipelined classes (integer ALU, FP ALU, the multiplier) are modelled as
//! per-cycle issue bandwidth. Non-pipelined units (IntDiv, FpDiv, FpSqrt —
//! the paper's §4.9 list) occupy a Mult/Div unit for their entire latency:
//! that occupancy is the structural hazard SpectreRewind measures, and the
//! resource the strictness-ordered scheduler serialises.

use gm_isa::FuClass;

/// Tracks functional-unit availability within and across cycles.
#[derive(Clone, Debug)]
pub struct FuPool {
    int_alu: usize,
    fp_alu: usize,
    muldiv: usize,
    // Per-cycle issue counters (reset each cycle).
    used_int_alu: usize,
    used_fp_alu: usize,
    used_muldiv: usize,
    // Busy-until times for each Mult/Div unit (non-pipelined occupancy).
    muldiv_busy_until: Vec<u64>,
}

impl FuPool {
    /// Builds a pool with the given unit counts.
    pub fn new(int_alu: usize, fp_alu: usize, muldiv: usize) -> Self {
        assert!(int_alu > 0 && fp_alu > 0 && muldiv > 0);
        Self {
            int_alu,
            fp_alu,
            muldiv,
            used_int_alu: 0,
            used_fp_alu: 0,
            used_muldiv: 0,
            muldiv_busy_until: vec![0; muldiv],
        }
    }

    /// Resets per-cycle issue bandwidth (call at the start of each cycle).
    pub fn new_cycle(&mut self) {
        self.used_int_alu = 0;
        self.used_fp_alu = 0;
        self.used_muldiv = 0;
    }

    /// Whether an op of `class` could be accepted at `now`.
    pub fn can_issue(&self, class: FuClass, now: u64) -> bool {
        match class {
            FuClass::IntAlu | FuClass::MemRead | FuClass::MemWrite => {
                self.used_int_alu < self.int_alu
            }
            FuClass::FpAlu => self.used_fp_alu < self.fp_alu,
            FuClass::IntMult => self.used_muldiv < self.muldiv,
            FuClass::IntDiv | FuClass::FpDiv | FuClass::FpSqrt => {
                self.used_muldiv < self.muldiv && self.muldiv_busy_until.iter().any(|&b| b <= now)
            }
        }
    }

    /// Accepts an op of `class` at `now` with the given latency.
    ///
    /// # Panics
    ///
    /// Panics if [`FuPool::can_issue`] would return `false` — callers
    /// must check first.
    pub fn issue(&mut self, class: FuClass, now: u64, latency: u64) {
        assert!(self.can_issue(class, now), "FU not available for {class:?}");
        match class {
            FuClass::IntAlu | FuClass::MemRead | FuClass::MemWrite => self.used_int_alu += 1,
            FuClass::FpAlu => self.used_fp_alu += 1,
            FuClass::IntMult => self.used_muldiv += 1,
            FuClass::IntDiv | FuClass::FpDiv | FuClass::FpSqrt => {
                self.used_muldiv += 1;
                let unit = self
                    .muldiv_busy_until
                    .iter_mut()
                    .find(|b| **b <= now)
                    .expect("checked by can_issue");
                // Non-pipelined: the unit is held for the whole operation.
                *unit = now + latency;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_limits_per_cycle() {
        let mut fu = FuPool::new(2, 1, 1);
        assert!(fu.can_issue(FuClass::IntAlu, 0));
        fu.issue(FuClass::IntAlu, 0, 1);
        fu.issue(FuClass::IntAlu, 0, 1);
        assert!(!fu.can_issue(FuClass::IntAlu, 0), "2 ALUs exhausted");
        fu.new_cycle();
        assert!(fu.can_issue(FuClass::IntAlu, 1), "bandwidth resets");
    }

    #[test]
    fn mem_ops_share_int_alu_ports() {
        let mut fu = FuPool::new(1, 1, 1);
        fu.issue(FuClass::MemRead, 0, 1);
        assert!(!fu.can_issue(FuClass::IntAlu, 0));
    }

    #[test]
    fn nonpipelined_divider_blocks_until_done() {
        let mut fu = FuPool::new(1, 1, 1);
        fu.issue(FuClass::IntDiv, 0, 12);
        fu.new_cycle();
        assert!(
            !fu.can_issue(FuClass::IntDiv, 5),
            "single divider busy until cycle 12"
        );
        assert!(!fu.can_issue(FuClass::FpDiv, 5), "shared Mult/Div unit");
        assert!(fu.can_issue(FuClass::IntDiv, 12), "free at completion");
    }

    #[test]
    fn pipelined_multiplier_does_not_occupy() {
        let mut fu = FuPool::new(1, 1, 1);
        fu.issue(FuClass::IntMult, 0, 3);
        fu.new_cycle();
        assert!(
            fu.can_issue(FuClass::IntMult, 1),
            "pipelined multiply accepts back-to-back"
        );
    }

    #[test]
    fn two_dividers_allow_two_concurrent_divides() {
        let mut fu = FuPool::new(1, 1, 2);
        fu.issue(FuClass::IntDiv, 0, 12);
        fu.new_cycle();
        assert!(fu.can_issue(FuClass::FpDiv, 1), "second unit free");
        fu.issue(FuClass::FpDiv, 1, 20);
        fu.new_cycle();
        assert!(!fu.can_issue(FuClass::IntDiv, 2), "both busy");
    }

    #[test]
    fn divider_and_multiply_share_issue_bandwidth() {
        let mut fu = FuPool::new(1, 1, 1);
        fu.issue(FuClass::IntMult, 0, 3);
        assert!(
            !fu.can_issue(FuClass::IntDiv, 0),
            "one Mult/Div issue port per unit per cycle"
        );
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn issue_unavailable_panics() {
        let mut fu = FuPool::new(1, 1, 1);
        fu.issue(FuClass::IntDiv, 0, 12);
        fu.new_cycle();
        fu.issue(FuClass::IntDiv, 1, 12);
    }
}
