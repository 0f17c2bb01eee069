//! Parsec analogs — the Fig. 7 workload set, each a 4-thread
//! shared-memory program.
//!
//! Threads mostly work on private slices (data-parallel, as the real
//! suite does between synchronisation points), with two workloads —
//! `canneal` and `fluidanimate` — taking a shared spinlock built from
//! LL/SC, which exercises the coherence protocol and GhostMinion's
//! Shared-only / commit-replay coherence extension (§4.6).

use crate::kernels::*;
use crate::{analog, Table};
use gm_isa::{Asm, Reg};

const M: u64 = 0x0100_0000;
/// Shared region used by lock-based workloads (same address in every
/// thread's program).
const SHARED: u64 = 0x7000_0000;

/// Emits `times` lock-protected increments of a shared counter.
fn locked_increments(a: &mut Asm, lock: u64, counter: u64, times: u64) {
    let (laddr, caddr, tmp, ok, i, n, one) = (
        Reg::x(21),
        Reg::x(22),
        Reg::x(23),
        Reg::x(24),
        Reg::x(25),
        Reg::x(26),
        Reg::x(27),
    );
    a.li(laddr, lock as i64);
    a.li(caddr, counter as i64);
    a.li(i, 0);
    a.li(n, times as i64);
    a.li(one, 1);
    let outer = a.here();
    let acquire = a.here();
    a.ll(tmp, laddr);
    a.bne(tmp, Reg::ZERO, acquire);
    a.sc(ok, one, laddr);
    a.bne(ok, Reg::ZERO, acquire);
    a.fence(); // acquire
    a.ld(tmp, caddr, 0);
    a.addi(tmp, tmp, 1);
    a.st(tmp, caddr, 0);
    a.st(Reg::ZERO, laddr, 0); // release (stores drain in order)
    a.addi(i, i, 1);
    a.bne(i, n, outer);
}

/// The 7 Parsec analogs, in Fig. 7 order.
pub(crate) static TABLE: Table = Table {
    seed_base: 0x9a95_ec00,
    threads: 4,
    analogs: &[
        analog("blackscholes", 1, |a, _, tid, f| {
            // Embarrassingly parallel option pricing: pure FP per thread.
            fp_compute(a, 900 * f + tid * 7, 8);
        }),
        analog("canneal", 2, |a, r, tid, f| {
            // Random element swaps over a big netlist + shared progress
            // counter under a lock.
            pointer_chase(a, r, M * (1 + tid), 1 << 13, 250 * f, 8, M * 9 + tid * M);
            locked_increments(a, SHARED, SHARED + 64, 4 * f);
        }),
        analog("ferret", 3, |a, r, tid, f| {
            // Similarity search pipeline: gathers + ranking loops.
            indexed_gather(a, r, M * (1 + tid), M * (5 + tid), 1024, 1 << 15, f / 2 + 1);
            dp_inner(a, M * (9 + tid), 1024, f / 3 + 1);
        }),
        analog("fluidanimate", 4, |a, _, tid, f| {
            stencil(a, M * (1 + tid), 256, 32, f / 2 + 1);
            locked_increments(a, SHARED, SHARED + 64, 3 * f);
        }),
        analog("freqmine", 5, |a, r, tid, f| {
            // FP-tree mining: pointer chases over private trees.
            pointer_chase(a, r, M * (1 + tid), 1 << 12, 300 * f, 6, M * (9 + tid));
        }),
        analog("streamcluster", 6, |a, _, tid, f| {
            // Distance computations over streamed points.
            stream_sum(a, M * (1 + tid), 1 << 15, f / 2 + 1, 8, true);
            fp_compute(a, 200 * f, 50);
        }),
        analog("swaptions", 7, |a, _, tid, f| {
            fp_compute(a, 1100 * f + tid * 3, 12);
        }),
    ],
};

#[cfg(test)]
mod tests {
    use crate::{Scale, Suite, WorkloadSet};
    use gm_isa::Program;

    #[test]
    fn lineup_matches_figure7() {
        let names: Vec<&str> = Suite::Parsec.unit_names().collect();
        assert_eq!(
            names,
            vec![
                "blackscholes",
                "canneal",
                "ferret",
                "fluidanimate",
                "freqmine",
                "streamcluster",
                "swaptions"
            ]
        );
    }

    #[test]
    fn threads_have_disjoint_private_data() {
        for p in WorkloadSet::new(Suite::Parsec, Scale::Test).units {
            if p.name == "canneal" || p.name == "fluidanimate" {
                continue; // intentionally share a region
            }
            let mut ranges: Vec<(u64, u64)> = Vec::new();
            for t in &p.programs {
                for d in &t.program_data() {
                    for &(b, e) in &ranges {
                        assert!(
                            d.1 <= b || d.0 >= e,
                            "{}: overlapping data {:#x}..{:#x} vs {:#x}..{:#x}",
                            p.name,
                            d.0,
                            d.1,
                            b,
                            e
                        );
                    }
                }
                for d in t.program_data() {
                    ranges.push(d);
                }
            }
        }
    }

    trait ProgData {
        fn program_data(&self) -> Vec<(u64, u64)>;
    }
    impl ProgData for Program {
        fn program_data(&self) -> Vec<(u64, u64)> {
            self.data.iter().map(|d| (d.base, d.end())).collect()
        }
    }

    #[test]
    fn locked_workloads_reference_the_shared_region() {
        let set = WorkloadSet::named(Suite::Parsec, Scale::Test, &["canneal"]);
        let has_ll = set.units[0].programs[0]
            .insts
            .iter()
            .any(|i| i.op == gm_isa::Op::Ll);
        assert!(has_ll, "canneal threads must use LL/SC");
    }
}
