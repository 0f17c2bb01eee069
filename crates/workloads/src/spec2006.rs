//! SPEC CPU2006 analogs — the Fig. 6 / Fig. 9 / Fig. 10 / Fig. 11
//! workload set, one kernel mix per named benchmark.
//!
//! Parameter choices encode each benchmark's published character (see
//! the crate docs and DESIGN.md): footprints set the cache level the
//! working set lives at, `rare_threshold` sets how much useful work
//! wrong-path execution does (the misspeculated-prefetch reliance the
//! paper identifies for mcf/gcc/bzip2/zeusmp), and divide density
//! exercises the non-pipelined units.

use crate::kernels::*;
use crate::{analog, Table};

// Base addresses are spaced 16 MiB apart so kernels never alias.
const M: u64 = 0x0100_0000;

/// The 25 SPEC CPU2006 analogs, in the order Fig. 6 plots them.
pub(crate) static TABLE: Table = Table {
    seed_base: 0x9e37_79b9,
    threads: 1,
    analogs: &[
        analog("astar", 1, |a, r, _, f| {
            // Grid pathfinding: dependent gathers + branchy heuristics.
            indexed_gather(a, r, M, 2 * M, 2048, 1 << 18, f);
            branchy(a, r, 3 * M, 512, 1);
        }),
        analog("bwaves", 2, |a, _, _, f| {
            // FP streaming over a multi-MiB grid.
            stream_sum(a, M, 1 << 17, f, 8, true);
        }),
        analog("bzip2", 3, |a, r, _, f| {
            // Data-dependent branches over buffers, plus modest
            // wrong-path prefetch reliance.
            branchy(a, r, M, 2048, f / 3 + 1);
            pointer_chase(a, r, 2 * M, 8192, 160 * f, 8, 3 * M);
        }),
        analog("cactusADM", 4, |a, _, _, f| {
            stencil(a, M, 256, 64, f);
        }),
        analog("calculix", 5, |a, _, _, f| {
            fp_compute(a, 900 * f, 6);
            stencil(a, M, 64, 16, f / 2 + 1);
        }),
        analog("gamess", 6, |a, _, _, f| {
            // Compute-bound, cache-resident: every scheme ≈ 1.0.
            fp_compute(a, 1800 * f, 12);
        }),
        analog("gcc", 7, |a, r, _, f| {
            // Irregular pointers + branches; relies on misspeculation
            // prefetching (paper: hurt on the data side).
            pointer_chase(a, r, M, 1 << 14, 500 * f, 12, 2 * M);
            branchy(a, r, 3 * M, 512, 1);
        }),
        analog("GemsFDTD", 8, |a, _, _, f| {
            stencil(a, M, 512, 128, f / 2 + 1);
            stream_sum(a, 9 * M, 1 << 15, 1, 8, true);
        }),
        analog("gobmk", 9, |a, r, _, f| {
            // Game tree: branch entropy dominates.
            branchy(a, r, M, 4096, f / 2 + 1);
        }),
        analog("gromacs", 10, |a, _, _, f| {
            fp_compute(a, 1000 * f, 8);
            stream_sum(a, M, 1 << 13, 1, 1, true);
        }),
        analog("h264ref", 11, |a, _, _, f| {
            dp_inner(a, M, 2048, f / 2 + 1);
            stream_sum(a, 2 * M, 1 << 12, 1, 1, false);
        }),
        analog("hmmer", 12, |a, _, _, f| {
            // L1-resident dynamic programming.
            dp_inner(a, M, 4096, f / 2 + 1);
        }),
        analog("lbm", 13, |a, _, _, f| {
            // Huge strided streams with stores: prefetcher + DRAM bound.
            stencil(a, M, 1024, 32, f / 3 + 1);
            stream_sum(a, 9 * M, 1 << 16, f / 3 + 1, 8, true);
        }),
        analog("leslie3d", 14, |a, _, _, f| {
            // Multiple concurrent streams: sensitive to minion capacity.
            stencil(a, M, 512, 64, f / 2 + 1);
            stencil(a, 9 * M, 512, 64, f / 2 + 1);
        }),
        analog("libquantum", 15, |a, _, _, f| {
            // Strided toggle sweep over a large vector.
            stream_sum(a, M, 1 << 16, f, 8, false);
        }),
        analog("mcf", 16, |a, r, _, f| {
            // The paper's worst case: dependent chase over ~4 MiB with
            // slow-resolving rare branches -> wrong-path prefetching.
            pointer_chase(a, r, M, 1 << 16, 1200 * f, 48, 9 * M);
        }),
        analog("milc", 17, |a, r, _, f| {
            indexed_gather(a, r, M, 2 * M, 4096, 1 << 19, f / 2 + 1);
        }),
        analog("namd", 18, |a, r, _, f| {
            fp_compute(a, 1200 * f, 16);
            indexed_gather(a, r, M, 2 * M, 1024, 1 << 14, f / 2 + 1);
        }),
        analog("omnetpp", 19, |a, r, _, f| {
            // Event-queue pointer churn: chases + gathers; the paper's
            // leapfrog-heavy workload.
            pointer_chase(a, r, M, 1 << 13, 600 * f, 6, 2 * M);
            indexed_gather(a, r, 3 * M, 4 * M, 1024, 1 << 15, f / 3 + 1);
        }),
        analog("povray", 20, |a, r, _, f| {
            // Divide/sqrt dense; small working set (spikes only with
            // tiny minions, Fig. 11).
            fp_compute(a, 1000 * f, 3);
            branchy(a, r, M, 256, 1);
        }),
        analog("sjeng", 21, |a, r, _, f| {
            branchy(a, r, M, 2048, f / 2 + 1);
            dp_inner(a, 2 * M, 512, 1);
        }),
        analog("soplex", 22, |a, r, _, f| {
            // Sparse-matrix gathers over a big arena: the paper's
            // timeleap workload (same-line requests in MSHR windows).
            indexed_gather(a, r, M, 2 * M, 8192, 1 << 20, f / 3 + 1);
        }),
        analog("tonto", 23, |a, _, _, f| {
            fp_compute(a, 1500 * f, 10);
        }),
        analog("xalancbmk", 24, |a, r, _, f| {
            pointer_chase(a, r, M, 1 << 12, 400 * f, 8, 2 * M);
            indexed_gather(a, r, 3 * M, 4 * M, 1024, 1 << 16, f / 3 + 1);
        }),
        analog("zeusmp", 25, |a, r, _, f| {
            stencil(a, M, 256, 128, f / 2 + 1);
            pointer_chase(a, r, 9 * M, 4096, 80 * f, 10, 10 * M);
        }),
    ],
};

#[cfg(test)]
mod tests {
    use crate::{Scale, Suite, WorkloadSet};
    use gm_isa::Program;

    fn program(name: &str, scale: Scale) -> Program {
        let set = WorkloadSet::named(Suite::Spec2006, scale, &[name]);
        set.units[0].programs[0].clone()
    }

    #[test]
    fn lineup_matches_figure6_order() {
        let names: Vec<&str> = Suite::Spec2006.unit_names().collect();
        assert_eq!(names[0], "astar");
        assert_eq!(names[15], "mcf");
        assert_eq!(names[24], "zeusmp");
        assert_eq!(names.len(), 25);
    }

    #[test]
    fn mcf_has_multi_mib_footprint() {
        let p = program("mcf", Scale::Test);
        let bytes: usize = p.data.iter().map(|d| d.bytes.len()).sum();
        assert!(
            bytes >= 4 * 1024 * 1024,
            "mcf analog must exceed the 2 MiB L2 ({bytes} bytes)"
        );
    }

    #[test]
    fn gamess_is_cache_resident() {
        let p = program("gamess", Scale::Test);
        let bytes: usize = p.data.iter().map(|d| d.bytes.len()).sum();
        assert!(bytes < 64 * 1024, "gamess analog must fit in the L1");
    }

    #[test]
    fn scaling_increases_code_or_iterations() {
        // Same static program, more dynamic work: loop bounds live in
        // immediates, so check a known iteration register constant grows.
        let t = &program("mcf", Scale::Test);
        let b = &program("mcf", Scale::Bench);
        assert_eq!(t.len(), b.len(), "static code identical across scales");
        assert_ne!(t, b, "immediates must differ");
    }
}
