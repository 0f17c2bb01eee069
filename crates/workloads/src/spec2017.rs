//! SPECspeed 2017 analogs — the Fig. 8 workload set.
//!
//! SPEC2017's larger inputs mostly *reduce* relative mitigation overhead
//! (the paper reports 0.6% geomean vs 2.5% on 2006): more of the time
//! goes to DRAM streaming that no scheme perturbs. The analogs reflect
//! that: mostly large-footprint regular kernels, with `mcf` and `wrf`
//! keeping the misspeculated-prefetch reliance the paper calls out.

use crate::kernels::*;
use crate::{analog, Table};

const M: u64 = 0x0100_0000;

/// The 18 SPECspeed 2017 analogs, in Fig. 8 order.
pub(crate) static TABLE: Table = Table {
    seed_base: 0x2017_2017,
    threads: 1,
    analogs: &[
        analog("bwaves", 1, |a, _, _, f| {
            stream_sum(a, M, 1 << 17, f, 8, true);
        }),
        analog("cactuBSSN", 2, |a, _, _, f| {
            stencil(a, M, 512, 64, f / 2 + 1);
        }),
        analog("cam4", 3, |a, _, _, f| {
            stencil(a, M, 256, 64, f / 2 + 1);
            fp_compute(a, 400 * f, 20);
        }),
        analog("deepsjeng", 4, |a, r, _, f| {
            branchy(a, r, M, 4096, f / 2 + 1);
        }),
        analog("exchange2", 5, |a, r, _, f| {
            // Integer puzzle solver: branchy, cache-resident.
            branchy(a, r, M, 1024, f);
            dp_inner(a, 2 * M, 512, 1);
        }),
        analog("fotonik3d", 6, |a, _, _, f| {
            stencil(a, M, 512, 128, f / 3 + 1);
        }),
        analog("gcc", 7, |a, r, _, f| {
            pointer_chase(a, r, M, 1 << 14, 350 * f, 10, 2 * M);
            branchy(a, r, 3 * M, 512, 1);
        }),
        analog("imagick", 8, |a, _, _, f| {
            fp_compute(a, 1200 * f, 9);
            stream_sum(a, M, 1 << 13, 1, 1, true);
        }),
        analog("lbm", 9, |a, _, _, f| {
            stencil(a, M, 1024, 32, f / 3 + 1);
            stream_sum(a, 9 * M, 1 << 16, f / 3 + 1, 8, true);
        }),
        analog("leela", 10, |a, r, _, f| {
            branchy(a, r, M, 2048, f / 2 + 1);
            indexed_gather(a, r, 2 * M, 3 * M, 512, 1 << 13, 1);
        }),
        analog("mcf", 11, |a, r, _, f| {
            pointer_chase(a, r, M, 1 << 16, 900 * f, 30, 9 * M);
        }),
        analog("nab", 12, |a, _, _, f| {
            fp_compute(a, 1400 * f, 14);
        }),
        analog("perlbench", 13, |a, r, _, f| {
            pointer_chase(a, r, M, 1 << 12, 200 * f, 6, 2 * M);
            branchy(a, r, 3 * M, 1024, f / 3 + 1);
        }),
        analog("pop2", 14, |a, _, _, f| {
            stencil(a, M, 512, 64, f / 2 + 1);
            stream_sum(a, 9 * M, 1 << 14, 1, 8, true);
        }),
        analog("roms", 15, |a, _, _, f| {
            stencil(a, M, 256, 128, f / 2 + 1);
        }),
        analog("wrf", 16, |a, r, _, f| {
            // Paper: wrf is hurt by losing misspeculated data access.
            stencil(a, M, 256, 64, f / 3 + 1);
            pointer_chase(a, r, 9 * M, 1 << 14, 300 * f, 14, 10 * M);
        }),
        analog("xalancbmk", 17, |a, r, _, f| {
            pointer_chase(a, r, M, 1 << 12, 300 * f, 8, 2 * M);
            indexed_gather(a, r, 3 * M, 4 * M, 1024, 1 << 16, f / 3 + 1);
        }),
        analog("xz", 18, |a, r, _, f| {
            branchy(a, r, M, 2048, f / 3 + 1);
            indexed_gather(a, r, 2 * M, 3 * M, 2048, 1 << 17, f / 3 + 1);
        }),
    ],
};

#[cfg(test)]
mod tests {
    use crate::{Scale, Suite, WorkloadSet};

    #[test]
    fn lineup_matches_figure8() {
        let names: Vec<&str> = Suite::Spec2017.unit_names().collect();
        assert_eq!(
            names,
            vec![
                "bwaves",
                "cactuBSSN",
                "cam4",
                "deepsjeng",
                "exchange2",
                "fotonik3d",
                "gcc",
                "imagick",
                "lbm",
                "leela",
                "mcf",
                "nab",
                "perlbench",
                "pop2",
                "roms",
                "wrf",
                "xalancbmk",
                "xz"
            ]
        );
    }

    #[test]
    fn deterministic_across_builds() {
        let a = WorkloadSet::new(Suite::Spec2017, Scale::Bench);
        let b = WorkloadSet::new(Suite::Spec2017, Scale::Bench);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.units.iter().zip(&b.units) {
            assert_eq!(x.programs, y.programs);
        }
    }
}
