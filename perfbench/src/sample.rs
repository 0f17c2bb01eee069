//! Seeded, cost-matched samples of a suite's workload units.
//!
//! Units differ a hundredfold in host cost and fifteenfold in simulated
//! cycles per host second, so a plain random sample would make every
//! seed a different benchmark. Instead a seed picks one of the
//! fixed-size subsets whose predicted host cost *and* simulated cycles
//! both lie within a tolerance of a target: seeds change which units run,
//! not how much work a pass is.

use gm_workloads::Suite;

/// One unit's cost under its suite's eight-scheme figure lineup: (name,
/// host milliseconds at one worker, thousands of simulated cycles).
/// Cycles are exact; host milliseconds are each job's fastest of four
/// cold `gm-run --scale test --jobs 1` sweeps on a 2-core x86-64 box
/// (Xeon, 2.0 GHz), and only their ratios matter.
type Cost = (&'static str, u32, u32);

/// Figure 6 lineup.
const SPEC2006: &[Cost] = &[
    ("astar", 77, 920),
    ("bwaves", 231, 1013),
    ("bzip2", 71, 393),
    ("cactusADM", 487, 2455),
    ("calculix", 47, 294),
    ("gamess", 28, 227),
    ("gcc", 43, 898),
    ("GemsFDTD", 2178, 10291),
    ("gobmk", 118, 205),
    ("gromacs", 85, 411),
    ("h264ref", 119, 166),
    ("hmmer", 77, 205),
    ("lbm", 1103, 5331),
    ("leslie3d", 2093, 9898),
    ("libquantum", 126, 513),
    ("mcf", 80, 2234),
    ("milc", 111, 1783),
    ("namd", 48, 439),
    ("omnetpp", 62, 1408),
    ("povray", 31, 234),
    ("sjeng", 74, 141),
    ("soplex", 225, 3621),
    ("tonto", 25, 198),
    ("xalancbmk", 53, 1097),
    ("zeusmp", 1027, 5103),
];

/// Figure 7 lineup (four cores per unit).
const PARSEC: &[Cost] = &[
    ("blackscholes", 71, 129),
    ("canneal", 76, 636),
    ("ferret", 228, 1208),
    ("fluidanimate", 1128, 3227),
    ("freqmine", 91, 748),
    ("streamcluster", 635, 3787),
    ("swaptions", 75, 139),
];

/// Figure 8 lineup.
const SPEC2017: &[Cost] = &[
    ("bwaves", 235, 1013),
    ("cactuBSSN", 989, 4949),
    ("cam4", 500, 2500),
    ("deepsjeng", 111, 203),
    ("exchange2", 43, 100),
    ("fotonik3d", 2062, 10028),
    ("gcc", 37, 640),
    ("imagick", 85, 433),
    ("lbm", 1094, 5331),
    ("leela", 78, 221),
    ("mcf", 56, 1620),
    ("nab", 22, 171),
    ("perlbench", 42, 399),
    ("pop2", 1058, 5087),
    ("roms", 994, 4965),
    ("wrf", 525, 2982),
    ("xalancbmk", 50, 945),
    ("xz", 123, 958),
];

fn costs(suite: Suite) -> &'static [Cost] {
    match suite {
        Suite::Spec2006 => SPEC2006,
        Suite::Parsec => PARSEC,
        Suite::Spec2017 => SPEC2017,
    }
}

/// A target sum and the relative miss allowed around it.
#[derive(Clone, Copy, Debug)]
pub struct Target {
    pub sum: u64,
    pub tol: f64,
}

impl Target {
    pub const fn within(sum: u64, tol: f64) -> Self {
        Self { sum, tol }
    }

    /// No constraint.
    pub const ANY: Self = Self {
        sum: 0,
        tol: f64::INFINITY,
    };

    fn bounds(self) -> (u64, u64) {
        if self.tol.is_infinite() {
            return (0, u64::MAX);
        }
        let sum = self.sum as f64;
        (
            (sum * (1.0 - self.tol)).ceil() as u64,
            (sum * (1.0 + self.tol)).floor() as u64,
        )
    }
}

/// How to sample one suite.
#[derive(Clone, Copy, Debug)]
pub struct SampleSpec {
    pub suite: Suite,
    /// Units per sample.
    pub size: usize,
    /// Units costing more host milliseconds than this are never drawn.
    pub max_unit_ms: u64,
    /// Summed host milliseconds (simulation cost).
    pub ms: Target,
    /// Summed thousands of simulated cycles.
    pub kcycles: Target,
    /// Summed KiB of program data images (fingerprinting and set-up
    /// cost, which dominate a replay).
    pub image_kib: Target,
}

/// The units a seed picked, in suite order, with their predicted cost.
#[derive(Clone, Debug)]
pub struct Sample {
    pub suite: Suite,
    pub units: Vec<&'static str>,
    /// Summed host ms, kcycles and image KiB.
    pub predicted: [u64; 3],
    /// How many subsets met the targets; the seed chose one of them.
    pub candidates: usize,
}

/// SplitMix64 finaliser: a well-mixed 64-bit value per (seed, stream).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws `spec.size` of `suite_units` — the suite's (name, image KiB) in
/// suite order — for `seed`. Every subset meeting all three targets is
/// enumerated in lexicographic order and the seed indexes into that list,
/// so the same seed always yields the same units.
pub fn draw(
    spec: &SampleSpec,
    suite_units: &[(&'static str, u64)],
    seed: u64,
) -> Result<Sample, String> {
    let pool: Vec<(&'static str, [u64; 3])> = suite_units
        .iter()
        .filter_map(|&(name, kib)| {
            let &(_, ms, kc) = costs(spec.suite).iter().find(|c| c.0 == name)?;
            (u64::from(ms) <= spec.max_unit_ms).then_some((name, [ms.into(), kc.into(), kib]))
        })
        .collect();
    let bounds = [
        spec.ms.bounds(),
        spec.kcycles.bounds(),
        spec.image_kib.bounds(),
    ];
    let mut found: Vec<Vec<usize>> = Vec::new();
    // Depth-first over index combinations; every quantity is
    // non-negative, so a partial sum past an upper bound prunes its whole
    // subtree.
    fn walk(
        pool: &[(&str, [u64; 3])],
        start: usize,
        size: usize,
        sums: [u64; 3],
        bounds: &[(u64, u64); 3],
        picked: &mut Vec<usize>,
        found: &mut Vec<Vec<usize>>,
    ) {
        if picked.len() == size {
            if sums
                .iter()
                .zip(bounds)
                .all(|(s, (lo, hi))| (lo..=hi).contains(&s))
            {
                found.push(picked.clone());
            }
            return;
        }
        for i in start..pool.len() {
            let next = [0, 1, 2].map(|d| sums[d] + pool[i].1[d]);
            if next.iter().zip(bounds).any(|(s, (_, hi))| s > hi) {
                continue;
            }
            picked.push(i);
            walk(pool, i + 1, size, next, bounds, picked, found);
            picked.pop();
        }
    }
    walk(
        &pool,
        0,
        spec.size,
        [0; 3],
        &bounds,
        &mut Vec::new(),
        &mut found,
    );
    if found.is_empty() {
        return Err(format!(
            "no {}-unit sample of {} meets its targets {spec:?}",
            spec.size,
            spec.suite.name()
        ));
    }
    let chosen = &found[(mix(seed, spec.suite as u64) % found.len() as u64) as usize];
    Ok(Sample {
        suite: spec.suite,
        units: chosen.iter().map(|&i| pool[i].0).collect(),
        predicted: [0, 1, 2].map(|d| chosen.iter().map(|&i| pool[i].1[d]).sum()),
        candidates: found.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(suite: Suite) -> Vec<(&'static str, u64)> {
        costs(suite).iter().map(|c| (c.0, 100)).collect()
    }

    #[test]
    fn same_seed_same_sample_and_targets_hold() {
        let spec = SampleSpec {
            suite: Suite::Spec2006,
            size: 6,
            max_unit_ms: u64::MAX,
            ms: Target::within(2069, 0.01),
            kcycles: Target::within(11875, 0.01),
            image_kib: Target::ANY,
        };
        let units = units(Suite::Spec2006);
        let a = draw(&spec, &units, 1).unwrap();
        assert_eq!(a.units, draw(&spec, &units, 1).unwrap().units);
        assert_eq!(a.units.len(), 6);
        assert!(a.candidates > 1);
        assert!((2049..=2089).contains(&a.predicted[0]), "{a:?}");
        assert_eq!(a.predicted[2], 600);
        let seeds_differ = (2..10).any(|s| draw(&spec, &units, s).unwrap().units != a.units);
        assert!(seeds_differ, "seeds must be able to change the sample");
    }

    #[test]
    fn an_unmeetable_target_is_an_error() {
        let spec = SampleSpec {
            suite: Suite::Parsec,
            size: 2,
            max_unit_ms: u64::MAX,
            ms: Target::ANY,
            kcycles: Target::ANY,
            image_kib: Target::within(1, 0.0),
        };
        assert!(draw(&spec, &units(Suite::Parsec), 1).is_err());
    }
}
