//! Synthetic workload analogs for the GhostMinion evaluation.
//!
//! The paper evaluates on SPEC CPU2006, SPECspeed 2017 and Parsec. Those
//! suites cannot be redistributed, so this crate provides one synthetic
//! kernel per named benchmark, built from a small library of
//! [`kernels`] whose parameters (working-set size, pointer-chasing
//! depth, branch entropy, divide density, stride regularity) are chosen
//! so each analog exhibits the *microarchitectural character* that
//! drives that benchmark's behaviour in the paper's figures:
//!
//! * `mcf` — dependent pointer chasing over a multi-MiB arena with
//!   data-dependent early-exit branches, so wrong-path execution does
//!   useful prefetching (the paper's explanation of its ≈30% overhead);
//! * `lbm`/`bwaves`/`libquantum` — large-footprint streaming where the
//!   stride prefetcher and DRAM schedule dominate;
//! * `gobmk`/`sjeng` — high branch entropy (game trees), stressing
//!   squash/wipe paths;
//! * `povray`/`calculix` — FP divide/sqrt density (the non-pipelined
//!   units of §4.9 and SpectreRewind);
//! * `omnetpp`/`xalancbmk`/`astar` — indexed/pointer loads whose
//!   addresses depend on prior loads (the STT taint-delay worst case);
//! * `gamess`/`hmmer`/`h264ref` — small working sets that live in the
//!   L1, where every scheme should be near 1.0.
//!
//! Each suite is one static table of analogs in figure order: a name, an
//! RNG seed and a body that emits one thread's kernels. One builder turns
//! a table entry into a [`WorkloadUnit`], so [`Suite::unit_names`] reads
//! names without assembling anything and [`UnitCache::workload_set`]
//! assembles only the units it is asked for and does not already hold.
//!
//! Every program is deterministic (fixed seeds), self-contained
//! (data segments included) and terminates with `halt`.

pub mod kernels;
mod parsec;
mod spec2006;
mod spec2017;

use gm_isa::{Asm, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// How big a run should be; chosen per harness. Only iteration counts
/// scale: images are the same size at every scale. Ranges are committed
/// instructions per unit under the unsafe baseline, over all suites.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Unit tests and the goldens: 10k (nab) to 791k (GemsFDTD).
    Test,
    /// Figure regeneration, long enough for caches and predictors to
    /// warm: 75k (SPECspeed 2017 gcc) to 5.4M (GemsFDTD).
    Bench,
    /// Confirmation sweeps: 346k (SPECspeed 2017 gcc) to 24M (GemsFDTD).
    Full,
}

impl Scale {
    /// Multiplier applied to per-kernel base iteration counts.
    pub fn factor(self) -> u64 {
        match self {
            Scale::Test => 1,
            Scale::Bench => 12,
            Scale::Full => 60,
        }
    }

    /// CLI/JSON name of the scale.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Bench => "bench",
            Scale::Full => "full",
        }
    }

    /// Parses a CLI scale name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "test" => Some(Scale::Test),
            "bench" => Some(Scale::Bench),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// The benchmark suites the paper evaluates on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2006 analogs (Figures 6, 9, 10, 11, power, §4.9).
    Spec2006,
    /// SPECspeed 2017 analogs (Figure 8).
    Spec2017,
    /// 4-thread Parsec analogs (Figure 7).
    Parsec,
}

impl Suite {
    /// Display name used in reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Spec2006 => "spec2006",
            Suite::Spec2017 => "spec2017",
            Suite::Parsec => "parsec",
        }
    }

    /// The suite's unit names in figure order. Builds nothing.
    pub fn unit_names(self) -> impl Iterator<Item = &'static str> {
        self.table().analogs.iter().map(|a| a.name)
    }

    fn table(self) -> &'static Table {
        match self {
            Suite::Spec2006 => &spec2006::TABLE,
            Suite::Spec2017 => &spec2017::TABLE,
            Suite::Parsec => &parsec::TABLE,
        }
    }
}

/// One analog in a suite table.
struct Analog {
    name: &'static str,
    seed: u64,
    /// Emits one thread's kernels: `(asm, rng, thread id, scale factor)`.
    body: fn(&mut Asm, &mut StdRng, u64, u64),
}

const fn analog(
    name: &'static str,
    seed: u64,
    body: fn(&mut Asm, &mut StdRng, u64, u64),
) -> Analog {
    Analog { name, seed, body }
}

/// A suite's analogs in figure order and how to assemble them.
struct Table {
    /// Each thread's RNG is seeded with `seed_base ^ seed ^ tid`.
    seed_base: u64,
    /// Programs per unit. A single-threaded program is named after its
    /// unit; thread `tid` of a multi-threaded one is `{name}-t{tid}`.
    threads: u64,
    analogs: &'static [Analog],
}

impl Table {
    /// The one place an analog becomes programs.
    fn build(&self, analog: &Analog, scale: Scale) -> Arc<WorkloadUnit> {
        let programs = (0..self.threads)
            .map(|tid| {
                let mut a = Asm::new(if self.threads == 1 {
                    analog.name.to_owned()
                } else {
                    format!("{}-t{tid}", analog.name)
                });
                let mut rng = StdRng::seed_from_u64(self.seed_base ^ analog.seed ^ tid);
                (analog.body)(&mut a, &mut rng, tid, scale.factor());
                a.halt();
                a.assemble()
            })
            .collect();
        Arc::new(WorkloadUnit {
            name: analog.name,
            programs,
            program_shas: OnceLock::new(),
        })
    }
}

/// One unit of simulation: a named workload with one program per core —
/// one for the SPEC suites, four for Parsec — so a single sweep loop can
/// run either.
#[derive(Debug)]
pub struct WorkloadUnit {
    pub name: &'static str,
    pub programs: Vec<Program>,
    /// Memo slot for this unit's per-program content digests
    /// (`gm-results` fills it on first fingerprint). A built unit is
    /// shared behind an [`Arc`] by every sweep of a run that names it
    /// (see [`UnitCache`]), and its programs never change after
    /// construction, so a multi-MiB image is hashed once per *run*
    /// instead of once per *job*. A unit with edited programs must be
    /// built afresh, with an empty slot; nothing copies a filled one.
    pub program_shas: OnceLock<Vec<String>>,
}

impl WorkloadUnit {
    /// Number of cores this unit occupies.
    pub fn threads(&self) -> usize {
        self.programs.len()
    }
}

/// A suite of [`WorkloadUnit`]s at one scale — the workload axis of an
/// experiment sweep.
#[derive(Clone, Debug)]
pub struct WorkloadSet {
    pub suite: Suite,
    pub units: Vec<Arc<WorkloadUnit>>,
}

impl WorkloadSet {
    /// Builds the full workload set for `suite` at `scale`.
    pub fn new(suite: Suite, scale: Scale) -> Self {
        Self::named(suite, scale, &suite.unit_names().collect::<Vec<_>>())
    }

    /// Builds only the units of `suite` whose names appear in `names`, in
    /// suite order; names the suite lacks are skipped.
    pub fn named(suite: Suite, scale: Scale, names: &[&str]) -> Self {
        UnitCache::default().workload_set(suite, scale, names)
    }

    /// Number of units in the set.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }
}

/// Built units keyed by (suite, scale, unit name), so every sweep of one
/// run that names a unit shares one build of it and one hash of its
/// images.
#[derive(Default)]
pub struct UnitCache {
    units: HashMap<(Suite, Scale, &'static str), Arc<WorkloadUnit>>,
}

impl UnitCache {
    /// The units of `suite` at `scale` whose names appear in `names`, in
    /// suite order; names the suite lacks are skipped. Builds only the
    /// units the cache does not hold yet.
    pub fn workload_set(&mut self, suite: Suite, scale: Scale, names: &[&str]) -> WorkloadSet {
        let table = suite.table();
        let units = table
            .analogs
            .iter()
            .filter(|a| names.contains(&a.name))
            .map(|a| {
                let unit = self.units.entry((suite, scale, a.name));
                Arc::clone(unit.or_insert_with(|| table.build(a, scale)))
            })
            .collect();
        WorkloadSet { suite, units }
    }
}

/// Prints a count: the held programs are multi-MiB images.
impl fmt::Debug for UnitCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UnitCache({} units)", self.units.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITES: [Suite; 3] = [Suite::Spec2006, Suite::Spec2017, Suite::Parsec];

    #[test]
    fn scale_factors_are_ordered() {
        assert!(Scale::Test.factor() < Scale::Bench.factor());
        assert!(Scale::Bench.factor() < Scale::Full.factor());
    }

    #[test]
    fn spec2006_has_the_figure6_lineup() {
        let w = WorkloadSet::new(Suite::Spec2006, Scale::Test);
        assert_eq!(w.len(), 25);
        let names: Vec<&str> = w.units.iter().map(|u| u.name).collect();
        for expect in ["mcf", "libquantum", "gobmk", "povray", "xalancbmk"] {
            assert!(names.contains(&expect), "{expect} missing");
        }
    }

    #[test]
    fn spec2017_has_the_figure8_lineup() {
        let w = WorkloadSet::new(Suite::Spec2017, Scale::Test);
        assert_eq!(w.len(), 18);
    }

    #[test]
    fn parsec_has_the_figure7_lineup() {
        let w = WorkloadSet::new(Suite::Parsec, Scale::Test);
        assert_eq!(w.len(), 7);
        for p in &w.units {
            assert_eq!(p.programs.len(), 4, "{}: 4-thread Parsec", p.name);
        }
    }

    #[test]
    fn all_programs_are_statically_valid() {
        for suite in SUITES {
            for u in WorkloadSet::new(suite, Scale::Test).units {
                for p in &u.programs {
                    assert!(p.validate().is_ok(), "{} invalid", u.name);
                    assert!(!p.is_empty());
                }
            }
        }
    }

    #[test]
    fn workload_sets_unify_single_and_multi_threaded_suites() {
        let s06 = WorkloadSet::new(Suite::Spec2006, Scale::Test);
        assert_eq!(s06.len(), 25);
        assert!(s06.units.iter().all(|u| u.threads() == 1));

        let par = WorkloadSet::new(Suite::Parsec, Scale::Test);
        assert_eq!(par.len(), 7);
        assert!(par.units.iter().all(|u| u.threads() == 4));
        assert_eq!(par.suite.name(), "parsec");
    }

    #[test]
    fn named_filters_in_suite_order() {
        let s = WorkloadSet::named(Suite::Spec2006, Scale::Test, &["hmmer", "gamess"]);
        let names: Vec<&str> = s.units.iter().map(|u| u.name).collect();
        // gamess precedes hmmer in the suite lineup regardless of the
        // filter's order.
        assert_eq!(names, ["gamess", "hmmer"]);
        assert!(WorkloadSet::named(Suite::Spec2006, Scale::Test, &[]).is_empty());
        // A Parsec name asked of SPEC2006 is skipped, not an error.
        let s = WorkloadSet::named(Suite::Spec2006, Scale::Test, &["canneal", "mcf"]);
        let names: Vec<&str> = s.units.iter().map(|u| u.name).collect();
        assert_eq!(names, ["mcf"]);
    }

    #[test]
    fn named_units_equal_full_suite_units() {
        let cases = SUITES
            .map(|s| (s, Scale::Test))
            .into_iter()
            .chain([(Suite::Spec2006, Scale::Bench)]);
        for (suite, scale) in cases {
            let full = WorkloadSet::new(suite, scale);
            let built: Vec<&str> = full.units.iter().map(|u| u.name).collect();
            assert_eq!(suite.unit_names().collect::<Vec<_>>(), built);
            for unit in &full.units {
                let alone = WorkloadSet::named(suite, scale, &[unit.name]);
                assert_eq!(alone.len(), 1);
                assert_eq!(alone.units[0].name, unit.name);
                assert!(
                    alone.units[0].programs == unit.programs,
                    "{}/{}: built alone differs from the full suite",
                    suite.name(),
                    unit.name
                );
            }
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = WorkloadSet::new(Suite::Spec2006, Scale::Test);
        let b = WorkloadSet::new(Suite::Spec2006, Scale::Test);
        for (x, y) in a.units.iter().zip(&b.units) {
            assert_eq!(x.programs, y.programs, "{} must be reproducible", x.name);
        }
    }
}
