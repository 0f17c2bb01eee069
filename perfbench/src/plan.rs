//! The four workloads and the experiment list a seed turns each into.

use crate::sample::{draw, Sample, SampleSpec, Target};
use gm_bench::experiment::{find, Experiment, ExperimentKind};
use gm_workloads::{Scale, Suite, WorkloadSet};

/// Where a workload's results come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Simulated, with no store.
    Cold,
    /// Replayed from a local store that set-up fills.
    Warm,
    /// Fetched from an in-process result service into an empty local
    /// store.
    Remote,
}

/// The seed used while building the benchmark. Seed 99 is held out for
/// confirming a claimed gain.
pub const DEFAULT_SEED: u64 = 1;

pub struct Workload {
    pub name: &'static str,
    pub mode: Mode,
    pub experiments: &'static [&'static str],
    pub samples: &'static [SampleSpec],
}

/// Every sweep experiment in the registry: the 875-job sweep.
const ALL_SWEEPS: &[&str] = &[
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "power", "fu_order",
];

/// Replays sample cheap units: set-up simulates the sample once per
/// set-up. A replay's pass is dominated by building and fingerprinting
/// program images, so the sample's image size is matched too.
const REPLAY_SAMPLES: &[SampleSpec] = &[
    SampleSpec {
        suite: Suite::Spec2006,
        size: 5,
        max_unit_ms: 200,
        ms: Target::within(350, 0.25),
        kcycles: Target::within(4000, 0.02),
        image_kib: Target::within(4000, 0.05),
    },
    SampleSpec {
        suite: Suite::Parsec,
        size: 2,
        max_unit_ms: 400,
        ms: Target::within(160, 0.6),
        kcycles: Target::within(820, 0.1),
        image_kib: Target::within(6144, 0.05),
    },
    SampleSpec {
        suite: Suite::Spec2017,
        size: 3,
        max_unit_ms: 130,
        ms: Target::within(200, 0.5),
        kcycles: Target::within(1500, 0.03),
        image_kib: Target::within(2000, 0.05),
    },
];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "cold-spec06",
        mode: Mode::Cold,
        experiments: &["fig6"],
        // 6 of 25 units at 6/25 of the suite's cost and cycles.
        samples: &[SampleSpec {
            suite: Suite::Spec2006,
            size: 6,
            max_unit_ms: u64::MAX,
            ms: Target::within(2069, 0.01),
            kcycles: Target::within(11875, 0.01),
            image_kib: Target::ANY,
        }],
    },
    Workload {
        name: "cold-parsec4",
        mode: Mode::Cold,
        experiments: &["fig7"],
        // The whole suite: all seven analogs.
        samples: &[SampleSpec {
            suite: Suite::Parsec,
            size: 7,
            max_unit_ms: u64::MAX,
            ms: Target::ANY,
            kcycles: Target::ANY,
            image_kib: Target::ANY,
        }],
    },
    Workload {
        name: "warm-replay",
        mode: Mode::Warm,
        experiments: ALL_SWEEPS,
        samples: REPLAY_SAMPLES,
    },
    Workload {
        name: "remote-replay",
        mode: Mode::Remote,
        experiments: ALL_SWEEPS,
        samples: REPLAY_SAMPLES,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload made concrete by a seed.
pub struct Plan {
    pub workload: &'static Workload,
    /// Registry experiments, each sweep restricted to its suite's sample.
    pub experiments: Vec<Experiment>,
    pub samples: Vec<Sample>,
    /// Units the suite builds per experiment before the sample filter
    /// applies (`WorkloadSet::new` materialises the whole suite).
    pub suite_units: Vec<(Suite, usize)>,
}

impl Plan {
    pub fn new(workload: &'static Workload, seed: u64) -> Result<Self, String> {
        let mut samples = Vec::new();
        let mut suite_units = Vec::new();
        for spec in workload.samples {
            let units: Vec<(&'static str, u64)> = WorkloadSet::new(spec.suite, Scale::Test)
                .units
                .iter()
                .map(|u| {
                    let bytes: usize = u
                        .programs
                        .iter()
                        .flat_map(|p| &p.data)
                        .map(|seg| seg.bytes.len())
                        .sum();
                    (u.name, bytes as u64 / 1024)
                })
                .collect();
            suite_units.push((spec.suite, units.len()));
            samples.push(draw(spec, &units, seed)?);
        }
        let mut experiments = Vec::new();
        for &name in workload.experiments {
            let mut exp = find(name).ok_or_else(|| format!("{name} is not in the registry"))?;
            let ExperimentKind::Sweep(sweep) = &mut exp.kind else {
                return Err(format!("{name} is not a sweep"));
            };
            let sample = samples
                .iter()
                .find(|s| s.suite == sweep.suite)
                .ok_or_else(|| format!("{name}: no sample for {}", sweep.suite.name()))?;
            sweep.workloads = Some(sample.units.clone());
            experiments.push(exp);
        }
        Ok(Self {
            workload,
            experiments,
            samples,
            suite_units,
        })
    }

    /// Jobs in one pass over the plan.
    pub fn jobs(&self) -> usize {
        self.experiments
            .iter()
            .map(|e| {
                let s = sweep(e);
                s.workloads.as_ref().map_or(0, Vec::len) * s.schemes.len()
            })
            .sum()
    }

    /// Units `WorkloadSet::new` builds in one pass.
    pub fn units_built(&self) -> usize {
        self.experiments
            .iter()
            .map(|e| {
                let suite = sweep(e).suite;
                self.suite_units
                    .iter()
                    .find(|(s, _)| *s == suite)
                    .map_or(0, |(_, n)| *n)
            })
            .sum()
    }
}

/// The sweep of a plan experiment (plans hold sweeps only).
pub fn sweep(exp: &Experiment) -> &gm_bench::Sweep {
    match &exp.kind {
        ExperimentKind::Sweep(s) => s,
        _ => unreachable!("plans hold sweep experiments only"),
    }
}
