//! Experiments as data: the declarative description of every paper
//! figure and table, plus the registry `gm-run` selects from.

use ghostminion::{GhostMinionConfig, Scheme, SystemConfig};
use gm_workloads::{Scale, Suite, UnitCache, WorkloadSet};

/// One column of a sweep: a scheme and the label it carries in the
/// figure (usually the scheme name, but e.g. Fig. 11 labels columns by
/// minion size).
#[derive(Clone, Debug)]
pub struct SchemeCol {
    pub label: String,
    pub scheme: Scheme,
}

impl SchemeCol {
    /// A column with an explicit label.
    pub fn new(label: impl Into<String>, scheme: Scheme) -> Self {
        Self {
            label: label.into(),
            scheme,
        }
    }

    /// A column labelled with the scheme's legend name.
    pub fn named(scheme: Scheme) -> Self {
        Self::new(scheme.name(), scheme)
    }
}

/// How a sweep's raw results become the figure's table.
#[derive(Clone, Copy, Debug)]
pub enum Report {
    /// One column per non-baseline scheme with `cycles / baseline
    /// cycles`, plus a geomean row — Figures 6–9 and 11. The first
    /// scheme in the lineup is the baseline and gets no column.
    NormalizedTime,
    /// One column per listed memory-system counter, each reported as a
    /// fraction of the `denom` counter — Figure 10. Single-scheme
    /// lineups only.
    LoadFractions {
        denom: &'static str,
        events: &'static [&'static str],
    },
    /// §6.5 dynamic µW of the data- and instruction-side minions.
    /// Single-scheme lineups only.
    DynamicPower,
    /// §4.9: `strict cycles / greedy cycles` plus the strict-delay
    /// counter. The lineup must be exactly [greedy, strict].
    StrictFu,
}

/// A (workload × scheme) sweep: the shape of every simulation-driven
/// experiment.
#[derive(Clone, Debug)]
pub struct Sweep {
    pub suite: Suite,
    /// Restricts the suite to these workload names (`None` = all).
    pub workloads: Option<Vec<&'static str>>,
    pub schemes: Vec<SchemeCol>,
    pub report: Report,
    pub config: SystemConfig,
}

impl Sweep {
    /// Materialises the workload axis at `scale`, building only the
    /// units the sweep lists.
    pub fn workload_set(&self, scale: Scale) -> WorkloadSet {
        self.workload_set_from(&mut UnitCache::default(), scale)
    }

    /// The workload axis at `scale`, taken from `units`: only the listed
    /// units the cache lacks are built.
    pub fn workload_set_from(&self, units: &mut UnitCache, scale: Scale) -> WorkloadSet {
        units.workload_set(self.suite, scale, &self.unit_names())
    }

    /// The workload axis's names in suite order, without building it.
    pub fn unit_names(&self) -> Vec<&'static str> {
        self.suite
            .unit_names()
            .filter(|n| self.workloads.as_ref().map_or(true, |w| w.contains(n)))
            .collect()
    }
}

/// What kind of work an experiment performs.
#[derive(Clone, Debug)]
pub enum ExperimentKind {
    /// Simulation sweep over (workload × scheme) jobs. Boxed: a `Sweep`
    /// (scheme lineup + full `SystemConfig`) dwarfs the other variants.
    Sweep(Box<Sweep>),
    /// The security litmus matrix: every attack against every scheme.
    Security,
    /// The Table 1 configuration dump (no simulation).
    Table1,
}

/// A registered experiment: a paper figure or table as data.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Registry key (`fig6` … `table1`); `gm-run --filter <name>`
    /// selects exactly this experiment.
    pub name: &'static str,
    /// Report heading, matching the paper's figure caption.
    pub title: &'static str,
    pub kind: ExperimentKind,
}

fn sweep(suite: Suite, schemes: Vec<SchemeCol>, report: Report) -> ExperimentKind {
    ExperimentKind::Sweep(Box::new(Sweep {
        suite,
        workloads: None,
        schemes,
        report,
        config: SystemConfig::micro2021(),
    }))
}

fn figure_lineup() -> Vec<SchemeCol> {
    Scheme::figure_lineup()
        .into_iter()
        .map(SchemeCol::named)
        .collect()
}

/// Fig. 11's minion-size axis.
pub const FIG11_SIZES: [u64; 6] = [4096, 2048, 1024, 512, 256, 128];

fn fig11_lineup() -> Vec<SchemeCol> {
    let mut cols = vec![SchemeCol::named(Scheme::unsafe_baseline())];
    for bytes in FIG11_SIZES {
        let s = Scheme::ghost_minion_with(GhostMinionConfig {
            minion_bytes: bytes,
            ..GhostMinionConfig::default()
        });
        cols.push(SchemeCol::new(format!("{bytes}B"), s));
    }
    // §6.4 asynchronous reload at the smallest size ("geo. async." in
    // the paper, a full column here).
    let s = Scheme::ghost_minion_with(GhostMinionConfig {
        minion_bytes: 128,
        async_reload: true,
        ..GhostMinionConfig::default()
    });
    cols.push(SchemeCol::new("128B+async", s));
    cols
}

fn fu_order_lineup() -> Vec<SchemeCol> {
    let mut strict = Scheme::ghost_minion();
    strict.strict_fu_order = true;
    vec![
        SchemeCol::new("greedy", Scheme::ghost_minion()),
        SchemeCol::new("strict", strict),
    ]
}

/// All ten experiments, in paper order. `gm-run` and the benches
/// resolve their work from this list.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "fig6",
            title: "Figure 6: SPEC CPU2006 normalised execution time",
            kind: sweep(Suite::Spec2006, figure_lineup(), Report::NormalizedTime),
        },
        // Paper shape: GhostMinion ≈ 0% overhead; InvisiSpec the worst (up to ≈2.4×).
        Experiment {
            name: "fig7",
            title: "Figure 7: Parsec (4 threads) normalised execution time",
            kind: sweep(Suite::Parsec, figure_lineup(), Report::NormalizedTime),
        },
        // Paper shape: GhostMinion ≈ 0.6% geomean; mcf and wrf keep visible overhead.
        Experiment {
            name: "fig8",
            title: "Figure 8: SPECspeed 2017 normalised execution time",
            kind: sweep(Suite::Spec2017, figure_lineup(), Report::NormalizedTime),
        },
        // Paper shape: the D-minion and coherence dominate; the I-minion costs ≈ 0.
        Experiment {
            name: "fig9",
            title: "Figure 9: GhostMinion overhead breakdown",
            kind: sweep(
                Suite::Spec2006,
                std::iter::once(SchemeCol::named(Scheme::unsafe_baseline()))
                    .chain(Scheme::breakdown_lineup().into_iter().map(SchemeCol::named))
                    .collect(),
                Report::NormalizedTime,
            ),
        },
        Experiment {
            name: "fig10",
            title: "Figure 10: proportion of loads triggering backwards-in-time prevention",
            kind: sweep(
                Suite::Spec2006,
                vec![SchemeCol::named(Scheme::ghost_minion())],
                Report::LoadFractions {
                    denom: "loads",
                    events: &["timeguards", "timeleaps", "leapfrogs"],
                },
            ),
        },
        Experiment {
            name: "fig11",
            title: "Figure 11: GhostMinion sizing sensitivity",
            kind: sweep(Suite::Spec2006, fig11_lineup(), Report::NormalizedTime),
        },
        Experiment {
            name: "table1",
            title: "Table 1: system experimental setup",
            kind: ExperimentKind::Table1,
        },
        // Paper shape: ≤ 3 µW data-side, ≤ 1 µW instruction-side dynamic draw.
        Experiment {
            name: "power",
            title: "GhostMinion dynamic power across SPEC CPU2006 (§6.5)",
            kind: sweep(
                Suite::Spec2006,
                vec![SchemeCol::named(Scheme::ghost_minion())],
                Report::DynamicPower,
            ),
        },
        // Expected: Unsafe leaks everything; MuonTrap leaks classic Spectre;
        // GhostMinion leaks the divider channel until §4.9 FU ordering closes it.
        Experiment {
            name: "security",
            title: "Security litmus tests",
            kind: ExperimentKind::Security,
        },
        // Paper shape: no slowdown above ≈ 0.08%; a small geomean speedup.
        Experiment {
            name: "fu_order",
            title: "\u{a7}4.9: strictness-ordered non-pipelined FU scheduling vs greedy",
            kind: sweep(Suite::Spec2006, fu_order_lineup(), Report::StrictFu),
        },
    ]
}

/// Looks up one experiment by exact name.
pub fn find(name: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.name == name)
}

/// Restricts every selected sweep to the workloads in `names`
/// (intersected with any existing `Sweep::workloads` filter, suite
/// order preserved). Errors — reported with usage and exit 2 by the CLI
/// — if a name matches no selected sweep's suite, or if no selected
/// experiment sweeps workloads at all.
pub fn apply_workload_filter(
    experiments: &mut [Experiment],
    names: &[String],
) -> Result<(), String> {
    let mut known: Vec<&'static str> = Vec::new();
    for e in experiments.iter() {
        if let ExperimentKind::Sweep(s) = &e.kind {
            known.extend(s.suite.unit_names());
        }
    }
    if known.is_empty() {
        return Err("--workloads: no selected experiment sweeps workloads".into());
    }
    for n in names {
        if !known.contains(&n.as_str()) {
            return Err(format!(
                "unknown workload {n:?} for the selected experiments"
            ));
        }
    }
    for e in experiments.iter_mut() {
        if let ExperimentKind::Sweep(s) = &mut e.kind {
            let keep = s
                .unit_names()
                .into_iter()
                .filter(|n| names.iter().any(|m| m == n))
                .collect();
            s.workloads = Some(keep);
        }
    }
    Ok(())
}

/// All experiments whose name contains `pattern`.
pub fn matching(pattern: &str) -> Vec<Experiment> {
    registry()
        .into_iter()
        .filter(|e| e.name.contains(pattern))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_holds_all_ten_figures_with_unique_names() {
        let reg = registry();
        assert_eq!(reg.len(), 10);
        let mut names: Vec<&str> = reg.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "duplicate experiment names");
        for expect in [
            "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table1", "power", "security",
            "fu_order",
        ] {
            assert!(find(expect).is_some(), "{expect} missing from registry");
        }
    }

    #[test]
    fn matching_selects_by_substring() {
        let names: Vec<&str> = matching("fig1").iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 2); // fig10, fig11
        assert!(names.contains(&"fig10") && names.contains(&"fig11"));
        assert!(matching("nope").is_empty());
        assert_eq!(matching("").len(), 10);
    }

    #[test]
    fn every_name_selects_exactly_itself() {
        for e in registry() {
            let names: Vec<&str> = matching(e.name).iter().map(|m| m.name).collect();
            assert_eq!(names, [e.name], "gm-run --filter {} is ambiguous", e.name);
        }
    }

    #[test]
    fn sweeps_have_baselines_where_normalized() {
        for e in registry() {
            if let ExperimentKind::Sweep(s) = &e.kind {
                match s.report {
                    Report::NormalizedTime => {
                        assert!(s.schemes.len() >= 2, "{}: need baseline + columns", e.name);
                        assert_eq!(s.schemes[0].label, "Unsafe", "{}: baseline first", e.name);
                    }
                    Report::LoadFractions { .. } | Report::DynamicPower => {
                        assert_eq!(s.schemes.len(), 1, "{}: single scheme", e.name);
                    }
                    Report::StrictFu => assert_eq!(s.schemes.len(), 2, "{}", e.name),
                }
            }
        }
    }

    #[test]
    fn load_fraction_reports_name_real_counters() {
        let mut checked = 0;
        for e in registry() {
            let ExperimentKind::Sweep(s) = &e.kind else {
                continue;
            };
            if let Report::LoadFractions { denom, events } = s.report {
                for name in std::iter::once(&denom).chain(events) {
                    assert!(
                        ghostminion::MemStats::NAMES.contains(name),
                        "{}: {name:?} is not a memory-system counter",
                        e.name
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 4, "fig10 reads loads and three event counters");
    }

    #[test]
    fn fig11_columns_cover_all_sizes_plus_async() {
        let e = find("fig11").unwrap();
        let ExperimentKind::Sweep(s) = e.kind else {
            panic!("fig11 is a sweep")
        };
        assert_eq!(s.schemes.len(), 1 + FIG11_SIZES.len() + 1);
        assert_eq!(s.schemes.last().unwrap().label, "128B+async");
    }
}
