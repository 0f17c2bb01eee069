//! Cycle skipping and stage gating against the reference oracle: the
//! production run loop jumps the clock over quiescent cycles (replaying
//! the per-cycle stall counters it elides) and dispatches only the
//! pipeline stages with pending work, while [`Machine::run_reference`]
//! ticks every core on every cycle and runs every stage. The two must
//! agree on the final cycle count, every per-core statistic and every
//! memory counter. Each input is compared once; the suites split the
//! inputs by the shortcut they stress most.
//!
//! [`Machine::run_reference`]: ghostminion_repro::core::Machine::run_reference

mod common;

use common::{assert_matches_reference, random_program, scheme_families};
use ghostminion_repro::core::{Machine, Scheme, SystemConfig};
use ghostminion_repro::sim::STAGE_NAMES;
use ghostminion_repro::workloads::{Scale, Suite, WorkloadSet};
use proptest::prelude::*;

/// Runs the `Scale::Test` SPEC CPU2006 analog `name` through the real
/// Table 1 machine under the five scheme families.
fn spec2006_unit_matches_reference(name: &str) {
    let set = WorkloadSet::named(Suite::Spec2006, Scale::Test, &[name]);
    let unit = set
        .units
        .first()
        .unwrap_or_else(|| panic!("{name} analog exists"));
    for scheme in scheme_families() {
        assert_matches_reference(
            scheme,
            SystemConfig::micro2021(),
            unit.programs.clone(),
            &format!("{name}/{}", scheme.name()),
        );
    }
}

/// Parsec unit 0 under `scheme`: all cores must be quiescent before a
/// cycle is elided, idle accounting is per core, and per-core stage
/// gates must not desynchronise cores that share a memory system.
fn parsec_unit0_matches_reference(scheme: Scheme) {
    let first = Suite::Parsec.unit_names().next().expect("parsec has units");
    let set = WorkloadSet::named(Suite::Parsec, Scale::Test, &[first]);
    let unit = &set.units[0];
    assert!(unit.programs.len() > 1, "parsec units are multi-threaded");
    assert_matches_reference(
        scheme,
        SystemConfig::micro2021(),
        unit.programs.clone(),
        &format!("{}/{}", unit.name, scheme.name()),
    );
}

/// bzip2 across the scheme families with the most different stall
/// behaviour (plain OoO, minion timestamps, commit-time exposure loads,
/// taint gating, §4.9 strict FU scheduling).
#[test]
fn real_workloads_match_lockstep_on_micro2021() {
    spec2006_unit_matches_reference("bzip2");
}

/// mcf, the paper's worst case: a dependent chase over a working set
/// beyond the L2, so cores sit stalled for long stretches in which
/// most stages have no work and most cycles are skipped.
#[test]
fn stage_gating_matches_ungated_and_lockstep_on_real_workloads() {
    spec2006_unit_matches_reference("mcf");
}

/// The gates must actually fire. A predicate that degrades to
/// always-true passes every equivalence check above (it only loses
/// speed), so on bzip2 and mcf every stage must be skipped at least once
/// under each scheme family.
#[test]
fn every_stage_gate_skips_on_real_workloads() {
    let names = ["bzip2", "mcf"];
    let set = WorkloadSet::named(Suite::Spec2006, Scale::Test, &names);
    assert_eq!(set.len(), names.len());
    for unit in &set.units {
        let name = unit.name;
        for scheme in scheme_families() {
            let cfg = SystemConfig::micro2021();
            let mut machine = Machine::new(scheme, cfg, unit.programs.clone());
            machine.run(cfg.max_cycles);
            let (ticks, runs) = machine.core(0).stage_counts();
            for (stage, r) in STAGE_NAMES.iter().zip(runs) {
                assert!(
                    r < ticks,
                    "{name}/{}: the {stage} gate never skipped ({r} runs in {ticks} ticks)",
                    scheme.name()
                );
            }
        }
    }
}

#[test]
fn multicore_parsec_matches_lockstep() {
    parsec_unit0_matches_reference(Scheme::ghost_minion());
}

/// STT's taint delays are settled lazily by the skip path, so they are
/// the stall counters most likely to drift across cores.
#[test]
fn multicore_stage_gating_matches_oracles() {
    parsec_unit0_matches_reference(Scheme::stt_spectre());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for any program, under any scheme family, cycle
    /// skipping never changes `MachineResult.cycles` nor any statistic,
    /// including the stall counters the skip path has to replay
    /// (strict-FU delays) and settles lazily (STT delays).
    #[test]
    fn random_programs_match_lockstep(
        ops in proptest::collection::vec(any::<u8>(), 10..80),
        seeds in proptest::collection::vec(1u64..u64::MAX, 8),
    ) {
        let prog = random_program(&ops, &seeds);
        for scheme in scheme_families() {
            assert_matches_reference(
                scheme,
                SystemConfig::tiny(),
                vec![prog.clone()],
                &format!("random/{}", scheme.name()),
            );
        }
    }

    /// Property: for any program, under any scheme family, running only
    /// the stages whose pending-work predicate holds is unobservable.
    /// The predicates must equal each stage body's own entry
    /// conditions. The property draws its own programs, so it adds 16
    /// inputs to the ones above.
    #[test]
    fn random_programs_gating_is_unobservable(
        ops in proptest::collection::vec(any::<u8>(), 10..80),
        seeds in proptest::collection::vec(1u64..u64::MAX, 8),
    ) {
        let prog = random_program(&ops, &seeds);
        for scheme in scheme_families() {
            assert_matches_reference(
                scheme,
                SystemConfig::tiny(),
                vec![prog.clone()],
                &format!("random/{}", scheme.name()),
            );
        }
    }
}
