//! Cycle skipping against the reference oracle: the production run loop
//! jumps the clock over quiescent cycles (replaying the per-cycle stall
//! counters it elides), while [`Machine::run_reference`] ticks every
//! core on every cycle. The two must agree on the final cycle count,
//! every per-core statistic and every memory counter. Each input is
//! compared once; the suites split the inputs by the shortcut they
//! stress most.
//!
//! [`Machine::run_reference`]: ghostminion_repro::core::Machine::run_reference

mod common;

use common::{assert_matches_reference, random_program, scheme_families};
use ghostminion_repro::core::{Machine, Scheme, SystemConfig};
use ghostminion_repro::sim::{CoreStats, TraceEvent, TraceSink};
use ghostminion_repro::workloads::{Scale, Suite, WorkloadSet};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

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

/// Parsec unit 0 under `scheme`: a cycle is elided only when no core is
/// due, idle accounting is per core, and per-core wake cycles must not
/// desynchronise cores that share a memory system.
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
/// most stages find no work and most cycles are skipped. (The name
/// predates the removal of per-stage gating; every tick now runs every
/// stage, as the oracle's does.)
#[test]
fn stage_gating_matches_ungated_and_lockstep_on_real_workloads() {
    spec2006_unit_matches_reference("mcf");
}

/// Cycle skipping must actually fire. A `next_wake` that degrades to
/// `now + 1` passes every equivalence check above (it only loses
/// speed), so on bzip2 and mcf core 0 must tick fewer times than the
/// cycles it runs under each scheme family.
#[test]
fn run_skips_quiescent_cycles_on_real_workloads() {
    let names = ["bzip2", "mcf"];
    let set = WorkloadSet::named(Suite::Spec2006, Scale::Test, &names);
    assert_eq!(set.len(), names.len());
    for unit in &set.units {
        let name = unit.name;
        for scheme in scheme_families() {
            let cfg = SystemConfig::micro2021();
            let mut machine = Machine::new(scheme, cfg, unit.programs.clone());
            let result = machine.run(cfg.max_cycles);
            let ticks = machine.core(0).ticks();
            assert!(
                ticks < result.cycles,
                "{name}/{}: no cycle skipped ({ticks} ticks over {} cycles)",
                scheme.name(),
                result.cycles
            );
        }
    }
}

/// Counts the loads the LSQ blocked on an older store.
#[derive(Default)]
struct BlockCounter(u64);

impl TraceSink for BlockCounter {
    fn event(&mut self, _cycle: u64, _core: usize, ev: &TraceEvent) {
        if matches!(ev, TraceEvent::MemBlock { .. }) {
            self.0 += 1;
        }
    }
}

/// The LSQ send stage walks a list of candidate loads that each
/// transition must keep exact, while the reference scans the whole LQ.
/// These inputs drive every way a load joins or leaves that list
/// through the oracle, and the counters prove each one happened:
/// calculix forwards from and blocks on older stores, namd retries
/// against a full MSHR file and (under GhostMinion) replays after
/// leapfrog cancellations, and gcc parks and unparks STT loads.
#[test]
fn oracle_covers_every_send_list_transition() {
    let inputs = [
        ("calculix", Scheme::unsafe_baseline()),
        ("namd", Scheme::ghost_minion()),
        ("gcc", Scheme::stt_spectre()),
    ];
    let mut totals = CoreStats::default();
    let mut blocks = 0;
    for (name, scheme) in inputs {
        let set = WorkloadSet::named(Suite::Spec2006, Scale::Test, &[name]);
        let programs = set.units[0].programs.clone();
        let cfg = SystemConfig::micro2021();
        let label = format!("{name}/{}", scheme.name());
        let result = assert_matches_reference(scheme, cfg, programs.clone(), &label);
        for s in &result.core_stats {
            totals.load_retries += s.load_retries;
            totals.load_forwards += s.load_forwards;
            totals.load_replays += s.load_replays;
            totals.stt_delays += s.stt_delays;
        }
        let counter = Rc::new(RefCell::new(BlockCounter::default()));
        let mut traced = Machine::new(scheme, cfg, programs);
        traced.set_trace(counter.clone());
        traced.run(cfg.max_cycles);
        blocks += counter.borrow().0;
    }
    assert!(totals.load_retries > 0, "no MSHR-full retry");
    assert!(totals.load_forwards > 0, "no store-to-load forward");
    assert!(totals.load_replays > 0, "no leapfrog replay");
    assert!(totals.stt_delays > 0, "no STT park/unpark");
    assert!(blocks > 0, "no store-blocked load");
}

#[test]
fn multicore_parsec_matches_lockstep() {
    parsec_unit0_matches_reference(Scheme::ghost_minion());
}

/// STT's taint delays are settled lazily by the skip path, so they are
/// the stall counters most likely to drift across cores. (The name
/// predates the removal of per-stage gating; every tick now runs every
/// stage, as the oracle's does.)
#[test]
fn multicore_stage_gating_matches_oracles() {
    parsec_unit0_matches_reference(Scheme::stt_spectre());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: for any program, under any scheme family, cycle
    /// skipping is not observable. It must change neither
    /// `MachineResult.cycles` nor any statistic, including the stall
    /// counters the skip path has to replay (strict-FU delays) and
    /// settles lazily (STT delays).
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
}
