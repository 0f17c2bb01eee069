//! Event-driven issue against the reference oracle: the production issue
//! stage feeds a maintained ready set from per-physical-register wakeup
//! lists, while [`Machine::run_reference`] scans the whole IQ every
//! cycle. The two must agree on the final cycle count, every per-core
//! statistic (including the §4.9 `strict_fu_delays` the scan counts on
//! *waiting* non-pipelined entries) and every memory counter. Each input
//! is compared once; `cycle_skipping.rs` holds the inputs that stress
//! the run loop's other shortcuts.
//!
//! [`Machine::run_reference`]: ghostminion_repro::core::Machine::run_reference

mod common;

use common::{assert_matches_reference, random_program, scheme_families};
use ghostminion_repro::core::{Scheme, SystemConfig};
use ghostminion_repro::isa::{Asm, Reg};
use ghostminion_repro::workloads::{Scale, Suite, WorkloadSet};
use proptest::prelude::*;

/// povray, divide- and sqrt-dense: non-pipelined FU occupancy and §4.9
/// strict FU scheduling, whose blocked-entry accounting is the subtlest
/// part of the scan to reproduce, across the five scheme families.
#[test]
fn real_workloads_match_linear_scan_on_micro2021() {
    let set = WorkloadSet::named(Suite::Spec2006, Scale::Test, &["povray"]);
    let unit = set.units.first().expect("povray analog exists");
    for scheme in scheme_families() {
        assert_matches_reference(
            scheme,
            SystemConfig::micro2021(),
            unit.programs.clone(),
            &format!("povray/{}", scheme.name()),
        );
    }
}

/// Wakeup lists are per core and must stay exact under cross-core
/// leapfrog cancellations. Parsec unit 1, so the inputs do not overlap
/// with `cycle_skipping.rs`'s unit 0.
#[test]
fn multicore_parsec_matches_linear_scan() {
    let second = Suite::Parsec
        .unit_names()
        .nth(1)
        .expect("parsec has two units");
    let set = WorkloadSet::named(Suite::Parsec, Scale::Test, &[second]);
    let unit = &set.units[0];
    assert!(unit.programs.len() > 1, "parsec units are multi-threaded");
    assert_matches_reference(
        Scheme::ghost_minion(),
        SystemConfig::micro2021(),
        unit.programs.clone(),
        &format!("{}/GhostMinion", unit.name),
    );
}

/// Squash recovery: a tight mispredicting loop with dependent divides
/// exercises wakeup-list cleanup (unrenamed registers, truncated ready
/// and non-pipelined lists) thousands of times.
#[test]
fn squash_heavy_loop_matches_linear_scan() {
    let mut a = Asm::new("squashy");
    let (i, n, v) = (Reg::x(1), Reg::x(2), Reg::x(3));
    a.li(i, 0);
    a.li(n, 400);
    let top = a.here();
    a.andi(v, i, 3);
    let skip = a.label();
    a.bne(v, Reg::ZERO, skip); // data-dependent, frequently mispredicted
    a.div(Reg::x(4), n, Reg::x(5)); // wrong-path divides wait in the IQ
    a.mul(Reg::x(5), Reg::x(4), v);
    a.bind(skip);
    a.addi(i, i, 1);
    a.bne(i, n, top);
    a.halt();
    let prog = a.assemble();
    let [unsafe_baseline, .., strict] = scheme_families();
    for scheme in [unsafe_baseline, strict] {
        assert_matches_reference(
            scheme,
            SystemConfig::tiny(),
            vec![prog.clone()],
            &format!("squashy/{}", scheme.name()),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for any program, under any scheme family, wakeup-list
    /// issue never changes `MachineResult.cycles` nor any statistic,
    /// including §4.9 strict FU ordering, whose per-cycle strict-delay
    /// counters depend on *waiting* non-pipelined IQ entries the ready
    /// set alone would not visit.
    #[test]
    fn random_programs_match_linear_scan(
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
