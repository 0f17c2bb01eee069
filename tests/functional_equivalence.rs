//! Cross-crate integration: every mitigation scheme must be functionally
//! transparent — same architectural results, different timing only —
//! across the whole workload suite, and random programs.

mod common;

use common::random_program;
use ghostminion_repro::core::{Machine, Scheme, SystemConfig};
use ghostminion_repro::isa::{Program, Reg};
use ghostminion_repro::workloads::{Scale, Suite, WorkloadSet};
use proptest::prelude::*;

fn final_regs(scheme: Scheme, prog: &Program) -> Vec<u64> {
    let mut m = Machine::new(scheme, SystemConfig::tiny(), vec![prog.clone()]);
    m.run(50_000_000);
    (0..32).map(|i| m.core(0).reg(Reg::x(i))).collect()
}

#[test]
fn spec_analogs_agree_across_all_schemes() {
    // Architectural accumulator values must match between the unsafe
    // baseline and every protected scheme.
    let names = ["gamess", "hmmer", "bzip2", "omnetpp"];
    let set = WorkloadSet::named(Suite::Spec2006, Scale::Test, &names);
    assert_eq!(set.len(), names.len());
    for w in &set.units {
        let reference = final_regs(Scheme::unsafe_baseline(), &w.programs[0]);
        for scheme in Scheme::figure_lineup().into_iter().skip(1) {
            assert_eq!(
                final_regs(scheme, &w.programs[0]),
                reference,
                "{} diverges under {}",
                w.name,
                scheme.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs produce identical architectural state under the
    /// unsafe baseline and under GhostMinion: the mitigation never
    /// changes semantics.
    #[test]
    fn random_programs_are_scheme_transparent(
        ops in proptest::collection::vec(any::<u8>(), 10..80),
        seeds in proptest::collection::vec(1u64..u64::MAX, 8),
    ) {
        let prog = random_program(&ops, &seeds);
        let reference = final_regs(Scheme::unsafe_baseline(), &prog);
        for scheme in [
            Scheme::ghost_minion(),
            Scheme::invisispec_future(),
            Scheme::stt_spectre(),
            Scheme::muontrap_flush(),
        ] {
            prop_assert_eq!(
                final_regs(scheme, &prog).clone(),
                reference.clone(),
                "scheme {} diverged", scheme.name()
            );
        }
    }

    /// Under GhostMinion, the Strictness-Order auditor must find no
    /// backwards-in-time flow from squashed to committed instructions,
    /// for any random program.
    #[test]
    fn random_programs_never_violate_strictness_order(
        ops in proptest::collection::vec(any::<u8>(), 10..80),
        seeds in proptest::collection::vec(1u64..u64::MAX, 8),
    ) {
        let prog = random_program(&ops, &seeds);
        let mut m = Machine::new(
            Scheme::ghost_minion(),
            SystemConfig::tiny(),
            vec![prog],
        );
        m.enable_auditor();
        m.run(50_000_000);
        let violations = m.auditor().expect("enabled").violations();
        prop_assert!(violations.is_empty(), "violations: {:?}", violations);
    }
}
