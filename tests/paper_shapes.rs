//! Integration tests asserting the paper's headline *shapes* hold on the
//! quick workload scale. Exact magnitudes vary with the substituted
//! substrate (see DESIGN.md); these tests pin the orderings and rough
//! factors that EXPERIMENTS.md reports.

use ghostminion_repro::core::{Machine, Scheme, SystemConfig};
use ghostminion_repro::isa::Program;
use ghostminion_repro::workloads::{Scale, Suite, WorkloadSet};

fn cycles(scheme: Scheme, w: &Program) -> f64 {
    Machine::new(scheme, SystemConfig::micro2021(), vec![w.clone()])
        .run(u64::MAX)
        .cycles as f64
}

fn pick(name: &str) -> Program {
    let set = WorkloadSet::named(Suite::Spec2006, Scale::Test, &[name]);
    assert_eq!(set.len(), 1, "{name} analog exists");
    set.units[0].programs[0].clone()
}

#[test]
fn mcf_is_ghostminions_worst_case() {
    let w = pick("mcf");
    let base = cycles(Scheme::unsafe_baseline(), &w);
    let gm = cycles(Scheme::ghost_minion(), &w) / base;
    assert!(
        (1.15..1.6).contains(&gm),
        "mcf GhostMinion ratio {gm:.3} should be ≈1.3 (paper: ~30%)"
    );
}

#[test]
fn cache_resident_workloads_are_near_free() {
    for name in ["gamess", "hmmer", "tonto"] {
        let w = pick(name);
        let base = cycles(Scheme::unsafe_baseline(), &w);
        let gm = cycles(Scheme::ghost_minion(), &w) / base;
        assert!(gm < 1.06, "{name} GhostMinion ratio {gm:.3} should be ≈1.0");
    }
}

#[test]
fn stt_hurts_pointer_chasing_more_than_ghostminion() {
    // Paper: "many workloads, such as astar, ... omnetpp and xalancbmk,
    // where STT shows large overheads when GhostMinion shows none".
    let w = pick("xalancbmk");
    let base = cycles(Scheme::unsafe_baseline(), &w);
    let gm = cycles(Scheme::ghost_minion(), &w) / base;
    let stt = cycles(Scheme::stt_spectre(), &w) / base;
    assert!(
        stt > gm + 0.03,
        "STT ({stt:.3}) must exceed GhostMinion ({gm:.3}) on pointer chasing"
    );
}

#[test]
fn invisispec_future_is_the_most_expensive_family() {
    let w = pick("milc");
    let base = cycles(Scheme::unsafe_baseline(), &w);
    let gm = cycles(Scheme::ghost_minion(), &w) / base;
    let isf = cycles(Scheme::invisispec_future(), &w) / base;
    assert!(
        isf > gm,
        "InvisiSpec-Future ({isf:.3}) must exceed GhostMinion ({gm:.3})"
    );
}

#[test]
fn timeless_dminion_is_no_slower_than_full_timeguarding() {
    // Fig. 9: TimeGuarding on top of the wiped minion costs ≈0.2%.
    let w = pick("soplex");
    let base = cycles(Scheme::unsafe_baseline(), &w);
    let timeless = cycles(Scheme::dminion_timeless(), &w) / base;
    let dminion = cycles(Scheme::dminion_only(), &w) / base;
    assert!(
        (dminion - timeless).abs() < 0.08,
        "TimeGuarding should cost little: timeless {timeless:.3} vs guarded {dminion:.3}"
    );
}

#[test]
fn small_minions_degrade_gracefully_and_async_reload_recovers() {
    use ghostminion_repro::core::GhostMinionConfig;
    let w = pick("povray");
    let base = cycles(Scheme::unsafe_baseline(), &w);
    let at = |bytes: u64, async_reload: bool| {
        cycles(
            Scheme::ghost_minion_with(GhostMinionConfig {
                minion_bytes: bytes,
                async_reload,
                ..GhostMinionConfig::default()
            }),
            &w,
        ) / base
    };
    let full = at(2048, false);
    let tiny = at(128, false);
    let tiny_async = at(128, true);
    assert!(
        tiny >= full,
        "128B minion ({tiny:.3}) cannot beat 2KiB ({full:.3})"
    );
    assert!(
        tiny_async <= tiny + 0.01,
        "async reload ({tiny_async:.3}) must not exceed plain 128B ({tiny:.3})"
    );
}

#[test]
fn fig10_events_are_rare() {
    // "Backwards-in-time prevention is rarely triggered": < 10% of loads.
    for name in ["soplex", "omnetpp", "mcf"] {
        let w = pick(name);
        let r = Machine::new(
            Scheme::ghost_minion(),
            SystemConfig::micro2021(),
            vec![w.clone()],
        )
        .run(u64::MAX);
        let loads = r.mem_stats.loads.max(1) as f64;
        let events =
            (r.mem_stats.timeguards + r.mem_stats.timeleaps + r.mem_stats.leapfrogs) as f64;
        assert!(
            events / loads < 0.10,
            "{name}: backwards-in-time events {:.3} of loads",
            events / loads
        );
    }
}
