//! Trace neutrality: attaching a `TraceSink` must be unobservable in
//! the simulation. A traced run's final cycle count, per-core pipeline
//! statistics, and memory counters must be identical to an untraced
//! run's — the hooks only *read* engine state — while the sinks
//! themselves must demonstrably see the event stream (a vacuously
//! passing oracle proves nothing).
//!
//! Coverage mirrors `tests/cycle_skipping.rs`: real workloads across
//! the five scheme families with the most different stall behaviour, a
//! multi-threaded Parsec unit, and property-tested random programs.

mod common;

use common::{random_program, scheme_families};
use ghostminion_repro::core::{Machine, MachineResult, Scheme, SystemConfig};
use ghostminion_repro::isa::Program;
use ghostminion_repro::sim::{TraceEvent, TraceSink};
use ghostminion_repro::trace::{validate_o3, O3PipeViewSink, SummarySink, Tee};
use ghostminion_repro::workloads::{Scale, Suite, WorkloadSet};
use proptest::prelude::*;
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

/// Counts raw events, so every assertion can require the sinks
/// actually observed the run.
#[derive(Default)]
struct CountingSink {
    events: u64,
}

impl TraceSink for CountingSink {
    fn event(&mut self, _cycle: u64, _core: usize, _ev: &TraceEvent) {
        self.events += 1;
    }
}

/// A `Write` over a shared buffer, so the O3 trace text can be read
/// back after the sink (which owns its writer) is done.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One traced run with the full sink stack attached: O3 emission,
/// summary attribution, and an event counter, teed exactly as
/// `gm-run trace --out ... --summary` tees them.
struct TracedRun {
    result: MachineResult,
    events: u64,
    o3_text: String,
    summary: SummarySink,
}

fn run_traced(scheme: Scheme, cfg: SystemConfig, programs: Vec<Program>) -> TracedRun {
    let buf = SharedBuf::default();
    let o3 = Rc::new(RefCell::new(O3PipeViewSink::new(buf.clone())));
    let sum = Rc::new(RefCell::new(SummarySink::new()));
    let count = Rc::new(RefCell::new(CountingSink::default()));
    let tee = Rc::new(RefCell::new(Tee::new(vec![
        o3.clone() as Rc<RefCell<dyn TraceSink>>,
        sum.clone() as Rc<RefCell<dyn TraceSink>>,
        count.clone() as Rc<RefCell<dyn TraceSink>>,
    ])));
    let mut m = Machine::new(scheme, cfg, programs);
    m.set_trace(tee);
    let result = m.run(cfg.max_cycles);
    o3.borrow_mut().finish().expect("in-memory write");
    let events = count.borrow().events;
    let o3_text = String::from_utf8(buf.0.borrow().clone()).expect("trace is UTF-8");
    let summary = sum.borrow().clone();
    TracedRun {
        result,
        events,
        o3_text,
        summary,
    }
}

fn assert_neutral(scheme: Scheme, cfg: SystemConfig, programs: Vec<Program>, label: &str) {
    let untraced = Machine::new(scheme, cfg, programs.clone()).run(cfg.max_cycles);
    let traced = run_traced(scheme, cfg, programs);
    assert_eq!(
        traced.result.cycles, untraced.cycles,
        "{label}: tracing changed the cycle count"
    );
    assert_eq!(
        traced.result.core_stats, untraced.core_stats,
        "{label}: tracing changed per-core stats"
    );
    assert_eq!(
        traced.result.mem_stats, untraced.mem_stats,
        "{label}: tracing changed memory counters"
    );
    // The oracle must not pass vacuously: the sinks saw the run, the
    // emitted trace is well-formed, and its counts reconcile with the
    // engine's own statistics.
    assert!(traced.events > 0, "{label}: no events reached the sinks");
    let committed: u64 = untraced.core_stats.iter().map(|c| c.committed).sum();
    let fetched: u64 = untraced.core_stats.iter().map(|c| c.fetched).sum();
    assert_eq!(
        traced.summary.committed(),
        committed,
        "{label}: summary commit count disagrees with engine stats"
    );
    assert_eq!(
        traced.summary.fetched, fetched,
        "{label}: summary fetch count disagrees with engine stats"
    );
    let report = validate_o3(&traced.o3_text)
        .unwrap_or_else(|e| panic!("{label}: emitted trace fails validation: {e}"));
    assert_eq!(
        report.retired, committed,
        "{label}: trace retire count disagrees with engine stats"
    );
}

/// Real workloads through the real Table 1 machine, across the scheme
/// families with the most different stall behaviour.
#[test]
fn tracing_is_neutral_on_real_workloads() {
    let set = WorkloadSet::named(Suite::Spec2006, Scale::Test, &["bzip2"]);
    let unit = set.units.first().expect("bzip2 analog exists");
    for scheme in scheme_families() {
        assert_neutral(
            scheme,
            SystemConfig::micro2021(),
            unit.programs.clone(),
            &format!("bzip2/{}", scheme.name()),
        );
    }
}

/// Multicore: one shared sink receives events from every core (tagged
/// by core index), and tracing must not perturb the wake-ordered
/// scheduler or the cycle-skip path.
#[test]
fn tracing_is_neutral_on_multicore_parsec() {
    let first = Suite::Parsec.unit_names().next().expect("parsec has units");
    let set = WorkloadSet::named(Suite::Parsec, Scale::Test, &[first]);
    let unit = &set.units[0];
    assert!(unit.programs.len() > 1, "parsec units are multi-threaded");
    for scheme in [Scheme::ghost_minion(), Scheme::stt_spectre()] {
        assert_neutral(
            scheme,
            SystemConfig::micro2021(),
            unit.programs.clone(),
            &format!("{}/{}", unit.name, scheme.name()),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for any program, under any scheme family, attaching
    /// the full sink stack never changes any result field, and the
    /// emitted trace always validates.
    #[test]
    fn random_programs_trace_neutrally(
        ops in proptest::collection::vec(any::<u8>(), 10..80),
        seeds in proptest::collection::vec(1u64..u64::MAX, 8),
    ) {
        let prog = random_program(&ops, &seeds);
        for scheme in scheme_families() {
            let cfg = SystemConfig::tiny();
            let untraced = Machine::new(scheme, cfg, vec![prog.clone()]).run(cfg.max_cycles);
            let traced = run_traced(scheme, cfg, vec![prog.clone()]);
            prop_assert_eq!(traced.result.cycles, untraced.cycles,
                "cycles diverge under {}", scheme.name());
            prop_assert_eq!(&traced.result.core_stats, &untraced.core_stats,
                "stats diverge under {}", scheme.name());
            prop_assert_eq!(&traced.result.mem_stats, &untraced.mem_stats,
                "mem counters diverge under {}", scheme.name());
            prop_assert!(traced.events > 0, "no events under {}", scheme.name());
            prop_assert!(validate_o3(&traced.o3_text).is_ok(),
                "trace fails validation under {}", scheme.name());
        }
    }
}
