//! The experiment harness behind the `gm-run` driver.
//!
//! The subsystem is layered:
//!
//! * [`experiment`] — each paper figure/table as *data*: an
//!   [`experiment::Experiment`] names a workload suite, a
//!   scheme lineup, a machine configuration and a report rule, and the
//!   [`experiment::registry`] holds all ten of them;
//! * [`runner`] — expands a sweep into independent (workload × scheme)
//!   jobs and executes them on a scoped thread pool with deterministic
//!   result ordering; consults a [`gm_results::ResultStore`] before
//!   simulating (cache-aware re-runs), partitions the job list under
//!   a [`runner::Shard`], and supervises each job (panic isolation,
//!   wall-clock budget, bounded retry — see [`runner::Supervision`]);
//! * [`fault`] — deterministic job-level fault injection
//!   ([`fault::FaultPlan`], `--inject`) driving the supervision tests
//!   and CI smokes;
//! * [`report`] — turns raw [`MachineResult`]s into the figures' tables
//!   and structured JSON (per-job [`gm_results::record`] objects);
//! * [`merge`] — shard documents and the `gm-run merge` recombination,
//!   bit-identical to an unsharded run;
//! * [`telemetry`] — append-only JSON-lines span events (`--telemetry`)
//!   for the run, each experiment, and each job, plus the strict
//!   validator CI runs over emitted streams;
//! * [`cli`] — the `gm-run` front end: one flag table per command, the
//!   parser and help renderer they share, and each command's body.
//!
//! `src/bin/gm_run.rs` is the only binary: `gm-run --filter <name>`
//! reproduces any one registry entry.

pub mod cli;
pub mod experiment;
pub mod fault;
pub mod merge;
pub mod report;
pub mod runner;
pub mod telemetry;

pub use experiment::{Experiment, ExperimentKind, Report, SchemeCol, Sweep};
pub use fault::{FaultKind, FaultPlan};
pub use runner::{CacheStats, FailureKind, Job, JobFailure, Runner, Shard, Supervision, SweepRun};
pub use telemetry::Telemetry;

use ghostminion::{Machine, MachineResult, Scheme, SystemConfig};
use gm_workloads::WorkloadUnit;

/// Runs one workload unit (any thread count) under `scheme`, with the
/// simulation deadline taken from `cfg.max_cycles` — the single knob for
/// deadlock detection.
pub fn run_unit(scheme: Scheme, unit: &WorkloadUnit, cfg: SystemConfig) -> MachineResult {
    let mut m = Machine::new(scheme, cfg, unit.programs.clone());
    m.run(cfg.max_cycles)
}
