//! The `gm-run` front end: one declarative flag table per command (the
//! experiment driver itself, `merge`, `bench`, `store` and `trace`), the
//! single parser and help renderer they share, and each command's body.
//!
//! Parsing is strict: unknown flags, unknown workload names, and
//! malformed values print usage and exit 2 instead of being silently
//! ignored.
//!
//! Stream discipline: stdout carries only the report (tables, CSV,
//! postambles) so it is byte-comparable across runs; everything
//! operational — cache hit/miss summaries, per-experiment timing,
//! store compaction notes, "wrote file" confirmations — goes to stderr.

use crate::experiment::{self, apply_workload_filter, Experiment, ExperimentKind};
use crate::fault::FaultPlan;
use crate::merge;
use crate::report::{experiment_json, report_text, run_experiment};
use crate::runner::{CacheStats, JobFailure, Runner, Shard, Supervision};
use crate::telemetry::{self, Telemetry};
use gm_results::{RemoteStore, ResultStore};
use gm_stats::Json;
use gm_workloads::{Scale, UnitCache, WorkloadSet};
use std::sync::Arc;
use std::time::Duration;

/// Process exit codes, shared by every `gm-run` entry point (and by
/// `gm-serve`, whose codes are documented to match). Centralised so the
/// meanings cannot drift between subcommands.
pub mod exit {
    /// Full success.
    pub const OK: i32 = 0;
    /// Hard failure: unreadable input, I/O error, failed check.
    pub const FAILURE: i32 = 1;
    /// Usage error: unknown flag, malformed value, inconsistent
    /// combination.
    pub const USAGE: i32 = 2;
    /// Partial success: the sweep completed but some job(s) exhausted
    /// supervision (their grid cells are annotated in the report).
    pub const PARTIAL: i32 = 3;
}

/// One row of a command's flag table.
struct Flag {
    name: &'static str,
    /// Placeholder for the flag's value; `None` for a switch.
    value: Option<&'static str>,
    /// Help text; each `\n` starts an aligned continuation line.
    help: &'static str,
}

const fn flag(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: Some(value),
        help,
    }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: None,
        help,
    }
}

/// One command: how it is invoked, what it does, and every flag it
/// accepts. [`Command::parse`] and [`Command::help`] both read this
/// table, so a flag cannot be parsed without being documented.
struct Command {
    /// Program name in messages and usage lines, e.g. `gm-run bench`.
    name: &'static str,
    /// Usage forms, each printed after `name`.
    synopsis: &'static [&'static str],
    about: &'static str,
    /// Most positional arguments the command takes (`usize::MAX`: any).
    positionals: usize,
    flags: &'static [Flag],
    subcommands: &'static [&'static Command],
    run: fn(Args),
}

/// A command line split against a [`Command`]'s flag table.
struct Args {
    /// Flags in the order given, with their values (`None` for switches).
    flags: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
    help: bool,
}

#[rustfmt::skip]
const SCALE: Flag = flag("--scale", "<test|bench|full>", "workload scale (default: test)");
#[rustfmt::skip]
const JOBS: Flag = flag("--jobs", "<N>", "worker threads (default: available parallelism)");
#[rustfmt::skip]
const WORKLOADS: Flag = flag("--workloads", "<a,b,...>", "restrict sweeps to the named workloads");
#[rustfmt::skip]
const FILTER: Flag = flag("--filter", "<SUBSTR>", "run only experiments whose name contains SUBSTR");

const EXIT_CODES: &str = "exit codes:\n\
     \x20 0  success\n\
     \x20 1  hard failure (unreadable input, I/O error, failed check)\n\
     \x20 2  usage error\n\
     \x20 3  partial success (sweep completed, some jobs failed supervision)\n";

#[rustfmt::skip]
static MAIN: Command = Command {
    name: "gm-run",
    synopsis: &["[options]"],
    about: "Reproduces the paper's figures and tables from the experiment registry:\n\
            every experiment, or those --filter selects. `gm-run <command> --help`\n\
            describes each command.",
    positionals: 0,
    flags: &[
        SCALE,
        JOBS,
        flag("--json", "<PATH>", "write structured results to PATH"),
        WORKLOADS,
        flag("--store", "<DIR>", "result store: reuse cached job results, append new ones"),
        switch("--expect-cached", "with --store: fail if any job had to be simulated\n\
                                   (misses caused by store damage warn instead)"),
        switch("--store-sync", "with --store: fsync every appended record"),
        flag("--remote", "<ADDR>", "with --store: fetch/push job results through the\n\
                                    gm-serve result service at ADDR; an unreachable or\n\
                                    failing service degrades to local simulation"),
        flag("--telemetry", "<FILE>", "append JSON-lines run/experiment/job span events to FILE"),
        flag("--retries", "<N>", "extra attempts per failed job (default: 1)"),
        flag("--budget", "<SECS>", "per-job wall-clock budget; over-budget jobs fail"),
        switch("--strict", "exit 1 if any job failed (default: finish the sweep,\n\
                            annotate the report, exit 3)"),
        flag("--inject", "<SPEC>", "deterministic fault injection, e.g.\n\
                                    panic:mcf/GhostMinion@1 (tests and CI smokes)"),
        switch("--list", "list registered experiments and exit"),
        FILTER,
        flag("--shard", "<K/N>", "run the Kth of N job partitions (requires --json;\n\
                                  recombine with gm-run merge)"),
    ],
    subcommands: &[&MERGE, &BENCH, &STORE, &TRACE],
    run: run_main,
};

impl Command {
    /// Splits `args` against the flag table. Unknown flags, a value flag
    /// given no value, and surplus positionals are errors; `-h`/`--help`
    /// anywhere asks for help.
    fn parse(&self, args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            positionals: Vec::new(),
            help: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "-h" || arg == "--help" {
                parsed.help = true;
            } else if let Some(flag) = self.flags.iter().find(|f| f.name == arg) {
                let value = flag
                    .value
                    .map(|_| {
                        it.next()
                            .cloned()
                            .ok_or_else(|| format!("{arg} requires a value"))
                    })
                    .transpose()?;
                parsed.flags.push((flag.name, value));
            } else if arg.starts_with('-') {
                return Err(format!("unknown argument {arg:?}"));
            } else if parsed.positionals.len() == self.positionals {
                return Err(format!("unexpected argument {arg:?}"));
            } else {
                parsed.positionals.push(arg.clone());
            }
        }
        Ok(parsed)
    }

    /// The `--help` text: usage forms (the driver's include its
    /// subcommands'), the about text, the flag table, the exit codes.
    fn help(&self) -> String {
        let mut s = String::new();
        let forms = std::iter::once(self)
            .chain(self.subcommands.iter().copied())
            .flat_map(|c| {
                c.synopsis
                    .iter()
                    .map(move |form| format!("{} {form}", c.name))
            });
        for (i, form) in forms.enumerate() {
            s.push_str(if i == 0 { "usage: " } else { "       " });
            s.push_str(&form);
            s.push('\n');
        }
        s.push_str(&format!("\n{}\n\noptions:\n", self.about));
        let rows: Vec<(String, &str)> = self
            .flags
            .iter()
            .map(|f| match f.value {
                Some(v) => (format!("{} {v}", f.name), f.help),
                None => (f.name.to_owned(), f.help),
            })
            .chain(std::iter::once(("-h, --help".to_owned(), "show this help")))
            .collect();
        let width = rows.iter().map(|(label, _)| label.len()).max().unwrap_or(0) + 2;
        for (label, help) in &rows {
            for (i, line) in help.lines().enumerate() {
                let label = if i == 0 { label.as_str() } else { "" };
                s.push_str(&format!("  {label:width$}{line}\n"));
            }
        }
        s.push('\n');
        s.push_str(EXIT_CODES);
        s
    }

    /// Parses `args`, printing help (exit 0) or a usage error (exit 2)
    /// when that is all there is to do.
    fn parse_or_exit(&self, args: &[String]) -> Args {
        match self.parse(args) {
            Ok(parsed) if parsed.help => {
                print!("{}", self.help());
                std::process::exit(exit::OK);
            }
            Ok(parsed) => parsed,
            Err(e) => usage_exit(self, &e),
        }
    }

    /// The value of a typed conversion or cross-flag check, or a usage
    /// error naming this command.
    fn or_usage<T>(&self, result: Result<T, String>) -> T {
        result.unwrap_or_else(|e| usage_exit(self, &e))
    }
}

/// Prints `message` and the command's help to stderr and exits 2.
fn usage_exit(cmd: &Command, message: &str) -> ! {
    eprint!("{}: {message}\n\n{}", cmd.name, cmd.help());
    std::process::exit(exit::USAGE);
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value given with `flag`; the last one wins on repeats.
    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn owned(&self, flag: &str) -> Option<String> {
        self.get(flag).map(str::to_owned)
    }

    /// `flag`'s value through `convert`; a value it rejects is reported
    /// as `invalid <flag> "<value>" (expected <expected>)`.
    fn typed<T>(
        &self,
        flag: &str,
        expected: &str,
        convert: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| {
                convert(v).ok_or_else(|| format!("invalid {flag} {v:?} (expected {expected})"))
            })
            .transpose()
    }

    fn scale(&self) -> Result<Scale, String> {
        Ok(self
            .typed("--scale", "test|bench|full", Scale::from_name)?
            .unwrap_or(Scale::Test))
    }

    /// `--jobs`; 0 (the default) means available parallelism.
    fn jobs(&self) -> Result<usize, String> {
        Ok(self
            .typed("--jobs", "a positive integer", |v| {
                v.parse::<usize>().ok().filter(|&n| n > 0)
            })?
            .unwrap_or(0))
    }

    fn workloads(&self) -> Result<Option<Vec<String>>, String> {
        self.typed("--workloads", "a comma-separated name list", |v| {
            let names: Vec<String> = v.split(',').map(str::to_owned).collect();
            (!names.iter().any(String::is_empty)).then_some(names)
        })
    }
}

/// `main` body of the `gm-run` binary: dispatches to a subcommand, or
/// runs the experiment driver itself.
pub fn gm_run_main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first() {
        // Anything positional that is not a known subcommand is a typo
        // (`gm-run benhc`).
        Some(word) if !word.starts_with('-') => {
            let sub = MAIN
                .subcommands
                .iter()
                .find(|c| c.name.strip_prefix("gm-run ") == Some(word.as_str()))
                .unwrap_or_else(|| usage_exit(&MAIN, &format!("unknown subcommand {word:?}")));
            (*sub, &args[1..])
        }
        _ => (&MAIN, &args[..]),
    };
    (cmd.run)(cmd.parse_or_exit(rest));
}

/// The driver's options, after typed conversion and cross-flag checks.
#[derive(Debug)]
struct Options {
    scale: Scale,
    /// Worker threads; 0 = available parallelism.
    jobs: usize,
    /// Write structured results to this path.
    json: Option<String>,
    /// Restrict sweeps to these workload names.
    workloads: Option<Vec<String>>,
    /// Result-store directory for cache-aware re-runs.
    store: Option<String>,
    /// With `store`: exit non-zero if any job was simulated (cache miss).
    expect_cached: bool,
    /// Run only this partition of the job list, writing a shard document.
    shard: Option<Shard>,
    /// Append JSON-lines span telemetry to this path (see
    /// [`crate::telemetry`]).
    telemetry: Option<String>,
    /// Extra attempts per failed job (`--retries`); `None` keeps the
    /// [`Supervision`] default of one retry.
    retries: Option<u32>,
    /// Per-job wall-clock budget in seconds (`--budget`).
    budget: Option<u64>,
    /// Fail the whole run (exit 1) if any supervised job failed, instead
    /// of reporting partial success (exit 3).
    strict: bool,
    /// Deterministic fault injection (`--inject`, parsed eagerly so a
    /// typo fails before hours of simulation).
    inject: Option<FaultPlan>,
    /// With `--store`: fsync every appended record (crash durability).
    store_sync: bool,
    /// Fetch/push job results through a `gm-serve` result service at
    /// this address (requires `--store`).
    remote: Option<String>,
    /// List registered experiments instead of running.
    list: bool,
    /// Substring filter selecting experiments to run.
    filter: Option<String>,
}

/// Converts the driver's flags and rejects malformed values and
/// inconsistent combinations.
fn options(a: &Args) -> Result<Options, String> {
    let opts = Options {
        scale: a.scale()?,
        jobs: a.jobs()?,
        json: a.owned("--json"),
        workloads: a.workloads()?,
        store: a.owned("--store"),
        expect_cached: a.has("--expect-cached"),
        shard: a.get("--shard").map(Shard::parse).transpose()?,
        telemetry: a.owned("--telemetry"),
        retries: a.typed("--retries", "a non-negative integer", |v| v.parse().ok())?,
        budget: a.typed("--budget", "seconds, a positive integer", |v| {
            v.parse::<u64>().ok().filter(|&n| n > 0)
        })?,
        strict: a.has("--strict"),
        inject: a.get("--inject").map(FaultPlan::parse).transpose()?,
        store_sync: a.has("--store-sync"),
        remote: a.owned("--remote"),
        list: a.has("--list"),
        filter: a.owned("--filter"),
    };
    if opts.expect_cached && opts.store.is_none() {
        return Err("--expect-cached requires --store".into());
    }
    if opts.store_sync && opts.store.is_none() {
        return Err("--store-sync requires --store".into());
    }
    if opts.remote.is_some() && opts.store.is_none() {
        return Err("--remote requires --store (remote hits land in the local store)".into());
    }
    if opts.shard.is_some() && opts.json.is_none() && !opts.list {
        return Err("--shard requires --json (the shard document is the run's output)".into());
    }
    // Mirrors the bench `--check`/`--json` collision guard: the
    // telemetry stream appending over the results document would corrupt
    // both outputs.
    if opts.telemetry.is_some() && opts.telemetry == opts.json {
        return Err(format!(
            "--telemetry and --json name the same file ({}); the telemetry \
             stream would clobber the results document",
            opts.telemetry.as_deref().unwrap_or("")
        ));
    }
    Ok(opts)
}

/// The experiment driver: `--list`, or run the selected experiments.
fn run_main(a: Args) {
    let opts = MAIN.or_usage(options(&a));
    if opts.list {
        // --list respects --filter, so a filter can be previewed
        // without running it.
        let mut t = gm_stats::Table::new(vec!["experiment".into(), "title".into()]);
        for e in experiment::matching(opts.filter.as_deref().unwrap_or("")) {
            t.row(vec![e.name.to_owned(), e.title.to_owned()]);
        }
        print!("{}", t.render());
        return;
    }
    let selected = select(&MAIN, opts.filter.as_deref(), opts.workloads.as_deref());
    run_and_emit(MAIN.name, &selected, &opts);
}

/// The experiments a command line selects: those `filter` matches,
/// restricted to `workloads`, minus the sweeps that restriction emptied
/// (a name can be valid for one suite and absent from another, e.g.
/// `mcf` exists in SPEC2006 but not Parsec). Each dropped sweep is
/// noted on stderr rather than printed as a header-only table. An empty
/// match is a failure; an unknown workload is a usage error.
fn select(cmd: &Command, filter: Option<&str>, workloads: Option<&[String]>) -> Vec<Experiment> {
    let mut selected = experiment::matching(filter.unwrap_or(""));
    if selected.is_empty() {
        fail(
            cmd.name,
            &format!(
                "no experiment matches {:?} (try gm-run --list)",
                filter.unwrap_or("")
            ),
        );
    }
    if let Some(names) = workloads {
        cmd.or_usage(apply_workload_filter(&mut selected, names));
        selected.retain(|e| {
            let emptied = matches!(&e.kind,
                ExperimentKind::Sweep(s) if s.workloads.as_deref() == Some(&[]));
            if emptied {
                eprintln!(
                    "{}: {}: no selected workload is in this suite, skipping",
                    cmd.name, e.name
                );
            }
            !emptied
        });
    }
    selected
}

fn fail(program: &str, message: &str) -> ! {
    eprintln!("{program}: {message}");
    std::process::exit(exit::FAILURE);
}

/// Opens the store named by `--store`, if any, applying `--store-sync`.
fn open_store(program: &str, opts: &Options) -> Option<ResultStore> {
    opts.store.as_ref().map(|dir| {
        let mut store = ResultStore::open(dir)
            .unwrap_or_else(|e| fail(program, &format!("cannot open store {dir:?}: {e}")));
        store.set_sync(opts.store_sync);
        store
    })
}

/// Builds the job runner from `--jobs` plus the supervision flags.
fn build_runner(opts: &Options) -> Runner {
    let defaults = Supervision::default();
    let mut runner = Runner::new(opts.jobs).with_supervision(Supervision {
        attempts: opts
            .retries
            .map_or(defaults.attempts, |r| r.saturating_add(1)),
        budget: opts.budget.map(Duration::from_secs),
        strict: opts.strict,
    });
    if let Some(plan) = &opts.inject {
        runner = runner.with_faults(plan.clone());
    }
    if let Some(addr) = &opts.remote {
        let mut remote = RemoteStore::new(addr.clone());
        if let Some(dir) = &opts.store {
            // Garbage the remote sends lands next to the local store's
            // own quarantine sidecars, where `gm-run store` reports it.
            remote = remote.with_quarantine(std::path::Path::new(dir).join("remote.quarantine"));
        }
        runner = runner.with_remote(Arc::new(remote));
    }
    runner
}

/// Partial-success exit: the sweep finished, every completed job landed
/// in the store/report, but `failed` jobs exhausted supervision. Exit 3
/// distinguishes this from full success (0) and hard failure (1).
fn exit_partial(program: &str, failed: usize) {
    if failed > 0 {
        eprintln!(
            "{program}: partial success: {failed} job(s) failed permanently \
             (see the 'job failed' lines); exiting 3"
        );
        std::process::exit(exit::PARTIAL);
    }
}

/// Writes the combined JSON document if `--json` was given.
fn write_json(program: &str, path: Option<&str>, doc: &Json) {
    if let Some(path) = path {
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            fail(program, &format!("cannot write {path:?}: {e}"));
        }
        eprintln!("wrote {path}");
    }
}

/// Compacts one experiment's store file, reporting to stderr only when
/// something was actually dropped. Shared by post-run compaction and
/// `gm-run store --compact` so the report/warning policy cannot drift.
fn compact_one(program: &str, store: &ResultStore, experiment: &str) {
    match store.compact(experiment) {
        Ok(stats) if stats.superseded > 0 || stats.corrupt > 0 => eprintln!(
            "{program}: store: compacted {experiment}: kept {}, dropped {} superseded and {} corrupt line(s)",
            stats.kept, stats.superseded, stats.corrupt
        ),
        Ok(_) => {}
        Err(e) => eprintln!("warning: store compaction for {experiment} failed: {e}"),
    }
}

/// Enforces `--expect-cached` after a run.
fn enforce_expect_cached(program: &str, opts: &Options, misses: usize, corrupt: usize) {
    if !opts.expect_cached || misses == 0 {
        return;
    }
    if corrupt > 0 {
        // The misses are explained by store damage: the affected jobs
        // were re-simulated (and re-appended), which is the graceful
        // degradation `--expect-cached` should report, not abort on.
        eprintln!(
            "{program}: warning: --expect-cached: {misses} job(s) re-simulated because the \
             store was damaged ({corrupt} quarantined line(s)/read error(s)); continuing"
        );
        return;
    }
    fail(
        program,
        &format!("--expect-cached: {misses} job(s) had to be simulated (cache miss)"),
    );
}

fn seconds(us: u64) -> f64 {
    us as f64 / 1e6
}

/// Simulated megacycles per wall-clock second — the engine-throughput
/// telemetry every sweep reports and `gm-run bench` snapshots.
fn mcycles_per_s(sim_cycles: u64, sim_wall_us: u64) -> f64 {
    if sim_wall_us == 0 {
        0.0
    } else {
        sim_cycles as f64 / sim_wall_us as f64
    }
}

/// Opens the telemetry stream named by `--telemetry` (if any) and
/// emits its `run_start` event.
fn open_telemetry(program: &str, opts: &Options) -> Option<Telemetry> {
    opts.telemetry.as_ref().map(|path| {
        let tel = Telemetry::create(path).unwrap_or_else(|e| fail(program, &e));
        tel.emit("run_start", |j| {
            j.set("program", program).set("scale", opts.scale.name());
            if let Some(shard) = opts.shard {
                j.set("shard", shard.to_string());
            }
        });
        tel
    })
}

/// Emits `run_end`, flushes the telemetry stream, and confirms the
/// write on stderr (stdout stays byte-comparable).
fn close_telemetry(
    program: &str,
    opts: &Options,
    telemetry: Option<Telemetry>,
    experiments: usize,
) {
    let Some(tel) = telemetry else { return };
    tel.emit("run_end", |j| {
        j.set("experiments", experiments);
    });
    if let Err(e) = tel.finish() {
        fail(program, &e);
    }
    eprintln!(
        "{program}: wrote telemetry to {}",
        opts.telemetry.as_deref().unwrap_or("")
    );
}

/// What one sweep's stderr summary line reports.
struct SweepTally {
    cache: CacheStats,
    sim_wall_us: u64,
    sim_cycles: u64,
    slowest: Option<(String, u64)>,
    failures: Vec<JobFailure>,
}

/// Runs `experiments` over the `--shard` partition, or over
/// `Shard::full()` without one. A whole run prints each report and
/// writes the combined results document. A `--shard` run cannot render
/// normalised tables — the baseline job may live on another machine —
/// so it writes only its shard document for `gm-run merge`; non-sweep
/// experiments run on shard 1 only.
fn run_and_emit(program: &str, experiments: &[Experiment], opts: &Options) {
    let shard = opts.shard.unwrap_or_else(Shard::full);
    let scope = opts.shard.map_or(String::new(), |s| format!("shard {s}: "));
    let store = open_store(program, opts);
    let telemetry = open_telemetry(program, opts);
    let runner = build_runner(opts);
    let mut entries = Vec::new();
    let (mut misses, mut corrupt, mut failed, mut ran) = (0usize, 0usize, 0usize, 0usize);
    for exp in experiments {
        let sweep = match &exp.kind {
            ExperimentKind::Sweep(sweep) => Some(sweep),
            _ if shard.index() != 1 => {
                eprintln!(
                    "{program}: {scope}{}: non-sweep experiments run on shard 1, skipping",
                    exp.name
                );
                continue;
            }
            _ => None,
        };
        let tally = match (opts.shard, sweep) {
            // The shard document needs the raw job grid, which
            // `run_experiment` does not return; bracket the sweep with
            // the same telemetry span `run_experiment` emits.
            (Some(_), Some(sweep)) => {
                let tel = telemetry.as_ref();
                if let Some(tel) = tel {
                    tel.emit("experiment_start", |j| {
                        j.set("experiment", exp.name);
                    });
                }
                let run = runner
                    .run_sweep_shard(sweep, opts.scale, exp.name, store.as_ref(), shard, tel)
                    .unwrap_or_else(|e| fail(program, &format!("{}: {e}", exp.name)));
                if let Some(tel) = tel {
                    tel.emit("experiment_end", |j| {
                        j.set("experiment", exp.name)
                            .set("jobs", run.owned_jobs())
                            .set("hits", run.cache.hits)
                            .set("misses", run.cache.misses)
                            .set("sim_wall_us", run.sim_wall_us());
                        if !run.failures.is_empty() {
                            j.set("failed", run.failures.len() as u64);
                        }
                    });
                }
                entries.push(merge::shard_entry(exp, opts.scale, &run, sweep));
                SweepTally {
                    cache: run.cache,
                    sim_wall_us: run.sim_wall_us(),
                    sim_cycles: run.sim_cycles(),
                    slowest: run.slowest_sim(sweep),
                    failures: run.failures,
                }
            }
            _ => {
                let out =
                    run_experiment(&runner, exp, opts.scale, store.as_ref(), telemetry.as_ref())
                        .unwrap_or_else(|e| fail(program, &format!("{}: {e}", exp.name)));
                if opts.shard.is_some() {
                    entries.push(merge::shard_nonsweep_entry(exp, opts.scale, &out));
                } else {
                    print!("{}", report_text(exp.title, &out));
                    if opts.json.is_some() {
                        entries.push(experiment_json(exp, opts.scale, &out));
                    }
                }
                SweepTally {
                    cache: out.cache,
                    sim_wall_us: out.sim_wall_us,
                    sim_cycles: out.sim_cycles,
                    slowest: out.slowest,
                    failures: out.failures,
                }
            }
        };
        ran += 1;
        if sweep.is_some() {
            eprintln!("{}", summary_line(program, &scope, exp.name, opts, &tally));
        }
        misses += tally.cache.misses;
        corrupt += tally.cache.corrupt;
        failed += tally.failures.len();
    }
    let doc = match opts.shard {
        Some(shard) => merge::shard_doc(program, opts.scale, shard, entries),
        None => {
            let mut doc = Json::object();
            doc.set("generator", program)
                .set("scale", opts.scale.name())
                .set("experiments", Json::Array(entries));
            doc
        }
    };
    write_json(program, opts.json.as_deref(), &doc);
    close_telemetry(program, opts, telemetry, ran);
    if let Some(store) = &store {
        for exp in experiments {
            if matches!(exp.kind, ExperimentKind::Sweep(_)) {
                compact_one(program, store, exp.name);
            }
        }
    }
    enforce_expect_cached(program, opts, misses, corrupt);
    exit_partial(program, failed);
}

/// The stderr summary of one sweep (`scope` names the shard, if any),
/// preceded by one line per failed job.
fn summary_line(
    program: &str,
    scope: &str,
    name: &str,
    opts: &Options,
    tally: &SweepTally,
) -> String {
    let mut text = String::new();
    for f in &tally.failures {
        text.push_str(&format!("{program}: {scope}job failed: {f}\n"));
    }
    let cache = &tally.cache;
    text.push_str(&format!(
        "{program}: {scope}{name}: {} job(s), {} cached, {} simulated in {:.2}s",
        cache.hits + cache.misses,
        cache.hits,
        cache.misses,
        seconds(tally.sim_wall_us),
    ));
    if cache.misses > 0 {
        text.push_str(&format!(
            " at {:.1} Mcycles/s",
            mcycles_per_s(tally.sim_cycles, tally.sim_wall_us)
        ));
    }
    if opts.remote.is_some() {
        text.push_str(&format!(
            ", remote: {} fetched, {} pushed",
            cache.remote_hits, cache.remote_pushes
        ));
    }
    if let Some((label, us)) = &tally.slowest {
        text.push_str(&format!(" (slowest {label} {:.2}s)", seconds(*us)));
    }
    if !tally.failures.is_empty() {
        text.push_str(&format!(", {} FAILED", tally.failures.len()));
    }
    text
}

#[rustfmt::skip]
static TRACE: Command = Command {
    name: "gm-run trace",
    synopsis: &[
        "<EXPERIMENT> [options]",
        "--validate <TRACE.txt>",
        "--validate-telemetry <EVENTS.jsonl>",
    ],
    about: "Runs ONE (workload \u{d7} scheme) job of a sweep experiment with\n\
            per-instruction pipeline tracing attached. With neither --out nor\n\
            --summary, --summary is the default; both may be combined (the run is\n\
            traced once and the stream teed). Tracing never perturbs the\n\
            simulation: a traced run's cycle count and fingerprint are identical\n\
            to an untraced one (tested by tests/trace_neutrality.rs).",
    positionals: 1,
    flags: &[
        flag("--workload", "<NAME>", "the job's workload (default: the first unit)"),
        flag("--scheme", "<LABEL>", "the job's column label or scheme name (default: the first)"),
        SCALE,
        flag("--out", "<FILE>", "stream a gem5 O3PipeView-format text trace to FILE\n\
                                 (loadable in the Konata viewer)"),
        switch("--summary", "print a guest-cycle attribution table: per FU class, the\n\
                             cycles lost to FU waits, STT taint parking, store-forward\n\
                             blocking, and squashed work"),
        flag("--validate", "<TRACE.txt>", "check a written trace with the strict in-repo parser;\n\
                                           exit 1 on any malformation (the CI smoke gate)"),
        flag("--validate-telemetry", "<EVENTS.jsonl>", "check a --telemetry stream the same way"),
    ],
    subcommands: &[],
    run: trace_main,
};

/// Whether a `gm-run trace` command line validates files
/// (`--validate`/`--validate-telemetry`) rather than tracing a job.
/// Validation reads files and runs nothing, so an experiment or any
/// flag that shapes a job is a usage error there rather than silently
/// ignored.
fn trace_validation(a: &Args) -> Result<bool, String> {
    if !a.has("--validate") && !a.has("--validate-telemetry") {
        return Ok(false);
    }
    let extra = a.positionals.first().map(|p| format!("{p:?}")).or_else(|| {
        ["--workload", "--scheme", "--scale", "--out", "--summary"]
            .into_iter()
            .find(|f| a.has(f))
            .map(str::to_owned)
    });
    match extra {
        None => Ok(true),
        Some(x) => Err(format!(
            "--validate modes take only a file argument, not {x}"
        )),
    }
}

/// `gm-run trace`: one traced (workload × scheme) job, or validation of
/// previously emitted trace/telemetry files.
fn trace_main(a: Args) {
    use gm_sim::TraceSink;
    use gm_trace::{validate_o3, O3PipeViewSink, SummarySink, Tee};
    use std::cell::RefCell;
    use std::rc::Rc;

    let program = TRACE.name;
    let scale = TRACE.or_usage(a.scale());
    let experiment_name = a.positionals.first();
    let out = a.get("--out");
    let summary = a.has("--summary");
    if TRACE.or_usage(trace_validation(&a)) {
        if let Some(path) = a.get("--validate") {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(program, &format!("cannot read {path:?}: {e}")));
            let r = validate_o3(&text)
                .unwrap_or_else(|e| fail(program, &format!("{path}: invalid trace: {e}")));
            eprintln!(
                "{program}: {path}: valid O3PipeView trace: {} instruction(s), \
                 {} retired, {} squashed",
                r.instructions, r.retired, r.squashed
            );
        }
        if let Some(path) = a.get("--validate-telemetry") {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(program, &format!("cannot read {path:?}: {e}")));
            let s = telemetry::validate(&text)
                .unwrap_or_else(|e| fail(program, &format!("{path}: invalid telemetry: {e}")));
            let mut line = format!(
                "{program}: {path}: valid telemetry stream: {} event(s), \
                 {} experiment(s), {} job(s)",
                s.events, s.experiments, s.jobs
            );
            if s.failed > 0 || s.retries > 0 {
                line.push_str(&format!(", {} failed, {} retried", s.failed, s.retries));
            }
            eprintln!("{line}");
        }
        return;
    }
    let Some(exp_name) = experiment_name else {
        usage_exit(&TRACE, "trace needs an experiment");
    };
    let exp = experiment::find(exp_name).unwrap_or_else(|| {
        fail(
            program,
            &format!("unknown experiment {exp_name:?} (try gm-run --list)"),
        )
    });
    let ExperimentKind::Sweep(sweep) = &exp.kind else {
        fail(program, &format!("{exp_name} is not a sweep experiment"));
    };
    let names = sweep.unit_names();
    let name = match a.get("--workload") {
        Some(name) => *names.iter().find(|n| **n == name).unwrap_or_else(|| {
            fail(
                program,
                &format!("{exp_name} has no workload {name:?} (choose from {names:?})"),
            )
        }),
        None => names[0],
    };
    let set = WorkloadSet::named(sweep.suite, scale, &[name]);
    let unit = &set.units[0];
    let col = match a.get("--scheme") {
        Some(label) => sweep
            .schemes
            .iter()
            .find(|c| c.label == label || c.scheme.name() == label)
            .unwrap_or_else(|| {
                let labels: Vec<&str> = sweep.schemes.iter().map(|c| c.label.as_str()).collect();
                fail(
                    program,
                    &format!("{exp_name} has no scheme {label:?} (choose from {labels:?})"),
                )
            }),
        None => &sweep.schemes[0],
    };
    // With no --out, the summary is the only output worth running for.
    let summary = summary || out.is_none();
    let o3 = out.map(|path| {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(program, &format!("cannot create {path:?}: {e}")));
        Rc::new(RefCell::new(O3PipeViewSink::new(std::io::BufWriter::new(
            file,
        ))))
    });
    let sum = summary.then(|| Rc::new(RefCell::new(SummarySink::new())));
    let mut fan: Vec<Rc<RefCell<dyn TraceSink>>> = Vec::new();
    if let Some(s) = &o3 {
        fan.push(s.clone() as Rc<RefCell<dyn TraceSink>>);
    }
    if let Some(s) = &sum {
        fan.push(s.clone() as Rc<RefCell<dyn TraceSink>>);
    }
    let sink: Rc<RefCell<dyn TraceSink>> = if fan.len() == 1 {
        fan.pop().expect("one sink")
    } else {
        Rc::new(RefCell::new(Tee::new(fan)))
    };
    let mut machine = ghostminion::Machine::new(col.scheme, sweep.config, unit.programs.clone());
    machine.set_trace(sink);
    let result = machine.run(sweep.config.max_cycles);
    let committed: u64 = result.core_stats.iter().map(|c| c.committed).sum();
    eprintln!(
        "{program}: {exp_name} {}/{} at {} scale: {} cycles, {} committed instruction(s)",
        unit.name,
        col.label,
        scale.name(),
        result.cycles,
        committed
    );
    let cores = result.core_stats.len();
    let ticks: u64 = (0..cores).map(|i| machine.core(i).ticks()).sum();
    let cycles = result.cycles * cores as u64;
    eprintln!(
        "{program}: cycle skipping: {ticks} ticks over {cycles} cycles ({} skipped)",
        cycles - ticks
    );
    if let Some(o3) = &o3 {
        if let Err(e) = o3.borrow_mut().finish() {
            fail(program, &format!("cannot write trace: {e}"));
        }
        eprintln!("{program}: wrote {}", out.unwrap_or(""));
    }
    if let Some(sum) = &sum {
        print!("{}", sum.borrow().render(result.cycles));
    }
}

#[rustfmt::skip]
static BENCH: Command = Command {
    name: "gm-run bench",
    synopsis: &["[options]"],
    about: "Runs every selected sweep experiment cold (no result store), measures\n\
            total simulation wall-clock and simulated-cycles-per-second engine\n\
            throughput, and writes the snapshot, stamped with the rustc version and\n\
            host triple that produced it. Re-run after engine changes to extend the\n\
            repo's perf trajectory; see README \"Performance\". Compare runs from\n\
            the same runner class: absolute throughput is machine-specific.",
    positionals: 0,
    flags: &[
        SCALE,
        JOBS,
        FILTER,
        WORKLOADS,
        flag("--json", "<PATH>", "write the snapshot to PATH (default: BENCH_engine.json,\n\
                                  or BENCH_fresh.json with --check)"),
        flag("--check", "<BASELINE.json>", "exit 1 if any experiment's (or the total) Mcycles/s,\n\
                                            normalised by the calibration probe, fell more than\n\
                                            25% below the baseline's (the CI perf gate); a\n\
                                            rustc/host mismatch warns. Not with --workloads"),
    ],
    subcommands: &[],
    run: bench_main,
};

/// `gm-run bench`'s baseline (`--check`) and snapshot path. With
/// `--check`, the snapshot defaults to BENCH_fresh.json so the default
/// output can never be the baseline under comparison; an explicit
/// collision is rejected — otherwise a regressed run would overwrite
/// the baseline before failing, and the re-run would pass. A
/// `--workloads` subset is rejected too: its rates are not comparable
/// to a baseline's whole-suite rates.
fn bench_outputs(a: &Args) -> Result<(Option<String>, String), String> {
    let check = a.owned("--check");
    if check.is_some() && a.has("--workloads") {
        return Err("--check compares whole-suite rates and cannot take --workloads".into());
    }
    let snapshot = a.owned("--json").unwrap_or_else(|| {
        if check.is_some() {
            "BENCH_fresh.json".to_owned()
        } else {
            "BENCH_engine.json".to_owned()
        }
    });
    if check.as_deref() == Some(snapshot.as_str()) {
        return Err(format!(
            "--json and --check name the same file ({snapshot}); writing the fresh \
             snapshot there would clobber the baseline before it is checked"
        ));
    }
    Ok((check, snapshot))
}

/// Maximum tolerated fractional `mcycles_per_s` drop per experiment
/// before `gm-run bench --check` fails.
const BENCH_REGRESSION_FRACTION: f64 = 0.25;

/// Working-set words of the calibration kernel (8 MiB — larger than any
/// LLC slice CI runners have, so DRAM speed is part of the score, as it
/// is for the simulator's own footprints).
const CALIB_WORDS: usize = 1 << 20;
/// Passes over the working set per probe (~100 ms on a laptop-class core).
const CALIB_PASSES: usize = 24;

/// One run of the fixed host-speed probe: a data-dependent
/// multiply-mix walk over an 8 MiB buffer. The mix of cache-missing
/// loads, dependent arithmetic, and unpredictable addresses tracks the
/// same machine resources the simulator is bound by, so frequency
/// scaling, thermal throttling, and runner-class differences move this
/// score and the engine's Mcycles/s together. The kernel is **frozen**:
/// it must never share code with (or be tuned alongside) the simulator,
/// or engine regressions would divide themselves out of the
/// [normalised check](bench_check).
///
/// Returns the score in Mops (walk steps per microsecond).
fn calibration_probe() -> f64 {
    use std::hint::black_box;
    let mut buf: Vec<u64> = (0..CALIB_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mask = (CALIB_WORDS - 1) as u64;
    let mut idx = 0u64;
    let mut acc = 0u64;
    let start = std::time::Instant::now();
    for pass in 0..CALIB_PASSES as u64 {
        for i in 0..CALIB_WORDS as u64 {
            let v = buf[(idx & mask) as usize];
            acc = acc
                .wrapping_add(v ^ i)
                .rotate_left(7)
                .wrapping_mul(0x2545_f491_4f6c_dd1d);
            // The next address depends on the loaded value: the walk is
            // unprefetchable, like a simulator chasing queue entries.
            idx = v.wrapping_add(acc).wrapping_add(pass);
            buf[(i & mask) as usize] = acc;
        }
    }
    let us = start.elapsed().as_micros().max(1) as f64;
    black_box(acc);
    black_box(&buf);
    (CALIB_WORDS * CALIB_PASSES) as f64 / us
}

/// The calibration score attached to a bench snapshot: the mean of one
/// probe before and one after the sweep, so a machine that throttles
/// *during* the minutes-long run is scored at roughly the speed the
/// sweep actually saw.
fn calibration_entry(before_mops: f64, after_mops: f64) -> Json {
    let mut j = Json::object();
    j.set("kernel", "mixwalk-8MiB-v1")
        .set("before_mops", format!("{before_mops:.2}"))
        .set("after_mops", format!("{after_mops:.2}"))
        .set("mops", format!("{:.2}", (before_mops + after_mops) / 2.0));
    j
}

/// A snapshot's calibration score in Mops, if it carries one (snapshots
/// from before the calibration loop existed do not).
fn bench_calibration(doc: &Json) -> Option<f64> {
    doc.get("calibration")?
        .get("mops")
        .and_then(Json::as_str)
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|m| *m > 0.0)
}

/// Outcome of comparing a fresh bench snapshot against a baseline.
struct BenchCheck {
    /// One human-readable comparison line per checked experiment.
    report: Vec<String>,
    /// The subset that regressed beyond the threshold.
    regressions: Vec<String>,
}

/// Extracts `(name, mcycles_per_s)` rows — every experiment entry plus
/// the `total` — from a `gm-run bench` snapshot document.
fn bench_rates(doc: &Json, label: &str) -> Result<Vec<(String, f64)>, String> {
    let rate = |name: &str, e: &Json| -> Result<(String, f64), String> {
        let r = e
            .get("mcycles_per_s")
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("{label}: {name} has no numeric mcycles_per_s"))?;
        Ok((name.to_owned(), r))
    };
    let mut rows = Vec::new();
    for e in doc
        .get("experiments")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{label}: no experiments array (not a bench snapshot?)"))?
    {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{label}: experiment entry without a name"))?;
        rows.push(rate(name, e)?);
    }
    let total = doc
        .get("total")
        .ok_or_else(|| format!("{label}: no total entry"))?;
    rows.push(rate("total", total)?);
    Ok(rows)
}

/// Compares a fresh snapshot against a committed baseline: every
/// baseline experiment also present in the fresh run (a `--filter`ed
/// check legitimately covers a subset) must hold at least
/// `1 - BENCH_REGRESSION_FRACTION` of its baseline throughput.
///
/// When both snapshots carry a [calibration score](calibration_probe),
/// throughputs are compared *normalised* (Mcycles per calibration Mop
/// rather than per wall-second): a slower CI runner class, a thermally
/// throttled machine, or a shared-tenancy neighbour slows the fresh
/// run's sweep and its probes alike, so the ratio cancels the machine
/// and keeps only the engine. Engine changes cannot hide there — the
/// probe is frozen and independent of simulator code. Old baselines
/// without a score fall back to the raw comparison.
fn bench_check(fresh: &Json, baseline: &Json) -> Result<BenchCheck, String> {
    let fresh_rates = bench_rates(fresh, "fresh run")?;
    let base_rates = bench_rates(baseline, "baseline")?;
    // normalised_ratio = (now/fresh_mops) / (base/base_mops)
    //                  = (now/base) * machine_factor
    let machine_factor = match (bench_calibration(fresh), bench_calibration(baseline)) {
        (Some(f), Some(b)) => Some(b / f),
        _ => None,
    };
    let mut report = Vec::new();
    let mut regressions = Vec::new();
    let mut matched = 0usize;
    // Provenance check: throughput snapshots are only directly
    // comparable when compiler and machine match. Calibration absorbs
    // *speed* differences, not codegen differences, so mismatches warn
    // (they don't fail — CI runners legitimately roll toolchains).
    for key in ["rustc", "host"] {
        let f = fresh.get(key).and_then(Json::as_str);
        let b = baseline.get(key).and_then(Json::as_str);
        if let (Some(f), Some(b)) = (f, b) {
            if f != b {
                report.push(format!(
                    "warning: {key} differs (baseline {b:?}, fresh {f:?}); \
                     the comparison crosses toolchains/machines and is only \
                     indicative"
                ));
            }
        }
    }
    if let Some(mf) = machine_factor {
        report.push(format!(
            "calibration: baseline/fresh machine speed {mf:.2}x \
             (throughput ratios are calibration-normalised)"
        ));
    }
    // A filtered run's total only covers the selected experiments and is
    // not comparable to the full baseline total.
    let all_present = base_rates
        .iter()
        .filter(|(n, _)| n != "total")
        .all(|(n, _)| fresh_rates.iter().any(|(f, _)| f == n));
    for (name, base) in &base_rates {
        if name == "total" && !all_present {
            continue;
        }
        let Some((_, now)) = fresh_rates.iter().find(|(n, _)| n == name) else {
            continue; // not selected in this run
        };
        let ratio = if *base > 0.0 {
            now / base * machine_factor.unwrap_or(1.0)
        } else {
            f64::INFINITY
        };
        let norm = if machine_factor.is_some() {
            " normalised"
        } else {
            ""
        };
        let mut line = format!("{name}: {base:.1} -> {now:.1} Mcycles/s ({ratio:.2}x{norm})");
        if ratio < 1.0 - BENCH_REGRESSION_FRACTION {
            line.push_str(" REGRESSION");
            regressions.push(line.clone());
        }
        report.push(line);
        matched += 1;
    }
    if matched == 0 {
        return Err("no baseline experiment matches the fresh run".into());
    }
    Ok(BenchCheck {
        report,
        regressions,
    })
}

/// `gm-run bench`: cold perf snapshot of the simulation engine, with an
/// optional `--check` regression gate against a committed baseline.
fn bench_main(a: Args) {
    let program = BENCH.name;
    let scale = BENCH.or_usage(a.scale());
    let jobs = BENCH.or_usage(a.jobs());
    let workloads = BENCH.or_usage(a.workloads());
    let (check, snapshot_path) = BENCH.or_usage(bench_outputs(&a));
    // Read the baseline before the (minutes-long) bench run, so a bad
    // path fails fast.
    let baseline = check.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(program, &format!("cannot read baseline {path:?}: {e}")));
        Json::parse(&text)
            .unwrap_or_else(|e| fail(program, &format!("cannot parse baseline {path:?}: {e}")))
    });
    let selected: Vec<Experiment> = select(&BENCH, a.get("--filter"), workloads.as_deref())
        .into_iter()
        .filter(|e| matches!(e.kind, ExperimentKind::Sweep(_)))
        .collect();
    if selected.is_empty() {
        fail(program, "no sweep experiment selected (try --filter fig6)");
    }
    let runner = Runner::new(jobs);
    let calib_before = calibration_probe();
    eprintln!("{program}: calibration {calib_before:.2} Mops");
    let mut table = gm_stats::Table::new(vec![
        "experiment".into(),
        "jobs".into(),
        "sim_wall_s".into(),
        "Mcycles/s".into(),
    ]);
    let mut entries = Vec::new();
    let (mut total_jobs, mut total_cycles, mut total_wall) = (0u64, 0u64, 0u64);
    for exp in &selected {
        let out = run_experiment(&runner, exp, scale, None, None)
            .unwrap_or_else(|e| fail(program, &format!("{}: {e}", exp.name)));
        let jobs = (out.cache.hits + out.cache.misses) as u64;
        total_jobs += jobs;
        total_cycles += out.sim_cycles;
        total_wall += out.sim_wall_us;
        table.row(vec![
            exp.name.to_owned(),
            jobs.to_string(),
            format!("{:.2}", seconds(out.sim_wall_us)),
            format!("{:.1}", mcycles_per_s(out.sim_cycles, out.sim_wall_us)),
        ]);
        let mut j = Json::object();
        j.set("name", exp.name)
            .set("jobs", jobs)
            .set("sim_cycles", out.sim_cycles)
            .set("sim_wall_us", out.sim_wall_us)
            .set(
                "mcycles_per_s",
                format!("{:.1}", mcycles_per_s(out.sim_cycles, out.sim_wall_us)),
            );
        entries.push(j);
    }
    table.row(vec![
        "total".into(),
        total_jobs.to_string(),
        format!("{:.2}", seconds(total_wall)),
        format!("{:.1}", mcycles_per_s(total_cycles, total_wall)),
    ]);
    print!("{}", table.render());
    let mut doc = Json::object();
    let mut total = Json::object();
    total
        .set("jobs", total_jobs)
        .set("sim_cycles", total_cycles)
        .set("sim_wall_us", total_wall)
        .set(
            "mcycles_per_s",
            format!("{:.1}", mcycles_per_s(total_cycles, total_wall)),
        );
    let calib_after = calibration_probe();
    eprintln!("{program}: calibration {calib_after:.2} Mops after sweep");
    doc.set("generator", program)
        .set("scale", scale.name())
        .set("jobs", runner.jobs() as u64)
        // Toolchain/machine provenance: --check warns when a baseline
        // from a different compiler or host is compared.
        .set("rustc", env!("GM_RUSTC_VERSION"))
        .set("host", env!("GM_HOST_TRIPLE"))
        .set("calibration", calibration_entry(calib_before, calib_after))
        .set("experiments", Json::Array(entries))
        .set("total", total);
    write_json(program, Some(&snapshot_path), &doc);
    if let (Some(baseline), Some(check_path)) = (baseline, check) {
        let outcome = bench_check(&doc, &baseline)
            .unwrap_or_else(|e| fail(program, &format!("--check {check_path}: {e}")));
        for line in &outcome.report {
            eprintln!("{program}: check vs {check_path}: {line}");
        }
        if !outcome.regressions.is_empty() {
            fail(
                program,
                &format!(
                    "{} experiment(s) regressed more than {}% vs {check_path}:\n  {}",
                    outcome.regressions.len(),
                    (BENCH_REGRESSION_FRACTION * 100.0) as u32,
                    outcome.regressions.join("\n  ")
                ),
            );
        }
        eprintln!("{program}: check vs {check_path}: OK");
    }
}

#[rustfmt::skip]
static STORE: Command = Command {
    name: "gm-run store",
    synopsis: &["<DIR> [options]"],
    about: "Inspects a result store: per-experiment record counts, the total\n\
            cached simulation wall-clock those records represent (the time a warm\n\
            re-run saves), and the quarantined evidence each experiment carries.\n\
            --compact and --gc never touch .quarantine sidecars.",
    positionals: 1,
    flags: &[
        switch("--compact", "rewrite every store file, dropping superseded and corrupt lines"),
        switch("--gc", "also drop records whose fingerprint no registry experiment\n\
                        produces at any scale; a fully-reclaimed file is removed"),
        switch("--verify", "read-only deep-integrity pass: strict re-parse, checksums,\n\
                            record schemas, and each fingerprint against the job (and\n\
                            its workload and scheme) the registry produces; exit 1 on\n\
                            any finding (lines without a checksum are reported only)"),
        switch("--purge-quarantine", "delete the .quarantine sidecars, reporting what they held"),
    ],
    subcommands: &[],
    run: store_main,
};

/// What the registry says one stored experiment's records must be: every
/// fingerprint it can currently produce, across all scales, mapped to
/// the (workload, scheme label) job producing it — the live set a store
/// garbage collection keeps, and the identity `--verify` cross-checks
/// records against. `None` when the name is not a registered sweep
/// experiment (its records are all stale by definition).
type Identities = Option<std::collections::HashMap<String, (String, String)>>;

/// The [`Identities`] of each of `experiments`, in order. One
/// [`UnitCache`] per scale: each unit is built and hashed once, however
/// many experiments sweep it.
fn registry_identities(experiments: &[String]) -> Vec<Identities> {
    let mut sweeps: Vec<_> = experiments
        .iter()
        .map(|name| match experiment::find(name)?.kind {
            ExperimentKind::Sweep(sweep) => Some((sweep, std::collections::HashMap::new())),
            _ => None, // non-sweep experiments write no records
        })
        .collect();
    for scale in [Scale::Test, Scale::Bench, Scale::Full] {
        let mut units = UnitCache::default();
        for (sweep, map) in sweeps.iter_mut().flatten() {
            for unit in &sweep.workload_set_from(&mut units, scale).units {
                for col in &sweep.schemes {
                    map.insert(
                        gm_results::job_fingerprint(unit, &col.scheme, scale, &sweep.config),
                        (unit.name.to_owned(), col.label.clone()),
                    );
                }
            }
        }
    }
    sweeps.into_iter().map(|s| Some(s?.1)).collect()
}

/// The deep-integrity pass behind `gm-run store --verify`. Returns the
/// number of findings; reporting goes to stderr (there is no stdout
/// contract to protect here, but the policy is uniform).
fn verify_store(
    program: &str,
    store: &ResultStore,
    experiments: &[String],
    identities: &[Identities],
) -> usize {
    use gm_results::{parse_store_line, validate_record, StoreLine};
    let mut findings = 0usize;
    let (mut records, mut checksummed, mut legacy) = (0usize, 0usize, 0usize);
    for (name, identities) in experiments.iter().zip(identities) {
        let path = store.path(name);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{program}: verify: {name}: cannot read {path:?}: {e}");
                findings += 1;
                continue;
            }
        };
        if identities.is_none() {
            eprintln!(
                "{program}: verify: {name}: not a registered sweep experiment \
                 (every record is stale; gm-run store --gc reclaims the file)"
            );
            findings += 1;
        }
        for (i, line) in text.lines().enumerate() {
            let lineno = i + 1;
            let finding = |what: &str| {
                eprintln!("{program}: verify: {name} line {lineno}: {what}");
            };
            match parse_store_line(line) {
                StoreLine::Blank => {}
                StoreLine::Corrupt { reason } => {
                    finding(&reason);
                    findings += 1;
                }
                StoreLine::Record {
                    record,
                    fingerprint,
                    checksummed: has_sum,
                } => {
                    records += 1;
                    if has_sum {
                        checksummed += 1;
                    } else {
                        legacy += 1;
                    }
                    if let Err(e) = validate_record(&record) {
                        finding(&e);
                        findings += 1;
                    }
                    let Some(ids) = identities else { continue };
                    match ids.get(&fingerprint) {
                        None => {
                            finding(&format!(
                                "fingerprint {}... matches no job the current registry \
                                 produces (stale record; --gc reclaims it)",
                                &fingerprint[..16.min(fingerprint.len())]
                            ));
                            findings += 1;
                        }
                        Some((workload, label)) => {
                            let rec_workload = record.get("workload").and_then(Json::as_str);
                            let rec_scheme = record.get("scheme").and_then(Json::as_str);
                            if rec_workload != Some(workload) || rec_scheme != Some(label) {
                                finding(&format!(
                                    "record names {}/{} but its fingerprint belongs to \
                                     {workload}/{label}",
                                    rec_workload.unwrap_or("?"),
                                    rec_scheme.unwrap_or("?")
                                ));
                                findings += 1;
                            }
                        }
                    }
                }
            }
        }
        let qpath = store.quarantine_path(name);
        if let Ok(qtext) = std::fs::read_to_string(&qpath) {
            let n = qtext.lines().filter(|l| !l.trim().is_empty()).count();
            if n > 0 {
                eprintln!(
                    "{program}: verify: {name}: {n} previously quarantined line(s) in {qpath:?}"
                );
            }
        }
    }
    eprintln!(
        "{program}: verify: {} file(s), {records} record(s) ({checksummed} checksummed, \
         {legacy} legacy), {findings} finding(s)",
        experiments.len()
    );
    findings
}

/// `gm-run store`: result-store maintenance.
fn store_main(a: Args) {
    let program = STORE.name;
    let Some(dir) = a.positionals.first() else {
        usage_exit(&STORE, "store needs a directory");
    };
    let (compact, gc) = (a.has("--compact"), a.has("--gc"));
    let (verify, purge_quarantine) = (a.has("--verify"), a.has("--purge-quarantine"));
    let store = ResultStore::open(dir)
        .unwrap_or_else(|e| fail(program, &format!("cannot open store {dir:?}: {e}")));
    let experiments = store
        .experiments()
        .unwrap_or_else(|e| fail(program, &format!("cannot list store {dir:?}: {e}")));
    let mut table = gm_stats::Table::new(vec![
        "experiment".into(),
        "records".into(),
        "cached_wall_s".into(),
        "superseded".into(),
        "corrupt".into(),
        "quarantined".into(),
    ]);
    let (mut total_records, mut total_wall) = (0u64, 0u64);
    let (mut total_q_lines, mut total_q_bytes) = (0usize, 0u64);
    for name in &experiments {
        let shard = store
            .load(name)
            .unwrap_or_else(|e| fail(program, &format!("cannot load {name}: {e}")));
        let wall: u64 = shard
            .records
            .values()
            .filter_map(|r| gm_results::record_wall_us(r).ok())
            .sum();
        let quarantined = store.quarantine_stats(name).unwrap_or_default();
        total_records += shard.records.len() as u64;
        total_wall += wall;
        total_q_lines += quarantined.lines;
        total_q_bytes += quarantined.bytes;
        table.row(vec![
            name.clone(),
            shard.records.len().to_string(),
            format!("{:.2}", seconds(wall)),
            (shard.lines - shard.records.len()).to_string(),
            shard.corrupt.to_string(),
            quarantined.lines.to_string(),
        ]);
    }
    table.row(vec![
        "total".into(),
        total_records.to_string(),
        format!("{:.2}", seconds(total_wall)),
        String::new(),
        String::new(),
        total_q_lines.to_string(),
    ]);
    print!("{}", table.render());
    // Sidecars without a matching store file (e.g. `remote.quarantine`,
    // written by the --remote client) would otherwise be invisible.
    let orphan_sidecars: Vec<String> = {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .ok()
            .into_iter()
            .flatten()
            .filter_map(Result::ok)
            .filter_map(|e| e.file_name().into_string().ok())
            .filter_map(|n| n.strip_suffix(".quarantine").map(str::to_owned))
            .filter(|stem| !experiments.contains(stem))
            .collect();
        names.sort();
        names
    };
    for stem in &orphan_sidecars {
        if let Ok(q) = store.quarantine_stats(stem) {
            total_q_lines += q.lines;
            total_q_bytes += q.bytes;
            eprintln!(
                "{program}: {}: {} quarantined line(s), {} byte(s) (no matching store file)",
                store.quarantine_path(stem).display(),
                q.lines,
                q.bytes
            );
        }
    }
    if total_q_lines > 0 {
        eprintln!(
            "{program}: {total_q_lines} quarantined line(s) in {total_q_bytes} byte(s) of \
             sidecar evidence (--purge-quarantine reclaims them)"
        );
    }
    if compact {
        for name in &experiments {
            compact_one(program, &store, name);
        }
    }
    // --gc and --verify check against the same registry: build it once.
    let identities = if gc || verify {
        registry_identities(&experiments)
    } else {
        Vec::new()
    };
    if gc {
        let (mut total_dropped, mut total_bytes) = (0u64, 0u64);
        for (name, live) in experiments.iter().zip(&identities) {
            let result = match live {
                Some(map) => store.gc(name, &|fp| map.contains_key(fp)),
                // Unknown experiment: nothing in the registry produces
                // its records, so the whole file is stale.
                None => store.gc(name, &|_| false),
            };
            match result {
                Ok(stats) if stats.dropped > 0 || stats.superseded > 0 || stats.corrupt > 0 => {
                    total_dropped += stats.dropped as u64;
                    total_bytes += stats.reclaimed_bytes;
                    eprintln!(
                        "{program}: gc {name}: kept {}, dropped {} stale, {} superseded and \
                         {} corrupt line(s), reclaimed {} byte(s){}",
                        stats.kept,
                        stats.dropped,
                        stats.superseded,
                        stats.corrupt,
                        stats.reclaimed_bytes,
                        if stats.kept == 0 {
                            " (file removed)"
                        } else {
                            ""
                        },
                    );
                }
                Ok(_) => {}
                Err(e) => eprintln!("warning: store gc for {name} failed: {e}"),
            }
        }
        eprintln!("{program}: gc reclaimed {total_dropped} record(s), {total_bytes} byte(s)");
    }
    if purge_quarantine {
        let (mut purged_lines, mut purged_bytes, mut purged_files) = (0usize, 0u64, 0usize);
        let mut names = experiments.clone();
        names.extend(orphan_sidecars.iter().cloned());
        for name in &names {
            match store.purge_quarantine(name) {
                Ok(stats) if stats.lines > 0 || stats.bytes > 0 => {
                    purged_lines += stats.lines;
                    purged_bytes += stats.bytes;
                    purged_files += 1;
                    eprintln!(
                        "{program}: purged {}: {} quarantined line(s), {} byte(s)",
                        store.quarantine_path(name).display(),
                        stats.lines,
                        stats.bytes
                    );
                }
                Ok(_) => {}
                Err(e) => eprintln!("warning: cannot purge quarantine for {name}: {e}"),
            }
        }
        eprintln!(
            "{program}: purge-quarantine reclaimed {purged_lines} line(s), \
             {purged_bytes} byte(s) across {purged_files} sidecar(s)"
        );
    }
    if verify {
        // Verify runs after --compact/--gc so it checks what is left on
        // disk, not what those passes were about to rewrite.
        let findings = verify_store(program, &store, &experiments, &identities);
        if findings > 0 {
            fail(
                program,
                &format!("--verify found {findings} integrity finding(s)"),
            );
        }
    }
}

#[rustfmt::skip]
static MERGE: Command = Command {
    name: "gm-run merge",
    synopsis: &["<SHARD.json>... [options]"],
    about: "Combines the JSON documents written by `gm-run --shard K/N --json ...`\n\
            into one report, bit-identical to the unsharded run that a shared\n\
            result store would produce: tables and CSV on stdout, the combined\n\
            document to --json. All N shards must be present exactly once.",
    positionals: usize::MAX,
    flags: &[flag("--json", "<PATH>", "write the combined document to PATH"), JOBS],
    subcommands: &[],
    run: merge_main,
};

/// `gm-run merge`: recombine shard documents.
fn merge_main(a: Args) {
    let program = MERGE.name;
    let jobs = MERGE.or_usage(a.jobs());
    let files = &a.positionals;
    if files.is_empty() {
        usage_exit(&MERGE, "merge needs at least one shard document");
    }
    let docs: Vec<Json> = files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(program, &format!("cannot read {path:?}: {e}")));
            Json::parse(&text)
                .unwrap_or_else(|e| fail(program, &format!("cannot parse {path:?}: {e}")))
        })
        .collect();
    let merged = merge::merge_docs(&docs, &Runner::new(jobs))
        .unwrap_or_else(|e| fail(program, &format!("merge: {e}")));
    let json = a.get("--json");
    let mut emitted = Vec::new();
    for (exp, out) in &merged.outputs {
        print!("{}", report_text(exp.title, out));
        if json.is_some() {
            emitted.push(experiment_json(exp, merged.scale, out));
        }
    }
    // The driver's own generator name: the merged document is
    // byte-identical to an unsharded run's.
    let mut doc = Json::object();
    doc.set("generator", MAIN.name)
        .set("scale", merged.scale.name())
        .set("experiments", Json::Array(emitted));
    write_json(program, json, &doc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentKind;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    /// The driver's command line through the table and its conversions.
    fn parse(list: &[&str]) -> Result<Options, String> {
        options(&MAIN.parse(&args(list))?)
    }

    #[test]
    fn parses_the_standard_flags() {
        let o = parse(&["--scale", "bench", "--jobs", "4", "--json", "out.json"]).unwrap();
        assert_eq!(o.scale, Scale::Bench);
        assert_eq!(o.jobs, 4);
        assert_eq!(o.json.as_deref(), Some("out.json"));
        assert!(!o.list && o.filter.is_none());
        assert!(o.workloads.is_none() && o.store.is_none());
        assert!(!o.expect_cached && o.shard.is_none());
    }

    #[test]
    fn parses_the_store_and_shard_flags() {
        let o = parse(&[
            "--store",
            ".gm-store",
            "--expect-cached",
            "--shard",
            "2/4",
            "--json",
            "s.json",
        ])
        .unwrap();
        assert_eq!(o.store.as_deref(), Some(".gm-store"));
        assert!(o.expect_cached);
        assert_eq!(o.shard, Some(Shard::new(2, 4).unwrap()));
    }

    #[test]
    fn parses_workload_lists() {
        let o = parse(&["--workloads", "mcf,lbm,povray"]).unwrap();
        assert_eq!(
            o.workloads.as_deref().unwrap(),
            ["mcf".to_owned(), "lbm".to_owned(), "povray".to_owned()]
        );
        assert!(parse(&["--workloads", ""]).is_err());
        assert!(parse(&["--workloads", "a,,b"]).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        let e = parse(&["--scal", "test"]).unwrap_err();
        assert!(e.contains("unknown argument"), "{e}");
        // Positional junk is rejected too.
        assert!(parse(&["fig6"]).is_err());
    }

    #[test]
    fn selection_flags_only_exist_on_gm_run() {
        assert!(parse(&["--list"]).unwrap().list);
        let o = parse(&["--filter", "fig1"]).unwrap();
        assert_eq!(o.filter.as_deref(), Some("fig1"));
        // bench always runs cold, unsharded and unlisted; the other
        // subcommands select nothing from the registry.
        for flag in ["--list", "--shard", "--store", "--remote", "--telemetry"] {
            let e = BENCH.parse(&args(&[flag, "x"])).err();
            assert!(e.is_some_and(|e| e.contains("unknown argument")), "{flag}");
        }
        for cmd in [&MERGE, &STORE, &TRACE] {
            assert!(
                cmd.parse(&args(&["--filter", "fig1"])).is_err(),
                "{}",
                cmd.name
            );
        }
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert!(parse(&["--scale", "huge"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--store"]).is_err());
        assert!(parse(&["--shard", "0/4", "--json", "s.json"]).is_err());
        assert!(parse(&["--shard", "nope", "--json", "s.json"]).is_err());
    }

    #[test]
    fn inconsistent_combinations_are_rejected() {
        let e = parse(&["--expect-cached"]).unwrap_err();
        assert!(e.contains("--store"), "{e}");
        let e = parse(&["--shard", "1/2"]).unwrap_err();
        assert!(e.contains("--json"), "{e}");
        // --list and --help escape the --json requirement (nothing runs);
        // help is answered before any conversion or cross-check.
        assert!(parse(&["--shard", "1/2", "--list"]).is_ok());
        assert!(
            MAIN.parse(&args(&["--shard", "1/2", "--help"]))
                .unwrap()
                .help
        );
    }

    #[test]
    fn parses_the_supervision_flags() {
        let o = parse(&[
            "--retries",
            "0",
            "--budget",
            "30",
            "--strict",
            "--inject",
            "panic:mcf/GhostMinion@1",
        ])
        .unwrap();
        assert_eq!(o.retries, Some(0));
        assert_eq!(o.budget, Some(30));
        assert!(o.strict);
        assert_eq!(
            o.inject,
            Some(FaultPlan::none().panic_once("mcf", "GhostMinion"))
        );
        // Malformed values are rejected eagerly, before anything runs.
        assert!(parse(&["--retries", "-1"]).is_err());
        assert!(parse(&["--retries", "some"]).is_err());
        assert!(parse(&["--budget", "0"]).is_err());
        assert!(parse(&["--budget", "1.5"]).is_err());
        let e = parse(&["--inject", "explode:a/b"]).unwrap_err();
        assert!(e.contains("--inject"), "{e}");
    }

    #[test]
    fn exit_codes_are_stable_and_documented() {
        // The table below is a public contract (CI scripts and the
        // result-service docs rely on it); renumbering is a break.
        assert_eq!(exit::OK, 0);
        assert_eq!(exit::FAILURE, 1);
        assert_eq!(exit::USAGE, 2);
        assert_eq!(exit::PARTIAL, 3);
        for cmd in MAIN.subcommands.iter().copied().chain([&MAIN]) {
            assert!(cmd.help().ends_with(EXIT_CODES), "{} help", cmd.name);
        }
        let u = MAIN.help();
        for line in [
            "0  success",
            "1  hard failure",
            "2  usage error",
            "3  partial success",
        ] {
            assert!(u.contains(line), "{line:?} missing from usage");
        }
    }

    #[test]
    fn remote_requires_a_store() {
        let e = parse(&["--remote", "127.0.0.1:4460"]).unwrap_err();
        assert!(e.contains("--store"), "{e}");
        let o = parse(&["--store", ".gm-store", "--remote", "127.0.0.1:4460"]).unwrap();
        assert_eq!(o.remote.as_deref(), Some("127.0.0.1:4460"));
        assert!(parse(&["--remote"]).is_err());
    }

    #[test]
    fn store_sync_requires_a_store() {
        let e = parse(&["--store-sync"]).unwrap_err();
        assert!(e.contains("--store"), "{e}");
        let o = parse(&["--store", ".gm-store", "--store-sync"]).unwrap();
        assert!(o.store_sync);
    }

    #[test]
    fn expect_cached_degrades_when_the_store_was_damaged() {
        let o = parse(&["--store", ".gm-store", "--expect-cached"]).unwrap();
        // Misses explained by quarantined damage must not abort: the
        // jobs were re-simulated, which is the graceful degradation.
        // (The abort branch calls `exit` and is covered by CI smokes.)
        enforce_expect_cached("gm-test", &o, 2, 1);
        enforce_expect_cached("gm-test", &o, 0, 0);
    }

    #[test]
    fn telemetry_must_not_collide_with_the_json_output() {
        let o = parse(&["--telemetry", "events.jsonl"]).unwrap();
        assert_eq!(o.telemetry.as_deref(), Some("events.jsonl"));
        assert!(parse(&["--telemetry"]).is_err());
        // Same path for the span stream and the results document would
        // corrupt both (mirrors the bench --check/--json guard).
        let e = parse(&["--telemetry", "out.json", "--json", "out.json"]).unwrap_err();
        assert!(e.contains("same file"), "{e}");
        assert!(parse(&["--telemetry", "t.jsonl", "--json", "out.json"]).is_ok());
    }

    #[test]
    fn every_command_documents_and_enforces_its_flag_table() {
        let main_help = MAIN.help();
        for cmd in MAIN.subcommands.iter().copied().chain([&MAIN]) {
            let help = cmd.help();
            let form = format!("{} {}\n", cmd.name, cmd.synopsis[0]);
            assert!(
                main_help.contains(&form),
                "{form:?} missing from gm-run help"
            );
            for f in cmd.flags {
                let row = match f.value {
                    Some(v) => format!("  {} {v} ", f.name),
                    None => format!("  {} ", f.name),
                };
                assert!(
                    help.contains(&row),
                    "{}: {row:?} missing from help",
                    cmd.name
                );
                if f.value.is_some() {
                    let e = cmd.parse(&args(&[f.name])).err().unwrap_or_default();
                    assert!(
                        e.contains(f.name) && e.contains("requires a value"),
                        "{}: {}: {e:?}",
                        cmd.name,
                        f.name
                    );
                }
            }
            let e = cmd
                .parse(&args(&["--no-such-flag"]))
                .err()
                .unwrap_or_default();
            assert!(e.contains("unknown argument"), "{}: {e:?}", cmd.name);
            assert!(cmd.parse(&args(&["-h"])).unwrap().help);
        }
    }

    #[test]
    fn usage_mentions_every_flag() {
        let u = MAIN.help();
        for flag in [
            "--scale",
            "--jobs",
            "--json",
            "--workloads",
            "--store",
            "--expect-cached",
            "--list",
            "--filter",
            "--shard",
            "--telemetry",
            "--retries",
            "--budget",
            "--strict",
            "--inject",
            "--store-sync",
            "--remote",
            "merge",
            "bench",
            "store",
            "trace",
        ] {
            assert!(u.contains(flag), "{flag} missing from usage");
        }
        let store = STORE.help();
        for flag in ["--compact", "--gc", "--verify", "--purge-quarantine"] {
            assert!(store.contains(flag), "{flag} missing from store usage");
        }
        // Selection flags belong to gm-run alone.
        let trace = TRACE.help();
        assert!(!trace.contains("--filter") && !trace.contains("--shard"));
        assert!(trace.contains("--scale") && trace.contains("--workload"));
    }

    #[test]
    fn bench_usage_mentions_the_bench_only_flags() {
        let u = BENCH.help();
        for flag in ["--check", "--workloads"] {
            assert!(u.contains(flag), "{flag} missing from bench usage");
        }
        // The profiling switch and its cargo feature are gone: cores
        // count their ticks on every build and `gm-run trace` reports
        // them.
        assert!(!u.contains("--profile"), "--profile still in bench usage");
        assert!(
            !u.contains("prof"),
            "a profiling build still in bench usage"
        );
    }

    #[test]
    fn trace_usage_mentions_the_trace_only_flags() {
        let u = TRACE.help();
        for flag in [
            "--workload",
            "--scheme",
            "--scale",
            "--out",
            "--summary",
            "--validate",
            "--validate-telemetry",
            "Konata",
        ] {
            assert!(u.contains(flag), "{flag} missing from trace usage");
        }
    }

    #[test]
    fn trace_validation_rejects_job_flags() {
        let validation = |list: &[&str]| trace_validation(&TRACE.parse(&args(list)).unwrap());
        assert_eq!(validation(&["fig6"]), Ok(false));
        assert_eq!(validation(&["fig6", "--summary"]), Ok(false));
        assert_eq!(validation(&["--validate", "t.txt"]), Ok(true));
        assert_eq!(
            validation(&["--validate-telemetry", "e.jsonl", "--validate", "t.txt"]),
            Ok(true)
        );
        for mode in ["--validate", "--validate-telemetry"] {
            for extra in [
                &["--workload", "mcf"][..],
                &["--scheme", "Unsafe"],
                &["--scale", "full"],
                &["--scale", "test"],
                &["--out", "t2.txt"],
                &["--summary"],
                &["fig6"],
            ] {
                let mut list = vec![mode, "f"];
                list.extend_from_slice(extra);
                let e = validation(&list).unwrap_err();
                assert!(e.contains("only a file argument"), "{list:?}: {e}");
                assert!(e.contains(extra[0]), "{list:?}: {e}");
            }
        }
    }

    fn bench_doc(rates: &[(&str, f64)], total: f64) -> Json {
        let mut entries = Vec::new();
        for (name, rate) in rates {
            let mut e = Json::object();
            e.set("name", *name)
                .set("jobs", 1u64)
                .set("mcycles_per_s", format!("{rate:.1}"));
            entries.push(e);
        }
        let mut t = Json::object();
        t.set("mcycles_per_s", format!("{total:.1}"));
        let mut doc = Json::object();
        doc.set("experiments", Json::Array(entries)).set("total", t);
        doc
    }

    #[test]
    fn bench_check_passes_within_the_threshold() {
        let baseline = bench_doc(&[("fig6", 2.0), ("fig7", 0.8)], 1.6);
        let fresh = bench_doc(&[("fig6", 1.6), ("fig7", 3.1)], 2.1);
        // fig6 dropped to exactly 0.80x — inside the 25% tolerance.
        let out = bench_check(&fresh, &baseline).unwrap();
        assert!(out.regressions.is_empty(), "{:?}", out.regressions);
        assert_eq!(out.report.len(), 3, "two experiments + total");
    }

    #[test]
    fn bench_check_fails_past_the_threshold() {
        let baseline = bench_doc(&[("fig6", 2.0), ("fig7", 0.8)], 1.6);
        let fresh = bench_doc(&[("fig6", 1.4), ("fig7", 0.8)], 1.1);
        let out = bench_check(&fresh, &baseline).unwrap();
        // fig6 at 0.70x and total at ~0.69x both regress.
        assert_eq!(out.regressions.len(), 2, "{:?}", out.regressions);
        assert!(out.regressions[0].contains("fig6"));
        assert!(out.regressions[1].contains("total"));
        assert!(out.regressions.iter().all(|l| l.contains("REGRESSION")));
    }

    #[test]
    fn bench_check_ignores_total_on_filtered_runs() {
        let baseline = bench_doc(&[("fig6", 2.0), ("fig7", 0.8)], 1.6);
        // A `--filter fig7` check run: fig7 healthy, but the partial
        // total (0.9) must not be compared against the full-registry 1.6.
        let fresh = bench_doc(&[("fig7", 0.9)], 0.9);
        let out = bench_check(&fresh, &baseline).unwrap();
        assert!(out.regressions.is_empty(), "{:?}", out.regressions);
        assert_eq!(out.report.len(), 1, "only fig7 is comparable");
    }

    #[test]
    fn bench_check_rejects_non_snapshots() {
        let baseline = bench_doc(&[("fig6", 2.0)], 2.0);
        assert!(bench_check(&Json::object(), &baseline).is_err());
        let disjoint = bench_doc(&[("fig9", 1.0)], 1.0);
        assert!(bench_check(&disjoint, &baseline).is_err());
    }

    fn with_calibration(mut doc: Json, mops: f64) -> Json {
        doc.set("calibration", calibration_entry(mops, mops));
        doc
    }

    #[test]
    fn bench_check_normalises_away_machine_speed() {
        // Baseline from a fast runner (100 Mops); fresh run from a
        // machine exactly half as fast, where the engine — unchanged —
        // also measures half the raw throughput. Raw ratios (0.50x)
        // would fail; normalised they are 1.00x.
        let baseline = with_calibration(bench_doc(&[("fig6", 2.0), ("fig7", 0.8)], 1.6), 100.0);
        let fresh = with_calibration(bench_doc(&[("fig6", 1.0), ("fig7", 0.4)], 0.8), 50.0);
        let out = bench_check(&fresh, &baseline).unwrap();
        assert!(out.regressions.is_empty(), "{:?}", out.regressions);
        // One calibration header + two experiments + total.
        assert_eq!(out.report.len(), 4);
        assert!(out.report[0].contains("2.00x"), "{}", out.report[0]);
        assert!(
            out.report[1].contains("1.00x normalised"),
            "{}",
            out.report[1]
        );
    }

    #[test]
    fn bench_check_normalisation_cannot_hide_engine_regressions() {
        // Same 2x-slower machine, but the engine itself also lost 40%:
        // raw 0.30x, normalised 0.60x — still a regression. A machine
        // factor can explain away the host, never the engine.
        let baseline = with_calibration(bench_doc(&[("fig6", 2.0)], 2.0), 100.0);
        let fresh = with_calibration(bench_doc(&[("fig6", 0.6)], 0.6), 50.0);
        let out = bench_check(&fresh, &baseline).unwrap();
        assert_eq!(out.regressions.len(), 2, "{:?}", out.regressions);
        assert!(out.regressions[0].contains("0.60x normalised"));
    }

    #[test]
    fn bench_check_falls_back_to_raw_without_a_baseline_score() {
        // Old baselines predate the calibration loop; the comparison
        // must stay raw (and say nothing about normalisation).
        let baseline = bench_doc(&[("fig6", 2.0)], 2.0);
        let fresh = with_calibration(bench_doc(&[("fig6", 1.8)], 1.8), 50.0);
        let out = bench_check(&fresh, &baseline).unwrap();
        assert!(out.regressions.is_empty(), "{:?}", out.regressions);
        assert_eq!(out.report.len(), 2, "no calibration header");
        assert!(out.report.iter().all(|l| !l.contains("normalised")));
    }

    fn with_provenance(mut doc: Json, rustc: &str, host: &str) -> Json {
        doc.set("rustc", rustc).set("host", host);
        doc
    }

    #[test]
    fn bench_check_warns_on_toolchain_or_host_mismatch() {
        let baseline = with_provenance(
            bench_doc(&[("fig6", 2.0)], 2.0),
            "rustc 1.75.0",
            "x86_64-unknown-linux-gnu",
        );
        let fresh = with_provenance(
            bench_doc(&[("fig6", 1.9)], 1.9),
            "rustc 1.80.0",
            "aarch64-apple-darwin",
        );
        let out = bench_check(&fresh, &baseline).unwrap();
        // Warnings, not regressions: a toolchain roll must not fail CI.
        assert!(out.regressions.is_empty(), "{:?}", out.regressions);
        let warnings: Vec<&String> = out
            .report
            .iter()
            .filter(|l| l.starts_with("warning:"))
            .collect();
        assert_eq!(warnings.len(), 2, "{:?}", out.report);
        assert!(warnings[0].contains("rustc differs"), "{}", warnings[0]);
        assert!(warnings[1].contains("host differs"), "{}", warnings[1]);
    }

    #[test]
    fn bench_check_is_silent_on_matching_or_absent_provenance() {
        // Same toolchain and host: no warning.
        let tag = ("rustc 1.75.0", "x86_64-unknown-linux-gnu");
        let baseline = with_provenance(bench_doc(&[("fig6", 2.0)], 2.0), tag.0, tag.1);
        let fresh = with_provenance(bench_doc(&[("fig6", 2.0)], 2.0), tag.0, tag.1);
        let out = bench_check(&fresh, &baseline).unwrap();
        assert!(out.report.iter().all(|l| !l.starts_with("warning:")));
        // Baselines from before the metadata existed: also no warning.
        let old = bench_doc(&[("fig6", 2.0)], 2.0);
        let fresh = with_provenance(bench_doc(&[("fig6", 2.0)], 2.0), tag.0, tag.1);
        let out = bench_check(&fresh, &old).unwrap();
        assert!(out.report.iter().all(|l| !l.starts_with("warning:")));
    }

    #[test]
    fn bench_check_takes_whole_suites_and_never_overwrites_its_baseline() {
        let outputs = |list: &[&str]| bench_outputs(&BENCH.parse(&args(list)).unwrap());
        assert_eq!(outputs(&[]).unwrap(), (None, "BENCH_engine.json".into()));
        let (check, snapshot) = outputs(&["--check", "base.json"]).unwrap();
        assert_eq!(check.as_deref(), Some("base.json"));
        assert_eq!(snapshot, "BENCH_fresh.json");
        let e = outputs(&["--check", "b.json", "--json", "b.json"]).unwrap_err();
        assert!(e.contains("same file"), "{e}");
        let e = outputs(&["--check", "b.json", "--workloads", "bzip2"]).unwrap_err();
        assert!(e.contains("--workloads"), "{e}");
        assert!(outputs(&["--workloads", "bzip2"]).is_ok());
    }

    #[test]
    fn selection_drops_the_sweeps_a_workload_list_empties() {
        use gm_workloads::Suite;
        let selected = select(&BENCH, None, Some(&["bzip2".to_owned()]));
        let suites: Vec<Suite> = selected
            .iter()
            .filter_map(|e| match &e.kind {
                ExperimentKind::Sweep(s) => Some(s.suite),
                _ => None,
            })
            .collect();
        assert!(!suites.is_empty());
        assert!(suites.iter().all(|&s| s == Suite::Spec2006), "{suites:?}");
        // Non-sweep experiments are not scoped by --workloads.
        assert!(selected.iter().any(|e| e.name == "table1"));
        assert_eq!(select(&MAIN, Some("fig7"), None).len(), 1);
    }

    #[test]
    fn calibration_entry_averages_the_probes() {
        let e = calibration_entry(120.0, 80.0);
        assert_eq!(
            e.get("kernel").and_then(Json::as_str),
            Some("mixwalk-8MiB-v1")
        );
        let mut doc = Json::object();
        doc.set("calibration", e);
        assert_eq!(bench_calibration(&doc), Some(100.0));
        // Snapshots without a score (or with a zero score) yield None.
        assert_eq!(bench_calibration(&Json::object()), None);
        let zeroed = with_calibration(Json::object(), 0.0);
        assert_eq!(bench_calibration(&zeroed), None);
    }

    #[test]
    fn only_table1_skips_simulation() {
        let skipped: Vec<&str> = experiment::registry()
            .iter()
            .filter(|e| matches!(e.kind, ExperimentKind::Table1))
            .map(|e| e.name)
            .collect();
        assert_eq!(skipped, ["table1"]);
    }
}
