//! The repository benchmark: cold SPEC2006 and Parsec sweeps, warm and
//! remote replay, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it from the repository root (it reads
//! `tests/golden/fingerprints.txt`). With `--trace 0` it sets up
//! several times, runs untraced passes for `--seconds` and reports
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced passes,
//! reports per-layer metrics and writes the spans to `.perfbench-out/`.
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Any wrong output makes the exit code 1.

mod check;
mod drive;
mod plan;
mod sample;
mod selftest;
mod trace;

use check::{compare, ExpOutput, Golden, Tally};
use drive::{Env, PassResult, TracedCounts, WORKERS};
use gm_results::RemoteCounters;
use gm_stats::Json;
use plan::{Mode, Workload, DEFAULT_SEED};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{durations_ms, Summary, Tracer};

const USAGE: &str =
    "usage: perfbench --workload <cold-spec06|cold-parsec4|warm-replay|remote-replay> \
                     [--seed N] [--seconds S] [--trace 0|1]";
/// `results.remote_get_ms_p99` needs at least 10 samples beyond p99.
const MIN_REMOTE_SAMPLES: usize = 1000;
/// Measuring stops here whatever else is pending, so a run ends within
/// three minutes.
const MAX_MEASURE: Duration = Duration::from_secs(120);
const WORK_DIR: &str = ".perfbench-work";
const OUT_DIR: &str = ".perfbench-out";

/// Set-ups per untraced run, spread evenly over its measuring time:
/// host speed drifts over seconds to minutes, so a median of set-ups
/// bunched at the start would read one moment of it. Cold set-up only
/// draws the plan (tens of ms); a replay's simulates the sample
/// (seconds).
fn setup_reps(mode: Mode) -> usize {
    match mode {
        Mode::Cold => 20,
        Mode::Warm | Mode::Remote => 5,
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(plan::workload(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes 1 to 60")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// This process's scratch directory, removed on exit.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let dir = Path::new(WORK_DIR).join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using it.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Returns whether every output was correct.
fn run(args: &Args) -> Result<bool, String> {
    let golden = Golden::load()?;
    let work = WorkDir::create()?;
    println!(
        "perfbench: workload {}, seed {}, {} s, trace {}, {WORKERS} worker(s), nproc {}, scale test",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    println!("self-test: {}", selftest::run(&golden, &work.0)?);

    // Set-up, timed whole: drawing the plan and, for replays, filling
    // the store and starting the server. An untraced run sets up again
    // while it measures.
    let mut tally = Tally::default();
    let start = Instant::now();
    let env = drive::set_up(&work.0.join("setup"), args.workload, args.seed)?;
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    for s in &env.plan.samples {
        println!(
            "sample {}: {} (one of {} subsets meeting the targets; predicted {} ms and {} kcycles per lineup, {} KiB of images)",
            s.suite.name(),
            s.units.join(","),
            s.candidates,
            s.predicted[0],
            s.predicted[1],
            s.predicted[2]
        );
    }
    println!(
        "plan: {} experiment(s), {} jobs per pass; set-up {}",
        env.plan.experiments.len(),
        env.plan.jobs(),
        list(&setup_s, "s")
    );
    let metrics = if args.trace {
        traced_run(args, &env, &golden, &work.0, &mut tally)?
    } else {
        untraced_run(args, &env, &golden, &work.0, &mut setup_s, &mut tally)?
    };
    drop(env);
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "checks: {} attempted, {} failed, failed_frac {failed_frac}",
        tally.attempted, tally.failed
    );
    for p in &tally.problems {
        println!("  FAILED: {p}");
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    let correct = tally.failed == 0;
    println!("{}", result_line(correct, &tally, &metrics));
    Ok(correct)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn result_line(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    )
}

fn list(values: &[f64], unit: &str) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}] {unit}", parts.join(", "))
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in (0, 1].
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn record_u64(record: &Json, key: &str) -> u64 {
    record.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// What a run keeps of a pass once it is checked: its wall times and
/// its simulated jobs' `Job::wall_us`, per experiment.
struct Timing {
    wall: Duration,
    exps: Vec<(Duration, Vec<u64>)>,
}

impl Timing {
    fn of(pass: &PassResult) -> Self {
        let exps = pass
            .outputs
            .iter()
            .zip(&pass.exp_walls)
            .zip(&pass.cache)
            .map(|((out, wall), cache)| {
                // Cached jobs report the wall-clock of the run that
                // stored them, not this run's.
                let sims = if cache.misses > 0 {
                    out.records
                        .iter()
                        .map(|r| record_u64(r, "wall_us"))
                        .collect()
                } else {
                    Vec::new()
                };
                (*wall, sims)
            })
            .collect();
        Self {
            wall: pass.wall,
            exps,
        }
    }
}

fn walls_s(timings: &[Timing]) -> Vec<f64> {
    timings.iter().map(|t| t.wall.as_secs_f64()).collect()
}

/// Checks a finished pass — its outputs against the reference (set-up's
/// for a replay, the first pass's for a cold run) and the harness's own
/// accounting against what the workload promises — and keeps its
/// timing.
fn checked(
    env: &Env,
    golden: &Golden,
    reference: &mut Option<Vec<ExpOutput>>,
    pass: &PassResult,
    tally: &mut Tally,
) -> Timing {
    let mode = env.plan.workload.mode;
    let reference = reference.get_or_insert_with(|| pass.outputs.clone());
    tally.merge(compare(
        golden,
        reference,
        &pass.outputs,
        mode != Mode::Cold,
    ));
    for (out, cache) in pass.outputs.iter().zip(&pass.cache) {
        let jobs = out.records.len();
        let expected = match mode {
            Mode::Cold => cache.hits == 0 && cache.misses == jobs,
            Mode::Warm => cache.hits == jobs && cache.misses == 0 && cache.corrupt == 0,
            Mode::Remote => cache.hits == jobs && cache.remote_hits == jobs && cache.misses == 0,
        };
        tally.check(expected, || {
            format!("{}: cache outcome {cache:?} for {jobs} jobs", out.name)
        });
    }
    for _ in 0..pass.job_failures {
        tally.fail("a job failed".into());
    }
    if let Some(c) = pass.remote {
        let errors = c.misses + c.garbled + c.short_circuits + c.push_failures;
        tally.check(errors == 0, || format!("remote errors: {c:?}"));
    }
    Timing::of(pass)
}

fn untraced_run(
    args: &Args,
    env: &Env,
    golden: &Golden,
    work: &Path,
    setup_s: &mut Vec<f64>,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let budget = Duration::from_secs(args.seconds);
    let mode = env.plan.workload.mode;
    let reps = setup_reps(mode);
    let mut reference = env.reference.clone();
    let mut timings: Vec<Timing> = Vec::new();
    let start = Instant::now();
    loop {
        // Set-up n (set-up 0 ran before the passes) is due n/reps of the
        // way through; each must reproduce set-up 0's results.
        let n = setup_s.len();
        if n < reps && start.elapsed() >= budget.mul_f64(n as f64 / reps as f64) {
            let dir = work.join(format!("setup-{n}"));
            let set_up = Instant::now();
            let again = drive::set_up(&dir, args.workload, args.seed)?;
            setup_s.push(set_up.elapsed().as_secs_f64());
            if let (Some(a), Some(b)) = (&env.reference, &again.reference) {
                tally.merge(compare(golden, a, b, false));
            }
            drop(again);
            let _ = std::fs::remove_dir_all(dir);
        }
        let pass = drive::untraced_pass(env, &drive::pass_dir(work, timings.len()))?;
        timings.push(checked(env, golden, &mut reference, &pass, tally));
        let shortest = timings.iter().map(|t| t.wall).min().unwrap_or_default();
        let elapsed = start.elapsed();
        if (timings.len() >= 2 && elapsed + shortest > budget) || elapsed > MAX_MEASURE {
            break;
        }
    }
    println!("passes: {}", list(&walls_s(&timings), "s"));
    println!("set-ups: {}", list(setup_s, "s"));

    let cycles: u64 = reference
        .iter()
        .flatten()
        .flat_map(|e| &e.records)
        .map(|r| record_u64(r, "cycles"))
        .sum();
    let (pass_s, sim_us) = fastest_pass(&timings);
    // Cold: each job's fastest simulation, as in BENCH_engine.json's
    // mcycles_per_s. Replays simulate nothing: the denominator is the
    // pass.
    let host_us = if mode == Mode::Cold {
        sim_us
    } else {
        pass_s * 1e6
    };
    Ok(vec![
        ("setup_s", median(setup_s), "s"),
        ("pass_s", pass_s, "s"),
        ("sim_mcycles_per_s", cycles as f64 / host_us, "Mcycles/s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ])
}

/// The fastest-of-interleaved-passes estimate of one pass, in seconds,
/// and of its simulation alone, in µs.
///
/// Host noise on a shared box is one-sided and comes in bursts of a few
/// seconds, so a pass is estimated piecewise: each simulated job's
/// fastest `Job::wall_us` across the passes, plus each experiment's
/// fastest remaining (harness) time.
fn fastest_pass(timings: &[Timing]) -> (f64, f64) {
    let mut job_us: Vec<u64> = Vec::new();
    let mut harness_us: Vec<f64> = Vec::new();
    for t in timings {
        let mut job = 0;
        for (e, (wall, sims)) in t.exps.iter().enumerate() {
            for &us in sims {
                match job_us.get_mut(job) {
                    Some(f) => *f = (*f).min(us),
                    None => job_us.push(us),
                }
                job += 1;
            }
            let harness = wall.as_secs_f64() * 1e6 - sims.iter().sum::<u64>() as f64;
            match harness_us.get_mut(e) {
                Some(f) => *f = f.min(harness),
                None => harness_us.push(harness),
            }
        }
    }
    let sim: f64 = job_us.iter().sum::<u64>() as f64;
    ((sim + harness_us.iter().sum::<f64>()) / 1e6, sim)
}

/// Adds `after - before` of the server's counters to `into`, dropping the
/// `Stats` request that read `after`.
fn add_serve_delta(into: &mut [u64; 4], before: &Json, after: &Json) {
    for (slot, key) in into.iter_mut().zip(["requests", "gets", "hits", "errors"]) {
        *slot += record_u64(after, key) - record_u64(before, key);
    }
    into[0] -= 1;
}

fn traced_run(
    args: &Args,
    env: &Env,
    golden: &Golden,
    work: &Path,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let budget = Duration::from_secs(args.seconds);
    let mode = env.plan.workload.mode;
    let tracer = Tracer::new();
    let mut counts = TracedCounts::default();
    let mut reference = env.reference.clone();
    let mut untraced: Vec<Timing> = Vec::new();
    let mut traced: Vec<Timing> = Vec::new();
    let mut last_traced: PassResult;
    // Over the traced passes: the server's requests, gets, hits and
    // errors; the remote client's counters; the runner's outcomes.
    let mut serve = [0u64; 4];
    let mut remote = RemoteCounters::default();
    let (mut hits, mut misses, mut job_failures) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    loop {
        let n = untraced.len() + traced.len();
        let pass = drive::untraced_pass(env, &drive::pass_dir(work, n))?;
        untraced.push(checked(env, golden, &mut reference, &pass, tally));
        let before = env.server.as_ref().map(|s| s.stats()).transpose()?;
        let pass = drive::traced_pass(env, &drive::pass_dir(work, n + 1), &tracer, &mut counts)?;
        if let (Some(server), Some(before)) = (&env.server, before) {
            add_serve_delta(&mut serve, &before, &server.stats()?);
        }
        traced.push(checked(env, golden, &mut reference, &pass, tally));
        if let Some(c) = pass.remote {
            remote.hits += c.hits;
            remote.misses += c.misses;
            remote.garbled += c.garbled;
            remote.retries += c.retries;
            remote.short_circuits += c.short_circuits;
        }
        hits += pass.cache.iter().map(|c| c.hits).sum::<usize>();
        misses += pass.cache.iter().map(|c| c.misses).sum::<usize>();
        job_failures += pass.job_failures;
        last_traced = pass;
        let pair = untraced.iter().map(|t| t.wall).min().unwrap_or_default()
            + traced.iter().map(|t| t.wall).min().unwrap_or_default();
        let enough = mode != Mode::Remote || counts.remote_get_calls >= MIN_REMOTE_SAMPLES;
        let elapsed = start.elapsed();
        if (enough && elapsed + pair > budget) || elapsed > MAX_MEASURE {
            break;
        }
    }
    let passes = traced.len() as f64;
    // Both with `pass_s`'s estimator.
    let untraced_s = fastest_pass(&untraced).0;
    let traced_s = fastest_pass(&traced).0;
    println!(
        "passes: untraced {}, traced {}",
        list(&walls_s(&untraced), "s"),
        list(&walls_s(&traced), "s")
    );
    println!(
        "tracing overhead: traced pass {traced_s:.4} s - untraced pass {untraced_s:.4} s = {:.1} ms ({:+.2}%)",
        (traced_s - untraced_s) * 1e3,
        (traced_s / untraced_s - 1.0) * 100.0
    );

    let spans = tracer.into_spans();
    let sum = Summary::of(&spans);
    let ms = |name: &str| sum.total_ns(name) as f64 / 1e6 / passes;
    let calls = |name: &str| sum.calls(name) as f64 / passes;
    let self_ms = |layer: &str| sum.layer_self_ns(layer) as f64 / 1e6 / passes;
    let gets = durations_ms(&spans, "results.remote_get");
    let job_ms: Vec<f64> = counts
        .sim_job_us
        .iter()
        .map(|&us| us as f64 / 1e3)
        .collect();
    let records: Vec<&Json> = last_traced
        .outputs
        .iter()
        .flat_map(|e| &e.records)
        .collect();
    let core = |key: &str| -> f64 {
        records
            .iter()
            .flat_map(|r| r.get("cores").and_then(Json::as_array).unwrap_or_default())
            .map(|c| record_u64(c, key))
            .sum::<u64>() as f64
    };
    let mem = |key: &str| -> f64 {
        records
            .iter()
            .map(|r| r.get("counters").map_or(0, |c| record_u64(c, key)))
            .sum::<u64>() as f64
    };
    let per_pass = |v: u64| v as f64 / passes;
    let sweep_ns = sum.total_ns("runner.sweep") as f64;
    let metrics: Metrics = vec![
        ("workloads.build_ms", ms("workloads.build"), "ms"),
        (
            "workloads.units_built",
            env.plan.units_built() as f64,
            "count",
        ),
        ("results.fingerprint_ms", ms("results.fingerprint"), "ms"),
        (
            "results.fingerprints",
            calls("results.fingerprint"),
            "count",
        ),
        ("results.store_load_ms", ms("results.store_load"), "ms"),
        (
            "results.store_records",
            per_pass(counts.store_records),
            "count",
        ),
        (
            "results.store_corrupt",
            per_pass(counts.store_corrupt),
            "count",
        ),
        (
            "results.record_decode_ms",
            ms("results.record_decode"),
            "ms",
        ),
        (
            "results.record_decodes",
            calls("results.record_decode"),
            "count",
        ),
        ("results.store_append_ms", ms("results.store_append"), "ms"),
        (
            "results.store_appends",
            calls("results.store_append"),
            "count",
        ),
        ("results.remote_get_ms_p50", percentile(&gets, 0.50), "ms"),
        ("results.remote_get_ms_p99", percentile(&gets, 0.99), "ms"),
        ("results.remote_get_samples", gets.len() as f64, "count"),
        (
            "results.remote_gets",
            per_pass(remote.hits + remote.misses),
            "count",
        ),
        ("results.remote_retries", per_pass(remote.retries), "count"),
        ("results.remote_garbled", per_pass(remote.garbled), "count"),
        (
            "results.remote_short_circuits",
            per_pass(remote.short_circuits),
            "count",
        ),
        ("serve.requests", per_pass(serve[0]), "count"),
        ("serve.hits", per_pass(serve[2]), "count"),
        ("serve.errors", per_pass(serve[3]), "count"),
        (
            "serve.requests_per_get",
            if serve[1] == 0 {
                0.0
            } else {
                serve[0] as f64 / serve[1] as f64
            },
            "ratio",
        ),
        ("runner.sweep_ms", ms("runner.sweep"), "ms"),
        ("runner.cache_hits", hits as f64 / passes, "count"),
        ("runner.cache_misses", misses as f64 / passes, "count"),
        ("runner.job_failures", job_failures as f64 / passes, "count"),
        ("runner.job_ms_p50", percentile(&job_ms, 0.50), "ms"),
        ("runner.job_ms_p95", percentile(&job_ms, 0.95), "ms"),
        (
            "runner.worker_busy_frac",
            sum.total_ns("runner.job") as f64 / (WORKERS as f64 * sweep_ns),
            "fraction",
        ),
        ("report.render_ms", ms("report.render"), "ms"),
        ("machine.new_ms", ms("machine.new"), "ms"),
        ("machine.run_ms", ms("machine.run"), "ms"),
        (
            "machine.ns_per_sim_cycle",
            if counts.sim_cycles == 0 {
                0.0
            } else {
                sum.total_ns("machine.run") as f64 / counts.sim_cycles as f64
            },
            "ns/cycle",
        ),
        ("core.committed", core("committed"), "count"),
        ("core.fetched", core("fetched"), "count"),
        ("core.squashed", core("squashed"), "count"),
        (
            "core.useful_frac",
            core("committed") / core("fetched"),
            "fraction",
        ),
        ("core.mispredicts", core("mispredicts"), "count"),
        ("core.stt_delays", core("stt_delays"), "count"),
        ("core.strict_fu_delays", core("strict_fu_delays"), "count"),
        ("core.load_replays", core("load_replays"), "count"),
        ("core.load_retries", core("load_retries"), "count"),
        ("mem.loads", mem("loads"), "count"),
        ("mem.minion_hits", mem("minion_hits"), "count"),
        ("mem.l1d_hits", mem("l1d_hits"), "count"),
        ("mem.l2_hits", mem("l2_hits"), "count"),
        ("mem.dram_accesses", mem("dram_accesses"), "count"),
        ("mem.mshr_retries", mem("mshr_retries"), "count"),
        ("mem.timeguards", mem("timeguards"), "count"),
        ("mem.leapfrogs", mem("leapfrogs"), "count"),
        ("mem.squashes", mem("squashes"), "count"),
        ("mem.coherence_replays", mem("coherence_replays"), "count"),
        ("bench.self_ms", self_ms("bench"), "ms"),
        ("runner.self_ms", self_ms("runner"), "ms"),
        ("workloads.self_ms", self_ms("workloads"), "ms"),
        ("results.self_ms", self_ms("results"), "ms"),
        ("machine.self_ms", self_ms("machine"), "ms"),
        ("report.self_ms", self_ms("report"), "ms"),
        ("trace.overhead_ms", (traced_s - untraced_s) * 1e3, "ms"),
        ("trace.spans_per_pass", spans.len() as f64 / passes, "count"),
    ];

    let mut header = Json::object();
    header
        .set("workload", args.workload.name)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("workers", WORKERS)
        .set("nproc", nproc())
        .set("untraced_pass_s", untraced_s)
        .set("traced_pass_s", traced_s)
        .set("overhead_ms", (traced_s - untraced_s) * 1e3);
    let doc = trace::artifact(&spans, &sum, traced.len(), header);
    let path = Path::new(OUT_DIR).join(format!(
        "trace-{}-seed{}.json",
        args.workload.name, args.seed
    ));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc.render()))
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    println!("trace: {} spans written to {}", spans.len(), path.display());
    println!("self time per traced pass by layer:");
    for (layer, ns) in &sum.self_by_layer {
        println!("  {layer:<10} {:>10.3} ms", *ns as f64 / 1e6 / passes);
    }
    Ok(metrics)
}
