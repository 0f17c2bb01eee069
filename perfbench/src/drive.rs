//! Set-up and the two ways of driving one pass over a plan.
//!
//! An untraced pass calls `gm_bench::report::run_experiment` per
//! experiment and renders its report, exactly as `gm-run` does. A traced
//! pass drives the same layers by calling their public functions in the
//! runner's order — workload construction, store load, fingerprints,
//! record decode or simulation, store append, rendering — each inside a
//! span. Both must produce the same results, job for job.

use crate::check::ExpOutput;
use crate::plan::{sweep, Mode, Plan};
use crate::trace::Tracer;
use ghostminion::Machine;
use gm_bench::experiment::Experiment;
use gm_bench::report::{
    experiment_json, render_sweep, report_text, run_experiment, sweep_results_json,
    ExperimentOutput,
};
use gm_bench::{CacheStats, FailureKind, Job, JobFailure, Runner, SweepRun};
use gm_results::{
    job_fingerprint, job_record, record_wall_us, result_from_record, NetIo, RemoteCounters,
    RemoteStore, Request, Response, ResultStore, TcpIo,
};
use gm_serve::{ServeConfig, ServeStats, Server, Shutdown};
use gm_stats::Json;
use gm_workloads::Scale;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sweep workers. One: on a 2-core box a second worker slows every
/// job's simulation by about 15% and makes host time noisier.
pub const WORKERS: usize = 1;

/// An in-process `gm-serve` server on a loopback port.
pub struct ServerHandle {
    pub addr: String,
    shutdown: Shutdown,
    thread: Option<JoinHandle<std::io::Result<ServeStats>>>,
}

impl ServerHandle {
    pub fn start(store_dir: &Path) -> Result<Self, String> {
        let store = ResultStore::open(store_dir).map_err(|e| format!("server store: {e}"))?;
        let shutdown = Shutdown::new();
        let server = Server::bind(
            store,
            "127.0.0.1:0",
            ServeConfig::default(),
            shutdown.clone(),
        )
        .map_err(|e| format!("cannot bind the result server: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("server address: {e}"))?
            .to_string();
        let thread = std::thread::Builder::new()
            .name("gm-serve".into())
            .spawn(move || server.run())
            .map_err(|e| format!("cannot start the result server: {e}"))?;
        Ok(Self {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The server's counters, fetched over the protocol. The `Stats`
    /// request itself counts as one request.
    pub fn stats(&self) -> Result<Json, String> {
        let bytes = TcpIo::default()
            .exchange(&self.addr, &Request::Stats.encode())
            .map_err(|e| format!("stats request: {e}"))?;
        match Response::decode(&bytes)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(format!("stats request answered {other:?}")),
        }
    }
}

/// Drains the server and waits for its thread.
impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.trigger();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// What set-up leaves for the passes.
pub struct Env {
    pub plan: Plan,
    /// The filled store a warm replay reads.
    pub store: Option<ResultStore>,
    /// The server a remote replay fetches from.
    pub server: Option<ServerHandle>,
    /// The cold results set-up produced, which replays must reproduce.
    pub reference: Option<Vec<ExpOutput>>,
}

/// Set-up: draw the plan and, for replays, simulate it cold into a local
/// store (and start a server over that store for the remote replay).
pub fn set_up(
    dir: &Path,
    workload: &'static crate::plan::Workload,
    seed: u64,
) -> Result<Env, String> {
    let plan = Plan::new(workload, seed)?;
    if plan.workload.mode == Mode::Cold {
        return Ok(Env {
            plan,
            store: None,
            server: None,
            reference: None,
        });
    }
    let store_dir = dir.join("store");
    let store = ResultStore::open(&store_dir).map_err(|e| format!("set-up store: {e}"))?;
    let runner = Runner::new(WORKERS);
    let mut reference = Vec::new();
    for exp in &plan.experiments {
        let out = run_experiment(&runner, exp, Scale::Test, Some(&store), None)?;
        reference.push(output(exp, &out));
    }
    let (store, server) = match plan.workload.mode {
        Mode::Remote => (None, Some(ServerHandle::start(&store_dir)?)),
        _ => (Some(store), None),
    };
    Ok(Env {
        plan,
        store,
        server,
        reference: Some(reference),
    })
}

fn output(exp: &Experiment, out: &ExperimentOutput) -> ExpOutput {
    ExpOutput {
        name: exp.name,
        records: out.results.as_array().unwrap_or_default().to_vec(),
        text: report_text(exp.title, out),
        json: experiment_json(exp, Scale::Test, out).render(),
    }
}

/// One pass's outputs and the harness's own accounting of it.
pub struct PassResult {
    pub wall: Duration,
    /// Wall time per experiment, rendering included.
    pub exp_walls: Vec<Duration>,
    pub outputs: Vec<ExpOutput>,
    /// Cache outcome per experiment.
    pub cache: Vec<CacheStats>,
    pub job_failures: usize,
    /// The pass's remote client counters (remote replay only).
    pub remote: Option<RemoteCounters>,
}

/// A fresh, empty local store for one remote-replay pass.
fn fresh_store(dir: &Path) -> Result<ResultStore, String> {
    let _ = std::fs::remove_dir_all(dir);
    ResultStore::open(dir).map_err(|e| format!("pass store: {e}"))
}

fn remote_client(env: &Env) -> Option<RemoteStore> {
    env.server
        .as_ref()
        .map(|s| RemoteStore::new(s.addr.clone()))
}

/// One pass through `gm_bench::report::run_experiment`, the path `gm-run`
/// takes. `scratch` holds the remote replay's empty local store.
pub fn untraced_pass(env: &Env, scratch: &Path) -> Result<PassResult, String> {
    let fresh = match env.plan.workload.mode {
        Mode::Remote => Some(fresh_store(scratch)?),
        _ => None,
    };
    let remote = remote_client(env).map(Arc::new);
    let runner = match &remote {
        Some(r) => Runner::new(WORKERS).with_remote(Arc::clone(r)),
        None => Runner::new(WORKERS),
    };
    let store = fresh.as_ref().or(env.store.as_ref());
    let mut outputs = Vec::new();
    let mut cache = Vec::new();
    let mut job_failures = 0;
    let mut exp_walls = Vec::new();
    let start = Instant::now();
    for exp in &env.plan.experiments {
        let exp_start = Instant::now();
        let out = run_experiment(&runner, exp, Scale::Test, store, None)?;
        outputs.push(output(exp, &out));
        exp_walls.push(exp_start.elapsed());
        cache.push(out.cache);
        job_failures += out.failures.len();
    }
    let wall = start.elapsed();
    drop(fresh);
    let _ = std::fs::remove_dir_all(scratch);
    Ok(PassResult {
        wall,
        exp_walls,
        outputs,
        cache,
        job_failures,
        remote: remote.map(|r| r.counters()),
    })
}

/// What a traced pass counts beyond its spans.
#[derive(Debug, Default)]
pub struct TracedCounts {
    pub store_records: u64,
    pub store_corrupt: u64,
    pub remote_get_calls: usize,
    /// Simulated cycles of the jobs the traced passes simulated.
    pub sim_cycles: u64,
    /// Host wall of each simulated job (`Machine::new` plus
    /// `Machine::run`), µs: what the runner reports as `Job::wall_us`.
    pub sim_job_us: Vec<u64>,
}

/// One pass driving each layer's public functions in the runner's
/// order, every call inside a span.
pub fn traced_pass(
    env: &Env,
    scratch: &Path,
    t: &Tracer,
    counts: &mut TracedCounts,
) -> Result<PassResult, String> {
    let fresh = match env.plan.workload.mode {
        Mode::Remote => Some(fresh_store(scratch)?),
        _ => None,
    };
    let remote = remote_client(env);
    let store = fresh.as_ref().or(env.store.as_ref());
    let start = Instant::now();
    let mut outputs = Vec::new();
    let mut cache = Vec::new();
    let mut job_failures = 0;
    let mut exp_walls = Vec::new();
    t.span("bench.pass", None, || {
        let mut job_base = 0u32;
        for exp in &env.plan.experiments {
            let exp_start = Instant::now();
            t.span("bench.experiment", None, || {
                let run = traced_sweep(t, exp, store, remote.as_ref(), job_base, counts);
                job_base += run.total_jobs() as u32;
                cache.push(run.cache);
                job_failures += run.failures.len();
                outputs.push(t.span("report.render", None, || render(exp, &run)));
            });
            exp_walls.push(exp_start.elapsed());
        }
    });
    let wall = start.elapsed();
    drop(fresh);
    let _ = std::fs::remove_dir_all(scratch);
    Ok(PassResult {
        wall,
        exp_walls,
        outputs,
        cache,
        job_failures,
        remote: remote.map(|r| r.counters()),
    })
}

/// `run_experiment`'s rendering of a finished sweep.
fn render(exp: &Experiment, run: &SweepRun) -> ExpOutput {
    let sweep = sweep(exp);
    let (results, omitted) = run.complete_results();
    let (preamble, table, mut postamble) = render_sweep(sweep, &results);
    for f in &run.failures {
        postamble.push(format!("!! job failed: {f}"));
    }
    for name in &omitted {
        postamble.push(format!("!! row omitted: {name} (incomplete scheme lineup)"));
    }
    let out = ExperimentOutput {
        preamble,
        table,
        postamble,
        results: sweep_results_json(sweep, run),
        cache: run.cache,
        sim_wall_us: run.sim_wall_us(),
        sim_cycles: run.sim_cycles(),
        slowest: run.slowest_sim(sweep),
        failures: run.failures.clone(),
    };
    output(exp, &out)
}

fn panic_failure(
    workload: &str,
    scheme: &str,
    payload: Box<dyn std::any::Any + Send>,
) -> JobFailure {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    JobFailure {
        workload: workload.to_owned(),
        scheme: scheme.to_owned(),
        kind: FailureKind::Panic,
        message,
        attempts: 1,
    }
}

/// `Runner::run_sweep_shard` for one worker and the full shard, with a
/// span around every call into another layer.
fn traced_sweep(
    t: &Tracer,
    exp: &Experiment,
    store: Option<&ResultStore>,
    remote: Option<&RemoteStore>,
    job_base: u32,
    counts: &mut TracedCounts,
) -> SweepRun {
    let sweep = sweep(exp);
    t.span("runner.sweep", None, || {
        let set = t.span("workloads.build", None, || sweep.workload_set(Scale::Test));
        let nschemes = sweep.schemes.len();
        let all: Vec<(usize, usize)> = (0..set.units.len())
            .flat_map(|u| (0..nschemes).map(move |s| (u, s)))
            .collect();
        let mut corrupt = 0;
        let cached: HashMap<String, Json> = match store {
            Some(st) => match t.span("results.store_load", None, || st.load(exp.name)) {
                Ok(shard) => {
                    corrupt = shard.corrupt;
                    counts.store_records += shard.records.len() as u64;
                    counts.store_corrupt += shard.corrupt as u64;
                    shard.records
                }
                Err(_) => {
                    corrupt = 1;
                    counts.store_corrupt += 1;
                    HashMap::new()
                }
            },
            None => HashMap::new(),
        };
        let fingerprint = |u: usize, s: usize, job: u32| {
            t.span("results.fingerprint", Some(job), || {
                job_fingerprint(
                    &set.units[u],
                    &sweep.schemes[s].scheme,
                    Scale::Test,
                    &sweep.config,
                )
            })
        };
        // With a store the runner fingerprints every job before running
        // any; without one, inside each job.
        let upfront: Vec<Option<String>> = if store.is_some() {
            all.iter()
                .enumerate()
                .map(|(i, &(u, s))| Some(fingerprint(u, s, job_base + i as u32)))
                .collect()
        } else {
            vec![None; all.len()]
        };
        let mut rows: Vec<Vec<Option<Job>>> = (0..set.units.len())
            .map(|_| (0..nschemes).map(|_| None).collect())
            .collect();
        let mut cache = CacheStats {
            corrupt,
            ..CacheStats::default()
        };
        let mut failures = Vec::new();
        for (i, &(u, s)) in all.iter().enumerate() {
            let job = job_base + i as u32;
            let unit = &set.units[u];
            let col = &sweep.schemes[s];
            let outcome = t.span("runner.job", Some(job), || -> Result<Job, JobFailure> {
                let fp = upfront[i].clone().unwrap_or_else(|| fingerprint(u, s, job));
                let decode = |record: &Json| {
                    t.span("results.record_decode", Some(job), || {
                        result_from_record(record, unit.name, col.scheme.name())
                            .and_then(|r| Ok((r, record_wall_us(record)?)))
                    })
                };
                if let Some(record) = cached.get(&fp) {
                    if let Ok((result, wall_us)) = decode(record) {
                        return Ok(Job {
                            result,
                            wall_us,
                            fingerprint: fp,
                            cached: true,
                        });
                    }
                }
                if let Some(remote) = remote {
                    counts.remote_get_calls += 1;
                    let got = t.span("results.remote_get", Some(job), || {
                        remote.get(exp.name, &fp)
                    });
                    if let Some(record) = got {
                        if let Ok((result, wall_us)) = decode(&record) {
                            if let Some(st) = store {
                                let _ = t.span("results.store_append", Some(job), || {
                                    st.append(exp.name, &record)
                                });
                            }
                            cache.remote_hits += 1;
                            return Ok(Job {
                                result,
                                wall_us,
                                fingerprint: fp,
                                cached: true,
                            });
                        }
                    }
                }
                let started = Instant::now();
                let machine = t.span("machine.new", Some(job), || {
                    catch_unwind(AssertUnwindSafe(|| {
                        Machine::new(col.scheme, sweep.config, unit.programs.clone())
                    }))
                });
                let result = machine.and_then(|mut m| {
                    t.span("machine.run", Some(job), || {
                        catch_unwind(AssertUnwindSafe(|| m.run(sweep.config.max_cycles)))
                    })
                });
                let result = result.map_err(|p| panic_failure(unit.name, &col.label, p))?;
                let wall_us = started.elapsed().as_micros() as u64;
                counts.sim_job_us.push(wall_us);
                counts.sim_cycles += result.cycles;
                if store.is_some() || remote.is_some() {
                    let record = job_record(unit.name, &col.label, &result, wall_us, &fp);
                    if let Some(st) = store {
                        let _ = t.span("results.store_append", Some(job), || {
                            st.append(exp.name, &record)
                        });
                    }
                    if let Some(remote) = remote {
                        t.span("results.remote_put", Some(job), || {
                            remote.put(exp.name, &record)
                        });
                    }
                }
                Ok(Job {
                    result,
                    wall_us,
                    fingerprint: fp,
                    cached: false,
                })
            });
            match outcome {
                Ok(job) => {
                    if job.cached {
                        cache.hits += 1;
                    } else {
                        cache.misses += 1;
                    }
                    rows[u][s] = Some(job);
                }
                Err(failure) => failures.push(failure),
            }
        }
        SweepRun {
            set,
            rows,
            cache,
            failures,
        }
    })
}

/// Per-pass scratch directory for the remote replay's local store.
pub fn pass_dir(work: &Path, pass: usize) -> PathBuf {
    work.join(format!("pass-{pass}"))
}
