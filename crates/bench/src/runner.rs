//! Parallel, cache-aware job execution for experiment sweeps.
//!
//! Each `Machine` run is self-contained (no shared mutable state), so a
//! sweep expands into independent (workload × scheme) jobs executed on a
//! `std::thread::scope` pool. Results are written back by job index, so
//! the output — tables, geomeans, JSON — is bit-identical no matter how
//! many workers run (`--jobs 1` vs `--jobs N` is a pure wall-clock
//! difference).
//!
//! Three orthogonal features layer on top of the pool:
//!
//! * **Caching** — with a [`ResultStore`], each job's
//!   [`gm_results::job_fingerprint`] is looked up before simulating; a
//!   hit reconstructs the stored [`MachineResult`] (and its original
//!   wall-clock) instead of re-running, a miss simulates and appends the
//!   record the moment the job finishes, so interrupted runs keep their
//!   completed work.
//! * **Sharding** — a [`Shard`] deterministically partitions the flat
//!   job list (`flat_index % count == index - 1`), so N machines can
//!   split one experiment and `gm-run merge` can recombine the outputs.
//!   Unowned jobs are simply `None` in the result grid.
//! * **Supervision** — each job runs under `catch_unwind`, an optional
//!   wall-clock budget (watchdog thread), and bounded deterministic
//!   retry (see [`Supervision`]). A job that exhausts its attempts
//!   becomes a structured [`JobFailure`] instead of aborting the sweep:
//!   its cell stays `None`, every other job completes, and the caller
//!   decides between partial success and (`strict`) fail-fast.

use crate::experiment::Sweep;
use crate::fault::{FaultKind, FaultPlan};
use crate::run_unit;
use crate::telemetry::Telemetry;
use ghostminion::{MachineResult, Scheme, SystemConfig};
use gm_results::{
    job_fingerprint, job_record, record_wall_us, result_from_record, RemoteStore, ResultStore,
};
use gm_workloads::{Scale, UnitCache, WorkloadSet, WorkloadUnit};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// One deterministic partition of a job list: the `index`th (1-based) of
/// `count` round-robin slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    index: u32,
    count: u32,
}

impl Shard {
    /// The trivial partition that owns every job.
    pub fn full() -> Self {
        Self { index: 1, count: 1 }
    }

    /// Shard `index` of `count`; `index` is 1-based.
    pub fn new(index: u32, count: u32) -> Result<Self, String> {
        if count == 0 || index == 0 || index > count {
            return Err(format!(
                "invalid shard {index}/{count} (expected 1 <= K <= N)"
            ));
        }
        Ok(Self { index, count })
    }

    /// Parses the CLI form `K/N`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let err = || format!("invalid --shard {text:?} (expected K/N, e.g. 2/4)");
        let (k, n) = text.split_once('/').ok_or_else(err)?;
        let index = k.parse::<u32>().map_err(|_| err())?;
        let count = n.parse::<u32>().map_err(|_| err())?;
        Self::new(index, count).map_err(|_| err())
    }

    /// Whether this shard owns the job at `flat_index` in the expanded
    /// job list. Round-robin, so long and short workloads spread evenly
    /// across shards.
    pub fn owns(&self, flat_index: usize) -> bool {
        flat_index % self.count as usize == (self.index - 1) as usize
    }

    /// Ownership of every job in a flat list, given each job's predicted
    /// cost (see `predicted_costs`; `None` when nothing predicts the
    /// job).
    ///
    /// With no cost information this is exactly the historical
    /// round-robin split ([`Shard::owns`]). As soon as at least one cost
    /// is known, jobs are partitioned by greedy longest-processing-time:
    /// sorted by predicted cost (unknown jobs predicted at the mean of
    /// the known ones), each assigned to the least-loaded shard — so a
    /// handful of slow workloads no longer serialises one machine while
    /// the others idle.
    ///
    /// The assignment is a pure, deterministic function of `(costs,
    /// count)`: every shard of an N-way split computes the identical
    /// partition provided they see the same cost inputs. The cost inputs
    /// are append-invariant for runs of the current configuration
    /// (historical records only), so sequential shard runs against one
    /// store directory always agree; machines with *different* historical
    /// records produce overlapping or incomplete splits, which `gm-run
    /// merge` rejects loudly — replicate the store snapshot across
    /// machines for cost-aware splits.
    pub fn partition(&self, costs: &[Option<u64>]) -> Vec<bool> {
        if self.is_full() {
            return vec![true; costs.len()];
        }
        if costs.iter().all(Option::is_none) {
            return (0..costs.len()).map(|i| self.owns(i)).collect();
        }
        let known_sum: u128 = costs.iter().flatten().map(|&c| u128::from(c)).sum();
        let known_n = costs.iter().flatten().count() as u128;
        let mean = (known_sum / known_n) as u64;
        let predicted = |i: usize| costs[i].unwrap_or(mean);
        let mut order: Vec<usize> = (0..costs.len()).collect();
        // Cost descending; index ascending breaks ties deterministically.
        order.sort_by(|&a, &b| predicted(b).cmp(&predicted(a)).then(a.cmp(&b)));
        let n = self.count as usize;
        // (total predicted cost, job count) per shard; ties go to the
        // lowest shard index, and the count term spreads runs of
        // equal-cost jobs instead of piling them onto one shard.
        let mut load = vec![(0u128, 0usize); n];
        let mut mine = vec![false; costs.len()];
        let me = (self.index - 1) as usize;
        for &i in &order {
            let best = (0..n)
                .min_by_key(|&k| (load[k].0, load[k].1, k))
                .expect("count >= 1");
            load[best].0 += u128::from(predicted(i));
            load[best].1 += 1;
            if best == me {
                mine[i] = true;
            }
        }
        mine
    }

    /// 1-based shard index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Total number of shards.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Whether this is the trivial single-shard partition.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Cache outcome counts for one sweep run. Without a store every owned
/// job counts as a miss (it had to be simulated).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: usize,
    pub misses: usize,
    /// Store damage seen during the warm load: quarantined corrupt
    /// lines, or 1 when the whole file failed to read and the run
    /// degraded to a cold start. Misses on a damaged store are expected
    /// re-simulation, not a cache regression — `--expect-cached` warns
    /// instead of aborting when this is nonzero.
    pub corrupt: usize,
    /// Jobs reconstructed from the remote result service (a subset of
    /// `hits`: a remote hit lands in the local store and counts as
    /// cached, so `--expect-cached` passes on a warm-through-remote run).
    pub remote_hits: usize,
    /// Fresh results successfully pushed to the remote result service.
    pub remote_pushes: usize,
}

/// One finished job: the simulation result plus its store metadata.
#[derive(Debug)]
pub struct Job {
    pub result: MachineResult,
    /// Wall-clock of the simulation, µs. Cache hits report the wall of
    /// the run that originally produced the result, so store-backed
    /// outputs are reproducible byte for byte.
    pub wall_us: u64,
    /// Content address of the job (see [`gm_results::fingerprint`]).
    pub fingerprint: String,
    /// Whether the result was reconstructed from the store.
    pub cached: bool,
}

/// Why a supervised job ultimately failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The job panicked (its own bug, an injected fault, or the
    /// simulated-cycle deadline on [`SystemConfig`] firing).
    Panic,
    /// The job exceeded its per-job wall-clock budget.
    Timeout,
}

impl FailureKind {
    /// Stable lowercase name for reports and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
        }
    }
}

/// One job that failed every attempt. The sweep completes around it:
/// its grid cell stays `None`, the report annotates the hole, and the
/// driver exits with the partial-success code (or fails fast under
/// [`Supervision::strict`]).
#[derive(Clone, Debug)]
pub struct JobFailure {
    /// Workload name.
    pub workload: String,
    /// Scheme column label.
    pub scheme: String,
    /// How the final attempt failed.
    pub kind: FailureKind,
    /// The panic message or budget description.
    pub message: String,
    /// Attempts made (1 + retries).
    pub attempts: u32,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: {} after {} attempt(s): {}",
            self.workload,
            self.scheme,
            self.kind.name(),
            self.attempts,
            self.message
        )
    }
}

/// Fault-tolerance policy for supervised jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Supervision {
    /// Total attempts per job (1 + retries); at least 1.
    pub attempts: u32,
    /// Per-job wall-clock budget. Budgeted jobs run on a watchdog'd
    /// thread; `None` runs them inline (panic isolation only).
    pub budget: Option<Duration>,
    /// Fail the whole run on any job failure (after the sweep finishes,
    /// so completed work still lands in the store) instead of reporting
    /// partial success.
    pub strict: bool,
}

impl Default for Supervision {
    /// One retry, no budget, partial-success semantics: a transient
    /// fault heals invisibly, a persistent one costs one extra attempt
    /// and becomes a structured failure.
    fn default() -> Self {
        Self {
            attempts: 2,
            budget: None,
            strict: false,
        }
    }
}

/// How one attempt of a supervised job ended.
enum Attempt {
    Done(Box<MachineResult>),
    Panicked(String),
    TimedOut,
}

/// Renders a `catch_unwind` payload the way the default hook would.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Executes independent jobs across a fixed number of worker threads.
#[derive(Clone, Debug)]
pub struct Runner {
    jobs: usize,
    supervision: Supervision,
    faults: FaultPlan,
    /// Optional result-service client consulted between the local store
    /// and simulation (see [`Runner::with_remote`]).
    remote: Option<Arc<RemoteStore>>,
    /// Units built by this runner's sweeps, shared with its clones: each
    /// unit a run names is built and hashed once, however many sweeps
    /// name it. Per runner, never global, so a new run builds afresh.
    units: Arc<Mutex<UnitCache>>,
}

impl Runner {
    /// A runner with `jobs` workers; `0` selects
    /// [`Runner::default_jobs`].
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            Self::default_jobs()
        } else {
            jobs
        };
        Self {
            jobs,
            supervision: Supervision::default(),
            faults: FaultPlan::none(),
            remote: None,
            units: Arc::default(),
        }
    }

    /// Attaches a remote result service consulted on every local cache
    /// miss (fetch before simulating, push after). The remote is purely
    /// an accelerator: every failure mode — unreachable, mid-operation
    /// crash, garbled responses — degrades to simulating locally, and
    /// the sweep's outputs are byte-identical with or without it.
    pub fn with_remote(mut self, remote: Arc<RemoteStore>) -> Self {
        self.remote = Some(remote);
        self
    }

    /// The attached remote result service, if any.
    pub fn remote(&self) -> Option<&RemoteStore> {
        self.remote.as_deref()
    }

    /// Replaces the supervision policy (attempts are clamped to >= 1).
    pub fn with_supervision(mut self, supervision: Supervision) -> Self {
        self.supervision = Supervision {
            attempts: supervision.attempts.max(1),
            ..supervision
        };
        self
    }

    /// Injects a deterministic [`FaultPlan`] into supervised jobs
    /// (testing only; see [`crate::fault`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// `sweep`'s workload axis at `scale`, from this run's built units:
    /// only units no earlier sweep of the run named are built.
    pub(crate) fn workload_set(&self, sweep: &Sweep, scale: Scale) -> WorkloadSet {
        sweep.workload_set_from(&mut self.units.lock().expect("units poisoned"), scale)
    }

    /// The active supervision policy.
    pub fn supervision(&self) -> Supervision {
        self.supervision
    }

    /// Available hardware parallelism (1 if unknown).
    pub fn default_jobs() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item on the worker pool, returning results in
    /// input order regardless of completion order.
    ///
    /// `map` itself offers no isolation: a panicking `f` propagates out
    /// of the scope and fails the caller. Sweep jobs do not run bare on
    /// this pool — [`Runner::run_sweep_shard`] wraps each one in
    /// `catch_unwind`, budget, and retry (see [`Supervision`]) so a
    /// single bad job degrades to a [`JobFailure`] instead.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(&items[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker filled every slot")
            })
            .collect()
    }

    /// Runs one attempt of a job, isolated by `catch_unwind`; with a
    /// budget, the simulation runs on a watchdog'd thread that is left
    /// detached on timeout (Rust cannot kill a thread — the simulated-
    /// cycle deadline on [`SystemConfig`] bounds how long it lingers).
    fn attempt_job(
        &self,
        scheme: Scheme,
        unit: &Arc<WorkloadUnit>,
        cfg: SystemConfig,
        fault: Option<FaultKind>,
    ) -> Attempt {
        let budget = self.supervision.budget;
        let body = move |unit: &WorkloadUnit| -> MachineResult {
            match fault {
                Some(FaultKind::Panic) => panic!("injected fault: panic"),
                Some(FaultKind::Delay(d)) => std::thread::sleep(d),
                // 10× the budget reliably trips the watchdog; without
                // one, a wedge degrades to a slow success instead of
                // hanging the suite forever.
                Some(FaultKind::Wedge) => std::thread::sleep(match budget {
                    Some(b) => b * 10,
                    None => Duration::from_secs(60),
                }),
                None => {}
            }
            run_unit(scheme, unit, cfg)
        };
        match budget {
            None => match catch_unwind(AssertUnwindSafe(|| body(unit))) {
                Ok(result) => Attempt::Done(Box::new(result)),
                Err(payload) => Attempt::Panicked(panic_message(payload)),
            },
            Some(limit) => {
                let unit = Arc::clone(unit);
                let (tx, rx) = mpsc::channel();
                let spawned = std::thread::Builder::new()
                    .name("gm-job".into())
                    .spawn(move || {
                        let outcome = catch_unwind(AssertUnwindSafe(|| body(&unit)));
                        // The watchdog may have timed out and dropped
                        // the receiver; nothing to do about it here.
                        let _ = tx.send(outcome);
                    });
                if let Err(e) = spawned {
                    return Attempt::Panicked(format!("cannot spawn job thread: {e}"));
                }
                match rx.recv_timeout(limit) {
                    Ok(Ok(result)) => Attempt::Done(Box::new(result)),
                    Ok(Err(payload)) => Attempt::Panicked(panic_message(payload)),
                    Err(_) => Attempt::TimedOut,
                }
            }
        }
    }

    /// Runs one job to completion under the supervision policy: up to
    /// [`Supervision::attempts`] tries, each panic-isolated and
    /// budget-watched, with a stderr warning (and a `job_retry`
    /// telemetry event) per retry. Returns the result and its
    /// simulation wall-clock, or the final failure.
    fn run_supervised(
        &self,
        experiment: &str,
        unit: &Arc<WorkloadUnit>,
        scheme: Scheme,
        label: &str,
        cfg: SystemConfig,
        telemetry: Option<&Telemetry>,
    ) -> Result<(MachineResult, u64), JobFailure> {
        let attempts = self.supervision.attempts.max(1);
        let mut last = None;
        for attempt in 1..=attempts {
            let fault = self.faults.fault_for(unit.name, label, attempt);
            let started = Instant::now();
            match self.attempt_job(scheme, unit, cfg, fault) {
                Attempt::Done(result) => {
                    return Ok((*result, started.elapsed().as_micros() as u64))
                }
                Attempt::Panicked(message) => last = Some((FailureKind::Panic, message)),
                Attempt::TimedOut => {
                    let budget = self.supervision.budget.unwrap_or_default();
                    last = Some((
                        FailureKind::Timeout,
                        format!("exceeded the per-job budget of {budget:?}"),
                    ));
                }
            }
            let (kind, message) = last.as_ref().expect("failure just recorded");
            if attempt < attempts {
                eprintln!(
                    "warning: {experiment}: job {}/{label} attempt {attempt}/{attempts} \
                     failed ({}: {message}); retrying",
                    unit.name,
                    kind.name()
                );
                if let Some(tel) = telemetry {
                    tel.emit("job_retry", |j| {
                        j.set("experiment", experiment)
                            .set("workload", unit.name)
                            .set("scheme", label)
                            .set("attempt", u64::from(attempt))
                            .set("kind", kind.name());
                    });
                }
            }
        }
        let (kind, message) = last.expect("at least one attempt ran");
        Err(JobFailure {
            workload: unit.name.to_owned(),
            scheme: label.to_owned(),
            kind,
            message,
            attempts,
        })
    }

    /// Expands `sweep` at `scale` into (workload × scheme) jobs, runs
    /// this shard's slice of them — consulting `store` before simulating
    /// and appending fresh results to it — and returns the job grid.
    ///
    /// Sharded runs partition cost-aware when the store holds
    /// *historical* records predicting job costs (see
    /// `predicted_costs` and [`Shard::partition`]); otherwise the
    /// split is the historical round-robin.
    ///
    /// `experiment` names the store file. A store whose record fails to
    /// reconstruct (corrupt line, old format version) degrades to a
    /// cache miss and re-simulates; the subsequent append supersedes the
    /// bad record, so the store heals itself.
    ///
    /// With `telemetry`, each job emits a `job_start`/`job_end` span
    /// (fingerprint, cache outcome, wall-clock) as it runs; spans from
    /// parallel workers may interleave, but every field is independent
    /// of the worker count (see [`crate::telemetry`]).
    ///
    /// Jobs run under the runner's [`Supervision`]: one that fails
    /// every attempt lands in [`SweepRun::failures`] (its grid cell
    /// stays `None`, closed by a `job_fail` telemetry event) and the
    /// sweep completes around it. Under [`Supervision::strict`] the
    /// whole call errors instead — after the sweep finishes, so the
    /// surviving jobs still reach the store. A store that cannot be
    /// *read* degrades to a cold run (with a stderr warning) rather
    /// than failing: re-simulation always beats aborting.
    pub fn run_sweep_shard(
        &self,
        sweep: &Sweep,
        scale: Scale,
        experiment: &str,
        store: Option<&ResultStore>,
        shard: Shard,
        telemetry: Option<&Telemetry>,
    ) -> Result<SweepRun, String> {
        let set = self.workload_set(sweep, scale);
        let nschemes = sweep.schemes.len();
        let all: Vec<(usize, usize)> = (0..set.units.len())
            .flat_map(|u| (0..nschemes).map(move |s| (u, s)))
            .collect();
        let mut store_corrupt = 0usize;
        let cached: HashMap<String, gm_stats::Json> = match store {
            Some(st) => match st.load(experiment) {
                Ok(shard) => {
                    store_corrupt = shard.corrupt;
                    shard.records
                }
                Err(e) => {
                    eprintln!(
                        "warning: cannot read store for {experiment} ({e}); \
                         degrading to a cold run"
                    );
                    store_corrupt = 1;
                    HashMap::new()
                }
            },
            None => HashMap::new(),
        };
        // With a store, fingerprint every job up front (in parallel):
        // the cache lookup needs the owned ones anyway, and the
        // cost-aware partitioner needs the full current set to recognise
        // historical records. A storeless run computes only its own
        // shard's fingerprints inside the job closure, as before.
        let fingerprints: Vec<Option<String>> = if store.is_some() {
            self.map(&all, |&(u, s)| {
                Some(job_fingerprint(
                    &set.units[u],
                    &sweep.schemes[s].scheme,
                    scale,
                    &sweep.config,
                ))
            })
        } else {
            vec![None; all.len()]
        };
        let ownership = if store.is_some() && !shard.is_full() {
            let costs = predicted_costs(&all, &set, sweep, &fingerprints, &cached);
            shard.partition(&costs)
        } else {
            (0..all.len()).map(|i| shard.owns(i)).collect()
        };
        let owned: Vec<(usize, usize, usize)> = all
            .iter()
            .enumerate()
            .filter(|&(flat, _)| ownership[flat])
            .map(|(flat, &(u, s))| (flat, u, s))
            .collect();
        // Per-sweep remote outcome tallies (the RemoteStore's own
        // counters span the whole process, not one experiment).
        let remote_hit_count = AtomicUsize::new(0);
        let remote_push_count = AtomicUsize::new(0);
        let jobs = self.map(&owned, |&(flat, u, s)| {
            let unit = &set.units[u];
            let scheme = sweep.schemes[s].scheme;
            let label = sweep.schemes[s].label.as_str();
            let fingerprint = fingerprints[flat]
                .clone()
                .unwrap_or_else(|| job_fingerprint(unit, &scheme, scale, &sweep.config));
            if let Some(tel) = telemetry {
                tel.emit("job_start", |j| {
                    j.set("experiment", experiment)
                        .set("workload", unit.name)
                        .set("scheme", label);
                });
            }
            let outcome = (|| -> Result<Job, JobFailure> {
                if let Some(record) = cached.get(&fingerprint) {
                    let reconstructed = result_from_record(record, unit.name, scheme.name())
                        .and_then(|result| Ok((result, record_wall_us(record)?)));
                    if let Ok((result, wall_us)) = reconstructed {
                        return Ok(Job {
                            result,
                            wall_us,
                            fingerprint: fingerprint.clone(),
                            cached: true,
                        });
                    }
                }
                // Local miss: ask the remote service before simulating.
                // A verified remote record replays exactly like a local
                // hit (its original wall_us included), and is appended
                // locally so the next run hits without the network.
                if let Some(remote) = &self.remote {
                    if let Some(record) = remote.get(experiment, &fingerprint) {
                        let reconstructed = result_from_record(&record, unit.name, scheme.name())
                            .and_then(|result| Ok((result, record_wall_us(&record)?)));
                        if let Ok((result, wall_us)) = reconstructed {
                            if let Some(tel) = telemetry {
                                tel.emit("remote_hit", |j| {
                                    j.set("experiment", experiment)
                                        .set("workload", unit.name)
                                        .set("scheme", label)
                                        .set("fingerprint", fingerprint.as_str());
                                });
                            }
                            if let Some(st) = store {
                                if let Err(e) = st.append(experiment, &record) {
                                    eprintln!(
                                        "warning: cannot append to store for {experiment}: {e}"
                                    );
                                }
                            }
                            remote_hit_count.fetch_add(1, Ordering::Relaxed);
                            return Ok(Job {
                                result,
                                wall_us,
                                fingerprint: fingerprint.clone(),
                                cached: true,
                            });
                        }
                        // Verified transport, but the record fails schema
                        // reconstruction (wrong identity, old version):
                        // fall through and re-simulate.
                    }
                    if let Some(tel) = telemetry {
                        tel.emit("remote_miss", |j| {
                            j.set("experiment", experiment)
                                .set("workload", unit.name)
                                .set("scheme", label)
                                .set("fingerprint", fingerprint.as_str());
                        });
                    }
                }
                let (result, wall_us) =
                    self.run_supervised(experiment, unit, scheme, label, sweep.config, telemetry)?;
                if store.is_some() || self.remote.is_some() {
                    let record = job_record(unit.name, label, &result, wall_us, &fingerprint);
                    if let Some(st) = store {
                        if let Err(e) = st.append(experiment, &record) {
                            // Losing cache warmth is not worth failing the run.
                            eprintln!("warning: cannot append to store for {experiment}: {e}");
                        }
                    }
                    if let Some(remote) = &self.remote {
                        if remote.put(experiment, &record) {
                            remote_push_count.fetch_add(1, Ordering::Relaxed);
                            if let Some(tel) = telemetry {
                                tel.emit("remote_push", |j| {
                                    j.set("experiment", experiment)
                                        .set("workload", unit.name)
                                        .set("scheme", label)
                                        .set("fingerprint", fingerprint.as_str());
                                });
                            }
                        }
                    }
                }
                Ok(Job {
                    result,
                    wall_us,
                    fingerprint: fingerprint.clone(),
                    cached: false,
                })
            })();
            if let Some(tel) = telemetry {
                match &outcome {
                    Ok(job) => tel.emit("job_end", |j| {
                        j.set("experiment", experiment)
                            .set("workload", unit.name)
                            .set("scheme", label)
                            .set("fingerprint", job.fingerprint.as_str())
                            .set("cached", job.cached)
                            .set("wall_us", job.wall_us);
                    }),
                    Err(fail) => tel.emit("job_fail", |j| {
                        j.set("experiment", experiment)
                            .set("workload", unit.name)
                            .set("scheme", label)
                            .set("kind", fail.kind.name())
                            .set("attempts", u64::from(fail.attempts))
                            .set("error", fail.message.as_str());
                    }),
                }
            }
            outcome
        });
        let mut rows: Vec<Vec<Option<Job>>> = (0..set.units.len())
            .map(|_| (0..nschemes).map(|_| None).collect())
            .collect();
        // The breaker trip is reported once, after the parallel map:
        // with no job spans open the event's position in the telemetry
        // stream is deterministic regardless of worker count.
        if let Some(remote) = &self.remote {
            if remote.take_degradation_event() {
                if let Some(tel) = telemetry {
                    tel.emit("remote_degraded", |j| {
                        j.set("experiment", experiment).set("addr", remote.addr());
                    });
                }
            }
        }
        let mut cache = CacheStats {
            corrupt: store_corrupt,
            remote_hits: remote_hit_count.into_inner(),
            remote_pushes: remote_push_count.into_inner(),
            ..CacheStats::default()
        };
        let mut failures = Vec::new();
        for (&(_, u, s), outcome) in owned.iter().zip(jobs) {
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
        if self.supervision.strict {
            if let Some(first) = failures.first() {
                return Err(format!(
                    "strict mode: {} job(s) failed; first: {first}",
                    failures.len()
                ));
            }
        }
        Ok(SweepRun {
            set,
            rows,
            cache,
            failures,
        })
    }

    /// Runs the complete sweep with no store: the cache-free,
    /// single-shard fast path used by tests and benches. Panics if any
    /// job fails — callers of this path want a loud failure, not a
    /// partial grid.
    pub fn run_sweep(&self, sweep: &Sweep, scale: Scale) -> SweepResults {
        let run = self
            .run_sweep_shard(sweep, scale, "", None, Shard::full(), None)
            .expect("storeless non-strict runs cannot fail");
        if let Some(first) = run.failures.first() {
            panic!("sweep job failed: {first}");
        }
        run.into_results()
    }
}

impl Default for Runner {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Predicted wall-clock per job for the cost-aware partitioner.
///
/// Predictions come from *historical* records only: records in the
/// experiment's store file whose fingerprint no current job produces —
/// results from earlier scales, configs, or code versions — averaged by
/// (workload, scheme label). Two properties fall out of that choice:
///
/// * Current-fingerprint records are exactly the cache hits (a hit
///   replays in microseconds, costing its shard nothing) and exactly
///   what a sibling shard's run can append. Excluding them keeps hits
///   from polluting the balance *and* makes the partition
///   append-invariant: sequential shard runs against one store
///   directory read identical cost inputs and split identically.
/// * A store warmed at a cheaper scale, or invalidated by a config or
///   code change, still predicts every job's *relative* cost — which is
///   all greedy longest-processing-time needs.
fn predicted_costs(
    all: &[(usize, usize)],
    set: &WorkloadSet,
    sweep: &Sweep,
    fingerprints: &[Option<String>],
    cached: &HashMap<String, gm_stats::Json>,
) -> Vec<Option<u64>> {
    let current: std::collections::HashSet<&str> =
        fingerprints.iter().flatten().map(String::as_str).collect();
    let mut sums: HashMap<(&str, &str), (u128, u64)> = HashMap::new();
    for (fp, record) in cached {
        if current.contains(fp.as_str()) {
            continue;
        }
        let (Some(workload), Some(label), Ok(us)) = (
            record.get("workload").and_then(gm_stats::Json::as_str),
            record.get("scheme").and_then(gm_stats::Json::as_str),
            record_wall_us(record),
        ) else {
            continue;
        };
        let e = sums.entry((workload, label)).or_insert((0, 0));
        e.0 += u128::from(us);
        e.1 += 1;
    }
    all.iter()
        .map(|&(u, s)| {
            sums.get(&(set.units[u].name, sweep.schemes[s].label.as_str()))
                .map(|&(sum, n)| (sum / u128::from(n)) as u64)
        })
        .collect()
}

/// Raw results of a sweep: `rows[workload][scheme]`, aligned with the
/// workload set's unit order and the sweep's scheme lineup.
#[derive(Debug)]
pub struct SweepResults {
    pub set: WorkloadSet,
    pub rows: Vec<Vec<MachineResult>>,
}

/// The job grid a (possibly sharded, possibly cached) sweep run
/// produced: `rows[workload][scheme]` is `None` for jobs owned by other
/// shards — or jobs that exhausted their supervised attempts, which
/// appear in `failures` instead.
#[derive(Debug)]
pub struct SweepRun {
    pub set: WorkloadSet,
    pub rows: Vec<Vec<Option<Job>>>,
    pub cache: CacheStats,
    /// Jobs that failed every attempt (empty on a fault-free run).
    pub failures: Vec<JobFailure>,
}

impl SweepRun {
    /// Number of jobs this run owns (ran or reconstructed).
    pub fn owned_jobs(&self) -> usize {
        self.rows.iter().flatten().filter(|j| j.is_some()).count()
    }

    /// Total number of jobs in the full grid.
    pub fn total_jobs(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Total wall-clock spent actually simulating (cache misses), µs.
    pub fn sim_wall_us(&self) -> u64 {
        self.rows
            .iter()
            .flatten()
            .flatten()
            .filter(|j| !j.cached)
            .map(|j| j.wall_us)
            .sum()
    }

    /// Total simulated cycles across the jobs that were actually
    /// simulated (cache misses). Together with [`SweepRun::sim_wall_us`]
    /// this yields the engine's simulated-cycles-per-second throughput.
    pub fn sim_cycles(&self) -> u64 {
        self.rows
            .iter()
            .flatten()
            .flatten()
            .filter(|j| !j.cached)
            .map(|j| j.result.cycles)
            .sum()
    }

    /// The slowest simulated job as (`workload/scheme`, µs).
    pub fn slowest_sim(&self, sweep: &Sweep) -> Option<(String, u64)> {
        let mut best: Option<(String, u64)> = None;
        for (unit, row) in self.set.units.iter().zip(&self.rows) {
            for (col, job) in sweep.schemes.iter().zip(row) {
                let Some(job) = job else { continue };
                let beats = match &best {
                    None => true,
                    Some((_, us)) => job.wall_us > *us,
                };
                if !job.cached && beats {
                    best = Some((format!("{}/{}", unit.name, col.label), job.wall_us));
                }
            }
        }
        best
    }

    /// Collapses a complete (single-shard) run into plain results.
    ///
    /// # Panics
    ///
    /// Panics if any job is missing — callers must not use this on
    /// partial shard runs.
    pub fn into_results(self) -> SweepResults {
        let rows = self
            .rows
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|j| j.expect("into_results on a partial shard run").result)
                    .collect()
            })
            .collect();
        SweepResults {
            set: self.set,
            rows,
        }
    }

    /// The rows every scheme completed, as plain results, plus the
    /// names of workloads whose rows were dropped because at least one
    /// of their jobs is missing (failed, or owned by another shard).
    /// Reports render the complete rows and annotate the omissions; on
    /// a fault-free single-shard run nothing is dropped and the output
    /// matches [`SweepRun::to_results`] exactly.
    pub fn complete_results(&self) -> (SweepResults, Vec<String>) {
        let mut units = Vec::new();
        let mut rows = Vec::new();
        let mut omitted = Vec::new();
        for (unit, row) in self.set.units.iter().zip(&self.rows) {
            if row.iter().all(Option::is_some) {
                units.push(unit.clone());
                rows.push(
                    row.iter()
                        .map(|j| j.as_ref().expect("checked complete").result.clone())
                        .collect(),
                );
            } else {
                omitted.push(unit.name.to_owned());
            }
        }
        let mut set = self.set.clone();
        set.units = units;
        (SweepResults { set, rows }, omitted)
    }

    /// Borrows the grid as plain results, panicking on missing jobs.
    pub fn to_results(&self) -> SweepResults {
        SweepResults {
            set: self.set.clone(),
            rows: self
                .rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|j| {
                            j.as_ref()
                                .expect("to_results on a partial shard run")
                                .result
                                .clone()
                        })
                        .collect()
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 4, 16] {
            let got = Runner::new(jobs).map(&items, |&x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn zero_jobs_selects_available_parallelism() {
        assert_eq!(Runner::new(0).jobs(), Runner::default_jobs());
        assert!(Runner::new(0).jobs() >= 1);
        assert_eq!(Runner::new(3).jobs(), 3);
    }

    #[test]
    fn map_on_empty_input_is_empty() {
        let got: Vec<u64> = Runner::new(4).map(&[] as &[u64], |&x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn shard_parsing_is_strict() {
        assert_eq!(Shard::parse("1/1").unwrap(), Shard::full());
        let s = Shard::parse("2/4").unwrap();
        assert_eq!((s.index(), s.count()), (2, 4));
        assert_eq!(s.to_string(), "2/4");
        assert!(!s.is_full());
        for bad in ["", "2", "0/4", "5/4", "2/0", "a/4", "2/b", "1/2/3", "-1/4"] {
            assert!(Shard::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn shards_partition_any_job_list() {
        for n in 1..=7u32 {
            let shards: Vec<Shard> = (1..=n).map(|k| Shard::new(k, n).unwrap()).collect();
            for job in 0..100usize {
                let owners = shards.iter().filter(|s| s.owns(job)).count();
                assert_eq!(owners, 1, "job {job} must have exactly one of {n} owners");
            }
        }
    }

    /// Deterministic pseudo-random cost vectors (SplitMix64) with a mix
    /// of known and unknown entries.
    fn random_costs(seed: u64, len: usize) -> Vec<Option<u64>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..len)
            .map(|_| {
                let x = next();
                (x % 4 != 0).then_some(x % 1_000_000)
            })
            .collect()
    }

    #[test]
    fn cost_aware_partition_is_disjoint_covering_and_deterministic() {
        for n in 1..=6u32 {
            for seed in 0..20u64 {
                let len = 1 + (seed as usize * 7) % 40;
                let costs = random_costs(seed, len);
                let parts: Vec<Vec<bool>> = (1..=n)
                    .map(|k| Shard::new(k, n).unwrap().partition(&costs))
                    .collect();
                for job in 0..len {
                    let owners = parts.iter().filter(|p| p[job]).count();
                    assert_eq!(owners, 1, "job {job}, {n} shards, seed {seed}");
                }
                // Same inputs, same split — every machine of an N-way
                // run computes the partition independently.
                for k in 1..=n {
                    let again = Shard::new(k, n).unwrap().partition(&costs);
                    assert_eq!(again, parts[(k - 1) as usize]);
                }
            }
        }
    }

    #[test]
    fn partition_without_costs_is_the_round_robin_split() {
        let costs = vec![None; 17];
        for n in 1..=4u32 {
            for k in 1..=n {
                let shard = Shard::new(k, n).unwrap();
                let expect: Vec<bool> = (0..17).map(|i| shard.owns(i)).collect();
                assert_eq!(shard.partition(&costs), expect, "shard {k}/{n}");
            }
        }
    }

    #[test]
    fn lpt_partition_balances_predicted_cost() {
        // One 1000µs job and six 10µs jobs on two shards: round-robin
        // would put three small jobs with the big one; LPT gives the big
        // job a shard (nearly) to itself.
        let costs: Vec<Option<u64>> = [1000u64, 10, 10, 10, 10, 10, 10]
            .iter()
            .map(|&c| Some(c))
            .collect();
        let s1 = Shard::new(1, 2).unwrap().partition(&costs);
        let s2 = Shard::new(2, 2).unwrap().partition(&costs);
        let cost_of = |part: &[bool]| -> u64 {
            part.iter()
                .zip(&costs)
                .filter(|(own, _)| **own)
                .map(|(_, c)| c.unwrap())
                .sum()
        };
        let (a, b) = (cost_of(&s1), cost_of(&s2));
        assert_eq!(a + b, 1060);
        assert_eq!(a.max(b), 1000, "the big job's shard takes nothing else");
        // Unknown costs predict at the mean of known ones and spread by
        // job count on load ties.
        let mixed: Vec<Option<u64>> = vec![Some(100), None, None, None];
        let m1 = Shard::new(1, 2).unwrap().partition(&mixed);
        let m2 = Shard::new(2, 2).unwrap().partition(&mixed);
        assert_eq!(m1.iter().filter(|o| **o).count(), 2);
        assert_eq!(m2.iter().filter(|o| **o).count(), 2);
    }

    #[test]
    fn full_shard_owns_everything_regardless_of_costs() {
        let costs = random_costs(3, 9);
        assert_eq!(Shard::full().partition(&costs), vec![true; 9]);
    }

    /// Fig. 6's sweep cut down to its first `columns` scheme columns over
    /// `workloads`.
    fn fig6(workloads: Option<Vec<&'static str>>, columns: usize) -> Sweep {
        let exp = crate::experiment::find("fig6").expect("fig6 is registered");
        let crate::experiment::ExperimentKind::Sweep(mut sweep) = exp.kind else {
            panic!("fig6 is a sweep");
        };
        sweep.workloads = workloads;
        sweep.schemes.truncate(columns);
        *sweep
    }

    fn fingerprints(run: &SweepRun) -> Vec<String> {
        let jobs = run
            .rows
            .iter()
            .flatten()
            .map(|j| j.as_ref().expect("owned"));
        jobs.map(|j| j.fingerprint.clone()).collect()
    }

    #[test]
    fn sweeps_of_one_run_share_built_and_hashed_units() {
        let sweep = fig6(Some(vec!["gamess", "hmmer"]), 1);
        let runner = Runner::new(1);
        let first = runner.run_sweep(&sweep, Scale::Test);
        assert!(
            first
                .set
                .units
                .iter()
                .all(|u| u.program_shas.get().is_some()),
            "the first sweep hashes its units"
        );
        // A clone is the same run: its sweep reuses the hashed units.
        let second = runner.clone().run_sweep(&sweep, Scale::Test);
        for (a, b) in first.set.units.iter().zip(&second.set.units) {
            assert!(Arc::ptr_eq(a, b), "{} was built again", a.name);
        }
        // A new runner is a new run: it builds its own.
        let fresh = Runner::new(1).run_sweep(&sweep, Scale::Test);
        for (a, b) in first.set.units.iter().zip(&fresh.set.units) {
            assert!(!Arc::ptr_eq(a, b), "{} leaked across runs", a.name);
            assert!(a.programs == b.programs);
        }
    }

    #[test]
    fn subset_then_full_sweep_keeps_suite_order_and_fingerprints() {
        // Shard 64/64 owns none of these jobs (at most 25): the sweeps
        // build their sets and simulate nothing.
        let idle = Shard::new(64, 64).expect("valid shard");
        let runner = Runner::new(1);
        let subset = fig6(Some(vec!["mcf", "gamess"]), 1);
        let full = fig6(None, 1);
        let run = |sweep: &Sweep| {
            let run = runner.run_sweep_shard(sweep, Scale::Test, "", None, idle, None);
            run.expect("storeless runs cannot fail").set
        };
        let (part, all) = (run(&subset), run(&full));
        let names = |set: &WorkloadSet| set.units.iter().map(|u| u.name).collect::<Vec<_>>();
        assert_eq!(names(&part), ["gamess", "mcf"]);
        assert_eq!(names(&all), full.suite.unit_names().collect::<Vec<_>>());
        for unit in &part.units {
            assert!(all.units.iter().any(|u| Arc::ptr_eq(u, unit)));
        }
        let (scheme, cfg) = (&full.schemes[0].scheme, &full.config);
        for unit in &all.units {
            let alone = WorkloadSet::named(full.suite, Scale::Test, &[unit.name]);
            assert_eq!(
                job_fingerprint(unit, scheme, Scale::Test, cfg),
                job_fingerprint(&alone.units[0], scheme, Scale::Test, cfg),
                "{}",
                unit.name
            );
        }
    }

    #[test]
    fn workers_hashing_one_shared_unit_agree_with_one_worker() {
        let sweep = fig6(Some(vec!["gamess"]), 2);
        let serial =
            Runner::new(1).run_sweep_shard(&sweep, Scale::Test, "", None, Shard::full(), None);
        let serial = fingerprints(&serial.expect("storeless runs cannot fail"));
        let runner = Runner::new(2);
        let set =
            sweep.workload_set_from(&mut runner.units.lock().expect("unpoisoned"), Scale::Test);
        assert!(set.units[0].program_shas.get().is_none());
        // Both workers reach the unit's empty memo together.
        let barrier = std::sync::Barrier::new(2);
        let raced = runner.map(&sweep.schemes, |col| {
            barrier.wait();
            job_fingerprint(&set.units[0], &col.scheme, Scale::Test, &sweep.config)
        });
        assert_eq!(raced, serial);
        let run = runner.run_sweep_shard(&sweep, Scale::Test, "", None, Shard::full(), None);
        let run = run.expect("storeless runs cannot fail");
        assert!(Arc::ptr_eq(&run.set.units[0], &set.units[0]));
        assert_eq!(fingerprints(&run), serial);
    }
}
