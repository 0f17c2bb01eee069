//! Turns raw sweep results into the figures' tables, extra report
//! lines, and structured JSON.

use crate::experiment::{Experiment, ExperimentKind, Report, Sweep};
use crate::runner::{CacheStats, JobFailure, Runner, Shard, SweepResults, SweepRun};
use crate::telemetry::Telemetry;
use ghostminion::{Scheme, SystemConfig};
use gm_attacks::{run_all, spectre_rewind, spectre_v1_string};
use gm_results::{job_record, ResultStore};
use gm_stats::{geomean, Json, Table};
use gm_workloads::Scale;

/// Everything one experiment produces: lines printed before the table,
/// the table itself, lines printed after it, the raw per-job results
/// for JSON output, and runner telemetry for the stderr summary.
#[derive(Debug)]
pub struct ExperimentOutput {
    pub preamble: Vec<String>,
    pub table: Table,
    pub postamble: Vec<String>,
    /// Per-job raw results (empty array for non-sweep experiments).
    pub results: Json,
    /// Cache hit/miss counts (zero for non-sweep experiments; without a
    /// store every job is a miss).
    pub cache: CacheStats,
    /// Wall-clock spent simulating cache misses, µs.
    pub sim_wall_us: u64,
    /// Simulated cycles across cache misses (throughput telemetry).
    pub sim_cycles: u64,
    /// Slowest simulated job as ("workload/scheme", µs).
    pub slowest: Option<(String, u64)>,
    /// Jobs that exhausted supervision (empty on a fault-free run, so
    /// fault-free stdout and JSON are byte-identical to a run made with
    /// a build that predates supervision).
    pub failures: Vec<JobFailure>,
}

impl ExperimentOutput {
    fn non_sweep(
        table: Table,
        preamble: Vec<String>,
        postamble: Vec<String>,
        results: Json,
    ) -> Self {
        Self {
            preamble,
            table,
            postamble,
            results,
            cache: CacheStats::default(),
            sim_wall_us: 0,
            sim_cycles: 0,
            slowest: None,
            failures: Vec::new(),
        }
    }
}

/// Executes one registered experiment end to end, consulting (and
/// feeding) `store` for sweep jobs. With `telemetry`, the experiment
/// is bracketed by an `experiment_start`/`experiment_end` span and
/// sweep jobs emit their own spans (see [`crate::telemetry`]).
pub fn run_experiment(
    runner: &Runner,
    exp: &Experiment,
    scale: Scale,
    store: Option<&ResultStore>,
    telemetry: Option<&Telemetry>,
) -> Result<ExperimentOutput, String> {
    if let Some(tel) = telemetry {
        tel.emit("experiment_start", |j| {
            j.set("experiment", exp.name);
        });
    }
    let out = match &exp.kind {
        ExperimentKind::Sweep(sweep) => {
            let run =
                runner.run_sweep_shard(sweep, scale, exp.name, store, Shard::full(), telemetry)?;
            let (results, omitted) = run.complete_results();
            let (preamble, table, mut postamble) = render_sweep(sweep, &results);
            // Failure annotations: absent on a fault-free run, so golden
            // stdout fixtures never see them.
            for f in &run.failures {
                postamble.push(format!("!! job failed: {f}"));
            }
            for name in &omitted {
                postamble.push(format!("!! row omitted: {name} (incomplete scheme lineup)"));
            }
            Ok(ExperimentOutput {
                preamble,
                table,
                postamble,
                results: sweep_results_json(sweep, &run),
                cache: run.cache,
                sim_wall_us: run.sim_wall_us(),
                sim_cycles: run.sim_cycles(),
                slowest: run.slowest_sim(sweep),
                failures: run.failures.clone(),
            })
        }
        ExperimentKind::Security => Ok(security_report(runner)),
        ExperimentKind::Table1 => Ok(ExperimentOutput::non_sweep(
            table1_table(&SystemConfig::micro2021()),
            Vec::new(),
            Vec::new(),
            Json::Array(Vec::new()),
        )),
    };
    if let (Some(tel), Ok(out)) = (telemetry, &out) {
        tel.emit("experiment_end", |j| {
            j.set("experiment", exp.name)
                .set("jobs", out.cache.hits + out.cache.misses)
                .set("hits", out.cache.hits)
                .set("misses", out.cache.misses)
                .set("sim_wall_us", out.sim_wall_us);
            if !out.failures.is_empty() {
                j.set("failed", out.failures.len() as u64);
            }
        });
    }
    out
}

/// The exact stdout of one experiment: preamble lines, the table in
/// human and CSV form, postamble lines. `gm-run` and `gm-run merge`
/// both print this string, which is what makes
/// "merged output is bit-identical to an unsharded run" a string
/// equality.
pub fn report_text(title: &str, out: &ExperimentOutput) -> String {
    let mut s = String::new();
    for line in &out.preamble {
        s.push_str(line);
        s.push('\n');
    }
    s.push_str(&format!("== {title} ==\n\n"));
    s.push_str(&out.table.render());
    s.push('\n');
    s.push_str("-- csv --\n");
    s.push_str(&out.table.to_csv());
    s.push('\n');
    for line in &out.postamble {
        s.push_str(line);
        s.push('\n');
    }
    s
}

/// Renders a sweep's results according to its report rule.
pub fn render_sweep(sweep: &Sweep, res: &SweepResults) -> (Vec<String>, Table, Vec<String>) {
    match sweep.report {
        Report::NormalizedTime => (Vec::new(), normalized_table(sweep, res), Vec::new()),
        Report::LoadFractions { denom, events } => {
            (Vec::new(), fractions_table(res, denom, events), Vec::new())
        }
        Report::DynamicPower => power_tables(sweep, res),
        Report::StrictFu => (Vec::new(), strict_fu_table(res), Vec::new()),
    }
}

/// The generalized normalised-execution-time sweep (Figures 6–9, 11):
/// one row per workload unit, one column per non-baseline scheme, each
/// value `cycles / baseline cycles`, plus a geomean row. Works for any
/// [`gm_workloads::WorkloadSet`] — single-threaded and multi-threaded
/// units alike.
fn normalized_table(sweep: &Sweep, res: &SweepResults) -> Table {
    assert!(!sweep.schemes.is_empty());
    let mut header = vec!["workload".to_owned()];
    header.extend(sweep.schemes.iter().skip(1).map(|c| c.label.clone()));
    let mut table = Table::new(header);
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); sweep.schemes.len() - 1];
    for (unit, row_results) in res.set.units.iter().zip(&res.rows) {
        let base = row_results[0].cycles as f64;
        let mut row = Vec::new();
        for (i, r) in row_results.iter().skip(1).enumerate() {
            let ratio = r.cycles as f64 / base;
            columns[i].push(ratio);
            row.push(ratio);
        }
        table.row_f64(unit.name, &row);
    }
    if !res.rows.is_empty() {
        let geo: Vec<f64> = columns
            .iter()
            .map(|c| geomean(c).expect("all ratios positive"))
            .collect();
        table.row_f64("geomean", &geo);
    }
    table
}

/// Figure 10: each event counter as a fraction of `denom`. The names
/// are the column headers, so the counters are read by name.
fn fractions_table(res: &SweepResults, denom: &str, events: &[&str]) -> Table {
    let mut header = vec!["workload".to_owned()];
    header.extend(events.iter().map(|e| (*e).to_owned()));
    let mut table = Table::new(header);
    for (unit, row_results) in res.set.units.iter().zip(&res.rows) {
        let stats = &row_results[0].mem_stats;
        let count = |name: &str| {
            stats
                .get(name)
                .unwrap_or_else(|| panic!("{name:?} is not a memory-system counter"))
        };
        let total = count(denom).max(1) as f64;
        let mut cells = vec![unit.name.to_owned()];
        for e in events {
            cells.push(format!("{:.5}", count(e) as f64 / total));
        }
        table.row(cells);
    }
    table
}

/// §6.5: CACTI-anchored SRAM preamble plus per-workload dynamic power.
fn power_tables(sweep: &Sweep, res: &SweepResults) -> (Vec<String>, Table, Vec<String>) {
    use gm_energy::{dynamic_uw, section65_report, sram_model};
    let minion_bytes = sweep.schemes[0]
        .scheme
        .gm_config()
        .map(|c| c.minion_bytes)
        .unwrap_or(2048);
    let minion = sram_model(minion_bytes);
    let preamble = vec![
        "== \u{a7}6.5 CACTI-anchored SRAM model ==".to_owned(),
        String::new(),
        section65_report(),
    ];
    let mut table = Table::new(vec![
        "workload".into(),
        "dminion(\u{b5}W)".into(),
        "iminion(\u{b5}W)".into(),
    ]);
    let (mut max_d, mut max_i) = (0.0f64, 0.0f64);
    for (unit, row_results) in res.set.units.iter().zip(&res.rows) {
        let r = &row_results[0];
        let d = dynamic_uw(
            &minion,
            r.mem_stats.energy_minion_reads,
            r.mem_stats.energy_minion_writes,
            r.cycles,
        );
        let i = dynamic_uw(
            &minion,
            r.mem_stats.energy_iminion_reads,
            r.mem_stats.energy_iminion_writes,
            r.cycles,
        );
        max_d = max_d.max(d);
        max_i = max_i.max(i);
        table.row(vec![
            unit.name.to_owned(),
            format!("{d:.2}"),
            format!("{i:.2}"),
        ]);
    }
    let postamble = vec![format!(
        "maximum dynamic draw: data {max_d:.2} \u{b5}W, instruction {max_i:.2} \u{b5}W"
    )];
    (preamble, table, postamble)
}

/// §4.9: strict-vs-greedy ratio and delay counts. Lineup order is
/// [greedy, strict].
fn strict_fu_table(res: &SweepResults) -> Table {
    let mut table = Table::new(vec![
        "workload".into(),
        "strict/greedy".into(),
        "strict_delays".into(),
    ]);
    let mut ratios = Vec::new();
    for (unit, row_results) in res.set.units.iter().zip(&res.rows) {
        let (greedy, strict) = (&row_results[0], &row_results[1]);
        let ratio = strict.cycles as f64 / greedy.cycles as f64;
        ratios.push(ratio);
        table.row(vec![
            unit.name.to_owned(),
            format!("{ratio:.4}"),
            strict.core_stats[0].strict_fu_delays.to_string(),
        ]);
    }
    if !ratios.is_empty() {
        table.row(vec![
            "geomean".into(),
            format!("{:.4}", geomean(&ratios).unwrap()),
            String::new(),
        ]);
    }
    table
}

/// The raw (workload × scheme) results as a JSON array of
/// [`gm_results::record`] objects: enough metadata per job to re-derive
/// any figure offline, reconstruct a [`ghostminion::MachineResult`]
/// (`gm-run merge` does exactly that), or seed a result store. Jobs
/// owned by other shards are simply absent.
pub fn sweep_results_json(sweep: &Sweep, run: &SweepRun) -> Json {
    let mut jobs = Vec::new();
    for (unit, row) in run.set.units.iter().zip(&run.rows) {
        for (col, job) in sweep.schemes.iter().zip(row) {
            let Some(job) = job else { continue };
            jobs.push(job_record(
                unit.name,
                &col.label,
                &job.result,
                job.wall_us,
                &job.fingerprint,
            ));
        }
    }
    Json::Array(jobs)
}

/// The security litmus matrix: every attack against every scheme in the
/// figure lineup (parallel over schemes), plus the §4.9 strict-FU
/// variant and the Spectre v1 string-recovery demo.
fn security_report(runner: &Runner) -> ExperimentOutput {
    const ATTACKS: [&str; 3] = ["spectre-v1", "rewind", "interference"];
    let schemes = Scheme::figure_lineup();
    let outcomes = runner.map(&schemes, |&s| run_all(s));

    let mut table = Table::new(vec![
        "scheme".into(),
        ATTACKS[0].into(),
        ATTACKS[1].into(),
        ATTACKS[2].into(),
    ]);
    let mut results = Vec::new();
    let verdict = |leaked: bool| if leaked { "LEAKS" } else { "safe" };
    for (scheme, per_scheme) in schemes.iter().zip(&outcomes) {
        let mut cells = vec![scheme.name().to_owned()];
        for (attack, o) in ATTACKS.iter().zip(per_scheme) {
            cells.push(verdict(o.leaked).to_owned());
            let mut job = Json::object();
            job.set("scheme", scheme.name())
                .set("attack", *attack)
                .set("leaked", o.leaked);
            results.push(job);
        }
        table.row(cells);
    }

    // GhostMinion with §4.9 FU ordering closes the divider channel.
    let mut strict = Scheme::ghost_minion();
    strict.strict_fu_order = true;
    let rewind = spectre_rewind(strict);
    table.row(vec![
        "GhostMinion+\u{a7}4.9".into(),
        "safe".into(),
        verdict(rewind.leaked).into(),
        "safe".into(),
    ]);
    let mut job = Json::object();
    job.set("scheme", "GhostMinion+\u{a7}4.9")
        .set("attack", "rewind")
        .set("leaked", rewind.leaked);
    results.push(job);

    let (recovered, planted) = spectre_v1_string(Scheme::unsafe_baseline(), b"GHOST");
    let postamble = vec![format!(
        "spectre-v1 string recovery on Unsafe: planted {:?}, recovered {:?}",
        String::from_utf8_lossy(&planted),
        String::from_utf8_lossy(&recovered)
    )];

    ExperimentOutput::non_sweep(table, Vec::new(), postamble, Json::Array(results))
}

/// Table 1 as a component/configuration table.
pub fn table1_table(cfg: &SystemConfig) -> Table {
    let c = cfg.core;
    let h = cfg.hierarchy;
    let mut t = Table::new(vec!["component".into(), "configuration".into()]);
    let mut kv = |k: &str, v: String| t.row(vec![k.to_owned(), v]);
    kv(
        "Core",
        format!("{}-wide out-of-order, 2.0 GHz", c.fetch_width),
    );
    kv(
        "Pipeline",
        format!(
            "{}-entry ROB, {}-entry IQ, {}-entry LQ, {}-entry SQ, \
             {} Int / {} FP registers, {} Int ALUs, {} FP ALUs, {} Mult/Div ALUs",
            c.rob_entries,
            c.iq_entries,
            c.lq_entries,
            c.sq_entries,
            c.int_regs,
            c.fp_regs,
            c.int_alu,
            c.fp_alu,
            c.muldiv
        ),
    );
    kv(
        "Predictor",
        format!(
            "tournament 2-bit, {}-entry local, {} global, {} choice, {} BTB, {} RAS",
            c.bpred.local_entries,
            c.bpred.global_entries,
            c.bpred.choice_entries,
            c.bpred.btb_entries,
            c.bpred.ras_entries
        ),
    );
    kv(
        "L1 ICache",
        format!(
            "{} KiB, {}-way, {}-cycle, {} MSHRs",
            h.l1i.size_bytes / 1024,
            h.l1i.ways,
            h.l1i.latency,
            h.l1_mshrs
        ),
    );
    kv(
        "L1 DCache",
        format!(
            "{} KiB, {}-way, {}-cycle, {} MSHRs",
            h.l1d.size_bytes / 1024,
            h.l1d.ways,
            h.l1d.latency,
            h.l1_mshrs
        ),
    );
    kv(
        "Minions",
        "2 KiB data + 2 KiB instruction, 2-way, accessed with I/D cache".to_owned(),
    );
    kv(
        "L2 Cache",
        format!(
            "{} MiB shared, {}-way, {}-cycle, {} MSHRs, stride prefetcher (64-entry RPT)",
            h.l2.size_bytes / 1024 / 1024,
            h.l2.ways,
            h.l2.latency,
            h.l2_mshrs
        ),
    );
    kv(
        "Memory",
        format!(
            "DDR3-1600-like: {} banks, {} KiB rows, tCAS/tRCD/tRP = {}/{}/{} cycles",
            h.dram.banks,
            h.dram.row_bytes / 1024,
            h.dram.t_cas,
            h.dram.t_rcd,
            h.dram.t_rp
        ),
    );
    t
}

/// Wraps one experiment's output as the JSON object `gm-run` emits.
/// The `"failures"` key is present only when a supervised job failed,
/// so fault-free JSON is byte-identical to pre-supervision fixtures.
pub fn experiment_json(exp: &Experiment, scale: Scale, out: &ExperimentOutput) -> Json {
    let mut j = Json::object();
    j.set("name", exp.name)
        .set("title", exp.title)
        .set("scale", scale.name())
        .set("table", out.table.to_json())
        .set("results", out.results.clone());
    if !out.failures.is_empty() {
        let list = out
            .failures
            .iter()
            .map(|f| {
                let mut o = Json::object();
                o.set("workload", f.workload.as_str())
                    .set("scheme", f.scheme.as_str())
                    .set("kind", f.kind.name())
                    .set("attempts", u64::from(f.attempts))
                    .set("error", f.message.as_str());
                o
            })
            .collect();
        j.set("failures", Json::Array(list));
    }
    j
}
