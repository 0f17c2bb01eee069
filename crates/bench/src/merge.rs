//! Shard documents and the `gm-run merge` recombination.
//!
//! A shard run (`gm-run --shard K/N --json shardK.json`) cannot render
//! report tables — a normalised column needs the baseline job, which may
//! live on another machine — so it emits only its slice of per-job
//! records, wrapped in a *shard document*. [`merge_docs`] validates a
//! complete set of such documents (same scale, same shard count, every
//! index present exactly once), reassembles the full job grid per
//! experiment, re-renders every report, and re-verifies each record
//! against a freshly computed fingerprint — so merging shards produced
//! by a different configuration or code version fails loudly instead of
//! mixing incompatible results.
//!
//! Non-sweep experiments (`security`, `table1`) involve no long
//! simulation: shard 1 carries them in its document for completeness,
//! and the merge re-executes them locally, which is deterministic and
//! cheap. The merged stdout/JSON is therefore bit-identical to what an
//! unsharded `gm-run` against the same store prints (sweep wall-clocks
//! are replayed from the records, so even the `wall_us` fields match).

use crate::experiment::{self, Experiment, ExperimentKind, Sweep};
use crate::report::{render_sweep, run_experiment, sweep_results_json, ExperimentOutput};
use crate::runner::{CacheStats, Job, Runner, Shard, SweepRun};
use gm_results::{job_fingerprint, record_fingerprint, record_wall_us, result_from_record};
use gm_stats::Json;
use gm_workloads::Scale;
use std::collections::HashMap;

/// Builds the experiment entry of a shard document: the experiment's
/// identity, the workload axis it ran over (so the merge can rebuild
/// the grid even under a `--workloads` filter), and this shard's
/// records.
pub fn shard_entry(exp: &Experiment, scale: Scale, run: &SweepRun, sweep: &Sweep) -> Json {
    let mut entry = Json::object();
    entry
        .set("name", exp.name)
        .set("title", exp.title)
        .set("scale", scale.name())
        .set(
            "workloads",
            Json::Array(run.set.units.iter().map(|u| u.name.into()).collect()),
        )
        .set("results", sweep_results_json(sweep, run));
    entry
}

/// The entry for a non-sweep experiment (carried by shard 1 only).
pub fn shard_nonsweep_entry(exp: &Experiment, scale: Scale, out: &ExperimentOutput) -> Json {
    let mut entry = Json::object();
    entry
        .set("name", exp.name)
        .set("title", exp.title)
        .set("scale", scale.name())
        .set("results", out.results.clone());
    entry
}

/// Wraps a shard's experiment entries into its output document.
pub fn shard_doc(program: &str, scale: Scale, shard: Shard, entries: Vec<Json>) -> Json {
    let mut shard_j = Json::object();
    shard_j
        .set("index", u64::from(shard.index()))
        .set("count", u64::from(shard.count()));
    let mut doc = Json::object();
    doc.set("generator", program)
        .set("scale", scale.name())
        .set("shard", shard_j)
        .set("experiments", Json::Array(entries));
    doc
}

/// A fully merged run: per-experiment outputs in registry order, plus
/// the scale the shards agreed on.
#[derive(Debug)]
pub struct Merged {
    pub scale: Scale,
    pub outputs: Vec<(Experiment, ExperimentOutput)>,
}

fn doc_scale(doc: &Json) -> Result<Scale, String> {
    let name = doc
        .get("scale")
        .and_then(Json::as_str)
        .ok_or("shard document has no scale")?;
    Scale::from_name(name).ok_or_else(|| format!("unknown scale {name:?}"))
}

fn doc_shard(doc: &Json) -> Result<(u64, u64), String> {
    let shard = doc
        .get("shard")
        .ok_or("document has no shard field (it was not produced by gm-run --shard)")?;
    let index = shard
        .get("index")
        .and_then(Json::as_u64)
        .ok_or("shard.index missing")?;
    let count = shard
        .get("count")
        .and_then(Json::as_u64)
        .ok_or("shard.count missing")?;
    Ok((index, count))
}

/// Validates the shard set and merges it. `runner` supplies the
/// sweeps' workload units and re-executes the non-sweep experiments.
pub fn merge_docs(docs: &[Json], runner: &Runner) -> Result<Merged, String> {
    if docs.is_empty() {
        return Err("no shard documents to merge".into());
    }
    let scale = doc_scale(&docs[0])?;
    let (_, count) = doc_shard(&docs[0])?;
    if docs.len() as u64 != count {
        return Err(format!(
            "shard set incomplete: documents declare {count} shards, got {}",
            docs.len()
        ));
    }
    let mut seen = vec![false; count as usize];
    for doc in docs {
        if doc_scale(doc)? != scale {
            return Err("shards disagree on --scale".into());
        }
        let (index, c) = doc_shard(doc)?;
        if c != count {
            return Err("shards disagree on the shard count".into());
        }
        if index == 0 || index > count {
            return Err(format!("shard index {index} out of range 1..={count}"));
        }
        if std::mem::replace(&mut seen[(index - 1) as usize], true) {
            return Err(format!("shard {index}/{count} appears twice"));
        }
    }

    // Gather each experiment's records and workload axis across shards.
    struct Gathered {
        workloads: Option<Vec<String>>,
        records: Vec<Json>,
    }
    let mut gathered: HashMap<String, Gathered> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    for doc in docs {
        let entries = doc
            .get("experiments")
            .and_then(Json::as_array)
            .ok_or("shard document has no experiments array")?;
        for entry in entries {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or("experiment entry has no name")?
                .to_owned();
            if experiment::find(&name).is_none() {
                return Err(format!("unknown experiment {name:?} in shard document"));
            }
            let g = gathered.entry(name.clone()).or_insert_with(|| {
                order.push(name.clone());
                Gathered {
                    workloads: None,
                    records: Vec::new(),
                }
            });
            if let Some(ws) = entry.get("workloads").and_then(Json::as_array) {
                let names: Vec<String> = ws
                    .iter()
                    .map(|w| w.as_str().map(str::to_owned))
                    .collect::<Option<_>>()
                    .ok_or("workloads entries must be strings")?;
                match &g.workloads {
                    None => g.workloads = Some(names),
                    Some(prev) if *prev == names => {}
                    Some(_) => return Err(format!("shards disagree on {name}'s workload axis")),
                }
            }
            if let Some(records) = entry.get("results").and_then(Json::as_array) {
                g.records.extend(records.iter().cloned());
            }
        }
    }

    // Registry order, like an unsharded run over the same selection.
    order.sort_by_key(|name| {
        experiment::registry()
            .iter()
            .position(|e| e.name == *name)
            .expect("validated above")
    });

    let mut outputs = Vec::new();
    for name in order {
        let exp = experiment::find(&name).expect("validated above");
        let g = &gathered[&name];
        match &exp.kind {
            ExperimentKind::Sweep(sweep) => {
                let workloads = g.workloads.as_deref();
                let run = reassemble_sweep(runner, &name, sweep, scale, workloads, &g.records)?;
                let results = run.to_results();
                let (preamble, table, postamble) = render_sweep(sweep, &results);
                let out = ExperimentOutput {
                    preamble,
                    table,
                    postamble,
                    results: sweep_results_json(sweep, &run),
                    cache: CacheStats::default(),
                    sim_wall_us: 0,
                    sim_cycles: 0,
                    slowest: None,
                    // Merge verifies full coverage, so there is nothing
                    // to annotate: shard docs carry only completed jobs.
                    failures: Vec::new(),
                };
                outputs.push((exp, out));
            }
            // Deterministic and simulation-free (or nearly so): re-run
            // locally rather than persisting table renderings in shards.
            ExperimentKind::Security | ExperimentKind::Table1 => {
                let out = run_experiment(runner, &exp, scale, None, None)?;
                outputs.push((exp, out));
            }
        }
    }
    Ok(Merged { scale, outputs })
}

/// Rebuilds the full job grid of one sweep from merged records,
/// verifying coverage (no job missing), disjointness (no job twice),
/// and integrity (every record matches its freshly computed
/// fingerprint). The units come from `runner`, so experiments sharing
/// a unit build it once.
fn reassemble_sweep(
    runner: &Runner,
    name: &str,
    sweep: &Sweep,
    scale: Scale,
    workloads: Option<&[String]>,
    records: &[Json],
) -> Result<SweepRun, String> {
    let mut sweep = sweep.clone();
    if let Some(names) = workloads {
        let statics: Vec<&'static str> = sweep
            .unit_names()
            .into_iter()
            .filter(|n| names.iter().any(|m| m == n))
            .collect();
        if statics.len() != names.len() {
            return Err(format!(
                "{name}: shard workload axis names unknown workloads"
            ));
        }
        sweep.workloads = Some(statics);
    }
    let set = runner.workload_set(&sweep, scale);

    let mut by_key: HashMap<(String, String), &Json> = HashMap::new();
    for record in records {
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{name}: record has no workload"))?;
        let scheme = record
            .get("scheme")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{name}: record has no scheme"))?;
        if by_key
            .insert((workload.to_owned(), scheme.to_owned()), record)
            .is_some()
        {
            return Err(format!(
                "{name}: job ({workload}, {scheme}) appears in more than one shard"
            ));
        }
    }

    let mut rows: Vec<Vec<Option<Job>>> = Vec::with_capacity(set.units.len());
    let mut used = 0usize;
    for unit in &set.units {
        let mut row = Vec::with_capacity(sweep.schemes.len());
        for col in &sweep.schemes {
            let record = by_key
                .get(&(unit.name.to_owned(), col.label.clone()))
                .ok_or_else(|| {
                    format!(
                        "{name}: job ({}, {}) missing — incomplete shard set",
                        unit.name, col.label
                    )
                })?;
            used += 1;
            let expected = job_fingerprint(unit, &col.scheme, scale, &sweep.config);
            let stored = record_fingerprint(record).map_err(|e| format!("{name}: {e}"))?;
            if stored != expected {
                return Err(format!(
                    "{name}: job ({}, {}) fingerprint mismatch — shards were produced \
                     by a different configuration or code version",
                    unit.name, col.label
                ));
            }
            let result = result_from_record(record, unit.name, col.scheme.name())
                .map_err(|e| format!("{name}: ({}, {}): {e}", unit.name, col.label))?;
            let wall_us = record_wall_us(record).map_err(|e| format!("{name}: {e}"))?;
            row.push(Some(Job {
                result,
                wall_us,
                fingerprint: stored.to_owned(),
                cached: true,
            }));
        }
        rows.push(row);
    }
    if used != records.len() {
        return Err(format!(
            "{name}: {} record(s) do not correspond to any expected job",
            records.len() - used
        ));
    }
    Ok(SweepRun {
        set,
        rows,
        cache: CacheStats::default(),
        // Shard documents carry only completed jobs; a failed job shows
        // up as missing coverage, which reassembly rejects above.
        failures: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_validation_rejects_inconsistent_shard_sets() {
        let runner = Runner::new(1);
        assert!(merge_docs(&[], &runner).is_err());

        let doc = |index: u64, count: u64, scale: &str| {
            let mut s = Json::object();
            s.set("index", index).set("count", count);
            let mut d = Json::object();
            d.set("generator", "gm-run")
                .set("scale", scale)
                .set("shard", s)
                .set("experiments", Json::Array(Vec::new()));
            d
        };
        // Missing shard 2 of 2.
        let err = merge_docs(&[doc(1, 2, "test")], &runner).unwrap_err();
        assert!(err.contains("incomplete"), "{err}");
        // Duplicate index.
        let err = merge_docs(&[doc(1, 2, "test"), doc(1, 2, "test")], &runner).unwrap_err();
        assert!(err.contains("twice"), "{err}");
        // Scale mismatch.
        let err = merge_docs(&[doc(1, 2, "test"), doc(2, 2, "bench")], &runner).unwrap_err();
        assert!(err.contains("scale"), "{err}");
        // Unsharded document.
        let mut plain = Json::object();
        plain.set("generator", "gm-run").set("scale", "test");
        let err = merge_docs(&[plain], &runner).unwrap_err();
        assert!(err.contains("--shard"), "{err}");
        // A valid but empty singleton set merges to nothing.
        let merged = merge_docs(&[doc(1, 1, "test")], &runner).unwrap();
        assert!(merged.outputs.is_empty());
        assert_eq!(merged.scale, Scale::Test);
    }

    #[test]
    fn shard_workload_axis_must_name_suite_units() {
        let runner = Runner::new(1);
        let doc = |workloads: &[&str]| {
            let mut s = Json::object();
            s.set("index", 1u64).set("count", 1u64);
            let mut e = Json::object();
            e.set("name", "fig7")
                .set(
                    "workloads",
                    Json::Array(workloads.iter().map(|&w| w.into()).collect()),
                )
                .set("results", Json::Array(Vec::new()));
            let mut d = Json::object();
            d.set("generator", "gm-run")
                .set("scale", "test")
                .set("shard", s)
                .set("experiments", Json::Array(vec![e]));
            d
        };
        // mcf is a SPEC2006 unit, not one of fig7's Parsec units.
        let err = merge_docs(&[doc(&["canneal", "mcf"])], &runner).unwrap_err();
        assert!(err.contains("names unknown workloads"), "{err}");
        // A known name passes the axis check and fails on coverage.
        let err = merge_docs(&[doc(&["canneal"])], &runner).unwrap_err();
        assert!(err.contains("(canneal, Unsafe) missing"), "{err}");
    }

    #[test]
    fn merging_two_spec2006_experiments_builds_each_unit_once() {
        let merger = Runner::new(1);
        let gamess = ["gamess".to_owned()];
        let sets: Vec<_> = ["fig10", "power"]
            .into_iter()
            .map(|name| {
                let Some(Experiment {
                    kind: ExperimentKind::Sweep(sweep),
                    ..
                }) = experiment::find(name)
                else {
                    panic!("{name} is a sweep");
                };
                let mut one = (*sweep).clone();
                one.workloads = Some(vec!["gamess"]);
                let run = Runner::new(1).run_sweep_shard(
                    &one,
                    Scale::Test,
                    name,
                    None,
                    Shard::full(),
                    None,
                );
                let records = sweep_results_json(&one, &run.expect("storeless runs cannot fail"));
                let records = records.as_array().expect("records array");
                reassemble_sweep(&merger, name, &sweep, Scale::Test, Some(&gamess), records)
                    .expect("complete shard set")
                    .set
            })
            .collect();
        assert!(
            std::sync::Arc::ptr_eq(&sets[0].units[0], &sets[1].units[0]),
            "the second experiment built gamess again"
        );
    }
}
