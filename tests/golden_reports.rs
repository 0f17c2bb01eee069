//! Golden-output suite for the engine rewrite: every report and every
//! job fingerprint must be byte-identical to the committed fixtures,
//! which were captured from the tree *before* the cycle-skipping /
//! allocation-free engine landed. Any engine change that alters a cycle
//! count, a counter, or a fingerprint fails here.
//!
//! Three layers, by cost:
//!
//! * fingerprints — all sweep jobs, computed without simulating; always on;
//! * a small simulated subset — a few (workload × scheme) jobs through
//!   the real `micro2021()` machine, covering every scheme's load path;
//!   always on;
//! * the full registry at `--scale test` — identical to the stdout of
//!   `gm-run --scale test`; `#[ignore]`d because it simulates for
//!   minutes (CI runs the comparison in release in its timed cold-run
//!   step, and locally: `cargo test --release -- --ignored golden`).
//!
//! The stdout fixtures print ratios to three decimals, so a one-cycle
//! drift can hide in them. `results_test_scale.txt` closes that gap: one
//! line per sweep job with its exact cycle count and the SHA-256 of its
//! whole result record (every per-core statistic and every memory-system
//! counter, including which counters were touched) rendered with
//! `wall_us` zeroed. The subset test checks its jobs against the same
//! lines.
//!
//! Regenerate fixtures after an *intentional* behaviour change with
//! `GM_UPDATE_GOLDEN=1 cargo test --release --test golden_reports -- --include-ignored`.

use gm_bench::experiment::{registry, ExperimentKind};
use gm_bench::report::{report_text, run_experiment};
use gm_bench::runner::Runner;
use gm_results::{job_fingerprint, sha256_hex};
use gm_stats::Json;
use gm_workloads::Scale;
use std::path::Path;

fn golden_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_or_update(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    assert!(
        expected == actual,
        "{name} drifted from the committed pre-rewrite fixture;\n\
         if the change is intentional, regenerate with GM_UPDATE_GOLDEN=1\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

/// Every sweep job's content address, in report order. No simulation:
/// this pins that the engine rewrite changed neither the fingerprint
/// inputs (program content, scheme, config renderings) nor the cache
/// hit behaviour of stores written before the rewrite, and that the
/// fixture covers exactly the registry's job count. Always on: the 875
/// jobs hash in seconds in a debug build on a CPU with the SHA
/// instructions, which `gm_results::hash` uses when present.
#[test]
fn fingerprints_match_committed_golden() {
    let mut lines = String::new();
    let mut expected_jobs = 0usize;
    for exp in registry() {
        let ExperimentKind::Sweep(sweep) = &exp.kind else {
            continue;
        };
        let set = sweep.workload_set(Scale::Test);
        expected_jobs += set.units.len() * sweep.schemes.len();
        for unit in &set.units {
            for col in &sweep.schemes {
                let fp = job_fingerprint(unit, &col.scheme, Scale::Test, &sweep.config);
                lines.push_str(&format!("{} {} {} {fp}\n", exp.name, unit.name, col.label));
            }
        }
    }
    if std::env::var_os("GM_UPDATE_GOLDEN").is_none() {
        // A registry change reports as a job count before the full diff.
        let fixture = std::fs::read_to_string(golden_path("fingerprints.txt"))
            .expect("committed fingerprint fixture");
        assert_eq!(
            fixture.lines().count(),
            expected_jobs,
            "fixture job count no longer matches the registry"
        );
    }
    check_or_update("fingerprints.txt", &lines);
}

/// One `experiment workload scheme cycles sha256` line per job record
/// in `results`, the digest taken over the record rendered with
/// `wall_us` set to 0 (the only field that varies between runs).
fn result_digest_lines(experiment: &str, results: &Json) -> String {
    let mut lines = String::new();
    for record in results.as_array().expect("sweep results are an array") {
        let mut record = record.clone();
        let Json::Object(fields) = &mut record else {
            panic!("job record is an object");
        };
        for (key, value) in fields.iter_mut() {
            if key == "wall_us" {
                *value = Json::U64(0);
            }
        }
        let field = |k: &str| record.get(k).and_then(Json::as_str).expect(k).to_owned();
        let cycles = record.get("cycles").and_then(Json::as_u64).expect("cycles");
        lines.push_str(&format!(
            "{experiment} {} {} {cycles} {}\n",
            field("workload"),
            field("scheme"),
            sha256_hex(record.render().as_bytes())
        ));
    }
    lines
}

/// A cheap always-on slice of the full golden comparison through the
/// real Table 1 machine: the two single-scheme sweeps on two workloads
/// each, plus one workload of the Fig. 6 and Fig. 9 lineups, so every
/// scheme's load path (Unsafe, the GhostMinion variants including the
/// IMinion-only data side, MuonTrap(-Flush), InvisiSpec, STT) runs.
/// Pins the rendered reports and each job's exact result digest (the
/// same lines `results_test_scale.txt` holds). Catches cycle/counter
/// drift in seconds.
#[test]
fn subset_reports_match_committed_golden() {
    let runner = Runner::new(1);
    let mut out = String::new();
    let mut digests = String::new();
    for (name, keep) in [
        ("fig10", &["mcf", "lbm"][..]),
        ("power", &["astar", "milc"][..]),
        ("fig6", &["gcc"][..]),
        ("fig9", &["gcc"][..]),
    ] {
        let mut exp = gm_bench::experiment::find(name).expect("registered");
        let ExperimentKind::Sweep(sweep) = &mut exp.kind else {
            panic!("{name} is a sweep");
        };
        sweep.workloads = Some(keep.to_vec());
        let rendered = run_experiment(&runner, &exp, Scale::Test, None, None)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push_str(&report_text(exp.title, &rendered));
        digests.push_str(&result_digest_lines(exp.name, &rendered.results));
    }
    check_or_update("subset_reports.txt", &out);
    if std::env::var_os("GM_UPDATE_GOLDEN").is_none() {
        let fixture = std::fs::read_to_string(golden_path("results_test_scale.txt"))
            .expect("committed results fixture");
        let pinned: std::collections::HashSet<&str> = fixture.lines().collect();
        for line in digests.lines() {
            assert!(
                pinned.contains(line),
                "job result drifted from results_test_scale.txt: {line}"
            );
        }
    }
}

/// The full registry at `--scale test`: byte-identical to the stdout of
/// `gm-run --scale test` captured before the engine rewrite, and every
/// sweep job's exact cycles and result digest identical to
/// `results_test_scale.txt`. Simulates every job — run in release
/// (CI's timed cold-run step `cmp`s the real gm-run stdout against the
/// same stdout fixture and then runs this test).
#[test]
#[ignore = "simulates the whole registry; run in release or rely on CI"]
fn full_registry_reports_match_committed_golden() {
    let runner = Runner::new(0);
    let mut out = String::new();
    let mut digests = String::new();
    for exp in registry() {
        let rendered = run_experiment(&runner, &exp, Scale::Test, None, None)
            .unwrap_or_else(|e| panic!("{}: {e}", exp.name));
        out.push_str(&report_text(exp.title, &rendered));
        if matches!(exp.kind, ExperimentKind::Sweep(_)) {
            digests.push_str(&result_digest_lines(exp.name, &rendered.results));
        }
    }
    check_or_update("gm_run_test_scale.txt", &out);
    check_or_update("results_test_scale.txt", &digests);
}
