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
//!   the real `micro2021()` machine; always on;
//! * the full registry at `--scale test` — identical to the stdout of
//!   `gm-run --scale test`; `#[ignore]`d because it simulates for
//!   minutes (CI runs the comparison in release in its timed cold-run
//!   step, and locally: `cargo test --release -- --ignored golden`).
//!
//! Regenerate fixtures after an *intentional* behaviour change with
//! `GM_UPDATE_GOLDEN=1 cargo test --release --test golden_reports -- --include-ignored`.

use gm_bench::experiment::{registry, ExperimentKind};
use gm_bench::report::{report_text, run_experiment};
use gm_bench::runner::Runner;
use gm_results::job_fingerprint;
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

/// A cheap always-on slice of the full golden comparison: the two
/// single-scheme sweeps restricted to two workloads each, through the
/// real Table 1 machine. Catches cycle/counter drift in seconds.
#[test]
fn subset_reports_match_committed_golden() {
    let runner = Runner::new(1);
    let mut out = String::new();
    for (name, keep) in [("fig10", ["mcf", "lbm"]), ("power", ["astar", "milc"])] {
        let mut exp = gm_bench::experiment::find(name).expect("registered");
        let ExperimentKind::Sweep(sweep) = &mut exp.kind else {
            panic!("{name} is a sweep");
        };
        sweep.workloads = Some(keep.to_vec());
        let rendered = run_experiment(&runner, &exp, Scale::Test, None, None)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push_str(&report_text(exp.title, &rendered));
    }
    check_or_update("subset_reports.txt", &out);
}

/// The full registry at `--scale test`: byte-identical to the stdout of
/// `gm-run --scale test` captured before the engine rewrite. Simulates
/// every job — run in release (CI's timed cold-run step `cmp`s the real
/// gm-run stdout against the same fixture).
#[test]
#[ignore = "simulates the whole registry; run in release or rely on CI's cmp"]
fn full_registry_reports_match_committed_golden() {
    let runner = Runner::new(0);
    let mut out = String::new();
    for exp in registry() {
        let rendered = run_experiment(&runner, &exp, Scale::Test, None, None)
            .unwrap_or_else(|e| panic!("{}: {e}", exp.name));
        out.push_str(&report_text(exp.title, &rendered));
    }
    check_or_update("gm_run_test_scale.txt", &out);
}
