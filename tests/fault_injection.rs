//! Deterministic fault injection across the harness and the store.
//!
//! Two seams drive every test here:
//!
//! * [`gm_bench::FaultPlan`] — job-level faults (panics, wedges) the
//!   supervised runner must absorb: retry transients, record permanent
//!   failures structurally, and keep the sweep going;
//! * [`gm_results::FaultControl`]/[`gm_results::FaultyIo`] — I/O faults
//!   behind the store's `StoreIo` seam: torn appends at exact byte
//!   offsets, half-written compaction snapshots, failed renames, read
//!   errors, and seeded chaos.
//!
//! The invariants proved: no acknowledged record is ever lost, a
//! crash/corruption at *any* byte boundary degrades to re-simulation
//! (never an abort, never silent data loss — damage is quarantined),
//! and a fault-free rerun after recovery is bit-identical to a run
//! that never saw a fault.

use ghostminion::{Scheme, SystemConfig};
use gm_bench::experiment::{Report, SchemeCol, Sweep};
use gm_bench::report::{render_sweep, sweep_results_json};
use gm_bench::{FailureKind, FaultPlan, Runner, Shard, Supervision};
use gm_results::{sha256_hex, validate_record, FaultControl, FaultyIo, ResultStore};
use gm_stats::Json;
use gm_workloads::{Scale, Suite};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

/// A unique scratch directory under the system temp dir, removed on
/// drop (the offline environment has no `tempfile` crate).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gm-fault-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir creates");
        Self(dir)
    }

    fn store(&self, name: &str) -> ResultStore {
        ResultStore::open(self.0.join(name)).expect("scratch store opens")
    }

    fn faulty_store(&self, name: &str, ctl: &FaultControl) -> ResultStore {
        ResultStore::open_with_io(self.0.join(name), Box::new(FaultyIo::new(ctl.clone())))
            .expect("faulty store opens")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_sweep() -> Sweep {
    Sweep {
        suite: Suite::Spec2006,
        workloads: Some(vec!["gamess", "hmmer"]),
        schemes: vec![
            SchemeCol::named(Scheme::unsafe_baseline()),
            SchemeCol::named(Scheme::ghost_minion()),
        ],
        report: Report::NormalizedTime,
        config: SystemConfig::micro2021(),
    }
}

/// A synthetic store record with a plausible 64-hex fingerprint.
fn rec(tag: u64, cycles: u64) -> Json {
    let mut j = Json::object();
    j.set("fingerprint", sha256_hex(&tag.to_le_bytes()))
        .set("cycles", cycles);
    j
}

/// Blanks the digits after every `"wall_us":` — the one field that is
/// real wall-clock and therefore differs between bit-identical runs.
fn strip_wall(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("\"wall_us\":") {
        let end = at + "\"wall_us\":".len();
        out.push_str(&rest[..end]);
        rest = rest[end..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn a_panicking_job_cannot_sink_the_sweep_and_recovery_is_bit_identical() {
    let scratch = Scratch::new("panic");
    let sweep = small_sweep();

    // Reference: a never-faulted cold run against its own store.
    let clean_store = scratch.store("clean");
    let clean = Runner::new(2)
        .run_sweep_shard(
            &sweep,
            Scale::Test,
            "t",
            Some(&clean_store),
            Shard::full(),
            None,
        )
        .unwrap();
    assert!(clean.failures.is_empty());

    // Faulted run: hmmer/GhostMinion panics on *every* attempt.
    let store = scratch.store("s");
    let faulted = Runner::new(2)
        .with_faults(FaultPlan::none().panic_on("hmmer", "GhostMinion"))
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();

    // The sweep completed around the hole, with a structured failure.
    assert_eq!(faulted.failures.len(), 1);
    let f = &faulted.failures[0];
    assert_eq!(
        (f.workload.as_str(), f.scheme.as_str()),
        ("hmmer", "GhostMinion")
    );
    assert_eq!(f.kind, FailureKind::Panic);
    assert_eq!(f.attempts, 2, "default supervision retried once");
    assert!(f.message.contains("injected fault: panic"), "{}", f.message);
    assert_eq!(faulted.owned_jobs(), 3);
    assert_eq!(
        store.load("t").unwrap().records.len(),
        3,
        "survivors are durable"
    );

    // The report renders the complete rows and names the omission.
    let (res, omitted) = faulted.complete_results();
    assert_eq!(omitted, ["hmmer"]);
    let (_, table, _) = render_sweep(&sweep, &res);
    let text = table.render();
    assert!(text.contains("gamess") && !text.contains("hmmer"));

    // A fault-free rerun against the same store re-simulates only the
    // hole, then is bit-identical to the never-faulted run.
    let healed = Runner::new(2)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    assert!(healed.failures.is_empty());
    assert_eq!((healed.cache.hits, healed.cache.misses), (3, 1));
    let (_, ct, _) = render_sweep(&sweep, &clean.to_results());
    let (_, ht, _) = render_sweep(&sweep, &healed.to_results());
    assert_eq!(ct.render(), ht.render(), "stdout tables bit-identical");
    assert_eq!(ct.to_csv(), ht.to_csv());
    assert_eq!(
        strip_wall(&sweep_results_json(&sweep, &clean).render()),
        strip_wall(&sweep_results_json(&sweep, &healed).render()),
        "JSON bit-identical apart from real wall-clock"
    );
}

#[test]
fn a_transient_fault_heals_on_the_retry_with_no_visible_trace() {
    let scratch = Scratch::new("transient");
    let sweep = small_sweep();
    let store = scratch.store("s");
    let run = Runner::new(2)
        .with_faults(FaultPlan::none().panic_once("gamess", "GhostMinion"))
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    assert!(run.failures.is_empty(), "one retry absorbs a transient");
    assert_eq!((run.cache.hits, run.cache.misses), (0, 4));
    assert_eq!(store.load("t").unwrap().records.len(), 4);

    // Same table as a fault-free run.
    let bare = Runner::new(2).run_sweep(&sweep, Scale::Test);
    let (_, expect, _) = render_sweep(&sweep, &bare);
    let (_, got, _) = render_sweep(&sweep, &run.to_results());
    assert_eq!(expect.render(), got.render());
}

#[test]
fn a_wedged_job_trips_the_wall_clock_budget() {
    let scratch = Scratch::new("wedge");
    let sweep = Sweep {
        workloads: Some(vec!["gamess"]),
        schemes: vec![SchemeCol::named(Scheme::ghost_minion())],
        ..small_sweep()
    };
    let store = scratch.store("s");
    let run = Runner::new(1)
        .with_supervision(Supervision {
            attempts: 1,
            budget: Some(Duration::from_millis(200)),
            strict: false,
        })
        .with_faults(FaultPlan::none().wedge_on("gamess", "GhostMinion"))
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    assert_eq!(run.failures.len(), 1);
    let f = &run.failures[0];
    assert_eq!(f.kind, FailureKind::Timeout);
    assert_eq!(f.attempts, 1);
    assert!(f.message.contains("budget"), "{}", f.message);
    assert_eq!(run.owned_jobs(), 0);
}

#[test]
fn strict_mode_fails_the_run_but_keeps_completed_work() {
    let scratch = Scratch::new("strict");
    let sweep = small_sweep();
    let store = scratch.store("s");
    let err = Runner::new(2)
        .with_supervision(Supervision {
            strict: true,
            ..Supervision::default()
        })
        .with_faults(FaultPlan::none().panic_on("hmmer", "GhostMinion"))
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap_err();
    assert!(err.contains("strict mode"), "{err}");
    assert!(err.contains("hmmer/GhostMinion"), "{err}");
    // Strict failure happens *after* the sweep: the three completed
    // jobs reached the store and a rerun will not repeat them.
    assert_eq!(store.load("t").unwrap().records.len(), 3);
}

#[test]
fn every_torn_append_byte_boundary_is_recoverable() {
    let scratch = Scratch::new("torn");
    let ctl = FaultControl::new();
    let store = scratch.faulty_store("s", &ctl);
    let first = rec(1, 100);
    let second = rec(2, 200);
    // Length of a complete appended line (record + checksum + newline),
    // measured from an undamaged experiment.
    store.append("probe", &second).unwrap();
    let line_len = std::fs::metadata(store.path("probe")).unwrap().len() as usize;

    for keep in 0..=line_len {
        let name = format!("t{keep}");
        store.append(&name, &first).unwrap();
        ctl.truncate_next_append(keep);
        let torn = store.append(&name, &second);
        assert!(torn.is_err(), "a torn append reports failure (keep={keep})");

        // Reopen with clean I/O, as a crashed-and-restarted run would.
        let reopened = scratch.store("s");
        let shard = reopened.load(&name).unwrap();
        let fp1 = first.get("fingerprint").unwrap().as_str().unwrap();
        let fp2 = second.get("fingerprint").unwrap().as_str().unwrap();
        // Invariant 1: the acknowledged record always survives, intact.
        assert_eq!(
            shard.records.get(fp1).map(Json::render),
            Some(first.render()),
            "keep={keep}"
        );
        // Invariant 2: the torn record either loads complete (the cut
        // fell after the payload) or not at all — never mangled.
        if let Some(got) = shard.records.get(fp2) {
            assert_eq!(got.render(), second.render(), "keep={keep}");
        } else {
            // Re-append (re-simulation) restores full coverage.
            reopened.append(&name, &second).unwrap();
            let healed = reopened.load(&name).unwrap();
            assert_eq!(healed.records.len(), 2, "keep={keep}");
        }
        // Invariant 3: compaction heals the file; everything reloads.
        reopened.compact(&name).unwrap();
        let compacted = reopened.load(&name).unwrap();
        assert!(compacted.records.contains_key(fp1), "keep={keep}");
        assert_eq!(compacted.corrupt, 0, "keep={keep}");
    }
}

#[test]
fn compact_and_gc_crash_points_never_lose_records() {
    let scratch = Scratch::new("compact");
    let ctl = FaultControl::new();
    let store = scratch.faulty_store("s", &ctl);
    store.append("t", &rec(1, 1)).unwrap();
    store.append("t", &rec(2, 2)).unwrap();
    store.append("t", &rec(1, 3)).unwrap(); // supersedes rec(1, 1)
    let fp1 = rec(1, 0)
        .get("fingerprint")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();

    // Crash while writing the compaction snapshot: the original file is
    // untouched (the snapshot is a sibling temporary).
    for keep in [0usize, 1, 10] {
        ctl.truncate_next_write(keep);
        assert!(store.compact("t").is_err());
        let shard = scratch.store("s").load("t").unwrap();
        assert_eq!(shard.records.len(), 2, "keep={keep}");
        assert_eq!(shard.records[&fp1].get("cycles").unwrap().as_u64(), Some(3));
        assert!(
            !store.path("t").with_extension("jsonl.tmp").exists(),
            "no temporary left behind (keep={keep})"
        );
    }

    // Crash between snapshot and swap: rename fails, original intact.
    ctl.fail_next_rename();
    assert!(store.compact("t").is_err());
    let shard = scratch.store("s").load("t").unwrap();
    assert_eq!(shard.records.len(), 2);
    assert!(!store.path("t").with_extension("jsonl.tmp").exists());

    // Same for gc.
    ctl.fail_next_rename();
    assert!(store.gc("t", &|fp| fp == fp1).is_err());
    let shard = scratch.store("s").load("t").unwrap();
    assert_eq!(shard.records.len(), 2);

    // With faults disarmed both passes complete and stay consistent.
    ctl.clear();
    let stats = store.compact("t").unwrap();
    assert_eq!((stats.kept, stats.superseded), (2, 1));
    let stats = store.gc("t", &|fp| fp == fp1).unwrap();
    assert_eq!((stats.kept, stats.dropped), (1, 1));
    let shard = store.load("t").unwrap();
    assert_eq!(shard.records.len(), 1);
    assert_eq!(shard.records[&fp1].get("cycles").unwrap().as_u64(), Some(3));
}

#[test]
fn a_store_read_error_degrades_to_a_cold_run_not_an_abort() {
    let scratch = Scratch::new("read-error");
    let sweep = small_sweep();
    // Warm the store, then make every read of its file fail.
    let ctl = FaultControl::new();
    let store = scratch.faulty_store("s", &ctl);
    let warm = Runner::new(2)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    assert_eq!(warm.cache.misses, 4);
    ctl.fail_reads_matching("t.jsonl");
    let run = Runner::new(2)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    assert!(run.failures.is_empty(), "read error is not a job failure");
    assert_eq!((run.cache.hits, run.cache.misses), (0, 4), "cold rerun");
    assert!(
        run.cache.corrupt > 0,
        "degradation is visible to --expect-cached"
    );
    // The degraded run's report matches the warm run's bit for bit.
    let (_, wt, _) = render_sweep(&sweep, &warm.to_results());
    let (_, rt, _) = render_sweep(&sweep, &run.to_results());
    assert_eq!(wt.render(), rt.render());
}

/// A record whose checksum holds but whose counters decoding refuses —
/// an unknown name, a zero count — is a miss like any corrupt record:
/// `store --verify`'s check reports it, the job re-simulates, and the
/// sweep's JSON equals a clean run's.
#[test]
fn records_with_refused_counters_re_simulate() {
    let scratch = Scratch::new("counters");
    let sweep = small_sweep();
    let run = |store: &ResultStore| {
        Runner::new(2)
            .run_sweep_shard(&sweep, Scale::Test, "t", Some(store), Shard::full(), None)
            .unwrap()
    };
    let clean = run(&scratch.store("clean"));
    let clean_json = strip_wall(&sweep_results_json(&sweep, &clean).render());
    for (i, (counter, value)) in [("no_such_event", 1u64), ("loads", 0)]
        .into_iter()
        .enumerate()
    {
        let store = scratch.store(&format!("planted{i}"));
        run(&store);
        // Supersede the gamess/GhostMinion record with a checksummed copy
        // whose `counter` reads `value`.
        let mut record = store
            .load("t")
            .unwrap()
            .records
            .into_values()
            .find(|r| {
                r.get("workload").and_then(Json::as_str) == Some("gamess")
                    && r.get("scheme").and_then(Json::as_str) == Some("GhostMinion")
            })
            .expect("the store holds gamess/GhostMinion");
        let mut counters = Json::object();
        for (name, v) in record.remove("counters").unwrap().as_object().unwrap() {
            if name != counter {
                counters.set(name, v.clone());
            }
        }
        counters.set(counter, value);
        record.set("counters", counters);
        assert!(validate_record(&record).is_err(), "{counter}: {value}");
        store.append("t", &record).unwrap();

        let healed = run(&store);
        assert_eq!((healed.cache.hits, healed.cache.misses), (3, 1));
        assert_eq!(
            strip_wall(&sweep_results_json(&sweep, &healed).render()),
            clean_json,
            "{counter}: {value}"
        );
    }
}

#[test]
fn quarantined_damage_marks_misses_as_explained() {
    let scratch = Scratch::new("explained");
    let sweep = small_sweep();
    let store = scratch.store("s");
    Runner::new(2)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    // Bit-rot one record: its checksum fails, the line quarantines, and
    // the warm rerun re-simulates exactly that job — with the damage
    // count carried on the run so `--expect-cached` degrades to a
    // warning instead of an abort.
    let path = store.path("t");
    let text = std::fs::read_to_string(&path).unwrap();
    let rotted = text.replacen("\"cycles\":", "\"cycles\":9", 1);
    assert_ne!(rotted, text);
    std::fs::write(&path, rotted).unwrap();
    let run = Runner::new(2)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    assert_eq!((run.cache.hits, run.cache.misses), (3, 1));
    assert_eq!(run.cache.corrupt, 1);
    assert!(store.quarantine_path("t").exists());
    // After the compaction the CLI runs at the end of every
    // store-backed run, a fully warm rerun is damage-free again.
    store.compact("t").unwrap();
    let again = Runner::new(2)
        .run_sweep_shard(&sweep, Scale::Test, "t", Some(&store), Shard::full(), None)
        .unwrap();
    assert_eq!(
        (again.cache.hits, again.cache.misses, again.cache.corrupt),
        (4, 0, 0)
    );
}

#[test]
fn seeded_chaos_never_corrupts_loadable_state() {
    let scratch = Scratch::new("chaos");
    let ctl = FaultControl::new();
    let store = scratch.faulty_store("s", &ctl);
    ctl.seed(0xA5A5_5A5A, 40);
    let mut acknowledged = Vec::new();
    for i in 0..50u64 {
        let r = rec(i, i * 7);
        if store.append("t", &r).is_ok() {
            acknowledged.push(r);
        }
    }
    assert!(ctl.injected() > 0, "the chaos stream actually fired");
    assert!(!acknowledged.is_empty(), "some appends succeeded");
    ctl.clear();

    // Whatever the fault pattern did, the file loads, every record that
    // loads is byte-exact something we appended (checksums reject
    // mangled lines), and every *acknowledged* append is durable — a
    // torn tail from an earlier fault is isolated, never merged into
    // the next record.
    let shard = store.load("t").unwrap();
    for r in &acknowledged {
        let fp = r.get("fingerprint").unwrap().as_str().unwrap();
        assert_eq!(
            shard.records.get(fp).map(Json::render),
            Some(r.render()),
            "acknowledged append must be durable"
        );
    }
    let by_fp: std::collections::HashMap<String, String> = (0..50u64)
        .map(|i| {
            let r = rec(i, i * 7);
            (
                r.get("fingerprint").unwrap().as_str().unwrap().to_owned(),
                r.render(),
            )
        })
        .collect();
    for (fp, got) in &shard.records {
        assert_eq!(Some(&got.render()), by_fp.get(fp));
    }

    // Re-appending everything (what re-simulation does) restores full
    // coverage, and compaction leaves a pristine file.
    for i in 0..50u64 {
        store.append("t", &rec(i, i * 7)).unwrap();
    }
    store.compact("t").unwrap();
    let healed = store.load("t").unwrap();
    assert_eq!(healed.records.len(), 50);
    assert_eq!(healed.corrupt, 0);
    assert_eq!(healed.checksummed, 50);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating the store file at *any* byte boundary inside the
    /// final record — what a `kill -9` mid-append leaves — loses at
    /// most that final record, keeps every earlier one bit-exact, and
    /// heals by re-append + compact.
    #[test]
    fn truncation_at_any_final_record_boundary_recovers(cut_seed in any::<usize>()) {
        let scratch = Scratch::new("prop-trunc");
        let store = scratch.store("s");
        let first = rec(10, 111);
        let last = rec(11, 222);
        store.append("t", &first).unwrap();
        let base = std::fs::metadata(store.path("t")).unwrap().len() as usize;
        store.append("t", &last).unwrap();
        let full = std::fs::read(store.path("t")).unwrap();
        let final_len = full.len() - base;
        // Cut anywhere inside the final record (0 = lost entirely).
        let cut = base + cut_seed % final_len;
        std::fs::write(store.path("t"), &full[..cut]).unwrap();

        let shard = store.load("t").unwrap();
        let fp1 = first.get("fingerprint").unwrap().as_str().unwrap();
        prop_assert_eq!(
            shard.records.get(fp1).map(Json::render),
            Some(first.render())
        );
        let fp2 = last.get("fingerprint").unwrap().as_str().unwrap();
        prop_assert!(!shard.records.contains_key(fp2), "cut record must not load");
        prop_assert!(shard.corrupt <= 1);

        // gc with a keep-everything predicate preserves the survivor...
        store.gc("t", &|_| true).unwrap();
        let shard = store.load("t").unwrap();
        prop_assert!(shard.records.contains_key(fp1));
        prop_assert_eq!(shard.corrupt, 0, "gc healed the torn tail");
        // ...and re-appending the lost record restores coverage.
        store.append("t", &last).unwrap();
        let healed = store.load("t").unwrap();
        prop_assert_eq!(healed.records.len(), 2);
        store.compact("t").unwrap();
        prop_assert!(!store.load("t").unwrap().needs_compaction());
    }
}
