//! Proof that the checks can fail: a planted wrong result must be
//! flagged, and a garbled remote response must be counted.

use crate::check::{compare, ExpOutput, Golden};
use crate::drive::ServerHandle;
use gm_results::{FaultyNet, NetFaultControl, RemoteStore, ResultStore, TcpIo};
use gm_stats::Json;
use std::path::Path;

/// Runs both self-tests; `Err` names the one that did not fail as
/// planted.
pub fn run(golden: &Golden, dir: &Path) -> Result<String, String> {
    let planted = checker_flags_a_wrong_result(golden)?;
    garbled_response_is_counted(dir)?;
    Ok(format!(
        "checker flagged {planted}/{planted} planted faults; \
         results.remote_garbled counted 1/1 garbled response"
    ))
}

fn checker_flags_a_wrong_result(golden: &Golden) -> Result<usize, String> {
    let (workload, scheme, fingerprint) = golden
        .job_of("fig6")
        .ok_or("the golden fingerprint list pins no fig6 job")?;
    let record = |cycles: u64, fp: &str| {
        let mut j = Json::object();
        j.set("workload", workload.as_str())
            .set("scheme", scheme.as_str())
            .set("cycles", cycles)
            .set("wall_us", 5u64)
            .set("fingerprint", fp);
        j
    };
    let pass = |cycles: u64, fp: &str, text: &str| {
        vec![ExpOutput {
            name: "fig6",
            records: vec![record(cycles, fp)],
            text: text.to_owned(),
            json: String::new(),
        }]
    };
    let good = pass(100, &fingerprint, "report");
    if compare(golden, &good, &good, true).failed != 0 {
        return Err("self-test: the checker rejects a correct pass".into());
    }
    let planted = [
        ("a wrong cycle count", pass(101, &fingerprint, "report")),
        (
            "a fingerprint that is not golden",
            pass(100, &"0".repeat(64), "report"),
        ),
        ("a changed report", pass(100, &fingerprint, "report!")),
    ];
    for (what, bad) in &planted {
        if compare(golden, &good, bad, false).failed == 0 {
            return Err(format!("self-test: the checker missed {what}"));
        }
    }
    Ok(planted.len())
}

fn garbled_response_is_counted(dir: &Path) -> Result<(), String> {
    let store_dir = dir.join("selftest-store");
    let fingerprint = "ab".repeat(32);
    let mut record = Json::object();
    record
        .set("fingerprint", fingerprint.as_str())
        .set("cycles", 1u64);
    ResultStore::open(&store_dir)
        .and_then(|s| s.append("fig6", &record))
        .map_err(|e| format!("self-test store: {e}"))?;
    let server = ServerHandle::start(&store_dir)?;
    let control = NetFaultControl::new();
    let net = FaultyNet::new(Box::new(TcpIo::default()), control.clone());
    let client = RemoteStore::with_io(server.addr.clone(), Box::new(net));
    control.garble_next();
    let garbled = client.get("fig6", &fingerprint);
    let clean = client.get("fig6", &fingerprint);
    drop(server);
    let _ = std::fs::remove_dir_all(&store_dir);
    match (garbled, clean, client.counters().garbled) {
        (None, Some(_), 1) => Ok(()),
        (g, c, n) => Err(format!(
            "self-test: garbled get returned {}, clean get {}, remote_garbled {n} (want none, a record, 1)",
            if g.is_some() { "a record" } else { "none" },
            if c.is_some() { "a record" } else { "none" },
        )),
    }
}
