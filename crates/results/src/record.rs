//! The stored form of one job result: a flat JSON object that both the
//! result store (one per line) and the harness's per-job JSON output
//! (one per array element) use, so a store line *is* a report record.
//!
//! A record carries everything needed to rebuild the
//! [`MachineResult`] a report renderer consumes — cycles, per-core
//! pipeline statistics, and the full memory-system counter set — plus
//! the job's fingerprint and wall-clock. Reconstruction is strict: a
//! record missing fields, or one whose workload/scheme do not match the
//! job being looked up, fails with a message and the runner falls back
//! to re-simulating (a corrupt store heals itself at the cost of one
//! cache miss).

use crate::fingerprint::FORMAT_VERSION;
use ghostminion::{MachineResult, MemStats};
use gm_sim::CoreStats;
use gm_stats::Json;

/// Builds the JSON record for one completed job.
///
/// `scheme_label` is the experiment's column label (e.g. `"2048B"` in
/// Fig. 11); `result.scheme_name` is the scheme's legend name. Both are
/// stored: the label keys merge reconstruction, the name is validated on
/// cache hits.
pub fn job_record(
    workload: &str,
    scheme_label: &str,
    result: &MachineResult,
    wall_us: u64,
    fingerprint: &str,
) -> Json {
    let mut counters = Json::object();
    for (name, value) in result.mem_stats.iter() {
        counters.set(name, value);
    }
    let mut cores = Vec::with_capacity(result.core_stats.len());
    for s in &result.core_stats {
        let mut core = Json::object();
        core.set("cycles", s.cycles)
            .set("committed", s.committed)
            .set("fetched", s.fetched)
            .set("squashed", s.squashed)
            .set("mispredicts", s.mispredicts)
            .set("loads_committed", s.loads_committed)
            .set("stores_committed", s.stores_committed)
            .set("load_forwards", s.load_forwards)
            .set("stt_delays", s.stt_delays)
            .set("strict_fu_delays", s.strict_fu_delays)
            .set("load_replays", s.load_replays)
            .set("load_retries", s.load_retries);
        cores.push(core);
    }
    let mut j = Json::object();
    j.set("v", FORMAT_VERSION)
        .set("workload", workload)
        .set("scheme", scheme_label)
        .set("scheme_name", result.scheme_name)
        .set("threads", result.threads)
        .set("cycles", result.cycles)
        .set("committed", result.committed())
        .set("wall_us", wall_us)
        .set("fingerprint", fingerprint)
        .set("counters", counters)
        .set("cores", Json::Array(cores));
    j
}

fn field_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("record field {key:?} missing or not a u64"))
}

fn core_stats_from(j: &Json) -> Result<CoreStats, String> {
    // Exhaustive struct literal: adding a field to CoreStats fails to
    // compile here, forcing the record schema (and FORMAT_VERSION) to be
    // updated with it.
    Ok(CoreStats {
        cycles: field_u64(j, "cycles")?,
        committed: field_u64(j, "committed")?,
        fetched: field_u64(j, "fetched")?,
        squashed: field_u64(j, "squashed")?,
        mispredicts: field_u64(j, "mispredicts")?,
        loads_committed: field_u64(j, "loads_committed")?,
        stores_committed: field_u64(j, "stores_committed")?,
        load_forwards: field_u64(j, "load_forwards")?,
        stt_delays: field_u64(j, "stt_delays")?,
        strict_fu_delays: field_u64(j, "strict_fu_delays")?,
        load_replays: field_u64(j, "load_replays")?,
        load_retries: field_u64(j, "load_retries")?,
    })
}

/// Decodes a record's `counters` object, accepting only what
/// [`job_record`] writes: each name a memory-system counter, listed
/// once, with a positive value (the encoder lists only nonzero counters).
fn mem_stats_from(record: &Json) -> Result<MemStats, String> {
    let mut stats = MemStats::default();
    for (name, value) in record
        .get("counters")
        .and_then(Json::as_object)
        .ok_or("record has no counters object")?
    {
        let slot = stats
            .get_mut(name)
            .ok_or_else(|| format!("unknown counter {name:?}"))?;
        if *slot != 0 {
            return Err(format!("counter {name:?} listed twice"));
        }
        *slot = value
            .as_u64()
            .filter(|&v| v > 0)
            .ok_or_else(|| format!("counter {name:?} is not a positive u64"))?;
    }
    Ok(stats)
}

/// Rebuilds a [`MachineResult`] from a record, validating that it
/// belongs to (`workload`, `scheme_name`). The returned result uses the
/// caller's `scheme_name` (a `&'static str` from the live [`ghostminion::Scheme`]),
/// so a reconstructed result is indistinguishable from a fresh one.
pub fn result_from_record(
    record: &Json,
    workload: &str,
    scheme_name: &'static str,
) -> Result<MachineResult, String> {
    if field_u64(record, "v")? != FORMAT_VERSION {
        return Err(format!(
            "record format v{} (this binary writes v{FORMAT_VERSION})",
            field_u64(record, "v")?
        ));
    }
    let rec_workload = record
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("record has no workload")?;
    if rec_workload != workload {
        return Err(format!(
            "record is for workload {rec_workload:?}, not {workload:?}"
        ));
    }
    let rec_scheme = record
        .get("scheme_name")
        .and_then(Json::as_str)
        .ok_or("record has no scheme_name")?;
    if rec_scheme != scheme_name {
        return Err(format!(
            "record is for scheme {rec_scheme:?}, not {scheme_name:?}"
        ));
    }
    let threads = field_u64(record, "threads")? as usize;
    let cores = record
        .get("cores")
        .and_then(Json::as_array)
        .ok_or("record has no cores array")?;
    if cores.len() != threads {
        return Err(format!(
            "{} core entries for {threads} threads",
            cores.len()
        ));
    }
    let core_stats = cores
        .iter()
        .map(core_stats_from)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(MachineResult {
        cycles: field_u64(record, "cycles")?,
        core_stats,
        mem_stats: mem_stats_from(record)?,
        scheme_name,
        threads,
    })
}

/// Shape-checks a record without reconstructing a result from it:
/// format version, identity fields, well-formed fingerprint, complete
/// per-core statistics consistent with `threads`, and the counters
/// [`result_from_record`] accepts. Unlike [`result_from_record`] it
/// needs no live [`ghostminion::Scheme`] to compare against, so `gm-run
/// store --verify` can run it over every record the store holds —
/// including records of schemes or workloads the current registry no
/// longer produces.
pub fn validate_record(record: &Json) -> Result<(), String> {
    let v = field_u64(record, "v")?;
    if v != FORMAT_VERSION {
        return Err(format!(
            "record format v{v} (this binary writes v{FORMAT_VERSION})"
        ));
    }
    for key in ["workload", "scheme", "scheme_name"] {
        record
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record field {key:?} missing or not a string"))?;
    }
    for key in ["cycles", "committed", "wall_us"] {
        field_u64(record, key)?;
    }
    let fp = record_fingerprint(record)?;
    if fp.len() != 64 || !fp.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return Err(format!("fingerprint {fp:?} is not 64 lowercase hex digits"));
    }
    let threads = field_u64(record, "threads")? as usize;
    let cores = record
        .get("cores")
        .and_then(Json::as_array)
        .ok_or("record has no cores array")?;
    if cores.len() != threads {
        return Err(format!(
            "{} core entries for {threads} threads",
            cores.len()
        ));
    }
    for core in cores {
        core_stats_from(core)?;
    }
    mem_stats_from(record)?;
    Ok(())
}

/// The stored wall-clock of a record, in microseconds.
pub fn record_wall_us(record: &Json) -> Result<u64, String> {
    field_u64(record, "wall_us")
}

/// The fingerprint a record was stored under.
pub fn record_fingerprint(record: &Json) -> Result<&str, String> {
    record
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or_else(|| "record has no fingerprint".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostminion::machine::run_single;
    use ghostminion::{Scheme, SystemConfig};
    use gm_isa::{Asm, Reg};

    fn small_result() -> MachineResult {
        // A real (tiny) simulation so counters and core stats are
        // populated the way production records are.
        let mut a = Asm::new("record-test");
        let (cnt, acc) = (Reg::x(1), Reg::x(2));
        a.li(cnt, 5);
        a.li(acc, 0);
        let top = a.here();
        a.addi(acc, acc, 1);
        a.addi(cnt, cnt, -1);
        a.bne(cnt, Reg::ZERO, top);
        a.halt();
        run_single(Scheme::ghost_minion(), SystemConfig::tiny(), a.assemble())
    }

    #[test]
    fn record_round_trips_machine_results() {
        let r = small_result();
        let rec = job_record("record-test", "GhostMinion", &r, 1234, "feed");
        let back = result_from_record(&rec, "record-test", "GhostMinion").unwrap();
        assert_eq!(back, r);
        assert_eq!(record_wall_us(&rec).unwrap(), 1234);
        assert_eq!(record_fingerprint(&rec).unwrap(), "feed");
    }

    #[test]
    fn record_survives_a_render_parse_cycle() {
        let r = small_result();
        let rec = job_record("record-test", "GhostMinion", &r, 7, "00ff");
        let parsed = Json::parse(&rec.render()).unwrap();
        let back = result_from_record(&parsed, "record-test", "GhostMinion").unwrap();
        assert_eq!(back, r);
        assert_eq!(parsed.render(), rec.render());
    }

    #[test]
    fn every_counter_survives_encode_render_parse_decode() {
        let mut r = small_result();
        for (i, name) in MemStats::NAMES.iter().enumerate() {
            *r.mem_stats.get_mut(name).unwrap() = 1000 + i as u64;
        }
        let rec = job_record("record-test", "GhostMinion", &r, 7, "00ff");
        let parsed = Json::parse(&rec.render()).unwrap();
        let written: Vec<&str> = parsed
            .get("counters")
            .and_then(Json::as_object)
            .unwrap()
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(written, MemStats::NAMES);
        let back = result_from_record(&parsed, "record-test", "GhostMinion").unwrap();
        assert_eq!(back.mem_stats, r.mem_stats);
    }

    /// `rec` with its `counters` object replaced by `counters`.
    fn with_counters(rec: &Json, counters: &[(&str, Json)]) -> Json {
        let mut obj = Json::object();
        for (name, value) in counters {
            obj.set(name, value.clone());
        }
        let mut bad = rec.clone();
        bad.remove("counters");
        bad.set("counters", obj);
        bad
    }

    #[test]
    fn decode_and_validation_refuse_counters_the_encoder_never_writes() {
        let r = small_result();
        let fp = "ab".repeat(32);
        let rec = job_record("record-test", "GhostMinion", &r, 0, &fp);
        validate_record(&rec).unwrap();
        let (name, value) = r.mem_stats.iter().next().expect("the run counts events");
        let once = (name, Json::from(value));
        for (counters, why) in [
            (vec![("no_such_event", Json::from(1u64))], "unknown counter"),
            (vec![("loads", Json::from(0u64))], "not a positive u64"),
            (vec![("loads", Json::from(-3.0))], "not a positive u64"),
            (vec![("loads", Json::from("7"))], "not a positive u64"),
            (vec![once.clone(), once], "listed twice"),
        ] {
            let bad = with_counters(&rec, &counters);
            let decoded = result_from_record(&bad, "record-test", "GhostMinion");
            assert!(decoded.unwrap_err().contains(why), "{counters:?}");
            assert!(
                validate_record(&bad).unwrap_err().contains(why),
                "{counters:?}"
            );
        }
    }

    #[test]
    fn reconstruction_validates_identity_and_shape() {
        let r = small_result();
        let rec = job_record("record-test", "GhostMinion", &r, 0, "f");
        assert!(result_from_record(&rec, "other", "GhostMinion")
            .unwrap_err()
            .contains("workload"));
        assert!(result_from_record(&rec, "record-test", "Unsafe")
            .unwrap_err()
            .contains("scheme"));
        let mut wrong_v = rec.clone();
        wrong_v.set("v", 999u64);
        assert!(result_from_record(&wrong_v, "record-test", "GhostMinion")
            .unwrap_err()
            .contains("format"));
        assert!(result_from_record(&Json::object(), "record-test", "GhostMinion").is_err());
    }
}
