//! Deterministic job fingerprints: the content address of one
//! (workload × scheme × scale × configuration) simulation.
//!
//! The fingerprint is the SHA-256 of a canonical-JSON job descriptor.
//! Each axis contributes its full content, not just its name:
//!
//! * the **workload** contributes its name, thread count, and a SHA-256
//!   over every program's instruction stream, data segments, and initial
//!   registers — so regenerating a workload kernel differently (even at
//!   the same name and scale) invalidates cached results;
//! * the **scheme** contributes [`Scheme::canonical_json`];
//! * the **scale** contributes its CLI name (programs also differ per
//!   scale, but the name keeps descriptors human-debuggable);
//! * the **system configuration** contributes
//!   [`SystemConfig::canonical_json`].
//!
//! Any simulator-visible change to any of the four renders a different
//! descriptor and therefore misses the cache, which is the property the
//! store's correctness rests on.

use crate::hash::{sha256_hex, Sha256};
use ghostminion::{Scheme, SystemConfig};
use gm_isa::Program;
use gm_stats::Json;
use gm_workloads::{Scale, WorkloadUnit};

/// Version tag mixed into every descriptor. Bump on any change to the
/// descriptor layout or the stored-record schema: old store files then
/// miss cleanly instead of being misread.
pub const FORMAT_VERSION: u64 = 1;

/// Content hash of one program: instruction stream, initial memory
/// image, and initial register state. The program's display name is
/// excluded — renaming a kernel does not change what it simulates.
pub fn program_sha(p: &Program) -> String {
    use std::fmt::Write as _;
    let mut h = Sha256::new();
    h.update(&(p.insts.len() as u64).to_le_bytes());
    let mut buf = String::new();
    for inst in &p.insts {
        // Inst has no public byte encoding; its derived Debug form is a
        // deterministic, field-complete rendering, so it hashes the full
        // instruction content.
        buf.clear();
        write!(buf, "{inst:?}").expect("fmt to String");
        h.update(buf.as_bytes());
        h.update(b"\n");
    }
    h.update(&(p.data.len() as u64).to_le_bytes());
    for seg in &p.data {
        h.update(&seg.base.to_le_bytes());
        h.update(&(seg.bytes.len() as u64).to_le_bytes());
        h.update(&seg.bytes);
    }
    h.update(&(p.init_regs.len() as u64).to_le_bytes());
    for (reg, value) in &p.init_regs {
        h.update(format!("{reg:?}").as_bytes());
        h.update(&value.to_le_bytes());
    }
    h.finish_hex()
}

/// The canonical job descriptor. Public so tests and debugging tools can
/// inspect what a fingerprint covers; production code wants
/// [`job_fingerprint`].
pub fn job_descriptor(
    unit: &WorkloadUnit,
    scheme: &Scheme,
    scale: Scale,
    cfg: &SystemConfig,
) -> Json {
    let mut j = Json::object();
    j.set("v", FORMAT_VERSION)
        .set("workload", unit.name)
        .set("threads", unit.threads())
        .set(
            "programs",
            // The per-unit memo: programs are immutable after a unit is
            // built, and one shared unit is fingerprinted once per
            // scheme column of every sweep in a run that names it, so
            // the multi-MiB image hash is computed once per run.
            Json::Array(
                unit.program_shas
                    .get_or_init(|| unit.programs.iter().map(program_sha).collect())
                    .iter()
                    .map(|s| s.clone().into())
                    .collect(),
            ),
        )
        .set("scale", scale.name())
        .set("scheme", scheme.canonical_json())
        .set("config", cfg.canonical_json());
    j
}

/// The fingerprint: 64 lowercase hex characters addressing one job's
/// result in the store.
///
/// ```
/// use ghostminion::{Scheme, SystemConfig};
/// use gm_results::job_fingerprint;
/// use gm_workloads::{Scale, Suite, WorkloadSet};
///
/// let set = WorkloadSet::named(Suite::Spec2006, Scale::Test, &["gamess"]);
/// let unit = &set.units[0];
/// let cfg = SystemConfig::micro2021();
///
/// let fp = job_fingerprint(unit, &Scheme::ghost_minion(), Scale::Test, &cfg);
/// assert_eq!(fp.len(), 64);
/// // Same job, same address; any axis change misses the cache.
/// assert_eq!(fp, job_fingerprint(unit, &Scheme::ghost_minion(), Scale::Test, &cfg));
/// assert_ne!(fp, job_fingerprint(unit, &Scheme::unsafe_baseline(), Scale::Test, &cfg));
/// ```
pub fn job_fingerprint(
    unit: &WorkloadUnit,
    scheme: &Scheme,
    scale: Scale,
    cfg: &SystemConfig,
) -> String {
    sha256_hex(job_descriptor(unit, scheme, scale, cfg).render().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_workloads::{Suite, WorkloadSet};

    fn unit(name: &str) -> WorkloadUnit {
        unit_at_scale(name, Scale::Test)
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let u = unit("gamess");
        let cfg = SystemConfig::micro2021();
        let a = job_fingerprint(&u, &Scheme::ghost_minion(), Scale::Test, &cfg);
        let b = job_fingerprint(&u, &Scheme::ghost_minion(), Scale::Test, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn every_axis_changes_the_fingerprint() {
        let u = unit("gamess");
        let cfg = SystemConfig::micro2021();
        let base = job_fingerprint(&u, &Scheme::ghost_minion(), Scale::Test, &cfg);

        let other_workload =
            job_fingerprint(&unit("hmmer"), &Scheme::ghost_minion(), Scale::Test, &cfg);
        let other_scheme = job_fingerprint(&u, &Scheme::unsafe_baseline(), Scale::Test, &cfg);
        let other_scale = job_fingerprint(
            &unit_at_scale("gamess", Scale::Bench),
            &Scheme::ghost_minion(),
            Scale::Bench,
            &cfg,
        );
        let other_cfg = job_fingerprint(
            &u,
            &Scheme::ghost_minion(),
            Scale::Test,
            &cfg.with_max_cycles(7),
        );
        for (what, fp) in [
            ("workload", other_workload),
            ("scheme", other_scheme),
            ("scale", other_scale),
            ("config", other_cfg),
        ] {
            assert_ne!(base, fp, "{what} change must change the fingerprint");
        }
    }

    /// A freshly built unit that this test owns outright, so it can edit
    /// the programs before the first fingerprint fills the memo.
    fn unit_at_scale(name: &str, scale: Scale) -> WorkloadUnit {
        let mut set = WorkloadSet::named(Suite::Spec2006, scale, &[name]);
        std::sync::Arc::into_inner(set.units.remove(0)).expect("a fresh set owns its units")
    }

    #[test]
    fn program_content_feeds_the_fingerprint() {
        let u = unit("gamess");
        let cfg = SystemConfig::micro2021();
        let base = job_fingerprint(&u, &Scheme::ghost_minion(), Scale::Test, &cfg);
        let mut tampered = unit("gamess");
        tampered.programs[0].insts.pop();
        let fp = job_fingerprint(&tampered, &Scheme::ghost_minion(), Scale::Test, &cfg);
        assert_ne!(base, fp, "editing the program must miss the cache");

        // Renaming the program (not the unit) changes nothing simulated.
        let mut renamed = unit("gamess");
        renamed.programs[0].name = "other".to_owned();
        assert_eq!(
            base,
            job_fingerprint(&renamed, &Scheme::ghost_minion(), Scale::Test, &cfg)
        );
    }

    #[test]
    fn descriptor_names_all_axes() {
        let d = job_descriptor(
            &unit("gamess"),
            &Scheme::ghost_minion(),
            Scale::Test,
            &SystemConfig::micro2021(),
        );
        for key in [
            "v", "workload", "threads", "programs", "scale", "scheme", "config",
        ] {
            assert!(d.get(key).is_some(), "{key} missing from descriptor");
        }
        assert_eq!(d.get("scale").unwrap().as_str(), Some("test"));
    }
}
