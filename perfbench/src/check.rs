//! Output checks: golden fingerprints, identical results across passes,
//! and byte-identical replayed reports.

use gm_stats::Json;
use std::collections::HashSet;

/// The pinned fingerprint of every registry job.
pub const GOLDEN_FINGERPRINTS: &str = "tests/golden/fingerprints.txt";

/// What one pass produced for one experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpOutput {
    pub name: &'static str,
    /// One `gm_results::job_record` per job, in grid order.
    pub records: Vec<Json>,
    /// The report `gm-run` prints.
    pub text: String,
    /// The experiment object `gm-run --json` writes.
    pub json: String,
}

/// Pass or fail tallies, in operations.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub problems: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, problem: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(problem());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 8 {
                self.problems.push(p);
            }
        }
    }
}

/// `experiment workload scheme fingerprint` lines.
pub struct Golden(HashSet<String>);

impl Golden {
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string(GOLDEN_FINGERPRINTS)
            .map_err(|e| format!("cannot read {GOLDEN_FINGERPRINTS}: {e}"))?;
        Ok(Self::parse(&text))
    }

    pub fn parse(text: &str) -> Self {
        Self(text.lines().map(str::to_owned).collect())
    }

    /// Workload, scheme and fingerprint of one pinned `experiment` job.
    pub fn job_of(&self, experiment: &str) -> Option<(String, String, String)> {
        self.0
            .iter()
            .filter_map(|line| match line.split(' ').collect::<Vec<_>>()[..] {
                [e, w, s, fp] if e == experiment => Some((w.into(), s.into(), fp.into())),
                _ => None,
            })
            .min()
    }

    fn holds(&self, experiment: &str, record: &Json) -> bool {
        let field = |k| record.get(k).and_then(Json::as_str).unwrap_or("?");
        self.0.contains(&format!(
            "{experiment} {} {} {}",
            field("workload"),
            field("scheme"),
            field("fingerprint")
        ))
    }
}

/// A record with its host wall-clock removed: the simulated result only.
fn without_wall(record: &Json) -> Json {
    let mut r = record.clone();
    r.remove("wall_us");
    r
}

/// Checks one pass against the reference outputs, one operation per job
/// and per rendered report.
///
/// Every job's fingerprint must be pinned in the golden list and its
/// simulated result must equal the reference's. With `exact`, the
/// records must match byte for byte (wall-clock included) and both
/// rendered reports must be identical: that is what a replay promises.
/// Without it, host wall-clock may differ, and so may the JSON report
/// that carries it, but the text report may not.
pub fn compare(golden: &Golden, reference: &[ExpOutput], got: &[ExpOutput], exact: bool) -> Tally {
    let mut t = Tally::default();
    if reference.len() != got.len() {
        t.fail(format!(
            "{} experiments, expected {}",
            got.len(),
            reference.len()
        ));
        return t;
    }
    for (want, have) in reference.iter().zip(got) {
        let name = have.name;
        if want.records.len() != have.records.len() {
            t.fail(format!(
                "{name}: {} jobs, expected {}",
                have.records.len(),
                want.records.len()
            ));
        }
        for (i, (w, h)) in want.records.iter().zip(&have.records).enumerate() {
            let same = if exact {
                w == h
            } else {
                without_wall(w) == without_wall(h)
            };
            t.check(golden.holds(name, h) && same, || {
                format!("{name} job {i}: result differs from the reference or is not golden")
            });
        }
        t.check(want.text == have.text, || {
            format!("{name}: text report differs from the reference")
        });
        if exact {
            t.check(want.json == have.json, || {
                format!("{name}: JSON report differs from the reference")
            });
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(fp: &str, cycles: u64, wall: u64) -> Json {
        let mut j = Json::object();
        j.set("workload", "mcf")
            .set("scheme", "Unsafe")
            .set("cycles", cycles)
            .set("wall_us", wall)
            .set("fingerprint", fp);
        j
    }

    fn out(records: Vec<Json>) -> Vec<ExpOutput> {
        vec![ExpOutput {
            name: "fig6",
            records,
            text: "t".into(),
            json: "j".into(),
        }]
    }

    #[test]
    fn wall_clock_matters_only_when_exact() {
        let golden = Golden::parse("fig6 mcf Unsafe aa\n");
        let a = out(vec![rec("aa", 10, 1)]);
        let b = out(vec![rec("aa", 10, 2)]);
        assert_eq!(compare(&golden, &a, &b, false).failed, 0);
        assert_eq!(compare(&golden, &a, &b, true).failed, 1);
        let wrong = out(vec![rec("aa", 11, 1)]);
        assert_eq!(compare(&golden, &a, &wrong, false).failed, 1);
        let stray = out(vec![rec("bb", 10, 1)]);
        assert_eq!(compare(&golden, &stray, &stray, false).failed, 1);
    }
}
