//! Reference-oracle sweep over the whole experiment registry: the
//! production run loop must be indistinguishable from
//! [`Machine::run_reference`] on every `Scale::Test` unit. The tier-1
//! comparisons on chosen inputs live in `cycle_skipping.rs` and
//! `issue_wakeup.rs`.
//!
//! [`Machine::run_reference`]: ghostminion_repro::core::Machine::run_reference

mod common;

use common::{assert_matches_reference, scheme_families};
use ghostminion_repro::core::SystemConfig;
use ghostminion_repro::workloads::{Scale, Suite, WorkloadSet};

/// Every `Scale::Test` unit of every suite in the registry under the
/// five scheme families. `#[ignore]`d because the reference is slow in
/// debug; CI runs it in release:
/// `cargo test --release --test reference_oracle -- --ignored registry`.
#[test]
#[ignore = "simulates every registry unit twice; run in release (CI does)"]
fn registry_units_match_reference() {
    for suite in [Suite::Spec2006, Suite::Spec2017, Suite::Parsec] {
        for unit in WorkloadSet::new(suite, Scale::Test).units {
            for scheme in scheme_families() {
                assert_matches_reference(
                    scheme,
                    SystemConfig::micro2021(),
                    unit.programs.clone(),
                    &format!("{}/{}/{}", suite.name(), unit.name, scheme.name()),
                );
            }
        }
    }
}
