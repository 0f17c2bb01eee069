//! A miniature Figure 6: run a few SPEC CPU2006 analogs under every
//! scheme in the paper's comparison and print normalised execution time.
//!
//! ```text
//! cargo run --release --example scheme_comparison
//! ```

use ghostminion_repro::core::{Machine, Scheme, SystemConfig};
use ghostminion_repro::workloads::{Scale, Suite, WorkloadSet};

fn main() {
    let picks = ["gamess", "hmmer", "mcf", "xalancbmk"];
    let workloads = WorkloadSet::named(Suite::Spec2006, Scale::Test, &picks).units;
    let schemes = Scheme::figure_lineup();

    print!("{:12}", "workload");
    for s in schemes.iter().skip(1) {
        print!("  {:>18}", s.name());
    }
    println!();
    for w in &workloads {
        let base = Machine::new(schemes[0], SystemConfig::micro2021(), w.programs.clone())
            .run(u64::MAX)
            .cycles as f64;
        print!("{:12}", w.name);
        for s in schemes.iter().skip(1) {
            let c = Machine::new(*s, SystemConfig::micro2021(), w.programs.clone())
                .run(u64::MAX)
                .cycles as f64;
            print!("  {:>18.3}", c / base);
        }
        println!();
    }
}
