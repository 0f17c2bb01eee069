//! A miniature Figure 11: sweep the GhostMinion capacity on a workload
//! that is sensitive to it, with and without asynchronous reload.
//!
//! ```text
//! cargo run --release --example sizing_sweep
//! ```

use ghostminion_repro::core::{GhostMinionConfig, Machine, Scheme, SystemConfig};
use ghostminion_repro::workloads::{Scale, Suite, WorkloadSet};

fn main() {
    let w = WorkloadSet::named(Suite::Spec2006, Scale::Test, &["povray"])
        .units
        .pop()
        .expect("povray analog present");
    let base = Machine::new(
        Scheme::unsafe_baseline(),
        SystemConfig::micro2021(),
        w.programs.clone(),
    )
    .run(u64::MAX)
    .cycles as f64;

    println!("povray analog, normalised to the unsafe baseline:");
    for bytes in [4096u64, 2048, 1024, 512, 256, 128] {
        for async_reload in [false, true] {
            let scheme = Scheme::ghost_minion_with(GhostMinionConfig {
                minion_bytes: bytes,
                async_reload,
                ..GhostMinionConfig::default()
            });
            let c = Machine::new(scheme, SystemConfig::micro2021(), w.programs.clone())
                .run(u64::MAX)
                .cycles as f64;
            print!(
                "  {:>5}B{}: {:.3}",
                bytes,
                if async_reload { "+async" } else { "      " },
                c / base
            );
        }
        println!();
    }
}
