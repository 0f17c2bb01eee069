//! Four cores sharing memory through the coherence protocol: a Parsec
//! analog plus an LL/SC spinlock counter, under GhostMinion.
//!
//! ```text
//! cargo run --release --example multicore
//! ```

use ghostminion_repro::core::{Machine, Scheme, SystemConfig};
use ghostminion_repro::sim::MemoryBackend;
use ghostminion_repro::workloads::{Scale, Suite, WorkloadSet};

fn main() {
    for w in WorkloadSet::new(Suite::Parsec, Scale::Test).units {
        let mut m = Machine::new(
            Scheme::ghost_minion(),
            SystemConfig::micro2021(),
            w.programs.clone(),
        );
        let r = m.run(u64::MAX);
        println!(
            "{:14}  cycles={:9}  committed={:8}  coherence replays={}",
            w.name,
            r.cycles,
            r.committed(),
            r.mem_stats.coherence_replays,
        );
        if w.name == "canneal" {
            // The shared counter the threads increment under a spinlock.
            println!(
                "               shared counter = {}",
                m.mem().read_value(0x7000_0000 + 64, 8)
            );
        }
    }
}
