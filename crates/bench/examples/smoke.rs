use ghostminion::{Machine, Scheme, SystemConfig};
use gm_workloads::{Scale, Suite, WorkloadSet};
use std::time::Instant;

fn main() {
    let cfg = SystemConfig::micro2021();
    for w in WorkloadSet::new(Suite::Spec2006, Scale::Test).units {
        let t0 = Instant::now();
        let mut m = Machine::new(Scheme::unsafe_baseline(), cfg, vec![w.programs[0].clone()]);
        let r = m.run(50_000_000);
        let dt = t0.elapsed();
        let t1 = Instant::now();
        let mut mg = Machine::new(Scheme::ghost_minion(), cfg, w.programs.clone());
        let rg = mg.run(50_000_000);
        let dtg = t1.elapsed();
        println!(
            "{:12} base: {:9} cyc {:8} inst ipc {:.2} ({:5.0}ms) | GM: {:9} cyc ratio {:.3} ({:5.0}ms)",
            w.name, r.cycles, r.committed(), r.core_stats[0].ipc(), dt.as_millis(),
            rg.cycles, rg.cycles as f64 / r.cycles as f64, dtg.as_millis()
        );
    }
}
