//! Quickstart: run one workload on the Table 1 machine under the unsafe
//! baseline and under GhostMinion, and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ghostminion_repro::core::{Machine, Scheme, SystemConfig};
use ghostminion_repro::isa::{Asm, DataSegment, Reg};

fn main() {
    // A little workload: sum a 64 KiB array.
    let mut a = Asm::new("quickstart");
    let base = 0x10_0000u64;
    let n = 8192u64;
    let data: Vec<u64> = (0..n).collect();
    a.data(DataSegment::words(base, &data));
    let (ptr, end, acc, v) = (Reg::x(1), Reg::x(2), Reg::x(3), Reg::x(4));
    a.li(ptr, base as i64);
    a.li(end, (base + 8 * n) as i64);
    let top = a.here();
    a.ld(v, ptr, 0);
    a.add(acc, acc, v);
    a.addi(ptr, ptr, 8);
    a.bltu(ptr, end, top);
    a.halt();
    let prog = a.assemble();

    for scheme in [Scheme::unsafe_baseline(), Scheme::ghost_minion()] {
        let mut m = Machine::new(scheme, SystemConfig::micro2021(), vec![prog.clone()]);
        let r = m.run(100_000_000);
        println!(
            "{:12}  sum={}  cycles={}  IPC={:.2}  minion hits={}",
            r.scheme_name,
            m.core(0).reg(acc),
            r.cycles,
            r.core_stats[0].ipc(),
            r.mem_stats.minion_hits,
        );
    }
}
