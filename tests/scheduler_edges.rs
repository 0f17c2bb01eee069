//! Edge cases of the wake-ordered multicore scheduler in
//! `Machine::run`: a sleeping core re-scheduled mid-sleep by a leapfrog
//! cancellation, all-cores-quiescent clock jumps, staggered halts, and
//! the single-core degenerate case. Each scenario is asserted
//! cycle-identical (and statistic-identical) against
//! `Machine::run_reference`, the lockstep loop that ticks every core on
//! every cycle.

mod common;

use common::{assert_matches_reference, scheme_families};
use ghostminion_repro::core::{Scheme, SystemConfig};
use ghostminion_repro::isa::{Asm, DataSegment, Program, Reg};

/// A core that bursts `lines` independent loads per loop iteration at
/// *permuted* cache lines (stride `3 * 512` mod the region, so the
/// stride prefetcher never trains and every victim in an MSHR is a
/// demand load, not a cancellation-free orphan prefetch), for `iters`
/// iterations. `pad` prepends cheap dependent arithmetic:
/// `addi`-padding inflates the core's sequence numbers quickly (young
/// timestamps, early in time), while a dependent `div` chain burns many
/// cycles per instruction (old timestamps, late in time). Running a
/// young-early core against an old-late core makes the old core's
/// bursts arrive while the young core's speculative loads sit in the
/// tiny hierarchy's 4 shared L2 MSHRs — textbook §4.5 leapfrog steals,
/// and the victim core is usually asleep waiting on the stolen load.
fn mshr_hammer(id: u64, iters: i64, lines: u64, pad: Pad) -> Program {
    let mut a = Asm::new(format!("hammer-{id}"));
    let base = 0x40_0000u64 + id * 0x8_0000;
    // A 64-line region at 512-byte stride (32 KiB): far beyond the tiny
    // L1's 16 lines, so commit-time promotion never turns the stream
    // into hits.
    let words: Vec<u64> = (0..64 * 64).collect();
    a.data(DataSegment::words(base, &words));
    let (ptr, acc, v, i, n) = (Reg::x(1), Reg::x(2), Reg::x(3), Reg::x(4), Reg::x(5));
    let (t, one, b, s, idx) = (Reg::x(6), Reg::x(7), Reg::x(8), Reg::x(9), Reg::x(10));
    a.li(t, 1 << 20);
    a.li(one, 1);
    match pad {
        // Many sequence numbers, few cycles: a wide dependent-free run.
        Pad::Seq(k) => (0..k).for_each(|_| a.addi(t, t, 1)),
        // Few sequence numbers, many cycles: serialised long-latency divs.
        Pad::Time(k) => (0..k).for_each(|_| a.div(t, t, one)),
    }
    a.li(b, base as i64);
    a.li(s, 0);
    a.li(i, 0);
    a.li(n, iters);
    a.li(acc, 0);
    let top = a.here();
    // s += i: the iteration's starting line advances by a *growing*
    // increment, so every load PC sees a different stride each iteration
    // and the PC-indexed stride prefetcher never locks on.
    a.add(s, s, i);
    a.andi(s, s, 63);
    a.mv(idx, s);
    for _ in 0..lines {
        a.addi(idx, idx, 11); // co-prime step: distinct lines per burst
        a.andi(idx, idx, 63);
        a.slli(ptr, idx, 9);
        a.add(ptr, ptr, b);
        a.ld(v, ptr, 0);
        a.add(acc, acc, v); // dependent use: the core stalls on the miss
    }
    a.addi(i, i, 1);
    a.bne(i, n, top);
    a.halt();
    a.assemble()
}

enum Pad {
    Seq(u32),
    Time(u32),
}

/// Tentpole edge case: a sleeping core whose `next_wake` is far away
/// gets its in-flight load cancelled by the other core's leapfrog — the
/// push channel must re-schedule it immediately, at the exact cycle a
/// core ticked every cycle would have drained the cancellation.
#[test]
fn leapfrog_cancellation_mid_sleep_matches_lockstep() {
    let cfg = SystemConfig::tiny();
    // Each core holds at most `l1_mshrs = 2` outstanding misses, so the
    // two young-timestamp cores together keep all `l2_mshrs = 4` shared
    // MSHRs full of speculative demand loads; the old-timestamp core's
    // bursts then arrive at a full L2 and must steal.
    let programs = vec![
        mshr_hammer(0, 40, 8, Pad::Seq(500)), // young ts, loads in flight early
        mshr_hammer(1, 40, 8, Pad::Time(25)), // old ts, bursts arrive late
        mshr_hammer(2, 40, 8, Pad::Seq(500)), // young ts, loads in flight early
    ];
    let skip =
        assert_matches_reference(Scheme::ghost_minion(), cfg, programs, "leapfrog mid-sleep");
    // The scenario must actually exercise the push channel: leapfrog
    // steals happened and cancelled loads were replayed by their cores.
    assert!(
        skip.mem_stats.leapfrogs > 0,
        "scenario failed to provoke leapfrog steals"
    );
    let replays: u64 = skip.core_stats.iter().map(|s| s.load_replays).sum();
    assert!(
        replays > 0,
        "scenario failed to deliver a cancellation to a core"
    );
}

/// All cores quiescent at once: every core chases dependent DRAM misses,
/// so whole stretches have no runnable core and the scheduler jumps the
/// clock. Idle stall-counter replay must keep statistics identical.
#[test]
fn all_cores_quiescent_clock_jumps_match_lockstep() {
    let cfg = SystemConfig::tiny();
    // Strided dependent chains: each load's address depends on the
    // previous value, defeating the prefetcher and overlapping nothing.
    let chase = |id: u64| {
        let mut a = Asm::new(format!("chase-{id}"));
        let base = 0x60_0000u64 + id * 0x10_0000;
        let n = 64u64;
        // next[i] = address of element (i*17 mod n), a permutation cycle.
        let words: Vec<u64> = (0..n).map(|i| base + 8 * ((i * 17) % n)).collect();
        a.data(DataSegment::words(base, &words));
        let (p, i, cnt) = (Reg::x(1), Reg::x(2), Reg::x(3));
        a.li(p, base as i64);
        a.li(i, 0);
        a.li(cnt, 200);
        let top = a.here();
        a.ld(p, p, 0); // serialised: address depends on loaded value
        a.addi(i, i, 1);
        a.bne(i, cnt, top);
        a.halt();
        a.assemble()
    };
    let programs = vec![chase(0), chase(1), chase(2)];
    assert_matches_reference(Scheme::ghost_minion(), cfg, programs, "all-quiescent jumps");
}

/// Cores halting at very different times: the scheduler must drop each
/// halted core from the schedule and keep the survivors exact.
#[test]
fn staggered_halts_match_lockstep() {
    let cfg = SystemConfig::tiny();
    let programs = vec![
        mshr_hammer(0, 2, 4, Pad::Seq(0)),    // halts early
        mshr_hammer(1, 30, 4, Pad::Time(12)), // keeps running long after
    ];
    assert_matches_reference(Scheme::ghost_minion(), cfg, programs, "staggered halts");
}

/// A single-core run must degenerate to the plain jump path (tick,
/// then hop straight to `next_wake`) with no multicore bookkeeping
/// visible in any statistic — across scheme families with different
/// stall shapes, including the STT taint gate whose delays are settled
/// lazily by visibility parking.
#[test]
fn single_core_degenerates_to_jump_path() {
    let cfg = SystemConfig::tiny();
    for scheme in scheme_families() {
        assert_matches_reference(
            scheme,
            cfg,
            vec![mshr_hammer(0, 20, 5, Pad::Seq(0))],
            &format!("single-core/{}", scheme.name()),
        );
    }
}
