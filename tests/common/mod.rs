//! Helpers shared by the integration suites: the random-program
//! generator, the five scheme families with the most different stall
//! behaviour, and the reference-oracle comparison.

// Each suite compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use ghostminion_repro::core::{Machine, MachineResult, Scheme, SystemConfig};
use ghostminion_repro::isa::{Asm, DataSegment, Program, Reg};

/// Plain OoO, minion timestamps, commit-time exposure loads, taint
/// gating, and GhostMinion with §4.9 strict FU scheduling.
pub fn scheme_families() -> [Scheme; 5] {
    let mut strict = Scheme::ghost_minion();
    strict.strict_fu_order = true;
    [
        Scheme::unsafe_baseline(),
        Scheme::ghost_minion(),
        Scheme::invisispec_future(),
        Scheme::stt_spectre(),
        strict,
    ]
}

/// Runs `programs` under `scheme` through the production loop
/// ([`Machine::run`]) and the reference oracle
/// ([`Machine::run_reference`]), asserts that the final cycle count,
/// every per-core statistic and every memory counter agree, and returns
/// the production result.
///
/// It also checks the tick counters on both sides: every reference core
/// ticks once per cycle it ran, and no fast core ticks more often than
/// its reference twin.
pub fn assert_matches_reference(
    scheme: Scheme,
    cfg: SystemConfig,
    programs: Vec<Program>,
    label: &str,
) -> MachineResult {
    let mut fast_machine = Machine::new(scheme, cfg, programs.clone());
    let fast = fast_machine.run(cfg.max_cycles);
    let mut ref_machine = Machine::new(scheme, cfg, programs);
    let reference = ref_machine.run_reference(cfg.max_cycles);
    for (i, stats) in reference.core_stats.iter().enumerate() {
        let ref_ticks = ref_machine.core(i).ticks();
        assert_eq!(
            ref_ticks, stats.cycles,
            "{label}: reference core {i} did not tick once per cycle it ran"
        );
        let fast_ticks = fast_machine.core(i).ticks();
        assert!(
            fast_ticks <= ref_ticks,
            "{label}: core {i} ticked {fast_ticks} times, the reference only {ref_ticks}"
        );
    }
    assert_eq!(
        fast.cycles, reference.cycles,
        "{label}: cycle counts diverge"
    );
    assert_eq!(
        fast.core_stats, reference.core_stats,
        "{label}: per-core stats diverge"
    );
    assert_eq!(
        fast.mem_stats, reference.mem_stats,
        "{label}: memory counters diverge"
    );
    fast
}

/// Builds a random but always-terminating program: straight-line ALU
/// ops (including divides, for non-pipelined FU occupancy) over a
/// seeded register file, bounded loads and stores into a private
/// arena, data-dependent but bounded branches, and a final counted
/// loop.
pub fn random_program(ops: &[u8], seeds: &[u64]) -> Program {
    let mut a = Asm::new("random");
    let arena = 0x20_0000u64;
    let words: Vec<u64> = seeds.iter().cycle().take(64).copied().collect();
    a.data(DataSegment::words(arena, &words));
    a.li(Reg::x(20), arena as i64);
    for (i, &s) in seeds.iter().take(8).enumerate() {
        a.li(Reg::x(1 + i as u8), (s & 0xffff) as i64);
    }
    for (k, &op) in ops.iter().enumerate() {
        let rd = Reg::x(1 + (op % 8));
        let rs1 = Reg::x(1 + ((op >> 3) % 8));
        let rs2 = Reg::x(1 + ((op >> 5) % 4));
        match op % 11 {
            0 => a.add(rd, rs1, rs2),
            1 => a.sub(rd, rs1, rs2),
            2 => a.xor(rd, rs1, rs2),
            3 => a.mul(rd, rs1, rs2),
            4 => a.div(rd, rs1, rs2),
            5 => a.slli(rd, rs1, (op % 7) as i64),
            6 => {
                // Bounded load from the arena.
                a.andi(Reg::x(9), rs1, 0x1f8);
                a.add(Reg::x(9), Reg::x(9), Reg::x(20));
                a.ld(rd, Reg::x(9), 0);
            }
            7 => {
                a.andi(Reg::x(9), rs1, 0x1f8);
                a.add(Reg::x(9), Reg::x(9), Reg::x(20));
                a.st(rs2, Reg::x(9), 0);
            }
            8 => {
                // Data-dependent branch over one skipped instruction.
                let skip = a.label();
                a.andi(Reg::x(9), rs1, 1 + (k as i64 % 3));
                a.beq(Reg::x(9), Reg::ZERO, skip);
                a.addi(rd, rd, 1);
                a.bind(skip);
            }
            9 => a.fadd(Reg::f(1), rs1, rs2),
            _ => a.rem(rd, rs1, rs2),
        }
    }
    // A counted loop to exercise the predictor and squash paths.
    let (i, n) = (Reg::x(10), Reg::x(11));
    a.li(i, 0);
    a.li(n, 40);
    let top = a.here();
    a.addi(Reg::x(1), Reg::x(1), 3);
    a.addi(i, i, 1);
    a.bne(i, n, top);
    a.halt();
    a.assemble()
}
