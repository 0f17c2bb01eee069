//! The full machine: out-of-order cores plus the scheme's memory system.

use crate::memsys::{HierarchyConfig, MemStats, MemorySystem};
use crate::scheme::Scheme;
use gm_isa::Program;
use gm_mem::CacheConfig;
use gm_sim::{Core, CoreConfig, CoreStats, MemoryBackend, TraceSink};
use gm_stats::Json;
use std::cell::RefCell;
use std::rc::Rc;

/// Complete system configuration (Table 1 by default).
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Per-core pipeline configuration.
    pub core: CoreConfig,
    /// Memory hierarchy configuration.
    pub hierarchy: HierarchyConfig,
    /// Simulation deadline: a run that has not halted within this many
    /// cycles is treated as deadlocked. This is the single knob every
    /// harness reads; [`Machine::run`] receives it via
    /// `gm_bench::run_single` and the bench runner.
    pub max_cycles: u64,
}

impl SystemConfig {
    /// Upper bound for any single Table 1 simulation (a run that exceeds
    /// this has deadlocked).
    pub const MICRO2021_MAX_CYCLES: u64 = 2_000_000_000;

    /// The paper's Table 1 system.
    pub fn micro2021() -> Self {
        Self {
            core: CoreConfig::micro2021(),
            hierarchy: HierarchyConfig::micro2021(),
            max_cycles: Self::MICRO2021_MAX_CYCLES,
        }
    }

    /// Small configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            core: CoreConfig::tiny(),
            hierarchy: HierarchyConfig::tiny(),
            // Tiny workloads are short; anything past this is a hang.
            max_cycles: 50_000_000,
        }
    }

    /// Returns the configuration with a different simulation deadline.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Canonical-JSON form of the full system configuration: every
    /// field of the core, hierarchy, predictor, prefetcher, and DRAM
    /// models, in a fixed order.
    ///
    /// Together with [`Scheme::canonical_json`] this is the fingerprint
    /// input of the result store: any field change (even a latency tweak)
    /// renders differently and therefore invalidates cached results.
    /// Every struct is destructured *exhaustively* (no `..`), so adding
    /// a configuration field fails to compile here until it is added to
    /// the rendering — the only way a new knob could silently escape the
    /// fingerprint and cause stale cache hits.
    pub fn canonical_json(&self) -> Json {
        let Self {
            core: c,
            hierarchy: h,
            max_cycles,
        } = *self;
        let gm_sim::CoreConfig {
            fetch_width,
            rename_width,
            issue_width,
            commit_width,
            rob_entries,
            iq_entries,
            lq_entries,
            sq_entries,
            int_regs,
            fp_regs,
            int_alu,
            fp_alu,
            muldiv,
            frontend_delay,
            fetch_buffer,
            bpred,
            strict_fu_order,
            taint_mode,
        } = c;
        let gm_sim::BpredConfig {
            local_entries,
            global_entries,
            choice_entries,
            btb_entries,
            ras_entries,
        } = bpred;
        let mut core = Json::object();
        core.set("fetch_width", fetch_width)
            .set("rename_width", rename_width)
            .set("issue_width", issue_width)
            .set("commit_width", commit_width)
            .set("rob_entries", rob_entries)
            .set("iq_entries", iq_entries)
            .set("lq_entries", lq_entries)
            .set("sq_entries", sq_entries)
            .set("int_regs", int_regs)
            .set("fp_regs", fp_regs)
            .set("int_alu", int_alu)
            .set("fp_alu", fp_alu)
            .set("muldiv", muldiv)
            .set("frontend_delay", frontend_delay)
            .set("fetch_buffer", fetch_buffer)
            .set("bpred", {
                let mut j = Json::object();
                j.set("local_entries", local_entries)
                    .set("global_entries", global_entries)
                    .set("choice_entries", choice_entries)
                    .set("btb_entries", btb_entries)
                    .set("ras_entries", ras_entries);
                j
            })
            // The per-scheme overrides (Machine::new replaces both from
            // the Scheme) still belong here: a config can also set them
            // directly, e.g. through run_single.
            .set("strict_fu_order", strict_fu_order)
            .set(
                "taint_mode",
                match taint_mode {
                    None => Json::Null,
                    Some(gm_sim::TaintMode::Spectre) => Json::from("spectre"),
                    Some(gm_sim::TaintMode::Future) => Json::from("future"),
                },
            );

        let cache = |cc: CacheConfig| {
            let CacheConfig {
                size_bytes,
                ways,
                latency,
            } = cc;
            let mut j = Json::object();
            j.set("size_bytes", size_bytes)
                .set("ways", ways)
                .set("latency", latency);
            j
        };
        let HierarchyConfig {
            l1i,
            l1d,
            l1_mshrs,
            l2,
            l2_mshrs,
            dram,
            prefetcher,
            l0_bytes,
            l0_ways,
            replay_latency,
        } = h;
        let gm_mem::DramConfig {
            banks,
            row_bytes,
            t_cas,
            t_rcd,
            t_rp,
            t_burst,
            close_speculative_pages,
        } = dram;
        let gm_mem::StridePrefetcherConfig {
            entries,
            threshold,
            max_confidence,
            degree,
            max_distance,
        } = prefetcher;
        let mut hier = Json::object();
        hier.set("l1i", cache(l1i))
            .set("l1d", cache(l1d))
            .set("l1_mshrs", l1_mshrs)
            .set("l2", cache(l2))
            .set("l2_mshrs", l2_mshrs)
            .set("dram", {
                let mut j = Json::object();
                j.set("banks", banks)
                    .set("row_bytes", row_bytes)
                    .set("t_cas", t_cas)
                    .set("t_rcd", t_rcd)
                    .set("t_rp", t_rp)
                    .set("t_burst", t_burst)
                    .set("close_speculative_pages", close_speculative_pages);
                j
            })
            .set("prefetcher", {
                let mut j = Json::object();
                j.set("entries", entries)
                    .set("threshold", u64::from(threshold))
                    .set("max_confidence", u64::from(max_confidence))
                    .set("degree", degree)
                    .set("max_distance", max_distance);
                j
            })
            .set("l0_bytes", l0_bytes)
            .set("l0_ways", l0_ways)
            .set("replay_latency", replay_latency);

        let mut j = Json::object();
        j.set("core", core)
            .set("hierarchy", hier)
            .set("max_cycles", max_cycles);
        j
    }
}

/// Result of a completed run.
///
/// `MachineResult` is `Send` (a static assertion below keeps it that
/// way): the bench runner moves results across worker threads, and the
/// fields carry enough metadata — scheme, core count, per-core and
/// memory-system counters — to serialise a run as JSON without holding
/// onto the `Machine`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineResult {
    /// Cycles until every core halted.
    pub cycles: u64,
    /// Per-core pipeline statistics.
    pub core_stats: Vec<CoreStats>,
    /// Memory-system statistics.
    pub mem_stats: MemStats,
    /// Scheme that was run (for report labelling).
    pub scheme_name: &'static str,
    /// Number of simulated cores (one program per core).
    pub threads: usize,
}

impl MachineResult {
    /// Total committed instructions across cores.
    pub fn committed(&self) -> u64 {
        self.core_stats.iter().map(|s| s.committed).sum()
    }
}

/// Cores + memory system under one mitigation scheme.
pub struct Machine {
    cores: Vec<Core>,
    mem: MemorySystem,
    cycle: u64,
}

impl Machine {
    /// Builds a machine running one program per core. Core-side scheme
    /// settings (STT taint mode, §4.9 FU ordering) are applied to the
    /// core configuration automatically.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    pub fn new(scheme: Scheme, cfg: SystemConfig, programs: Vec<Program>) -> Self {
        assert!(!programs.is_empty(), "need at least one program");
        let n = programs.len();
        let mut core_cfg = cfg.core;
        core_cfg.taint_mode = scheme.taint_mode();
        core_cfg.strict_fu_order = scheme.strict_fu_order;
        let mut mem = MemorySystem::new(scheme, cfg.hierarchy, n);
        let cores: Vec<Core> = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| Core::new(i, core_cfg, p))
            .collect();
        for c in &cores {
            c.install_program_data(&mut mem);
        }
        Self {
            cores,
            mem,
            cycle: 0,
        }
    }

    /// Enables the Strictness-Order auditor (records timing flows for
    /// post-hoc checking; slows simulation).
    pub fn enable_auditor(&mut self) {
        self.mem.auditor = Some(crate::order::OrderAuditor::new());
    }

    /// The auditor, if enabled.
    pub fn auditor(&self) -> Option<&crate::order::OrderAuditor> {
        self.mem.auditor.as_ref()
    }

    /// Installs one trace sink shared by every core: each core gets a
    /// clone of the same `Rc` handle, so a multicore machine streams
    /// all cores' lifecycle events into a single observer (events
    /// carry the core index). Tracing is observation-only and provably
    /// never perturbs simulation — see [`gm_sim::TraceSink`] and the
    /// trace-neutrality oracle tests. Call before the first tick.
    pub fn set_trace(&mut self, sink: Rc<RefCell<dyn TraceSink>>) {
        for core in &mut self.cores {
            core.set_trace(Rc::clone(&sink));
        }
    }

    /// Access to a core (register readout, stats).
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Access to the memory system (stats, probes in tests).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Whether every core has halted.
    pub fn halted(&self) -> bool {
        self.cores.iter().all(|c| c.halted())
    }

    /// Runs until all cores halt (or `max_cycles`), returning the result.
    ///
    /// The loop is wake-ordered: it keeps each core's next wake cycle
    /// (`u64::MAX` once halted), jumps to the earliest — the first cycle
    /// at which *any* core can act — and ticks only the cores due then,
    /// so a core stalled on memory for a thousand cycles costs zero
    /// `tick` calls while the other cores keep running. Per-cycle stall
    /// counters of the elided cycles are replayed just before a slept
    /// core's next real tick, so skipping is invisible in the
    /// statistics. Cores are always ticked in index order within a
    /// cycle, exactly like the per-cycle loop.
    ///
    /// The one way the memory system pushes an event *at* a core is a
    /// leapfrog cancellation (§4.5): when any are queued after a cycle,
    /// the affected sleeping cores are re-scheduled for the very next
    /// cycle (and a core later in index order is caught the same cycle),
    /// which is precisely the cycle at which a core ticked every cycle
    /// would first drain the cancellation. The memory system is
    /// otherwise purely reactive (every latency is computed when a
    /// request arrives), so a cycle in which no core acts cannot change
    /// backend state either — results are bit-identical to
    /// [`Machine::run_reference`].
    ///
    /// # Panics
    ///
    /// Panics if any core fails to halt within `max_cycles` — a workload
    /// that does not terminate is a harness bug.
    ///
    /// # Examples
    ///
    /// ```
    /// use ghostminion::{Machine, Scheme, SystemConfig};
    /// use gm_isa::{Asm, Reg};
    ///
    /// let mut a = Asm::new("answer");
    /// a.li(Reg::x(1), 42);
    /// a.halt();
    /// let cfg = SystemConfig::tiny();
    /// let mut m = Machine::new(Scheme::ghost_minion(), cfg, vec![a.assemble()]);
    /// let result = m.run(cfg.max_cycles);
    /// assert!(result.cycles > 0);
    /// assert_eq!(m.core(0).reg(Reg::x(1)), 42);
    /// ```
    pub fn run(&mut self, max_cycles: u64) -> MachineResult {
        let start = self.cycle;
        // Next-wake cycle per core (`u64::MAX` = halted), and the cycle of
        // each core's last real tick, for idle-counter replay.
        let mut wake: Vec<u64> = self
            .cores
            .iter()
            .map(|c| if c.halted() { u64::MAX } else { start })
            .collect();
        let mut last_tick = vec![start; wake.len()];
        loop {
            let now = wake.iter().copied().min().unwrap_or(u64::MAX);
            if now == u64::MAX {
                break;
            }
            if now >= max_cycles {
                self.cycle = max_cycles;
                break;
            }
            debug_assert!(now >= self.cycle, "scheduler must move forward");
            let next = now + 1;
            for (i, core) in self.cores.iter_mut().enumerate() {
                if wake[i] == u64::MAX || (wake[i] > now && !self.mem.cancellations_pending(i)) {
                    // Halted, or not due and no cancellation (possibly
                    // pushed by an earlier core *this* cycle) redirects it
                    // here.
                    continue;
                }
                if now > last_tick[i] + 1 {
                    core.account_idle_cycles(now - last_tick[i] - 1);
                }
                let at = core.tick(&mut self.mem, now);
                last_tick[i] = now;
                wake[i] = if core.halted() {
                    u64::MAX
                } else {
                    at.max(next)
                };
            }
            if self.mem.any_cancellations_pending() {
                // Push channel: a cancellation queued this cycle for a
                // core at or before its issuer's index is seen at the
                // next cycle — the same moment a core ticked every
                // cycle would drain it.
                for (i, w) in wake.iter_mut().enumerate() {
                    if *w != u64::MAX && self.mem.cancellations_pending(i) {
                        *w = (*w).min(next);
                    }
                }
            }
            self.cycle = next;
        }
        assert!(
            self.halted(),
            "machine did not halt within {max_cycles} cycles (scheme {})",
            self.mem.scheme().name()
        );
        self.result()
    }

    /// The reference oracle for [`Machine::run`]: ticks every core on
    /// every cycle, and every core issues by scanning its whole IQ and
    /// sends loads by scanning its whole LQ (see
    /// [`Core::set_reference`]). It skips no cycles and never selects
    /// from the wakeup-driven ready set or the send list, so agreement
    /// with it in every result field pins all three shortcuts of the
    /// production loop.
    /// Slow; for tests only.
    pub fn run_reference(&mut self, max_cycles: u64) -> MachineResult {
        for core in &mut self.cores {
            core.set_reference();
        }
        while !self.halted() && self.cycle < max_cycles {
            for core in &mut self.cores {
                core.tick(&mut self.mem, self.cycle);
            }
            self.cycle += 1;
        }
        assert!(
            self.halted(),
            "machine did not halt within {max_cycles} cycles (scheme {})",
            self.mem.scheme().name()
        );
        self.result()
    }

    fn result(&self) -> MachineResult {
        MachineResult {
            cycles: self.cycle,
            core_stats: self.cores.iter().map(|c| *c.stats()).collect(),
            mem_stats: *self.mem.stats(),
            scheme_name: self.mem.scheme().name(),
            threads: self.cores.len(),
        }
    }
}

/// Convenience: runs `program` once under `scheme` on a single core and
/// returns the result.
pub fn run_single(scheme: Scheme, cfg: SystemConfig, program: Program) -> MachineResult {
    Machine::new(scheme, cfg, vec![program]).run(cfg.max_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_isa::{Asm, DataSegment, Reg};
    use gm_sim::MemoryBackend;

    fn sum_array_program(n: u64) -> Program {
        let mut a = Asm::new("sum-array");
        let base = 0x10_0000u64;
        let data: Vec<u64> = (0..n).collect();
        a.data(DataSegment::words(base, &data));
        let (ptr, end, acc, v) = (Reg::x(1), Reg::x(2), Reg::x(3), Reg::x(4));
        a.li(ptr, base as i64);
        a.li(end, (base + 8 * n) as i64);
        a.li(acc, 0);
        let top = a.here();
        a.ld(v, ptr, 0);
        a.add(acc, acc, v);
        a.addi(ptr, ptr, 8);
        a.bne(ptr, end, top);
        a.halt();
        a.assemble()
    }

    #[test]
    fn all_schemes_compute_the_same_result() {
        let expected: u64 = (0..64).sum();
        for scheme in Scheme::figure_lineup() {
            let mut m = Machine::new(scheme, SystemConfig::tiny(), vec![sum_array_program(64)]);
            let r = m.run(2_000_000);
            assert_eq!(
                m.core(0).reg(Reg::x(3)),
                expected,
                "scheme {} must be functionally transparent",
                r.scheme_name
            );
        }
    }

    #[test]
    fn breakdown_schemes_compute_the_same_result() {
        let expected: u64 = (0..64).sum();
        for scheme in Scheme::breakdown_lineup() {
            let mut m = Machine::new(scheme, SystemConfig::tiny(), vec![sum_array_program(64)]);
            let r = m.run(2_000_000);
            assert_eq!(m.core(0).reg(Reg::x(3)), expected, "{}", r.scheme_name);
        }
    }

    #[test]
    fn protected_schemes_are_not_faster_than_unsafe_here() {
        // On a cache-unfriendly workload the unsafe baseline should be at
        // least as fast as the strongly-protected InvisiSpec-Future.
        let base = run_single(
            Scheme::unsafe_baseline(),
            SystemConfig::tiny(),
            sum_array_program(256),
        );
        let future = run_single(
            Scheme::invisispec_future(),
            SystemConfig::tiny(),
            sum_array_program(256),
        );
        assert!(
            future.cycles >= base.cycles,
            "InvisiSpec-Future ({}) should not beat unsafe ({})",
            future.cycles,
            base.cycles
        );
    }

    #[test]
    fn ghostminion_overhead_is_bounded_on_simple_streaming() {
        let base = run_single(
            Scheme::unsafe_baseline(),
            SystemConfig::tiny(),
            sum_array_program(256),
        );
        let gm = run_single(
            Scheme::ghost_minion(),
            SystemConfig::tiny(),
            sum_array_program(256),
        );
        let ratio = gm.cycles as f64 / base.cycles as f64;
        assert!(
            ratio < 2.0,
            "GhostMinion ratio {ratio:.2} should be far below heavyweight schemes"
        );
    }

    #[test]
    fn multicore_shared_counter_with_ll_sc() {
        // 4 cores each add 1 to a shared counter 50 times under a
        // spinlock built from LL/SC.
        let lock = 0x20_0000u64;
        let counter = 0x20_0040u64;
        let make = |id: u64| {
            let mut a = Asm::new(format!("locker-{id}"));
            let (laddr, caddr, tmp, ok, i, n, one) = (
                Reg::x(1),
                Reg::x(2),
                Reg::x(3),
                Reg::x(4),
                Reg::x(5),
                Reg::x(6),
                Reg::x(7),
            );
            a.li(laddr, lock as i64);
            a.li(caddr, counter as i64);
            a.li(i, 0);
            a.li(n, 50);
            a.li(one, 1);
            let outer = a.here();
            // acquire: spin until ll sees 0 and sc of 1 succeeds
            let acquire = a.here();
            a.ll(tmp, laddr);
            a.bne(tmp, Reg::ZERO, acquire);
            a.sc(ok, one, laddr);
            a.bne(ok, Reg::ZERO, acquire);
            // Acquire fence: the critical-section load must not be
            // hoisted above the lock acquisition by the OoO core.
            a.fence();
            // critical section
            a.ld(tmp, caddr, 0);
            a.addi(tmp, tmp, 1);
            a.st(tmp, caddr, 0);
            // release
            a.st(Reg::ZERO, laddr, 0);
            a.addi(i, i, 1);
            a.bne(i, n, outer);
            a.halt();
            a.assemble()
        };
        let programs = (0..4).map(make).collect();
        let mut m = Machine::new(Scheme::ghost_minion(), SystemConfig::tiny(), programs);
        m.run(10_000_000);
        assert_eq!(
            m.mem().read_value(counter, 8),
            200,
            "LL/SC spinlock must serialise all 200 increments"
        );
    }

    #[test]
    fn result_reports_scheme_and_counts() {
        let r = run_single(
            Scheme::ghost_minion(),
            SystemConfig::tiny(),
            sum_array_program(16),
        );
        assert_eq!(r.scheme_name, "GhostMinion");
        assert_eq!(r.threads, 1);
        assert!(r.committed() > 16 * 4);
        assert!(r.mem_stats.loads > 0);
    }

    #[test]
    fn machine_result_is_send_and_static() {
        // The bench runner moves results between worker threads.
        fn assert_send<T: Send + 'static>() {}
        assert_send::<MachineResult>();
    }

    #[test]
    fn max_cycles_is_one_knob_on_system_config() {
        assert_eq!(
            SystemConfig::micro2021().max_cycles,
            SystemConfig::MICRO2021_MAX_CYCLES
        );
        let cfg = SystemConfig::micro2021().with_max_cycles(1234);
        assert_eq!(cfg.max_cycles, 1234);
    }

    #[test]
    fn canonical_json_pins_the_table1_rendering() {
        // The result store keys cached simulations on this rendering: if
        // this test fails, a config value or the rendering changed — fine,
        // update the pin; old caches must be invalidated anyway. (Missing
        // *new* fields can't happen silently: canonical_json destructures
        // every config struct exhaustively, so that's a compile error.)
        let j = SystemConfig::micro2021().canonical_json().render();
        assert_eq!(
            j,
            "{\"core\":{\"fetch_width\":8,\"rename_width\":8,\"issue_width\":8,\
             \"commit_width\":8,\"rob_entries\":192,\"iq_entries\":64,\
             \"lq_entries\":32,\"sq_entries\":32,\"int_regs\":256,\"fp_regs\":256,\
             \"int_alu\":6,\"fp_alu\":4,\"muldiv\":2,\"frontend_delay\":3,\
             \"fetch_buffer\":16,\"bpred\":{\"local_entries\":2048,\
             \"global_entries\":8192,\"choice_entries\":8192,\"btb_entries\":4096,\
             \"ras_entries\":16},\"strict_fu_order\":false,\"taint_mode\":null},\
             \"hierarchy\":{\"l1i\":{\"size_bytes\":32768,\"ways\":2,\"latency\":2},\
             \"l1d\":{\"size_bytes\":65536,\"ways\":2,\"latency\":2},\"l1_mshrs\":4,\
             \"l2\":{\"size_bytes\":2097152,\"ways\":8,\"latency\":20},\"l2_mshrs\":20,\
             \"dram\":{\"banks\":8,\"row_bytes\":8192,\"t_cas\":28,\"t_rcd\":28,\
             \"t_rp\":28,\"t_burst\":8,\"close_speculative_pages\":false},\
             \"prefetcher\":{\"entries\":64,\"threshold\":2,\"max_confidence\":3,\
             \"degree\":4,\"max_distance\":64},\"l0_bytes\":2048,\"l0_ways\":2,\
             \"replay_latency\":22},\"max_cycles\":2000000000}"
        );
    }

    #[test]
    fn canonical_json_tracks_every_knob_change() {
        let base = SystemConfig::micro2021().canonical_json().render();
        let mut a = SystemConfig::micro2021();
        a.core.rob_entries = 191;
        let mut b = SystemConfig::micro2021();
        b.hierarchy.l2.latency = 21;
        let c = SystemConfig::micro2021().with_max_cycles(1);
        for changed in [a.canonical_json(), b.canonical_json(), c.canonical_json()] {
            assert_ne!(changed.render(), base);
        }
        assert_ne!(base, SystemConfig::tiny().canonical_json().render());
    }
}
