//! The PVA-based systems of §6.1, as [`MemorySystem`] adapters around
//! the cycle-level [`PvaUnit`]:
//!
//! * **PVA SDRAM** — the paper's prototype;
//! * **PVA SRAM** — the same parallel-access front end over an
//!   idealized single-cycle memory ("min/max parallel vector access
//!   SRAM"); comparing the two measures how well the scheduler hides
//!   SDRAM's activate/precharge overheads (§6.3.1 / figure 11).

use pva_sim::{BcStats, EventStats, HostRequest, OpKind, PvaConfig, PvaUnit};

use crate::trace::{MemorySystem, RunOutcome, RunStats, TraceOp, WORD_BYTES};

/// A [`MemorySystem`] wrapping the cycle-level PVA unit.
#[derive(Debug, Clone)]
pub struct PvaSystem {
    config: PvaConfig,
    name: &'static str,
    /// Event-loop counters from the most recent run (all zero before
    /// the first run, and for the reference model, which has no event
    /// queue).
    events: EventStats,
    /// Bank-controller counters of the most recent run, summed over
    /// all controllers (all zero before the first run).
    bc: BcStats,
    /// CAS commands (reads + writes) the devices accepted in the most
    /// recent run — the denominator for per-CAS scheduler rates.
    cas_commands: u64,
}

impl PvaSystem {
    /// The prototype: PVA front end over SDRAM.
    pub fn sdram() -> Self {
        PvaSystem {
            config: PvaConfig::default(),
            name: "pva-sdram",
            events: EventStats::default(),
            bc: BcStats::default(),
            cas_commands: 0,
        }
    }

    /// The idealized comparator: PVA front end over single-cycle SRAM.
    pub fn sram() -> Self {
        PvaSystem {
            config: PvaConfig::sram_backend(),
            name: "pva-sram",
            events: EventStats::default(),
            bc: BcStats::default(),
            cas_commands: 0,
        }
    }

    /// A custom-configured PVA system (used by the ablation benches).
    pub fn with_config(name: &'static str, config: PvaConfig) -> Self {
        PvaSystem {
            config,
            name,
            events: EventStats::default(),
            bc: BcStats::default(),
            cas_commands: 0,
        }
    }

    /// The underlying configuration.
    pub const fn config(&self) -> &PvaConfig {
        &self.config
    }

    /// Event-loop counters from the most recent run: executed versus
    /// skipped cycles, wake-ups popped, and the jump-size histogram.
    /// All zero for the reference model.
    pub const fn event_stats(&self) -> &EventStats {
        &self.events
    }

    /// Bank-controller counters from the most recent run, summed over
    /// all controllers — includes the generation-aware scheduler's
    /// group switches, coalesced bursts, and deferred activates.
    pub const fn scheduler_stats(&self) -> &BcStats {
        &self.bc
    }

    /// CAS commands (read + write bursts) the devices accepted in the
    /// most recent run. With burst coalescing one CAS can carry
    /// several elements, so this runs below the element count on
    /// BL4/BL8 parts.
    pub const fn cas_commands(&self) -> u64 {
        self.cas_commands
    }

    /// Executes the trace from an idle state but stops once the
    /// simulated clock reaches `deadline` cycles, returning the
    /// (possibly partial) outcome and whether the trace fully drained.
    pub fn run_until(&mut self, trace: &[TraceOp], deadline: u64) -> (RunOutcome, bool) {
        let mut unit = PvaUnit::new(self.config).expect("valid configuration");
        for op in trace {
            let request = match op.kind {
                OpKind::Read => HostRequest::Read { vector: op.vector },
                OpKind::Write => HostRequest::Write {
                    vector: op.vector,
                    data: vec![0u64; op.vector.length() as usize],
                },
            };
            unit.submit(request).expect("trace ops fit the line length");
        }
        let complete = unit
            .run_until(deadline)
            .expect("no watchdog trip inside the budget");
        self.events = *unit.event_stats();
        // Elements from the bank controllers (includes retried reads —
        // those words crossed the pins too); row traffic from the
        // summed device stats.
        let mut bc = BcStats::default();
        for s in &unit.bc_stats() {
            bc.merge(s);
        }
        self.bc = bc;
        let elements: u64 = bc.elements_read + bc.elements_written;
        let sdram = unit.sdram_stats();
        self.cas_commands = sdram.reads + sdram.writes;
        let outcome = RunOutcome {
            cycles: unit.now(),
            bytes_transferred: elements * WORD_BYTES,
            stats: RunStats {
                commands: unit.stats().commands,
                elements,
                activates: sdram.activates,
                precharges: sdram.precharges + sdram.auto_precharges,
            },
        };
        (outcome, complete)
    }
}

impl MemorySystem for PvaSystem {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run_trace(&mut self, trace: &[TraceOp]) -> RunOutcome {
        let (outcome, complete) = self.run_until(trace, u64::MAX);
        debug_assert!(complete, "an unbounded run always drains");
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pva_core::Vector;

    #[test]
    fn sdram_system_runs_a_trace() {
        let mut sys = PvaSystem::sdram();
        let t = [
            TraceOp::read(Vector::new(0, 1, 32).unwrap()),
            TraceOp::write(Vector::new(4096, 1, 32).unwrap()),
        ];
        let out = sys.run_trace(&t);
        assert!(out.cycles > 0);
        // 32 reads + 32 writes of 4-byte words.
        assert_eq!(out.stats.elements, 64);
        assert_eq!(out.bytes_transferred, 64 * 4);
        assert!(out.stats.commands >= 2);
        assert!(out.stats.activates > 0);
        assert_eq!(sys.name(), "pva-sdram");
    }

    #[test]
    fn runs_are_independent() {
        // run_trace resets state: same trace, same cycles.
        let mut sys = PvaSystem::sdram();
        let t = [TraceOp::read(Vector::new(0, 19, 32).unwrap())];
        assert_eq!(sys.run_trace(&t), sys.run_trace(&t));
    }

    #[test]
    fn run_until_bounds_the_clock_and_flags_completion() {
        let mut sys = PvaSystem::sdram();
        let t = [
            TraceOp::read(Vector::new(0, 19, 32).unwrap()),
            TraceOp::write(Vector::new(1 << 16, 19, 32).unwrap()),
        ];
        let full = sys.run_trace(&t);
        // A generous budget drains the trace and matches the unbounded run.
        let (bounded, complete) = sys.run_until(&t, full.cycles + 100);
        assert!(complete);
        assert_eq!(bounded, full);
        // A tight budget stops at the deadline with partial stats.
        let deadline = full.cycles / 2;
        let (partial, complete) = sys.run_until(&t, deadline);
        assert!(!complete);
        assert_eq!(partial.cycles, deadline);
        assert!(partial.stats.elements < full.stats.elements);
    }

    #[test]
    fn run_until_partial_outcomes_match_the_reference_stepper() {
        // The bounded fast path must agree with the bounded reference
        // model at every deadline, not just at the end of the trace.
        let fast_cfg = PvaConfig {
            fast_sim: true,
            ..PvaConfig::default()
        };
        let ref_cfg = PvaConfig {
            fast_sim: false,
            ..PvaConfig::default()
        };
        let mut fast = PvaSystem::with_config("fast", fast_cfg);
        let mut slow = PvaSystem::with_config("ref", ref_cfg);
        let t: Vec<TraceOp> = (0..4)
            .map(|i| TraceOp::read(Vector::new(i * 512 * 16, 16, 32).unwrap()))
            .collect();
        let full = slow.run_trace(&t).cycles;
        for deadline in [0, 1, 7, full / 3, full / 2, full - 1, full, full + 50] {
            let f = fast.run_until(&t, deadline);
            let s = slow.run_until(&t, deadline);
            assert_eq!(f, s, "deadline {deadline}");
        }
    }

    #[test]
    fn sram_tracks_sdram_on_parallel_strides() {
        let t: Vec<TraceOp> = (0..8)
            .map(|i| TraceOp::read(Vector::new(i * 640, 19, 32).unwrap()))
            .collect();
        let sdram = PvaSystem::sdram().run_trace(&t).cycles;
        let sram = PvaSystem::sram().run_trace(&t).cycles;
        let (lo, hi) = (sdram.min(sram) as f64, sdram.max(sram) as f64);
        assert!(hi <= lo * 1.2, "sdram {sdram} vs sram {sram}");
    }
}
