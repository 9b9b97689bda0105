//! Device replay: re-issues a run's recorded SDRAM commands
//! into fresh devices and times the device API they exercise.
//!
//! Each bank's `TraceEvent::BankOp` stream drives a fresh
//! `Sdram::new(preset)`: `advance` to the event's cycle, then
//! `can_issue`, then `issue`. READs and WRITEs replay as single-word
//! CAS commands at column 0. On bursting parts a single-word WRITE arms
//! tWR earlier than the recorded burst did, so every replayed command
//! must still be accepted; a refused one is counted as a reject.
//!
//! The bank controller does not log the precharges that close rows
//! before an AUTO REFRESH, so a replayed refresh would be refused. No
//! workload's run lasts long enough to reach a refresh; if one did, the
//! reject count would show it.

use std::time::Instant;

use pva_sim::TraceEvent;
use sdram::{CmdClass, Sdram, SdramCmd, SdramConfig, SdramStats};

/// What replaying one run's commands did and cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOutcome {
    /// Commands offered to a device.
    pub commands: u64,
    /// Commands `can_issue` or `issue` refused.
    pub rejects: u64,
    /// `advance` calls that moved a device clock.
    pub advances: u64,
    /// Host nanoseconds in `can_issue`, `issue` and `advance`, including
    /// one clock read per call.
    pub can_issue_ns: u64,
    /// See `can_issue_ns`.
    pub issue_ns: u64,
    /// See `can_issue_ns`.
    pub advance_ns: u64,
    /// The replay devices' counters, summed over banks.
    pub stats: SdramStats,
}

impl ReplayOutcome {
    /// Adds another run's replay into this one.
    pub fn absorb(&mut self, other: &ReplayOutcome) {
        self.commands += other.commands;
        self.rejects += other.rejects;
        self.advances += other.advances;
        self.can_issue_ns += other.can_issue_ns;
        self.issue_ns += other.issue_ns;
        self.advance_ns += other.advance_ns;
        self.stats.merge(&other.stats);
    }

    /// Whether the replay accepted every command and issued exactly the
    /// recorded run's activates, CAS commands, precharges and refreshes.
    pub fn matches(&self, recorded: &SdramStats) -> bool {
        let (r, s) = (recorded, &self.stats);
        self.rejects == 0
            && (r.activates, r.reads, r.writes) == (s.activates, s.reads, s.writes)
            && (r.precharges, r.auto_precharges, r.refreshes)
                == (s.precharges, s.auto_precharges, s.refreshes)
    }

    fn advance_to(&mut self, device: &mut Sdram, cycle: u64) {
        if cycle > device.now() {
            let t = Instant::now();
            device.advance(cycle - device.now());
            self.advance_ns += t.elapsed().as_nanos() as u64;
            self.advances += 1;
        }
    }

    fn offer(&mut self, device: &mut Sdram, cmd: SdramCmd) {
        self.commands += 1;
        let t0 = Instant::now();
        let legal = device.can_issue(&cmd).is_ok();
        let t1 = Instant::now();
        self.can_issue_ns += (t1 - t0).as_nanos() as u64;
        if !legal {
            self.rejects += 1;
            return;
        }
        let accepted = device.issue(cmd).is_ok();
        self.issue_ns += t1.elapsed().as_nanos() as u64;
        if !accepted {
            self.rejects += 1;
        }
    }
}

/// Replays every `BankOp` in `events` (cycle-ordered, as
/// `PvaUnit::take_events` returns them) into `banks` fresh devices.
pub fn replay(config: SdramConfig, banks: usize, events: &[TraceEvent]) -> ReplayOutcome {
    let mut per_bank: Vec<Vec<(u64, CmdClass, u32, u64)>> = vec![Vec::new(); banks];
    for event in events {
        if let TraceEvent::BankOp {
            cycle,
            bank,
            op,
            internal_bank,
            row,
        } = *event
        {
            let class = CmdClass::from_mnemonic(op).expect("trace mnemonics come from CmdClass");
            per_bank[bank].push((cycle, class, internal_bank, row));
        }
    }
    let mut out = ReplayOutcome::default();
    for ops in per_bank {
        let mut device = Sdram::new(config);
        for (cycle, class, bank, row) in ops {
            out.advance_to(&mut device, cycle);
            out.offer(&mut device, command(class, bank, row));
        }
        out.stats.merge(device.stats());
    }
    out
}

/// The single-word device command a recorded operation replays as.
fn command(class: CmdClass, bank: u32, row: u64) -> SdramCmd {
    match class {
        CmdClass::Activate => SdramCmd::Activate { bank, row },
        CmdClass::Read | CmdClass::ReadAuto => SdramCmd::Read {
            bank,
            col: 0,
            auto_precharge: class == CmdClass::ReadAuto,
            tag: 0,
        },
        CmdClass::Write | CmdClass::WriteAuto => SdramCmd::Write {
            bank,
            col: 0,
            data: 0,
            auto_precharge: class == CmdClass::WriteAuto,
        },
        CmdClass::Precharge => SdramCmd::Precharge { bank },
        CmdClass::Refresh => SdramCmd::Refresh,
    }
}
