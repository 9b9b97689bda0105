//! The bank-controller state machine as a declarative transition table.
//!
//! Each internal bank of an SDRAM moves through five observable states
//! (idle, activating, active, precharging, refreshing). Previously the
//! legal command set per state lived implicitly in `Sdram::can_issue`
//! match arms, and the command mnemonics used by the trace log and the
//! VCD exporter were duplicated string literals. This module makes the
//! state machine *data*: one [`TRANSITIONS`] table covering every
//! (state, event) pair, consumed by
//!
//! * the device model ([`Sdram::issue`](crate::Sdram::issue) derives
//!   row-buffer open/close from the successor state, and debug-asserts
//!   that every command `can_issue` admits is legal in the table),
//! * the trace log and VCD exporter (mnemonics and wave codes come
//!   from [`CmdClass`], eliminating string drift), and
//! * the `pva-analysis` binary, whose FSM pass exhaustively checks the
//!   table for completeness, reachability and dead states.
//!
//! The table captures *state-machine* legality. Multi-cycle timing
//! residuals that span states (tRC across an activate/precharge pair,
//! tRAS/tWR holding up a precharge inside `Active`) remain the job of
//! the [restimers](crate::Restimer); the table is necessary, not
//! sufficient, for issue legality — exactly the split between the FSM
//! PLA and the restimer counters in the §5.2.5 hardware. The same
//! split covers the channel-level constraints of modern device
//! generations (tCCD/tRRD/tFAW, see [`crate::ChannelTimers`] and the
//! [`crate::protocol`] tables): they are pure timing and never add
//! bank states, so this table is identical for every
//! [`crate::DevicePreset`].

/// Observable state of one internal bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankState {
    /// Row closed, precharge complete: ready for ACTIVATE.
    Idle,
    /// ACTIVATE accepted, tRCD still running: row open, not yet
    /// readable.
    Activating,
    /// Row open and tRCD satisfied: READ/WRITE legal.
    Active,
    /// PRECHARGE (or auto-precharge) accepted, tRP still running.
    Precharging,
    /// Device-wide AUTO REFRESH occupying the bank for tRFC.
    Refreshing,
}

impl BankState {
    /// Every state, in the order used by the transition table.
    pub const ALL: [BankState; 5] = [
        BankState::Idle,
        BankState::Activating,
        BankState::Active,
        BankState::Precharging,
        BankState::Refreshing,
    ];

    /// Human-readable state name (trace logs, diagnostics, waveforms).
    pub const fn name(self) -> &'static str {
        match self {
            BankState::Idle => "IDLE",
            BankState::Activating => "ACTIVATING",
            BankState::Active => "ACTIVE",
            BankState::Precharging => "PRECHARGING",
            BankState::Refreshing => "REFRESHING",
        }
    }

    /// Whether the row buffer holds an open row in this state.
    pub const fn row_open(self) -> bool {
        matches!(self, BankState::Activating | BankState::Active)
    }
}

/// Command classes as seen by one internal bank — the same granularity
/// the trace log and VCD export use (auto-precharge variants are
/// distinct operations on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmdClass {
    /// ACTIVATE: open a row.
    Activate,
    /// READ without auto-precharge.
    Read,
    /// READ with auto-precharge.
    ReadAuto,
    /// WRITE without auto-precharge.
    Write,
    /// WRITE with auto-precharge.
    WriteAuto,
    /// Explicit PRECHARGE.
    Precharge,
    /// Device-wide AUTO REFRESH.
    Refresh,
}

impl CmdClass {
    /// Every command class, in mnemonic order.
    pub const ALL: [CmdClass; 7] = [
        CmdClass::Activate,
        CmdClass::Read,
        CmdClass::ReadAuto,
        CmdClass::Write,
        CmdClass::WriteAuto,
        CmdClass::Precharge,
        CmdClass::Refresh,
    ];

    /// Trace-log mnemonic for this command class.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            CmdClass::Activate => "ACT",
            CmdClass::Read => "RD",
            CmdClass::ReadAuto => "RDA",
            CmdClass::Write => "WR",
            CmdClass::WriteAuto => "WRA",
            CmdClass::Precharge => "PRE",
            CmdClass::Refresh => "REF",
        }
    }

    /// 4-bit VCD wave code (0 is reserved for "no operation").
    pub const fn vcd_code(self) -> u8 {
        match self {
            CmdClass::Activate => 1,
            CmdClass::Read => 2,
            CmdClass::ReadAuto => 3,
            CmdClass::Write => 4,
            CmdClass::WriteAuto => 5,
            CmdClass::Precharge => 6,
            CmdClass::Refresh => 7,
        }
    }

    /// Inverse of [`CmdClass::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<CmdClass> {
        CmdClass::ALL.into_iter().find(|c| c.mnemonic() == s)
    }

    /// Classifies a device command (NOP has no class: it is not an
    /// event).
    pub const fn of(cmd: &crate::SdramCmd) -> Option<CmdClass> {
        use crate::SdramCmd;
        match *cmd {
            SdramCmd::Activate { .. } => Some(CmdClass::Activate),
            SdramCmd::Read { auto_precharge, .. } => Some(if auto_precharge {
                CmdClass::ReadAuto
            } else {
                CmdClass::Read
            }),
            SdramCmd::Write { auto_precharge, .. } => Some(if auto_precharge {
                CmdClass::WriteAuto
            } else {
                CmdClass::Write
            }),
            SdramCmd::Precharge { .. } => Some(CmdClass::Precharge),
            SdramCmd::Refresh => Some(CmdClass::Refresh),
            SdramCmd::Nop => None,
        }
    }
}

/// An event one internal bank can observe: a command at the clock
/// edge, or one of its restimers expiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankEvent {
    /// A command addressed at (or covering) this bank.
    Command(CmdClass),
    /// tRCD expired: the opened row becomes readable.
    TRcdExpired,
    /// tRP expired: the precharge completed.
    TRpExpired,
    /// tRFC expired: the refresh completed.
    TRfcExpired,
}

impl BankEvent {
    /// Every event: the seven command classes plus the three timer
    /// expiries.
    pub const ALL: [BankEvent; 10] = [
        BankEvent::Command(CmdClass::Activate),
        BankEvent::Command(CmdClass::Read),
        BankEvent::Command(CmdClass::ReadAuto),
        BankEvent::Command(CmdClass::Write),
        BankEvent::Command(CmdClass::WriteAuto),
        BankEvent::Command(CmdClass::Precharge),
        BankEvent::Command(CmdClass::Refresh),
        BankEvent::TRcdExpired,
        BankEvent::TRpExpired,
        BankEvent::TRfcExpired,
    ];
}

/// Result of presenting an event to a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Transition to the given state.
    Next(BankState),
    /// The event does not apply in this state and is ignored
    /// (self-loop) — e.g. a tRP expiry while a row is open.
    Ignore,
    /// The event is illegal in this state; the tag names the violated
    /// rule or timer (matching [`IssueError`](crate::IssueError)
    /// diagnostics).
    Illegal(&'static str),
}

use BankEvent::{Command, TRcdExpired, TRfcExpired, TRpExpired};
use BankState::{Activating, Active, Idle, Precharging, Refreshing};
use CmdClass::{Activate, Precharge, Read, ReadAuto, Refresh, Write, WriteAuto};
use Outcome::{Ignore, Illegal, Next};

/// The complete transition table: one entry for every
/// (state, event) pair — 5 states x 10 events. The `pva-analysis`
/// FSM pass asserts exhaustiveness, uniqueness, reachability of every
/// state from [`Idle`], and absence of dead states.
pub const TRANSITIONS: &[(BankState, BankEvent, Outcome)] = &[
    // ---- Idle: row closed, precharge complete ----
    (Idle, Command(Activate), Next(Activating)),
    (Idle, Command(Read), Illegal("row not open")),
    (Idle, Command(ReadAuto), Illegal("row not open")),
    (Idle, Command(Write), Illegal("row not open")),
    (Idle, Command(WriteAuto), Illegal("row not open")),
    // PRECHARGE to an already-precharged bank is a legal no-op on real
    // parts.
    (Idle, Command(Precharge), Next(Idle)),
    (Idle, Command(Refresh), Next(Refreshing)),
    (Idle, TRcdExpired, Ignore),
    (Idle, TRpExpired, Ignore),
    (Idle, TRfcExpired, Ignore),
    // ---- Activating: row open, tRCD running ----
    (Activating, Command(Activate), Illegal("row already open")),
    (Activating, Command(Read), Illegal("tRCD")),
    (Activating, Command(ReadAuto), Illegal("tRCD")),
    (Activating, Command(Write), Illegal("tRCD")),
    (Activating, Command(WriteAuto), Illegal("tRCD")),
    // tRAS >= tRCD on every valid config, so a precharge here is
    // always premature.
    (Activating, Command(Precharge), Illegal("tRAS")),
    (
        Activating,
        Command(Refresh),
        Illegal("refresh requires idle banks"),
    ),
    (Activating, TRcdExpired, Next(Active)),
    (Activating, TRpExpired, Ignore),
    (Activating, TRfcExpired, Ignore),
    // ---- Active: row open and readable ----
    (Active, Command(Activate), Illegal("row already open")),
    (Active, Command(Read), Next(Active)),
    (Active, Command(ReadAuto), Next(Precharging)),
    (Active, Command(Write), Next(Active)),
    (Active, Command(WriteAuto), Next(Precharging)),
    (Active, Command(Precharge), Next(Precharging)),
    (
        Active,
        Command(Refresh),
        Illegal("refresh requires idle banks"),
    ),
    (Active, TRcdExpired, Ignore),
    (Active, TRpExpired, Ignore),
    (Active, TRfcExpired, Ignore),
    // ---- Precharging: row closed, tRP running ----
    (Precharging, Command(Activate), Illegal("tRP")),
    (Precharging, Command(Read), Illegal("row not open")),
    (Precharging, Command(ReadAuto), Illegal("row not open")),
    (Precharging, Command(Write), Illegal("row not open")),
    (Precharging, Command(WriteAuto), Illegal("row not open")),
    (Precharging, Command(Precharge), Next(Precharging)),
    (Precharging, Command(Refresh), Illegal("tRP")),
    (Precharging, TRcdExpired, Ignore),
    (Precharging, TRpExpired, Next(Idle)),
    (Precharging, TRfcExpired, Ignore),
    // ---- Refreshing: device-wide AUTO REFRESH, tRFC running ----
    (
        Refreshing,
        Command(Activate),
        Illegal("refresh in progress"),
    ),
    (Refreshing, Command(Read), Illegal("refresh in progress")),
    (
        Refreshing,
        Command(ReadAuto),
        Illegal("refresh in progress"),
    ),
    (Refreshing, Command(Write), Illegal("refresh in progress")),
    (
        Refreshing,
        Command(WriteAuto),
        Illegal("refresh in progress"),
    ),
    (
        Refreshing,
        Command(Precharge),
        Illegal("refresh in progress"),
    ),
    (Refreshing, Command(Refresh), Illegal("refresh in progress")),
    (Refreshing, TRcdExpired, Ignore),
    (Refreshing, TRpExpired, Ignore),
    (Refreshing, TRfcExpired, Next(Idle)),
];

/// Dense-index form of [`TRANSITIONS`], built at compile time so the
/// per-command lookup on the simulator's hot path is one array access
/// instead of a 50-entry scan. [`TRANSITIONS`] remains the single
/// source of truth — this is derived from it, and the `pva-analysis`
/// FSM pass plus the exhaustiveness test below guarantee every slot is
/// filled exactly once.
const DENSE: [[Outcome; BankEvent::ALL.len()]; BankState::ALL.len()] = build_dense();

const fn state_index(state: BankState) -> usize {
    match state {
        BankState::Idle => 0,
        BankState::Activating => 1,
        BankState::Active => 2,
        BankState::Precharging => 3,
        BankState::Refreshing => 4,
    }
}

const fn event_index(event: BankEvent) -> usize {
    match event {
        Command(CmdClass::Activate) => 0,
        Command(CmdClass::Read) => 1,
        Command(CmdClass::ReadAuto) => 2,
        Command(CmdClass::Write) => 3,
        Command(CmdClass::WriteAuto) => 4,
        Command(CmdClass::Precharge) => 5,
        Command(CmdClass::Refresh) => 6,
        BankEvent::TRcdExpired => 7,
        BankEvent::TRpExpired => 8,
        BankEvent::TRfcExpired => 9,
    }
}

const fn build_dense() -> [[Outcome; BankEvent::ALL.len()]; BankState::ALL.len()] {
    // The placeholder is overwritten for every slot (the table is
    // exhaustive); a surviving one would trip the uniqueness test.
    let mut dense = [[Illegal("missing table entry"); BankEvent::ALL.len()]; BankState::ALL.len()];
    let mut i = 0;
    while i < TRANSITIONS.len() {
        let (s, e, o) = TRANSITIONS[i];
        dense[state_index(s)][event_index(e)] = o;
        i += 1;
    }
    dense
}

/// Looks up the table entry for (`state`, `event`). The table is
/// exhaustive, so this only returns `None` if the table itself is
/// corrupt — which the `pva-analysis` FSM pass rules out.
pub fn transition(state: BankState, event: BankEvent) -> Option<Outcome> {
    Some(DENSE[state_index(state)][event_index(event)])
}

/// The successor state for a *legal* event: `Next` transitions move,
/// `Ignore` self-loops, `Illegal` returns `None`.
pub fn next_state(state: BankState, event: BankEvent) -> Option<BankState> {
    match transition(state, event)? {
        Outcome::Next(s) => Some(s),
        Outcome::Ignore => Some(state),
        Outcome::Illegal(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_lookup_matches_a_table_scan() {
        for s in BankState::ALL {
            for e in BankEvent::ALL {
                let scanned = TRANSITIONS
                    .iter()
                    .find(|(ts, te, _)| *ts == s && *te == e)
                    .map(|&(_, _, o)| o);
                assert_eq!(transition(s, e), scanned, "state {s:?} event {e:?}");
            }
        }
    }

    #[test]
    fn table_is_exhaustive_and_unique() {
        assert_eq!(
            TRANSITIONS.len(),
            BankState::ALL.len() * BankEvent::ALL.len()
        );
        for s in BankState::ALL {
            for e in BankEvent::ALL {
                let n = TRANSITIONS
                    .iter()
                    .filter(|(ts, te, _)| *ts == s && *te == e)
                    .count();
                assert_eq!(n, 1, "state {s:?} event {e:?} has {n} entries");
            }
        }
    }

    #[test]
    fn open_close_cycle() {
        let s = next_state(BankState::Idle, Command(CmdClass::Activate)).unwrap();
        assert_eq!(s, BankState::Activating);
        let s = next_state(s, TRcdExpired).unwrap();
        assert_eq!(s, BankState::Active);
        let s = next_state(s, Command(CmdClass::ReadAuto)).unwrap();
        assert_eq!(s, BankState::Precharging);
        let s = next_state(s, TRpExpired).unwrap();
        assert_eq!(s, BankState::Idle);
    }

    #[test]
    fn illegal_transitions_are_refused() {
        assert_eq!(next_state(BankState::Idle, Command(CmdClass::Read)), None);
        assert_eq!(
            next_state(BankState::Active, Command(CmdClass::Activate)),
            None
        );
        assert_eq!(
            next_state(BankState::Refreshing, Command(CmdClass::Activate)),
            None
        );
    }

    #[test]
    fn mnemonics_round_trip() {
        for c in CmdClass::ALL {
            assert_eq!(CmdClass::from_mnemonic(c.mnemonic()), Some(c));
        }
        assert_eq!(CmdClass::from_mnemonic("XYZ"), None);
    }

    #[test]
    fn vcd_codes_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for c in CmdClass::ALL {
            assert!(c.vcd_code() != 0);
            assert!(seen.insert(c.vcd_code()), "duplicate code {}", c.vcd_code());
        }
    }
}
