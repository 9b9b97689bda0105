//! Cycle-level SDRAM device state machine.
//!
//! One [`Sdram`] models one external bank of the memory system: a
//! 32-bit-wide SDRAM module with several internal banks, each with its
//! own row buffer (§5.1 drives Micron 256 Mbit parts with four internal
//! banks). The device accepts one command per cycle at clock edges —
//! ACTIVATE, READ, WRITE (optionally with auto-precharge), PRECHARGE or
//! NOP — and enforces every timing restriction with
//! [restimers](crate::Restimer) exactly as §5.2.5 prescribes.
//!
//! The device executes the protocol tables of [`crate::protocol`]: it
//! holds no per-command list of timers of its own. [`Sdram::can_issue`]
//! checks the row-buffer state and then walks the command's gates in
//! table order; [`Sdram::issue`] arms the command's timers with the
//! [`DeadlineModel`] built from the config. Only the auto-precharge
//! composite and a write burst's last-beat tWR offset are spelled out
//! here, because the tables cannot express them.
//!
//! The device is *passive*: callers (bank controllers, baseline
//! memory models) query [`Sdram::can_issue`] and schedule around the
//! answer. Issuing an illegal command is an error, never silent
//! misbehaviour — the auditor in [`crate::audit`] cross-checks this in
//! tests.

use pva_core::FastMap;

use crate::config::{ConfigError, SdramConfig};
use crate::ecc;
use crate::fault::FaultEngine;
use crate::fsm::{self, BankEvent, BankState, CmdClass};
use crate::protocol::{channel_arms, channel_gates, gates, ChannelTimerId, DeadlineModel, TimerId};
use crate::restimer::{BankTimers, ChannelTimers};

/// A command presented to the SDRAM at a clock edge (§2.3.3: "it is more
/// appropriate to consider these as commands issued to an SDRAM chip at
/// the edge of the clock").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdramCmd {
    /// Open `row` in internal bank `bank` (RAS).
    Activate {
        /// Internal bank index.
        bank: u32,
        /// Row to open.
        row: u64,
    },
    /// Read the word at `col` of the open row of `bank` (CAS); data
    /// appears `t_cas` cycles later. `auto_precharge` closes the row
    /// after the access.
    Read {
        /// Internal bank index.
        bank: u32,
        /// Column within the open row.
        col: u64,
        /// Close the row automatically after the access.
        auto_precharge: bool,
        /// Opaque tag returned with the data (transaction bookkeeping).
        tag: u64,
    },
    /// Write `data` to `col` of the open row of `bank`.
    Write {
        /// Internal bank index.
        bank: u32,
        /// Column within the open row.
        col: u64,
        /// Word to store.
        data: u64,
        /// Close the row automatically after the access.
        auto_precharge: bool,
    },
    /// Close the open row of `bank`.
    Precharge {
        /// Internal bank index.
        bank: u32,
    },
    /// AUTO REFRESH: refresh the next row group in every internal bank.
    /// Requires all rows closed; occupies the device for `tRFC` cycles.
    Refresh,
    /// No operation this cycle.
    Nop,
}

/// Why a command could not be issued this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueError {
    /// A per-bank restimer gating the command has not expired.
    TimingViolation {
        /// Internal bank the violation is on.
        bank: u32,
        /// The violated timing parameter.
        timer: TimerId,
    },
    /// A channel-level restimer gating the command has not expired.
    ChannelViolation {
        /// Internal bank the command addressed.
        bank: u32,
        /// The violated timing parameter.
        timer: ChannelTimerId,
    },
    /// READ/WRITE issued with no row open in the bank.
    RowNotOpen {
        /// Internal bank addressed.
        bank: u32,
    },
    /// ACTIVATE issued while a row is already open (must precharge
    /// first).
    RowAlreadyOpen {
        /// Internal bank addressed.
        bank: u32,
    },
    /// Internal bank index out of range.
    BankOutOfRange {
        /// Offending index.
        bank: u32,
    },
    /// A second non-NOP command was issued in the same cycle (the
    /// command bus carries one command per edge).
    CommandBusBusy,
    /// The device is busy executing an AUTO REFRESH (`tRFC` pending).
    RefreshInProgress,
    /// REFRESH issued while some internal bank still has an open row.
    RefreshNeedsIdleBanks,
}

impl core::fmt::Display for IssueError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            IssueError::TimingViolation { bank, timer } => {
                write!(
                    f,
                    "timing parameter {} not satisfied on internal bank {bank}",
                    timer.name()
                )
            }
            IssueError::ChannelViolation { bank, timer } => {
                write!(
                    f,
                    "timing parameter {} not satisfied on internal bank {bank}",
                    timer.name()
                )
            }
            IssueError::RowNotOpen { bank } => {
                write!(f, "no open row in internal bank {bank}")
            }
            IssueError::RowAlreadyOpen { bank } => {
                write!(f, "internal bank {bank} already has an open row")
            }
            IssueError::BankOutOfRange { bank } => {
                write!(f, "internal bank index {bank} out of range")
            }
            IssueError::CommandBusBusy => write!(f, "command already issued this cycle"),
            IssueError::RefreshInProgress => write!(f, "refresh cycle in progress"),
            IssueError::RefreshNeedsIdleBanks => {
                write!(f, "refresh requires all rows to be precharged")
            }
        }
    }
}

impl std::error::Error for IssueError {}

/// Data word of a READ, handed to the caller at the CAS that reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadReturn {
    /// The tag supplied with the READ command.
    pub tag: u64,
    /// The word read.
    pub data: u64,
    /// Cycle at which the data reaches the device pins.
    pub at_cycle: u64,
    /// The data is known bad: the read hit a hard-failed bank, or ECC
    /// detected an uncorrectable error. Consumers must not commit it.
    pub poisoned: bool,
}

/// Row-buffer state of one internal bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowState {
    Closed,
    Open { row: u64 },
}

/// Operation counters, used by the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SdramStats {
    /// ACTIVATE commands accepted.
    pub activates: u64,
    /// READ commands accepted.
    pub reads: u64,
    /// WRITE commands accepted.
    pub writes: u64,
    /// Explicit PRECHARGE commands accepted.
    pub precharges: u64,
    /// Auto-precharges triggered by READ/WRITE.
    pub auto_precharges: u64,
    /// READ/WRITE commands that were not the first CAS since their
    /// row's ACTIVATE (each one reused an open row).
    pub row_hits: u64,
    /// AUTO REFRESH commands accepted.
    pub refreshes: u64,
    /// Reads whose single-bit error the SEC-DED code corrected.
    pub corrected: u64,
    /// Reads whose error was detected but not correctable (poisoned
    /// data delivered with the `poisoned` flag set).
    pub detected_uncorrectable: u64,
    /// Reads that delivered wrong data *without* the `poisoned` flag —
    /// silent corruption (always possible with ECC off; with ECC on
    /// only ≥3 simultaneous bit errors can cause it).
    pub silent: u64,
    /// Transient bit flips injected by the fault engine.
    pub transient_faults: u64,
    /// Stored words that lost a bit to refresh decay.
    pub decayed_words: u64,
    /// Writes dropped because they addressed a hard-failed bank.
    pub dropped_writes: u64,
}

impl SdramStats {
    /// Adds `other`'s counters into `self` — aggregation across the
    /// devices of a multi-bank system.
    pub fn merge(&mut self, other: &SdramStats) {
        self.activates += other.activates;
        self.reads += other.reads;
        self.writes += other.writes;
        self.precharges += other.precharges;
        self.auto_precharges += other.auto_precharges;
        self.row_hits += other.row_hits;
        self.refreshes += other.refreshes;
        self.corrected += other.corrected;
        self.detected_uncorrectable += other.detected_uncorrectable;
        self.silent += other.silent;
        self.transient_faults += other.transient_faults;
        self.decayed_words += other.decayed_words;
        self.dropped_writes += other.dropped_writes;
    }
}

/// log2 of the largest storage page, in words. Rows up to 512 words
/// are one page each; wider rows (the SRAM model's) span several, so a
/// single write never allocates a whole row.
const MAX_PAGE_BITS: u32 = 9;

/// [`Page::decay`] entry of a word that has not lost a bit.
const NO_DECAY: u8 = u8::MAX;

/// One storage page: `1 << page_bits` consecutive device-local words.
#[derive(Debug, Clone)]
struct Page {
    /// Stored words; meaningful where `written` has the word's bit set.
    data: Box<[u64]>,
    /// One bit per word: set once the word has been written.
    written: Box<[u64]>,
    /// SEC-DED check byte per written word. Empty unless ECC is on;
    /// unwritten words implicitly carry the check byte of their
    /// background pattern.
    check: Box<[u8]>,
    /// Data bit each word lost to refresh decay, or [`NO_DECAY`]. Empty
    /// unless the retention model is on. A write recharges the cell and
    /// clears the entry.
    decay: Box<[u8]>,
}

impl Page {
    fn new(words: usize, ecc: bool, decay: bool) -> Self {
        Page {
            data: vec![0; words].into_boxed_slice(),
            written: vec![0; words.div_ceil(64)].into_boxed_slice(),
            check: vec![0; if ecc { words } else { 0 }].into_boxed_slice(),
            decay: vec![NO_DECAY; if decay { words } else { 0 }].into_boxed_slice(),
        }
    }

    const fn is_written(&self, off: usize) -> bool {
        self.written[off >> 6] & (1 << (off & 63)) != 0
    }

    /// The stored word at `off`, if written.
    fn word(&self, off: usize) -> Option<u64> {
        self.is_written(off).then(|| self.data[off])
    }
}

/// One SDRAM device: state machine, timers, and functional storage.
///
/// Storage is paged: the device-local address space is cut into pages
/// of `min(row, 512)` words, so a page never spans two rows, and a page
/// is allocated on the first write into it. A page holds its data
/// words and a written-bit mask, plus per-word check bytes when ECC is
/// on and per-word decay bits under the retention model. A word never
/// written reads back as [`background_pattern`] of its local address,
/// so functional tests can verify gathered data without preloading
/// gigabytes.
///
/// # Examples
///
/// ```
/// use sdram::{Sdram, SdramCmd, SdramConfig};
///
/// let mut dev = Sdram::new(SdramConfig::default());
/// dev.issue(SdramCmd::Activate { bank: 0, row: 3 })?;
/// // tRCD = 2: the READ becomes legal two cycles later.
/// dev.tick();
/// dev.tick();
/// // The READ hands its word back at the CAS, stamped with the cycle
/// // it reaches the pins: CAS latency 2 later.
/// let mut words = Vec::new();
/// dev.issue_read_burst(0, false, &[(7, 42)], |w| words.push(w))?;
/// assert_eq!((words[0].tag, words[0].at_cycle), (42, dev.now() + 2));
/// # Ok::<(), sdram::IssueError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Sdram {
    config: SdramConfig,
    rows: Vec<RowState>,
    /// Per internal bank: an ACTIVATE opened the row and no CAS has
    /// used it yet (the next CAS is not a row hit).
    row_fresh: Vec<bool>,
    timers: Vec<BankTimers>,
    /// Device-wide channel timers (tCCD/tRRD/tFAW); permanently open on
    /// generations that leave the parameters at 0.
    channel: ChannelTimers,
    /// How long each accepted command arms each restimer.
    deadlines: DeadlineModel,
    /// Written storage pages, keyed by device-local address shifted
    /// right by `page_bits`.
    pages: FastMap<u64, Page>,
    /// log2 of the words per page: `min(log2_cols, MAX_PAGE_BITS)`.
    page_bits: u32,
    /// Cycle each (bank, row) was last charge-restored by an ACTIVATE.
    row_restore: FastMap<(u32, u64), u64>,
    /// Cycle of the last AUTO REFRESH (device-wide charge restore).
    last_refresh_at: u64,
    /// Deterministic fault injector.
    faults: FaultEngine,
    now: u64,
    issued_this_cycle: bool,
    /// Remaining cycles of an in-progress AUTO REFRESH.
    refresh_busy: u32,
    /// Cycles elapsed since the last AUTO REFRESH.
    since_refresh: u64,
    /// Upper bound on the latest restimer expiry cycle, maintained at
    /// each arm site: `now >= timer_deadline` proves all timers
    /// expired without scanning them.
    timer_deadline: u64,
    stats: SdramStats,
}

impl Sdram {
    /// Creates an idle device with all rows closed.
    ///
    /// # Panics
    ///
    /// Panics if `config` violates a [`SdramConfig::check`] consistency
    /// rule — an inconsistent device would produce silently wrong
    /// timing rather than an error, so construction is the last safe
    /// place to stop it.
    pub fn new(config: SdramConfig) -> Self {
        match Self::try_new(config) {
            Ok(dev) => dev,
            Err(e) => panic!("invalid SdramConfig: {e}"),
        }
    }

    /// Creates an idle device, or reports why the configuration is
    /// inconsistent — the non-panicking form of [`Sdram::new`] for
    /// embedders that take configs from users.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] from [`SdramConfig::check`].
    pub fn try_new(config: SdramConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let n = config.total_row_buffers() as usize;
        Ok(Sdram {
            config,
            rows: vec![RowState::Closed; n],
            row_fresh: vec![false; n],
            timers: vec![BankTimers::new(); n],
            channel: ChannelTimers::new(config.bank_groups),
            deadlines: DeadlineModel::of(&config),
            pages: FastMap::default(),
            page_bits: config.log2_cols.min(MAX_PAGE_BITS),
            row_restore: FastMap::default(),
            last_refresh_at: 0,
            faults: FaultEngine::new(config.fault),
            now: 0,
            issued_this_cycle: false,
            refresh_busy: 0,
            since_refresh: 0,
            timer_deadline: 0,
            stats: SdramStats::default(),
        })
    }

    /// Re-derives the transient-fault stream from the config seed and
    /// `salt`, so each device in a multi-controller system sees an
    /// independent but reproducible upset sequence.
    pub fn reseed_faults(&mut self, salt: u64) {
        self.faults.reseed(salt);
    }

    /// The internal bank configured as hard-failed, if any.
    pub const fn hard_failed_bank(&self) -> Option<u32> {
        self.config.fault.hard_failed_bank
    }

    /// The device configuration.
    pub const fn config(&self) -> &SdramConfig {
        &self.config
    }

    /// Current cycle count.
    pub const fn now(&self) -> u64 {
        self.now
    }

    /// Operation counters.
    pub const fn stats(&self) -> &SdramStats {
        &self.stats
    }

    /// The open row of internal bank `bank`, if any.
    pub fn open_row(&self, bank: u32) -> Option<u64> {
        match self.rows.get(bank as usize) {
            Some(RowState::Open { row }) => Some(*row),
            _ => None,
        }
    }

    /// The observable FSM state of internal bank `bank` (see
    /// [`crate::fsm`]): derived from the row buffer, the tRCD/tRP
    /// restimers and the device-wide refresh counter, so it is always
    /// consistent with what `can_issue` will admit.
    pub fn bank_state(&self, bank: u32) -> BankState {
        if self.refresh_busy > 0 {
            return BankState::Refreshing;
        }
        let b = bank as usize;
        match self.rows[b] {
            RowState::Open { .. } => {
                if self.timers[b][TimerId::Rcd].available(self.now) {
                    BankState::Active
                } else {
                    BankState::Activating
                }
            }
            RowState::Closed => {
                if self.timers[b][TimerId::Rp].available(self.now) {
                    BankState::Idle
                } else {
                    BankState::Precharging
                }
            }
        }
    }

    /// Drives internal bank `bank` through the transition table for a
    /// validated command: the successor state decides whether the row
    /// buffer is open (holding `row`) or closed. `can_issue` has
    /// already admitted the command, so the table must agree it is
    /// legal — a mismatch is a bug in one of the two.
    fn apply_bank_event(&mut self, bank: u32, class: CmdClass, row: u64) {
        let prev = self.bank_state(bank);
        let next = fsm::next_state(prev, BankEvent::Command(class)).unwrap_or_else(|| {
            panic!(
                "can_issue admitted {} in state {} but the transition table forbids it",
                class.mnemonic(),
                prev.name()
            )
        });
        self.rows[bank as usize] = if next.row_open() {
            RowState::Open { row }
        } else {
            RowState::Closed
        };
    }

    /// Whether `cmd` could legally issue this cycle.
    ///
    /// # Errors
    ///
    /// Returns the same [`IssueError`] that [`Sdram::issue`] would.
    pub fn can_issue(&self, cmd: &SdramCmd) -> Result<(), IssueError> {
        if matches!(cmd, SdramCmd::Nop) {
            return Ok(());
        }
        if self.issued_this_cycle {
            return Err(IssueError::CommandBusBusy);
        }
        if self.refresh_busy > 0 {
            return Err(IssueError::RefreshInProgress);
        }
        // Each arm names its class, so the table lookups below resolve
        // at compile time.
        match *cmd {
            SdramCmd::Nop => Ok(()),
            SdramCmd::Refresh => {
                if self.rows.iter().any(|r| matches!(r, RowState::Open { .. })) {
                    return Err(IssueError::RefreshNeedsIdleBanks);
                }
                (0..self.config.total_row_buffers())
                    .try_for_each(|b| self.check_gates(CmdClass::Refresh, b))
            }
            SdramCmd::Activate { bank, .. } => {
                if matches!(self.row_state(bank)?, RowState::Open { .. }) {
                    return Err(IssueError::RowAlreadyOpen { bank });
                }
                self.check_gates(CmdClass::Activate, bank)
            }
            SdramCmd::Read {
                bank,
                auto_precharge,
                ..
            } => {
                if matches!(self.row_state(bank)?, RowState::Closed) {
                    return Err(IssueError::RowNotOpen { bank });
                }
                let class = if auto_precharge {
                    CmdClass::ReadAuto
                } else {
                    CmdClass::Read
                };
                self.check_gates(class, bank)
            }
            SdramCmd::Write {
                bank,
                auto_precharge,
                ..
            } => {
                if matches!(self.row_state(bank)?, RowState::Closed) {
                    return Err(IssueError::RowNotOpen { bank });
                }
                let class = if auto_precharge {
                    CmdClass::WriteAuto
                } else {
                    CmdClass::Write
                };
                self.check_gates(class, bank)
            }
            SdramCmd::Precharge { bank } => {
                self.row_state(bank)?;
                self.check_gates(CmdClass::Precharge, bank)
            }
        }
    }

    /// The timing half of [`Sdram::can_issue`]: reports the first gate
    /// of `class` on `bank` that has not expired, bank gates before
    /// channel gates, each in table order.
    #[inline(always)]
    fn check_gates(&self, class: CmdClass, bank: u32) -> Result<(), IssueError> {
        let timers = &self.timers[bank as usize];
        for &timer in gates(class) {
            if !timers[timer].available(self.now) {
                return Err(IssueError::TimingViolation { bank, timer });
            }
        }
        let group = self.config.bank_group_of(bank) as usize;
        for &timer in channel_gates(class) {
            if self.channel.ready_at(timer, group) > self.now {
                return Err(IssueError::ChannelViolation { bank, timer });
            }
        }
        Ok(())
    }

    /// First cycle every gate of `class` on `bank` has expired (may be
    /// in the past).
    #[inline(always)]
    fn ready_at(&self, class: CmdClass, bank: u32) -> u64 {
        let group = self.config.bank_group_of(bank) as usize;
        channel_gates(class).iter().fold(
            self.timers[bank as usize].ready_at(gates(class)),
            |at, &timer| at.max(self.channel.ready_at(timer, group)),
        )
    }

    /// Arms every timer an accepted command of `class` on `bank` arms,
    /// for its [`DeadlineModel`] duration. `wr_delay` extends tWR: a
    /// write burst's tWR runs from its last data beat, not the CAS.
    #[inline(always)]
    fn arm(&mut self, class: CmdClass, bank: u32, wr_delay: u64) {
        let now = self.now;
        let model = &self.deadlines;
        let timers = &mut self.timers[bank as usize];
        let mut until = now;
        for &timer in DeadlineModel::arms(class) {
            let mut wait = model.duration(timer);
            if timer == TimerId::Wr {
                wait += wr_delay;
            }
            timers[timer].arm(now, wait);
            until = until.max(now.saturating_add(wait));
        }
        let group = self.config.bank_group_of(bank) as usize;
        for &timer in channel_arms(class) {
            self.channel.arm(timer, now, group, model);
            until = until.max(now.saturating_add(model.channel_duration(timer, true)));
        }
        self.note_armed(until);
    }

    /// Issues `cmd` at the current clock edge. A READ's word is dropped;
    /// [`Sdram::issue_read_burst`] hands it to the caller.
    ///
    /// # Errors
    ///
    /// Rejects illegal commands (timing violations, closed-row accesses,
    /// double-issue) without changing device state.
    pub fn issue(&mut self, cmd: SdramCmd) -> Result<(), IssueError> {
        match cmd {
            SdramCmd::Read {
                bank,
                col,
                auto_precharge,
                tag,
            } => return self.issue_read_burst(bank, auto_precharge, &[(col, tag)], |_| {}),
            SdramCmd::Write {
                bank,
                col,
                data,
                auto_precharge,
            } => return self.issue_write_burst(bank, auto_precharge, &[(col, data)]),
            _ => {}
        }
        self.can_issue(&cmd)?;
        match cmd {
            SdramCmd::Nop => return Ok(()),
            SdramCmd::Refresh => {
                // Every internal bank enters Refreshing (applied before
                // the busy counter starts so the table sees Idle).
                for b in 0..self.config.total_row_buffers() {
                    self.apply_bank_event(b, CmdClass::Refresh, 0);
                    self.arm(CmdClass::Refresh, b, 0);
                }
                // A refresh recharges whatever the cells hold *now*: a
                // row whose retention window already lapsed has decayed
                // and the refresh only perpetuates the corrupted value.
                self.decay_lapsed_rows();
                self.last_refresh_at = self.now;
                // The whole device is busy for tRFC; afterwards every
                // internal bank must wait tRP-equivalent before activate,
                // which tRFC subsumes in this model.
                self.refresh_busy = self.config.t_rfc.max(1);
                self.since_refresh = 0;
                self.stats.refreshes += 1;
            }
            SdramCmd::Activate { bank, row } => {
                // Opening the row restores its charge — but if the
                // retention window already lapsed, the damage is done.
                // Restore tracking only matters under the decay model;
                // without it the map would just grow per activate.
                if self.config.fault.retention_cycles > 0 {
                    self.decay_row_if_lapsed(bank, row);
                    self.row_restore.insert((bank, row), self.now);
                }
                self.apply_bank_event(bank, CmdClass::Activate, row);
                self.row_fresh[bank as usize] = true;
                self.arm(CmdClass::Activate, bank, 0);
                self.stats.activates += 1;
            }
            SdramCmd::Precharge { bank } => {
                self.apply_bank_event(bank, CmdClass::Precharge, 0);
                self.arm(CmdClass::Precharge, bank, 0);
                self.stats.precharges += 1;
            }
            SdramCmd::Read { .. } | SdramCmd::Write { .. } => {
                unreachable!("column commands take the burst path")
            }
        }
        self.issued_this_cycle = true;
        Ok(())
    }

    /// Issues one READ CAS that bursts over `items` consecutive columns
    /// of `bank`'s open row — the BL4/BL8 access of later SDRAM
    /// generations, where a single column command streams several words
    /// over successive data beats.
    ///
    /// Legality is exactly that of a single READ at `items[0]` (the
    /// burst occupies one command-bus slot and arms the channel's tCCD
    /// gates once). Each word is read through the fault and ECC layers
    /// at the CAS and handed to `deliver`, in `items` order, stamped
    /// with the cycle it reaches the pins: `j / data_rate` beats after
    /// the first word's CAS latency. The device keeps no read queue.
    /// [`Sdram::issue`] sends a single READ here as a one-word burst.
    /// Counts as one `reads` command in [`SdramStats`].
    ///
    /// # Errors
    ///
    /// Rejects exactly when a single READ on `bank` would be rejected;
    /// the device is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `items` is empty or longer than the
    /// configured burst length.
    pub fn issue_read_burst(
        &mut self,
        bank: u32,
        auto_precharge: bool,
        items: &[(u64, u64)],
        mut deliver: impl FnMut(ReadReturn),
    ) -> Result<(), IssueError> {
        debug_assert!(!items.is_empty(), "a burst carries at least one word");
        debug_assert!(
            items.len() as u32 <= self.config.burst_words,
            "burst longer than the device burst length"
        );
        self.can_issue(&SdramCmd::Read {
            bank,
            col: items[0].0,
            auto_precharge,
            tag: items[0].1,
        })?;
        let row = match self.rows[bank as usize] {
            RowState::Open { row } => row,
            RowState::Closed => unreachable!("validated open"),
        };
        debug_assert!(
            items.windows(2).all(|w| w[1].0 == w[0].0 + 1),
            "burst columns are consecutive"
        );
        let first = self.now + self.config.t_cas as u64;
        // `data_rate` words share each data beat.
        let beat_words = self.config.data_rate.max(1) as usize;
        for (beat, words) in items.chunks(beat_words).enumerate() {
            for &(col, tag) in words {
                let local = self.local_addr(bank, row, col);
                let (data, poisoned) = self.read_word(bank, local);
                deliver(ReadReturn {
                    tag,
                    data,
                    at_cycle: first + beat as u64,
                    poisoned,
                });
            }
        }
        self.stats.reads += 1;
        self.note_cas(bank);
        let class = if auto_precharge {
            CmdClass::ReadAuto
        } else {
            CmdClass::Read
        };
        self.apply_bank_event(bank, class, row);
        self.arm(class, bank, 0);
        if auto_precharge {
            self.auto_precharge(bank);
        }
        self.issued_this_cycle = true;
        Ok(())
    }

    /// Issues one WRITE CAS that bursts `items` (column, data) pairs
    /// into consecutive columns of `bank`'s open row — the write half
    /// of [`issue_read_burst`](Sdram::issue_read_burst), and the path of
    /// a single WRITE. Counts as one `writes` command; tWR is armed from
    /// the burst's last data beat.
    ///
    /// # Errors
    ///
    /// Rejects exactly when a single WRITE on `bank` would be rejected;
    /// the device is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `items` is empty or longer than the
    /// configured burst length.
    pub fn issue_write_burst(
        &mut self,
        bank: u32,
        auto_precharge: bool,
        items: &[(u64, u64)],
    ) -> Result<(), IssueError> {
        debug_assert!(!items.is_empty(), "a burst carries at least one word");
        debug_assert!(
            items.len() as u32 <= self.config.burst_words,
            "burst longer than the device burst length"
        );
        self.can_issue(&SdramCmd::Write {
            bank,
            col: items[0].0,
            data: items[0].1,
            auto_precharge,
        })?;
        let row = match self.rows[bank as usize] {
            RowState::Open { row } => row,
            RowState::Closed => unreachable!("validated open"),
        };
        debug_assert!(
            items.windows(2).all(|w| w[1].0 == w[0].0 + 1),
            "burst columns are consecutive"
        );
        let beat_words = self.config.data_rate.max(1) as usize;
        let mut last_beat = 0;
        for (beat, words) in items.chunks(beat_words).enumerate() {
            last_beat = beat as u64;
            for &(col, data) in words {
                let local = self.local_addr(bank, row, col);
                if self.config.fault.hard_failed_bank == Some(bank) {
                    // A dead subarray absorbs the write electrically but
                    // stores nothing.
                    self.stats.dropped_writes += 1;
                } else {
                    self.store_word(local, data);
                }
            }
        }
        self.stats.writes += 1;
        self.note_cas(bank);
        let class = if auto_precharge {
            CmdClass::WriteAuto
        } else {
            CmdClass::Write
        };
        self.apply_bank_event(bank, class, row);
        // tWR runs from the last data beat of the burst, not the CAS.
        self.arm(class, bank, last_beat);
        if auto_precharge {
            self.auto_precharge(bank);
        }
        self.issued_this_cycle = true;
        Ok(())
    }

    /// Advances the device one clock cycle.
    pub fn tick(&mut self) {
        self.now += 1;
        self.issued_this_cycle = false;
        self.refresh_busy = self.refresh_busy.saturating_sub(1);
        self.since_refresh += 1;
    }

    /// Advances the device `cycles` cycles at once — exactly equivalent
    /// to `cycles` calls to [`tick`](Sdram::tick). Used by the next-event
    /// fast path of the simulator to jump over quiescent windows.
    pub fn advance(&mut self, cycles: u64) {
        self.now = self.now.saturating_add(cycles);
        if cycles > 0 {
            self.issued_this_cycle = false;
        }
        let n32 = u32::try_from(cycles).unwrap_or(u32::MAX);
        self.refresh_busy = self.refresh_busy.saturating_sub(n32);
        self.since_refresh = self.since_refresh.saturating_add(cycles);
    }

    /// Raises the cached timer expiry bound after arming a restimer.
    fn note_armed(&mut self, until: u64) {
        self.timer_deadline = self.timer_deadline.max(until);
    }

    /// Records an accepted CAS on `bank`: counts a row hit unless it is
    /// the first CAS since the row's ACTIVATE.
    fn note_cas(&mut self, bank: u32) {
        let fresh = &mut self.row_fresh[bank as usize];
        if *fresh {
            *fresh = false;
        } else {
            self.stats.row_hits += 1;
        }
    }

    /// Whether a command was accepted at the current clock edge.
    pub const fn command_issued_this_cycle(&self) -> bool {
        self.issued_this_cycle
    }

    /// First cycle an ACTIVATE on internal bank `bank` is timing-legal
    /// (bank's tRP and tRC plus the channel's tRRD and tFAW all
    /// expired; may be in the past).
    pub fn activate_ready_at(&self, bank: u32) -> u64 {
        self.ready_at(CmdClass::Activate, bank)
    }

    /// First cycle a READ/WRITE on internal bank `bank` is timing-legal
    /// (tRCD plus the bank group's tCCD gate expired; may be in the
    /// past). The row must also be open — a state change, not a timer,
    /// so not reported here.
    pub fn access_ready_at(&self, bank: u32) -> u64 {
        self.ready_at(CmdClass::Read, bank)
    }

    /// First cycle a PRECHARGE on internal bank `bank` is timing-legal
    /// (tRAS and tWR both expired; may be in the past).
    pub fn precharge_ready_at(&self, bank: u32) -> u64 {
        self.ready_at(CmdClass::Precharge, bank)
    }

    /// Residual cycles of the named restimer on internal bank `bank`
    /// (0 when expired) — per-timer introspection for the protocol
    /// checker in `pva-analysis`, which cross-validates its abstract
    /// timer state against the live device after every step.
    pub fn timer_remaining(&self, bank: u32, timer: TimerId) -> u64 {
        self.timers[bank as usize][timer].remaining(self.now)
    }

    /// Remaining cycles of an in-progress AUTO REFRESH (0 when none),
    /// the device-wide counterpart of [`Sdram::timer_remaining`].
    pub const fn refresh_busy_remaining(&self) -> u64 {
        self.refresh_busy as u64
    }

    /// Residual cycles of bank group `group`'s tCCD gate (0 when
    /// expired) — channel introspection for the protocol checker.
    pub fn channel_cas_remaining(&self, group: u32) -> u64 {
        self.channel
            .ready_at(ChannelTimerId::Ccd, group as usize)
            .saturating_sub(self.now)
    }

    /// Residual cycles of the channel's tRRD gate (0 when expired).
    pub fn channel_rrd_remaining(&self) -> u64 {
        self.channel
            .ready_at(ChannelTimerId::Rrd, 0)
            .saturating_sub(self.now)
    }

    /// Residual cycles of the four tFAW window slots, sorted ascending
    /// (all 0 when the window admits four immediate ACTIVATEs) —
    /// order-independent channel introspection for the protocol
    /// checker's state alignment.
    pub fn channel_faw_remaining(&self) -> [u64; 4] {
        let mut rem = self.channel.faw_slots();
        for slot in &mut rem {
            *slot = slot.saturating_sub(self.now);
        }
        rem.sort_unstable();
        rem
    }

    /// Number of tFAW window slots free at the current cycle (4 when
    /// the window admits four immediate ACTIVATEs) — the count of zero
    /// residuals in [`channel_faw_remaining`](Sdram::channel_faw_remaining),
    /// without sorting them.
    pub fn channel_faw_free(&self) -> usize {
        self.channel
            .faw_slots()
            .iter()
            .filter(|&&at| at <= self.now)
            .count()
    }

    /// The earliest future cycle at which the refresh machinery changes
    /// state on its own: an in-progress AUTO REFRESH finishing, or the
    /// periodic refresh interval lapsing. While a refresh is *due*,
    /// reports the next cycle — the scheduler re-evaluates every cycle
    /// until the refresh completes (rare and bounded by `tRFC` plus the
    /// close-out of open rows).
    pub fn next_refresh_wake(&self) -> Option<u64> {
        let mut wake: Option<u64> = None;
        if self.refresh_busy > 0 {
            wake = Some(self.now + self.refresh_busy as u64);
        }
        if self.config.refresh_interval > 0 {
            let until_due = self
                .config
                .refresh_interval
                .saturating_sub(self.since_refresh)
                .max(1);
            let at = self.now + until_due;
            wake = Some(wake.map_or(at, |w: u64| w.min(at)));
        }
        wake
    }

    /// Whether the device is fully at rest: no running or due refresh,
    /// and every restimer expired. A quiet device cannot change state
    /// on its own except for the periodic refresh deadline, which
    /// [`Sdram::next_refresh_wake`] reports.
    pub fn quiet(&self) -> bool {
        self.now >= self.timer_deadline && self.refresh_busy == 0 && !self.refresh_due()
    }

    /// Whether a periodic refresh is due (`refresh_interval` elapsed
    /// since the last AUTO REFRESH; always `false` when refresh is
    /// disabled).
    pub fn refresh_due(&self) -> bool {
        self.config.refresh_interval > 0 && self.since_refresh >= self.config.refresh_interval
    }

    /// Whether an AUTO REFRESH is currently occupying the device.
    pub const fn refresh_in_progress(&self) -> bool {
        self.refresh_busy > 0
    }

    /// Storage page key and word offset of a device-local address.
    const fn page_of(&self, local_addr: u64) -> (u64, usize) {
        let mask = (1u64 << self.page_bits) - 1;
        (local_addr >> self.page_bits, (local_addr & mask) as usize)
    }

    /// Functional read of a device-local word (no timing): the stored
    /// value if written, else the deterministic background pattern.
    pub fn peek(&self, local_addr: u64) -> u64 {
        let (key, off) = self.page_of(local_addr);
        self.pages
            .get(&key)
            .and_then(|p| p.word(off))
            .unwrap_or_else(|| background_pattern(local_addr))
    }

    /// Functional write of a device-local word (no timing), for test
    /// setup. Recharges the cell (clears any decay) and refreshes the
    /// stored check byte, exactly like a timed WRITE.
    pub fn poke(&mut self, local_addr: u64, data: u64) {
        self.store_word(local_addr, data);
    }

    /// Stores a word: data, fresh check byte, cell recharged.
    fn store_word(&mut self, local_addr: u64, data: u64) {
        let (key, off) = self.page_of(local_addr);
        let words = 1usize << self.page_bits;
        let (ecc, decay) = (self.config.ecc, self.config.fault.retention_cycles > 0);
        let page = self
            .pages
            .entry(key)
            .or_insert_with(|| Page::new(words, ecc, decay));
        page.data[off] = data;
        page.written[off >> 6] |= 1 << (off & 63);
        if let Some(check) = page.check.get_mut(off) {
            *check = ecc::encode(data);
        }
        if let Some(bit) = page.decay.get_mut(off) {
            *bit = NO_DECAY;
        }
    }

    /// Reads one word through the fault and ECC layers, returning the
    /// delivered data and whether it is flagged bad (`poisoned`).
    fn read_word(&mut self, bank: u32, local_addr: u64) -> (u64, bool) {
        // One page lookup yields the stored word, its check byte and
        // its decay bit. An unwritten word reads its background
        // pattern, which is implicitly well-encoded and never decays.
        let (key, off) = self.page_of(local_addr);
        let (truth, stored_check, decay) = match self.pages.get(&key) {
            Some(p) if p.is_written(off) => (
                p.data[off],
                p.check.get(off).copied(),
                p.decay.get(off).copied().filter(|&b| b != NO_DECAY),
            ),
            _ => (background_pattern(local_addr), None, None),
        };
        if self.config.fault.hard_failed_bank == Some(bank) {
            // A dead subarray drives garbage; the controller-side ECC
            // (or the bank-failure detection itself) flags the loss.
            self.stats.detected_uncorrectable += 1;
            let garbage = background_pattern(local_addr ^ u64::from(bank).rotate_left(32));
            return (garbage, true);
        }
        let mut data = truth;
        let mut check = if self.config.ecc {
            stored_check.unwrap_or_else(|| ecc::encode(truth))
        } else {
            0
        };
        if let Some(bit) = decay {
            data ^= 1u64 << bit;
        }
        if let Some((bit, value)) = self.faults.stuck_bit(local_addr) {
            let (d0, c0) = apply_stuck(data, check, bit, value);
            data = d0;
            check = c0;
        }
        if let Some(bit) = self.faults.transient_flip() {
            let (d0, c0) = ecc::flip_codeword_bit(data, check, bit);
            data = d0;
            check = c0;
            self.stats.transient_faults += 1;
        }
        let (delivered, poisoned) = if self.config.ecc {
            match ecc::decode(data, check) {
                ecc::Decoded::Clean => (data, false),
                ecc::Decoded::Corrected { data: fixed } => {
                    self.stats.corrected += 1;
                    (fixed, false)
                }
                ecc::Decoded::Uncorrectable => {
                    self.stats.detected_uncorrectable += 1;
                    (data, true)
                }
            }
        } else {
            (data, false)
        };
        if !poisoned && delivered != truth {
            self.stats.silent += 1;
        }
        (delivered, poisoned)
    }

    /// Cycle the charge of `(bank, row)` was last restored: the later
    /// of its last ACTIVATE and the last device-wide AUTO REFRESH.
    fn last_restore(&self, bank: u32, row: u64) -> u64 {
        self.row_restore
            .get(&(bank, row))
            .copied()
            .unwrap_or(0)
            .max(self.last_refresh_at)
    }

    /// Applies refresh decay to `(bank, row)` if its retention window
    /// has lapsed: each stored word of the row loses its (per-word
    /// deterministic) weakest bit.
    fn decay_row_if_lapsed(&mut self, bank: u32, row: u64) {
        let retention = self.config.fault.retention_cycles;
        if retention == 0 {
            return;
        }
        if self.now.saturating_sub(self.last_restore(bank, row)) <= retention {
            return;
        }
        // The row's pages are the keys `first..first + count`.
        let (first, _) = self.page_of(self.local_addr(bank, row, 0));
        let count = 1u64 << (self.config.log2_cols - self.page_bits);
        let mut lost = 0;
        for key in first..first + count {
            let Some(page) = self.pages.get_mut(&key) else {
                continue;
            };
            for off in 0..page.decay.len() {
                if page.is_written(off) && page.decay[off] == NO_DECAY {
                    let local = (key << self.page_bits) + off as u64;
                    page.decay[off] = self.faults.decay_bit(local) as u8;
                    lost += 1;
                }
            }
        }
        self.stats.decayed_words += lost;
    }

    /// Decays every tracked row whose retention window lapsed. Called
    /// on AUTO REFRESH; cheap in the healthy case — when the previous
    /// refresh was itself within the retention window, no row can have
    /// lapsed and the scan is skipped.
    fn decay_lapsed_rows(&mut self) {
        let retention = self.config.fault.retention_cycles;
        if retention == 0 || self.now.saturating_sub(self.last_refresh_at) <= retention {
            return;
        }
        let lapsed: Vec<(u32, u64)> = self.row_restore.keys().copied().collect();
        for (bank, row) in lapsed {
            self.decay_row_if_lapsed(bank, row);
        }
    }

    /// Composes internal coordinates back into a device-local address
    /// (inverse of [`SdramConfig::map`]).
    pub fn local_addr(&self, bank: u32, row: u64, col: u64) -> u64 {
        // `internal_banks` is a power of two by validation: a shift and
        // a mask split the rank from the internal bank.
        let ib_bits = self.config.internal_banks.trailing_zeros();
        let rank = (bank >> ib_bits) as u64;
        let ib = (bank & (self.config.internal_banks - 1)) as u64;
        let row_field = (rank << self.config.log2_rows) | row;
        (((row_field << ib_bits) | ib) << self.config.log2_cols) | col
    }

    fn row_state(&self, bank: u32) -> Result<RowState, IssueError> {
        self.rows
            .get(bank as usize)
            .copied()
            .ok_or(IssueError::BankOutOfRange { bank })
    }

    /// Arms the precharge timer for an auto-precharging access (the
    /// row buffer itself was already closed by the transition table in
    /// [`Sdram::apply_bank_event`]).
    fn auto_precharge(&mut self, bank: u32) {
        let b = bank as usize;
        debug_assert!(matches!(self.rows[b], RowState::Closed));
        // The internal precharge starts once tRAS/tWR allow and takes
        // tRP; until then the bank cannot re-activate. Model this as
        // arming tRP for the residual tRAS/tWR plus tRP.
        let now = self.now;
        let timers = &mut self.timers[b];
        let wait = self.deadlines.auto_precharge_arm(
            timers[TimerId::Ras].remaining(now),
            timers[TimerId::Wr].remaining(now),
        );
        timers[TimerId::Rp].arm(now, wait);
        self.note_armed(now.saturating_add(wait));
        self.stats.auto_precharges += 1;
    }
}

/// Deterministic background content of unwritten memory: a mix of the
/// address bits so neighbouring words differ.
pub fn background_pattern(local_addr: u64) -> u64 {
    local_addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5_5A5A_0F0F_F0F0
}

/// Forces codeword bit `bit` (`0..64` data, `64..72` check) to `value`
/// — the read-side effect of a stuck-at cell.
fn apply_stuck(data: u64, check: u8, bit: u32, value: bool) -> (u64, u8) {
    if bit < 64 {
        let mask = 1u64 << bit;
        let d = if value { data | mask } else { data & !mask };
        (d, check)
    } else {
        let mask = 1u8 << (bit & 7);
        let c = if value { check | mask } else { check & !mask };
        (data, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Sdram {
        Sdram::new(SdramConfig::default())
    }

    #[test]
    fn read_requires_open_row() {
        let mut d = dev();
        let err = d
            .issue(SdramCmd::Read {
                bank: 0,
                col: 0,
                auto_precharge: false,
                tag: 0,
            })
            .unwrap_err();
        assert_eq!(err, IssueError::RowNotOpen { bank: 0 });
    }

    #[test]
    fn read_respects_trcd() {
        let mut d = dev();
        d.issue(SdramCmd::Activate { bank: 1, row: 5 }).unwrap();
        d.tick();
        let err = d
            .issue(SdramCmd::Read {
                bank: 1,
                col: 0,
                auto_precharge: false,
                tag: 0,
            })
            .unwrap_err();
        assert_eq!(
            err,
            IssueError::TimingViolation {
                bank: 1,
                timer: TimerId::Rcd
            }
        );
        d.tick();
        assert!(d
            .issue(SdramCmd::Read {
                bank: 1,
                col: 0,
                auto_precharge: false,
                tag: 0
            })
            .is_ok());
    }

    #[test]
    fn timing_errors_print_the_parameter_name() {
        let bank = IssueError::TimingViolation {
            bank: 1,
            timer: TimerId::Rcd,
        };
        assert_eq!(
            bank.to_string(),
            "timing parameter tRCD not satisfied on internal bank 1"
        );
        let channel = IssueError::ChannelViolation {
            bank: 4,
            timer: ChannelTimerId::Faw,
        };
        assert_eq!(
            channel.to_string(),
            "timing parameter tFAW not satisfied on internal bank 4"
        );
    }

    #[test]
    fn one_command_per_cycle() {
        let mut d = dev();
        d.issue(SdramCmd::Activate { bank: 0, row: 0 }).unwrap();
        let err = d.issue(SdramCmd::Activate { bank: 1, row: 0 }).unwrap_err();
        assert_eq!(err, IssueError::CommandBusBusy);
        // NOP is always fine.
        assert!(d.issue(SdramCmd::Nop).is_ok());
        d.tick();
        assert!(d.issue(SdramCmd::Activate { bank: 1, row: 0 }).is_ok());
    }

    #[test]
    fn activate_respects_trc_and_trp() {
        let mut d = dev();
        d.issue(SdramCmd::Activate { bank: 0, row: 0 }).unwrap();
        // Wait out tRAS (5), precharge, then activate must wait tRP and tRC.
        for _ in 0..5 {
            d.tick();
        }
        d.issue(SdramCmd::Precharge { bank: 0 }).unwrap();
        d.tick();
        let err = d.issue(SdramCmd::Activate { bank: 0, row: 1 }).unwrap_err();
        // tRP = 2 not yet satisfied (and tRC = 7 also pending).
        assert!(matches!(err, IssueError::TimingViolation { bank: 0, .. }));
        d.tick();
        // tRP satisfied at +2, tRC (7 from activate at cycle 0) satisfied
        // at cycle 7; we are at cycle 7 now.
        assert!(d.issue(SdramCmd::Activate { bank: 0, row: 1 }).is_ok());
    }

    #[test]
    fn precharge_respects_tras() {
        let mut d = dev();
        d.issue(SdramCmd::Activate { bank: 2, row: 9 }).unwrap();
        d.tick();
        let err = d.issue(SdramCmd::Precharge { bank: 2 }).unwrap_err();
        assert_eq!(
            err,
            IssueError::TimingViolation {
                bank: 2,
                timer: TimerId::Ras
            }
        );
    }

    /// Issues a one-word READ and returns the word it hands back.
    fn read_one(d: &mut Sdram, bank: u32, col: u64, tag: u64) -> ReadReturn {
        let mut word = None;
        d.issue_read_burst(bank, false, &[(col, tag)], |w| word = Some(w))
            .unwrap();
        word.expect("a READ hands back its word")
    }

    #[test]
    fn data_returns_after_cas_latency() {
        let mut d = dev();
        d.issue(SdramCmd::Activate { bank: 0, row: 1 }).unwrap();
        d.tick();
        d.tick();
        let cas = d.now();
        let ready = read_one(&mut d, 0, 3, 99);
        assert_eq!(ready.at_cycle, cas + 2, "CAS latency 2");
        assert_eq!(ready.tag, 99);
        assert_eq!(ready.data, d.peek(d.local_addr(0, 1, 3)));
        assert!(!ready.poisoned);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut d = dev();
        d.issue(SdramCmd::Activate { bank: 3, row: 7 }).unwrap();
        d.tick();
        d.tick();
        d.issue(SdramCmd::Write {
            bank: 3,
            col: 11,
            data: 0xDEAD,
            auto_precharge: false,
        })
        .unwrap();
        d.tick();
        assert_eq!(read_one(&mut d, 3, 11, 1).data, 0xDEAD);
    }

    #[test]
    fn auto_precharge_closes_row_and_delays_reactivation() {
        let mut d = dev();
        d.issue(SdramCmd::Activate { bank: 0, row: 1 }).unwrap();
        d.tick();
        d.tick();
        d.issue(SdramCmd::Read {
            bank: 0,
            col: 0,
            auto_precharge: true,
            tag: 0,
        })
        .unwrap();
        assert_eq!(d.open_row(0), None);
        d.tick();
        // Residual tRAS (5 - 2 = 3) + tRP (2) = 5 cycles from the read.
        for _ in 0..4 {
            assert!(d.issue(SdramCmd::Activate { bank: 0, row: 2 }).is_err());
            d.tick();
        }
        // tRC (7 from cycle 0) also expired by now (cycle 7).
        assert!(d.issue(SdramCmd::Activate { bank: 0, row: 2 }).is_ok());
        assert_eq!(d.stats().auto_precharges, 1);
    }

    #[test]
    fn independent_internal_banks_overlap() {
        // An activate on bank 0 does not block bank 1 (the overlap the
        // whole PVA scheduling story depends on).
        let mut d = dev();
        d.issue(SdramCmd::Activate { bank: 0, row: 0 }).unwrap();
        d.tick();
        assert!(d.issue(SdramCmd::Activate { bank: 1, row: 0 }).is_ok());
        d.tick();
        // Bank 0's tRCD (armed at cycle 0) has expired.
        assert!(d
            .issue(SdramCmd::Read {
                bank: 0,
                col: 0,
                auto_precharge: false,
                tag: 0
            })
            .is_ok());
    }

    #[test]
    fn out_of_range_bank_rejected() {
        let mut d = dev();
        assert_eq!(
            d.issue(SdramCmd::Activate { bank: 4, row: 0 }).unwrap_err(),
            IssueError::BankOutOfRange { bank: 4 }
        );
    }

    #[test]
    fn local_addr_inverts_map() {
        let d = dev();
        for a in [0u64, 1, 511, 512, 4096, 123_456] {
            let ia = d.config().map(a);
            assert_eq!(d.local_addr(ia.bank, ia.row, ia.col), a);
        }
    }

    #[test]
    fn stats_count_operations() {
        let mut d = dev();
        d.issue(SdramCmd::Activate { bank: 0, row: 0 }).unwrap();
        d.tick();
        d.tick();
        d.issue(SdramCmd::Read {
            bank: 0,
            col: 0,
            auto_precharge: false,
            tag: 0,
        })
        .unwrap();
        d.tick();
        d.issue(SdramCmd::Write {
            bank: 0,
            col: 1,
            data: 5,
            auto_precharge: false,
        })
        .unwrap();
        let s = d.stats();
        assert_eq!((s.activates, s.reads, s.writes), (1, 1, 1));
    }
}
