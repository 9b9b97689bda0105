//! The SDRAM timing protocol as data (§5.2.5).
//!
//! This module is the one statement of which restimers gate each
//! command class ([`gates`], [`channel_gates`]), which ones an accepted
//! command arms ([`DeadlineModel::arms`], [`channel_arms`]) and for how
//! long ([`DeadlineModel`]). The device executes these tables:
//! [`Sdram::can_issue`](crate::Sdram::can_issue) walks the gates in
//! table order and reports the first unexpired one, and
//! [`Sdram::issue`](crate::Sdram::issue) arms the listed timers with the
//! model's durations. Two rules the tables cannot express stay explicit
//! in the device: the auto-precharge composite
//! ([`DeadlineModel::auto_precharge_arm`]) and a write burst's tWR,
//! which runs from its last data beat.
//!
//! `pva-analysis`'s protocol pass explores bank state × timer residuals
//! against a live device to prove it executes the tables, and feeds
//! every accepted command to the independent
//! [`TimingAuditor`](crate::TimingAuditor), which checks the tables
//! themselves against the configuration's timing parameters.

use crate::config::SdramConfig;
use crate::fsm::CmdClass;

/// One of the five per-internal-bank restimers of [`crate::BankTimers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerId {
    /// READ/WRITE after ACTIVATE (`tRCD`).
    Rcd,
    /// PRECHARGE after ACTIVATE (`tRAS`).
    Ras,
    /// ACTIVATE after PRECHARGE (`tRP`).
    Rp,
    /// ACTIVATE after ACTIVATE (`tRC`).
    Rc,
    /// PRECHARGE after WRITE (`tWR`).
    Wr,
}

impl TimerId {
    /// Every timer, in declaration order — the index order of
    /// [`crate::BankTimers`].
    pub const ALL: [TimerId; 5] = [
        TimerId::Rcd,
        TimerId::Ras,
        TimerId::Rp,
        TimerId::Rc,
        TimerId::Wr,
    ];

    /// The timing-parameter name, as printed for an
    /// [`IssueError::TimingViolation`](crate::IssueError::TimingViolation).
    pub const fn name(self) -> &'static str {
        match self {
            TimerId::Rcd => "tRCD",
            TimerId::Ras => "tRAS",
            TimerId::Rp => "tRP",
            TimerId::Rc => "tRC",
            TimerId::Wr => "tWR",
        }
    }
}

/// The timers that must all be expired before a command of `class` may
/// issue on its internal bank. For [`CmdClass::Refresh`] the listed
/// timers gate on *every* internal bank (the refresh occupies the whole
/// device).
pub const fn gates(class: CmdClass) -> &'static [TimerId] {
    match class {
        CmdClass::Activate => &[TimerId::Rp, TimerId::Rc],
        CmdClass::Read | CmdClass::ReadAuto | CmdClass::Write | CmdClass::WriteAuto => {
            &[TimerId::Rcd]
        }
        CmdClass::Precharge => &[TimerId::Ras, TimerId::Wr],
        CmdClass::Refresh => &[TimerId::Rp],
    }
}

/// One of the channel-level (device-wide) restimers of
/// [`crate::ChannelTimers`] — the modern-generation constraints that
/// the SDR part leaves disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelTimerId {
    /// CAS after CAS, same or cross bank group (`tCCD_L`/`tCCD_S`,
    /// merged per group into one gate named `tCCD`).
    Ccd,
    /// ACTIVATE after any bank's ACTIVATE (`tRRD`).
    Rrd,
    /// Four-activate window (`tFAW`).
    Faw,
}

impl ChannelTimerId {
    /// Every channel timer.
    pub const ALL: [ChannelTimerId; 3] = [
        ChannelTimerId::Ccd,
        ChannelTimerId::Rrd,
        ChannelTimerId::Faw,
    ];

    /// The timing-parameter name, as printed for an
    /// [`IssueError::ChannelViolation`](crate::IssueError::ChannelViolation).
    pub const fn name(self) -> &'static str {
        match self {
            ChannelTimerId::Ccd => "tCCD",
            ChannelTimerId::Rrd => "tRRD",
            ChannelTimerId::Faw => "tFAW",
        }
    }
}

/// The channel-level timers that must admit a command of `class` before
/// it may issue, in the order the device checks (and reports) them.
/// The CAS gate is evaluated against the issuing bank's group.
pub const fn channel_gates(class: CmdClass) -> &'static [ChannelTimerId] {
    match class {
        CmdClass::Activate => &[ChannelTimerId::Rrd, ChannelTimerId::Faw],
        CmdClass::Read | CmdClass::ReadAuto | CmdClass::Write | CmdClass::WriteAuto => {
            &[ChannelTimerId::Ccd]
        }
        CmdClass::Precharge | CmdClass::Refresh => &[],
    }
}

/// The channel timers an accepted command of `class` arms: an ACTIVATE
/// arms `tRRD` and consumes a `tFAW` slot; a CAS arms the per-group
/// `tCCD` gates (own group for `tCCD_L`, the rest for `tCCD_S`).
pub const fn channel_arms(class: CmdClass) -> &'static [ChannelTimerId] {
    match class {
        CmdClass::Activate => &[ChannelTimerId::Rrd, ChannelTimerId::Faw],
        CmdClass::Read | CmdClass::ReadAuto | CmdClass::Write | CmdClass::WriteAuto => {
            &[ChannelTimerId::Ccd]
        }
        CmdClass::Precharge | CmdClass::Refresh => &[],
    }
}

/// The deadline semantics of one configuration: how many cycles each
/// accepted command arms each restimer for. The device builds one from
/// its [`SdramConfig`] at construction; a checker can be handed a
/// deliberately corrupted copy and prove it notices the disagreement
/// with the live device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineModel {
    /// ACTIVATE → READ/WRITE delay.
    pub t_rcd: u64,
    /// ACTIVATE → PRECHARGE delay.
    pub t_ras: u64,
    /// PRECHARGE → ACTIVATE delay.
    pub t_rp: u64,
    /// ACTIVATE → ACTIVATE delay.
    pub t_rc: u64,
    /// WRITE → PRECHARGE delay.
    pub t_wr: u64,
    /// Cycles an AUTO REFRESH occupies the whole device.
    pub t_rfc: u64,
    /// CAS → CAS delay within one bank group (`tCCD_L`, 0 = disabled).
    pub t_ccd_l: u64,
    /// CAS → CAS delay across bank groups (`tCCD_S`, 0 = disabled).
    pub t_ccd_s: u64,
    /// ACTIVATE → ACTIVATE delay across banks (`tRRD`, 0 = disabled).
    pub t_rrd: u64,
    /// Four-activate window (`tFAW`, 0 = disabled).
    pub t_faw: u64,
    /// Number of bank groups the CAS gates are split into.
    pub bank_groups: u32,
}

impl DeadlineModel {
    /// The deadline semantics of `config`.
    pub const fn of(config: &SdramConfig) -> Self {
        DeadlineModel {
            t_rcd: config.t_rcd as u64,
            t_ras: config.t_ras as u64,
            t_rp: config.t_rp as u64,
            t_rc: config.t_rc as u64,
            t_wr: config.t_wr as u64,
            t_rfc: config.t_rfc as u64,
            t_ccd_l: config.t_ccd_l as u64,
            t_ccd_s: config.t_ccd_s as u64,
            t_rrd: config.t_rrd as u64,
            t_faw: config.t_faw as u64,
            bank_groups: config.bank_groups,
        }
    }

    /// The nominal duration of one timing parameter.
    pub const fn duration(&self, timer: TimerId) -> u64 {
        match timer {
            TimerId::Rcd => self.t_rcd,
            TimerId::Ras => self.t_ras,
            TimerId::Rp => self.t_rp,
            TimerId::Rc => self.t_rc,
            TimerId::Wr => self.t_wr,
        }
    }

    /// The timers an accepted command of `class` arms on its internal
    /// bank, each for its nominal [`DeadlineModel::duration`] (a write
    /// burst adds its last data beat to tWR). Auto-precharging accesses
    /// additionally arm `tRP` through the composite rule of
    /// [`DeadlineModel::auto_precharge_arm`]; REFRESH arms no restimer
    /// (it occupies the device for [`DeadlineModel::refresh_busy`]
    /// cycles instead).
    pub const fn arms(class: CmdClass) -> &'static [TimerId] {
        match class {
            CmdClass::Activate => &[TimerId::Rcd, TimerId::Ras, TimerId::Rc],
            CmdClass::Write | CmdClass::WriteAuto => &[TimerId::Wr],
            CmdClass::Precharge => &[TimerId::Rp],
            CmdClass::Read | CmdClass::ReadAuto | CmdClass::Refresh => &[],
        }
    }

    /// The `tRP` arming of an auto-precharging access: the internal
    /// precharge starts once the residual `tRAS`/`tWR` allow and then
    /// takes `tRP`. For WRITE-with-auto-precharge the `tWR` residual is
    /// the freshly armed `t_wr` (the device arms `tWR` before the auto
    /// precharge).
    pub fn auto_precharge_arm(&self, ras_residual: u64, wr_residual: u64) -> u64 {
        ras_residual.max(wr_residual).saturating_add(self.t_rp)
    }

    /// Cycles an accepted AUTO REFRESH occupies the device
    /// (`tRFC`, minimum one).
    pub const fn refresh_busy(&self) -> u64 {
        if self.t_rfc == 0 {
            1
        } else {
            self.t_rfc
        }
    }

    /// The nominal arming duration of one channel timer. The CAS gate
    /// depends on whether the next CAS targets the *same* bank group
    /// (`tCCD_L`) or a different one (`tCCD_S`); `same_group` selects
    /// which spacing is being asked about.
    pub const fn channel_duration(&self, timer: ChannelTimerId, same_group: bool) -> u64 {
        match timer {
            ChannelTimerId::Ccd => {
                if same_group {
                    self.t_ccd_l
                } else {
                    self.t_ccd_s
                }
            }
            ChannelTimerId::Rrd => self.t_rrd,
            ChannelTimerId::Faw => self.t_faw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DevicePreset;

    #[test]
    fn gates_match_the_device_checks() {
        // `can_issue` walks these lists in order and reports the first
        // unexpired timer, so the order is part of the contract.
        assert_eq!(gates(CmdClass::Activate), &[TimerId::Rp, TimerId::Rc]);
        assert_eq!(gates(CmdClass::Read), &[TimerId::Rcd]);
        assert_eq!(gates(CmdClass::WriteAuto), &[TimerId::Rcd]);
        assert_eq!(gates(CmdClass::Precharge), &[TimerId::Ras, TimerId::Wr]);
        assert_eq!(gates(CmdClass::Refresh), &[TimerId::Rp]);
    }

    #[test]
    fn timer_ids_index_in_declaration_order() {
        // `BankTimers` indexes its restimers by `timer as usize`.
        for (i, timer) in TimerId::ALL.into_iter().enumerate() {
            assert_eq!(timer as usize, i, "{}", timer.name());
        }
    }

    #[test]
    fn deadline_model_mirrors_the_config() {
        let cfg = SdramConfig::default();
        let m = DeadlineModel::of(&cfg);
        assert_eq!(m.duration(TimerId::Rcd), cfg.t_rcd as u64);
        assert_eq!(m.duration(TimerId::Rc), cfg.t_rc as u64);
        assert_eq!(m.refresh_busy(), cfg.t_rfc as u64);
    }

    #[test]
    fn refresh_busy_is_at_least_one() {
        let mut cfg = SdramConfig::for_device(DevicePreset::SramLike);
        cfg.t_rfc = 0;
        assert_eq!(DeadlineModel::of(&cfg).refresh_busy(), 1);
    }

    #[test]
    fn channel_tables_cover_every_class() {
        // ACTIVATEs face tRRD/tFAW, column commands face tCCD; the
        // classes that arm a gate are exactly the ones gated by it.
        assert_eq!(
            channel_gates(CmdClass::Activate),
            &[ChannelTimerId::Rrd, ChannelTimerId::Faw]
        );
        assert_eq!(channel_gates(CmdClass::Read), &[ChannelTimerId::Ccd]);
        assert_eq!(channel_gates(CmdClass::WriteAuto), &[ChannelTimerId::Ccd]);
        assert!(channel_gates(CmdClass::Precharge).is_empty());
        assert!(channel_gates(CmdClass::Refresh).is_empty());
        for class in [
            CmdClass::Activate,
            CmdClass::Read,
            CmdClass::ReadAuto,
            CmdClass::Write,
            CmdClass::WriteAuto,
            CmdClass::Precharge,
            CmdClass::Refresh,
        ] {
            assert_eq!(channel_arms(class), channel_gates(class));
        }
    }

    #[test]
    fn channel_durations_select_the_group_spacing() {
        let m = DeadlineModel::of(&SdramConfig::for_device(DevicePreset::Ddr3_1600));
        assert_eq!(m.channel_duration(ChannelTimerId::Ccd, true), m.t_ccd_l);
        assert_eq!(m.channel_duration(ChannelTimerId::Ccd, false), m.t_ccd_s);
        assert_eq!(m.channel_duration(ChannelTimerId::Rrd, true), m.t_rrd);
        assert_eq!(m.channel_duration(ChannelTimerId::Faw, false), m.t_faw);
    }

    #[test]
    fn auto_precharge_composite_rule() {
        let m = DeadlineModel::of(&SdramConfig::default());
        // Residual tRAS 3, no tWR pending, tRP 2: bank busy 5 more.
        assert_eq!(m.auto_precharge_arm(3, 0), 3 + m.t_rp);
        // The later of the two residuals wins.
        assert_eq!(m.auto_precharge_arm(1, 4), 4 + m.t_rp);
    }
}
