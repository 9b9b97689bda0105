//! Resource timers ("restimers", §5.2.5).
//!
//! The paper enforces SDRAM timing restrictions with "a set of small
//! counters called restimers, each of which enforces one timing
//! parameter by asserting a 'resource available' line when the
//! corresponding operation may be performed". [`Restimer`] models
//! exactly that line — but holds the *absolute expiry cycle* instead
//! of a down-counter. The two are observably identical (the hardware
//! counter decrements once per clock; the model compares against the
//! clock), and the deadline form needs no per-cycle maintenance: a
//! simulator may advance the clock by any number of cycles and every
//! timer is already correct. It also reports *when* the resource
//! becomes available, which the event-driven scheduler uses to wake a
//! controller at precisely the blocking timer's expiry.
//!
//! Which timers gate and arm each command is not written here: the
//! device reads it from the tables in [`crate::protocol`].
//!
//! # Examples
//!
//! ```
//! use sdram::Restimer;
//!
//! let mut t = Restimer::new(); // e.g. the tRCD counter
//! assert!(t.available(0));
//! t.arm(0, 2);                 // ACTIVATE at cycle 0: READ legal at 2
//! assert!(!t.available(0));
//! assert!(!t.available(1));
//! assert!(t.available(2));
//! assert_eq!(t.expires_at(), 2);
//! ```

use core::ops::{Index, IndexMut};

use crate::protocol::{ChannelTimerId, DeadlineModel, TimerId};

/// A single timing-parameter deadline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Restimer {
    /// First cycle the resource is available again.
    until: u64,
}

impl Restimer {
    /// Creates an expired (available) restimer.
    pub const fn new() -> Self {
        Restimer { until: 0 }
    }

    /// Arms the counter at cycle `now`: the resource becomes available
    /// `cycles` cycles later. Arming with `0` leaves it available.
    /// Re-arming extends only if the new deadline is later (the
    /// hardware counter loads `max(current, new)`). Deadlines saturate
    /// at `u64::MAX` rather than wrapping.
    pub fn arm(&mut self, now: u64, cycles: u64) {
        self.until = self.until.max(now.saturating_add(cycles));
    }

    /// The "resource available" line at cycle `now`.
    pub const fn available(&self, now: u64) -> bool {
        now >= self.until
    }

    /// Cycles until available as seen from cycle `now` (0 when
    /// available).
    pub const fn remaining(&self, now: u64) -> u64 {
        self.until.saturating_sub(now)
    }

    /// The first cycle the resource is available — in the past (or
    /// present) when already available.
    pub const fn expires_at(&self) -> u64 {
        self.until
    }
}

/// The five per-internal-bank restimers, one per [`TimerId`] and
/// indexed by it.
///
/// # Examples
///
/// ```
/// use sdram::{BankTimers, TimerId};
///
/// let mut bt = BankTimers::new();
/// bt[TimerId::Rcd].arm(0, 2);
/// assert_eq!(bt.ready_at(&[TimerId::Rcd, TimerId::Ras]), 2);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BankTimers([Restimer; TimerId::ALL.len()]);

impl BankTimers {
    /// Creates a fully-available timer set.
    pub const fn new() -> Self {
        BankTimers([Restimer::new(); TimerId::ALL.len()])
    }

    /// The first cycle every timer in `gates` is expired (the latest of
    /// their expiries; 0 for an empty list).
    pub fn ready_at(&self, gates: &[TimerId]) -> u64 {
        gates
            .iter()
            .fold(0, |at, &timer| at.max(self[timer].expires_at()))
    }
}

impl Index<TimerId> for BankTimers {
    type Output = Restimer;

    fn index(&self, timer: TimerId) -> &Restimer {
        &self.0[timer as usize]
    }
}

impl IndexMut<TimerId> for BankTimers {
    fn index_mut(&mut self, timer: TimerId) -> &mut Restimer {
        &mut self.0[timer as usize]
    }
}

/// Channel-level (device-wide) restimers for modern-generation
/// constraints: per-bank-group CAS-to-CAS spacing (`tCCD_L`/`tCCD_S`),
/// ACTIVATE-to-ACTIVATE spacing across banks (`tRRD`), and the
/// four-activate window (`tFAW`).
///
/// These live beside the per-bank [`BankTimers`]: a command must pass
/// both its bank's gates and the channel's. The SDR part disables them
/// all (every parameter 0), so the channel set stays permanently
/// available and the device behaves exactly as before.
///
/// `tFAW` is held as a ring of four expiry slots, mirroring the
/// hardware's four window counters: an ACTIVATE is legal when at least
/// one slot has expired, and issuing one re-arms the *earliest* slot
/// for a full window. Slots start expired, so the first four ACTIVATEs
/// are never throttled.
#[derive(Debug, Clone)]
pub struct ChannelTimers {
    /// One merged CAS gate per bank group, all named `tCCD`: a CAS to
    /// group `g` arms group `g` for `tCCD_L` and every other group for
    /// `tCCD_S`, so each timer holds the deadline its group must wait
    /// for regardless of which constraint produced it. Only the first
    /// `groups` entries are live; the rest never arm.
    cas_group: [Restimer; crate::config::MAX_BANK_GROUPS as usize],
    /// The part's bank-group count.
    groups: usize,
    /// Gates ACTIVATE after any bank's ACTIVATE (`tRRD`).
    rrd: Restimer,
    /// Four-activate-window expiry slots (`tFAW`).
    faw: [u64; 4],
}

impl ChannelTimers {
    /// Creates a fully-available channel timer set for a part with
    /// `groups` bank groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` exceeds
    /// [`MAX_BANK_GROUPS`](crate::config::MAX_BANK_GROUPS).
    pub const fn new(groups: u32) -> Self {
        assert!(
            groups <= crate::config::MAX_BANK_GROUPS,
            "too many bank groups"
        );
        ChannelTimers {
            cas_group: [Restimer::new(); crate::config::MAX_BANK_GROUPS as usize],
            groups: groups as usize,
            rrd: Restimer::new(),
            faw: [0; 4],
        }
    }

    /// First cycle `timer` admits a command on bank group `group` (may
    /// be in the past). Only the CAS gate depends on the group; the
    /// tFAW window opens when its earliest slot expires.
    pub fn ready_at(&self, timer: ChannelTimerId, group: usize) -> u64 {
        match timer {
            ChannelTimerId::Ccd => self.cas_group[group].expires_at(),
            ChannelTimerId::Rrd => self.rrd.expires_at(),
            ChannelTimerId::Faw => {
                let mut earliest = self.faw[0];
                for &slot in &self.faw[1..] {
                    earliest = earliest.min(slot);
                }
                earliest
            }
        }
    }

    /// Arms `timer` for a command accepted at cycle `now` on bank group
    /// `group`, with the durations of `model`. The CAS gate arms
    /// `group` for `tCCD_L` and every other group for `tCCD_S`; tFAW
    /// re-arms its earliest slot for a full window. Zero parameters
    /// leave the respective gate permanently open.
    pub fn arm(&mut self, timer: ChannelTimerId, now: u64, group: usize, model: &DeadlineModel) {
        match timer {
            ChannelTimerId::Ccd => {
                if model.t_ccd_l == 0 && model.t_ccd_s == 0 {
                    return;
                }
                for (g, gate) in self.cas_group[..self.groups].iter_mut().enumerate() {
                    gate.arm(now, model.channel_duration(timer, g == group));
                }
            }
            ChannelTimerId::Rrd => self.rrd.arm(now, model.t_rrd),
            ChannelTimerId::Faw => {
                if model.t_faw > 0 {
                    let mut idx = 0;
                    for (i, &slot) in self.faw.iter().enumerate() {
                        if slot < self.faw[idx] {
                            idx = i;
                        }
                    }
                    self.faw[idx] = now.saturating_add(model.t_faw);
                }
            }
        }
    }

    /// The raw tFAW window expiry slots (unordered) — introspection for
    /// the protocol checker's state alignment.
    pub const fn faw_slots(&self) -> [u64; 4] {
        self.faw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DevicePreset, SdramConfig};

    #[test]
    fn arm_and_expire() {
        let mut t = Restimer::new();
        t.arm(10, 3);
        assert!(!t.available(10));
        assert!(!t.available(12));
        assert!(t.available(13));
        assert!(t.available(14)); // staying past expiry is harmless
        assert_eq!(t.remaining(10), 3);
        assert_eq!(t.remaining(13), 0);
    }

    #[test]
    fn rearm_takes_max() {
        let mut t = Restimer::new();
        t.arm(0, 5);
        t.arm(1, 2); // earlier deadline must not shorten the wait
        assert_eq!(t.expires_at(), 5);
        t.arm(1, 10);
        assert_eq!(t.expires_at(), 11);
    }

    #[test]
    fn arm_saturates_instead_of_wrapping() {
        let mut t = Restimer::new();
        t.arm(u64::MAX - 1, 17);
        assert_eq!(t.expires_at(), u64::MAX);
        assert!(!t.available(u64::MAX - 1));
        // remaining() from any cycle stays finite and non-wrapping.
        assert_eq!(t.remaining(0), u64::MAX);
    }

    #[test]
    fn bank_timers_gate_operations() {
        let mut bt = BankTimers::new();
        let activate = [TimerId::Rp, TimerId::Rc];
        let access = [TimerId::Rcd];
        let precharge = [TimerId::Ras, TimerId::Wr];
        for gates in [&activate[..], &access, &precharge] {
            assert_eq!(bt.ready_at(gates), 0);
        }
        // Model an ACTIVATE at cycle 0 with tRCD=2, tRAS=5, tRC=7.
        bt[TimerId::Rcd].arm(0, 2);
        bt[TimerId::Ras].arm(0, 5);
        bt[TimerId::Rc].arm(0, 7);
        assert_eq!(bt.ready_at(&access), 2);
        assert_eq!(bt.ready_at(&precharge), 5);
        assert_eq!(bt.ready_at(&activate), 7);
        // A write's tWR holds the precharge gate beyond tRAS.
        bt[TimerId::Wr].arm(0, 9);
        assert_eq!(bt.ready_at(&precharge), 9);
        assert_eq!(bt.ready_at(&TimerId::ALL), 9);
        // Each timer is addressed by its own slot.
        for timer in TimerId::ALL {
            let expected = match timer {
                TimerId::Rcd => 2,
                TimerId::Ras => 5,
                TimerId::Rp => 0,
                TimerId::Rc => 7,
                TimerId::Wr => 9,
            };
            assert_eq!(bt[timer].expires_at(), expected, "{}", timer.name());
        }
    }

    fn ddr3_model() -> DeadlineModel {
        DeadlineModel::of(&SdramConfig::for_device(DevicePreset::Ddr3_1600))
    }

    #[test]
    fn channel_ccd_distinguishes_same_and_cross_group() {
        let m = DeadlineModel {
            t_ccd_l: 5,
            t_ccd_s: 4,
            ..ddr3_model()
        };
        let mut ch = ChannelTimers::new(2);
        ch.arm(ChannelTimerId::Ccd, 0, 0, &m);
        assert_eq!(ch.ready_at(ChannelTimerId::Ccd, 0), 5); // same group: tCCD_L
        assert_eq!(ch.ready_at(ChannelTimerId::Ccd, 1), 4); // other group: tCCD_S
    }

    #[test]
    fn channel_rrd_spaces_activates() {
        let m = DeadlineModel {
            t_rrd: 6,
            t_faw: 0,
            ..ddr3_model()
        };
        let mut ch = ChannelTimers::new(2);
        assert_eq!(ch.ready_at(ChannelTimerId::Rrd, 0), 0);
        ch.arm(ChannelTimerId::Rrd, 0, 0, &m);
        ch.arm(ChannelTimerId::Faw, 0, 0, &m);
        assert_eq!(ch.ready_at(ChannelTimerId::Rrd, 0), 6);
        assert_eq!(ch.ready_at(ChannelTimerId::Faw, 0), 0);
    }

    #[test]
    fn channel_faw_admits_four_then_throttles() {
        let m = DeadlineModel {
            t_faw: 26,
            ..ddr3_model()
        };
        let mut ch = ChannelTimers::new(2);
        // Four back-to-back ACTIVATEs pass (slots start expired)...
        for i in 0..4u64 {
            assert!(
                ch.ready_at(ChannelTimerId::Faw, 0) <= i,
                "activate {i} must pass"
            );
            ch.arm(ChannelTimerId::Faw, i, 0, &m);
        }
        // ...the fifth must wait for the first slot's window to expire.
        assert_eq!(ch.ready_at(ChannelTimerId::Faw, 0), 26); // 0 + tFAW
        ch.arm(ChannelTimerId::Faw, 26, 0, &m);
        // The next earliest slot is the ACTIVATE from cycle 1.
        assert_eq!(ch.ready_at(ChannelTimerId::Faw, 0), 27);
    }

    #[test]
    fn zero_parameters_leave_channel_open() {
        let m = DeadlineModel::of(&SdramConfig::default());
        let mut ch = ChannelTimers::new(1);
        for timer in ChannelTimerId::ALL {
            ch.arm(timer, 5, 0, &m);
        }
        for timer in ChannelTimerId::ALL {
            assert!(
                ch.ready_at(timer, 0) <= 5,
                "{} must stay open",
                timer.name()
            );
        }
        assert_eq!(ch.faw_slots(), [0; 4]);
    }

    #[test]
    fn every_channel_gate_arms_its_own_deadline() {
        let m = ddr3_model();
        let mut ch = ChannelTimers::new(2);
        ch.arm(ChannelTimerId::Ccd, 0, 1, &m);
        ch.arm(ChannelTimerId::Rrd, 0, 1, &m);
        ch.arm(ChannelTimerId::Faw, 0, 1, &m);
        assert_eq!(ch.ready_at(ChannelTimerId::Ccd, 1), m.t_ccd_l);
        assert_eq!(ch.ready_at(ChannelTimerId::Ccd, 0), m.t_ccd_s);
        assert_eq!(ch.ready_at(ChannelTimerId::Rrd, 0), m.t_rrd);
        // One slot is armed; the window is still open for three more.
        assert_eq!(ch.ready_at(ChannelTimerId::Faw, 0), 0);
        assert_eq!(ch.faw_slots().iter().max(), Some(&m.t_faw));
    }
}
