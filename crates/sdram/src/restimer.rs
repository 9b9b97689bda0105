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
//! # Examples
//!
//! ```
//! use sdram::Restimer;
//!
//! let mut t = Restimer::new("tRCD");
//! assert!(t.available(0));
//! t.arm(0, 2);                 // ACTIVATE at cycle 0: READ legal at 2
//! assert!(!t.available(0));
//! assert!(!t.available(1));
//! assert!(t.available(2));
//! assert_eq!(t.expires_at(), 2);
//! ```

/// A single timing-parameter deadline.
#[derive(Debug, Clone, Copy)]
pub struct Restimer {
    name: &'static str,
    /// First cycle the resource is available again.
    until: u64,
}

impl Restimer {
    /// Creates an expired (available) restimer for the named parameter.
    pub const fn new(name: &'static str) -> Self {
        Restimer { name, until: 0 }
    }

    /// The timing parameter this counter enforces (for diagnostics).
    pub const fn name(&self) -> &'static str {
        self.name
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

impl core::fmt::Display for Restimer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}(until {})", self.name, self.until)
    }
}

/// The full set of per-internal-bank restimers an SDRAM scheduler must
/// consult before issuing each operation class.
#[derive(Debug, Clone)]
pub struct BankTimers {
    /// Gates READ/WRITE after ACTIVATE (`tRCD`).
    pub rcd: Restimer,
    /// Gates PRECHARGE after ACTIVATE (`tRAS`).
    pub ras: Restimer,
    /// Gates ACTIVATE after PRECHARGE (`tRP`).
    pub rp: Restimer,
    /// Gates ACTIVATE after ACTIVATE (`tRC`).
    pub rc: Restimer,
    /// Gates PRECHARGE after WRITE (`tWR`).
    pub wr: Restimer,
}

impl BankTimers {
    /// Creates a fully-available timer set.
    pub const fn new() -> Self {
        BankTimers {
            rcd: Restimer::new("tRCD"),
            ras: Restimer::new("tRAS"),
            rp: Restimer::new("tRP"),
            rc: Restimer::new("tRC"),
            wr: Restimer::new("tWR"),
        }
    }

    /// The latest expiry across the five timers — the first cycle at
    /// which every timer is guaranteed available.
    pub fn all_expired_at(&self) -> u64 {
        self.rcd
            .expires_at()
            .max(self.ras.expires_at())
            .max(self.rp.expires_at())
            .max(self.rc.expires_at())
            .max(self.wr.expires_at())
    }

    /// Whether an ACTIVATE may be issued at cycle `now`.
    pub const fn can_activate(&self, now: u64) -> bool {
        self.rp.available(now) && self.rc.available(now)
    }

    /// First cycle an ACTIVATE is timing-legal (both tRP and tRC
    /// expired).
    pub fn activate_ready_at(&self) -> u64 {
        self.rp.expires_at().max(self.rc.expires_at())
    }

    /// Whether a READ/WRITE may be issued at cycle `now` (row must also
    /// be open — checked by the device state machine, not the timers).
    pub const fn can_access(&self, now: u64) -> bool {
        self.rcd.available(now)
    }

    /// First cycle a READ/WRITE is timing-legal (tRCD expired).
    pub const fn access_ready_at(&self) -> u64 {
        self.rcd.expires_at()
    }

    /// Whether a PRECHARGE may be issued at cycle `now`.
    pub const fn can_precharge(&self, now: u64) -> bool {
        self.ras.available(now) && self.wr.available(now)
    }

    /// First cycle a PRECHARGE is timing-legal (both tRAS and tWR
    /// expired).
    pub fn precharge_ready_at(&self) -> u64 {
        self.ras.expires_at().max(self.wr.expires_at())
    }
}

impl Default for BankTimers {
    fn default() -> Self {
        BankTimers::new()
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
            cas_group: [Restimer::new("tCCD"); crate::config::MAX_BANK_GROUPS as usize],
            groups: groups as usize,
            rrd: Restimer::new("tRRD"),
            faw: [0; 4],
        }
    }

    /// Whether a READ/WRITE to bank group `group` may issue at `now`.
    pub const fn can_cas(&self, now: u64, group: usize) -> bool {
        self.cas_group[group].available(now)
    }

    /// First cycle a READ/WRITE to bank group `group` is channel-legal.
    pub const fn cas_ready_at(&self, group: usize) -> u64 {
        self.cas_group[group].expires_at()
    }

    /// Records a CAS to bank group `group` at cycle `now`: the group
    /// itself waits `t_ccd_l`, every other group `t_ccd_s`.
    pub fn note_cas(&mut self, now: u64, group: usize, t_ccd_l: u64, t_ccd_s: u64) {
        for (g, timer) in self.cas_group[..self.groups].iter_mut().enumerate() {
            timer.arm(now, if g == group { t_ccd_l } else { t_ccd_s });
        }
    }

    /// Whether the tRRD gate alone admits an ACTIVATE at `now`.
    pub const fn rrd_available(&self, now: u64) -> bool {
        self.rrd.available(now)
    }

    /// Whether the tFAW window alone admits an ACTIVATE at `now`
    /// (at least one of the four slots has expired).
    pub fn faw_available(&self, now: u64) -> bool {
        self.faw_ready_at() <= now
    }

    /// Whether an ACTIVATE may issue at `now` (both tRRD and tFAW).
    pub fn can_activate(&self, now: u64) -> bool {
        self.rrd_available(now) && self.faw_available(now)
    }

    /// First cycle the tFAW window admits another ACTIVATE: the
    /// earliest slot's expiry.
    pub fn faw_ready_at(&self) -> u64 {
        let mut earliest = self.faw[0];
        for &slot in &self.faw[1..] {
            earliest = earliest.min(slot);
        }
        earliest
    }

    /// First cycle an ACTIVATE is channel-legal (tRRD and tFAW both
    /// expired).
    pub fn activate_ready_at(&self) -> u64 {
        self.rrd.expires_at().max(self.faw_ready_at())
    }

    /// Records an ACTIVATE at cycle `now`: arms tRRD and consumes the
    /// earliest tFAW slot for a full window. Zero parameters leave the
    /// respective gate permanently open.
    pub fn note_activate(&mut self, now: u64, t_rrd: u64, t_faw: u64) {
        self.rrd.arm(now, t_rrd);
        if t_faw > 0 {
            let mut idx = 0;
            for (i, &slot) in self.faw.iter().enumerate() {
                if slot < self.faw[idx] {
                    idx = i;
                }
            }
            self.faw[idx] = now.saturating_add(t_faw);
        }
    }

    /// First cycle the tRRD gate opens (may be in the past).
    pub const fn rrd_ready_at(&self) -> u64 {
        self.rrd.expires_at()
    }

    /// The raw tFAW window expiry slots (unordered) — introspection for
    /// the protocol checker's state alignment.
    pub const fn faw_slots(&self) -> [u64; 4] {
        self.faw
    }

    /// The latest expiry across every channel timer — the first cycle
    /// at which the whole channel is guaranteed unconstrained.
    pub fn all_expired_at(&self) -> u64 {
        let mut latest = self.rrd.expires_at();
        for timer in &self.cas_group[..self.groups] {
            latest = latest.max(timer.expires_at());
        }
        for &slot in &self.faw {
            latest = latest.max(slot);
        }
        latest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_and_expire() {
        let mut t = Restimer::new("x");
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
        let mut t = Restimer::new("x");
        t.arm(0, 5);
        t.arm(1, 2); // earlier deadline must not shorten the wait
        assert_eq!(t.expires_at(), 5);
        t.arm(1, 10);
        assert_eq!(t.expires_at(), 11);
    }

    #[test]
    fn arm_saturates_instead_of_wrapping() {
        let mut t = Restimer::new("x");
        t.arm(u64::MAX - 1, 17);
        assert_eq!(t.expires_at(), u64::MAX);
        assert!(!t.available(u64::MAX - 1));
        // remaining() from any cycle stays finite and non-wrapping.
        assert_eq!(t.remaining(0), u64::MAX);
    }

    #[test]
    fn bank_timers_gate_operations() {
        let mut bt = BankTimers::new();
        assert!(bt.can_activate(0) && bt.can_access(0) && bt.can_precharge(0));
        // Model an ACTIVATE at cycle 0 with tRCD=2, tRAS=5, tRC=7.
        bt.rcd.arm(0, 2);
        bt.ras.arm(0, 5);
        bt.rc.arm(0, 7);
        assert!(!bt.can_access(0) && !bt.can_precharge(0) && !bt.can_activate(0));
        assert!(bt.can_access(2));
        assert!(!bt.can_precharge(2));
        assert!(bt.can_precharge(5));
        assert!(!bt.can_activate(5));
        assert!(bt.can_activate(7));
    }

    #[test]
    fn ready_at_matches_the_gates() {
        let mut bt = BankTimers::new();
        bt.rcd.arm(0, 2);
        bt.ras.arm(0, 5);
        bt.rc.arm(0, 7);
        bt.wr.arm(0, 9);
        assert_eq!(bt.access_ready_at(), 2);
        assert_eq!(bt.activate_ready_at(), 7);
        assert_eq!(bt.precharge_ready_at(), 9);
        assert_eq!(bt.all_expired_at(), 9);
        // Each ready_at is the first cycle its gate opens.
        assert!(!bt.can_access(1) && bt.can_access(2));
        assert!(!bt.can_activate(6) && bt.can_activate(7));
        assert!(!bt.can_precharge(8) && bt.can_precharge(9));
    }

    #[test]
    fn display_shows_name_and_deadline() {
        let mut t = Restimer::new("tRP");
        t.arm(0, 2);
        assert_eq!(t.to_string(), "tRP(until 2)");
    }

    #[test]
    fn channel_ccd_distinguishes_same_and_cross_group() {
        let mut ch = ChannelTimers::new(2);
        ch.note_cas(0, 0, 5, 4); // tCCD_L=5, tCCD_S=4
        assert!(!ch.can_cas(4, 0) && ch.can_cas(5, 0)); // same group: tCCD_L
        assert!(!ch.can_cas(3, 1) && ch.can_cas(4, 1)); // other group: tCCD_S
        assert_eq!(ch.cas_ready_at(0), 5);
        assert_eq!(ch.cas_ready_at(1), 4);
    }

    #[test]
    fn channel_rrd_spaces_activates() {
        let mut ch = ChannelTimers::new(2);
        assert!(ch.can_activate(0));
        ch.note_activate(0, 6, 0);
        assert!(!ch.can_activate(5) && ch.can_activate(6));
        assert_eq!(ch.activate_ready_at(), 6);
    }

    #[test]
    fn channel_faw_admits_four_then_throttles() {
        let mut ch = ChannelTimers::new(2);
        // Four back-to-back ACTIVATEs pass (slots start expired)...
        for i in 0..4u64 {
            assert!(ch.faw_available(i), "activate {i} must pass");
            ch.note_activate(i, 0, 26);
        }
        // ...the fifth must wait for the first slot's window to expire.
        assert!(!ch.faw_available(4));
        assert!(!ch.faw_available(25));
        assert!(ch.faw_available(26)); // 0 + tFAW
        assert_eq!(ch.faw_ready_at(), 26);
        ch.note_activate(26, 0, 26);
        // The next earliest slot is the ACTIVATE from cycle 1.
        assert_eq!(ch.faw_ready_at(), 27);
    }

    #[test]
    fn zero_parameters_leave_channel_open() {
        let mut ch = ChannelTimers::new(2);
        ch.note_cas(0, 0, 0, 0);
        ch.note_activate(0, 0, 0);
        assert!(ch.can_cas(0, 0) && ch.can_activate(0));
        assert_eq!(ch.all_expired_at(), 0);
    }

    #[test]
    fn all_expired_at_covers_every_gate() {
        let mut ch = ChannelTimers::new(2);
        ch.note_cas(0, 1, 5, 4);
        ch.note_activate(0, 6, 26);
        assert_eq!(ch.all_expired_at(), 26);
    }
}
