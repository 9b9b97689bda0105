//! Bounded model checking of the SDRAM timing protocol.
//!
//! [`sdram::protocol`] states the timing protocol as tables (which
//! timers gate each command class, how long each accepted command arms
//! them), and the device in `crates/sdram` executes those tables over
//! its restimer counters. This pass compares the tables with the
//! device: it exhaustively explores the product automaton of bank
//! state × timer residuals for every shipped [`SdramConfig`] preset,
//! carrying a *live cloned device* along every path, and proves on each
//! explored edge that
//!
//! * **(a) timing safety** — the device accepts a command exactly when
//!   the declarative model says every gating constraint is expired (no
//!   command is admitted while its timing constraint runs, and none is
//!   refused once all constraints are clear);
//! * **(b) trap freedom** — every reachable product state drains back
//!   to a quiescent `Idle` under NOPs within a bounded number of
//!   cycles (no residual combination wedges a bank);
//! * **(c) table agreement** — the dense compile-time LUT in
//!   [`sdram::fsm`] matches a scan of the declarative transition table,
//!   and the device's observable [`BankState`] / timer residuals track
//!   the abstract successor exactly after every accepted command.
//!
//! The exploration projects onto internal bank 0: timers are
//! per-internal-bank and command legality couples banks only through
//! REFRESH (whole-device) and the channel constraints (tCCD/tRRD/tFAW),
//! which the projection models via the shared busy counter and a
//! channel-residual block. Cross-bank couplings the projection cannot
//! see — tCCD_S between bank groups, tRRD/tFAW across banks — are
//! covered by [`check_preset_multibank`], a bounded deterministic
//! differential walk that drives four banks of a live device against an
//! independent multi-bank model and compares the legality verdict of
//! *every* candidate command at every step. Both run for every shipped
//! [`sdram::DevicePreset`]. [`check_preset`] is parameterized over the
//! transition table and the [`DeadlineModel`] so the mutation tests can
//! hand it deliberately corrupted copies and prove the checker notices
//! the disagreement with the live device.
//!
//! Because the device and this model read the same gate and arm
//! tables, a wrong table entry shows up on both sides alike. The walk
//! therefore also replays every command the device accepts through the
//! [`TimingAuditor`], which checks the stream against the
//! configuration's timing parameters with absolute timestamps and no
//! use of the tables; its violations are findings too.

use std::collections::{HashMap, VecDeque};

use sdram::{
    fsm, protocol, BankEvent, BankState, ChannelTimerId, CmdClass, DeadlineModel, Outcome, Sdram,
    SdramCmd, SdramConfig, TimerId, TimingAuditor, MAX_BANK_GROUPS, TRANSITIONS,
};

use crate::config_check;

/// Safety cap on explored product states per preset. The real state
/// spaces are tiny (residuals are bounded by the timing parameters,
/// ≤ tens of cycles); the cap only guards against a corrupted deadline
/// model inflating the automaton without bound.
const STATE_CAP: usize = 100_000;

/// Cap on reported findings per preset, so a systematically wrong
/// table or model produces a readable report instead of thousands of
/// copies of the same disagreement.
const FINDING_CAP: usize = 25;

/// One abstract product state: the bank-0 projection the checker
/// explores. Timer residuals are indexed in [`TimerId::ALL`] order.
/// The channel block (`ccd`/`rrd`/`faw`) carries the shared-bus
/// residuals as the bank sees them: `ccd` is the *own-group* CAS gate
/// (bank 0 always maps to group 0) and `faw` holds the four
/// activate-window slots as remaining cycles, sorted ascending to
/// match [`Sdram::channel_faw_remaining`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Abs {
    row_open: bool,
    res: [u64; 5],
    refresh_busy: u64,
    ccd: u64,
    rrd: u64,
    faw: [u64; 4],
}

impl Abs {
    const QUIESCENT: Abs = Abs {
        row_open: false,
        res: [0; 5],
        refresh_busy: 0,
        ccd: 0,
        rrd: 0,
        faw: [0; 4],
    };

    fn residual(&self, timer: TimerId) -> u64 {
        self.res[timer_index(timer)]
    }

    fn arm(&mut self, timer: TimerId, cycles: u64) {
        let r = &mut self.res[timer_index(timer)];
        *r = (*r).max(cycles);
    }

    fn channel_residual(&self, timer: ChannelTimerId) -> u64 {
        match timer {
            ChannelTimerId::Ccd => self.ccd,
            ChannelTimerId::Rrd => self.rrd,
            // The window admits a new ACTIVATE once its *oldest* slot
            // expires; slots are kept sorted so that is index 0.
            ChannelTimerId::Faw => self.faw[0],
        }
    }

    /// One clock edge: every residual decays by one.
    fn tick(mut self) -> Abs {
        for r in &mut self.res {
            *r = r.saturating_sub(1);
        }
        self.refresh_busy = self.refresh_busy.saturating_sub(1);
        self.ccd = self.ccd.saturating_sub(1);
        self.rrd = self.rrd.saturating_sub(1);
        for slot in &mut self.faw {
            *slot = slot.saturating_sub(1);
        }
        self
    }

    /// The observable [`BankState`] this product state presents —
    /// mirrors `Sdram::bank_state`.
    fn bank_state(&self) -> BankState {
        if self.refresh_busy > 0 {
            BankState::Refreshing
        } else if self.row_open {
            if self.residual(TimerId::Rcd) == 0 {
                BankState::Active
            } else {
                BankState::Activating
            }
        } else if self.residual(TimerId::Rp) == 0 {
            BankState::Idle
        } else {
            BankState::Precharging
        }
    }
}

fn timer_index(timer: TimerId) -> usize {
    TimerId::ALL
        .iter()
        .position(|t| *t == timer)
        .expect("ALL is exhaustive")
}

/// A concrete command of each class aimed at internal bank `bank`
/// (REFRESH is bankless).
fn command_of(class: CmdClass, bank: u32) -> SdramCmd {
    match class {
        CmdClass::Activate => SdramCmd::Activate { bank, row: 1 },
        CmdClass::Read | CmdClass::ReadAuto => SdramCmd::Read {
            bank,
            col: 0,
            auto_precharge: matches!(class, CmdClass::ReadAuto),
            tag: 0,
        },
        CmdClass::Write | CmdClass::WriteAuto => SdramCmd::Write {
            bank,
            col: 0,
            data: 0,
            auto_precharge: matches!(class, CmdClass::WriteAuto),
        },
        CmdClass::Precharge => SdramCmd::Precharge { bank },
        CmdClass::Refresh => SdramCmd::Refresh,
    }
}

/// The device's first-legal cycle for `class` on `bank`, from the
/// ready-at accessor that gates it (REFRESH has none).
fn ready_at(dev: &Sdram, class: CmdClass, bank: u32) -> Option<u64> {
    match class {
        CmdClass::Activate => Some(dev.activate_ready_at(bank)),
        CmdClass::Read | CmdClass::ReadAuto | CmdClass::Write | CmdClass::WriteAuto => {
            Some(dev.access_ready_at(bank))
        }
        CmdClass::Precharge => Some(dev.precharge_ready_at(bank)),
        CmdClass::Refresh => None,
    }
}

/// Declarative legality of `class` in `state`: the transition table
/// admits it and every gating timer is expired. `Err` carries the
/// blocking reason.
fn abs_can_issue(
    state: &Abs,
    class: CmdClass,
    table: &[(BankState, BankEvent, Outcome)],
) -> Result<(), String> {
    if state.refresh_busy > 0 {
        return Err("refresh in progress".to_string());
    }
    let bank_state = state.bank_state();
    let outcome = table
        .iter()
        .find(|(s, e, _)| *s == bank_state && *e == BankEvent::Command(class))
        .map(|&(_, _, o)| o);
    match outcome {
        Some(Outcome::Next(_)) | Some(Outcome::Ignore) => {}
        Some(Outcome::Illegal(why)) => return Err(format!("table: {why}")),
        None => return Err(format!("table has no entry for {}", bank_state.name())),
    }
    for &timer in protocol::gates(class) {
        if state.residual(timer) > 0 {
            return Err(format!("{} unexpired", timer.name()));
        }
    }
    for &timer in protocol::channel_gates(class) {
        if state.channel_residual(timer) > 0 {
            return Err(format!("{} unexpired", timer.name()));
        }
    }
    Ok(())
}

/// The abstract successor of accepting `class` in `state` (before the
/// clock edge), per the [`DeadlineModel`] arming semantics.
fn abs_apply(state: &Abs, class: CmdClass, model: &DeadlineModel) -> Abs {
    let mut next = *state;
    match class {
        CmdClass::Activate => next.row_open = true,
        CmdClass::ReadAuto | CmdClass::WriteAuto | CmdClass::Precharge => next.row_open = false,
        CmdClass::Read | CmdClass::Write => {}
        CmdClass::Refresh => next.refresh_busy = model.refresh_busy(),
    }
    // Plain arms first (WRITE arms tWR before its auto-precharge
    // composes with it, matching the device's arm order).
    for &timer in DeadlineModel::arms(class) {
        next.arm(timer, model.duration(timer));
    }
    if matches!(class, CmdClass::ReadAuto | CmdClass::WriteAuto) {
        let arm = model.auto_precharge_arm(next.residual(TimerId::Ras), next.residual(TimerId::Wr));
        next.arm(TimerId::Rp, arm);
    }
    for &timer in protocol::channel_arms(class) {
        match timer {
            // Bank 0 is always group 0, so every CAS in the projection
            // is a same-group CAS: the gate re-arms to tCCD_L.
            ChannelTimerId::Ccd => {
                next.ccd = next
                    .ccd
                    .max(model.channel_duration(ChannelTimerId::Ccd, true));
            }
            ChannelTimerId::Rrd => {
                next.rrd = next
                    .rrd
                    .max(model.channel_duration(ChannelTimerId::Rrd, true));
            }
            // The window ring replaces its oldest (smallest) slot; the
            // device leaves the ring untouched when tFAW is disabled.
            ChannelTimerId::Faw => {
                let dur = model.channel_duration(ChannelTimerId::Faw, true);
                if dur > 0 {
                    next.faw[0] = dur;
                    next.faw.sort_unstable();
                }
            }
        }
    }
    next
}

/// Compares the live device's bank-0 observables against `abs`,
/// appending any disagreement to `out`.
fn check_alignment(label: &str, context: &str, dev: &Sdram, abs: &Abs, out: &mut Vec<String>) {
    for &timer in &TimerId::ALL {
        let device = dev.timer_remaining(0, timer);
        let model = abs.residual(timer);
        if device != model {
            out.push(format!(
                "{label}: {context}: {} residual diverged (device {device}, model {model})",
                timer.name()
            ));
        }
    }
    let device_busy = dev.refresh_busy_remaining();
    if device_busy != abs.refresh_busy {
        out.push(format!(
            "{label}: {context}: refresh busy diverged (device {device_busy}, model {})",
            abs.refresh_busy
        ));
    }
    let device_state = dev.bank_state(0);
    let model_state = abs.bank_state();
    if device_state != model_state {
        out.push(format!(
            "{label}: {context}: bank state diverged (device {}, model {})",
            device_state.name(),
            model_state.name()
        ));
    }
    let device_open = dev.open_row(0).is_some();
    if device_open != abs.row_open {
        out.push(format!(
            "{label}: {context}: row-open diverged (device {device_open}, model {})",
            abs.row_open
        ));
    }
    // Channel residuals as bank 0 sees them (bank 0 is always group 0).
    let device_ccd = dev.channel_cas_remaining(0);
    if device_ccd != abs.ccd {
        out.push(format!(
            "{label}: {context}: tCCD residual diverged (device {device_ccd}, model {})",
            abs.ccd
        ));
    }
    let device_rrd = dev.channel_rrd_remaining();
    if device_rrd != abs.rrd {
        out.push(format!(
            "{label}: {context}: tRRD residual diverged (device {device_rrd}, model {})",
            abs.rrd
        ));
    }
    let device_faw = dev.channel_faw_remaining();
    if device_faw != abs.faw {
        out.push(format!(
            "{label}: {context}: tFAW window diverged (device {device_faw:?}, model {:?})",
            abs.faw
        ));
    }
}

/// Property (c), static half: the dense compile-time lookup agrees
/// with a scan of the (possibly corrupted) declarative table.
fn check_dense_agreement(
    label: &str,
    table: &[(BankState, BankEvent, Outcome)],
    out: &mut Vec<String>,
) {
    for s in BankState::ALL {
        for e in BankEvent::ALL {
            let scanned: Vec<Outcome> = table
                .iter()
                .filter(|(ts, te, _)| *ts == s && *te == e)
                .map(|&(_, _, o)| o)
                .collect();
            let dense = fsm::transition(s, e);
            match (dense, scanned.as_slice()) {
                (Some(d), [t]) if d == *t => {}
                (Some(d), [t]) => out.push(format!(
                    "{label}: dense lookup disagrees with the table for ({}, {e:?}): \
                     dense {d:?}, table {t:?}",
                    s.name()
                )),
                (_, entries) => out.push(format!(
                    "{label}: table has {} entries for ({}, {e:?}), expected exactly 1",
                    entries.len(),
                    s.name()
                )),
            }
        }
    }
}

/// Property (b): from `abs`, pure NOP ticks must reach the quiescent
/// idle state within the sum of all residuals (each tick strictly
/// decreases it while nonzero).
fn check_drains_to_idle(label: &str, abs: &Abs, out: &mut Vec<String>) {
    let bound = abs.res.iter().sum::<u64>()
        + abs.refresh_busy
        + abs.ccd
        + abs.rrd
        + abs.faw.iter().sum::<u64>()
        + 1;
    let mut s = *abs;
    for _ in 0..bound {
        if s == Abs::QUIESCENT {
            return;
        }
        s = s.tick();
    }
    // A row left open never closes on its own — that is fine, because
    // an explicit precharge is always reachable once its gates expire;
    // model that one step and retry.
    let active_idle = Abs {
        row_open: true,
        ..Abs::QUIESCENT
    };
    if s == active_idle {
        return; // Active with all timers clear: one PRECHARGE from Idle.
    }
    out.push(format!(
        "{label}: state {abs:?} does not drain to Idle within {bound} cycles (stuck at {s:?})"
    ));
}

/// Explores the full product automaton for one configuration,
/// validating the declarative `table`/`model` against a live device.
pub fn check_preset(
    label: &str,
    cfg: &SdramConfig,
    table: &[(BankState, BankEvent, Outcome)],
    model: &DeadlineModel,
) -> Vec<String> {
    let mut out = Vec::new();
    check_dense_agreement(label, table, &mut out);

    let device = match Sdram::try_new(*cfg) {
        Ok(d) => d,
        Err(e) => {
            out.push(format!("{label}: device construction failed: {e}"));
            return out;
        }
    };

    let start = Abs::QUIESCENT;
    let mut visited: HashMap<Abs, ()> = HashMap::new();
    visited.insert(start, ());
    let mut frontier: VecDeque<(Abs, Sdram)> = VecDeque::new();
    frontier.push_back((start, device));
    let mut explored_edges = 0usize;

    while let Some((abs, dev)) = frontier.pop_front() {
        if out.len() >= FINDING_CAP {
            out.push(format!(
                "{label}: finding cap reached, exploration truncated"
            ));
            return out;
        }
        check_drains_to_idle(label, &abs, &mut out);

        // Command edges: one per class, plus the pure-tick (NOP) edge.
        for class in CmdClass::ALL {
            explored_edges += 1;
            let cmd = command_of(class, 0);
            let model_verdict = abs_can_issue(&abs, class, table);
            let device_verdict = dev.can_issue(&cmd);
            match (&model_verdict, &device_verdict) {
                (Ok(()), Err(e)) => {
                    out.push(format!(
                        "{label}: state {abs:?}: model admits {} but device refuses it ({e})",
                        class.mnemonic()
                    ));
                    continue;
                }
                (Err(why), Ok(())) => {
                    out.push(format!(
                        "{label}: state {abs:?}: device accepts {} while {why} — \
                         timing-safety violation",
                        class.mnemonic()
                    ));
                    continue;
                }
                (Err(_), Err(_)) => continue,
                (Ok(()), Ok(())) => {}
            }

            // Both sides agree the command is legal: take the edge on a
            // cloned device and check the successor aligns.
            let mut next_dev = dev.clone();
            if let Err(e) = next_dev.issue(cmd) {
                out.push(format!(
                    "{label}: state {abs:?}: issue({}) failed after can_issue passed: {e}",
                    class.mnemonic()
                ));
                continue;
            }
            // Structural half of property (c): the table successor's
            // row-open bit must match the deadline model's.
            let abs_after = abs_apply(&abs, class, model);
            if let Some(Outcome::Next(next_state)) = table
                .iter()
                .find(|(s, e, _)| *s == abs.bank_state() && *e == BankEvent::Command(class))
                .map(|&(_, _, o)| o)
            {
                if next_state.row_open() != abs_after.row_open {
                    out.push(format!(
                        "{label}: state {abs:?}: table successor {} disagrees with the \
                         deadline model on row-open after {}",
                        next_state.name(),
                        class.mnemonic()
                    ));
                }
            }
            next_dev.tick();
            let abs_next = abs_after.tick();
            check_alignment(
                label,
                &format!("after {} from {abs:?}", class.mnemonic()),
                &next_dev,
                &abs_next,
                &mut out,
            );
            if visited.len() < STATE_CAP && visited.insert(abs_next, ()).is_none() {
                frontier.push_back((abs_next, next_dev));
            }
        }

        // The NOP/tick edge.
        let mut next_dev = dev;
        next_dev.tick();
        let abs_next = abs.tick();
        check_alignment(
            label,
            &format!("after tick from {abs:?}"),
            &next_dev,
            &abs_next,
            &mut out,
        );
        if visited.len() < STATE_CAP && visited.insert(abs_next, ()).is_none() {
            frontier.push_back((abs_next, next_dev));
        }
    }

    if visited.len() >= STATE_CAP {
        out.push(format!(
            "{label}: state cap ({STATE_CAP}) reached after {explored_edges} edges — \
             residuals are not converging"
        ));
    }
    out
}

/// Banks the multi-bank differential walk drives (capped by the
/// preset's `internal_banks`). Four banks cover ≥2 bank groups on
/// every shipped multi-group preset and fill the tFAW window.
const WALK_BANKS: u32 = 4;

/// Steps per preset in the multi-bank differential walk. Long enough
/// to cross the DDR3 refresh epoch several times over on the presets
/// with short intervals, short enough to stay trivial in CI.
const WALK_STEPS: u32 = 2000;

/// The multi-bank abstract state the differential walk maintains: one
/// bank-projection per driven bank plus the authoritative shared
/// residuals (refresh busy, per-group CAS gates, tRRD, the tFAW
/// window). The shared values are mirrored into each bank's [`Abs`]
/// after every update so the per-bank legality/arming helpers
/// ([`abs_can_issue`]/[`abs_apply`]) see exactly the view the device
/// gives that bank.
struct MultiAbs {
    banks: Vec<Abs>,
    refresh_busy: u64,
    ccd: [u64; MAX_BANK_GROUPS as usize],
    rrd: u64,
    faw: [u64; 4],
}

impl MultiAbs {
    fn new(bank_count: u32) -> MultiAbs {
        MultiAbs {
            banks: vec![Abs::QUIESCENT; bank_count as usize],
            refresh_busy: 0,
            ccd: [0; MAX_BANK_GROUPS as usize],
            rrd: 0,
            faw: [0; 4],
        }
    }

    /// Mirrors the shared residuals into every bank's projection.
    fn sync(&mut self, cfg: &SdramConfig) {
        for (bank, abs) in self.banks.iter_mut().enumerate() {
            abs.refresh_busy = self.refresh_busy;
            abs.ccd = self.ccd[cfg.bank_group_of(bank as u32) as usize];
            abs.rrd = self.rrd;
            abs.faw = self.faw;
        }
    }

    fn tick(&mut self, cfg: &SdramConfig) {
        for abs in &mut self.banks {
            for r in &mut abs.res {
                *r = r.saturating_sub(1);
            }
        }
        self.refresh_busy = self.refresh_busy.saturating_sub(1);
        for gate in &mut self.ccd {
            *gate = gate.saturating_sub(1);
        }
        self.rrd = self.rrd.saturating_sub(1);
        for slot in &mut self.faw {
            *slot = slot.saturating_sub(1);
        }
        self.sync(cfg);
    }

    /// Declarative legality of `class` aimed at `bank`: the per-bank
    /// rule, except REFRESH which every bank must admit (the device
    /// checks the whole rank).
    fn can_issue(
        &self,
        class: CmdClass,
        bank: usize,
        table: &[(BankState, BankEvent, Outcome)],
    ) -> Result<(), String> {
        if matches!(class, CmdClass::Refresh) {
            for (b, abs) in self.banks.iter().enumerate() {
                abs_can_issue(abs, class, table).map_err(|why| format!("bank {b}: {why}"))?;
            }
            Ok(())
        } else {
            abs_can_issue(&self.banks[bank], class, table)
        }
    }

    /// Applies an accepted command: bank-local effects through
    /// [`abs_apply`], shared effects re-derived against the authority
    /// copies (a CAS arms the *other* groups' gates to tCCD_S, which
    /// the single-bank projection cannot express).
    fn apply(&mut self, class: CmdClass, bank: usize, model: &DeadlineModel, cfg: &SdramConfig) {
        let applied = abs_apply(&self.banks[bank], class, model);
        self.banks[bank].row_open = applied.row_open;
        self.banks[bank].res = applied.res;
        if matches!(class, CmdClass::Refresh) {
            self.refresh_busy = model.refresh_busy();
        }
        for &timer in protocol::channel_arms(class) {
            match timer {
                ChannelTimerId::Ccd => {
                    let own = cfg.bank_group_of(bank as u32) as usize;
                    for (group, gate) in self.ccd.iter_mut().enumerate() {
                        let dur = model.channel_duration(ChannelTimerId::Ccd, group == own);
                        *gate = (*gate).max(dur);
                    }
                }
                ChannelTimerId::Rrd => {
                    let dur = model.channel_duration(ChannelTimerId::Rrd, true);
                    self.rrd = self.rrd.max(dur);
                }
                ChannelTimerId::Faw => {
                    let dur = model.channel_duration(ChannelTimerId::Faw, true);
                    if dur > 0 {
                        self.faw[0] = dur;
                        self.faw.sort_unstable();
                    }
                }
            }
        }
        self.sync(cfg);
    }
}

/// Compares the device's observables for every driven bank and the
/// channel block against the multi-bank model.
fn check_multibank_alignment(
    label: &str,
    context: &str,
    dev: &Sdram,
    abs: &MultiAbs,
    cfg: &SdramConfig,
    out: &mut Vec<String>,
) {
    for (bank, bank_abs) in abs.banks.iter().enumerate() {
        let bank = bank as u32;
        for &timer in &TimerId::ALL {
            let device = dev.timer_remaining(bank, timer);
            let model = bank_abs.residual(timer);
            if device != model {
                out.push(format!(
                    "{label}: {context}: bank {bank}: {} residual diverged \
                     (device {device}, model {model})",
                    timer.name()
                ));
            }
        }
        let device_state = dev.bank_state(bank);
        let model_state = bank_abs.bank_state();
        if device_state != model_state {
            out.push(format!(
                "{label}: {context}: bank {bank}: state diverged (device {}, model {})",
                device_state.name(),
                model_state.name()
            ));
        }
        let device_open = dev.open_row(bank).is_some();
        if device_open != bank_abs.row_open {
            out.push(format!(
                "{label}: {context}: bank {bank}: row-open diverged \
                 (device {device_open}, model {})",
                bank_abs.row_open
            ));
        }
    }
    let device_busy = dev.refresh_busy_remaining();
    if device_busy != abs.refresh_busy {
        out.push(format!(
            "{label}: {context}: refresh busy diverged (device {device_busy}, model {})",
            abs.refresh_busy
        ));
    }
    for group in 0..cfg.bank_groups as usize {
        let device_ccd = dev.channel_cas_remaining(group as u32);
        if device_ccd != abs.ccd[group] {
            out.push(format!(
                "{label}: {context}: group {group} tCCD residual diverged \
                 (device {device_ccd}, model {})",
                abs.ccd[group]
            ));
        }
    }
    let device_rrd = dev.channel_rrd_remaining();
    if device_rrd != abs.rrd {
        out.push(format!(
            "{label}: {context}: tRRD residual diverged (device {device_rrd}, model {})",
            abs.rrd
        ));
    }
    let device_faw = dev.channel_faw_remaining();
    if device_faw != abs.faw {
        out.push(format!(
            "{label}: {context}: tFAW window diverged (device {device_faw:?}, model {:?})",
            abs.faw
        ));
    }
}

/// A deterministic multi-bank differential walk: drives up to
/// [`WALK_BANKS`] banks of a live device for [`WALK_STEPS`] cycles with
/// a fixed-seed LCG choosing among the legal commands, and on *every*
/// cycle compares the legality verdict of every candidate `(class,
/// bank)` pair — and afterwards every observable residual — against the
/// independent multi-bank model. This is the pass that exercises the
/// cross-bank channel couplings (tCCD_S between groups, tRRD and tFAW
/// across banks) that the bank-0 exploration cannot reach. Every
/// issued command also goes to a [`TimingAuditor`] for `cfg`, and each
/// violation it records is a finding.
pub fn check_preset_multibank(
    label: &str,
    cfg: &SdramConfig,
    table: &[(BankState, BankEvent, Outcome)],
    model: &DeadlineModel,
) -> Vec<String> {
    let mut out = Vec::new();
    let mut dev = match Sdram::try_new(*cfg) {
        Ok(d) => d,
        Err(e) => {
            out.push(format!(
                "{label}: device construction failed in the multi-bank walk: {e}"
            ));
            return out;
        }
    };
    let bank_count = cfg.internal_banks.min(WALK_BANKS);
    let mut auditor = TimingAuditor::new(*cfg);
    let mut abs = MultiAbs::new(bank_count);
    abs.sync(cfg);

    // Fixed-seed 64-bit LCG (MMIX constants): the walk is deterministic
    // so a finding is always reproducible.
    let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut step_rng = move || {
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        rng >> 16
    };

    for step in 0..WALK_STEPS {
        if out.len() >= FINDING_CAP {
            out.push(format!(
                "{label}: finding cap reached, multi-bank walk truncated at step {step}"
            ));
            return out;
        }
        // Verdict comparison for every candidate command this cycle.
        let mut legal: Vec<(CmdClass, u32)> = Vec::new();
        for bank in 0..bank_count {
            for class in CmdClass::ALL {
                if matches!(class, CmdClass::Refresh) && bank != 0 {
                    continue; // REFRESH is bankless; check it once.
                }
                let cmd = command_of(class, bank);
                let model_verdict = abs.can_issue(class, bank as usize, table);
                let device_verdict = dev.can_issue(&cmd);
                // The bank controller's legality-first scheduling skips
                // a candidate whose ready-at cycle is in the future, so
                // such a cycle must imply that the device refuses it.
                if let Some(at) = ready_at(&dev, class, bank) {
                    if at > dev.now() && device_verdict.is_ok() {
                        out.push(format!(
                            "{label}: step {step}: device accepts {} to bank {bank} although \
                             its ready-at cycle {at} is still ahead of cycle {}",
                            class.mnemonic(),
                            dev.now()
                        ));
                    }
                }
                match (&model_verdict, &device_verdict) {
                    (Ok(()), Err(e)) => out.push(format!(
                        "{label}: step {step}: model admits {} to bank {bank} but the \
                         device refuses it ({e})",
                        class.mnemonic()
                    )),
                    (Err(why), Ok(())) => out.push(format!(
                        "{label}: step {step}: device accepts {} to bank {bank} while \
                         {why} — timing-safety violation",
                        class.mnemonic()
                    )),
                    (Err(_), Err(_)) => {}
                    (Ok(()), Ok(())) => legal.push((class, bank)),
                }
            }
        }
        // Issue one of the legal commands (or idle one cycle in four,
        // so expiry boundaries get sampled too).
        let roll = step_rng();
        if !legal.is_empty() && roll & 3 != 0 {
            let (class, bank) = legal[(roll >> 8) as usize % legal.len()];
            let cmd = command_of(class, bank);
            auditor.observe(dev.now(), &cmd);
            if let Err(e) = dev.issue(cmd) {
                out.push(format!(
                    "{label}: step {step}: issue({} bank {bank}) failed after \
                     can_issue passed: {e}",
                    class.mnemonic()
                ));
                return out;
            }
            abs.apply(class, bank as usize, model, cfg);
        }
        dev.tick();
        abs.tick(cfg);
        check_multibank_alignment(label, &format!("step {step}"), &dev, &abs, cfg, &mut out);
    }
    out.extend(auditor.violations().iter().map(|v| {
        format!(
            "{label}: auditor: cycle {}: bank {}: device accepted a command that breaks {}",
            v.cycle, v.bank, v.rule
        )
    }));
    out
}

/// Runs the protocol pass over every shipped SDRAM preset with the
/// pristine transition table and deadline model: the exhaustive bank-0
/// exploration first, then the multi-bank differential walk.
pub fn check() -> Vec<String> {
    let mut out = Vec::new();
    for (label, cfg) in config_check::sdram_presets() {
        let model = DeadlineModel::of(&cfg);
        out.extend(check_preset(label, &cfg, TRANSITIONS, &model));
        out.extend(check_preset_multibank(label, &cfg, TRANSITIONS, &model));
    }
    out
}

/// Number of distinct product states the exploration reaches for
/// `cfg` — exposed for the tests that pin exhaustiveness.
pub fn state_count(cfg: &SdramConfig) -> usize {
    let mut visited: HashMap<Abs, ()> = HashMap::new();
    let model = DeadlineModel::of(cfg);
    let mut frontier = VecDeque::new();
    visited.insert(Abs::QUIESCENT, ());
    frontier.push_back(Abs::QUIESCENT);
    while let Some(abs) = frontier.pop_front() {
        let mut successors = vec![abs.tick()];
        for class in CmdClass::ALL {
            if abs_can_issue(&abs, class, TRANSITIONS).is_ok() {
                successors.push(abs_apply(&abs, class, &model).tick());
            }
        }
        for s in successors {
            if visited.len() < STATE_CAP && visited.insert(s, ()).is_none() {
                frontier.push_back(s);
            }
        }
    }
    visited.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_presets_verify_clean() {
        assert_eq!(check(), Vec::<String>::new());
    }

    #[test]
    fn exploration_is_nontrivial() {
        // The default preset must exercise a real product space: more
        // states than the five observable BankStates, well under the
        // cap.
        let n = state_count(&SdramConfig::default());
        assert!(n > 10, "only {n} product states explored");
        assert!(n < STATE_CAP);
    }

    #[test]
    fn corrupted_deadline_is_caught() {
        let cfg = SdramConfig::default();
        let mut model = DeadlineModel::of(&cfg);
        model.t_rcd += 1; // model now expects a longer tRCD than the device arms
        let findings = check_preset("mutated", &cfg, TRANSITIONS, &model);
        assert!(findings.iter().any(|f| f.contains("tRCD")), "{findings:?}");
    }

    #[test]
    fn corrupted_cas_spacing_is_caught() {
        // A tCCD_L disagreement surfaces in the bank-0 exploration: the
        // model arms the group-0 gate one cycle longer than the device.
        let cfg = SdramConfig::for_device(sdram::DevicePreset::Ddr3_1600);
        let mut model = DeadlineModel::of(&cfg);
        model.t_ccd_l += 1;
        let findings = check_preset("mutated", &cfg, TRANSITIONS, &model);
        assert!(findings.iter().any(|f| f.contains("tCCD")), "{findings:?}");
    }

    #[test]
    fn corrupted_cross_group_spacing_is_caught() {
        // tCCD_S only matters *between* bank groups, which bank 0 alone
        // can never exercise — the multi-bank walk must catch it.
        let cfg = SdramConfig::for_device(sdram::DevicePreset::Ddr3_1600);
        let mut model = DeadlineModel::of(&cfg);
        model.t_ccd_s += 1;
        let clean = check_preset("mutated", &cfg, TRANSITIONS, &model);
        assert_eq!(
            clean,
            Vec::<String>::new(),
            "bank 0 alone cannot see tCCD_S"
        );
        let findings = check_preset_multibank("mutated", &cfg, TRANSITIONS, &model);
        assert!(findings.iter().any(|f| f.contains("tCCD")), "{findings:?}");
    }

    #[test]
    fn corrupted_activate_spacing_is_caught() {
        let cfg = SdramConfig::for_device(sdram::DevicePreset::Ddr3_1600);
        let mut model = DeadlineModel::of(&cfg);
        model.t_rrd += 1;
        let findings = check_preset_multibank("mutated", &cfg, TRANSITIONS, &model);
        assert!(findings.iter().any(|f| f.contains("tRRD")), "{findings:?}");
    }

    #[test]
    fn corrupted_activate_window_is_caught() {
        let cfg = SdramConfig::for_device(sdram::DevicePreset::Ddr3_1600);
        let mut model = DeadlineModel::of(&cfg);
        model.t_faw += 1;
        let findings = check_preset_multibank("mutated", &cfg, TRANSITIONS, &model);
        assert!(findings.iter().any(|f| f.contains("tFAW")), "{findings:?}");
    }

    #[test]
    fn multibank_walk_is_clean_on_every_preset() {
        for (label, cfg) in config_check::sdram_presets() {
            let model = DeadlineModel::of(&cfg);
            let findings = check_preset_multibank(label, &cfg, TRANSITIONS, &model);
            assert_eq!(findings, Vec::<String>::new());
        }
    }
}
