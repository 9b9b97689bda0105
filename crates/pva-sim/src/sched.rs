//! Event queue for the next-event fast path.
//!
//! The reference model ticks every bank controller every cycle. The
//! fast path instead keeps one pending wake-up per controller in a
//! flat `next_run` table, runs the earliest, and bulk-advances the
//! clock across the gap — cycles where provably nothing can change are
//! never executed. Every controller tick publishes a wake hint (the
//! earliest cycle its next tick could act); controllers with nothing
//! pending park until a broadcast re-arms them.

/// Number of jump-size histogram buckets in [`EventStats::jump_hist`].
pub const JUMP_BUCKETS: usize = 8;

/// Sentinel in the `next_run` table: no wake-up scheduled.
const PARKED: u64 = u64::MAX;

/// Counters describing how the event-driven loop spent a run: how many
/// cycles were actually executed versus jumped over, and the shape of
/// the jumps. Purely observational — never feeds back into timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Cycles the event loop executed in full (bus arbitration, due
    /// controller ticks, transaction bookkeeping).
    pub executed_cycles: u64,
    /// Cycles jumped over in bulk as provable no-ops.
    pub skipped_cycles: u64,
    /// Number of bulk jumps taken (time advances of ≥ 1 cycle).
    pub jumps: u64,
    /// Controller wake-ups popped from the queue.
    pub events_popped: u64,
    /// Controller ticks that did no work (each still published a wake
    /// hint): the waste an exact hint would remove.
    pub idle_ticks: u64,
    /// Histogram of jump sizes: bucket `i` counts jumps of
    /// `2^i ..= 2^(i+1) - 1` cycles; the last bucket is open-ended
    /// (`128+` with the default [`JUMP_BUCKETS`]).
    pub jump_hist: [u64; JUMP_BUCKETS],
}

impl EventStats {
    /// Records one bulk jump of `gap` cycles.
    pub(crate) fn record_jump(&mut self, gap: u64) {
        debug_assert!(gap > 0, "a jump always advances time");
        self.jumps += 1;
        let bucket = (u64::BITS - 1 - gap.leading_zeros()) as usize;
        self.jump_hist[bucket.min(JUMP_BUCKETS - 1)] += 1;
    }

    /// Accumulates another run's counters into this one (for summing
    /// across traces in a sweep).
    pub fn absorb(&mut self, other: &EventStats) {
        self.executed_cycles += other.executed_cycles;
        self.skipped_cycles += other.skipped_cycles;
        self.jumps += other.jumps;
        self.events_popped += other.events_popped;
        self.idle_ticks += other.idle_ticks;
        for (acc, v) in self.jump_hist.iter_mut().zip(other.jump_hist) {
            *acc += v;
        }
    }
}

/// One pending wake-up per bank controller: a flat `next_run` table.
///
/// A unit has at most a few dozen controllers, so a linear scan of the
/// table is cheaper than keeping any ordered structure up to date.
/// [`drain_due`](EventQueue::drain_due) walks it in index order, which
/// is the order the reference model ticks controllers in.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Next-run cycle per controller ([`PARKED`] when none).
    next_run: Vec<u64>,
    /// The cycle after the last drain ([`PARKED`] before any drain).
    next_cycle: u64,
    /// Whether a controller was woken at `next_cycle` since the last
    /// drain.
    due_next: bool,
}

impl EventQueue {
    /// Clears all state and sizes the queue for `n` controllers, all
    /// parked.
    pub(crate) fn reset(&mut self, n: usize) {
        self.next_run.clear();
        self.next_run.resize(n, PARKED);
        self.next_cycle = PARKED;
        self.due_next = false;
    }

    /// Schedules controller `idx` to run at `cycle`. An earlier
    /// existing schedule wins — waking early is sound (the tick replays
    /// a no-op and republishes its hint), waking late is not.
    pub(crate) fn wake(&mut self, idx: usize, cycle: u64) {
        debug_assert!(cycle < PARKED, "PARKED is reserved");
        if cycle < self.next_run[idx] {
            self.next_run[idx] = cycle;
            self.due_next |= cycle == self.next_cycle;
        }
    }

    /// [`wake`](EventQueue::wake), but a silent no-op when the queue is
    /// disarmed (sized for zero controllers) — for callers shared with
    /// the reference path, like the broadcast logic.
    pub(crate) fn wake_if_armed(&mut self, idx: usize, cycle: u64) {
        if idx < self.next_run.len() {
            self.wake(idx, cycle);
        }
    }

    /// Whether controllers were woken for the cycle right after the
    /// last drain — the busy-stretch signature. The event loop uses
    /// this to bypass the full next-event/jump computation: the
    /// earliest event *is* the next cycle, so the only possible "jump"
    /// is zero-length.
    pub(crate) fn has_due_next(&self) -> bool {
        self.due_next
    }

    /// Earliest scheduled wake-up cycle across all controllers, or
    /// `None` when every controller is parked.
    pub(crate) fn next_event(&self) -> Option<u64> {
        self.next_run.iter().copied().min().filter(|&c| c != PARKED)
    }

    /// Pops the next controller due at or before `cycle` and parks it
    /// (its tick will reschedule it). `None` when nothing is due.
    /// Test-only convenience; the simulator drains whole cycles with
    /// [`drain_due`](EventQueue::drain_due).
    #[cfg(test)]
    pub(crate) fn pop_due(&mut self, cycle: u64) -> Option<usize> {
        let (at, idx) = self.next_run.iter().copied().zip(0..).min()?;
        if at > cycle {
            return None;
        }
        self.next_run[idx] = PARKED;
        Some(idx)
    }

    /// Pops *every* controller due at or before `cycle` into `out` (in
    /// index order) and parks them — the batched form of
    /// [`pop_due`](EventQueue::pop_due) for the per-cycle hot loop.
    pub(crate) fn drain_due(&mut self, cycle: u64, out: &mut Vec<u32>) {
        out.clear();
        for (idx, at) in (0..).zip(self.next_run.iter_mut()) {
            if *at <= cycle {
                *at = PARKED;
                out.push(idx);
            }
        }
        self.next_cycle = cycle + 1;
        self.due_next = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_then_index_order() {
        let mut q = EventQueue::default();
        q.reset(4);
        q.wake(2, 10);
        q.wake(0, 5);
        q.wake(3, 10);
        q.wake(1, 7);
        assert_eq!(q.next_event(), Some(5));
        assert_eq!(q.pop_due(10), Some(0));
        assert_eq!(q.pop_due(10), Some(1));
        // Same-cycle entries pop in ascending controller order.
        assert_eq!(q.pop_due(10), Some(2));
        assert_eq!(q.pop_due(10), Some(3));
        assert_eq!(q.pop_due(u64::MAX - 1), None);
        assert_eq!(q.next_event(), None);
    }

    #[test]
    fn pop_due_respects_the_deadline() {
        let mut q = EventQueue::default();
        q.reset(2);
        q.wake(0, 3);
        q.wake(1, 8);
        assert_eq!(q.pop_due(2), None);
        assert_eq!(q.pop_due(3), Some(0));
        assert_eq!(q.pop_due(3), None);
        assert_eq!(q.next_event(), Some(8));
    }

    #[test]
    fn earlier_wake_supersedes_later_entry() {
        let mut q = EventQueue::default();
        q.reset(2);
        q.wake(0, 100);
        q.wake(0, 4); // pulls the schedule in
        q.wake(0, 50); // later than the live entry: ignored
        assert_eq!(q.next_event(), Some(4));
        assert_eq!(q.pop_due(4), Some(0));
        // The stale cycle-100 entry must not resurface.
        assert_eq!(q.pop_due(u64::MAX - 1), None);
        assert_eq!(q.next_event(), None);
    }

    #[test]
    fn reset_clears_all_schedules() {
        let mut q = EventQueue::default();
        q.reset(3);
        q.wake(0, 1);
        q.wake(1, 2);
        q.reset(3);
        assert_eq!(q.next_event(), None);
        q.wake(2, 9);
        assert_eq!(q.pop_due(9), Some(2));
    }

    #[test]
    fn interleaved_wakes_and_pops_stay_ordered() {
        let mut q = EventQueue::default();
        q.reset(8);
        // Deterministic pseudo-shuffled schedule.
        for k in 0..64u64 {
            let idx = ((k * 5) % 8) as usize;
            q.wake(idx, (k * 37) % 101 + 1);
        }
        let mut last = 0;
        let mut popped = 0;
        while let Some(c) = q.next_event() {
            assert!(c >= last, "wake-ups out of order: {c} after {last}");
            last = c;
            assert!(q.pop_due(c).is_some());
            popped += 1;
        }
        // One live schedule per controller survives the supersessions.
        assert_eq!(popped, 8);
    }

    #[test]
    fn has_due_next_tracks_wakes_at_the_cycle_after_a_drain() {
        let mut q = EventQueue::default();
        let mut out = Vec::new();
        q.reset(3);
        q.wake(0, 5);
        q.wake(1, 6);
        // Before any drain there is no "next cycle".
        assert!(!q.has_due_next());
        q.drain_due(5, &mut out);
        assert_eq!(out, [0]);
        // Controller 1 was scheduled at 6 before the drain: not counted.
        assert!(!q.has_due_next());
        // A wake at the drained cycle itself does not count either.
        q.wake(2, 5);
        assert!(!q.has_due_next());
        q.wake(0, 6);
        assert!(q.has_due_next());
        q.drain_due(6, &mut out);
        assert_eq!(out, [0, 1, 2]);
        assert!(!q.has_due_next());
        assert_eq!(q.next_event(), None);
    }

    #[test]
    fn jump_histogram_buckets_by_power_of_two() {
        let mut s = EventStats::default();
        for gap in [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 1 << 20] {
            s.record_jump(gap);
        }
        assert_eq!(s.jump_hist, [1, 2, 2, 2, 2, 2, 2, 2]);
        assert_eq!(s.jumps, 15);
    }

    #[test]
    fn absorb_sums_every_counter() {
        let mut a = EventStats {
            executed_cycles: 10,
            skipped_cycles: 90,
            ..EventStats::default()
        };
        a.record_jump(3);
        let mut b = EventStats {
            executed_cycles: 1,
            skipped_cycles: 9,
            events_popped: 5,
            idle_ticks: 2,
            ..EventStats::default()
        };
        b.record_jump(200);
        a.absorb(&b);
        assert_eq!(a.executed_cycles, 11);
        assert_eq!(a.skipped_cycles, 99);
        assert_eq!(a.jumps, 2);
        assert_eq!(a.events_popped, 5);
        assert_eq!(a.idle_ticks, 2);
        assert_eq!(a.jump_hist[1], 1);
        assert_eq!(a.jump_hist[JUMP_BUCKETS - 1], 1);
    }
}
