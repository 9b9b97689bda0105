//! The Bank Controller (BC) of §5.2.2, one per external SDRAM bank.
//!
//! Subcomponents, mirroring Figure 6 of the paper:
//!
//! * **FirstHit Predict (FHP)** — watches vector commands broadcast on
//!   the BC bus, decides hit/miss for this bank via the PLA tables, and
//!   for power-of-two strides computes the first-hit address immediately
//!   (1 cycle).
//! * **Request FIFO / Register File (RQF/RF)** — queues hits awaiting
//!   service; as many entries as outstanding bus transactions.
//! * **FirstHit Calculate (FHC)** — the 2-cycle multiply-add that
//!   finishes address calculation for non-power-of-two strides, working
//!   in parallel with the scheduler. Its latency is fixed, so each entry
//!   carries the cycle its address is ready instead of a countdown.
//! * **Access Scheduler (SCHED)** with **Vector Contexts (VCs)** and
//!   **Scheduling Policy Units (SPUs)** — expands each request's address
//!   series by shift-and-add, reorders row activates / precharges /
//!   reads / writes across contexts (oldest first, daisy-chained), and
//!   drives the SDRAM.
//! * **Staging** — gathered read data is deposited into the shared
//!   [`TransactionTable`] (the model of the wired-OR
//!   transaction-complete lines) when its CAS issues, tagged with the
//!   cycle it reaches the pins; write data is pulled from the broadcast
//!   line buffer.
//!
//! Bypass paths (§5.2.3), the bus-polarity rule (§5.2.4), restimer-
//! enforced SDRAM timing (§5.2.5) and the row-management heuristic are
//! all modelled. The ablation benches switch the bypass paths,
//! out-of-order issue, row-open promotion and the row policy
//! ([`SchedulerOptions`](crate::SchedulerOptions)); everything else
//! follows from the device the controller drives.

use std::collections::VecDeque;
use std::sync::Arc;

use pva_core::{BankId, FastMap, FirstHit, K1Pla, LogicalView};
use sdram::{CmdClass, InternalAddr, ReadReturn, Sdram, SdramCmd};

use crate::command::{OpKind, TxnId, VectorCommand};
use crate::config::{PvaConfig, RowPolicy};
use crate::trace_log::TraceEvent;
use crate::txn::TransactionTable;

/// Encodes (transaction, element index) into an SDRAM read tag.
fn tag_of(txn: TxnId, element: u64) -> u64 {
    ((txn.0 as u64) << 40) | element
}

/// Decodes an SDRAM read tag.
fn untag(tag: u64) -> (TxnId, u64) {
    (TxnId((tag >> 40) as u8), tag & ((1 << 40) - 1))
}

/// Row-address bit set on rows remapped away from a hard-failed
/// internal bank, so they cannot collide with the spare bank's own
/// rows (device row addresses are untruncated 64-bit values; real
/// hardware would burn one spare-region row bit the same way).
const REMAP_ROW_BIT: u64 = 1 << 40;

/// Cap on the exponential retry-backoff shift (`backoff << attempts`),
/// keeping the delay bounded and overflow-free.
const MAX_BACKOFF_SHIFT: u32 = 10;

/// Longest element run one CAS burst may cover (BL8 is the longest
/// burst any shipped generation declares); bounds the stack buffer the
/// scheduler assembles burst items in.
const MAX_COALESCE: usize = 8;

/// Dead cycles after a data-bus direction reversal (§5.2.5): a
/// turnaround at cycle `t` leaves the command slots of `t` through
/// `t + TURNAROUND_CYCLES` empty.
const TURNAROUND_CYCLES: u64 = 1;

/// A poisoned read awaiting re-issue: the element is re-expanded as a
/// one-element vector context once `not_before` passes.
#[derive(Debug, Clone, Copy)]
struct PendingRetry {
    txn: TxnId,
    element: u64,
    addr: u64,
    /// Earliest cycle the retry may re-enter a vector context.
    not_before: u64,
}

/// The controller state that routing a READ's words touches, borrowed
/// apart from the device so each word is routed as
/// [`Sdram::issue_read_burst`] hands it back, with no buffer between.
struct ReadRouter<'a> {
    attempts: &'a mut FastMap<(u8, u64), u32>,
    returning: &'a mut VecDeque<(u64, PendingRetry)>,
    stats: &'a mut BcStats,
    vec_meta: &'a [(u64, u64)],
    config: &'a PvaConfig,
}

impl ReadRouter<'_> {
    /// Routes one word of a READ burst at its CAS issue: deposit it,
    /// tagged with its return cycle, or schedule a retry if poisoned.
    /// Poisoned words (ECC-uncorrectable or hard-failed bank) are
    /// retried with exponential backoff from their return cycle up to
    /// the configured bound, then deposited flagged so the transaction
    /// still completes.
    fn route(&mut self, word: ReadReturn, txns: &mut TransactionTable) {
        let (txn, element) = untag(word.tag);
        if word.poisoned {
            let key = (txn.0, element);
            let attempts = self.attempts.get(&key).copied().unwrap_or(0);
            if attempts < self.config.max_read_retries {
                let (base, stride) = self.vec_meta[txn.0 as usize];
                let backoff =
                    (self.config.retry_backoff_cycles as u64) << attempts.min(MAX_BACKOFF_SHIFT);
                self.attempts.insert(key, attempts + 1);
                let retry = PendingRetry {
                    txn,
                    element,
                    addr: base + stride * element,
                    not_before: word.at_cycle + backoff,
                };
                self.returning.push_back((word.at_cycle, retry));
                self.stats.read_retries += 1;
            } else {
                self.attempts.remove(&key);
                self.stats.retries_exhausted += 1;
                txns.deposit_faulted(txn, element, word.data, word.at_cycle);
            }
        } else {
            // Clearing a retry record only matters if one exists: skip
            // the hash on the (overwhelmingly common) clean read when no
            // retries are outstanding at all.
            if !self.attempts.is_empty() {
                self.attempts.remove(&(txn.0, element));
            }
            txns.deposit(txn, element, word.data, word.at_cycle);
        }
    }
}

/// The bank's first-hit logic: a single PLA for word interleave, or
/// the §4.1.3/§4.3.1 arrangement of `N` logical-bank copies for block
/// interleave ("replicating the FirstHit logic N times in each bank
/// controller").
#[derive(Debug, Clone)]
enum HitLogic {
    /// Word-interleaved: one K1 PLA, shift-and-add expansion.
    Word(Arc<K1Pla>),
    /// Block-interleaved: N logical first-hit units whose sorted merge
    /// gives this bank's element indices.
    Logical(Arc<LogicalView>),
}

/// A register-file entry: a vector request that hit this bank, plus its
/// address-calculation state (the ACC flag of §5.2.2).
#[derive(Debug, Clone)]
struct RfEntry {
    cmd: VectorCommand,
    /// First element index this bank holds.
    first_index: u64,
    /// Element-index step between this bank's elements (Theorem 4.4).
    index_delta: u64,
    /// First-hit word address; meaningful from `addr_ready_at` on.
    first_addr: u64,
    /// The ACC flag as a deadline: the cycle whose tick completes the
    /// FHC multiply-add (the broadcast cycle for power-of-two strides).
    addr_ready_at: u64,
    /// Earliest cycle the scheduler may consume this entry (models FHP /
    /// FIFO / bypass latencies).
    injectable_at: u64,
    /// Dense line to scatter, for writes.
    write_line: Option<Arc<Vec<u64>>>,
    /// Block-interleave only: the merged element-index list of this
    /// bank's N logical first-hit units.
    indices: Option<Arc<Vec<u64>>>,
}

impl RfEntry {
    /// First cycle the entry may enter a vector context: its address is
    /// calculated and the FIFO latency has passed.
    fn ready_at(&self) -> u64 {
        self.addr_ready_at.max(self.injectable_at)
    }
}

/// A vector context: one request being actively expanded against the
/// SDRAM.
#[derive(Debug, Clone)]
struct VectorContext {
    txn: TxnId,
    kind: OpKind,
    /// Current global word address.
    addr: u64,
    /// Address step per element served: `V.S << (m - s)` (§4.2 step 7).
    addr_step: u64,
    /// Current element index within the vector.
    element: u64,
    /// Element-index step.
    index_delta: u64,
    /// Elements remaining for this bank (including the current one).
    remaining: u64,
    /// Whether the very first operation of this context has issued yet
    /// (drives the autoprecharge predictor).
    first_op_done: bool,
    write_line: Option<Arc<Vec<u64>>>,
    /// Block-interleave only: explicit index list plus cursor (the
    /// hardware holds N per-logical-bank shift-and-add units instead).
    indices: Option<Arc<Vec<u64>>>,
    pos: usize,
    /// Vector base and stride, for index-list address generation.
    base: u64,
    stride: u64,
    /// Cached internal-bank/row/column of `addr` (post-remap). The
    /// mapping inputs are fixed per run (geometry, interleave, the
    /// configured hard-failed bank), so this only changes when `addr`
    /// does — maintained at context creation and element advance, and
    /// asserted against a fresh mapping in debug builds.
    target: (u32, u64, u64),
}

/// Per-bank-controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BcStats {
    /// Commands this bank hit on.
    pub requests_queued: u64,
    /// Elements read from SDRAM.
    pub elements_read: u64,
    /// Elements written to SDRAM.
    pub elements_written: u64,
    /// Bus turnaround (polarity-reversal) stalls.
    pub turnarounds: u64,
    /// Cycles at least one VC was occupied.
    pub busy_cycles: u64,
    /// Activates issued (row opens).
    pub activates: u64,
    /// Poisoned reads re-issued (bounded retry with backoff).
    pub read_retries: u64,
    /// Elements whose retries were exhausted and whose (bad) data was
    /// deposited flagged instead.
    pub retries_exhausted: u64,
    /// Accesses remapped away from a hard-failed internal bank into its
    /// spare (graceful degradation).
    pub remapped_accesses: u64,
    /// CAS commands whose bank group differed from the previous CAS on
    /// this channel (the short tCCD_S gate applied instead of tCCD_L).
    /// Always 0 on 1-group parts.
    pub group_switches: u64,
    /// CAS bursts that covered more than one element (BL4/BL8
    /// coalescing of adjacent same-row elements). Always 0 on
    /// burst-length-1 parts.
    pub coalesced_bursts: u64,
    /// Cycles phase A held ACTIVATEs back from the tFAW window's last
    /// free slot so a timing-legal CAS could issue instead. Always 0
    /// when tFAW is 0.
    pub deferred_activates: u64,
}

impl BcStats {
    /// Adds `other`'s counters into `self` — aggregation across the
    /// controllers of a multi-bank system.
    pub fn merge(&mut self, other: &BcStats) {
        self.requests_queued += other.requests_queued;
        self.elements_read += other.elements_read;
        self.elements_written += other.elements_written;
        self.turnarounds += other.turnarounds;
        self.busy_cycles += other.busy_cycles;
        self.activates += other.activates;
        self.read_retries += other.read_retries;
        self.retries_exhausted += other.retries_exhausted;
        self.remapped_accesses += other.remapped_accesses;
        self.group_switches += other.group_switches;
        self.coalesced_bursts += other.coalesced_bursts;
        self.deferred_activates += other.deferred_activates;
    }
}

/// One bank controller: parallelizing logic + scheduler + one SDRAM
/// device. `Clone` exists for the debug-build wake-soundness oracle,
/// which replays a cloned controller cycle-by-cycle across every
/// window the event loop is about to skip.
#[derive(Debug, Clone)]
pub(crate) struct BankController {
    bank: BankId,
    config: PvaConfig,
    hit_logic: HitLogic,
    fifo: VecDeque<RfEntry>,
    /// Active vector contexts, oldest first (at most
    /// `vector_contexts`).
    vcs: Vec<VectorContext>,
    device: Sdram,
    /// Last data-transfer direction on this bank's data bus.
    data_polarity: Option<OpKind>,
    /// Bank group of the last CAS accepted by this controller's device
    /// (`None` before the first). On multi-group parts the scheduler
    /// prefers CAS candidates from a *different* group, so the
    /// channel's short tCCD_S gate applies instead of tCCD_L.
    last_cas_group: Option<u32>,
    /// First cycle after the current bus turnaround (§5.2.5): no command
    /// issues before it. In the past when no turnaround is running.
    turnaround_until: u64,
    /// First cycle the FHC is free for the next multiply-add: one runs
    /// at a time, oldest entry first.
    fhc_free_at: u64,
    /// One-bit autoprecharge predictor per internal bank (§5.2.2).
    autoprecharge_predict: Vec<bool>,
    /// Last row that was open in each internal bank (survives closes).
    last_row: Vec<Option<u64>>,
    /// Four-bit hit/miss history per internal bank (Alpha 21174 style;
    /// only consulted under `RowPolicy::AlphaHistory`).
    row_history: Vec<u8>,
    stats: BcStats,
    /// Poisoned reads waiting out their backoff before re-issue.
    retries: Vec<PendingRetry>,
    /// Poisoned reads whose data has not reached the pins yet, as
    /// `(return cycle, retry)` in return order. Each joins `retries` at
    /// the first tick at or after its return cycle, so `retries` keeps
    /// the order it would have if the word were handled at the pins.
    returning: VecDeque<(u64, PendingRetry)>,
    /// Retry attempts so far per (transaction, element).
    retry_attempts: FastMap<(u8, u64), u32>,
    /// Base and stride of the last vector command observed under each
    /// transaction id (indexed by id), so a poisoned element's address
    /// can be recomputed for its retry.
    vec_meta: Vec<(u64, u64)>,
    /// The earliest future cycle at which this controller could act,
    /// as of the last [`tick`](BankController::tick) (`None` = nothing
    /// pending until a broadcast). Consumed by the unit's next-event
    /// fast path immediately after the tick.
    wake_hint: Option<u64>,
    /// The issue window of the last scheduling pass (see
    /// [`build_issue_window`](BankController::build_issue_window)).
    /// It depends only on the contexts and the bus polarity, so it is
    /// rebuilt only after one of them changes.
    window: Vec<usize>,
    /// Whether a context or the bus polarity changed since `window`
    /// was built.
    window_stale: bool,
    /// Trace events accumulated since the last drain (only populated
    /// when `config.record_trace`).
    events: Vec<TraceEvent>,
}

impl BankController {
    /// Creates the controller for `bank` on a word-interleaved system.
    pub fn new(bank: BankId, config: PvaConfig, pla: Arc<K1Pla>) -> Self {
        Self::with_hit_logic(bank, config, HitLogic::Word(pla))
    }

    /// Creates the controller for `bank` on a block-interleaved system:
    /// `N` copies of the first-hit logic per controller (§4.3.1).
    pub fn new_block_interleaved(bank: BankId, config: PvaConfig, view: Arc<LogicalView>) -> Self {
        Self::with_hit_logic(bank, config, HitLogic::Logical(view))
    }

    fn with_hit_logic(bank: BankId, config: PvaConfig, hit_logic: HitLogic) -> Self {
        let ib = config.sdram.total_row_buffers() as usize;
        let mut device = Sdram::new(config.sdram);
        // Each controller's device draws an independent (but seed-
        // reproducible) transient-fault stream.
        device.reseed_faults(bank.index() as u64 + 1);
        BankController {
            bank,
            config,
            hit_logic,
            fifo: VecDeque::new(),
            vcs: Vec::new(),
            device,
            data_polarity: None,
            last_cas_group: None,
            turnaround_until: 0,
            fhc_free_at: 0,
            autoprecharge_predict: vec![false; ib],
            last_row: vec![None; ib],
            row_history: vec![0; ib],
            stats: BcStats::default(),
            retries: Vec::new(),
            returning: VecDeque::new(),
            retry_attempts: FastMap::default(),
            vec_meta: vec![(0, 0); config.transaction_ids],
            wake_hint: None,
            window: Vec::new(),
            window_stale: true,
            events: Vec::new(),
        }
    }

    /// Drains the accumulated trace events.
    pub fn drain_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Logs an SDRAM operation when tracing is enabled. The mnemonic
    /// comes from the shared [`CmdClass`] table, so the trace log, the
    /// VCD exporter and the device FSM can never drift apart.
    fn log_op(&mut self, op: CmdClass, internal_bank: u32, row: u64) {
        if self.config.record_trace {
            self.events.push(TraceEvent::BankOp {
                cycle: self.device.now(),
                bank: self.bank.index(),
                op: op.mnemonic(),
                internal_bank,
                row,
            });
        }
    }

    /// Statistics so far.
    pub const fn stats(&self) -> &BcStats {
        &self.stats
    }

    /// The SDRAM device (for functional inspection in tests).
    pub const fn device(&self) -> &Sdram {
        &self.device
    }

    /// Mutable device access (test preloading).
    pub fn device_mut(&mut self) -> &mut Sdram {
        &mut self.device
    }

    /// Whether this controller has no queued or active work. Read data
    /// already handed to the transaction table may still be on its way
    /// to the pins.
    pub fn idle(&self) -> bool {
        self.fifo.is_empty()
            && self.vcs.is_empty()
            && self.retries.is_empty()
            && self.returning.is_empty()
    }

    /// Stronger than [`idle`](BankController::idle): nothing queued AND
    /// the device itself is fully at rest, so a tick can only replay
    /// the same empty decision. (A bus turnaround only runs while the
    /// context that started it waits, so an idle controller has none.)
    pub(crate) fn quiet(&self) -> bool {
        self.idle() && self.device.quiet()
    }

    /// FHP: observes a vector command broadcast at cycle `now`. Returns
    /// the number of elements this bank will serve (0 = miss, request
    /// not queued).
    pub fn observe_command(
        &mut self,
        cmd: &VectorCommand,
        write_line: Option<Arc<Vec<u64>>>,
        now: u64,
    ) -> u64 {
        let v = &cmd.vector;
        // Remember the vector's base/stride so a poisoned element can be
        // re-expanded into a retry context later (recorded even on a
        // miss, overwriting the id's previous command).
        self.vec_meta[cmd.txn.0 as usize] = (v.base(), v.stride());
        let (first, index_delta, count, indices) = match &self.hit_logic {
            HitLogic::Word(pla) => {
                let first = match pla.first_hit(v, self.bank) {
                    FirstHit::Hit(k) => k,
                    FirstHit::Miss => return 0,
                };
                let delta = pla.next_hit(v.stride());
                // pva-lint: allow(nonconst-div): delta = 2^(m-s) by Theorem 4.4; the hardware subvector counter shifts
                let count = (v.length() - first).div_ceil(delta);
                (first, delta, count, None)
            }
            HitLogic::Logical(view) => {
                let idx: Vec<u64> = view.subvector_indices(v, self.bank).collect();
                if idx.is_empty() {
                    return 0;
                }
                let first = idx[0];
                let count = idx.len() as u64;
                (first, 1, count, Some(Arc::new(idx)))
            }
        };
        let pow2 = v.stride().is_power_of_two();
        let bypass = self.config.options.bypass_paths
            && self.fifo.is_empty()
            && self.vcs.len() < self.config.vector_contexts;
        // Pipeline latencies (§5.2.3): FHP enqueues at the end of the
        // broadcast cycle. Power-of-two strides have their address ready
        // immediately; others wait for the FHC multiply-add. The bypass
        // paths save the FIFO write-back/dequeue cycle when the
        // controller is idle.
        // The FHC runs one multiply-add at a time, oldest entry first:
        // an entry's `fhc_latency` cycles start once both it has arrived
        // and the previous multiply-add is done, the last of them being
        // the cycle its address is ready.
        let fifo_latency = if bypass { 1 } else { 2 };
        let (addr_ready_at, injectable_at) = if pow2 {
            (now, now + fifo_latency)
        } else {
            let fhc = u64::from(self.config.fhc_latency);
            let ready = now.max(self.fhc_free_at) + fhc - 1;
            self.fhc_free_at = ready + 1;
            (ready, now + fifo_latency + fhc)
        };
        let first_addr = v.base() + v.stride() * first;
        self.fifo.push_back(RfEntry {
            cmd: *cmd,
            first_index: first,
            index_delta,
            first_addr,
            addr_ready_at,
            injectable_at,
            write_line,
            indices,
        });
        debug_assert!(
            self.fifo.len() <= self.config.transaction_ids,
            "register file sized to outstanding transactions can never overflow"
        );
        self.stats.requests_queued += 1;
        count
    }

    /// Where a broadcast that just queued an entry must wake this
    /// controller: the entry's ready cycle if it heads the FIFO and a
    /// vector context is free. Otherwise the entry waits for an older
    /// head or a context to retire, and the work tick that does either
    /// publishes a hint that covers it.
    pub(crate) fn broadcast_wake(&self) -> Option<u64> {
        match self.fifo.front() {
            Some(e) if self.fifo.len() == 1 && self.vcs.len() < self.config.vector_contexts => {
                Some(e.ready_at())
            }
            _ => None,
        }
    }

    /// Advances the controller one cycle: VC injection, SPU scheduling,
    /// SDRAM issue (a READ hands its data to the transaction table).
    /// Returns whether the controller changed any state beyond pure
    /// counter advancement; either way every cycle before the one
    /// reported by [`wake_hint`](BankController::wake_hint) replays a
    /// no-op.
    pub fn tick(&mut self, now: u64, txns: &mut TransactionTable) -> bool {
        // With nothing queued and the device at rest the full tick is
        // provably a no-op, so only the clock and the wake hint need
        // maintaining (a unit test pins the two forms equal). The event
        // core parks such controllers and takes this path on only
        // 0.07-0.31% of its controller ticks. The shortcut serves the
        // reference stepper, which ticks every controller every cycle:
        // fully idle ones dominate single-bank strides (15 of 16 on
        // stride 16). Without it the stepper (the equivalence oracle
        // and the `throughput` baseline) slows, and the gated speedup
        // rises from 1.52-1.54x to 1.62-1.66x on sdr100: a gain that
        // would come from a slower baseline, not a faster simulator.
        if self.quiet() {
            self.wake_hint = self.compute_wake(now, false);
            self.device.tick();
            return false;
        }
        self.tick_full(now, txns)
    }

    /// The body of [`tick`](BankController::tick) for a controller that
    /// is not [`quiet`](BankController::quiet).
    fn tick_full(&mut self, now: u64, txns: &mut TransactionTable) -> bool {
        let mut did_work = false;

        // 1. Poisoned reads whose data has reached the pins join the
        //    retry list.
        while let Some(&(at, retry)) = self.returning.front() {
            if at > now {
                break;
            }
            self.returning.pop_front();
            self.retries.push(retry);
            did_work = true;
        }

        // 2. Re-inject one due retry as a single-element vector context
        //    (retries take priority over fresh requests: they hold up a
        //    transaction that is otherwise nearly complete).
        if self.vcs.len() < self.config.vector_contexts {
            if let Some(pos) = self.retries.iter().position(|r| r.not_before <= now) {
                let r = self.retries.swap_remove(pos);
                let target = self.target_of_addr(r.addr);
                self.vcs.push(VectorContext {
                    txn: r.txn,
                    kind: OpKind::Read,
                    addr: r.addr,
                    addr_step: 0,
                    element: r.element,
                    index_delta: 0,
                    remaining: 1,
                    first_op_done: false,
                    write_line: None,
                    indices: None,
                    pos: 0,
                    base: 0,
                    stride: 0,
                    target,
                });
                self.window_stale = true;
                did_work = true;
            }
        }

        // 3. Inject the FIFO head into a free vector context (in order)
        //    once its FHC deadline and FIFO latency have passed.
        if self.vcs.len() < self.config.vector_contexts {
            let consumable = self.fifo.front().is_some_and(|e| e.ready_at() <= now);
            if consumable {
                let e = self.fifo.pop_front().expect("head exists");
                let v = e.cmd.vector;
                let remaining = match &e.indices {
                    Some(idx) => idx.len() as u64,
                    // pva-lint: allow(nonconst-div): index_delta = 2^(m-s) by Theorem 4.4; a shift in hardware
                    None => (v.length() - e.first_index).div_ceil(e.index_delta),
                };
                let target = self.target_of_addr(e.first_addr);
                self.vcs.push(VectorContext {
                    txn: e.cmd.txn,
                    kind: e.cmd.kind,
                    addr: e.first_addr,
                    addr_step: v.stride() * e.index_delta,
                    element: e.first_index,
                    index_delta: e.index_delta,
                    remaining,
                    first_op_done: false,
                    write_line: e.write_line,
                    indices: e.indices,
                    pos: 0,
                    base: v.base(),
                    stride: v.stride(),
                    target,
                });
                self.window_stale = true;
                did_work = true;
            }
        }

        if !self.vcs.is_empty() {
            self.stats.busy_cycles += 1;
        }

        // 4. SPU scheduling: pick at most one SDRAM command, unless a
        //    bus turnaround holds the slot. A due periodic refresh
        //    preempts normal work (§2.2: the contents must be refreshed
        //    typically every 64 ms).
        #[cfg(debug_assertions)]
        let deferred_before = self.stats.deferred_activates;
        let turnarounds = self.stats.turnarounds;
        if now >= self.turnaround_until && !self.service_refresh() {
            self.schedule(txns);
        }
        // A command acceptance (from schedule *or* service_refresh) is
        // work; service_refresh "owning the slot" without issuing is
        // not — that state replays until the blocking timer expires.
        // Scheduling can also mutate state without issuing by starting
        // a bus turnaround, which counts as work.
        did_work |=
            self.device.command_issued_this_cycle() || self.stats.turnarounds != turnarounds;
        // An activate deferral needs a timing-legal CAS in the issue
        // window, and phase B then issues it or starts a turnaround: a
        // deferring tick is never a no-op, so the deferral needs no
        // wake source of its own.
        #[cfg(debug_assertions)]
        assert!(
            did_work || self.stats.deferred_activates == deferred_before,
            "a tick that deferred an activate did no work"
        );

        // The hint must see the device *before* its tick: a restimer at
        // 1 decrements to 0 now, and the next cycle is the first to see
        // it available.
        self.wake_hint = self.compute_wake(now, did_work);

        // 5. Clock the device.
        self.device.tick();
        did_work
    }

    /// The wake hint produced by the last tick: `cycle` is the earliest
    /// tick that could act, and every tick in between is guaranteed to
    /// replay a no-op. Valid only immediately after the producing tick.
    pub const fn wake_hint(&self) -> Option<u64> {
        self.wake_hint
    }

    /// Earliest future cycle at which this controller could act. Must
    /// be called *before* the device tick (the device clock still reads
    /// the current cycle). `after_work` says whether the tick in
    /// progress did work, which may have cleared a non-timer block
    /// (see below). `None` when no event is pending at all.
    fn compute_wake(&self, now: u64, after_work: bool) -> Option<u64> {
        // Nothing can be earlier than the next cycle, so the search
        // stops at the first candidate there (the common case after a
        // work tick in a busy stretch).
        let next = now + 1;
        let mut wake = u64::MAX;
        // No command issues during a bus turnaround: every scheduler
        // wake below is deferred to its end.
        let turning = now < self.turnaround_until;
        let schedule_from = self.turnaround_until.max(next);
        // Precise scheduler wakes: for each context, the expiry of
        // exactly the timers gating its next action (activate when its
        // bank is closed, access when its row is open, precharge when
        // another row occupies the bank). A row hit whose CAS must first
        // turn the bus around waits on no timer: its next action is the
        // turnaround. The device folds the channel gates (tCCD of the
        // bank group, tRRD, tFAW) into the activate and access cycles,
        // so these arms also cover the generation-aware policy's
        // channel-global inputs: the group preference around
        // `last_cas_group` only orders CAS candidates, each woken by its
        // own access arm, and an activate deferral always comes with a
        // CAS issued in the same tick. An action that is timing-legal
        // already is blocked by the turnaround or by a non-timer
        // condition (the command slot, the polarity window, a row
        // another context still uses). Only a work tick clears a
        // non-timer block, so after a tick without work such an action
        // contributes no candidate, and after a work tick it wakes the
        // next cycle. Early wakes are harmless (the tick replays as a
        // no-op); waking on *any* armed timer would also be correct but
        // triggers a no-op tick per unrelated expiry.
        for vc in &self.vcs {
            let (ib, row, _) = vc.target;
            let at = match self.device.open_row(ib) {
                None => self.device.activate_ready_at(ib),
                Some(open) if open == row => {
                    if self.needs_turnaround(vc.kind) {
                        now
                    } else {
                        self.device.access_ready_at(ib)
                    }
                }
                Some(_) => self.device.precharge_ready_at(ib),
            };
            let candidate = if at > now {
                at.max(schedule_from)
            } else if after_work || turning {
                schedule_from
            } else {
                continue;
            };
            if candidate <= next {
                return Some(next);
            }
            wake = wake.min(candidate);
        }
        // Injection candidates only matter while a context slot is
        // free; when all slots are busy, the unblocking event is a
        // context retiring, which is work.
        if self.vcs.len() < self.config.vector_contexts {
            if let Some(e) = self.fifo.front() {
                wake = wake.min(e.injectable_at.max(e.addr_ready_at));
            }
            for r in &self.retries {
                wake = wake.min(r.not_before);
            }
            for (_, r) in &self.returning {
                wake = wake.min(r.not_before);
            }
        }
        if let Some(at) = self.device.next_refresh_wake() {
            wake = wake.min(at.max(schedule_from));
        }
        // Candidates are at or after the next cycle by construction (a
        // due event would have been work this tick); clamp defensively.
        (wake != u64::MAX).then(|| wake.max(next))
    }

    /// Whether a CAS of direction `kind` must first turn the data bus
    /// around (§5.2.4/§5.2.5).
    fn needs_turnaround(&self, kind: OpKind) -> bool {
        self.data_polarity.is_some_and(|p| p != kind)
    }

    /// Bulk-advances the controller across `cycles` quiescent cycles —
    /// equivalent to `cycles` ticks that each did no work. Only the
    /// pure counters move: busy-cycle stats and the device clock.
    pub fn advance(&mut self, cycles: u64) {
        if !self.vcs.is_empty() {
            self.stats.busy_cycles += cycles;
        }
        self.device.advance(cycles);
    }

    /// Drives the device toward a due AUTO REFRESH: closes open rows,
    /// then issues the refresh. Returns `true` while refresh handling
    /// owns the command slot this cycle.
    fn service_refresh(&mut self) -> bool {
        if !self.device.refresh_due() {
            return false;
        }
        for ib in 0..self.config.sdram.total_row_buffers() {
            if self.device.open_row(ib).is_some() {
                let cmd = SdramCmd::Precharge { bank: ib };
                if self.device.can_issue(&cmd).is_ok() {
                    self.device.issue(cmd).expect("validated");
                }
                // Either precharged or waiting out tRAS/tWR: refresh
                // still pending, keep the slot.
                return true;
            }
        }
        // All rows closed: refresh as soon as tRP clears.
        if self.device.issue(SdramCmd::Refresh).is_ok() {
            self.log_op(CmdClass::Refresh, u32::MAX, 0);
        }
        true
    }

    /// Internal-bank/row/column coordinates of word address `addr`,
    /// after any degradation remap.
    fn target_of_addr(&self, addr: u64) -> (u32, u64, u64) {
        let local = self.config.geometry.bank_local_addr(addr);
        self.remap(self.config.sdram.map(local))
    }

    /// Graceful degradation: accesses that map to a hard-failed internal
    /// bank are serialized through the next healthy one, in a spare row
    /// region tagged with [`REMAP_ROW_BIT`]. Disabled by config or when
    /// the device has a single row buffer (nowhere to remap to).
    fn remap(&self, ia: InternalAddr) -> (u32, u64, u64) {
        if self.config.degradation {
            if let Some(dead) = self.device.hard_failed_bank() {
                let total = self.config.sdram.total_row_buffers();
                if total > 1 && ia.bank == dead {
                    let spare = if dead + 1 >= total { 0 } else { dead + 1 };
                    return (spare, ia.row | REMAP_ROW_BIT, ia.col);
                }
            }
        }
        (ia.bank, ia.row, ia.col)
    }

    /// The §5.2.2 scheduling pass: promote activates/precharges of
    /// blocked contexts (oldest first), else issue the highest-priority
    /// ready read/write that respects the polarity rule.
    fn schedule(&mut self, txns: &mut TransactionTable) {
        debug_assert!(
            self.vcs
                .iter()
                .all(|vc| vc.target == self.target_of_addr(vc.addr)),
            "cached VC target diverged from a fresh mapping"
        );
        // Polarity rule of §5.2.4: a VC may issue a read/write only if no
        // older VC carries the opposite direction (channel-aware parts
        // relax this for provably disjoint contexts — see
        // `build_issue_window`). Computed up front: phase A must know
        // which VCs can actually consume an open row.
        let mut win = std::mem::take(&mut self.window);
        if self.window_stale {
            win.clear();
            self.build_issue_window(&mut win);
            self.window_stale = false;
        }
        #[cfg(debug_assertions)]
        {
            let mut fresh = Vec::new();
            self.build_issue_window(&mut fresh);
            assert_eq!(
                win, fresh,
                "cached issue window diverged from a fresh build"
            );
        }
        self.schedule_in_window(&win, txns);
        self.window = win;
    }

    /// [`schedule`](BankController::schedule) continued, with the issue
    /// window materialized as VC indices (oldest first).
    fn schedule_in_window(&mut self, window: &[usize], txns: &mut TransactionTable) {
        // tFAW-aware activate pacing: decided once per cycle, before
        // phase A runs.
        let defer = self.should_defer_activate(window);
        let mut defer_counted = false;

        // Phase A: row opens / precharges for blocked VCs ("promote row
        // opens and precharges above read and write operations, as long
        // as they do not conflict with the open rows being used by some
        // other VC"). Window members go first: they can consume a row
        // this cycle, and when the polarity anchor has bypassed the
        // oldest VC this ordering is what keeps an out-of-window VC
        // from re-activating the row the window just precharged (a
        // livelock otherwise). With the classic prefix window the
        // order is exactly age order, as before.
        if self.config.options.promote_opens || self.first_ready(window).is_none() {
            for &i in window {
                if self.try_row_management(i, window, defer, &mut defer_counted) {
                    return;
                }
            }
            for i in 0..self.vcs.len() {
                if window.contains(&i) {
                    continue;
                }
                if self.try_row_management(i, window, defer, &mut defer_counted) {
                    return;
                }
            }
        }

        // Phase B: reads/writes within the polarity window. On
        // multi-group parts CAS candidates whose bank group differs from
        // the last CAS go first (`last_cas_group`): a group switch is
        // gated by the short tCCD_S, a repeat by the long tCCD_L. On
        // 1-group parts (and before the first CAS) every candidate is
        // equally preferred and the passes collapse to arrival order.
        let switch_from = if self.config.sdram.bank_groups > 1 {
            self.last_cas_group
        } else {
            None
        };
        if let Some(last) = switch_from {
            for &i in window {
                if self.config.sdram.bank_group_of(self.vcs[i].target.0) != last
                    && self.try_issue_access(i, txns)
                {
                    return;
                }
            }
            for &i in window {
                if self.config.sdram.bank_group_of(self.vcs[i].target.0) == last
                    && self.try_issue_access(i, txns)
                {
                    return;
                }
            }
            return;
        }
        for &i in window {
            if self.try_issue_access(i, txns) {
                return;
            }
        }
    }

    /// One phase-A attempt on context `i`: open its row if the bank is
    /// closed, or precharge a conflicting row no window VC still uses.
    /// Returns whether a command was issued (the cycle's slot is
    /// spent).
    fn try_row_management(
        &mut self,
        i: usize,
        window: &[usize],
        defer: bool,
        defer_counted: &mut bool,
    ) -> bool {
        let (ib, row, _) = self.vcs[i].target;
        match self.device.open_row(ib) {
            None => {
                // Don't burn the tFAW window's last free slot while a
                // timing-legal CAS is waiting: phase B issues the CAS
                // this cycle, the activate follows once a slot frees.
                if defer {
                    if !*defer_counted {
                        self.stats.deferred_activates += 1;
                        *defer_counted = true;
                    }
                    return false;
                }
                let cmd = SdramCmd::Activate { bank: ib, row };
                if !self.timing_ready(self.device.activate_ready_at(ib), &cmd) {
                    return false;
                }
                // issue() validates and rejects without side effects,
                // so one call both checks and commits.
                if self.device.issue(cmd).is_ok() {
                    // Predictor is set on the very first operation of a
                    // new vector context (§5.2.2), using the last row
                    // open *before* this activate.
                    if !self.vcs[i].first_op_done {
                        self.set_predictor(ib, row);
                        self.vcs[i].first_op_done = true;
                    }
                    self.last_row[ib as usize] = Some(row);
                    self.stats.activates += 1;
                    self.log_op(CmdClass::Activate, ib, row);
                    return true;
                }
            }
            Some(open) if open != row => {
                let cmd = SdramCmd::Precharge { bank: ib };
                if !self.timing_ready(self.device.precharge_ready_at(ib), &cmd) {
                    return false;
                }
                // bank_hit_predict: some other VC that can actually
                // issue (inside the polarity window) currently targets
                // the open row — do not close it. VCs outside the
                // window cannot consume the row yet, and honouring
                // their hits could deadlock against the polarity rule.
                let other_hits = window.iter().any(|&j| {
                    let (jb, jrow, _) = self.vcs[j].target;
                    j != i && jb == ib && jrow == open
                });
                if !other_hits && self.device.issue(cmd).is_ok() {
                    self.log_op(CmdClass::Precharge, ib, open);
                    return true;
                }
            }
            Some(_) => {}
        }
        false
    }

    /// Materializes the issue window for this cycle: the VC indices
    /// (oldest first) the polarity rule permits to read/write.
    ///
    /// Base rule (§5.2.4): the oldest-prefix of one polarity — a VC may
    /// not issue while an older VC carries the opposite direction. With
    /// `out_of_order` off the window is just the oldest VC.
    ///
    /// Channel-aware extension (FR-FCFS-style, after Rixner et al.): on
    /// parts that declare channel structure, an opposite-polarity VC
    /// does not end the window when every access it still owes is
    /// provably disjoint from the candidates behind it — tested
    /// conservatively on word-address bounding ranges, so reordering
    /// across it commutes. This is what lets alternating read/write
    /// streams (dense copy) batch same-polarity accesses: the row stays
    /// open across the batch and the bus turns around once per batch
    /// instead of once per vector. SDR-era parts declare no channel
    /// structure and keep strict arrival order, bit-identical to the
    /// goldens.
    fn build_issue_window(&self, win: &mut Vec<usize>) {
        let Some(front) = self.vcs.first().map(|vc| vc.kind) else {
            return;
        };
        if !self.config.options.out_of_order {
            win.push(0);
            return;
        }
        if !self.config.sdram.declares_channel_structure() {
            win.extend((0..self.vcs.len()).take_while(|&i| self.vcs[i].kind == front));
            return;
        }
        // Polarity anchor: stay on the bus's current direction while
        // admissible work of that direction exists — this is what turns
        // an alternating R/W arrival stream into same-polarity batches.
        // Starvation is bounded: a bypassed context holds its
        // transaction slot, so a persistently skipped polarity
        // eventually owns every slot and forces the anchor over.
        if let Some(p) = self.data_polarity {
            self.window_walk(p, win);
            if !win.is_empty() {
                return;
            }
        }
        if self.data_polarity != Some(front) {
            self.window_walk(front, win);
        }
    }

    /// One pass of the channel-aware window walk for a given anchor
    /// polarity: collect anchor-polarity VCs oldest-first, skipping
    /// opposite-polarity VCs whose remaining accesses are provably
    /// (range-)disjoint from every candidate admitted after them.
    fn window_walk(&self, anchor: OpKind, win: &mut Vec<usize>) {
        // Bounding ranges of the opposite-polarity VCs skipped so far.
        // A later anchor-polarity VC joins the window only if it
        // overlaps none of them (ranges are inclusive; `skipped` is
        // bounded by the transaction-id space, so no allocation).
        let mut skipped = [(0u64, 0u64); 16];
        let mut n_skipped = 0usize;
        for (i, vc) in self.vcs.iter().enumerate() {
            let range = Self::addr_range(vc);
            if vc.kind == anchor {
                let disjoint = skipped[..n_skipped]
                    .iter()
                    .all(|&(lo, hi)| range.1 < lo || hi < range.0);
                if disjoint {
                    win.push(i);
                } else {
                    // A real hazard: nothing younger may bypass either.
                    break;
                }
            } else {
                if n_skipped == skipped.len() {
                    break;
                }
                skipped[n_skipped] = range;
                n_skipped += 1;
            }
        }
    }

    /// Inclusive word-address bounding range of every element a context
    /// still owes. Exact for strided contexts (an arithmetic
    /// progression); for index-list contexts the remaining indices are
    /// scanned (bounded by the command length).
    fn addr_range(vc: &VectorContext) -> (u64, u64) {
        match &vc.indices {
            Some(idx) => {
                let (mut lo, mut hi) = (u64::MAX, 0u64);
                for &e in &idx[vc.pos..] {
                    let a = vc.base + vc.stride * e;
                    lo = lo.min(a);
                    hi = hi.max(a);
                }
                (lo, hi)
            }
            None => (vc.addr, vc.addr + vc.addr_step * (vc.remaining - 1)),
        }
    }

    /// Whether phase A should hold ACTIVATEs back this cycle: the tFAW
    /// window has exactly one slot free (an activate now closes the
    /// window for the rest of its span) while some context inside the
    /// polarity window has a CAS that is timing-legal right now.
    /// Deferring lets the CAS through this cycle; the activate stream
    /// loses at most the one cycle it must eventually spend waiting on
    /// the window anyway. Never true when tFAW is 0 (there is no window
    /// to exhaust) or while tRRD gates activates regardless.
    fn should_defer_activate(&self, window: &[usize]) -> bool {
        if self.config.sdram.t_faw == 0 || self.device.channel_rrd_remaining() > 0 {
            return false;
        }
        if self.device.channel_faw_free() != 1 {
            return false;
        }
        let now = self.device.now();
        window.iter().any(|&i| {
            let (ib, row, _) = self.vcs[i].target;
            self.device.open_row(ib) == Some(row) && self.device.access_ready_at(ib) <= now
        })
    }

    /// Length of the run of elements, starting at context `i`'s cursor,
    /// that one CAS burst can cover: successive elements must stay in
    /// internal bank `ib`, row `row`, and occupy strictly consecutive
    /// columns from `col`. Always 1 on parts that burst one word (the
    /// SDR-era presets); index-list (block-interleave) contexts issue
    /// per word.
    fn coalesce_run(&self, i: usize, ib: u32, row: u64, col: u64) -> u64 {
        let vc = &self.vcs[i];
        if vc.indices.is_some() {
            return 1;
        }
        let max =
            u64::from(self.config.sdram.burst_words.min(MAX_COALESCE as u32)).min(vc.remaining);
        let mut k = 1;
        let mut addr = vc.addr;
        while k < max {
            addr += vc.addr_step;
            if self.target_of_addr(addr) != (ib, row, col + k) {
                break;
            }
            k += 1;
        }
        k
    }

    /// One phase-B attempt on context `i`: start a turnaround, issue a
    /// (possibly burst-coalesced) CAS and advance the context, or
    /// decline. Returns whether the scheduling pass is done for this
    /// cycle (`false` = nothing happened, try the next candidate).
    fn try_issue_access(&mut self, i: usize, txns: &mut TransactionTable) -> bool {
        let (ib, row, col) = self.vcs[i].target;
        if self.device.open_row(ib) != Some(row) {
            return false;
        }
        let kind = self.vcs[i].kind;
        // Bus turnaround on polarity reversal (§5.2.5): the slot of this
        // cycle and the next `TURNAROUND_CYCLES` stays empty.
        if self.needs_turnaround(kind) {
            self.turnaround_until = self.device.now() + TURNAROUND_CYCLES + 1;
            self.stats.turnarounds += 1;
            self.data_polarity = Some(kind);
            self.window_stale = true;
            return true;
        }
        // READ and WRITE share one legality rule, so a READ stands for
        // either in the debug cross-check.
        let cas = SdramCmd::Read {
            bank: ib,
            col,
            auto_precharge: false,
            tag: 0,
        };
        if !self.timing_ready(self.device.access_ready_at(ib), &cas) {
            return false; // tRCD/tCCD still pending; try a younger VC.
        }
        // Burst coalescing: adjacent same-row elements whose columns
        // are consecutive ride one CAS on BL4/BL8 parts; `k == 1`
        // everywhere else.
        let k = self.coalesce_run(i, ib, row, col);
        let last_for_vc = self.vcs[i].remaining == k;
        // The element after the run feeds both the row-management
        // decision and the context advance below — computed once.
        let next = if last_for_vc {
            None
        } else {
            let vc = &self.vcs[i];
            let next_addr = match &vc.indices {
                Some(idx) => vc.base + vc.stride * idx[vc.pos + 1],
                None => vc.addr + vc.addr_step * k,
            };
            Some((next_addr, self.target_of_addr(next_addr)))
        };
        let next_same_row = next.map(|(_, t)| t.0 == ib && t.1 == row);
        let auto = self.decide_auto_precharge(i, ib, row, next_same_row);
        let txn = self.vcs[i].txn;
        let element = self.vcs[i].element;
        // One CAS covering the whole run; per-word tags (reads) or data
        // (writes) assembled on the stack.
        let vc = &self.vcs[i];
        let mut buf = [(0u64, 0u64); MAX_COALESCE];
        let items = &mut buf[..k as usize];
        for (j, slot) in items.iter_mut().enumerate() {
            let e = element + vc.index_delta * j as u64;
            slot.0 = col + j as u64;
            slot.1 = match kind {
                OpKind::Read => tag_of(txn, e),
                OpKind::Write => vc
                    .write_line
                    .as_ref()
                    .expect("write context carries its line")[e as usize],
            };
        }
        // A READ hands its words back at the CAS, each tagged with the
        // cycle it reaches the pins, and each goes straight to the
        // transaction table.
        let issued = match kind {
            OpKind::Read => {
                let mut router = ReadRouter {
                    attempts: &mut self.retry_attempts,
                    returning: &mut self.returning,
                    stats: &mut self.stats,
                    vec_meta: &self.vec_meta,
                    config: &self.config,
                };
                self.device
                    .issue_read_burst(ib, auto, items, |word| router.route(word, txns))
            }
            OpKind::Write => self.device.issue_write_burst(ib, auto, items),
        }
        .is_ok();
        if !issued {
            return false;
        }
        let class = match (kind, auto) {
            (OpKind::Read, false) => CmdClass::Read,
            (OpKind::Read, true) => CmdClass::ReadAuto,
            (OpKind::Write, false) => CmdClass::Write,
            (OpKind::Write, true) => CmdClass::WriteAuto,
        };
        if !self.vcs[i].first_op_done {
            self.set_predictor(ib, row);
            self.vcs[i].first_op_done = true;
        }
        self.data_polarity = Some(kind);
        // The CAS advances or retires context `i`.
        self.window_stale = true;
        // Channel bookkeeping for the group-interleave preference.
        let group = self.config.sdram.bank_group_of(ib);
        if self.last_cas_group.is_some_and(|prev| prev != group) {
            self.stats.group_switches += 1;
        }
        self.last_cas_group = Some(group);
        if k > 1 {
            self.stats.coalesced_bursts += 1;
        }
        // Device rows from `map` are narrow; only remapped targets
        // carry the spare-region bit.
        if row & REMAP_ROW_BIT != 0 {
            self.stats.remapped_accesses += k;
        }
        match kind {
            OpKind::Read => {
                self.stats.elements_read += k;
                self.log_op(class, ib, row);
            }
            OpKind::Write => {
                self.stats.elements_written += k;
                txns.commit_writes(txn, k);
                self.log_op(class, ib, row);
            }
        }
        // Advance the context past the run: shift-and-add for word
        // interleave, next list entry for block interleave.
        let vc = &mut self.vcs[i];
        vc.remaining -= k;
        if vc.remaining == 0 {
            self.vcs.remove(i);
        } else {
            let (next_addr, target) = next.expect("non-last element has a next");
            vc.addr = next_addr;
            vc.target = target;
            if let Some(idx) = &vc.indices {
                vc.pos += 1;
                vc.element = idx[vc.pos];
            } else {
                vc.element += vc.index_delta * k;
            }
        }
        true
    }

    /// First VC whose target row is open *and* which the polarity rule
    /// permits to issue — used to decide whether phase A may run when
    /// promotion is disabled. A "ready" VC outside the polarity window
    /// cannot actually issue, so it must not suppress row management
    /// (doing so deadlocks).
    fn first_ready(&self, window: &[usize]) -> Option<usize> {
        window.iter().copied().find(|&i| {
            let (ib, row, _) = self.vcs[i].target;
            self.device.open_row(ib) == Some(row)
        })
    }

    /// Legality-first gate on a candidate command: whether `ready_at`,
    /// the device's own first-legal cycle for the command's timing
    /// gates, has arrived. A candidate whose cycle is still in the
    /// future is skipped before it is built; `issue` keeps its full
    /// validation for the rest (command bus, refresh). Debug builds
    /// assert that every skipped `cmd` would indeed be refused.
    fn timing_ready(&self, ready_at: u64, cmd: &SdramCmd) -> bool {
        let ready = ready_at <= self.device.now();
        debug_assert!(
            ready || self.device.can_issue(cmd).is_err(),
            "ready-at check declined {cmd:?}, which the device would accept"
        );
        ready
    }

    /// The ManageRow() decision of §5.2.2: should this access close its
    /// row via auto-precharge?
    fn decide_auto_precharge(
        &self,
        vc_idx: usize,
        ib: u32,
        row: u64,
        next_same_row: Option<bool>,
    ) -> bool {
        let others = || {
            self.vcs
                .iter()
                .enumerate()
                .filter(move |&(j, vc)| j != vc_idx && vc.target.0 == ib)
                .map(|(_, vc)| vc.target.1)
        };
        // bank_morehit_predict: another VC has a pending access to this
        // same open row.
        let more_hit = others().any(|r| r == row);
        // bank_close_predict: another VC wants a *different* row in this
        // internal bank.
        let close_predict = others().any(|r| r != row);
        if let Some(next_same_row) = next_same_row {
            // Vector request not complete: keep the row if our own next
            // element hits it (or someone else will).
            return !(next_same_row || more_hit);
        }
        // Vector request complete.
        if more_hit {
            return false;
        }
        if close_predict || self.autoprecharge_predict[ib as usize] {
            return true;
        }
        false
    }

    /// Sets the one-bit autoprecharge predictor for internal bank `ib`
    /// when a context issues its first operation.
    fn set_predictor(&mut self, ib: u32, first_row: u64) {
        let matched = self.last_row[ib as usize] == Some(first_row);
        let h = &mut self.row_history[ib as usize];
        *h = ((*h << 1) | matched as u8) & 0xF;
        self.autoprecharge_predict[ib as usize] = match self.config.options.row_policy {
            RowPolicy::PaperLiteral => matched,
            RowPolicy::MissPredictsClose => !matched,
            RowPolicy::AlwaysClose => true,
            RowPolicy::AlwaysOpen => false,
            RowPolicy::AlphaHistory => self.config.options.precharge_policy_reg & (1 << *h) != 0,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::OpKind;
    use crate::txn::{Transaction, TxnPhase};
    use pva_core::Vector;
    use sdram::{DevicePreset, SdramConfig};

    fn controller(bank: usize) -> BankController {
        let cfg = PvaConfig::default();
        let pla = Arc::new(K1Pla::new(&cfg.geometry));
        BankController::new(BankId::new(bank), cfg, pla)
    }

    /// One cycle of the controller as the unit runs it: the tick, then
    /// the read data due at the pins lands in the table.
    fn step(bc: &mut BankController, now: u64, txns: &mut TransactionTable) {
        bc.tick(now, txns);
        txns.settle(now);
    }

    fn open_read_txn(txns: &mut TransactionTable, id: TxnId, len: u64) {
        txns.open(
            id,
            Transaction {
                kind: OpKind::Read,
                length: len,
                request_index: 0,
                issued_at: 0,
                collected: vec![None; len as usize],
                collected_count: 0,
                committed_count: 0,
                write_line: None,
                faulted: Vec::new(),
                phase: TxnPhase::InBanks,
            },
        );
    }

    #[test]
    fn miss_is_not_queued() {
        let mut bc = controller(3);
        // Stride 16 from base 0 only ever hits bank 0.
        let cmd = VectorCommand {
            vector: Vector::new(0, 16, 32).unwrap(),
            kind: OpKind::Read,
            txn: TxnId(0),
        };
        assert_eq!(bc.observe_command(&cmd, None, 0), 0);
        assert!(bc.idle());
    }

    #[test]
    fn unit_stride_gathers_two_elements() {
        // 32-element unit-stride vector on 16 banks: two elements per bank.
        let mut bc = controller(5);
        let mut txns = TransactionTable::new(8);
        open_read_txn(&mut txns, TxnId(0), 32);
        let cmd = VectorCommand {
            vector: Vector::new(0, 1, 32).unwrap(),
            kind: OpKind::Read,
            txn: TxnId(0),
        };
        assert_eq!(bc.observe_command(&cmd, None, 0), 2);
        for now in 1..60 {
            step(&mut bc, now, &mut txns);
        }
        let txn = txns.get(TxnId(0)).unwrap();
        // Elements 5 and 21 (addresses 5 and 21) belong to bank 5.
        assert_eq!(txn.collected_count, 2);
        assert!(txn.collected[5].is_some());
        assert!(txn.collected[21].is_some());
        assert_eq!(bc.stats().elements_read, 2);
    }

    #[test]
    fn gathered_data_matches_device_contents() {
        let mut bc = controller(0);
        let mut txns = TransactionTable::new(8);
        open_read_txn(&mut txns, TxnId(2), 8);
        // Stride 16: all 8 elements land in bank 0, local addrs 0..8*1.
        let cmd = VectorCommand {
            vector: Vector::new(0, 16, 8).unwrap(),
            kind: OpKind::Read,
            txn: TxnId(2),
        };
        assert_eq!(bc.observe_command(&cmd, None, 0), 8);
        for now in 1..200 {
            step(&mut bc, now, &mut txns);
            if bc.idle() && txns.next_completion().is_none() {
                break;
            }
        }
        let txn = txns.get(TxnId(2)).unwrap();
        assert_eq!(txn.collected_count, 8);
        for (i, w) in txn.collected.iter().enumerate() {
            // Element i is at global addr 16i -> local addr i.
            assert_eq!(w.unwrap(), bc.device().peek(i as u64), "element {i}");
        }
    }

    #[test]
    fn writes_commit_and_persist() {
        let mut bc = controller(0);
        let mut txns = TransactionTable::new(8);
        let line: Arc<Vec<u64>> = Arc::new((0..4).map(|i| 0xAA00 + i).collect());
        txns.open(
            TxnId(1),
            Transaction {
                kind: OpKind::Write,
                length: 4,
                request_index: 0,
                issued_at: 0,
                collected: vec![],
                collected_count: 0,
                committed_count: 0,
                write_line: Some(line.clone()),
                faulted: Vec::new(),
                phase: TxnPhase::InBanks,
            },
        );
        let cmd = VectorCommand {
            vector: Vector::new(0, 16, 4).unwrap(),
            kind: OpKind::Write,
            txn: TxnId(1),
        };
        assert_eq!(bc.observe_command(&cmd, Some(line), 0), 4);
        for now in 1..200 {
            step(&mut bc, now, &mut txns);
            if bc.idle() && txns.get(TxnId(1)).unwrap().banks_done() {
                break;
            }
        }
        assert!(txns.get(TxnId(1)).unwrap().banks_done());
        for i in 0..4u64 {
            assert_eq!(bc.device().peek(i), 0xAA00 + i);
        }
    }

    #[test]
    fn power_of_two_bypass_is_faster_than_fifo_path() {
        // Same command, bypass on vs off: bypass must not be slower.
        let run = |bypass: bool| -> u64 {
            let mut cfg = PvaConfig::default();
            cfg.options.bypass_paths = bypass;
            let pla = Arc::new(K1Pla::new(&cfg.geometry));
            let mut bc = BankController::new(BankId::new(0), cfg, pla);
            let mut txns = TransactionTable::new(8);
            open_read_txn(&mut txns, TxnId(0), 2);
            let cmd = VectorCommand {
                vector: Vector::new(0, 16, 2).unwrap(),
                kind: OpKind::Read,
                txn: TxnId(0),
            };
            bc.observe_command(&cmd, None, 0);
            for now in 1..200 {
                step(&mut bc, now, &mut txns);
                if txns.get(TxnId(0)).unwrap().banks_done() {
                    return now;
                }
            }
            panic!("never completed");
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn non_power_of_two_pays_fhc_latency() {
        let run = |stride: u64| -> u64 {
            let mut bc = controller(0);
            let mut txns = TransactionTable::new(8);
            open_read_txn(&mut txns, TxnId(0), 1);
            let cmd = VectorCommand {
                vector: Vector::new(0, stride, 1).unwrap(),
                kind: OpKind::Read,
                txn: TxnId(0),
            };
            bc.observe_command(&cmd, None, 0);
            for now in 1..200 {
                step(&mut bc, now, &mut txns);
                if txns.get(TxnId(0)).unwrap().banks_done() {
                    return now;
                }
            }
            panic!("never completed");
        };
        // A single-element vector: stride class irrelevant to work, but
        // stride 48 (not a power of two) must pay the 2-cycle FHC.
        let pow2 = run(16);
        let npow2 = run(48);
        assert_eq!(npow2 - pow2, 2);
    }

    #[test]
    fn fhc_entries_inject_exactly_at_their_deadlines() {
        // Three single-element stride-48 reads (not a power of two, all
        // in bank 0) broadcast on cycles 0, 1 and 2, with a 5-cycle FHC
        // so the one multiply-add unit is the bottleneck:
        //   A @0: bypass, injectable 0+1+5 = 6; FHC 0..=4, ready 4 -> 6
        //   B @1: FIFO,   injectable 1+2+5 = 8; FHC 5..=9, ready 9 -> 9
        //   C @2: FIFO,   injectable 2+2+5 = 9; FHC 10..=14      -> 14
        let cfg = PvaConfig {
            fhc_latency: 5,
            ..PvaConfig::default()
        };
        let pla = Arc::new(K1Pla::new(&cfg.geometry));
        let mut bc = BankController::new(BankId::new(0), cfg, pla);
        let mut txns = TransactionTable::new(8);
        let mut injected = Vec::new();
        for now in 0..40 {
            if now < 3 {
                let id = TxnId(now as u8);
                open_read_txn(&mut txns, id, 1);
                let cmd = VectorCommand {
                    vector: Vector::new(64 * now, 48, 1).unwrap(),
                    kind: OpKind::Read,
                    txn: id,
                };
                assert_eq!(bc.observe_command(&cmd, None, now), 1);
                let ready = [6, 9, 14][now as usize];
                assert_eq!(bc.fifo.back().map(RfEntry::ready_at), Some(ready));
                // Only the head's broadcast wakes the controller.
                let head = (now == 0).then_some(ready);
                assert_eq!(bc.broadcast_wake(), head);
            }
            let queued = bc.fifo.len();
            step(&mut bc, now, &mut txns);
            if bc.fifo.len() < queued {
                injected.push(now);
            }
        }
        assert_eq!(injected, [6, 9, 14]);
        for id in 0..3 {
            assert!(txns.get(TxnId(id)).unwrap().banks_done());
        }
    }

    #[test]
    fn row_hit_within_vector_leaves_row_open() {
        // Stride 16, consecutive local addresses 0,1,2...: same row.
        let mut bc = controller(0);
        let mut txns = TransactionTable::new(8);
        open_read_txn(&mut txns, TxnId(0), 16);
        let cmd = VectorCommand {
            vector: Vector::new(0, 16, 16).unwrap(),
            kind: OpKind::Read,
            txn: TxnId(0),
        };
        bc.observe_command(&cmd, None, 0);
        for now in 1..400 {
            step(&mut bc, now, &mut txns);
            if bc.idle() && txns.next_completion().is_none() {
                break;
            }
        }
        // One activate serves all 16 accesses.
        assert_eq!(bc.device().stats().activates, 1);
        assert_eq!(bc.device().stats().reads, 16);
    }

    #[test]
    fn turnaround_counted_on_polarity_reversal() {
        let mut bc = controller(0);
        let mut txns = TransactionTable::new(8);
        open_read_txn(&mut txns, TxnId(0), 1);
        let line = Arc::new(vec![7u64]);
        txns.open(
            TxnId(1),
            Transaction {
                kind: OpKind::Write,
                length: 1,
                request_index: 1,
                issued_at: 0,
                collected: vec![],
                collected_count: 0,
                committed_count: 0,
                write_line: Some(line.clone()),
                faulted: Vec::new(),
                phase: TxnPhase::InBanks,
            },
        );
        let read = VectorCommand {
            vector: Vector::new(0, 16, 1).unwrap(),
            kind: OpKind::Read,
            txn: TxnId(0),
        };
        let write = VectorCommand {
            vector: Vector::new(256, 16, 1).unwrap(),
            kind: OpKind::Write,
            txn: TxnId(1),
        };
        bc.observe_command(&read, None, 0);
        bc.observe_command(&write, Some(line), 0);
        for now in 1..400 {
            step(&mut bc, now, &mut txns);
            if bc.idle() && txns.get(TxnId(1)).unwrap().banks_done() {
                break;
            }
        }
        assert_eq!(bc.stats().turnarounds, 1);
    }

    #[test]
    fn quiet_shortcut_matches_full_tick() {
        // `tick` skips its full body on a quiet controller. Both loops of
        // the unit take the shortcut, so the equivalence suite cannot see
        // a divergence: compare the two forms directly, on every quiet
        // cycle after a drained read+write batch (rows and, on DDR3, the
        // channel timers have been used) and around sdr-refresh's
        // periodic refreshes.
        for preset in [
            DevicePreset::Sdr100,
            DevicePreset::SdrRefresh,
            DevicePreset::Ddr3_1600,
        ] {
            let name = preset.name();
            let cfg = PvaConfig {
                sdram: SdramConfig::for_device(preset),
                ..PvaConfig::default()
            };
            let pla = Arc::new(K1Pla::new(&cfg.geometry));
            let mut bc = BankController::new(BankId::new(0), cfg, pla);
            let mut txns = TransactionTable::new(8);
            open_read_txn(&mut txns, TxnId(0), 8);
            let line: Arc<Vec<u64>> = Arc::new((0..8).map(|i| 0xBB00 + i).collect());
            txns.open(
                TxnId(1),
                Transaction {
                    kind: OpKind::Write,
                    length: 8,
                    request_index: 1,
                    issued_at: 0,
                    collected: vec![],
                    collected_count: 0,
                    committed_count: 0,
                    write_line: Some(line.clone()),
                    faulted: Vec::new(),
                    phase: TxnPhase::InBanks,
                },
            );
            let read = VectorCommand {
                vector: Vector::new(0, 16, 8).unwrap(),
                kind: OpKind::Read,
                txn: TxnId(0),
            };
            let write = VectorCommand {
                vector: Vector::new(4096, 16, 8).unwrap(),
                kind: OpKind::Write,
                txn: TxnId(1),
            };
            bc.observe_command(&read, None, 0);
            bc.observe_command(&write, Some(line), 0);
            let mut compared = 0;
            for now in 1..2_000 {
                if bc.quiet() {
                    let (mut short, mut full) = (bc.clone(), bc.clone());
                    let short_work = short.tick(now, &mut txns.clone());
                    let full_work = full.tick_full(now, &mut txns.clone());
                    let at = format!("{name} cycle {now}");
                    assert_eq!(short_work, full_work, "{at}: return value");
                    assert_eq!(short.stats(), full.stats(), "{at}: controller stats");
                    assert_eq!(
                        short.device().stats(),
                        full.device().stats(),
                        "{at}: device stats"
                    );
                    assert_eq!(short.wake_hint(), full.wake_hint(), "{at}: wake hint");
                    assert_eq!(short.device().now(), full.device().now(), "{at}: clock");
                    compared += 1;
                }
                step(&mut bc, now, &mut txns);
            }
            for id in [TxnId(0), TxnId(1)] {
                assert!(txns.get(id).unwrap().banks_done(), "{name}");
            }
            assert!(compared > 1_500, "{name}: {compared} quiet cycles");
        }
    }
}
