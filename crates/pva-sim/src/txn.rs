//! Split-transaction bookkeeping.
//!
//! The paper's BC bus carries eight *transaction-complete* indication
//! lines, wired-OR driven by the staging units: a line deasserts when
//! every bank controller has serviced its part of the transaction
//! (§5.2.2 "Staging Units", §5.2.6). [`TransactionTable`] centralizes
//! that state: bank controllers deposit gathered words / report
//! committed writes, and the front end watches for completion.
//!
//! A read word is deposited when its CAS issues (the device reads the
//! cell at issue), tagged with the cycle its data reaches the pins. It
//! counts as collected only once the unit has
//! [`settle`](TransactionTable::settle)d that cycle, so a transaction
//! leaves [`TxnPhase::InBanks`] at its last word's return cycle, exactly
//! as if every word had been handed over at the pins. Once every word
//! of a read is deposited that cycle is known in advance
//! ([`next_completion`](TransactionTable::next_completion)), so the
//! unit need not execute the cycles in which earlier words land.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::command::{OpKind, TxnId};

/// Lifecycle of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnPhase {
    /// Banks are gathering (read) or scattering (write).
    InBanks,
    /// All banks done; a read is waiting for STAGE_READ.
    ReadyToStage,
    /// STAGE_READ in progress on the bus.
    Staging,
    /// Fully complete; id reusable.
    Done,
}

/// State of one outstanding transaction.
#[derive(Debug, Clone)]
pub struct Transaction {
    /// Direction.
    pub kind: OpKind,
    /// Vector length in elements.
    pub length: u64,
    /// Request index (submission order) this transaction serves.
    pub request_index: usize,
    /// Cycle the vector command was broadcast.
    pub issued_at: u64,
    /// Gathered words by element index (reads), stored at CAS issue.
    pub collected: Vec<Option<u64>>,
    /// Number of gathered elements whose data has reached the pins.
    pub collected_count: u64,
    /// Number of elements committed to SDRAM so far (writes).
    pub committed_count: u64,
    /// Dense line to scatter (writes), shared with every bank
    /// controller's register file.
    pub write_line: Option<Arc<Vec<u64>>>,
    /// Element indices whose data is known bad: ECC-uncorrectable (or
    /// dead-bank) reads that exhausted their retries. The words are
    /// deposited so the transaction completes, but the completion
    /// carries this list so the host never trusts them silently.
    pub faulted: Vec<u64>,
    /// Current phase.
    pub phase: TxnPhase,
}

impl Transaction {
    /// Whether every element has been gathered / committed by the banks.
    pub fn banks_done(&self) -> bool {
        match self.kind {
            OpKind::Read => self.collected_count == self.length,
            OpKind::Write => self.committed_count == self.length,
        }
    }

    /// The gathered dense line, once complete.
    ///
    /// # Panics
    ///
    /// Panics if called before all elements arrived or on a write
    /// transaction.
    pub fn line(&self) -> Vec<u64> {
        assert_eq!(self.kind, OpKind::Read, "only reads gather a line");
        self.collected
            .iter()
            .map(|w| w.expect("all elements collected"))
            .collect()
    }
}

/// The table of outstanding transactions, indexed by [`TxnId`].
/// `Clone` exists for the debug-build wake-soundness oracle.
#[derive(Debug, Clone, Default)]
pub struct TransactionTable {
    slots: Vec<Option<Transaction>>,
    /// Open-slot count, maintained incrementally (mirrors what a scan
    /// of `slots` would find).
    open: usize,
    /// Sum of `collected_count + committed_count` over the *open*
    /// transactions, maintained incrementally: deposits and commits add,
    /// closing a transaction removes its contribution.
    moved: u64,
    /// Number of open transactions whose banks have finished (last
    /// element deposited or committed) but whose phase transition has
    /// not been handled yet — lets the per-cycle completion scan prove
    /// itself empty in O(1).
    banks_done: usize,
    /// Read words deposited but not yet on the pins, as
    /// `(return cycle, transaction)` ordered by return cycle.
    landing: VecDeque<(u64, TxnId)>,
    /// Per slot: words deposited so far and the latest return cycle
    /// among them.
    deposits: Vec<(u64, u64)>,
    /// Cached earliest cycle at which a fully deposited read's last word
    /// lands (`u64::MAX` when none is pending).
    next_done: u64,
}

impl TransactionTable {
    /// Creates a table with `ids` transaction slots.
    pub fn new(ids: usize) -> Self {
        TransactionTable {
            slots: (0..ids).map(|_| None).collect(),
            open: 0,
            moved: 0,
            banks_done: 0,
            landing: VecDeque::new(),
            deposits: vec![(0, 0); ids],
            next_done: u64::MAX,
        }
    }

    /// A free transaction id, if any.
    pub fn free_id(&self) -> Option<TxnId> {
        self.slots
            .iter()
            .position(|s| s.is_none())
            .map(|i| TxnId(i as u8))
    }

    /// Opens a transaction in slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied.
    pub fn open(&mut self, id: TxnId, txn: Transaction) {
        let slot = &mut self.slots[id.0 as usize];
        assert!(slot.is_none(), "transaction {id} already open");
        self.moved += txn.collected_count + txn.committed_count;
        self.open += 1;
        self.deposits[id.0 as usize] = (txn.collected_count, 0);
        *slot = Some(txn);
    }

    /// The transaction in slot `id`, if open.
    pub fn get(&self, id: TxnId) -> Option<&Transaction> {
        self.slots[id.0 as usize].as_ref()
    }

    /// Mutable access to the transaction in slot `id`.
    pub fn get_mut(&mut self, id: TxnId) -> Option<&mut Transaction> {
        self.slots[id.0 as usize].as_mut()
    }

    /// Deposits a gathered word whose data reaches the pins at cycle
    /// `at` (bank controllers call this when the READ CAS issues). The
    /// word counts as collected from [`settle`](TransactionTable::settle)
    /// at `at` on.
    ///
    /// # Panics
    ///
    /// Panics on double deposit or an unknown transaction — both would
    /// be hardware bugs, not recoverable conditions.
    pub fn deposit(&mut self, id: TxnId, element: u64, data: u64, at: u64) {
        let txn = self.slots[id.0 as usize]
            .as_mut()
            .expect("deposit into open transaction");
        let slot = &mut txn.collected[element as usize];
        assert!(slot.is_none(), "element {element} deposited twice");
        *slot = Some(data);
        // Return cycles grow with issue order, so the word almost
        // always goes at (or a beat from) the back.
        if self.landing.back().is_none_or(|&(a, _)| a <= at) {
            self.landing.push_back((at, id));
        } else {
            let pos = self.landing.partition_point(|&(a, _)| a <= at);
            self.landing.insert(pos, (at, id));
        }
        let (words, last) = &mut self.deposits[id.0 as usize];
        *words += 1;
        *last = (*last).max(at);
        if *words == txn.length {
            self.next_done = self.next_done.min(*last);
        }
    }

    /// Deposits a gathered word that is known bad (retries exhausted on
    /// a poisoned read): the element still completes — the alternative
    /// is a transaction that never finishes — but is recorded in the
    /// transaction's `faulted` list for the completion to carry.
    ///
    /// # Panics
    ///
    /// Panics on double deposit or an unknown transaction, like
    /// [`TransactionTable::deposit`].
    pub fn deposit_faulted(&mut self, id: TxnId, element: u64, data: u64, at: u64) {
        self.deposit(id, element, data, at);
        let txn = self.slots[id.0 as usize]
            .as_mut()
            .expect("deposit into open transaction");
        txn.faulted.push(element);
    }

    /// Counts every deposited word whose return cycle is at or before
    /// `now` as collected, and returns the latest such cycle (`None`
    /// when no word landed). The unit calls it after the bank
    /// controllers tick in every cycle it executes.
    pub fn settle(&mut self, now: u64) -> Option<u64> {
        let mut latest = None;
        while let Some(&(at, id)) = self.landing.front() {
            if at > now {
                break;
            }
            self.landing.pop_front();
            let txn = self.slots[id.0 as usize]
                .as_mut()
                .expect("a landing word's transaction stays open");
            txn.collected_count += 1;
            self.moved += 1;
            if txn.collected_count == txn.length {
                self.banks_done += 1;
            }
            latest = Some(at);
        }
        // A read finishes only when its last word lands.
        if latest.is_some() && self.next_done <= now {
            self.next_done = self
                .iter_open()
                .filter(|&(id, t)| {
                    t.collected_count < t.length && self.deposits[id.0 as usize].0 == t.length
                })
                .map(|(id, _)| self.deposits[id.0 as usize].1)
                .min()
                .unwrap_or(u64::MAX);
        }
        latest
    }

    /// The earliest cycle at which a read whose words are all deposited
    /// has its last word land, finishing it in the banks (`None` when
    /// no such read is pending).
    pub fn next_completion(&self) -> Option<u64> {
        (self.next_done != u64::MAX).then_some(self.next_done)
    }

    /// Records `count` committed write elements.
    ///
    /// # Panics
    ///
    /// Panics if the transaction is unknown.
    pub fn commit_writes(&mut self, id: TxnId, count: u64) {
        let txn = self.slots[id.0 as usize]
            .as_mut()
            .expect("commit into open transaction");
        txn.committed_count += count;
        self.moved += count;
        debug_assert!(txn.committed_count <= txn.length);
        if count > 0 && txn.committed_count == txn.length {
            self.banks_done += 1;
        }
    }

    /// Closes slot `id`, returning the finished transaction.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn close(&mut self, id: TxnId) -> Transaction {
        let txn = self.slots[id.0 as usize]
            .take()
            .expect("closing an open transaction");
        self.open -= 1;
        self.moved -= txn.collected_count + txn.committed_count;
        txn
    }

    /// Iterates over open transactions.
    pub fn iter_open(&self) -> impl Iterator<Item = (TxnId, &Transaction)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (TxnId(i as u8), t)))
    }

    /// Number of open transactions (maintained incrementally; asserted
    /// equal to a slot scan in debug builds).
    pub fn open_count(&self) -> usize {
        debug_assert_eq!(self.open, self.slots.iter().filter(|s| s.is_some()).count());
        self.open
    }

    /// Open transactions whose banks finished but whose phase
    /// transition is still pending — `0` proves the per-cycle
    /// completion scan would find nothing.
    pub fn banks_done_count(&self) -> usize {
        self.banks_done
    }

    /// Records that `n` finished-in-banks transactions had their phase
    /// transition handled (called by the completion scan).
    pub fn consume_banks_done(&mut self, n: usize) {
        debug_assert!(n <= self.banks_done);
        self.banks_done -= n;
    }

    /// O(1) progress counters `(open, moved)`: the open-transaction
    /// count and the summed `collected_count + committed_count` over
    /// them — exactly what a scan would compute, maintained
    /// incrementally for the watchdog fingerprint.
    pub fn progress_counters(&self) -> (usize, u64) {
        debug_assert_eq!(
            self.moved,
            self.iter_open()
                .map(|(_, t)| t.collected_count + t.committed_count)
                .sum::<u64>()
        );
        (self.open_count(), self.moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_txn(len: u64) -> Transaction {
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
        }
    }

    #[test]
    fn faulted_deposit_completes_but_is_recorded() {
        let mut t = TransactionTable::new(1);
        t.open(TxnId(0), read_txn(2));
        t.deposit(TxnId(0), 0, 10, 0);
        t.deposit_faulted(TxnId(0), 1, 0xBAD, 0);
        t.settle(0);
        let txn = t.get(TxnId(0)).unwrap();
        assert!(txn.banks_done());
        assert_eq!(txn.faulted, vec![1]);
    }

    #[test]
    fn allocate_and_free() {
        let mut t = TransactionTable::new(2);
        let a = t.free_id().unwrap();
        t.open(a, read_txn(4));
        let b = t.free_id().unwrap();
        assert_ne!(a, b);
        t.open(b, read_txn(4));
        assert!(t.free_id().is_none());
        t.close(a);
        assert_eq!(t.free_id(), Some(a));
        assert_eq!(t.open_count(), 1);
    }

    #[test]
    fn deposit_completes_read() {
        let mut t = TransactionTable::new(1);
        t.open(TxnId(0), read_txn(3));
        for i in 0..3 {
            assert!(!t.get(TxnId(0)).unwrap().banks_done());
            t.deposit(TxnId(0), i, 100 + i, i);
            t.settle(i);
        }
        let txn = t.get(TxnId(0)).unwrap();
        assert!(txn.banks_done());
        assert_eq!(txn.line(), vec![100, 101, 102]);
    }

    #[test]
    #[should_panic(expected = "deposited twice")]
    fn double_deposit_panics() {
        let mut t = TransactionTable::new(1);
        t.open(TxnId(0), read_txn(2));
        t.deposit(TxnId(0), 0, 1, 5);
        t.deposit(TxnId(0), 0, 2, 6);
    }

    #[test]
    fn read_leaves_in_banks_at_its_last_return_cycle() {
        // Three words deposited at issue, returning out of deposit order
        // at cycles 9, 7 and 12: the read finishes in the banks at 12.
        let mut t = TransactionTable::new(2);
        t.open(TxnId(1), read_txn(3));
        t.deposit(TxnId(1), 0, 10, 9);
        t.deposit(TxnId(1), 1, 11, 7);
        assert_eq!(t.next_completion(), None, "a word is not deposited yet");
        t.deposit(TxnId(1), 2, 12, 12);
        assert_eq!(t.next_completion(), Some(12));
        assert_eq!(t.settle(6), None, "nothing is on the pins before cycle 7");
        assert_eq!(t.settle(7), Some(7));
        assert_eq!(t.settle(11), Some(9));
        assert_eq!(t.get(TxnId(1)).unwrap().collected_count, 2);
        assert_eq!(t.progress_counters(), (1, 2));
        assert_eq!(t.banks_done_count(), 0);
        assert!(
            !t.get(TxnId(1)).unwrap().banks_done(),
            "one word is still in flight"
        );
        assert_eq!(t.next_completion(), Some(12));
        assert_eq!(t.settle(12), Some(12));
        assert!(t.get(TxnId(1)).unwrap().banks_done());
        assert_eq!(t.banks_done_count(), 1);
        assert_eq!(t.next_completion(), None);
        assert_eq!(t.get(TxnId(1)).unwrap().line(), vec![10, 11, 12]);
    }

    #[test]
    fn write_commit_counting() {
        let mut t = TransactionTable::new(1);
        let mut txn = read_txn(5);
        txn.kind = OpKind::Write;
        t.open(TxnId(0), txn);
        t.commit_writes(TxnId(0), 3);
        assert!(!t.get(TxnId(0)).unwrap().banks_done());
        t.commit_writes(TxnId(0), 2);
        assert!(t.get(TxnId(0)).unwrap().banks_done());
    }
}
