//! Split-transaction bookkeeping.
//!
//! The paper's BC bus carries eight *transaction-complete* indication
//! lines, wired-OR driven by the staging units: a line deasserts when
//! every bank controller has serviced its part of the transaction
//! (§5.2.2 "Staging Units", §5.2.6). [`TransactionTable`] centralizes
//! that state: bank controllers deposit gathered words / report
//! committed writes, and the front end watches for completion.

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
    /// Gathered words by element index (reads).
    pub collected: Vec<Option<u64>>,
    /// Number of elements gathered so far.
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
}

impl TransactionTable {
    /// Creates a table with `ids` transaction slots.
    pub fn new(ids: usize) -> Self {
        TransactionTable {
            slots: (0..ids).map(|_| None).collect(),
            open: 0,
            moved: 0,
            banks_done: 0,
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

    /// Deposits a gathered word (bank controllers call this when SDRAM
    /// data returns).
    ///
    /// # Panics
    ///
    /// Panics on double deposit or an unknown transaction — both would
    /// be hardware bugs, not recoverable conditions.
    pub fn deposit(&mut self, id: TxnId, element: u64, data: u64) {
        let txn = self.slots[id.0 as usize]
            .as_mut()
            .expect("deposit into open transaction");
        let slot = &mut txn.collected[element as usize];
        assert!(slot.is_none(), "element {element} deposited twice");
        *slot = Some(data);
        txn.collected_count += 1;
        self.moved += 1;
        if txn.collected_count == txn.length {
            self.banks_done += 1;
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
    pub fn deposit_faulted(&mut self, id: TxnId, element: u64, data: u64) {
        self.deposit(id, element, data);
        let txn = self.slots[id.0 as usize]
            .as_mut()
            .expect("deposit into open transaction");
        txn.faulted.push(element);
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
        t.deposit(TxnId(0), 0, 10);
        t.deposit_faulted(TxnId(0), 1, 0xBAD);
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
            t.deposit(TxnId(0), i, 100 + i);
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
        t.deposit(TxnId(0), 0, 1);
        t.deposit(TxnId(0), 0, 2);
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
