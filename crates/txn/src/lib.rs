#![forbid(unsafe_code)]
//! Transactions and locking.
//!
//! The paper's Fig 8 ("Locks Diagram") visualises "the number of used locks
//! together with indicators for lock waits and deadlocks" sampled by the
//! statistics sensor. This crate provides the substrate: a two-mode (S/X)
//! lock manager over table- and row-granular resources with wait-for-graph
//! deadlock detection, exporting exactly the counters the sensor reads.

pub mod lock;

pub use lock::{LockInfo, LockManager, LockMode, LockStats, Resource};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use std::sync::Arc;

use ingot_common::waits::{WaitEvent, WaitGuard, WaitRegistry, WaitRegistryHandle};
use ingot_common::{Error, Result, Snapshot, TxnId};
use parking_lot::{Condvar, Mutex};

/// Why a transaction aborted — the taxonomy behind the `aborts_<cause>`
/// rows of `ima$transactions` (and so of its metric family,
/// `ingot_transactions_value{metric="aborts_<cause>"}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// Explicit `ROLLBACK` (or session drop with an open transaction).
    User,
    /// Chosen as a deadlock victim by the lock manager.
    Deadlock,
    /// A lock wait exceeded the configured timeout.
    LockTimeout,
    /// MVCC first-committer-wins: the version this transaction based a
    /// write on was superseded by a commit after its snapshot.
    WriteConflict,
    /// Anything else (statement error mid-transaction, WAL append failure…).
    Other,
}

/// Number of abort causes (sizes the per-cause counter array).
pub const ABORT_CAUSE_COUNT: usize = 5;

impl AbortCause {
    /// Every cause, in stable `index()` order.
    pub const ALL: [AbortCause; ABORT_CAUSE_COUNT] = [
        AbortCause::User,
        AbortCause::Deadlock,
        AbortCause::LockTimeout,
        AbortCause::WriteConflict,
        AbortCause::Other,
    ];

    /// Stable dense index (counter-array slot).
    pub fn index(self) -> usize {
        match self {
            AbortCause::User => 0,
            AbortCause::Deadlock => 1,
            AbortCause::LockTimeout => 2,
            AbortCause::WriteConflict => 3,
            AbortCause::Other => 4,
        }
    }

    /// Canonical label (IMA rows, metric labels).
    pub fn name(self) -> &'static str {
        match self {
            AbortCause::User => "user",
            AbortCause::Deadlock => "deadlock",
            AbortCause::LockTimeout => "lock_timeout",
            AbortCause::WriteConflict => "write_conflict",
            AbortCause::Other => "other",
        }
    }

    /// Classify an abort by the error that caused it.
    pub fn from_error(e: &Error) -> AbortCause {
        match e {
            Error::Deadlock { .. } => AbortCause::Deadlock,
            Error::LockTimeout(_) => AbortCause::LockTimeout,
            Error::WriteConflict(_) => AbortCause::WriteConflict,
            _ => AbortCause::Other,
        }
    }
}

/// State behind the quiesce gate: live transaction count plus whether a
/// checkpoint is currently draining them.
#[derive(Debug, Default)]
struct Gate {
    active: u64,
    quiescing: bool,
}

/// Allocates transaction ids and provides the checkpoint *quiesce gate*:
/// [`TxnManager::quiesce`] blocks new transactions and waits for in-flight
/// ones to finish, giving the checkpoint a moment with no concurrent DML so
/// the flushed pages and the WAL truncation point agree.
///
/// Since PR 8 it is also the MVCC timestamp authority: it allocates commit
/// timestamps (a single monotone `commit_seq`), hands out read
/// [`Snapshot`]s, tracks which snapshots are still active (the GC
/// watermark), validates first-committer-wins at commit, and counts aborts
/// by [`AbortCause`].
#[derive(Debug, Default)]
pub struct TxnManager {
    next: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
    gate: Mutex<Gate>,
    cv: Condvar,
    /// Highest *published* commit timestamp. Readers snapshot this; a
    /// committing transaction bumps it only after stamping its versions.
    commit_seq: AtomicU64,
    /// Highest *reserved* commit timestamp ([`TxnManager::start_commit`]).
    /// Runs ahead of `commit_seq` while commits are stamping or waiting on
    /// their durability barrier.
    next_commit: AtomicU64,
    /// Pairs with `publish_cv` to publish reserved timestamps in order.
    publish_gate: Mutex<()>,
    publish_cv: Condvar,
    /// Active read snapshots: raw txn id → snapshot ts. The minimum value
    /// is the version-chain GC watermark.
    snapshots: Mutex<HashMap<u64, u64>>,
    abort_causes: [AtomicU64; ABORT_CAUSE_COUNT],
    /// First-committer-wins validation failures (a subset of the
    /// `write_conflict` aborts: conflicts can also surface at write time).
    validation_failures: AtomicU64,
    gc_runs: AtomicU64,
    gc_versions_removed: AtomicU64,
    gc_last_watermark: AtomicU64,
    /// Version-chain shape as of the last GC sweep (the sweep walks every
    /// version anyway, so it refreshes these for `ima$transactions`).
    chain_versions: AtomicU64,
    chain_count: AtomicU64,
    chain_longest: AtomicU64,
    /// Abort-path undo applications that failed (storage-level
    /// inconsistency: the WAL stays the recovery authority, but each one is
    /// surfaced through `ima$transactions` instead of vanishing).
    undo_failures: AtomicU64,
    /// Wait-event registry for the gate/publish parks (unset ⇒ no-op
    /// guards, e.g. unit tests without an engine).
    waits: WaitRegistryHandle,
}

/// Holds the quiesce gate closed. New transactions resume when dropped.
#[derive(Debug)]
pub struct QuiesceGuard<'a> {
    mgr: &'a TxnManager,
}

impl Drop for QuiesceGuard<'_> {
    fn drop(&mut self) {
        let mut g = self.mgr.gate.lock();
        g.quiescing = false;
        drop(g);
        self.mgr.cv.notify_all();
    }
}

impl TxnManager {
    /// A fresh manager.
    pub fn new() -> Self {
        TxnManager {
            next: AtomicU64::new(1),
            ..Default::default()
        }
    }

    /// Start a transaction. Blocks while a [`TxnManager::quiesce`] guard is
    /// held.
    pub fn begin(&self) -> TxnId {
        let mut g = self.gate.lock();
        while g.quiescing {
            let _gate = WaitGuard::begin(self.waits.get(), WaitEvent::TxnQuiesce);
            self.cv.wait(&mut g);
        }
        g.active += 1;
        drop(g);
        TxnId(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// One transaction left the system: update the gate and wake anyone
    /// draining (a quiescer waiting for zero, or begins parked on the gate).
    fn finish_one(&self) {
        let mut g = self.gate.lock();
        g.active = g.active.saturating_sub(1);
        let wake = g.active == 0 || g.quiescing;
        drop(g);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Record a commit.
    pub fn commit(&self, txn: TxnId) {
        self.release_snapshot(txn);
        self.committed.fetch_add(1, Ordering::Relaxed);
        self.finish_one();
    }

    /// Record a read-only commit. Identical bookkeeping to [`Self::commit`],
    /// under a distinct name because the caller owes no durability barrier:
    /// an empty write set has nothing to make durable. `ingot-verify` polices
    /// the two separately (check 6).
    pub fn commit_read_only(&self, txn: TxnId) {
        self.commit(txn);
    }

    /// Record an abort with its cause.
    pub fn abort_with(&self, txn: TxnId, cause: AbortCause) {
        self.release_snapshot(txn);
        if let Some(ctr) = self.abort_causes.get(cause.index()) {
            ctr.fetch_add(1, Ordering::Relaxed);
        }
        self.aborted.fetch_add(1, Ordering::Relaxed);
        self.finish_one();
    }

    /// Record an abort (deadlock victim or user rollback).
    pub fn abort(&self, txn: TxnId) {
        self.abort_with(txn, AbortCause::User);
    }

    /// Close the gate: block new [`TxnManager::begin`]s and wait up to
    /// `timeout` for active transactions to drain. On success the returned
    /// guard keeps the gate closed until dropped; on timeout the gate
    /// reopens and an error is returned (the checkpoint should retry later
    /// rather than stall writers forever).
    ///
    /// Spurious or early condvar wakeups re-wait with the same slice, so the
    /// total wait can exceed `timeout` slightly; it remains bounded because
    /// every wakeup source in this module reflects a real state change.
    pub fn quiesce(&self, timeout: Duration) -> Result<QuiesceGuard<'_>> {
        let mut g = self.gate.lock();
        while g.quiescing {
            // Another quiescer is draining; take over once it reopens.
            let _gate = WaitGuard::begin(self.waits.get(), WaitEvent::TxnQuiesce);
            if self.cv.wait_for(&mut g, timeout).timed_out() && g.quiescing {
                return Err(Error::execution(
                    "quiesce: another checkpoint is in progress",
                ));
            }
        }
        g.quiescing = true;
        while g.active > 0 {
            let _drain = WaitGuard::begin(self.waits.get(), WaitEvent::TxnQuiesce);
            if self.cv.wait_for(&mut g, timeout).timed_out() && g.active > 0 {
                g.quiescing = false;
                drop(g);
                self.cv.notify_all();
                return Err(Error::execution(format!(
                    "quiesce: transactions still active after {timeout:?}"
                )));
            }
        }
        Ok(QuiesceGuard { mgr: self })
    }

    // ----- MVCC timestamp authority -------------------------------------

    /// Highest published commit timestamp: the `ts` a fresh snapshot gets.
    pub fn read_ts(&self) -> u64 {
        self.commit_seq.load(Ordering::Acquire)
    }

    /// Restore the commit sequence after WAL replay (recovery stamps
    /// versions with their logged commit timestamps; new commits must start
    /// above all of them).
    pub fn restore_commit_seq(&self, ts: u64) {
        self.commit_seq.fetch_max(ts, Ordering::Release);
        self.next_commit.fetch_max(ts, Ordering::Release);
    }

    /// Acquire a read snapshot for `txn` and register it as active; it is
    /// released by [`TxnManager::commit`] / [`TxnManager::abort_with`] (or
    /// explicitly by [`TxnManager::release_snapshot`]). Registered snapshots
    /// hold the GC watermark back.
    pub fn snapshot(&self, txn: TxnId) -> Snapshot {
        let ts = self.read_ts();
        self.snapshots.lock().insert(txn.raw(), ts);
        Snapshot { ts, txn }
    }

    /// Drop `txn`'s registered snapshot, if any.
    pub fn release_snapshot(&self, txn: TxnId) {
        self.snapshots.lock().remove(&txn.raw());
    }

    /// Active snapshots as `(txn id, snapshot ts)` pairs, unordered.
    pub fn active_snapshots(&self) -> Vec<(u64, u64)> {
        self.snapshots
            .lock()
            .iter()
            .map(|(&t, &s)| (t, s))
            .collect()
    }

    /// The version-chain GC watermark: the oldest active snapshot ts, or
    /// the current commit sequence when no snapshot is registered. Versions
    /// whose committed `end` is at or below the watermark are invisible to
    /// every present and future snapshot.
    pub fn gc_watermark(&self) -> u64 {
        let oldest = self.snapshots.lock().values().copied().min();
        oldest.unwrap_or_else(|| self.read_ts())
    }

    /// First-committer-wins validation, called by the engine commit path
    /// *before* the commit record is logged. `conflict` names the losing
    /// row when the write set was superseded; `None` means the write set is
    /// intact (every superseded version still carries this transaction's
    /// uncommitted marker).
    pub fn validate_write_set(&self, txn: TxnId, conflict: Option<String>) -> Result<()> {
        match conflict {
            None => Ok(()),
            Some(what) => {
                self.validation_failures.fetch_add(1, Ordering::Relaxed);
                Err(Error::write_conflict(format!(
                    "transaction {txn} lost first-committer-wins validation on {what}"
                )))
            }
        }
    }

    /// Reserve the next commit timestamp. The caller logs the commit record,
    /// waits out its durability barrier and stamps its write-set versions —
    /// all *concurrently* with other committers (reservation holds no lock,
    /// so group commit still batches barriers) — then calls
    /// [`CommitTicket::publish`]. Publishes complete in reservation order:
    /// a reader that can see timestamp `t` can also see every stamp of every
    /// commit at or below `t`. Dropping the ticket without publishing
    /// abandons the timestamp — the sequence still advances past it (later
    /// reservations must not wait forever), but nothing was stamped with an
    /// abandoned timestamp, so it commits "nothing".
    pub fn start_commit(&self) -> CommitTicket<'_> {
        let ts = self.next_commit.fetch_add(1, Ordering::Relaxed) + 1;
        CommitTicket {
            mgr: self,
            ts,
            done: false,
        }
    }

    /// Record one GC sweep for the observability counters.
    pub fn note_gc(&self, versions_removed: u64, watermark: u64) {
        self.gc_runs.fetch_add(1, Ordering::Relaxed);
        self.gc_versions_removed
            .fetch_add(versions_removed, Ordering::Relaxed);
        self.gc_last_watermark.store(watermark, Ordering::Relaxed);
    }

    /// Record the version-chain shape observed by the last GC sweep:
    /// `(versions, chains, longest)` summed/maxed across all tables.
    pub fn note_chain_shape(&self, versions: u64, chains: u64, longest: u64) {
        self.chain_versions.store(versions, Ordering::Relaxed);
        self.chain_count.store(chains, Ordering::Relaxed);
        self.chain_longest.store(longest, Ordering::Relaxed);
    }

    /// The chain shape recorded by [`TxnManager::note_chain_shape`]:
    /// `(versions, chains, longest)`.
    pub fn chain_shape(&self) -> (u64, u64, u64) {
        (
            self.chain_versions.load(Ordering::Relaxed),
            self.chain_count.load(Ordering::Relaxed),
            self.chain_longest.load(Ordering::Relaxed),
        )
    }

    /// GC sweeps performed.
    pub fn gc_runs(&self) -> u64 {
        self.gc_runs.load(Ordering::Relaxed)
    }

    /// Versions physically reclaimed by GC.
    pub fn gc_versions_removed(&self) -> u64 {
        self.gc_versions_removed.load(Ordering::Relaxed)
    }

    /// Watermark of the most recent GC sweep.
    pub fn gc_last_watermark(&self) -> u64 {
        self.gc_last_watermark.load(Ordering::Relaxed)
    }

    /// Aborts recorded for `cause`.
    pub fn aborts_by_cause(&self, cause: AbortCause) -> u64 {
        self.abort_causes
            .get(cause.index())
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// First-committer-wins validation failures.
    pub fn validation_failures(&self) -> u64 {
        self.validation_failures.load(Ordering::Relaxed)
    }

    /// Record one failed abort-path undo application.
    pub fn note_undo_failure(&self) {
        self.undo_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Abort-path undo applications that failed so far.
    pub fn undo_failures(&self) -> u64 {
        self.undo_failures.load(Ordering::Relaxed)
    }

    /// Install the wait-event registry; gate and publish parks then charge
    /// [`WaitEvent::TxnQuiesce`] / [`WaitEvent::CommitPublish`].
    pub fn set_wait_registry(&self, registry: Arc<WaitRegistry>) {
        self.waits.set(registry);
    }

    /// Currently active transactions.
    pub fn active_count(&self) -> u64 {
        self.gate.lock().active
    }

    /// Transactions committed so far.
    pub fn committed_count(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Transactions aborted so far.
    pub fn aborted_count(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }
}

/// A reserved commit timestamp. The engine stamps its write-set versions
/// with [`CommitTicket::ts`], then calls [`CommitTicket::publish`]; only the
/// publish makes the timestamp visible to new snapshots, so a reader that
/// can see the timestamp can also see every stamp written before it
/// (release/acquire pairing on `commit_seq`). Dropping without publishing
/// abandons the timestamp (still advances the sequence — see
/// [`TxnManager::start_commit`]).
pub struct CommitTicket<'a> {
    mgr: &'a TxnManager,
    ts: u64,
    done: bool,
}

impl CommitTicket<'_> {
    /// The commit timestamp to stamp versions with.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Publish the timestamp: new snapshots now read at-or-above it. Blocks
    /// until every earlier reservation has published or been abandoned, so
    /// `commit_seq` never exposes a timestamp whose predecessors are still
    /// stamping.
    pub fn publish(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let mut gate = self.mgr.publish_gate.lock();
        while self.mgr.commit_seq.load(Ordering::Relaxed) != self.ts - 1 {
            let _turn = WaitGuard::begin(self.mgr.waits.get(), WaitEvent::CommitPublish);
            self.mgr.publish_cv.wait(&mut gate);
        }
        self.mgr.commit_seq.store(self.ts, Ordering::Release);
        drop(gate);
        self.mgr.publish_cv.notify_all();
    }
}

impl Drop for CommitTicket<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn quiesce_drains_and_blocks_begins() {
        let m = Arc::new(TxnManager::new());
        let t = m.begin();
        // Can't drain while `t` is active.
        assert!(m.quiesce(Duration::from_millis(20)).is_err());
        m.commit(t);
        let guard = m.quiesce(Duration::from_secs(1)).unwrap();
        // A begin on another thread parks until the guard drops.
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || {
            let t = m2.begin();
            m2.commit(t);
        });
        drop(guard);
        h.join().unwrap();
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.committed_count(), 2);
    }

    #[test]
    fn quiesce_reopens_gate_on_timeout() {
        let m = TxnManager::new();
        let t = m.begin();
        assert!(m.quiesce(Duration::from_millis(10)).is_err());
        // The failed quiesce must not leave the gate closed.
        let t2 = m.begin();
        m.commit(t);
        m.abort(t2);
        assert_eq!(m.active_count(), 0);
    }

    #[test]
    fn commit_timestamps_publish_in_order() {
        let m = TxnManager::new();
        assert_eq!(m.read_ts(), 0);
        let t1 = m.start_commit();
        assert_eq!(t1.ts(), 1);
        t1.publish();
        assert_eq!(m.read_ts(), 1);
        // An abandoned ticket advances the sequence without committing
        // anything (nothing is ever stamped with its timestamp).
        drop(m.start_commit());
        assert_eq!(m.read_ts(), 2);
        let t2 = m.start_commit();
        assert_eq!(t2.ts(), 3);
        t2.publish();
        assert_eq!(m.read_ts(), 3);
        m.restore_commit_seq(40);
        assert_eq!(m.read_ts(), 40);
        m.restore_commit_seq(7);
        assert_eq!(m.read_ts(), 40, "restore never goes backwards");
    }

    #[test]
    fn snapshots_pin_the_gc_watermark() {
        let m = TxnManager::new();
        m.restore_commit_seq(10);
        assert_eq!(m.gc_watermark(), 10, "no snapshots: watermark = seq");
        let a = m.begin();
        let snap = m.snapshot(a);
        assert_eq!(snap.ts, 10);
        m.start_commit().publish(); // seq -> 11
        assert_eq!(m.gc_watermark(), 10, "active snapshot holds it back");
        assert_eq!(m.active_snapshots(), vec![(a.raw(), 10)]);
        m.commit(a);
        assert_eq!(m.gc_watermark(), 11, "commit releases the snapshot");
        assert!(m.active_snapshots().is_empty());
    }

    #[test]
    fn aborts_are_counted_by_cause() {
        let m = TxnManager::new();
        let a = m.begin();
        let b = m.begin();
        let c = m.begin();
        m.abort(a);
        m.abort_with(b, AbortCause::WriteConflict);
        m.abort_with(c, AbortCause::Deadlock);
        assert_eq!(m.aborted_count(), 3);
        assert_eq!(m.aborts_by_cause(AbortCause::User), 1);
        assert_eq!(m.aborts_by_cause(AbortCause::WriteConflict), 1);
        assert_eq!(m.aborts_by_cause(AbortCause::Deadlock), 1);
        assert_eq!(m.aborts_by_cause(AbortCause::LockTimeout), 0);
    }

    #[test]
    fn validation_counts_and_classifies() {
        let m = TxnManager::new();
        let t = m.begin();
        assert!(m.validate_write_set(t, None).is_ok());
        let err = m
            .validate_write_set(t, Some("row 3 of table 1".into()))
            .unwrap_err();
        assert!(matches!(err, Error::WriteConflict(_)));
        assert!(err.is_transient());
        assert_eq!(m.validation_failures(), 1);
        assert_eq!(AbortCause::from_error(&err), AbortCause::WriteConflict);
        m.abort_with(t, AbortCause::from_error(&err));
        assert_eq!(m.aborts_by_cause(AbortCause::WriteConflict), 1);
    }

    #[test]
    fn gc_counters_accumulate() {
        let m = TxnManager::new();
        m.note_gc(5, 3);
        m.note_gc(2, 9);
        assert_eq!(m.gc_runs(), 2);
        assert_eq!(m.gc_versions_removed(), 7);
        assert_eq!(m.gc_last_watermark(), 9);
    }

    #[test]
    fn txn_lifecycle_counts() {
        let m = TxnManager::new();
        let a = m.begin();
        let b = m.begin();
        assert_ne!(a, b);
        assert_eq!(m.active_count(), 2);
        m.commit(a);
        m.abort(b);
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.committed_count(), 1);
        assert_eq!(m.aborted_count(), 1);
    }

    #[test]
    fn undo_failures_are_counted() {
        let m = TxnManager::new();
        assert_eq!(m.undo_failures(), 0);
        m.note_undo_failure();
        m.note_undo_failure();
        assert_eq!(m.undo_failures(), 2);
    }

    #[test]
    fn timed_out_quiesce_charges_txn_quiesce() {
        let m = TxnManager::new();
        let registry = Arc::new(WaitRegistry::new());
        m.set_wait_registry(Arc::clone(&registry));
        let active = m.begin();
        // The drain parks on the gate for the (tiny) timeout, charging
        // TxnQuiesce, then gives up because `active` never retires.
        let err = m.quiesce(Duration::from_millis(1)).expect_err("times out");
        assert!(err.to_string().contains("still active"));
        assert!(registry.counters().count(WaitEvent::TxnQuiesce) >= 1);
        m.commit(active);
        // Gate reopened: a fresh quiesce with nothing active is immediate.
        drop(m.quiesce(Duration::from_millis(1)).expect("empty system"));
    }

    #[test]
    fn out_of_order_publish_charges_commit_publish() {
        let m = TxnManager::new();
        let registry = Arc::new(WaitRegistry::new());
        m.set_wait_registry(Arc::clone(&registry));
        let first = m.start_commit();
        let second = m.start_commit();
        let parked = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                parked.store(true, Ordering::SeqCst);
                // Blocks (charging CommitPublish) until `first` publishes.
                second.publish();
            });
            while !parked.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // Give the publisher time to reach the publish queue before
            // unblocking it, so the out-of-order park actually happens
            // (test scheduling slack, not synchronisation — ordering stays
            // correct either way, the charge assertion just needs the park).
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(Duration::from_millis(50));
            first.publish();
        });
        assert_eq!(m.read_ts(), 2);
        assert!(registry.counters().count(WaitEvent::CommitPublish) >= 1);
    }
}
