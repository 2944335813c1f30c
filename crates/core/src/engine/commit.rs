//! The commit protocol: per-transaction undo, WAL-ordered commit
//! (validate → reserve → WAL → stamp → publish), abort, and the DML
//! observer that logs each mutation as it is applied.

use std::borrow::Cow;

use ingot_catalog::{Catalog, VersionChange, WriteAs};
use ingot_common::{MonotonicClock, Result, Row, Snapshot, TableId, TxnId};
use ingot_executor::{DmlObserver, ExecCtx};
use ingot_storage::{encode_row, RowId, WalRecord};
use ingot_txn::AbortCause;

use super::Engine;

/// One transaction's write-side state: whether a `Begin` record was appended
/// to the WAL (first mutation does it lazily) and the [`VersionChange`]s its
/// mutations produced. At commit the changes are stamped with the commit
/// timestamp; on abort they are undone newest-first (the transaction still
/// holds row-exclusive locks on every chain it touched, so undo cannot race
/// other writers).
#[derive(Debug, Default)]
pub(super) struct TxnUndo {
    began: bool,
    ops: Vec<VersionChange>,
}

impl Engine {
    /// Record one applied data mutation of `txn`: push its version change
    /// (the commit stamp set / abort undo list) and lazily append the
    /// transaction's `Begin` WAL record on its first mutation. The DML
    /// record itself is appended by the caller.
    fn note_mutation(&self, txn: TxnId, op: VersionChange) -> Result<()> {
        let need_begin = {
            let mut undo = self.undo.lock();
            let entry = undo.entry(txn).or_default();
            entry.ops.push(op);
            !std::mem::replace(&mut entry.began, true)
        };
        if need_begin {
            self.wal.append(&WalRecord::Begin { txn })?;
        }
        Ok(())
    }

    /// Commit `txn`. Ordering, each step gated on the previous:
    ///
    /// 1. first-committer-wins validation ([`ingot_txn::TxnManager::validate_write_set`])
    ///    — write-time conflict checks already failed any statement whose
    ///    target was superseded, so the write set is intact here; the call is
    ///    the recorded validation point and must precede `txns.commit`;
    /// 2. reserve a commit timestamp ([`ingot_txn::TxnManager::start_commit`] — no lock
    ///    held, so concurrent committers still share group-commit batches);
    /// 3. append the `Commit` record carrying that timestamp and wait for
    ///    the configured durability barrier — a barrier failure abandons the
    ///    timestamp and rolls the transaction back: an un-durable commit is
    ///    never acknowledged;
    /// 4. stamp the write-set versions with the timestamp and publish it —
    ///    only now do other snapshots start seeing the transaction's rows;
    /// 5. release locks and retire the transaction.
    pub(super) fn commit_txn(&self, txn: TxnId) -> Result<()> {
        if let Err(e) = self.txns.validate_write_set(txn, None) {
            self.abort_txn_with(txn, AbortCause::from_error(&e));
            return Err(e);
        }
        let undo = self.undo.lock().remove(&txn);
        let Some(undo) = undo.filter(|u| !u.ops.is_empty()) else {
            // Read-only (or no-op) transaction: nothing to log or stamp, so
            // no durability barrier is owed before acknowledging.
            self.locks.release_all(txn);
            self.txns.commit_read_only(txn);
            return Ok(());
        };
        let ticket = self.txns.start_commit();
        // A non-empty write set implies `began`: `note_mutation` pushes the
        // first op and appends the Begin record under the same undo-map
        // lock, so there is no path here with ops but no Begin.
        debug_assert!(undo.began, "write set without a Begin record");
        if !self.wal.is_replaying() {
            let durable = self
                .wal
                .append(&WalRecord::Commit {
                    txn,
                    commit_ts: ticket.ts(),
                })
                .and_then(|lsn| self.wal.commit_barrier(lsn));
            if let Err(e) = durable {
                // Put the write set back so the abort path can undo it; the
                // dropped ticket abandons the reserved timestamp.
                drop(ticket);
                self.undo.lock().insert(txn, undo);
                self.abort_txn_with(txn, AbortCause::Other);
                return Err(e);
            }
        }
        // Stamp, then publish: a snapshot that can read the published
        // timestamp sees either all of this transaction's versions or (for
        // older snapshots) none. A stamp failure is a storage-level
        // inconsistency; it still publishes and releases (the WAL holds the
        // commit record, so recovery is the authority) but surfaces loudly.
        let mut stamp_err = None;
        {
            let catalog = self.catalog.read();
            for change in &undo.ops {
                if let Err(e) = catalog.apply_version_commit(change, ticket.ts()) {
                    stamp_err.get_or_insert(e);
                }
            }
        }
        ticket.publish();
        self.locks.release_all(txn);
        self.txns.commit(txn);
        match stamp_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Abort `txn`: reverse its applied mutations (version undo, newest
    /// first), append a best-effort `Abort` record and release its locks;
    /// `cause` feeds the per-cause counters behind `ima$transactions`.
    /// Infallible — abort runs from error paths and `Drop`, which cannot
    /// propagate. An undo failure is tolerable because the WAL, which holds
    /// no `Commit` record for `txn`, stays the authority on the next
    /// recovery; the `Abort` record is purely diagnostic.
    pub(super) fn abort_txn_with(&self, txn: TxnId, cause: AbortCause) {
        if let Some(undo) = self.undo.lock().remove(&txn) {
            let catalog = self.catalog.read();
            for op in undo.ops.iter().rev() {
                if catalog.apply_version_undo(op).is_err() {
                    // The WAL (no Commit record) stays the recovery
                    // authority; surface the inconsistency instead of
                    // swallowing it.
                    self.txns.note_undo_failure();
                }
            }
            if undo.began && !self.wal.is_replaying() {
                let _ = self.wal.append(&WalRecord::Abort { txn });
            }
        }
        self.locks.release_all(txn);
        self.txns.abort_with(txn, cause);
    }
}

/// Observes each applied DML mutation on behalf of one transaction: pushes
/// its logical undo and appends the matching WAL record. The log carries
/// exactly the stored (schema-coerced) representation: an insert hands over
/// the checked row the heap just encoded, an update's new image is re-read
/// from the heap, and pre-images arrive already canonical because the
/// executor read them from the heap.
pub(super) struct WalDmlObserver<'a> {
    pub(super) engine: &'a Engine,
    pub(super) catalog: &'a Catalog,
    pub(super) txn: TxnId,
}

impl<'a> WalDmlObserver<'a> {
    /// The execution context of one session statement: versions marked with
    /// the observed transaction, row locks taken in its name, every mutation
    /// reported back here. Auto-commit statements retarget superseded rows,
    /// explicit transactions fail them with a write conflict
    /// (first-committer-wins).
    pub(super) fn exec_ctx(
        &'a self,
        snap: Snapshot,
        auto: bool,
        trace: Option<MonotonicClock>,
    ) -> ExecCtx<'a> {
        ExecCtx {
            snap,
            write: WriteAs::Txn(self.txn),
            locks: Some((&self.engine.locks, self.txn)),
            retarget: auto,
            observer: self,
            trace,
        }
    }

    fn table_name(&self, table: TableId) -> Result<Cow<'a, str>> {
        Ok(Cow::Borrowed(&self.catalog.table(table)?.meta.name))
    }

    fn stored_image(&self, table: TableId, rid: RowId) -> Result<Row> {
        self.catalog.table(table)?.heap.get(rid)
    }
}

impl DmlObserver for WalDmlObserver<'_> {
    fn on_insert(
        &self,
        table: TableId,
        _rid: RowId,
        row: &Row,
        change: &VersionChange,
    ) -> Result<()> {
        if self.engine.wal.is_replaying() {
            return Ok(());
        }
        // Undo info is recorded before the fallible WAL append: if the
        // append fails mid-statement, the abort path still knows how to
        // reverse this already-applied version.
        self.engine.note_mutation(self.txn, change.clone())?;
        self.engine.wal.append(&WalRecord::Insert {
            txn: self.txn,
            table: self.table_name(table)?,
            row: encode_row(row),
        })?;
        Ok(())
    }

    fn on_delete(
        &self,
        table: TableId,
        _rid: RowId,
        old: &Row,
        change: &VersionChange,
    ) -> Result<()> {
        if self.engine.wal.is_replaying() {
            return Ok(());
        }
        self.engine.note_mutation(self.txn, change.clone())?;
        self.engine.wal.append(&WalRecord::Delete {
            txn: self.txn,
            table: self.table_name(table)?,
            old: encode_row(old),
        })?;
        Ok(())
    }

    fn on_update(
        &self,
        table: TableId,
        _old_rid: RowId,
        new_rid: RowId,
        old: &Row,
        _new: &Row,
        changes: &[VersionChange],
    ) -> Result<()> {
        if self.engine.wal.is_replaying() {
            return Ok(());
        }
        let new_image = self.stored_image(table, new_rid)?;
        for change in changes {
            self.engine.note_mutation(self.txn, change.clone())?;
        }
        self.engine.wal.append(&WalRecord::Update {
            txn: self.txn,
            table: self.table_name(table)?,
            old: encode_row(old),
            new: encode_row(&new_image),
        })?;
        Ok(())
    }
}
