//! Crash recovery, part 2b: redo the salvaged WAL on top of the checkpoint
//! image (part 1, restoring the page files, runs in `EngineBuilder::build`
//! before the engine exists).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ingot_catalog::{Catalog, WriteAs};
use ingot_common::{ColumnSet, Error, Result, Row, Snapshot, TableId, TxnId};
use ingot_storage::{decode_row, Lsn, RowId, WalEntry, WalRecord};

use super::Engine;

impl Engine {
    /// Crash recovery, part 2b: replay the salvaged WAL on top of the
    /// checkpoint image — all DDL, plus the data mutations of transactions
    /// whose `Commit` record reached the disk. Loser transactions (no commit
    /// record) are discarded: the no-steal buffer pool guarantees none of
    /// their pages were flushed, so skipping their records *is* the undo.
    /// Runs exactly once, from [`EngineBuilder::build`](super::EngineBuilder::build).
    pub(super) fn replay_wal(self: &Arc<Self>) -> Result<()> {
        let entries = self.wal.take_recovered();
        if entries.is_empty() {
            return Ok(());
        }
        // Records at or below the newest Checkpoint record whose epoch made
        // it into the recovery manifest are already reflected in the page
        // files (a crash between manifest install and log truncation leaves
        // both the checkpoint record and everything before it in the log).
        let installed = self.storage.checkpoint_epoch();
        let mut low_water: Lsn = 0;
        // Winner transactions mapped to the commit timestamp their versions
        // were stamped with pre-crash: replay reconstructs version chains
        // with the same stamps, so post-recovery snapshots agree with
        // pre-crash ones.
        let mut committed: HashMap<TxnId, u64> = HashMap::new();
        for e in &entries {
            match e.record {
                WalRecord::Checkpoint { epoch } if epoch <= installed => {
                    low_water = low_water.max(e.lsn);
                }
                WalRecord::Commit { txn, commit_ts } => {
                    committed.insert(txn, commit_ts);
                    self.txns.restore_commit_seq(commit_ts);
                }
                _ => {}
            }
        }
        self.wal.set_replaying(true);
        let replayed = self.replay_entries(&entries, low_water, &committed);
        self.wal.set_replaying(false);
        let (records, txns) = replayed?;
        self.wal.record_replay(records, txns);
        Ok(())
    }

    fn replay_entries(
        self: &Arc<Self>,
        entries: &[WalEntry],
        low_water: Lsn,
        committed: &HashMap<TxnId, u64>,
    ) -> Result<(u64, u64)> {
        let session = self.open_session();
        let mut records = 0u64;
        let mut txns: HashSet<TxnId> = HashSet::new();
        for e in entries.iter().filter(|e| e.lsn > low_water) {
            let txn = match &e.record {
                // Transaction bookkeeping carries no data to redo.
                WalRecord::Begin { .. }
                | WalRecord::Commit { .. }
                | WalRecord::Abort { .. }
                | WalRecord::Checkpoint { .. } => continue,
                // DDL is logged only after it succeeded originally, so
                // re-executing it must succeed too; a failure means log and
                // checkpoint image disagree, and replay stops loudly rather
                // than continue against a wrong schema.
                WalRecord::Ddl { sql } => {
                    session.execute(sql).map_err(|err| {
                        Error::storage(format!("WAL replay: DDL `{sql}` failed: {err}"))
                    })?;
                    records += 1;
                    continue;
                }
                WalRecord::Insert { txn, .. }
                | WalRecord::Delete { txn, .. }
                | WalRecord::Update { txn, .. } => *txn,
            };
            // A data record of a loser transaction: discard.
            let Some(&cts) = committed.get(&txn) else {
                continue;
            };
            // Winner data records replay as already-committed versions,
            // stamped with the transaction's logged commit timestamp —
            // per-row WAL order matches commit order (row locks release
            // only after stamping), so the rebuilt chains match the
            // pre-crash ones.
            let at = WriteAs::Committed(cts);
            let catalog = self.catalog.read();
            match &e.record {
                WalRecord::Insert { table, row, .. } => {
                    let id = catalog.resolve_table(table)?;
                    catalog.insert_row_v(id, &decode_row(row)?, at)?;
                }
                WalRecord::Delete { table, old, .. } => {
                    let id = catalog.resolve_table(table)?;
                    let rid = find_row_by_image(&catalog, id, &decode_row(old)?)?;
                    catalog.delete_row_v(id, rid, at)?;
                }
                WalRecord::Update {
                    table, old, new, ..
                } => {
                    let id = catalog.resolve_table(table)?;
                    let rid = find_row_by_image(&catalog, id, &decode_row(old)?)?;
                    catalog.update_row_v(id, rid, &decode_row(new)?, at)?;
                }
                // Only data records get past the first match.
                _ => continue,
            }
            records += 1;
            txns.insert(txn);
        }
        Ok((records, txns.len() as u64))
    }
}

/// Locate the live (visible-at-latest) row holding exactly `image`. WAL
/// replay identifies Delete/Update targets by image because physical row ids
/// are not stable across recovery. Identical duplicate rows are
/// interchangeable, so matching the first is sound. Strict on absence: a
/// missing image means the log and the data pages disagree, which must
/// surface, not be papered over.
fn find_row_by_image(catalog: &Catalog, table: TableId, image: &Row) -> Result<RowId> {
    let entry = catalog.table(table)?;
    for item in entry.scan_visible(&Snapshot::latest(), ColumnSet::all()) {
        let (rid, _, row) = item?;
        if row == *image {
            return Ok(rid);
        }
    }
    Err(Error::storage(format!(
        "no row in '{}' matches the logged image",
        entry.meta.name
    )))
}
