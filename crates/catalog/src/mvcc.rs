//! MVCC row mutation: version-chain maintenance across the heap, the
//! clustered primary tree and every secondary index.
//!
//! The protocol (PR 8) replaces the old single-writer-per-table discipline:
//!
//! * every DML statement appends **new versions** instead of rewriting rows
//!   in place, stamped either with a transaction marker ([`WriteAs::Txn`])
//!   or a final commit timestamp ([`WriteAs::Committed`]);
//! * each mutation returns a [`VersionChange`] the engine keeps per
//!   transaction — commit stamps the markers with the real commit
//!   timestamp, abort applies the changes in reverse to erase them;
//! * secondary indexes hold **one entry per version** (the stored key embeds
//!   the version's row id), so probes land on exact physical versions and
//!   only need a visibility filter — no chain walks on index paths;
//! * the clustered primary tree keeps a **single entry per key** pointing at
//!   the chain head; old snapshots walk `prev` pointers backwards from it
//!   (see [`crate::table::TableEntry::fetch_visible`]).
//!
//! Callers serialise writers per *row* (the engine's lock manager hands out
//! row-exclusive locks keyed on the chain root); the constraint checks here
//! are check-then-act under that discipline.

use ingot_common::mvcc::{is_txn_mark, mark_owner, txn_mark, TS_INF};
use ingot_common::{Error, Result, Row, TableId, TxnId, Value};
use ingot_storage::{RowId, VersionMeta};

use crate::catalog::Catalog;
use crate::table::{CheckedRow, IndexEntry, KeyProbe, TableEntry};

/// How a version write is stamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteAs {
    /// Already durable at this timestamp: bulk loads write `0` ("committed
    /// before tracked history"), WAL replay writes the logged commit
    /// timestamp so recovered chains agree with pre-crash snapshots.
    Committed(u64),
    /// An open transaction: versions carry the owner's marker until the
    /// commit protocol stamps the real timestamp.
    Txn(TxnId),
}

impl WriteAs {
    /// The raw stamp written into begin/end header fields.
    fn stamp(self) -> u64 {
        match self {
            WriteAs::Committed(ts) => ts,
            WriteAs::Txn(t) => txn_mark(t),
        }
    }

    /// The owning transaction, when uncommitted.
    fn owner(self) -> Option<TxnId> {
        match self {
            WriteAs::Committed(_) => None,
            WriteAs::Txn(t) => Some(t),
        }
    }
}

/// One physical consequence of a versioned DML statement.
///
/// The engine accumulates these per transaction: `apply_version_commit`
/// stamps the markers with the commit timestamp (in list order),
/// `apply_version_undo` erases the transaction's versions (in reverse
/// order). The same list doubles as the write set for first-committer-wins
/// validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VersionChange {
    /// A fresh chain was started.
    Insert {
        /// The mutated table.
        table: TableId,
        /// The new version (chain root).
        new: RowId,
        /// Previous clustered-tree value displaced by this key, present when
        /// the insert reused the primary key of a committed-dead chain. Undo
        /// restores it; old snapshots probing the key meanwhile resolve to
        /// the new chain and miss the dead one — a documented limitation
        /// until GC reclaims the dead chain.
        displaced: Option<Vec<u8>>,
    },
    /// A chain head was superseded by a new version.
    Update {
        /// The mutated table.
        table: TableId,
        /// The superseded version (previous head).
        old: RowId,
        /// The new head.
        new: RowId,
    },
    /// A chain head was delete-marked.
    Delete {
        /// The mutated table.
        table: TableId,
        /// The marked version.
        old: RowId,
    },
}

impl VersionChange {
    /// The table this change mutated.
    pub fn table(&self) -> TableId {
        match self {
            VersionChange::Insert { table, .. }
            | VersionChange::Update { table, .. }
            | VersionChange::Delete { table, .. } => *table,
        }
    }
}

/// Does a version with this `end` stamp block a duplicate-key writer?
///
/// Live versions (`end == INF`, which includes other transactions'
/// uncommitted inserts) always do. Delete-marked versions block unless the
/// mark is the writer's own (it deleted the row itself) — another
/// transaction's delete may still abort, so pessimistically it counts.
/// Committed-dead versions never block.
fn blocks_duplicate(end: u64, writer: Option<TxnId>) -> bool {
    if end == TS_INF {
        return true;
    }
    if is_txn_mark(end) {
        return writer != Some(mark_owner(end));
    }
    false
}

fn col_values(row: &Row, columns: &[usize]) -> Vec<Value> {
    columns.iter().map(|&c| row.get(c).clone()).collect()
}

fn decode_rid(v: &[u8]) -> RowId {
    RowId::unpack(u64::from_le_bytes(v.try_into().expect("packed row id")))
}

impl Catalog {
    /// Insert a row as a new single-version chain, maintaining the clustered
    /// tree and all secondary indexes.
    pub fn insert_row_v(&self, table: TableId, row: &Row, write: WriteAs) -> Result<VersionChange> {
        let checked = self.table(table)?.check_row(row)?;
        self.insert_checked_v(table, &checked, write)
    }

    /// [`Catalog::insert_row_v`] for a row `table` has already checked
    /// ([`TableEntry::check_row`]) — the statement path checks once and
    /// reuses the row and its key for locking and logging.
    pub fn insert_checked_v(
        &self,
        table: TableId,
        checked: &CheckedRow,
        write: WriteAs,
    ) -> Result<VersionChange> {
        let entry = self.table(table)?;
        let row = checked.row();
        for idx in self.indexes_of(table) {
            if idx.meta.unique {
                let vals = col_values(row, &idx.meta.columns);
                self.check_unique(entry, idx, &vals, None, write.owner())?;
            }
        }
        let primary = entry.primary.as_ref().zip(checked.pk_key());
        if let Some((primary, key)) = primary {
            if let Some(v) = primary.get(key)? {
                let head = entry.heap.meta(decode_rid(&v))?;
                if blocks_duplicate(head.end, write.owner()) {
                    return Err(Error::constraint(format!(
                        "duplicate primary key in '{}'",
                        entry.meta.name
                    )));
                }
            }
        }
        let rid = entry
            .heap
            .insert_version(row, VersionMeta::base(write.stamp()))?;
        let mut displaced = None;
        if let Some((primary, key)) = primary {
            displaced = primary.insert(key, &rid.pack().to_le_bytes())?;
        }
        self.index_insert_all(table, row, rid)?;
        entry.heap.adjust_rows(1);
        Ok(VersionChange::Insert {
            table,
            new: rid,
            displaced,
        })
    }

    /// Supersede the chain head at `head` with a new version holding
    /// `new_row`. A primary-key change splits into delete-mark + fresh
    /// insert (a chain is keyed by its row identity). Returns the changes
    /// in application order.
    pub fn update_row_v(
        &self,
        table: TableId,
        head: RowId,
        new_row: &Row,
        write: WriteAs,
    ) -> Result<Vec<VersionChange>> {
        let entry = self.table(table)?;
        let new_row = entry.meta.schema.check_row(new_row)?;
        let (mut old_meta, old_row) = entry.heap.get_version(head)?;
        if old_meta.end != TS_INF {
            return Err(Error::write_conflict(format!(
                "row in '{}' was superseded by a concurrent writer",
                entry.meta.name
            )));
        }
        let new_pk = entry.pk_values(&new_row);
        if entry.primary.is_some() && entry.pk_values(&old_row) != new_pk {
            let del = self.delete_row_v(table, head, write)?;
            let ins = self.insert_row_v(table, &new_row, write)?;
            return Ok(vec![del, ins]);
        }
        let root = old_meta.root_for(head);
        for idx in self.indexes_of(table) {
            if idx.meta.unique {
                let vals = col_values(&new_row, &idx.meta.columns);
                self.check_unique(entry, idx, &vals, Some(root), write.owner())?;
            }
        }
        let stamp = write.stamp();
        let new_rid = entry.heap.insert_version(
            &new_row,
            VersionMeta {
                begin: stamp,
                end: TS_INF,
                prev: head.pack(),
                next: TS_INF,
                root,
            },
        )?;
        old_meta.end = stamp;
        old_meta.next = new_rid.pack();
        entry.heap.set_meta(head, old_meta)?;
        if let Some(primary) = &entry.primary {
            primary.insert(
                &ingot_storage::encode_key(&new_pk),
                &new_rid.pack().to_le_bytes(),
            )?;
        }
        self.index_insert_all(table, &new_row, new_rid)?;
        Ok(vec![VersionChange::Update {
            table,
            old: head,
            new: new_rid,
        }])
    }

    /// Delete-mark the chain head at `head`. The version (and its index
    /// entries) stay in place for older snapshots; GC reclaims them once no
    /// snapshot can see them.
    pub fn delete_row_v(
        &self,
        table: TableId,
        head: RowId,
        write: WriteAs,
    ) -> Result<VersionChange> {
        let entry = self.table(table)?;
        let mut meta = entry.heap.meta(head)?;
        if meta.end != TS_INF {
            return Err(Error::write_conflict(format!(
                "row in '{}' was superseded by a concurrent writer",
                entry.meta.name
            )));
        }
        meta.end = write.stamp();
        entry.heap.set_meta(head, meta)?;
        entry.heap.adjust_rows(-1);
        Ok(VersionChange::Delete { table, old: head })
    }

    /// Replace this change's transaction markers with the final commit
    /// timestamp. Intermediate versions a transaction superseded itself end
    /// up with `begin == end == cts` — zero-length lifetimes invisible to
    /// every snapshot, exactly as intended.
    pub fn apply_version_commit(&self, change: &VersionChange, cts: u64) -> Result<()> {
        match change {
            VersionChange::Insert { table, new, .. } => {
                self.stamp_begin(*table, *new, cts)?;
            }
            VersionChange::Update { table, old, new } => {
                self.stamp_end(*table, *old, cts)?;
                self.stamp_begin(*table, *new, cts)?;
            }
            VersionChange::Delete { table, old } => {
                self.stamp_end(*table, *old, cts)?;
            }
        }
        Ok(())
    }

    /// Physically erase this change (abort path). Changes must be undone in
    /// reverse application order so chain links and displaced clustered-tree
    /// entries restore correctly.
    pub fn apply_version_undo(&self, change: &VersionChange) -> Result<()> {
        match change {
            VersionChange::Insert {
                table,
                new,
                displaced,
            } => {
                let entry = self.table(*table)?;
                let (_, row) = entry.heap.get_version(*new)?;
                self.index_remove_all(*table, &row, *new)?;
                if let Some(primary) = &entry.primary {
                    let key = ingot_storage::encode_key(&entry.pk_values(&row));
                    match displaced {
                        Some(old_val) => {
                            primary.insert(&key, old_val)?;
                        }
                        None => {
                            primary.delete(&key)?;
                        }
                    }
                }
                entry.heap.remove_version(*new)?;
                entry.heap.adjust_rows(-1);
            }
            VersionChange::Update { table, old, new } => {
                let entry = self.table(*table)?;
                let (_, new_row) = entry.heap.get_version(*new)?;
                self.index_remove_all(*table, &new_row, *new)?;
                if let Some(primary) = &entry.primary {
                    let key = ingot_storage::encode_key(&entry.pk_values(&new_row));
                    primary.insert(&key, &old.pack().to_le_bytes())?;
                }
                let mut meta = entry.heap.meta(*old)?;
                meta.end = TS_INF;
                meta.next = TS_INF;
                entry.heap.set_meta(*old, meta)?;
                entry.heap.remove_version(*new)?;
            }
            VersionChange::Delete { table, old } => {
                let entry = self.table(*table)?;
                let mut meta = entry.heap.meta(*old)?;
                meta.end = TS_INF;
                entry.heap.set_meta(*old, meta)?;
                entry.heap.adjust_rows(1);
            }
        }
        Ok(())
    }

    /// Reclaim every version of `table` that died below `watermark` (the
    /// oldest snapshot any session might still read at): unlink it from its
    /// chain, drop its index entries and clustered entry (when the entry
    /// still points at it) and free the heap record. Returns the number of
    /// versions removed. Callers must quiesce the table first — this is
    /// physical surgery with no visibility left to protect it.
    pub fn gc_table(&self, table: TableId, watermark: u64) -> Result<u64> {
        let entry = self.table(table)?;
        let mut dead = Vec::new();
        for item in entry.heap.scan_versions() {
            let (rid, meta, row) = item?;
            if meta.dead_below(watermark) {
                dead.push((rid, meta, row));
            }
        }
        for (rid, meta, row) in &dead {
            if meta.prev != TS_INF {
                let prid = RowId::unpack(meta.prev);
                if let Ok(mut pm) = entry.heap.meta(prid) {
                    if pm.next == rid.pack() {
                        pm.next = meta.next;
                        entry.heap.set_meta(prid, pm)?;
                    }
                }
            }
            if meta.next != TS_INF {
                let nrid = RowId::unpack(meta.next);
                if let Ok(mut nm) = entry.heap.meta(nrid) {
                    if nm.prev == rid.pack() {
                        nm.prev = meta.prev;
                        entry.heap.set_meta(nrid, nm)?;
                    }
                }
            }
            self.index_remove_all(table, row, *rid)?;
            if let Some(primary) = &entry.primary {
                let key = ingot_storage::encode_key(&entry.pk_values(row));
                if primary.get(&key)?.as_deref() == Some(rid.pack().to_le_bytes().as_slice()) {
                    primary.delete(&key)?;
                }
            }
            entry.heap.remove_version(*rid)?;
        }
        Ok(dead.len() as u64)
    }

    /// The version-chain shape of `table`: `(versions, chains, longest)` —
    /// total physical versions in the heap, distinct chains, and the length
    /// of the longest chain. Feeds `ima$transactions`; a growing
    /// versions/chains ratio means GC is falling behind the write rate.
    pub fn chain_stats(&self, table: TableId) -> Result<(u64, u64, u64)> {
        let entry = self.table(table)?;
        let mut versions = 0u64;
        let mut lens: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for item in entry.heap.scan_versions() {
            let (rid, meta, _) = item?;
            versions += 1;
            *lens.entry(meta.root_for(rid)).or_insert(0) += 1;
        }
        let longest = lens.values().copied().max().unwrap_or(0);
        Ok((versions, lens.len() as u64, longest))
    }

    fn stamp_begin(&self, table: TableId, rid: RowId, cts: u64) -> Result<()> {
        let entry = self.table(table)?;
        let mut meta = entry.heap.meta(rid)?;
        if is_txn_mark(meta.begin) {
            meta.begin = cts;
            entry.heap.set_meta(rid, meta)?;
        }
        Ok(())
    }

    fn stamp_end(&self, table: TableId, rid: RowId, cts: u64) -> Result<()> {
        let entry = self.table(table)?;
        let mut meta = entry.heap.meta(rid)?;
        if is_txn_mark(meta.end) {
            meta.end = cts;
            entry.heap.set_meta(rid, meta)?;
        }
        Ok(())
    }

    fn check_unique(
        &self,
        entry: &TableEntry,
        idx: &IndexEntry,
        vals: &[Value],
        own_root: Option<u64>,
        writer: Option<TxnId>,
    ) -> Result<()> {
        for rid in idx.probe(KeyProbe::Eq(vals))? {
            let meta = entry.heap.meta(rid)?;
            if own_root.is_some_and(|r| meta.root_for(rid) == r) {
                continue;
            }
            if blocks_duplicate(meta.end, writer) {
                return Err(Error::constraint(format!(
                    "duplicate key in unique index '{}'",
                    idx.meta.name
                )));
            }
        }
        Ok(())
    }

    fn index_insert_all(&self, table: TableId, row: &Row, rid: RowId) -> Result<()> {
        for idx in self.indexes_of(table) {
            // A virtual index has no tree to maintain.
            let Some(tree) = &idx.tree else { continue };
            let vals = col_values(row, &idx.meta.columns);
            tree.insert(
                &IndexEntry::stored_key(&vals, rid),
                &rid.pack().to_le_bytes(),
            )?;
        }
        Ok(())
    }

    fn index_remove_all(&self, table: TableId, row: &Row, rid: RowId) -> Result<()> {
        for idx in self.indexes_of(table) {
            let Some(tree) = &idx.tree else { continue };
            let vals = col_values(row, &idx.meta.columns);
            tree.delete(&IndexEntry::stored_key(&vals, rid))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::table::StorageStructure;
    use ingot_common::{Column, ColumnSet, DataType, EngineConfig, Schema, SimClock, Snapshot};
    use ingot_storage::StorageEngine;
    use std::sync::Arc;

    /// The chain head the primary tree holds for key `k`.
    fn pk_head(entry: &TableEntry, k: i64) -> Option<RowId> {
        let heads = entry.probe_primary(KeyProbe::Eq(&[Value::Int(k)])).unwrap();
        heads.first().copied()
    }

    fn catalog() -> Catalog {
        let cfg = EngineConfig::default();
        let storage = StorageEngine::in_memory(&cfg, SimClock::new());
        Catalog::new(Arc::clone(storage.pool()), 2)
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("v", DataType::Int),
        ])
    }

    fn row(id: i64, v: i64) -> Row {
        Row::new(vec![Value::Int(id), Value::Int(v)])
    }

    fn snap_at(ts: u64) -> Snapshot {
        Snapshot { ts, txn: TxnId(0) }
    }

    /// BTree-structured table with one committed row per id in 0..n.
    fn btree_table(c: &mut Catalog, n: i64) -> TableId {
        let t = c.create_table("t", schema(), vec![0]).unwrap();
        for i in 0..n {
            c.insert_row_v(t, &row(i, i * 10), WriteAs::Committed(0))
                .unwrap();
        }
        c.modify_storage(t, StorageStructure::BTree).unwrap();
        t
    }

    #[test]
    fn visibility_is_decided_on_the_header_before_the_row_is_decoded() {
        let mut c = catalog();
        let text = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Str),
        ]);
        let t = c.create_table("s", text, vec![]).unwrap();
        let named = |name: &str| Row::new(vec![Value::Int(1), Value::Str(name.into())]);
        let VersionChange::Insert { new: old, .. } = c
            .insert_row_v(t, &named("ok"), WriteAs::Committed(3))
            .unwrap()
        else {
            panic!()
        };
        let changes = c
            .update_row_v(t, old, &named("@@corrupt@@"), WriteAs::Committed(9))
            .unwrap();
        let VersionChange::Update { new: head, .. } = changes[0] else {
            panic!()
        };
        // Break the newer version's payload (its header stays intact).
        let entry = c.table(t).unwrap();
        let page = c.pool().fetch(entry.heap.file_id(), head.page_no).unwrap();
        {
            let mut guard = page.write();
            let bytes = guard.bytes_mut();
            let at = bytes.windows(11).position(|w| w == b"@@corrupt@@").unwrap();
            bytes[at] = 0xFF;
        }

        // A snapshot that cannot see the broken version never decodes it.
        let before = snap_at(5);
        let scanned: Vec<(RowId, Row)> = entry
            .scan_visible(&before, ColumnSet::all())
            .map(|r| r.map(|(rid, _, row)| (rid, row)))
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(scanned, vec![(old, named("ok"))]);
        let walked = entry.fetch_visible(head, &before, ColumnSet::all());
        assert_eq!(walked.unwrap(), Some((old, named("ok"))));
        let exact = entry.version_visible(head, &before, ColumnSet::all());
        assert_eq!(exact.unwrap(), None);
        // One that sees it trips over it — unless it does not read `name`.
        let after = snap_at(9);
        assert!(entry
            .scan_visible(&after, ColumnSet::all())
            .any(|r| r.is_err()));
        assert!(entry.fetch_visible(head, &after, ColumnSet::all()).is_err());
        assert!(entry
            .version_visible(head, &after, ColumnSet::all())
            .is_err());
        let mut id_only = ColumnSet::none();
        id_only.insert(0);
        let pruned = Row::new(vec![Value::Int(1), Value::Null]);
        let exact = entry.version_visible(head, &after, id_only);
        assert_eq!(exact.unwrap(), Some(pruned));
    }

    #[test]
    fn txn_update_is_invisible_until_stamped() {
        let mut c = catalog();
        let t = btree_table(&mut c, 3);
        let entry = c.table(t).unwrap();
        let head = pk_head(entry, 1).unwrap();
        let txn = TxnId(9);
        let changes = c
            .update_row_v(t, head, &row(1, 777), WriteAs::Txn(txn))
            .unwrap();
        assert_eq!(changes.len(), 1);

        // Another session's snapshot still sees the old version.
        let entry = c.table(t).unwrap();
        let new_head = pk_head(entry, 1).unwrap();
        let (_, seen) = entry
            .fetch_visible(new_head, &snap_at(5), ColumnSet::all())
            .unwrap()
            .unwrap();
        assert_eq!(seen, row(1, 10));
        // The owner sees its own uncommitted write.
        let own = Snapshot { ts: 5, txn };
        let (_, mine) = entry
            .fetch_visible(new_head, &own, ColumnSet::all())
            .unwrap()
            .unwrap();
        assert_eq!(mine, row(1, 777));

        // Stamp at cts 7: snapshots at >= 7 see it, snapshots below don't.
        c.apply_version_commit(&changes[0], 7).unwrap();
        let entry = c.table(t).unwrap();
        let (_, after) = entry
            .fetch_visible(new_head, &snap_at(7), ColumnSet::all())
            .unwrap()
            .unwrap();
        assert_eq!(after, row(1, 777));
        let (_, before) = entry
            .fetch_visible(new_head, &snap_at(6), ColumnSet::all())
            .unwrap()
            .unwrap();
        assert_eq!(before, row(1, 10));
    }

    #[test]
    fn undo_erases_insert_update_and_delete() {
        let mut c = catalog();
        let t = btree_table(&mut c, 2);
        let txn = TxnId(4);
        let entry = c.table(t).unwrap();
        let versions_before = entry.heap.version_count();
        let rows_before = entry.heap.row_count();

        let head = pk_head(entry, 0).unwrap();
        let mut changes = Vec::new();
        changes.extend(
            c.update_row_v(t, head, &row(0, 1), WriteAs::Txn(txn))
                .unwrap(),
        );
        let head1 = pk_head(c.table(t).unwrap(), 1).unwrap();
        changes.push(c.delete_row_v(t, head1, WriteAs::Txn(txn)).unwrap());
        changes.push(c.insert_row_v(t, &row(5, 50), WriteAs::Txn(txn)).unwrap());

        for change in changes.iter().rev() {
            c.apply_version_undo(change).unwrap();
        }
        let entry = c.table(t).unwrap();
        assert_eq!(entry.heap.version_count(), versions_before);
        assert_eq!(entry.heap.row_count(), rows_before);
        let head = pk_head(entry, 0).unwrap();
        let (_, r) = entry
            .fetch_visible(head, &Snapshot::latest(), ColumnSet::all())
            .unwrap()
            .unwrap();
        assert_eq!(r, row(0, 0));
        assert!(pk_head(entry, 5).is_none());
    }

    #[test]
    fn duplicate_pk_blocked_while_chain_live_allowed_after_committed_delete() {
        let mut c = catalog();
        let t = btree_table(&mut c, 1);
        // Live chain blocks a duplicate insert.
        let err = c
            .insert_row_v(t, &row(0, 9), WriteAs::Committed(3))
            .unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
        // Delete commits at 3; the key is reusable afterwards.
        let head = pk_head(c.table(t).unwrap(), 0).unwrap();
        c.delete_row_v(t, head, WriteAs::Committed(3)).unwrap();
        let change = c
            .insert_row_v(t, &row(0, 9), WriteAs::Committed(4))
            .unwrap();
        assert!(matches!(
            change,
            VersionChange::Insert {
                displaced: Some(_),
                ..
            }
        ));
        let entry = c.table(t).unwrap();
        let head = pk_head(entry, 0).unwrap();
        let (_, r) = entry
            .fetch_visible(head, &snap_at(4), ColumnSet::all())
            .unwrap()
            .unwrap();
        assert_eq!(r, row(0, 9));
    }

    #[test]
    fn gc_reclaims_versions_below_watermark_only() {
        let mut c = catalog();
        let t = btree_table(&mut c, 2);
        let head = pk_head(c.table(t).unwrap(), 0).unwrap();
        // Three committed supersessions at ts 1, 2, 3.
        let mut h = head;
        for (i, ts) in [(1i64, 1u64), (2, 2), (3, 3)] {
            let changes = c
                .update_row_v(t, h, &row(0, i), WriteAs::Committed(ts))
                .unwrap();
            let VersionChange::Update { new, .. } = changes[0] else {
                panic!("expected update");
            };
            h = new;
        }
        let entry = c.table(t).unwrap();
        assert_eq!(entry.heap.version_count(), 5);

        // Watermark 2: versions that died at ts 1 and 2 go; the one that
        // died at 3 stays (a snapshot at 2 still reads it).
        let removed = c.gc_table(t, 2).unwrap();
        assert_eq!(removed, 2);
        let entry = c.table(t).unwrap();
        assert_eq!(entry.heap.version_count(), 3);
        let (_, r) = entry
            .fetch_visible(h, &snap_at(2), ColumnSet::all())
            .unwrap()
            .unwrap();
        assert_eq!(r, row(0, 2));
        let (_, latest) = entry
            .fetch_visible(h, &Snapshot::latest(), ColumnSet::all())
            .unwrap()
            .unwrap();
        assert_eq!(latest, row(0, 3));

        // Delete the row at 5 and GC past it: the whole chain disappears,
        // clustered entry included.
        c.delete_row_v(t, h, WriteAs::Committed(5)).unwrap();
        c.gc_table(t, 10).unwrap();
        let entry = c.table(t).unwrap();
        assert!(pk_head(entry, 0).is_none());
        assert_eq!(entry.heap.row_count(), 1); // row id 1 untouched
    }

    #[test]
    fn pk_change_splits_into_delete_and_insert() {
        let mut c = catalog();
        let t = btree_table(&mut c, 2);
        let head = pk_head(c.table(t).unwrap(), 0).unwrap();
        let changes = c
            .update_row_v(t, head, &row(7, 70), WriteAs::Committed(2))
            .unwrap();
        assert_eq!(changes.len(), 2);
        assert!(matches!(changes[0], VersionChange::Delete { .. }));
        assert!(matches!(changes[1], VersionChange::Insert { .. }));
        let entry = c.table(t).unwrap();
        let head7 = pk_head(entry, 7).unwrap();
        let (_, r) = entry
            .fetch_visible(head7, &snap_at(2), ColumnSet::all())
            .unwrap()
            .unwrap();
        assert_eq!(r, row(7, 70));
        // The old key still resolves for older snapshots.
        let head0 = pk_head(entry, 0).unwrap();
        let (_, old) = entry
            .fetch_visible(head0, &snap_at(1), ColumnSet::all())
            .unwrap()
            .unwrap();
        assert_eq!(old, row(0, 0));
        assert!(entry
            .fetch_visible(head0, &snap_at(2), ColumnSet::all())
            .unwrap()
            .is_none());
    }

    #[test]
    fn unique_secondary_index_ignores_own_chain_but_blocks_others() {
        let mut c = catalog();
        let t = c.create_table("t", schema(), vec![0]).unwrap();
        c.create_index("t_v", t, vec![1], true).unwrap();
        let ins = c
            .insert_row_v(t, &row(1, 100), WriteAs::Committed(1))
            .unwrap();
        let VersionChange::Insert { new, .. } = ins else {
            panic!("expected insert");
        };
        // Same unique value on the same chain (no-op update): allowed.
        c.update_row_v(t, new, &row(1, 100), WriteAs::Committed(2))
            .unwrap();
        // Another chain claiming the value: rejected.
        let err = c
            .insert_row_v(t, &row(2, 100), WriteAs::Committed(3))
            .unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
    }
}
