//! The catalog: object registry, DDL and statistics. The row-mutation path
//! that keeps heap, clustered tree and every secondary index consistent is
//! in `mvcc.rs`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use ingot_common::{ColumnSet, Error, IndexId, Result, Row, Schema, TableId, Value};
use ingot_storage::{BTreeFile, BufferPool, HeapFile, RowId};

use crate::histogram::{Histogram, DEFAULT_BUCKETS};
use crate::mvcc::{VersionChange, WriteAs};
use crate::stats::{ColumnStats, TableStatistics};
use crate::table::{IndexEntry, IndexMeta, StorageStructure, TableEntry, TableMeta};

/// The catalog of one database.
///
/// The engine publishes the catalog as an immutable `Arc` snapshot (see
/// [`crate::shared::SharedCatalog`]): schema changes (`&mut self` methods —
/// DDL, MODIFY, COLLECT STATISTICS) run on a private copy that is swapped in
/// atomically, while row mutation (`&self` methods) goes through the shared
/// storage handles and is visible through every snapshot immediately.
///
/// Cloning is cheap: table and index entries sit behind `Arc`s, so a clone
/// copies only the id/name maps. This is what makes copy-on-write DDL viable.
///
/// The `&self` row mutators (`mvcc.rs`) assume the caller serialises writers
/// per row (the engine's `LockManager` hands out row-exclusive locks on the
/// chain root): their constraint checks are check-then-act.
#[derive(Clone)]
pub struct Catalog {
    pool: Arc<BufferPool>,
    heap_main_pages: usize,
    tables: HashMap<TableId, Arc<TableEntry>>,
    indexes: HashMap<IndexId, Arc<IndexEntry>>,
    index_names: HashMap<String, IndexId>,
    virtual_tables: HashMap<TableId, VirtualTableDef>,
    /// Base and virtual tables by name: one name, one id.
    table_names: HashMap<String, TableId>,
    /// Base tables and real indexes count up from 1, virtual tables down
    /// from `u32::MAX` (and what-if indexes, in a [`crate::WhatIf`] copy),
    /// so neither moves a base id; the checkpoint records the two counters.
    next_table: u32,
    next_index: u32,
    /// Schema epoch: bumped every time a modified copy of the catalog is
    /// published through [`crate::shared::SharedCatalog`]. Plan-cache entries
    /// are keyed on it, so any published schema or statistics change
    /// implicitly invalidates every plan optimized under an older epoch.
    epoch: u64,
}

/// Supplies the rows of a virtual table on demand.
pub type VirtualProvider = std::sync::Arc<dyn Fn() -> Vec<Row> + Send + Sync>;

/// A virtual (provider-backed, memory-only) table — the mechanism behind the
/// IMA interface: in-memory monitor structures registered as tables and
/// queried over standard SQL, with no disk access involved.
#[derive(Clone)]
pub struct VirtualTableDef {
    /// Stable id, from the virtual space: the n-th table registered gets
    /// `u32::MAX - n`, never a base table's id.
    pub id: TableId,
    /// Lower-cased name (conventionally `ima$…`), shared with the plans
    /// that scan the table.
    pub name: Arc<str>,
    /// Row shape.
    pub schema: Schema,
    /// Row source.
    pub provider: VirtualProvider,
}

/// `name` in the case names are stored in. The parser lower-cases every
/// identifier, so the common lookup borrows.
fn lower(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// `Err` naming the first of `columns` not below `len`.
fn check_columns(what: &str, columns: &[usize], len: usize) -> Result<()> {
    match columns.iter().find(|&&c| c >= len) {
        Some(c) => Err(Error::catalog(format!("{what} column {c} out of range"))),
        None => Ok(()),
    }
}

/// Either kind of relation a name can resolve to.
pub enum Relation<'a> {
    /// A base table.
    Base(&'a TableEntry),
    /// A virtual (provider-backed) table.
    Virtual(&'a VirtualTableDef),
}

impl Catalog {
    /// An empty catalog over `pool`. `heap_main_pages` is the fixed main
    /// extent newly created heap tables receive.
    pub fn new(pool: Arc<BufferPool>, heap_main_pages: usize) -> Self {
        Catalog {
            pool,
            heap_main_pages,
            tables: HashMap::new(),
            table_names: HashMap::new(),
            indexes: HashMap::new(),
            index_names: HashMap::new(),
            virtual_tables: HashMap::new(),
            next_table: 1,
            next_index: 1,
            epoch: 0,
        }
    }

    /// The buffer pool backing this catalog's files.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The schema epoch this snapshot was published under (see the field
    /// docs). Two snapshots with equal epochs have identical schemas and
    /// statistics.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advance the schema epoch. Called exactly once per publish by the
    /// [`crate::shared::CatalogWriteGuard`]; not part of the public DDL
    /// surface.
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    // ---- table DDL -----------------------------------------------------------

    /// Create a table (HEAP structure, like Ingres' default).
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        primary_key: Vec<usize>,
    ) -> Result<TableId> {
        let name = name.to_ascii_lowercase();
        if self.table_names.contains_key(&name) {
            return Err(Error::catalog(format!("table '{name}' already exists")));
        }
        check_columns("primary key", &primary_key, schema.len())?;
        let heap = Arc::new(HeapFile::create(
            Arc::clone(&self.pool),
            self.heap_main_pages,
        )?);
        // Taken once the heap exists: a failed CREATE burns no id, so WAL
        // replay, which never sees it, hands out the same ones.
        let id = TableId(self.next_table);
        self.next_table += 1;
        let entry = TableEntry {
            meta: TableMeta {
                id,
                name: name.as_str().into(),
                schema,
                primary_key,
                storage: StorageStructure::Heap,
            },
            heap,
            primary: None,
            stats: None,
        };
        self.tables.insert(id, Arc::new(entry));
        self.table_names.insert(name, id);
        Ok(id)
    }

    /// Drop a table and all its indexes. (File space is not reclaimed from
    /// the backend — like a real system, space returns on rebuild.)
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let id = self.resolve_table(name)?;
        self.indexes.retain(|_, e| e.meta.table != id);
        let indexes = &self.indexes;
        self.index_names.retain(|_, i| indexes.contains_key(i));
        let entry = self.tables.remove(&id).expect("resolved table");
        self.table_names.remove(&*entry.meta.name);
        Ok(())
    }

    /// Look up a table id by name.
    pub fn resolve_table(&self, name: &str) -> Result<TableId> {
        self.table_names
            .get(&*lower(name))
            .copied()
            .filter(|id| self.tables.contains_key(id))
            .ok_or_else(|| Error::binder(format!("unknown table '{name}'")))
    }

    /// Register a virtual table (IMA object). The provider is called at
    /// execution time; rows never touch the buffer pool.
    pub fn register_virtual_table(
        &mut self,
        name: &str,
        schema: Schema,
        provider: VirtualProvider,
    ) -> Result<TableId> {
        let name = name.to_ascii_lowercase();
        if self.table_names.contains_key(&name) {
            return Err(Error::catalog(format!("table '{name}' already exists")));
        }
        let id = TableId(u32::MAX - self.virtual_tables.len() as u32);
        self.virtual_tables.insert(
            id,
            VirtualTableDef {
                id,
                name: name.as_str().into(),
                schema,
                provider,
            },
        );
        self.table_names.insert(name, id);
        Ok(id)
    }

    /// Resolve a name to a base or virtual relation.
    pub fn resolve_relation(&self, name: &str) -> Result<Relation<'_>> {
        let id = self
            .table_names
            .get(&*lower(name))
            .ok_or_else(|| Error::binder(format!("unknown table '{name}'")))?;
        Ok(match self.tables.get(id) {
            Some(entry) => Relation::Base(entry),
            None => Relation::Virtual(&self.virtual_tables[id]),
        })
    }

    /// The virtual-table definition behind `id`, if any.
    pub fn virtual_table(&self, id: TableId) -> Option<&VirtualTableDef> {
        self.virtual_tables.get(&id)
    }

    /// Iterate over registered virtual tables.
    pub fn virtual_tables(&self) -> impl Iterator<Item = &VirtualTableDef> {
        self.virtual_tables.values()
    }

    /// The entry of a table by id.
    pub fn table(&self, id: TableId) -> Result<&TableEntry> {
        self.tables
            .get(&id)
            .map(Arc::as_ref)
            .ok_or_else(|| Error::catalog(format!("no table with id {id}")))
    }

    /// The entry of a table by name.
    pub fn table_by_name(&self, name: &str) -> Result<&TableEntry> {
        self.table(self.resolve_table(name)?)
    }

    /// Mutable entry of a table by id. Copies the entry if other snapshots
    /// still reference it (copy-on-write), so published snapshots never
    /// observe the mutation.
    pub fn table_mut(&mut self, id: TableId) -> Result<&mut TableEntry> {
        self.tables
            .get_mut(&id)
            .map(Arc::make_mut)
            .ok_or_else(|| Error::catalog(format!("no table with id {id}")))
    }

    /// Iterate over all tables.
    pub fn tables(&self) -> impl Iterator<Item = &TableEntry> {
        self.tables.values().map(Arc::as_ref)
    }

    // ---- index DDL -----------------------------------------------------------

    /// Create a secondary index and populate it from the table's rows.
    pub fn create_index(
        &mut self,
        name: &str,
        table: TableId,
        columns: Vec<usize>,
        unique: bool,
    ) -> Result<IndexId> {
        let name = name.to_ascii_lowercase();
        if self.index_names.contains_key(&name) {
            return Err(Error::catalog(format!("index '{name}' already exists")));
        }
        let entry = self.table(table)?;
        check_columns("index", &columns, entry.meta.schema.len())?;
        if columns.is_empty() {
            return Err(Error::catalog("index needs at least one column"));
        }
        let tree = BTreeFile::create(Arc::clone(&self.pool))?;
        // Populate from the heap: one entry per *version*, so snapshot reads
        // through the index keep working for superseded rows. Uniqueness is
        // enforced among live versions only (the caller's DDL X lock
        // guarantees no uncommitted markers are in flight).
        let heap = Arc::clone(&entry.heap);
        let mut seen_keys: Option<std::collections::HashSet<Vec<u8>>> =
            unique.then(std::collections::HashSet::new);
        for item in heap.scan_versions() {
            let (rid, meta, row) = item?;
            let vals: Vec<Value> = columns.iter().map(|&c| row.get(c).clone()).collect();
            if meta.end == ingot_common::mvcc::TS_INF {
                if let Some(seen) = &mut seen_keys {
                    let bare = ingot_storage::encode_key(&vals);
                    if !seen.insert(bare) {
                        return Err(Error::constraint(format!(
                            "duplicate key in unique index '{name}'"
                        )));
                    }
                }
            }
            let key = IndexEntry::stored_key(&vals, rid);
            tree.insert(&key, &rid.pack().to_le_bytes())?;
        }
        let meta = IndexMeta {
            id: IndexId(self.next_index),
            name: name.into(),
            table,
            columns,
            unique,
            is_virtual: false,
        };
        self.next_index += 1;
        Ok(self.add_index(meta, Some(Arc::new(tree))))
    }

    /// Register a *virtual* (hypothetical) index under `id`: never
    /// materialised. Only a [`crate::WhatIf`] copy, which is never
    /// published, holds one.
    pub(crate) fn add_virtual_index(
        &mut self,
        id: IndexId,
        table: TableId,
        columns: Vec<usize>,
    ) -> Result<()> {
        let entry = self.table(table)?;
        check_columns("index", &columns, entry.meta.schema.len())?;
        let meta = IndexMeta {
            id,
            name: format!("$virtual_{}_{}", entry.meta.name, id.raw()).into(),
            table,
            columns,
            unique: false,
            is_virtual: true,
        };
        self.add_index(meta, None);
        Ok(())
    }

    /// File an index under its id and name.
    fn add_index(&mut self, meta: IndexMeta, tree: Option<Arc<BTreeFile>>) -> IndexId {
        let id = meta.id;
        self.index_names.insert(meta.name.to_string(), id);
        self.indexes.insert(id, Arc::new(IndexEntry { meta, tree }));
        id
    }

    /// Drop an index by name.
    pub fn drop_index(&mut self, name: &str) -> Result<()> {
        let id = self
            .index_names
            .remove(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::catalog(format!("unknown index '{name}'")))?;
        self.indexes.remove(&id);
        Ok(())
    }

    /// The entry of an index by id.
    pub fn index(&self, id: IndexId) -> Result<&IndexEntry> {
        self.indexes
            .get(&id)
            .map(Arc::as_ref)
            .ok_or_else(|| Error::catalog(format!("no index with id {id}")))
    }

    /// The entry of an index by name.
    pub fn index_by_name(&self, name: &str) -> Result<&IndexEntry> {
        let id = self
            .index_names
            .get(&*lower(name))
            .ok_or_else(|| Error::catalog(format!("unknown index '{name}'")))?;
        self.index(*id)
    }

    /// All indexes on `table` (virtual ones too, in a what-if copy), by id.
    pub fn indexes_of(&self, table: TableId) -> Vec<&IndexEntry> {
        let mut v: Vec<&IndexEntry> = self
            .indexes
            .values()
            .map(Arc::as_ref)
            .filter(|e| e.meta.table == table)
            .collect();
        v.sort_by_key(|e| e.meta.id);
        v
    }

    /// All indexes in the catalog.
    pub fn indexes(&self) -> impl Iterator<Item = &IndexEntry> {
        self.indexes.values().map(Arc::as_ref)
    }

    // ---- checkpoint persistence ----------------------------------------------

    /// Serialize every base table and index with its id, plus the two id
    /// counters, to a checkpoint schema blob (see [`crate::persist`]).
    /// Virtual tables are left out: the engine that boots registers them
    /// again. Statistics are left out too — they are recomputable.
    pub fn dump_schema(&self) -> Vec<u8> {
        use crate::persist::{IndexDump, SchemaDump, TableDump};
        let name_of = |id| self.tables.get(&id).map(|t| t.meta.name.to_string());
        let mut tables: Vec<TableDump> = self
            .tables
            .values()
            .map(|e| TableDump {
                id: e.meta.id,
                name: e.meta.name.to_string(),
                schema: e.meta.schema.clone(),
                primary_key: e.meta.primary_key.clone(),
                storage: e.meta.storage,
                heap_file: e.heap.file_id().raw(),
                heap_main_pages: e.heap.stats().main_pages,
                primary_file: e.primary.as_ref().map(|p| p.file_id().raw()),
            })
            .collect();
        let mut indexes: Vec<IndexDump> = self
            .indexes
            .values()
            .map(|e| IndexDump {
                id: e.meta.id,
                name: e.meta.name.to_string(),
                table: name_of(e.meta.table).unwrap_or_default(),
                columns: e.meta.columns.clone(),
                unique: e.meta.unique,
                tree_file: e.tree.as_ref().map(|t| t.file_id().raw()),
            })
            .collect();
        tables.sort_by_key(|t| t.id);
        indexes.sort_by_key(|i| i.id);
        SchemaDump {
            tables,
            indexes,
            next_table: self.next_table,
            next_index: self.next_index,
        }
        .encode()
    }

    /// Rebuild catalog contents from a checkpoint schema `blob` by
    /// re-attaching the existing storage files (no data is read beyond the
    /// heads needed to validate structure). Every table and index gets back
    /// the id the blob records, and the id counters resume where the
    /// checkpointed catalog left them, so a CREATE redone from the log takes
    /// the id it took the first time. Fails on name or id collisions with
    /// already-registered objects, leaving partially attached entries in
    /// place — callers attach into a fresh catalog at boot.
    pub fn attach_schema(&mut self, blob: &[u8]) -> Result<()> {
        use ingot_storage::FileId;
        let dump = crate::persist::SchemaDump::decode(blob)?;
        let pool = Arc::clone(&self.pool);
        let open_tree = |f| BTreeFile::open(Arc::clone(&pool), FileId(f)).map(Arc::new);
        for t in dump.tables {
            if self.table_names.contains_key(&t.name) || self.tables.contains_key(&t.id) {
                return Err(Error::catalog(format!(
                    "attach: table '{}' already exists",
                    t.name
                )));
            }
            check_columns("attach: primary key", &t.primary_key, t.schema.len())?;
            let heap = HeapFile::open(Arc::clone(&pool), FileId(t.heap_file), t.heap_main_pages)?;
            let entry = TableEntry {
                meta: TableMeta {
                    id: t.id,
                    name: t.name.as_str().into(),
                    schema: t.schema,
                    primary_key: t.primary_key,
                    storage: t.storage,
                },
                heap: Arc::new(heap),
                primary: t.primary_file.map(open_tree).transpose()?,
                stats: None,
            };
            self.tables.insert(t.id, Arc::new(entry));
            self.table_names.insert(t.name, t.id);
        }
        for i in dump.indexes {
            if self.index_names.contains_key(&i.name) || self.indexes.contains_key(&i.id) {
                return Err(Error::catalog(format!(
                    "attach: index '{}' already exists",
                    i.name
                )));
            }
            let table = self.resolve_table(&i.table)?;
            let n_cols = self.table(table)?.meta.schema.len();
            check_columns("attach: index", &i.columns, n_cols)?;
            let meta = IndexMeta {
                id: i.id,
                name: i.name.into(),
                table,
                columns: i.columns,
                unique: i.unique,
                is_virtual: i.tree_file.is_none(),
            };
            self.add_index(meta, i.tree_file.map(open_tree).transpose()?);
        }
        self.next_table = self.next_table.max(dump.next_table);
        self.next_index = self.next_index.max(dump.next_index);
        Ok(())
    }

    // ---- row mutation ---------------------------------------------------------

    /// Insert a row into `table` as a version committed before tracked
    /// history — the bulk-load path (`load_nref`, unit fixtures). Versioned
    /// DML goes through [`Catalog::insert_row_v`] and its siblings in
    /// `mvcc.rs`, which this delegates to.
    pub fn insert_row(&self, table: TableId, row: &Row) -> Result<RowId> {
        let VersionChange::Insert { new, .. } =
            self.insert_row_v(table, row, WriteAs::Committed(0))?
        else {
            unreachable!("insert_row_v only starts chains");
        };
        Ok(new)
    }

    // ---- MODIFY (storage-structure rebuild) -----------------------------------

    /// `MODIFY table TO structure`: rebuild the table compactly in the new
    /// structure and rebuild all its secondary indexes (row ids change).
    ///
    /// Only the *currently visible* rows survive: version history is
    /// truncated to single committed versions (stamp 0). The caller's DDL
    /// X lock keeps writers out; snapshots opened before the rebuild keep
    /// reading the old storage handles through their catalog snapshot.
    pub fn modify_storage(&mut self, table: TableId, to: StorageStructure) -> Result<()> {
        let entry = self.table(table)?;
        let latest = ingot_common::Snapshot::latest();
        let rows: Vec<Row> = entry
            .scan_visible(&latest, ColumnSet::all())
            .map(|r| r.map(|(_, _, row)| row))
            .collect::<Result<_>>()?;
        // Size the new main extent to hold all rows without overflow. Each
        // record also costs its version header plus a 4-byte slot entry;
        // ~2 % slack absorbs the per-page fragmentation so the rebuild stays
        // compact (a rebuild that *grew* the table would penalise every
        // scan).
        let bytes: usize = rows.iter().map(Row::byte_size).sum::<usize>()
            + rows.len() * (ingot_storage::VERSION_HEADER + 4);
        let pages_needed = (bytes + bytes / 50) / (ingot_storage::PAGE_SIZE - 64) + 1;
        let new_heap = Arc::new(HeapFile::create(Arc::clone(&self.pool), pages_needed)?);
        let mut rids = Vec::with_capacity(rows.len());
        for row in &rows {
            rids.push(new_heap.insert(row)?);
        }
        let primary = if to == StorageStructure::BTree {
            let entry = self.table(table)?;
            if entry.meta.primary_key.is_empty() {
                return Err(Error::catalog(format!(
                    "cannot modify '{}' to BTREE: no primary key",
                    entry.meta.name
                )));
            }
            let tree = BTreeFile::create(Arc::clone(&self.pool))?;
            let pk_cols = entry.meta.primary_key.clone();
            for (row, rid) in rows.iter().zip(&rids) {
                let pk: Vec<Value> = pk_cols.iter().map(|&c| row.get(c).clone()).collect();
                let key = ingot_storage::encode_key(&pk);
                if tree.insert(&key, &rid.pack().to_le_bytes())?.is_some() {
                    return Err(Error::constraint(format!(
                        "duplicate primary key while rebuilding '{}'",
                        self.table(table)?.meta.name
                    )));
                }
            }
            Some(Arc::new(tree))
        } else {
            None
        };
        // Rebuild secondary indexes against the new row ids.
        let index_ids: Vec<IndexId> = self.indexes_of(table).iter().map(|e| e.meta.id).collect();
        for iid in index_ids {
            let columns = self.indexes[&iid].meta.columns.clone();
            let tree = BTreeFile::create(Arc::clone(&self.pool))?;
            for (row, rid) in rows.iter().zip(&rids) {
                let vals: Vec<Value> = columns.iter().map(|&c| row.get(c).clone()).collect();
                tree.insert(
                    &IndexEntry::stored_key(&vals, *rid),
                    &rid.pack().to_le_bytes(),
                )?;
            }
            Arc::make_mut(self.indexes.get_mut(&iid).expect("index present")).tree =
                Some(Arc::new(tree));
        }
        let entry = self.table_mut(table)?;
        entry.heap = new_heap;
        entry.primary = primary;
        entry.meta.storage = to;
        Ok(())
    }

    // ---- statistics ------------------------------------------------------------

    /// `CREATE STATISTICS`: build histograms for the given columns (all
    /// columns when `columns` is empty) by scanning the table at the latest
    /// snapshot.
    pub fn collect_statistics(
        &mut self,
        table: TableId,
        columns: &[usize],
        now_secs: u64,
    ) -> Result<()> {
        self.collect_statistics_snapshot(
            table,
            columns,
            now_secs,
            &ingot_common::Snapshot::latest(),
        )
    }

    /// Snapshot-read variant of [`Catalog::collect_statistics`]: scans only
    /// the versions visible under `snap`, so statistics collection needs no
    /// table lock at all — concurrent writers append new versions the scan
    /// simply does not see.
    pub fn collect_statistics_snapshot(
        &mut self,
        table: TableId,
        columns: &[usize],
        now_secs: u64,
        snap: &ingot_common::Snapshot,
    ) -> Result<()> {
        let entry = self.table(table)?;
        let cols: Vec<usize> = if columns.is_empty() {
            (0..entry.meta.schema.len()).collect()
        } else {
            columns.to_vec()
        };
        let mut per_col: Vec<Vec<Value>> = vec![Vec::new(); cols.len()];
        let mut rows = 0u64;
        for item in entry.scan_visible(snap, ColumnSet::all()) {
            let (_, _, row) = item?;
            rows += 1;
            for (slot, &c) in cols.iter().enumerate() {
                per_col[slot].push(row.get(c).clone());
            }
        }
        let heap_stats = entry.heap.stats();
        let mut stats = match &entry.stats {
            Some(existing) => existing.clone(),
            None => TableStatistics::default(),
        };
        stats.row_count = rows;
        stats.pages = heap_stats.total_pages();
        stats.collected_at_secs = now_secs;
        for (slot, &c) in cols.iter().enumerate() {
            stats.columns.insert(
                c,
                ColumnStats {
                    histogram: Histogram::build(&per_col[slot], DEFAULT_BUCKETS),
                },
            );
        }
        self.table_mut(table)?.stats = Some(stats);
        Ok(())
    }

    /// Total pages across all tables and materialised indexes — the "size of
    /// the database" number Fig 7 compares.
    pub fn total_data_pages(&self) -> u64 {
        let tables: u64 = self.tables.values().map(|t| t.data_pages()).sum();
        let indexes: u64 = self.indexes.values().map(|i| i.pages()).sum();
        tables + indexes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::KeyProbe;
    use ingot_common::{Column, DataType, EngineConfig, SimClock};
    use ingot_storage::StorageEngine;

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

    fn people_schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Str),
            Column::new("age", DataType::Int),
        ])
    }

    fn sample_row(i: i64) -> Row {
        Row::new(vec![
            Value::Int(i),
            Value::Str(format!("p{i}")),
            Value::Int(i % 50),
        ])
    }

    #[test]
    fn create_and_resolve_table() {
        let mut c = catalog();
        let id = c.create_table("People", people_schema(), vec![0]).unwrap();
        assert_eq!(c.resolve_table("people").unwrap(), id);
        assert_eq!(c.resolve_table("PEOPLE").unwrap(), id);
        assert!(c.create_table("people", people_schema(), vec![0]).is_err());
        assert!(c.resolve_table("ghosts").is_err());
    }

    #[test]
    fn insert_and_index_probe() {
        let mut c = catalog();
        let t = c.create_table("people", people_schema(), vec![0]).unwrap();
        for i in 0..200 {
            c.insert_row(t, &sample_row(i)).unwrap();
        }
        let idx = c.create_index("people_age", t, vec![2], false).unwrap();
        let rids = c
            .index(idx)
            .unwrap()
            .probe(KeyProbe::Eq(&[Value::Int(7)]))
            .unwrap();
        assert_eq!(rids.len(), 4); // 7, 57, 107, 157
        for rid in rids {
            let row = c.table(t).unwrap().heap.get(rid).unwrap();
            assert_eq!(row.get(2), &Value::Int(7));
        }
    }

    #[test]
    fn index_is_maintained_by_later_inserts_and_deletes() {
        let mut c = catalog();
        let t = c.create_table("people", people_schema(), vec![0]).unwrap();
        let idx = c.create_index("people_age", t, vec![2], false).unwrap();
        let rid = c.insert_row(t, &sample_row(1)).unwrap();
        let probe = |c: &Catalog| {
            c.index(idx)
                .unwrap()
                .probe(KeyProbe::Eq(&[Value::Int(1)]))
                .unwrap()
        };
        assert_eq!(probe(&c), vec![rid]);
        // A delete only marks the version; older snapshots still reach it
        // through the index until GC passes the delete's timestamp.
        c.delete_row_v(t, rid, WriteAs::Committed(1)).unwrap();
        assert_eq!(probe(&c), vec![rid]);
        c.gc_table(t, 2).unwrap();
        assert!(probe(&c).is_empty());
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut c = catalog();
        let t = c.create_table("people", people_schema(), vec![0]).unwrap();
        c.create_index("people_id", t, vec![0], true).unwrap();
        c.insert_row(t, &sample_row(1)).unwrap();
        let err = c.insert_row(t, &sample_row(1)).unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
    }

    #[test]
    fn update_moves_index_entries() {
        let mut c = catalog();
        let t = c.create_table("people", people_schema(), vec![0]).unwrap();
        let idx = c.create_index("people_age", t, vec![2], false).unwrap();
        let rid = c.insert_row(t, &sample_row(1)).unwrap();
        let mut row = sample_row(1);
        row.set(2, Value::Int(99));
        let changes = c.update_row_v(t, rid, &row, WriteAs::Committed(1)).unwrap();
        let [VersionChange::Update { new: new_rid, .. }] = changes[..] else {
            panic!("expected one update, got {changes:?}");
        };
        let probe = |c: &Catalog, age| {
            c.index(idx)
                .unwrap()
                .probe(KeyProbe::Eq(&[Value::Int(age)]))
                .unwrap()
        };
        assert_eq!(probe(&c, 99), vec![new_rid]);
        // The superseded version keeps its entry until GC reclaims it.
        assert_eq!(probe(&c, 1), vec![rid]);
        c.gc_table(t, 2).unwrap();
        assert!(probe(&c, 1).is_empty());
        assert_eq!(probe(&c, 99), vec![new_rid]);
    }

    #[test]
    fn modify_to_btree_removes_overflow_and_enables_pk_lookup() {
        let mut c = catalog();
        let t = c.create_table("people", people_schema(), vec![0]).unwrap();
        for i in 0..2000 {
            c.insert_row(t, &sample_row(i)).unwrap();
        }
        assert!(c.table(t).unwrap().heap.stats().overflow_ratio() > 0.1);
        c.modify_storage(t, StorageStructure::BTree).unwrap();
        let entry = c.table(t).unwrap();
        assert_eq!(entry.meta.storage, StorageStructure::BTree);
        assert!(entry.heap.stats().overflow_pages == 0);
        assert_eq!(entry.heap.row_count(), 2000);
        let rid = pk_head(entry, 1234).unwrap();
        assert_eq!(entry.heap.get(rid).unwrap(), sample_row(1234));
        assert!(pk_head(entry, 99999).is_none());
    }

    #[test]
    fn modify_rebuilds_secondary_indexes() {
        let mut c = catalog();
        let t = c.create_table("people", people_schema(), vec![0]).unwrap();
        for i in 0..1000 {
            c.insert_row(t, &sample_row(i)).unwrap();
        }
        let idx = c.create_index("people_age", t, vec![2], false).unwrap();
        c.modify_storage(t, StorageStructure::BTree).unwrap();
        let rids = c
            .index(idx)
            .unwrap()
            .probe(KeyProbe::Eq(&[Value::Int(3)]))
            .unwrap();
        assert_eq!(rids.len(), 20);
        for rid in rids {
            let row = c.table(t).unwrap().heap.get(rid).unwrap();
            assert_eq!(row.get(2), &Value::Int(3));
        }
    }

    #[test]
    fn virtual_indexes_are_metadata_only() {
        let mut c = catalog();
        let t = c.create_table("people", people_schema(), vec![0]).unwrap();
        c.insert_row(t, &sample_row(1)).unwrap();
        let mut what_if = crate::WhatIf::new(&c);
        let v = what_if.add_virtual_index("people", &["age"]).unwrap();
        let idx = what_if.index(v).unwrap();
        assert!(idx.meta.is_virtual);
        assert_eq!(idx.pages(), 0);
        assert!(idx.probe(KeyProbe::Eq(&[Value::Int(1)])).is_err());
        assert_eq!(what_if.indexes_of(t).len(), 1);
        assert_eq!(c.indexes_of(t).len(), 0);
    }

    #[test]
    fn base_ids_ignore_virtual_objects_and_survive_a_dump() {
        let mut c = catalog();
        c.register_virtual_table("ima$x", people_schema(), Arc::new(Vec::new))
            .unwrap();
        let a = c.create_table("a", people_schema(), vec![0]).unwrap();
        let what_if = crate::WhatIf::new(&c)
            .add_virtual_index("a", &["age"])
            .unwrap();
        let b = c.create_table("b", people_schema(), vec![0]).unwrap();
        c.drop_table("a").unwrap();
        let b_age = c.create_index("b_age", b, vec![2], false).unwrap();
        assert_eq!((a, b, b_age), (TableId(1), TableId(2), IndexId(1)));
        let ima_x = c.virtual_tables().next().map(|t| t.id);
        assert_eq!(ima_x, Some(TableId(u32::MAX)));
        assert_eq!(what_if, IndexId(u32::MAX));

        let mut back = Catalog::new(Arc::clone(c.pool()), 2);
        back.attach_schema(&c.dump_schema()).unwrap();
        assert_eq!(back.resolve_table("b").unwrap(), b);
        assert_eq!(back.index_by_name("b_age").unwrap().meta.id, b_age);
        // The counters resume: a dropped table's id is not handed out again.
        let c3 = back.create_table("c", people_schema(), vec![0]).unwrap();
        let c_age = back.create_index("c_age", c3, vec![2], false).unwrap();
        assert_eq!((c3, c_age), (TableId(3), IndexId(2)));
    }

    #[test]
    fn an_sc1_checkpoint_attaches_with_ids_in_order() {
        use crate::persist::{tests::encode_sc1, SchemaDump};
        let mut c = catalog();
        c.create_table("gone", people_schema(), vec![0]).unwrap();
        let a = c.create_table("a", people_schema(), vec![0]).unwrap();
        c.drop_table("gone").unwrap();
        let b = c.create_table("b", people_schema(), vec![0]).unwrap();
        for i in 0..30 {
            c.insert_row(b, &sample_row(i)).unwrap();
        }
        c.create_index("b_age", b, vec![2], false).unwrap();
        c.modify_storage(a, StorageStructure::BTree).unwrap();
        let sc1 = encode_sc1(&SchemaDump::decode(&c.dump_schema()).unwrap());

        let mut back = Catalog::new(Arc::clone(c.pool()), 2);
        back.attach_schema(&sc1).unwrap();
        assert_eq!(back.resolve_table("a").unwrap(), TableId(1));
        assert_eq!(back.resolve_table("b").unwrap(), TableId(2));
        let b_age = back.index_by_name("b_age").unwrap();
        assert_eq!(b_age.meta.id, IndexId(1));
        assert_eq!(
            b_age.probe(KeyProbe::Eq(&[Value::Int(7)])).unwrap().len(),
            1
        );
        assert_eq!(back.table(TableId(2)).unwrap().heap.row_count(), 30);
        assert_eq!(
            back.table(TableId(1)).unwrap().meta.storage,
            StorageStructure::BTree
        );
        let next = back.create_table("c", people_schema(), vec![0]).unwrap();
        assert_eq!(next, TableId(3));
    }

    #[test]
    fn collect_statistics_builds_histograms() {
        let mut c = catalog();
        let t = c.create_table("people", people_schema(), vec![0]).unwrap();
        for i in 0..500 {
            c.insert_row(t, &sample_row(i)).unwrap();
        }
        c.collect_statistics(t, &[], 42).unwrap();
        let stats = c.table(t).unwrap().stats.as_ref().unwrap();
        assert_eq!(stats.row_count, 500);
        assert_eq!(stats.collected_at_secs, 42);
        assert!(stats.has_histogram(0) && stats.has_histogram(2));
        assert_eq!(stats.distinct_count(2), Some(50));
    }

    #[test]
    fn range_probe() {
        let mut c = catalog();
        let t = c.create_table("people", people_schema(), vec![0]).unwrap();
        for i in 0..100 {
            c.insert_row(t, &sample_row(i)).unwrap();
        }
        let idx = c.create_index("people_id_idx", t, vec![0], false).unwrap();
        let rids = c
            .index(idx)
            .unwrap()
            .probe(KeyProbe::Range(
                Some(&Value::Int(10)),
                Some(&Value::Int(19)),
            ))
            .unwrap();
        assert_eq!(rids.len(), 10);
        // The clustered primary tree takes the same probes: a range on its
        // key, a key prefix walked, a full key looked up.
        c.modify_storage(t, StorageStructure::BTree).unwrap();
        let entry = c.table(t).unwrap();
        let ids = |rids: Vec<RowId>| -> Vec<Value> {
            let rows = rids.into_iter().map(|rid| entry.heap.get(rid).unwrap());
            rows.map(|row| row.get(0).clone()).collect()
        };
        let (lo, hi) = (Value::Int(95), Value::Int(97));
        let range = entry.probe_primary(KeyProbe::Range(Some(&lo), Some(&hi)));
        assert_eq!(ids(range.unwrap()), [95, 96, 97].map(Value::Int));
        let open = entry.probe_primary(KeyProbe::Range(Some(&lo), None));
        assert_eq!(
            ids(open.unwrap()),
            (95..100).map(Value::Int).collect::<Vec<_>>()
        );
        let below = entry.probe_primary(KeyProbe::Range(None, Some(&Value::Int(1))));
        assert_eq!(ids(below.unwrap()), [0, 1].map(Value::Int));
        let point = entry.probe_primary(KeyProbe::Eq(&[Value::Int(42)]));
        assert_eq!(ids(point.unwrap()), [Value::Int(42)]);
        assert!(entry
            .probe_primary(KeyProbe::Eq(&[Value::Int(420)]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn drop_table_removes_indexes() {
        let mut c = catalog();
        let t = c.create_table("people", people_schema(), vec![0]).unwrap();
        c.create_index("people_age", t, vec![2], false).unwrap();
        c.drop_table("people").unwrap();
        assert!(c.resolve_table("people").is_err());
        assert!(c.index_by_name("people_age").is_err());
    }
}
