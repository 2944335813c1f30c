//! Table and index entries: metadata plus live storage handles.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use ingot_common::mvcc::TS_INF;
use ingot_common::{
    ColumnSet, Error, IndexId, Result, Row, Schema, Snapshot, TableId, Value, WaitEvent, WaitGuard,
};
use ingot_storage::heap::HeapScan;
use ingot_storage::{BTreeFile, HeapFile, RowId, VersionMeta};

use crate::stats::TableStatistics;

/// The storage structure of a table, per Ingres' `MODIFY … TO` command.
///
/// `Heap` is the default: a fixed main-page extent plus overflow chains, no
/// keyed access. `BTree` stores a clustered B-Tree over the primary key and a
/// compacted, overflow-free heap, enabling keyed lookups — the structure the
/// analyzer's 10 %-overflow rule recommends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageStructure {
    /// Main pages + overflow chain, scan-only access.
    Heap,
    /// Clustered primary-key B-Tree over a compacted heap.
    BTree,
}

impl StorageStructure {
    /// The tag `MODIFY … TO` spells and the IMA tables report.
    pub fn as_str(self) -> &'static str {
        match self {
            StorageStructure::Heap => "HEAP",
            StorageStructure::BTree => "BTREE",
        }
    }
}

impl fmt::Display for StorageStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for StorageStructure {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        match s.to_ascii_uppercase().as_str() {
            "HEAP" => Ok(StorageStructure::Heap),
            "BTREE" | "B-TREE" => Ok(StorageStructure::BTree),
            other => Err(Error::parse(format!("unknown storage structure '{other}'"))),
        }
    }
}

/// Metadata of a base table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Stable id.
    pub id: TableId,
    /// Lower-cased name, shared with the plans that read the table.
    pub name: Arc<str>,
    /// Column definitions.
    pub schema: Schema,
    /// Positions of the primary-key columns (may be empty).
    pub primary_key: Vec<usize>,
    /// Current storage structure.
    pub storage: StorageStructure,
}

/// A table: metadata, storage handles and optimizer statistics.
///
/// Cloning is cheap (the storage handles are `Arc`s) and underpins the
/// catalog's copy-on-write snapshots: a clone shares the same live heap and
/// trees, so data written through one snapshot is visible through all.
#[derive(Clone)]
pub struct TableEntry {
    /// Metadata.
    pub meta: TableMeta,
    /// The row store (always present; compacted on `MODIFY`).
    pub heap: Arc<HeapFile>,
    /// Clustered primary-key tree, present when `storage == BTree` and the
    /// table declares a primary key.
    pub primary: Option<Arc<BTreeFile>>,
    /// Optimizer statistics; `None` until `CREATE STATISTICS` runs.
    pub stats: Option<TableStatistics>,
}

/// A row that passed its table's schema check ([`TableEntry::check_row`]),
/// together with the clustered-tree key it encodes to — the per-row work of
/// an insert, done once and shared by the constraint-key locks, the catalog
/// insert and the WAL image.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedRow {
    row: Row,
    pk_key: Option<Vec<u8>>,
}

impl CheckedRow {
    /// The schema-coerced row: exactly the image the heap stores.
    pub fn row(&self) -> &Row {
        &self.row
    }

    /// The encoded primary key; `None` when the table has no clustered tree.
    pub fn pk_key(&self) -> Option<&[u8]> {
        self.pk_key.as_deref()
    }
}

impl TableEntry {
    /// Validate and coerce `row` against the schema and encode its primary
    /// key.
    pub fn check_row(&self, row: &Row) -> Result<CheckedRow> {
        let row = self.meta.schema.check_row(row)?;
        let pk_key = self
            .primary
            .as_ref()
            .map(|_| ingot_storage::encode_key(&self.pk_values(&row)));
        Ok(CheckedRow { row, pk_key })
    }

    /// Extract the primary-key values of `row`.
    pub fn pk_values(&self, row: &Row) -> Vec<Value> {
        self.meta
            .primary_key
            .iter()
            .map(|&i| row.get(i).clone())
            .collect()
    }

    /// Row ids of the clustered primary tree's entries that `probe` selects:
    /// version-chain heads, in key order. A full key names at most one
    /// entry and is looked up; any other probe walks the tree
    /// ([`KeyProbe::walk`]).
    pub fn probe_primary(&self, probe: KeyProbe<'_>) -> Result<Vec<RowId>> {
        let Some(tree) = &self.primary else {
            let what = format!("table '{}' has no primary structure", self.meta.name);
            return Err(Error::storage(what));
        };
        match probe {
            KeyProbe::Eq(key) if key.len() == self.meta.primary_key.len() => {
                let found = tree.get(&ingot_storage::encode_key(key))?;
                Ok(found.iter().map(|v| row_id(v)).collect())
            }
            _ => probe.walk(tree),
        }
    }

    /// Resolve a version-chain head to the version visible under `snap`,
    /// walking `prev` pointers backwards from the head. The head is the
    /// common case (latest snapshot, short chains) and costs no walk; every
    /// step beyond it is charged to the [`WaitEvent::VersionChainWalk`] wait
    /// event — long walks mean the GC watermark is lagging behind readers.
    ///
    /// Visibility is tested on the version header; only the visible version
    /// is decoded, and of it only the `needed` columns (the rest read as
    /// `Null`).
    pub fn fetch_visible(
        &self,
        head: RowId,
        snap: &Snapshot,
        needed: ColumnSet,
    ) -> Result<Option<(RowId, Row)>> {
        let mut rid = head;
        let mut walk: Option<WaitGuard> = None;
        loop {
            let (meta, row) = self
                .heap
                .get_version_if(rid, needed, |m| snap.sees(m.begin, m.end))?;
            if let Some(row) = row {
                return Ok(Some((rid, row)));
            }
            if meta.prev == TS_INF {
                return Ok(None);
            }
            if walk.is_none() {
                walk = Some(WaitGuard::ambient(WaitEvent::VersionChainWalk));
            }
            rid = RowId::unpack(meta.prev);
        }
    }

    /// Fetch the `needed` columns of one exact version (no chain walk) if
    /// its header is visible under `snap`. Secondary indexes store one entry
    /// per version, so probes already land on the right physical record and
    /// only need a visibility filter.
    pub fn version_visible(
        &self,
        rid: RowId,
        snap: &Snapshot,
        needed: ColumnSet,
    ) -> Result<Option<Row>> {
        let (_, row) = self
            .heap
            .get_version_if(rid, needed, |m| snap.sees(m.begin, m.end))?;
        Ok(row)
    }

    /// Scan the heap returning the `needed` columns of only the versions
    /// visible under `snap`; invisible ones are skipped on their header,
    /// undecoded. Needs no chain walks: visibility is evaluated per physical
    /// version, and at most one version per chain passes.
    pub fn scan_visible<'a>(
        &'a self,
        snap: &'a Snapshot,
        needed: ColumnSet,
    ) -> HeapScan<'a, impl Fn(&VersionMeta) -> bool + 'a> {
        self.heap
            .scan_where(needed, move |m| snap.sees(m.begin, m.end))
    }

    /// Pages currently used by the table (heap + primary tree).
    pub fn data_pages(&self) -> u64 {
        let heap = self.heap.stats().total_pages();
        heap + self.primary.as_ref().map_or(0, |p| p.pages())
    }
}

/// Which entries of a B-Tree a probe reads, by the values of the tree's
/// leading key columns. The same for the clustered primary tree, whose key
/// is the primary key, and for a secondary index, whose key is its columns
/// followed by the row id.
#[derive(Debug, Clone, Copy)]
pub enum KeyProbe<'v> {
    /// Equality on a prefix of the key columns.
    Eq(&'v [Value]),
    /// `[lo, hi]` on the first key column, either bound optional.
    Range(Option<&'v Value>, Option<&'v Value>),
}

impl KeyProbe<'_> {
    /// The one probe walk: the row id stored with every entry of `tree` the
    /// probe selects, in key order. Collected before any is fetched, so no
    /// heap page is read under the tree's latches.
    pub fn walk(self, tree: &BTreeFile) -> Result<Vec<RowId>> {
        let (lo, hi) = match self {
            KeyProbe::Eq(values) => {
                let lo = ingot_storage::encode_key(values);
                let hi = past_extensions(&lo);
                (Some(lo), Some(hi))
            }
            KeyProbe::Range(lo, hi) => {
                let key = |v: &Value| ingot_storage::encode_key(std::slice::from_ref(v));
                (lo.map(key), hi.map(|v| past_extensions(&key(v))))
            }
        };
        let mut out = Vec::new();
        tree.for_each_in_range(lo.as_deref(), hi.as_deref(), |_, v| out.push(row_id(v)))?;
        Ok(out)
    }
}

/// Inclusive upper bound of every key that extends `prefix` (by further key
/// columns or an index entry's row-id suffix): encoded value bytes never
/// start with 0xFF, so nine 0xFF bytes outrank any suffix.
fn past_extensions(prefix: &[u8]) -> Vec<u8> {
    let mut hi = Vec::with_capacity(prefix.len() + 9);
    hi.extend_from_slice(prefix);
    hi.extend_from_slice(&[0xFF; 9]);
    hi
}

/// The row id a tree entry's value holds.
fn row_id(value: &[u8]) -> RowId {
    let packed = value.try_into().expect("tree values are packed row ids");
    RowId::unpack(u64::from_le_bytes(packed))
}

/// Metadata of a secondary index.
#[derive(Debug, Clone)]
pub struct IndexMeta {
    /// Stable id.
    pub id: IndexId,
    /// Lower-cased name, shared with the plans that probe the index.
    pub name: Arc<str>,
    /// The indexed table.
    pub table: TableId,
    /// Positions of the indexed columns within the table schema.
    pub columns: Vec<usize>,
    /// Whether duplicate keys are rejected.
    pub unique: bool,
    /// Hypothetical ("virtual") index, held only by a [`crate::WhatIf`]
    /// copy and never materialised — after AutoAdmin's what-if indexes.
    pub is_virtual: bool,
}

/// A secondary index: metadata plus the B-Tree (absent for virtual indexes).
#[derive(Clone)]
pub struct IndexEntry {
    /// Metadata.
    pub meta: IndexMeta,
    /// The backing tree; `None` for virtual indexes.
    pub tree: Option<Arc<BTreeFile>>,
}

impl IndexEntry {
    /// Compose the stored key: memcomparable column values + packed row id
    /// (the row id makes non-unique keys distinct in the tree).
    pub fn stored_key(values: &[Value], rid: RowId) -> Vec<u8> {
        let mut k = ingot_storage::encode_key(values);
        k.extend_from_slice(&rid.pack().to_be_bytes());
        k
    }

    /// Row ids of the entries `probe` selects: exact versions, in key
    /// order. A virtual index has no tree to probe.
    pub fn probe(&self, probe: KeyProbe<'_>) -> Result<Vec<RowId>> {
        let Some(tree) = &self.tree else {
            let name = &self.meta.name;
            return Err(Error::catalog(format!("index '{name}' is virtual")));
        };
        probe.walk(tree)
    }

    /// Pages used by the index (0 for virtual).
    pub fn pages(&self) -> u64 {
        self.tree.as_ref().map_or(0, |t| t.pages())
    }

    /// Entries in the index (0 for virtual).
    pub fn entry_count(&self) -> u64 {
        self.tree.as_ref().map_or(0, |t| t.entry_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_structure_parse_display() {
        assert_eq!(
            "btree".parse::<StorageStructure>().unwrap(),
            StorageStructure::BTree
        );
        assert_eq!(
            "HEAP".parse::<StorageStructure>().unwrap(),
            StorageStructure::Heap
        );
        assert!("isam".parse::<StorageStructure>().is_err());
        assert_eq!(StorageStructure::BTree.to_string(), "BTREE");
    }

    #[test]
    fn stored_key_disambiguates_duplicates() {
        let vals = [Value::Int(7)];
        let a = IndexEntry::stored_key(&vals, RowId::new(1, 0));
        let b = IndexEntry::stored_key(&vals, RowId::new(1, 1));
        assert_ne!(a, b);
        let prefix = ingot_storage::encode_key(&vals);
        assert!(a.starts_with(&prefix) && b.starts_with(&prefix));
    }
}
