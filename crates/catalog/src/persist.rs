//! Checkpoint schema serialization.
//!
//! A checkpoint stores the catalog's *physical* schema — every base table and
//! index together with the [`FileId`](ingot_storage::FileId)s of their storage files — as an opaque
//! blob inside the storage manifest (see `ingot-storage`'s recovery module).
//! On boot, [`crate::Catalog::attach_schema`] decodes the blob and re-attaches
//! the existing heap and tree files, after which WAL replay only has to redo
//! the committed records written *after* the checkpoint.
//!
//! Objects are identified by **name**, not id: table and index ids are
//! assigned in creation order and the attach path re-assigns them, so WAL
//! records and this blob both name objects by their lower-cased SQL name.
//!
//! Optimizer statistics (histograms) are deliberately *not* persisted: they
//! are advisory, and `CREATE STATISTICS` after recovery rebuilds them. This
//! mirrors the paper's split between the monitored workload (durable) and
//! derived tuning state (recomputable).
//!
//! Layout (all integers little-endian, strings length-prefixed with `u32`):
//!
//! ```text
//! magic    8  b"INGOTSC1"
//! tables   4  u32 count, then per table:
//!   name str, cols u32 × { name str, ty u8, nullable u8 },
//!   pk u32 × u32, storage u8 (0=heap 1=btree),
//!   heap_file u32, heap_main_pages u64,
//!   has_primary u8, [primary_file u32]
//! indexes  4  u32 count, then per index:
//!   name str, table str, cols u32 × u32, unique u8,
//!   is_virtual u8, [tree_file u32]
//! ```
//!
//! Decoding is strict: trailing bytes, truncated fields and unknown tags all
//! produce an error rather than a partial catalog — a torn blob must never
//! masquerade as a smaller schema.

use ingot_common::{Column, DataType, Error, Result, Schema};

use crate::table::StorageStructure;

const MAGIC: &[u8; 8] = b"INGOTSC1";

/// One table in a checkpoint schema blob.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDump {
    /// Lower-cased table name.
    pub name: String,
    /// Column definitions.
    pub schema: Schema,
    /// Primary-key column positions.
    pub primary_key: Vec<usize>,
    /// Storage structure at checkpoint time.
    pub storage: StorageStructure,
    /// Raw [`ingot_storage::FileId`] of the heap file.
    pub heap_file: u32,
    /// Main-extent size of the heap, in pages.
    pub heap_main_pages: u64,
    /// Raw file id of the clustered primary tree, when one exists.
    pub primary_file: Option<u32>,
}

/// One secondary index in a checkpoint schema blob.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDump {
    /// Lower-cased index name.
    pub name: String,
    /// Name of the indexed table.
    pub table: String,
    /// Indexed column positions.
    pub columns: Vec<usize>,
    /// Whether duplicate keys are rejected.
    pub unique: bool,
    /// Raw file id of the backing tree; `None` for virtual indexes.
    pub tree_file: Option<u32>,
}

/// The full physical schema captured by a checkpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchemaDump {
    /// Base tables in id (creation) order.
    pub tables: Vec<TableDump>,
    /// Indexes in id (creation) order.
    pub indexes: Vec<IndexDump>,
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn ty_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

fn ty_from_tag(tag: u8) -> Result<DataType> {
    match tag {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Str),
        3 => Ok(DataType::Bool),
        other => Err(corrupt(format!("unknown type tag {other}"))),
    }
}

fn corrupt(detail: impl std::fmt::Display) -> Error {
    Error::storage(format!("checkpoint schema blob corrupt: {detail}"))
}

/// Cursor over a byte slice with strict bounds-checked reads.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("truncated"))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| corrupt("truncated"))?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("invalid utf-8 string"))
    }

    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(format!("invalid bool tag {other}"))),
        }
    }
}

impl SchemaDump {
    /// Serialize to the manifest-meta byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.tables.len() * 64 + self.indexes.len() * 32);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for t in &self.tables {
            put_str(&mut buf, &t.name);
            buf.extend_from_slice(&(t.schema.len() as u32).to_le_bytes());
            for c in t.schema.columns() {
                put_str(&mut buf, &c.name);
                buf.push(ty_tag(c.ty));
                buf.push(u8::from(c.nullable));
            }
            buf.extend_from_slice(&(t.primary_key.len() as u32).to_le_bytes());
            for &pk in &t.primary_key {
                buf.extend_from_slice(&(pk as u32).to_le_bytes());
            }
            buf.push(match t.storage {
                StorageStructure::Heap => 0,
                StorageStructure::BTree => 1,
            });
            buf.extend_from_slice(&t.heap_file.to_le_bytes());
            buf.extend_from_slice(&t.heap_main_pages.to_le_bytes());
            match t.primary_file {
                Some(f) => {
                    buf.push(1);
                    buf.extend_from_slice(&f.to_le_bytes());
                }
                None => buf.push(0),
            }
        }
        buf.extend_from_slice(&(self.indexes.len() as u32).to_le_bytes());
        for i in &self.indexes {
            put_str(&mut buf, &i.name);
            put_str(&mut buf, &i.table);
            buf.extend_from_slice(&(i.columns.len() as u32).to_le_bytes());
            for &c in &i.columns {
                buf.extend_from_slice(&(c as u32).to_le_bytes());
            }
            buf.push(u8::from(i.unique));
            match i.tree_file {
                Some(f) => {
                    buf.push(0);
                    buf.push(1);
                    buf.extend_from_slice(&f.to_le_bytes());
                }
                None => {
                    buf.push(1);
                    buf.push(0);
                }
            }
        }
        buf
    }

    /// Parse a blob produced by [`SchemaDump::encode`]. Strict: trailing
    /// bytes or any truncation yield an error.
    pub fn decode(bytes: &[u8]) -> Result<SchemaDump> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let n_tables = r.u32()? as usize;
        let mut tables = Vec::with_capacity(n_tables.min(1024));
        for _ in 0..n_tables {
            let name = r.str()?;
            let n_cols = r.u32()? as usize;
            let mut cols = Vec::with_capacity(n_cols.min(1024));
            for _ in 0..n_cols {
                let cname = r.str()?;
                let ty = ty_from_tag(r.u8()?)?;
                let nullable = r.bool()?;
                let col = if nullable {
                    Column::new(cname, ty)
                } else {
                    Column::not_null(cname, ty)
                };
                cols.push(col);
            }
            let n_pk = r.u32()? as usize;
            let mut primary_key = Vec::with_capacity(n_pk.min(64));
            for _ in 0..n_pk {
                primary_key.push(r.u32()? as usize);
            }
            let storage = match r.u8()? {
                0 => StorageStructure::Heap,
                1 => StorageStructure::BTree,
                other => return Err(corrupt(format!("unknown storage tag {other}"))),
            };
            let heap_file = r.u32()?;
            let heap_main_pages = r.u64()?;
            let primary_file = if r.bool()? { Some(r.u32()?) } else { None };
            tables.push(TableDump {
                name,
                schema: Schema::new(cols),
                primary_key,
                storage,
                heap_file,
                heap_main_pages,
                primary_file,
            });
        }
        let n_indexes = r.u32()? as usize;
        let mut indexes = Vec::with_capacity(n_indexes.min(1024));
        for _ in 0..n_indexes {
            let name = r.str()?;
            let table = r.str()?;
            let n_cols = r.u32()? as usize;
            let mut columns = Vec::with_capacity(n_cols.min(64));
            for _ in 0..n_cols {
                columns.push(r.u32()? as usize);
            }
            let unique = r.bool()?;
            let is_virtual = r.bool()?;
            let tree_file = if r.bool()? { Some(r.u32()?) } else { None };
            if is_virtual != tree_file.is_none() {
                return Err(corrupt("virtual flag disagrees with tree presence"));
            }
            indexes.push(IndexDump {
                name,
                table,
                columns,
                unique,
                tree_file,
            });
        }
        if r.pos != bytes.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(SchemaDump { tables, indexes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SchemaDump {
        SchemaDump {
            tables: vec![
                TableDump {
                    name: "orders".into(),
                    schema: Schema::new(vec![
                        Column::not_null("id", DataType::Int),
                        Column::new("note", DataType::Str),
                        Column::new("paid", DataType::Bool),
                    ]),
                    primary_key: vec![0],
                    storage: StorageStructure::BTree,
                    heap_file: 0,
                    heap_main_pages: 4,
                    primary_file: Some(1),
                },
                TableDump {
                    name: "log".into(),
                    schema: Schema::new(vec![Column::new("x", DataType::Float)]),
                    primary_key: vec![],
                    storage: StorageStructure::Heap,
                    heap_file: 2,
                    heap_main_pages: 8,
                    primary_file: None,
                },
            ],
            indexes: vec![IndexDump {
                name: "orders_note".into(),
                table: "orders".into(),
                columns: vec![1],
                unique: false,
                tree_file: Some(3),
            }],
        }
    }

    #[test]
    fn roundtrip() {
        let dump = sample();
        let bytes = dump.encode();
        assert_eq!(SchemaDump::decode(&bytes).unwrap(), dump);
    }

    #[test]
    fn empty_roundtrip() {
        let dump = SchemaDump::default();
        assert_eq!(SchemaDump::decode(&dump.encode()).unwrap(), dump);
    }

    #[test]
    fn rejects_corruption() {
        let bytes = sample().encode();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(SchemaDump::decode(&bad).is_err());
        // Truncation at every prefix length must error, never panic.
        for cut in 0..bytes.len() {
            assert!(SchemaDump::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing bytes.
        let mut long = bytes.clone();
        long.push(0);
        assert!(SchemaDump::decode(&long).is_err());
    }
}
