//! Checkpoint schema serialization.
//!
//! A checkpoint stores the catalog's *physical* schema — every base table and
//! index together with the [`FileId`](ingot_storage::FileId)s of their storage files — as an opaque
//! blob inside the storage manifest (see `ingot-storage`'s recovery module).
//! On boot, [`crate::Catalog::attach_schema`] decodes the blob and re-attaches
//! the existing heap and tree files, after which WAL replay only has to redo
//! the committed records written *after* the checkpoint.
//!
//! Objects keep their ids: the blob records each one's id and both id
//! counters, so a `table_id` names the same table after a restart, and a
//! CREATE that WAL replay redoes by name takes the id it took the first time.
//!
//! Optimizer statistics (histograms) are deliberately *not* persisted: they
//! are advisory, and `CREATE STATISTICS` after recovery rebuilds them. This
//! mirrors the paper's split between the monitored workload (durable) and
//! derived tuning state (recomputable).
//!
//! Layout (all integers little-endian, strings length-prefixed with `u32`;
//! the fields marked SC2 are absent from an `INGOTSC1` blob, whose objects
//! take ids in blob order):
//!
//! ```text
//! magic    8  b"INGOTSC2" (or b"INGOTSC1")
//! counters    SC2: next_table u32, next_index u32
//! tables   4  u32 count, then per table:
//!   SC2: id u32,
//!   name str, cols u32 × { name str, ty u8, nullable u8 },
//!   pk u32 × u32, storage u8 (0=heap 1=btree),
//!   heap_file u32, heap_main_pages u64,
//!   has_primary u8, [primary_file u32]
//! indexes  4  u32 count, then per index:
//!   SC2: id u32,
//!   name str, table str, cols u32 × u32, unique u8,
//!   is_virtual u8, [tree_file u32]
//! ```
//!
//! Decoding is strict: trailing bytes, truncated fields, unknown tags and a
//! counter at or below an id it should exceed all produce an error rather
//! than a partial catalog — a torn blob must never masquerade as a smaller
//! schema.

use ingot_common::{Column, DataType, Error, IndexId, Result, Schema, TableId};

use crate::table::StorageStructure;

const MAGIC: &[u8; 8] = b"INGOTSC2";
/// The first layout, without ids; still attached.
const MAGIC_SC1: &[u8; 8] = b"INGOTSC1";

/// One table in a checkpoint schema blob.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDump {
    /// The table's id.
    pub id: TableId,
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
    /// The index's id.
    pub id: IndexId,
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
    /// The id the next base table will take.
    pub next_table: u32,
    /// The id the next real index will take.
    pub next_index: u32,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A count, then each position.
fn put_list(buf: &mut Vec<u8>, list: &[usize]) {
    put_u32(buf, list.len() as u32);
    list.iter().for_each(|&v| put_u32(buf, v as u32));
}

/// A presence flag, then the value when present.
fn put_opt(buf: &mut Vec<u8>, v: Option<u32>) {
    buf.push(u8::from(v.is_some()));
    v.into_iter().for_each(|v| put_u32(buf, v));
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
        let end = self.pos.saturating_add(n);
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| corrupt("truncated"))?;
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
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

    /// A count, then that many items, each read by `item` with its position.
    fn items<T>(&mut self, mut item: impl FnMut(&mut Self, u32) -> Result<T>) -> Result<Vec<T>> {
        let n = self.u32()?;
        (0..n).map(|i| item(self, i)).collect()
    }

    /// See [`put_list`].
    fn list(&mut self) -> Result<Vec<usize>> {
        self.items(|r, _| Ok(r.u32()? as usize))
    }

    /// See [`put_opt`].
    fn opt(&mut self) -> Result<Option<u32>> {
        self.bool()?.then(|| self.u32()).transpose()
    }
}

impl SchemaDump {
    /// Serialize to the manifest-meta byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.tables.len() * 64 + self.indexes.len() * 32);
        buf.extend_from_slice(MAGIC);
        put_u32(&mut buf, self.next_table);
        put_u32(&mut buf, self.next_index);
        put_u32(&mut buf, self.tables.len() as u32);
        for t in &self.tables {
            put_u32(&mut buf, t.id.raw());
            put_str(&mut buf, &t.name);
            put_u32(&mut buf, t.schema.len() as u32);
            for c in t.schema.columns() {
                put_str(&mut buf, &c.name);
                buf.push(ty_tag(c.ty));
                buf.push(u8::from(c.nullable));
            }
            put_list(&mut buf, &t.primary_key);
            buf.push(match t.storage {
                StorageStructure::Heap => 0,
                StorageStructure::BTree => 1,
            });
            put_u32(&mut buf, t.heap_file);
            buf.extend_from_slice(&t.heap_main_pages.to_le_bytes());
            put_opt(&mut buf, t.primary_file);
        }
        put_u32(&mut buf, self.indexes.len() as u32);
        for i in &self.indexes {
            put_u32(&mut buf, i.id.raw());
            put_str(&mut buf, &i.name);
            put_str(&mut buf, &i.table);
            put_list(&mut buf, &i.columns);
            buf.push(u8::from(i.unique));
            buf.push(u8::from(i.tree_file.is_none()));
            put_opt(&mut buf, i.tree_file);
        }
        buf
    }

    /// Parse a blob produced by [`SchemaDump::encode`], or an `INGOTSC1`
    /// blob, whose objects take ids 1, 2, … in blob order. Strict: trailing
    /// bytes or any truncation yield an error.
    pub fn decode(bytes: &[u8]) -> Result<SchemaDump> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let ids = match r.take(MAGIC.len())? {
            m if m == MAGIC => true,
            m if m == MAGIC_SC1 => false,
            _ => return Err(corrupt("bad magic")),
        };
        let counters = ids
            .then(|| -> Result<_> { Ok((r.u32()?, r.u32()?)) })
            .transpose()?;
        // Under SC1 the n-th object takes id n.
        let id = |r: &mut Reader<'_>, n: u32| if ids { r.u32() } else { Ok(n + 1) };
        let tables = r.items(|r, n| {
            let id = TableId(id(r, n)?);
            let name = r.str()?;
            let cols = r.items(|r, _| {
                let (name, ty, nullable) = (r.str()?, ty_from_tag(r.u8()?)?, r.bool()?);
                Ok(Column { name, ty, nullable })
            })?;
            let primary_key = r.list()?;
            let storage = match r.u8()? {
                0 => StorageStructure::Heap,
                1 => StorageStructure::BTree,
                other => return Err(corrupt(format!("unknown storage tag {other}"))),
            };
            Ok(TableDump {
                id,
                name,
                schema: Schema::new(cols),
                primary_key,
                storage,
                heap_file: r.u32()?,
                heap_main_pages: r.u64()?,
                primary_file: r.opt()?,
            })
        })?;
        let indexes = r.items(|r, n| {
            let id = IndexId(id(r, n)?);
            let (name, table, columns) = (r.str()?, r.str()?, r.list()?);
            let (unique, is_virtual, tree_file) = (r.bool()?, r.bool()?, r.opt()?);
            if is_virtual != tree_file.is_none() {
                return Err(corrupt("virtual flag disagrees with tree presence"));
            }
            Ok(IndexDump {
                id,
                name,
                table,
                columns,
                unique,
                tree_file,
            })
        })?;
        if r.pos != bytes.len() {
            return Err(corrupt("trailing bytes"));
        }
        let (next_table, next_index) =
            counters.unwrap_or((tables.len() as u32 + 1, indexes.len() as u32 + 1));
        if tables.iter().any(|t| t.id.raw() >= next_table)
            || indexes.iter().any(|i| i.id.raw() >= next_index)
        {
            return Err(corrupt("an id counter is at or below an id it handed out"));
        }
        Ok(SchemaDump {
            tables,
            indexes,
            next_table,
            next_index,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `dump` in the `INGOTSC1` layout, as the encoder wrote it before blobs
    /// carried ids: [`SchemaDump::encode`] without the id fields.
    pub(crate) fn encode_sc1(dump: &SchemaDump) -> Vec<u8> {
        let mut buf = MAGIC_SC1.to_vec();
        put_u32(&mut buf, dump.tables.len() as u32);
        for t in &dump.tables {
            put_str(&mut buf, &t.name);
            put_u32(&mut buf, t.schema.len() as u32);
            for c in t.schema.columns() {
                put_str(&mut buf, &c.name);
                buf.push(ty_tag(c.ty));
                buf.push(u8::from(c.nullable));
            }
            put_list(&mut buf, &t.primary_key);
            buf.push(u8::from(t.storage == StorageStructure::BTree));
            put_u32(&mut buf, t.heap_file);
            buf.extend_from_slice(&t.heap_main_pages.to_le_bytes());
            put_opt(&mut buf, t.primary_file);
        }
        put_u32(&mut buf, dump.indexes.len() as u32);
        for i in &dump.indexes {
            put_str(&mut buf, &i.name);
            put_str(&mut buf, &i.table);
            put_list(&mut buf, &i.columns);
            buf.push(u8::from(i.unique));
            buf.push(u8::from(i.tree_file.is_none()));
            put_opt(&mut buf, i.tree_file);
        }
        buf
    }

    /// Ids with gaps, as drops leave them.
    fn sample() -> SchemaDump {
        SchemaDump {
            tables: vec![
                TableDump {
                    id: TableId(2),
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
                    id: TableId(5),
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
                id: IndexId(3),
                name: "orders_note".into(),
                table: "orders".into(),
                columns: vec![1],
                unique: false,
                tree_file: Some(3),
            }],
            next_table: 7,
            next_index: 4,
        }
    }

    #[test]
    fn roundtrip() {
        let dump = sample();
        let bytes = dump.encode();
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(SchemaDump::decode(&bytes).unwrap(), dump);
    }

    #[test]
    fn empty_roundtrip() {
        let dump = SchemaDump {
            next_table: 1,
            next_index: 1,
            ..SchemaDump::default()
        };
        assert_eq!(SchemaDump::decode(&dump.encode()).unwrap(), dump);
    }

    /// `sample()` as the `INGOTSC1` encoder wrote it, before blobs carried
    /// ids.
    fn sc1_blob() -> Vec<u8> {
        let hex = concat!(
            "494e474f5453433102000000060000006f7264657273030000000200000069640000",
            "040000006e6f74650201040000007061696403010100000000000000010000000004",
            "000000000000000101000000030000006c6f67010000000100000078010100000000",
            "0002000000080000000000000000010000000b0000006f72646572735f6e6f746506",
            "0000006f7264657273010000000100000000000103000000",
        );
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sc1_blobs_take_ids_in_order() {
        assert_eq!(
            encode_sc1(&sample()),
            sc1_blob(),
            "the test writer is the old encoder"
        );
        let dump = SchemaDump::decode(&sc1_blob()).unwrap();
        let ids: Vec<u32> = dump.tables.iter().map(|t| t.id.raw()).collect();
        assert_eq!(ids, [1, 2]);
        assert_eq!(dump.indexes[0].id, IndexId(1));
        assert_eq!((dump.next_table, dump.next_index), (3, 2));
        let mut expected = sample();
        for (t, id) in expected.tables.iter_mut().zip(1..) {
            t.id = TableId(id);
        }
        expected.indexes[0].id = IndexId(1);
        (expected.next_table, expected.next_index) = (3, 2);
        assert_eq!(dump, expected);
    }

    #[test]
    fn rejects_corruption() {
        for bytes in [sample().encode(), sc1_blob()] {
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
        // A counter that would hand out an id again.
        let stale = SchemaDump {
            next_table: 5,
            ..sample()
        };
        assert!(SchemaDump::decode(&stale.encode()).is_err());
    }
}
