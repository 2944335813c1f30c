//! The records held in the monitor's ring buffers — the Fig 3 schema — and
//! the one definition of each monitoring table's shape.

use ingot_common::waits::{WaitEvent, WaitTotal};
use ingot_common::{Column, Cost, DataType, IndexId, Schema, StmtHash, TableId, Value};

/// The shape of one `ima$` table, defined once beside its record.
///
/// "Each class of IMA objects can be registered as a virtual table" (§IV-A)
/// through this one idiom: the engine registers [`IMA`](Self::IMA) with
/// [`schema`](Self::schema) — its own tables in `engine/builder.rs`, the
/// three filled outside it through `Engine::attach` — and serves provider
/// records through [`encode`](Self::encode). `ima::export` renders the same
/// records as the engine's Prometheus metrics. Implemented through
/// `record!`, one line per column.
pub trait Record: Sized {
    /// The live virtual table serving these records.
    const IMA: &'static str;
    /// Ordered `(name, type, not null)` columns. The first column is NOT
    /// NULL whatever its flag says; the flag marks the others that are.
    const COLUMNS: &'static [(&'static str, DataType, bool)];

    /// One value per column.
    fn encode(self) -> Vec<Value>;

    /// The columns as a catalog schema.
    fn schema() -> Schema {
        Schema::new(
            Self::COLUMNS
                .iter()
                .enumerate()
                .map(|(i, &(name, ty, not_null))| Column {
                    nullable: i > 0 && !not_null,
                    ..Column::new(name, ty)
                })
                .collect(),
        )
    }
}

/// A [`Record`] the storage daemon copies into the workload database.
///
/// "The workload database … contains the same table schema as the one used
/// in IMA" (§IV-B) because both sides take it from the record: the daemon
/// creates [`WL`](Self::WL) as the same columns plus `boot` and `ts` and
/// appends the same encoding plus the source's boot identity and the poll's
/// timestamp.
pub trait Copied: Record {
    /// The workload-DB table keeping them.
    const WL: &'static str;
}

/// A [`Copied`] record the analyzer reads back from its `wl_` rows.
pub trait ReadBack: Copied {
    /// Inverse of [`encode`](Record::encode): reads one value per column off
    /// `cells` and leaves what follows (the daemon's `boot` and `ts`)
    /// unread. `None` when a value is missing or not of the column's type.
    fn decode(cells: &mut Cells<'_>) -> Option<Self>;
}

/// A row's values, read left to right by [`ReadBack::decode`].
pub type Cells<'a> = std::slice::Iter<'a, Value>;

/// Implement [`Record`] for `$rec` from one line per column:
/// `"column": Type = <value of the record $r>`, with `not_null` after the
/// type for a NOT NULL column past the first. A `wl_` name after the `ima$`
/// one implements [`Copied`] too; naming the cells `$c` beside `$r` as well
/// implements [`ReadBack`] from the same lines:
/// `"column": Type = <value> => field: <read off cells $c>`, a field
/// spanning two columns read on the first of them.
macro_rules! record {
    ($rec:ident, $ima:expr, $wl:literal, |$r:ident, $c:ident| {
        $($col:literal: $ty:ident = $enc:expr $(=> $field:ident: $dec:expr)?,)*
    }) => {
        $crate::monitor::records::record!($rec, $ima, $wl, |$r| { $($col: $ty = $enc,)* });

        impl $crate::monitor::records::ReadBack for $rec {
            fn decode(
                $c: &mut $crate::monitor::records::Cells<'_>,
            ) -> Option<Self> {
                Some($rec { $($($field: $dec,)?)* })
            }
        }
    };
    ($rec:ty, $ima:expr, $($wl:literal,)? |$r:pat_param| {
        $($col:literal: $ty:ident $($not_null:ident)? = $enc:expr,)*
    }) => {
        impl $crate::monitor::records::Record for $rec {
            const IMA: &'static str = $ima;
            const COLUMNS: &'static [(&'static str, ingot_common::DataType, bool)] = &[$((
                $col,
                ingot_common::DataType::$ty,
                $crate::monitor::records::not_null!($($not_null)?),
            )),*];

            fn encode(self) -> Vec<ingot_common::Value> {
                let $r = self;
                vec![$($enc.into()),*]
            }
        }

        $(impl $crate::monitor::records::Copied for $rec {
            const WL: &'static str = $wl;
        })?
    };
}
pub(crate) use record;

/// The NOT NULL flag of a `record!` column.
macro_rules! not_null {
    () => {
        false
    };
    (not_null) => {
        true
    };
}
pub(crate) use not_null;

pub(crate) fn v_int(v: u64) -> Value {
    Value::Int(v as i64)
}

pub(crate) fn int(cells: &mut Cells<'_>) -> Option<u64> {
    cells.next()?.as_int().map(|n| n as u64)
}

fn float(cells: &mut Cells<'_>) -> Option<f64> {
    cells.next()?.as_f64()
}

pub(crate) fn text<'a>(cells: &mut Cells<'a>) -> Option<&'a str> {
    cells.next()?.as_str()
}

/// Longest statement text (or template) the monitor files, in bytes: a
/// `wl_statements` / `wl_ash` row has to fit one workload-DB heap page.
pub const FILED_TEXT_MAX: usize = 4096;

/// `text` cut to at most [`FILED_TEXT_MAX`] bytes, on a char boundary.
pub(crate) fn filed_text(text: &str) -> &str {
    let mut end = text.len().min(FILED_TEXT_MAX);
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    &text[..end]
}

/// A statement hash, stored as the 16 hex digits it displays as.
pub(crate) fn hash(cells: &mut Cells<'_>) -> Option<StmtHash> {
    u64::from_str_radix(text(cells)?, 16).ok().map(StmtHash)
}

fn table_id(cells: &mut Cells<'_>) -> Option<TableId> {
    int(cells).map(|id| TableId(id as u32))
}

/// One unique statement (`statements` table of Fig 3).
#[derive(Debug, Clone)]
pub struct StatementInfo {
    /// Hash of the statement text — the key referencing all other tables.
    pub hash: StmtHash,
    /// The statement text.
    pub text: String,
    /// Times this statement executed since it entered the buffer.
    pub frequency: u64,
    /// Monotonic nanos of first execution.
    pub first_seen_ns: u64,
    /// Monotonic nanos of latest execution.
    pub last_seen_ns: u64,
}

record!(StatementInfo, "ima$statements", "wl_statements", |s, c| {
    "hash": Str = s.hash.to_string() => hash: hash(c)?,
    "query_text": Str = s.text => text: text(c)?.to_owned(),
    "frequency": Int = v_int(s.frequency) => frequency: int(c)?,
    "first_seen_ns": Int = v_int(s.first_seen_ns) => first_seen_ns: int(c)?,
    "last_seen_ns": Int = v_int(s.last_seen_ns) => last_seen_ns: int(c)?,
});

/// One execution (`workload` table of Fig 3).
#[derive(Debug, Clone)]
pub struct WorkloadRecord {
    /// Statement key.
    pub hash: StmtHash,
    /// Global execution sequence number.
    pub seq: u64,
    /// Optimiser CPU time (nanoseconds spent planning).
    pub opt_time_ns: u64,
    /// Optimiser disk I/O: physical page I/O charged while optimizing
    /// (statistics and what-if probes read on its behalf); 0 for a plan
    /// served from the cache.
    pub opt_io: u64,
    /// Execution CPU: tuples processed.
    pub exec_cpu: u64,
    /// Execution disk I/O: physical page reads + writes.
    pub exec_io: u64,
    /// Estimated cost from the optimizer.
    pub est: Cost,
    /// Wall-clock to execute, nanoseconds.
    pub wallclock_ns: u64,
    /// Nanoseconds spent inside monitoring code for this statement (the
    /// monitor's self-timing, which produces Fig 5 without a profiler).
    pub monitor_ns: u64,
    /// Monotonic timestamp (nanos) of statement start.
    pub at_ns: u64,
    /// Simulated-clock seconds of statement start.
    pub at_sim_secs: u64,
}

record!(WorkloadRecord, "ima$workload", "wl_workload", |w, c| {
    "hash": Str = w.hash.to_string() => hash: hash(c)?,
    "seq": Int = v_int(w.seq) => seq: int(c)?,
    "opt_cpu_ns": Int = v_int(w.opt_time_ns) => opt_time_ns: int(c)?,
    "opt_dio": Int = v_int(w.opt_io) => opt_io: int(c)?,
    "exec_cpu": Int = v_int(w.exec_cpu) => exec_cpu: int(c)?,
    "exec_dio": Int = v_int(w.exec_io) => exec_io: int(c)?,
    "est_cpu": Float = w.est.cpu => est: Cost::new(float(c)?, float(c)?),
    "est_dio": Float = w.est.io,
    "wallclock_ns": Int = v_int(w.wallclock_ns) => wallclock_ns: int(c)?,
    "monitor_ns": Int = v_int(w.monitor_ns) => monitor_ns: int(c)?,
    "at_ns": Int = v_int(w.at_ns) => at_ns: int(c)?,
    "at_secs": Int = v_int(w.at_sim_secs) => at_sim_secs: int(c)?,
});

/// What kind of object a `references` row points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefObject {
    /// A base table.
    Table,
    /// An attribute (column), `object_id` = column position.
    Attribute,
    /// An index.
    Index,
}

impl RefObject {
    /// Stable textual tag used in the IMA relation.
    pub fn tag(self) -> &'static str {
        match self {
            RefObject::Table => "table",
            RefObject::Attribute => "attribute",
            RefObject::Index => "index",
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: &str) -> Option<RefObject> {
        [RefObject::Table, RefObject::Attribute, RefObject::Index]
            .into_iter()
            .find(|o| o.tag() == tag)
    }
}

/// One object reference of a statement (`references` table of Fig 3).
#[derive(Debug, Clone)]
pub struct ReferenceRecord {
    /// Statement key.
    pub hash: StmtHash,
    /// Object kind.
    pub object: RefObject,
    /// Object id (table id raw / column position / index id raw).
    pub object_id: u64,
    /// Owning table.
    pub table: TableId,
}

record!(ReferenceRecord, "ima$references", "wl_references", |r, c| {
    "hash": Str = r.hash.to_string() => hash: hash(c)?,
    "object_type": Str = r.object.tag() => object: RefObject::from_tag(text(c)?)?,
    "object_id": Int = v_int(r.object_id) => object_id: int(c)?,
    "table_id": Int = v_int(r.table.raw().into()) => table: table_id(c)?,
});

/// Frequency and storage info of a referenced table (`tables` of Fig 3).
#[derive(Debug, Clone)]
pub struct TableUsage {
    /// Table id.
    pub id: TableId,
    /// Table name.
    pub name: String,
    /// Statements that referenced the table.
    pub frequency: u64,
    /// Storage structure at last reference ("HEAP"/"BTREE").
    pub storage: String,
    /// Main data pages at last reference.
    pub data_pages: u64,
    /// Overflow pages at last reference.
    pub overflow_pages: u64,
    /// Live rows at last reference.
    pub rows: u64,
}

record!(TableUsage, "ima$tables", "wl_tables", |t, c| {
    "table_id": Int = v_int(t.id.raw().into()) => id: table_id(c)?,
    "table_name": Str = t.name => name: text(c)?.to_owned(),
    "frequency": Int = v_int(t.frequency) => frequency: int(c)?,
    "storage": Str = t.storage => storage: text(c)?.to_owned(),
    "data_pages": Int = v_int(t.data_pages) => data_pages: int(c)?,
    "overflow_pages": Int = v_int(t.overflow_pages) => overflow_pages: int(c)?,
    "row_count": Int = v_int(t.rows) => rows: int(c)?,
});

/// Frequency info of a referenced index (`indexes` of Fig 3).
#[derive(Debug, Clone)]
pub struct IndexUsage {
    /// Index id.
    pub id: IndexId,
    /// Index name.
    pub name: String,
    /// Owning table.
    pub table: TableId,
    /// Recorded statements — queries and the target search of `UPDATE` and
    /// `DELETE` alike — whose chosen plan probes this index.
    pub frequency: u64,
    /// Pages at last reference.
    pub pages: u64,
}

record!(IndexUsage, "ima$indexes", "wl_indexes", |i| {
    "index_id": Int = v_int(i.id.raw().into()),
    "index_name": Str = i.name,
    "table_id": Int = v_int(i.table.raw().into()),
    "frequency": Int = v_int(i.frequency),
    "pages": Int = v_int(i.pages),
});

/// Frequency info of a referenced attribute (`attributes` of Fig 3).
#[derive(Debug, Clone)]
pub struct AttributeUsage {
    /// Owning table.
    pub table: TableId,
    /// Column position.
    pub column: usize,
    /// Column name.
    pub name: String,
    /// Statements that referenced the attribute.
    pub frequency: u64,
    /// Whether a histogram existed at last reference.
    pub has_histogram: bool,
}

record!(AttributeUsage, "ima$attributes", "wl_attributes", |a, c| {
    "table_id": Int = v_int(a.table.raw().into()) => table: table_id(c)?,
    "attr_id": Int = v_int(a.column as u64) => column: int(c)? as usize,
    "attr_name": Str = a.name => name: text(c)?.to_owned(),
    "frequency": Int = v_int(a.frequency) => frequency: int(c)?,
    "has_histogram": Bool = a.has_histogram => has_histogram: c.next()?.as_bool()?,
});

/// One system-wide statistics sample (`statistics` of Fig 3).
#[derive(Debug, Clone, Default)]
pub struct StatSample {
    /// Monotonic nanos of the sample.
    pub at_ns: u64,
    /// Simulated-clock seconds of the sample.
    pub at_sim_secs: u64,
    /// Open sessions.
    pub sessions: u64,
    /// Peak concurrent sessions ("maximum sessions").
    pub max_sessions: u64,
    /// Locks currently granted.
    pub locks_held: u64,
    /// Transactions currently blocked on a lock.
    pub lock_waiting: u64,
    /// Cumulative lock waits.
    pub lock_waits_total: u64,
    /// Cumulative deadlocks.
    pub deadlocks_total: u64,
    /// Active transactions.
    pub active_txns: u64,
    /// Buffer-cache hits (cumulative).
    pub cache_hits: u64,
    /// Buffer-cache misses (cumulative).
    pub cache_misses: u64,
    /// Pages the buffer pool evicted to make room (cumulative).
    pub evictions: u64,
    /// Pages resident in the buffer pool now; above the configured
    /// capacity when dirty pages (never written back to make room) pile up.
    pub resident_pages: u64,
    /// Physical page reads (cumulative).
    pub physical_reads: u64,
    /// Of those, reads the I/O model classified as sequential.
    pub seq_reads: u64,
    /// Of those, reads classified as random.
    pub rand_reads: u64,
    /// Physical page writes (cumulative).
    pub physical_writes: u64,
    /// Statements executed so far.
    pub statements_executed: u64,
}

record!(StatSample, "ima$statistics", "wl_statistics", |s, c| {
    "at_ns": Int = v_int(s.at_ns) => at_ns: int(c)?,
    "at_secs": Int = v_int(s.at_sim_secs) => at_sim_secs: int(c)?,
    "sessions": Int = v_int(s.sessions) => sessions: int(c)?,
    "max_sessions": Int = v_int(s.max_sessions) => max_sessions: int(c)?,
    "locks_held": Int = v_int(s.locks_held) => locks_held: int(c)?,
    "lock_waiting": Int = v_int(s.lock_waiting) => lock_waiting: int(c)?,
    "lock_waits_total": Int = v_int(s.lock_waits_total) => lock_waits_total: int(c)?,
    "deadlocks_total": Int = v_int(s.deadlocks_total) => deadlocks_total: int(c)?,
    "active_txns": Int = v_int(s.active_txns) => active_txns: int(c)?,
    "cache_hits": Int = v_int(s.cache_hits) => cache_hits: int(c)?,
    "cache_misses": Int = v_int(s.cache_misses) => cache_misses: int(c)?,
    "evictions": Int = v_int(s.evictions) => evictions: int(c)?,
    "resident_pages": Int = v_int(s.resident_pages) => resident_pages: int(c)?,
    "physical_reads": Int = v_int(s.physical_reads) => physical_reads: int(c)?,
    "seq_reads": Int = v_int(s.seq_reads) => seq_reads: int(c)?,
    "rand_reads": Int = v_int(s.rand_reads) => rand_reads: int(c)?,
    "physical_writes": Int = v_int(s.physical_writes) => physical_writes: int(c)?,
    "statements_executed": Int = v_int(s.statements_executed) => statements_executed: int(c)?,
});

// Cumulative wait totals: the record lives in `ingot-common`, below this
// trait, so its shape is defined here.
record!(WaitTotal, "ima$wait_events", "wl_waits", |t, c| {
    "event": Str = t.event.name() => event: WaitEvent::from_name(text(c)?)?,
    "count": Int = v_int(t.count) => count: int(c)?,
    "total_ns": Int = v_int(t.total_ns) => total_ns: int(c)?,
});
