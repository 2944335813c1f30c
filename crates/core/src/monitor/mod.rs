//! The monitor: local sensors + ring buffers.
//!
//! The design follows §IV-A of the paper: the monitor "does not call the
//! DBMS modules such as the optimizer or parser but is part of each of those
//! modules" — concretely, the engine's statement path creates a
//! [`StatementSensor`] and feeds it with values the stages already have in
//! hand (text, bind artifacts, estimated costs, actual costs). No extra
//! thread, no extra catalog or disk access.
//!
//! The monitor times itself against the statement's own clock (Fig 5 falls
//! out of the recorded data without external profiling), by region rather
//! than by call: the engine charges the begin region through
//! [`StatementSensor::add_self_time`], and [`Monitor::record`] charges
//! everything from the statement's end stamp to its own single clock read.
//!
//! The per-statement budget, once a statement and the objects it references
//! have been seen: no allocation, two clock reads the bare engine would not
//! make (end of begin, the one in `record`), and — for a prepared handle,
//! which keeps its statement's cell — no lock and no map probe. Each
//! `ima$…` row that moves per execution is a set of atomics reached through
//! what the statement already holds: the usage cells of its template's
//! [`Footprint`], its own statement cell, and a slot of the lock-free
//! workload ring. The monitor lock is taken when a template is interned
//! and when a statement is recorded without a kept cell (first sight, the
//! text path, re-entry after the statement ring wrapped).
//! First sight of a new text (the paper's 50k test) does no per-object work
//! either: texts that bind to the same objects share one interned
//! footprint, a text that is its template files the template's `Arc`, and
//! `ima$references` is read off the footprints the held statements keep.

pub mod records;
mod ring;

/// The atomics the workload ring is built from.
mod atomic {
    pub(super) use std::sync::atomic::{fence, AtomicU64, Ordering};
}

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ingot_catalog::Catalog;
use ingot_common::{Cost, EngineConfig, IndexId, MonotonicClock, RingBuffer, StmtHash, TableId};
use ingot_planner::{
    AttributeRef, BindArtifacts, CachedPlan, Footprint, IndexRef, TableRef, UsageCell,
};
use parking_lot::Mutex;

pub use records::{
    AttributeUsage, Cells, Copied, IndexUsage, ReadBack, Record, RefObject, ReferenceRecord,
    StatSample, StatementInfo, TableUsage, WorkloadRecord,
};
use ring::WorkloadRing;

/// The in-flight sensor state of one statement. It borrows the statement
/// text and its template (filed in the `statements` buffer on first sight
/// only) and holds the plan it ran, whose interned [`Footprint`] names what
/// it referenced.
pub struct StatementSensor<'a> {
    start_ns: u64,
    hash: StmtHash,
    text: &'a str,
    template: &'a Arc<str>,
    /// Where a prepared handle keeps its statement cell.
    kept: Option<&'a KeptCell>,
    plan: Option<Arc<CachedPlan>>,
    est: Cost,
    opt_time_ns: u64,
    opt_io: u64,
    exec_cpu: u64,
    exec_io: u64,
    /// Nanoseconds spent inside observer code so far.
    self_ns: u64,
}

impl<'a> StatementSensor<'a> {
    /// Attribute a measured region of observer work (the engine's begin
    /// region, interning a footprint, a tracer merge) to this statement's
    /// self-time.
    pub fn add_self_time(&mut self, ns: u64) {
        self.self_ns += ns;
    }

    /// Record into (and, after the first execution, straight through) the
    /// statement cell `kept` holds, instead of finding it under the lock.
    pub(crate) fn keep_cell_in(&mut self, kept: &'a KeptCell) {
        self.kept = Some(kept);
    }

    /// Parser/binder sensor: the plan the statement ran, handed over when
    /// the statement is done with it. Its interned footprint names the
    /// referenced tables, attributes and used indexes.
    #[inline]
    pub fn parsed(&mut self, plan: Arc<CachedPlan>) {
        self.plan = Some(plan);
    }

    fn footprint(&self) -> Option<&Arc<Footprint>> {
        self.plan.as_ref()?.artifacts.footprint.as_ref()
    }

    /// Optimiser sensor: estimated costs, planning time, and pages read on
    /// the optimizer's behalf (catalog statistics, virtual what-if probes).
    /// The used indexes ride the footprint.
    #[inline]
    pub fn optimized(&mut self, est: Cost, opt_time_ns: u64, opt_io: u64) {
        self.est = est;
        self.opt_time_ns = opt_time_ns;
        self.opt_io = opt_io;
    }

    /// Execution sensor: actual costs (tuples processed, physical I/O).
    #[inline]
    pub fn executed(&mut self, cpu_tuples: u64, io_pages: u64) {
        self.exec_cpu = cpu_tuples;
        self.exec_io = io_pages;
    }
}

/// The numbers of one `ima$statements` row that move per execution. The
/// monitor files one per distinct statement; a prepared handle keeps it in
/// its [`KeptCell`] and records through it without the lock while it is
/// live. Evicting the statement from the ring marks the cell dead; the
/// statement's next execution re-enters it under the lock.
#[derive(Debug, Default)]
pub(crate) struct StatementCell {
    live: AtomicBool,
    frequency: AtomicU64,
    last_seen_ns: AtomicU64,
}

impl StatementCell {
    /// One more execution, started at `start_ns`.
    fn seen(&self, start_ns: u64) {
        self.frequency.fetch_add(1, Ordering::Relaxed);
        self.last_seen_ns.store(start_ns, Ordering::Relaxed);
    }

    /// (Re-)enter the statement ring with one execution at `start_ns`.
    fn enter(&self, start_ns: u64) {
        self.frequency.store(1, Ordering::Relaxed);
        self.last_seen_ns.store(start_ns, Ordering::Relaxed);
        self.live.store(true, Ordering::Relaxed);
    }
}

/// Where a prepared statement keeps its [`StatementCell`], set by the
/// monitor at the handle's first recorded execution.
#[derive(Debug, Default)]
pub(crate) struct KeptCell(OnceLock<Arc<StatementCell>>);

impl KeptCell {
    /// The kept cell, while its statement is in the ring.
    fn live(&self) -> Option<&StatementCell> {
        self.0
            .get()
            .filter(|c| c.live.load(Ordering::Relaxed))
            .map(|c| &**c)
    }
}

/// Sensor calls one recorded statement stands for: query interface, parser,
/// optimizer, execution, result.
const SENSORS_PER_STATEMENT: u64 = 5;

/// One filed statement: the text and first sight, filed once, the
/// footprint of the plan it first ran (its `ima$references` rows), and the
/// cell with the numbers that move.
struct FiledStatement {
    /// The template's own `Arc` when the text is its template.
    text: Arc<str>,
    first_seen_ns: u64,
    footprint: Option<Arc<Footprint>>,
    cell: Arc<StatementCell>,
}

/// What an interned footprint is built from: the binder's ordered table
/// ids and `(table, column)` attributes and the plan's used indexes. Texts
/// that differ only in a literal have one shape, and under one schema epoch
/// one shape has one footprint. Provider-backed tables are part of the
/// shape though not of the footprint.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Shape {
    tables: Vec<TableId>,
    attributes: Vec<(TableId, usize)>,
    used: Vec<IndexId>,
}

impl Shape {
    /// Overwrite with the shape of `artifacts` and `used`, in the capacity
    /// already held.
    fn fill(&mut self, artifacts: &BindArtifacts, used: &[IndexId]) {
        self.tables.clear();
        self.tables
            .extend(artifacts.tables.iter().map(|(id, _)| *id));
        self.attributes.clone_from(&artifacts.attributes);
        self.used.clear();
        self.used.extend_from_slice(used);
    }
}

/// An interned table: what only DDL changes, plus its usage cell.
struct TableEntry {
    name: String,
    storage: &'static str,
    usage: Arc<UsageCell>,
}

/// An interned attribute.
struct AttributeEntry {
    name: String,
    has_histogram: bool,
    usage: Arc<UsageCell>,
}

/// An interned index.
struct IndexEntry {
    name: String,
    table: TableId,
    usage: Arc<UsageCell>,
}

/// What the monitor lock guards: everything that is filed once (texts,
/// names, interned footprints) and the system-statistics ring.
/// Nothing in here changes per execution of a seen statement.
struct MonitorState {
    statements: HashMap<StmtHash, FiledStatement>,
    /// Insertion order of statement hashes for ring eviction.
    statement_order: VecDeque<StmtHash>,
    /// Interned footprints of the schema epoch `shapes_epoch`, at most the
    /// statement capacity of them.
    shapes: HashMap<Shape, Arc<Footprint>>,
    shapes_epoch: u64,
    /// The shape being looked up, refilled in place.
    probe: Shape,
    tables: BTreeMap<TableId, TableEntry>,
    indexes: BTreeMap<IndexId, IndexEntry>,
    attributes: BTreeMap<(TableId, usize), AttributeEntry>,
    statistics: RingBuffer<StatSample>,
    /// Statement hashes evicted because the statement ring reached capacity.
    statement_evictions: u64,
}

/// Point-in-time health snapshot of the monitor itself: self-cost counters
/// plus ring-buffer fill and wrap state, exported via `ima$monitor_health`.
#[derive(Debug, Clone, Default)]
pub struct MonitorHealth {
    /// Total nanoseconds spent in monitoring code.
    pub self_time_ns: u64,
    /// Total sensor calls.
    pub sensor_calls: u64,
    /// Statements recorded over the monitor's lifetime.
    pub statements_recorded: u64,
    /// Distinct statements currently held / capacity / evicted so far.
    pub statements_len: usize,
    pub statements_capacity: usize,
    pub statement_evictions: u64,
    /// Workload ring: held / capacity / total ever pushed.
    pub workload_len: usize,
    pub workload_capacity: usize,
    pub workload_total: u64,
    /// Workload slots a reader skipped because a later lap had overwritten
    /// them.
    pub workload_lapped: u64,
    /// Statements recorded under the monitor lock: first sight of a
    /// statement, every text-path statement, re-entry after the ring
    /// wrapped. A warmed prepared loop leaves it flat.
    pub first_sight_locks: u64,
    /// Footprints interned under the monitor lock: one per planned
    /// template, hit or miss.
    pub intern_locks: u64,
    /// `ima$references` rows: the references of the statements held.
    pub references_len: usize,
    /// Statistics ring: held / capacity / total ever pushed.
    pub statistics_len: usize,
    pub statistics_capacity: usize,
    pub statistics_total: u64,
}

/// Ring-buffer capacity of the per-execution `workload` IMA table.
const WORKLOAD_CAPACITY: usize = 4096;
/// Ring-buffer capacity of the `statistics` IMA table (system samples).
const STATISTICS_CAPACITY: usize = 4096;

/// The monitor. One per engine instance (when enabled).
pub struct Monitor {
    clock: MonotonicClock,
    statement_capacity: usize,
    state: Mutex<MonitorState>,
    /// `ima$workload`; its claim counter is the number of statements
    /// recorded.
    workload: WorkloadRing,
    /// Total nanoseconds spent in monitoring code.
    self_time_ns: AtomicU64,
    /// Statements recorded under the lock (see [`MonitorHealth`]).
    first_sight_locks: AtomicU64,
    /// Footprints interned under the lock (see [`MonitorHealth`]).
    intern_locks: AtomicU64,
    boot: u64,
}

impl Monitor {
    /// Build a monitor from the engine configuration.
    pub fn new(config: &EngineConfig, clock: MonotonicClock) -> Self {
        Monitor {
            clock,
            statement_capacity: config.monitor_statement_capacity.max(1),
            state: Mutex::new(MonitorState {
                statements: HashMap::with_capacity(config.monitor_statement_capacity.min(4096)),
                statement_order: VecDeque::new(),
                shapes: HashMap::new(),
                shapes_epoch: 0,
                probe: Shape::default(),
                tables: BTreeMap::new(),
                indexes: BTreeMap::new(),
                attributes: BTreeMap::new(),
                statistics: RingBuffer::new(STATISTICS_CAPACITY),
                statement_evictions: 0,
            }),
            workload: WorkloadRing::new(WORKLOAD_CAPACITY),
            self_time_ns: AtomicU64::new(0),
            first_sight_locks: AtomicU64::new(0),
            intern_locks: AtomicU64::new(0),
            boot: ingot_common::clock::boot_id(),
        }
    }

    /// This life's boot identity: every counter the monitor keeps starts at
    /// zero with it.
    pub fn boot(&self) -> u64 {
        self.boot
    }

    /// The monitor's clock (shared with the engine's wall-clock sensors).
    pub fn clock(&self) -> &MonotonicClock {
        &self.clock
    }

    // ---- sensors -----------------------------------------------------------

    /// Query-interface sensor: the statement's identity (hash, text and
    /// its whitespace-normalized template) and its own start stamp (read by
    /// the engine for the bare statement anyway).
    #[inline]
    pub fn begin_statement<'a>(
        &self,
        hash: StmtHash,
        text: &'a str,
        template: &'a Arc<str>,
        start_ns: u64,
    ) -> StatementSensor<'a> {
        StatementSensor {
            start_ns,
            hash,
            text,
            template,
            kept: None,
            plan: None,
            est: Cost::ZERO,
            opt_time_ns: 0,
            opt_io: 0,
            exec_cpu: 0,
            exec_io: 0,
            self_ns: 0,
        }
    }

    /// Intern a freshly planned template's reference footprint: one usage
    /// cell per referenced table and attribute and per index the plan uses,
    /// created the first time any template references the object. A
    /// template of a shape already interned under this schema epoch shares
    /// that footprint (one `Arc` clone, nothing allocated). Names and
    /// histogram flags come from the catalog guard the planner already
    /// holds and are written when a shape is first interned, as is the
    /// storage tag; a DDL publish bumps the schema epoch, which drops the
    /// interned shapes, so they are rewritten when the template is planned
    /// again. Provider-backed tables have no storage to report and
    /// contribute their attributes only.
    pub(crate) fn intern_footprint(
        &self,
        catalog: &Catalog,
        artifacts: &BindArtifacts,
        used: &[IndexId],
    ) -> Arc<Footprint> {
        self.intern_locks.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        let state = &mut *st;
        let epoch = catalog.epoch();
        if state.shapes_epoch != epoch {
            state.shapes.clear();
            state.shapes_epoch = epoch;
        }
        state.probe.fill(artifacts, used);
        if let Some(footprint) = state.shapes.get(&state.probe) {
            return Arc::clone(footprint);
        }
        let tables = artifacts
            .tables
            .iter()
            .filter_map(|(id, name)| {
                let table = catalog.table(*id).ok()?;
                let storage = table.meta.storage.as_str();
                let entry = state.tables.entry(*id).or_insert_with(|| TableEntry {
                    name: name.to_string(),
                    storage,
                    usage: Arc::default(),
                });
                entry.storage = storage;
                Some(TableRef {
                    id: *id,
                    usage: Arc::clone(&entry.usage),
                    heap: Arc::clone(&table.heap),
                })
            })
            .collect();
        let attributes = artifacts
            .attributes
            .iter()
            .filter_map(|&(table, column)| {
                let schema = match catalog.table(table) {
                    Ok(entry) => &entry.meta.schema,
                    Err(_) => &catalog.virtual_table(table)?.schema,
                };
                let entry =
                    state
                        .attributes
                        .entry((table, column))
                        .or_insert_with(|| AttributeEntry {
                            name: schema.column(column).name.clone(),
                            has_histogram: false,
                            usage: Arc::default(),
                        });
                entry.has_histogram = artifacts.histograms.contains(&(table, column));
                Some(AttributeRef {
                    table,
                    column,
                    usage: Arc::clone(&entry.usage),
                })
            })
            .collect();
        let used_indexes = used
            .iter()
            .filter_map(|id| {
                let index = catalog.index(*id).ok()?;
                let entry = state.indexes.entry(*id).or_insert_with(|| IndexEntry {
                    name: index.meta.name.to_string(),
                    table: index.meta.table,
                    usage: Arc::default(),
                });
                Some(IndexRef {
                    id: *id,
                    table: entry.table,
                    usage: Arc::clone(&entry.usage),
                    tree: index.tree.clone(),
                })
            })
            .collect();
        let footprint = Arc::new(Footprint {
            tables,
            attributes,
            used_indexes,
        });
        if state.shapes.len() >= self.statement_capacity {
            state.shapes.clear();
        }
        state
            .shapes
            .insert(state.probe.clone(), Arc::clone(&footprint));
        footprint
    }

    /// Result sensor: writes the statement into the monitoring tables.
    /// `end_ns` is the statement's own end stamp; what the observers did
    /// since then (ASH hand-back, tracer merge, this call) is charged up to
    /// the one clock read below, which is also the record's wall-clock stop.
    pub fn record(&self, sensor: StatementSensor<'_>, end_ns: u64, sim_secs: u64) {
        if let Some(f) = sensor.footprint() {
            for usage in f.usage_cells() {
                usage.frequency.fetch_add(1, Ordering::Relaxed);
            }
            store_live_numbers(f);
        }
        match sensor.kept.and_then(KeptCell::live) {
            Some(cell) => cell.seen(sensor.start_ns),
            None => self.record_under_lock(&sensor),
        }

        // workload table: wall-clock stop is the record instant.
        let now = self.clock.now_nanos();
        let monitor_ns = sensor.self_ns + now.saturating_sub(end_ns);
        self.workload.push(&WorkloadRecord {
            hash: sensor.hash,
            seq: 0,
            opt_time_ns: sensor.opt_time_ns,
            opt_io: sensor.opt_io,
            exec_cpu: sensor.exec_cpu,
            exec_io: sensor.exec_io,
            est: sensor.est,
            wallclock_ns: now.saturating_sub(sensor.start_ns),
            monitor_ns,
            at_ns: sensor.start_ns,
            at_sim_secs: sim_secs,
        });
        self.self_time_ns.fetch_add(monitor_ns, Ordering::Relaxed);
    }

    /// The statements row of a statement recorded without a live kept
    /// cell: found by hash, or filed (text, footprint) on first sight or
    /// re-entry. A prepared handle keeps the cell for its next execution.
    fn record_under_lock(&self, sensor: &StatementSensor<'_>) {
        self.first_sight_locks.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        let state = &mut *st;
        let vacant = match state.statements.entry(sensor.hash) {
            Entry::Occupied(filed) => {
                let filed = filed.into_mut();
                filed.cell.seen(sensor.start_ns);
                if let Some(kept) = sensor.kept {
                    kept.0.get_or_init(|| Arc::clone(&filed.cell));
                }
                return;
            }
            Entry::Vacant(vacant) => vacant,
        };
        // A handle whose cell was evicted re-enters with that cell, so its
        // next execution finds it live again.
        let cell = match sensor.kept {
            Some(kept) => Arc::clone(kept.0.get_or_init(Arc::default)),
            None => Arc::default(),
        };
        cell.enter(sensor.start_ns);
        let text = records::filed_text(sensor.text);
        let text = if text == &**sensor.template {
            Arc::clone(sensor.template)
        } else {
            Arc::from(text)
        };
        vacant.insert(FiledStatement {
            text,
            first_seen_ns: sensor.start_ns,
            footprint: sensor.footprint().cloned(),
            cell,
        });
        state.statement_order.push_back(sensor.hash);
        if state.statement_order.len() > self.statement_capacity {
            if let Some(evict) = state.statement_order.pop_front() {
                if let Some(gone) = state.statements.remove(&evict) {
                    gone.cell.live.store(false, Ordering::Relaxed);
                }
                state.statement_evictions += 1;
            }
        }
    }

    /// Statistics sensor: gather a system-wide sample and record it. The
    /// gather (handed the sample's timestamp) and the push are timed as one
    /// region of monitoring self-time.
    pub(crate) fn sample_statistics(&self, gather: impl FnOnce(u64) -> StatSample) {
        let t0 = self.clock.now_nanos();
        let sample = gather(t0);
        self.state.lock().statistics.push(sample);
        self.self_time_ns
            .fetch_add(self.clock.now_nanos() - t0, Ordering::Relaxed);
    }

    // ---- snapshot accessors (IMA providers, daemon, tests) ------------------

    /// Snapshot of the `statements` buffer (insertion order).
    pub fn statements(&self) -> Vec<StatementInfo> {
        let st = self.state.lock();
        st.statement_order
            .iter()
            .filter_map(|h| {
                let filed = st.statements.get(h)?;
                Some(StatementInfo {
                    hash: *h,
                    text: filed.text.to_string(),
                    frequency: filed.cell.frequency.load(Ordering::Relaxed),
                    first_seen_ns: filed.first_seen_ns,
                    last_seen_ns: filed.cell.last_seen_ns.load(Ordering::Relaxed),
                })
            })
            .collect()
    }

    /// Snapshot of the `workload` buffer (oldest first), up to the first
    /// record still being written.
    pub fn workload(&self) -> Vec<WorkloadRecord> {
        self.workload.read()
    }

    /// The references of the statements held, in statement order: each
    /// statement's tables, attributes and used indexes, read off the
    /// footprint of the plan it first ran.
    pub fn references(&self) -> Vec<ReferenceRecord> {
        let st = self.state.lock();
        let mut out = Vec::new();
        for (hash, f) in held_footprints(&st) {
            let of = |object, object_id, table| ReferenceRecord {
                hash,
                object,
                object_id,
                table,
            };
            let tables = f
                .tables
                .iter()
                .map(|t| of(RefObject::Table, t.id.raw().into(), t.id));
            let attributes = f
                .attributes
                .iter()
                .map(|a| of(RefObject::Attribute, a.column as u64, a.table));
            let indexes = f
                .used_indexes
                .iter()
                .map(|i| of(RefObject::Index, i.id.raw().into(), i.table));
            out.extend(tables.chain(attributes).chain(indexes));
        }
        out
    }

    /// Snapshot of table usage, by id: every table a recorded statement
    /// referenced.
    pub fn tables(&self) -> Vec<TableUsage> {
        let st = self.state.lock();
        st.tables
            .iter()
            .filter_map(|(id, t)| {
                Some(TableUsage {
                    id: *id,
                    name: t.name.clone(),
                    frequency: referenced(&t.usage)?,
                    storage: t.storage.to_owned(),
                    data_pages: t.usage.pages.load(Ordering::Relaxed),
                    overflow_pages: t.usage.overflow_pages.load(Ordering::Relaxed),
                    rows: t.usage.rows.load(Ordering::Relaxed),
                })
            })
            .collect()
    }

    /// Snapshot of index usage, by id.
    pub fn indexes(&self) -> Vec<IndexUsage> {
        let st = self.state.lock();
        st.indexes
            .iter()
            .filter_map(|(id, i)| {
                Some(IndexUsage {
                    id: *id,
                    name: i.name.clone(),
                    table: i.table,
                    frequency: referenced(&i.usage)?,
                    pages: i.usage.pages.load(Ordering::Relaxed),
                })
            })
            .collect()
    }

    /// Snapshot of attribute usage, by `(table, column)`.
    pub fn attributes(&self) -> Vec<AttributeUsage> {
        let st = self.state.lock();
        st.attributes
            .iter()
            .filter_map(|(&(table, column), a)| {
                Some(AttributeUsage {
                    table,
                    column,
                    name: a.name.clone(),
                    frequency: referenced(&a.usage)?,
                    has_histogram: a.has_histogram,
                })
            })
            .collect()
    }

    /// Snapshot of the `statistics` buffer.
    pub fn statistics(&self) -> Vec<StatSample> {
        self.state.lock().statistics.iter().cloned().collect()
    }

    /// Total time spent in monitoring code, nanoseconds.
    pub fn self_time_ns(&self) -> u64 {
        self.self_time_ns.load(Ordering::Relaxed)
    }

    /// Total sensor calls: five per recorded statement plus one per
    /// statistics sample.
    pub fn sensor_calls(&self) -> u64 {
        let statistics = self.state.lock().statistics.total_pushed();
        SENSORS_PER_STATEMENT * self.statements_recorded() + statistics
    }

    /// Statements recorded over the monitor's lifetime.
    pub fn statements_recorded(&self) -> u64 {
        self.workload.claimed()
    }

    /// Snapshot the monitor's own health: self-cost counters and ring-buffer
    /// fill/wrap state (the `ima$monitor_health` provider).
    pub fn health(&self) -> MonitorHealth {
        let recorded = self.statements_recorded();
        let st = self.state.lock();
        let workload_capacity = self.workload.capacity();
        MonitorHealth {
            self_time_ns: self.self_time_ns.load(Ordering::Relaxed),
            sensor_calls: SENSORS_PER_STATEMENT * recorded + st.statistics.total_pushed(),
            statements_recorded: recorded,
            statements_len: st.statement_order.len(),
            statements_capacity: self.statement_capacity,
            statement_evictions: st.statement_evictions,
            workload_len: recorded.min(workload_capacity as u64) as usize,
            workload_capacity,
            workload_total: recorded,
            workload_lapped: self.workload.lapped(),
            first_sight_locks: self.first_sight_locks.load(Ordering::Relaxed),
            intern_locks: self.intern_locks.load(Ordering::Relaxed),
            references_len: held_footprints(&st)
                .map(|(_, f)| f.usage_cells().count())
                .sum(),
            statistics_len: st.statistics.len(),
            statistics_capacity: st.statistics.capacity(),
            statistics_total: st.statistics.total_pushed(),
        }
    }
}

/// The held statements that have a footprint, in statement order.
fn held_footprints(st: &MonitorState) -> impl Iterator<Item = (StmtHash, &Footprint)> {
    st.statement_order.iter().filter_map(|h| {
        let footprint = st.statements.get(h)?.footprint.as_deref()?;
        Some((*h, footprint))
    })
}

/// An interned object's frequency, `None` while no recorded statement has
/// referenced it (it was interned for a plan that never ran to the end).
fn referenced(usage: &UsageCell) -> Option<u64> {
    Some(usage.frequency.load(Ordering::Relaxed)).filter(|&n| n > 0)
}

/// The numbers that move between executions of one template, read after
/// the statement ran off the storage of the objects it touched ("logged
/// right at its source"): plain loads, no lookup and no lock.
fn store_live_numbers(footprint: &Footprint) {
    for t in &footprint.tables {
        let hs = t.heap.stats();
        t.usage.pages.store(hs.main_pages, Ordering::Relaxed);
        t.usage
            .overflow_pages
            .store(hs.overflow_pages, Ordering::Relaxed);
        t.usage.rows.store(hs.rows, Ordering::Relaxed);
    }
    for i in &footprint.used_indexes {
        let pages = i.tree.as_ref().map_or(0, |t| t.pages());
        i.usage.pages.store(pages, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_common::{Column, DataType, Schema, SimClock};
    use ingot_planner::{optimize, Binder, OptimizerOptions};
    use ingot_storage::StorageEngine;

    /// A monitor plus a planned one-table, one-attribute template over a
    /// real catalog, its footprint interned.
    struct Fixture {
        m: Monitor,
        catalog: Arc<Catalog>,
        plan: Arc<CachedPlan>,
    }

    fn fixture(stmt_cap: usize) -> Fixture {
        let cfg = EngineConfig::default().with_statement_capacity(stmt_cap);
        let storage = StorageEngine::in_memory(&cfg, SimClock::new());
        let mut catalog = Catalog::new(Arc::clone(storage.pool()), 8);
        let schema = Schema::new(vec![Column::new("nref_id", DataType::Str)]);
        catalog.create_table("protein", schema, vec![]).unwrap();
        let m = Monitor::new(&cfg, MonotonicClock::new());
        let plan = Arc::new(plan(&m, &catalog, "select nref_id from protein"));
        Fixture {
            m,
            catalog: Arc::new(catalog),
            plan,
        }
    }

    /// Plan `sql` the way a monitored session does.
    fn plan(m: &Monitor, catalog: &Catalog, sql: &str) -> CachedPlan {
        let stmt = ingot_sql::parse_statement(sql).unwrap();
        let (bound, mut artifacts) = Binder::new(catalog).bind(&stmt).unwrap();
        let planned = optimize(catalog, &bound, OptimizerOptions::default()).unwrap();
        artifacts.footprint = Some(m.intern_footprint(catalog, &artifacts, planned.used_indexes()));
        CachedPlan {
            planned,
            artifacts,
            lock_spec: Vec::new(),
            epoch: catalog.epoch(),
            param_count: 0,
        }
    }

    impl Fixture {
        fn run(&self, text: &str) {
            self.run_kept(text, None);
        }

        /// One execution, recorded through `kept` when given (a prepared
        /// handle's cell).
        fn run_kept(&self, text: &str, kept: Option<&KeptCell>) {
            let m = &self.m;
            let start_ns = m.clock().now_nanos();
            let template = Arc::from(text);
            let mut s = m.begin_statement(StmtHash::of(text), text, &template, start_ns);
            if let Some(kept) = kept {
                s.keep_cell_in(kept);
            }
            s.parsed(Arc::clone(&self.plan));
            s.optimized(Cost::new(10.0, 2.0), 1000, 3);
            s.executed(100, 5);
            m.record(s, m.clock().now_nanos(), 0);
        }
    }

    #[test]
    fn statement_dedup_and_frequency() {
        let fx = fixture(10);
        fx.run("select 1");
        fx.run("select 1");
        fx.run("select 2");
        let stmts = fx.m.statements();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].frequency, 2);
        assert_eq!(fx.m.workload().len(), 3);
        assert_eq!(fx.m.statements_recorded(), 3);
    }

    #[test]
    fn statement_ring_wraps_at_capacity() {
        // The paper: "the monitoring can capture up to 1000 different
        // statements until the buffer wraps around".
        let fx = fixture(5);
        for i in 0..8 {
            fx.run(&format!("select {i}"));
        }
        let stmts = fx.m.statements();
        assert_eq!(stmts.len(), 5);
        assert!(stmts[0].text.contains('3'), "oldest kept must be #3");
        assert!(stmts[4].text.contains('7'));
        let h = fx.m.health();
        assert_eq!(h.statements_len, 5);
        assert_eq!(h.statements_capacity, 5);
        assert_eq!(h.statement_evictions, 3);
        assert_eq!(h.workload_total, 8);
        assert_eq!(
            h.references_len,
            5 * 2,
            "1 table + 1 attribute per held statement"
        );
        assert_eq!(fx.m.references().len(), h.references_len);
    }

    #[test]
    fn evicted_statement_re_enters_as_new() {
        let fx = fixture(2);
        fx.run("select 0");
        fx.run("select 0");
        let refs_per_statement = fx.m.references().len();
        fx.run("select 1");
        fx.run("select 2");
        assert!(fx.m.statements().iter().all(|s| s.text != "select 0"));
        // Back after the wrap: the text is captured again and the frequency
        // restarts. Each held statement's references appear once, and none
        // of an evicted one's.
        fx.run("select 0");
        let stmts = fx.m.statements();
        let back = stmts.last().expect("statements held");
        assert_eq!(back.text, "select 0");
        assert_eq!(back.hash, StmtHash::of("select 0"));
        assert_eq!(back.frequency, 1);
        assert_eq!(fx.m.references().len(), 2 * refs_per_statement);
        let held: Vec<StmtHash> = stmts.iter().map(|s| s.hash).collect();
        assert!(fx.m.references().iter().all(|r| held.contains(&r.hash)));
        assert_eq!(fx.m.health().statement_evictions, 2);
    }

    #[test]
    fn evicted_prepared_statement_re_enters_as_new() {
        let fx = fixture(2);
        let handle = KeptCell::default();
        fx.run_kept("select 0", Some(&handle));
        fx.run_kept("select 0", Some(&handle));
        assert_eq!(fx.m.health().first_sight_locks, 1, "kept after the first");
        let refs_per_statement = fx.m.references().len();
        fx.run("select 1");
        fx.run("select 2");
        assert!(fx.m.statements().iter().all(|s| s.text != "select 0"));
        assert!(handle.live().is_none(), "eviction marks the kept cell dead");
        // The handle's next execution re-enters under the lock, exactly as
        // text does, and keeps recording through the same cell after.
        fx.run_kept("select 0", Some(&handle));
        let back = fx.m.statements().pop().expect("statements held");
        assert_eq!(back.text, "select 0");
        assert_eq!(back.frequency, 1);
        assert_eq!(fx.m.references().len(), 2 * refs_per_statement);
        assert_eq!(fx.m.health().statement_evictions, 2);
        let locks = fx.m.health().first_sight_locks;
        fx.run_kept("select 0", Some(&handle));
        assert_eq!(fx.m.health().first_sight_locks, locks);
        assert_eq!(fx.m.statements().pop().unwrap().frequency, 2);
    }

    #[test]
    fn workload_records_costs() {
        let fx = fixture(10);
        fx.run("select 1");
        let w = &fx.m.workload()[0];
        assert_eq!(w.exec_cpu, 100);
        assert_eq!(w.exec_io, 5);
        assert_eq!(w.est, Cost::new(10.0, 2.0));
        assert_eq!(w.opt_time_ns, 1000);
        assert_eq!(w.opt_io, 3);
        assert!(w.monitor_ns > 0);
        assert!(w.wallclock_ns >= w.monitor_ns);
    }

    #[test]
    fn references_only_on_first_sight() {
        let fx = fixture(10);
        fx.run("select 1");
        let before = fx.m.references().len();
        fx.run("select 1");
        assert_eq!(fx.m.references().len(), before);
        assert_eq!(before, 2); // 1 table + 1 attribute
    }

    #[test]
    fn usage_frequencies_accumulate() {
        let fx = fixture(10);
        assert!(fx.m.tables().is_empty(), "interned, not yet referenced");
        fx.run("select 1");
        fx.run("select 2");
        let tables = fx.m.tables();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].name, "protein");
        assert_eq!(tables[0].frequency, 2);
        assert_eq!(tables[0].storage, "HEAP");
        assert_eq!(tables[0].data_pages, 8, "read off the catalog snapshot");
        let attrs = fx.m.attributes();
        assert_eq!(attrs[0].frequency, 2);
        assert_eq!(attrs[0].name, "nref_id");
    }

    #[test]
    fn frequencies_survive_re_planning() {
        let fx = fixture(10);
        fx.run("select 1");
        // A DDL epoch bump drops the plan; the template's next plan interns
        // the same objects' cells again and counts on.
        let Fixture {
            m,
            catalog,
            plan: old,
        } = fx;
        drop(old);
        let fx = Fixture {
            plan: Arc::new(plan(&m, &catalog, "select nref_id from protein")),
            m,
            catalog,
        };
        fx.run("select 1");
        assert_eq!(fx.m.tables()[0].frequency, 2);
        assert_eq!(fx.m.attributes()[0].frequency, 2);
    }

    #[test]
    fn the_shape_map_never_exceeds_its_bound() {
        let cfg = EngineConfig::default().with_statement_capacity(4);
        let storage = StorageEngine::in_memory(&cfg, SimClock::new());
        let mut catalog = Catalog::new(Arc::clone(storage.pool()), 8);
        let columns = (0..10).map(|i| Column::new(format!("c{i}"), DataType::Int));
        let schema = Schema::new(columns.collect());
        catalog.create_table("t", schema, vec![]).unwrap();
        let m = Monitor::new(&cfg, MonotonicClock::new());
        for round in 0..3 {
            for i in 0..10 {
                let plan = plan(
                    &m,
                    &catalog,
                    &format!("select c{i} from t where c{i} > {round}"),
                );
                let held = m.state.lock().shapes.len();
                assert!(held <= 4, "{held} shapes held");
                assert_eq!(plan.artifacts.footprint.unwrap().attributes[0].column, i);
            }
        }
        assert_eq!(m.health().intern_locks, 30);
    }

    #[test]
    fn statistics_samples() {
        let fx = fixture(10);
        fx.m.sample_statistics(|at_ns| StatSample {
            at_ns,
            locks_held: 7,
            ..Default::default()
        });
        assert_eq!(fx.m.statistics().len(), 1);
        assert_eq!(fx.m.statistics()[0].locks_held, 7);
    }

    #[test]
    fn self_time_accumulates() {
        let fx = fixture(10);
        fx.run("select 1");
        fx.run("select 2");
        assert!(fx.m.self_time_ns() > 0);
        assert_eq!(fx.m.sensor_calls(), 5 * fx.m.statements_recorded());
        fx.m.sample_statistics(|_| StatSample::default());
        assert_eq!(fx.m.sensor_calls(), 5 * fx.m.statements_recorded() + 1);
    }
}
