//! The monitor: local sensors + ring buffers.
//!
//! The design follows §IV-A of the paper: the monitor "does not call the
//! DBMS modules such as the optimizer or parser but is part of each of those
//! modules" — concretely, the engine's statement path creates a
//! [`StatementSensor`] and feeds it with values the stages already have in
//! hand (text, bind artifacts, estimated costs, actual costs). No extra
//! thread, no extra catalog or disk access.
//!
//! Every sensor call times itself against a monotonic clock, so the share of
//! monitoring time per statement (Fig 5) falls out of the recorded data
//! without external profiling.

pub mod records;

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use ingot_common::{Cost, EngineConfig, IndexId, MonotonicClock, StmtHash, TableId};
use parking_lot::Mutex;

pub use ingot_common::RingBuffer;
pub use records::{
    AttributeUsage, IndexUsage, RefObject, ReferenceRecord, StatSample, StatementInfo, TableUsage,
    WorkloadRecord,
};

/// Per-table detail the engine snapshots at bind time (it holds the catalog
/// lock anyway — "this data is logged right at its source").
#[derive(Debug, Clone)]
pub struct TableDetail {
    /// Table id.
    pub id: TableId,
    /// Name.
    pub name: String,
    /// Storage structure tag.
    pub storage: String,
    /// Main pages.
    pub data_pages: u64,
    /// Overflow pages.
    pub overflow_pages: u64,
    /// Live rows.
    pub rows: u64,
}

/// Per-attribute detail snapshotted at bind time.
#[derive(Debug, Clone)]
pub struct AttributeDetail {
    /// Owning table.
    pub table: TableId,
    /// Column position.
    pub column: usize,
    /// Column name.
    pub name: String,
    /// Histogram present?
    pub has_histogram: bool,
}

/// Per-index detail snapshotted at optimize time.
#[derive(Debug, Clone)]
pub struct IndexDetail {
    /// Index id.
    pub id: IndexId,
    /// Name.
    pub name: String,
    /// Owning table.
    pub table: TableId,
    /// Pages.
    pub pages: u64,
}

/// The in-flight sensor state of one statement.
#[derive(Debug)]
pub struct StatementSensor {
    start_ns: u64,
    hash: StmtHash,
    text: String,
    tables: Vec<TableDetail>,
    attributes: Vec<AttributeDetail>,
    used_indexes: Vec<IndexDetail>,
    est: Cost,
    opt_time_ns: u64,
    opt_io: u64,
    exec_cpu: u64,
    exec_io: u64,
    /// Nanoseconds spent inside sensor code so far.
    self_ns: u64,
}

impl StatementSensor {
    /// Attribute externally measured monitoring work (e.g. the engine's
    /// catalog-detail snapshotting done on the monitor's behalf) to this
    /// statement's self-time.
    pub fn add_self_time(&mut self, ns: u64) {
        self.self_ns += ns;
    }
}

/// Interior state guarded by one mutex — a statement record touches several
/// structures and single-lock recording keeps the hot path to one
/// lock/unlock pair.
struct MonitorState {
    statements: HashMap<StmtHash, StatementInfo>,
    /// Insertion order of statement hashes for ring eviction.
    statement_order: VecDeque<StmtHash>,
    workload: RingBuffer<WorkloadRecord>,
    references: RingBuffer<ReferenceRecord>,
    tables: HashMap<TableId, TableUsage>,
    indexes: HashMap<IndexId, IndexUsage>,
    attributes: HashMap<(TableId, usize), AttributeUsage>,
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
    /// References ring: held / capacity / total ever pushed.
    pub references_len: usize,
    pub references_capacity: usize,
    pub references_total: u64,
    /// Statistics ring: held / capacity / total ever pushed.
    pub statistics_len: usize,
    pub statistics_capacity: usize,
    pub statistics_total: u64,
}

/// Ring-buffer capacity of the per-execution `workload` IMA table.
const WORKLOAD_CAPACITY: usize = 4096;
/// Ring-buffer capacity of the `references` IMA table.
const REFERENCE_CAPACITY: usize = 8192;
/// Ring-buffer capacity of the `statistics` IMA table (system samples).
const STATISTICS_CAPACITY: usize = 4096;

/// The monitor. One per engine instance (when enabled).
pub struct Monitor {
    clock: MonotonicClock,
    statement_capacity: usize,
    state: Mutex<MonitorState>,
    /// Total nanoseconds spent in monitoring code.
    self_time_ns: AtomicU64,
    /// Total sensor function calls.
    sensor_calls: AtomicU64,
    /// Total statements recorded.
    statements_recorded: AtomicU64,
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
                workload: RingBuffer::new(WORKLOAD_CAPACITY),
                references: RingBuffer::new(REFERENCE_CAPACITY),
                tables: HashMap::new(),
                indexes: HashMap::new(),
                attributes: HashMap::new(),
                statistics: RingBuffer::new(STATISTICS_CAPACITY),
                statement_evictions: 0,
            }),
            self_time_ns: AtomicU64::new(0),
            sensor_calls: AtomicU64::new(0),
            statements_recorded: AtomicU64::new(0),
        }
    }

    /// The monitor's clock (shared with the engine's wall-clock sensors).
    pub fn clock(&self) -> &MonotonicClock {
        &self.clock
    }

    // ---- sensors -----------------------------------------------------------

    /// Query-interface sensor: wall-clock start + statement text hash.
    #[inline]
    pub fn begin_statement(&self, text: &str) -> StatementSensor {
        let t0 = self.clock.now_nanos();
        let hash = StmtHash::of(text);
        let sensor = StatementSensor {
            start_ns: t0,
            hash,
            text: text.to_owned(),
            tables: Vec::new(),
            attributes: Vec::new(),
            used_indexes: Vec::new(),
            est: Cost::ZERO,
            opt_time_ns: 0,
            opt_io: 0,
            exec_cpu: 0,
            exec_io: 0,
            self_ns: 0,
        };
        self.sensor_calls.fetch_add(1, Ordering::Relaxed);
        let mut sensor = sensor;
        sensor.self_ns += self.clock.now_nanos() - t0;
        sensor
    }

    /// Parser/binder sensor: referenced tables and attributes (with their
    /// catalog details, already known to the binder).
    #[inline]
    pub fn parsed(
        &self,
        sensor: &mut StatementSensor,
        tables: Vec<TableDetail>,
        attributes: Vec<AttributeDetail>,
    ) {
        let t0 = self.clock.now_nanos();
        sensor.tables = tables;
        sensor.attributes = attributes;
        self.sensor_calls.fetch_add(1, Ordering::Relaxed);
        sensor.self_ns += self.clock.now_nanos() - t0;
    }

    /// Optimiser sensor: estimated costs, used indexes, planning time, and
    /// pages read on the optimizer's behalf (catalog statistics, virtual
    /// what-if probes).
    #[inline]
    pub fn optimized(
        &self,
        sensor: &mut StatementSensor,
        est: Cost,
        used_indexes: Vec<IndexDetail>,
        opt_time_ns: u64,
        opt_io: u64,
    ) {
        let t0 = self.clock.now_nanos();
        sensor.est = est;
        sensor.used_indexes = used_indexes;
        sensor.opt_time_ns = opt_time_ns;
        sensor.opt_io = opt_io;
        self.sensor_calls.fetch_add(1, Ordering::Relaxed);
        sensor.self_ns += self.clock.now_nanos() - t0;
    }

    /// Execution sensor: actual costs (tuples processed, physical I/O).
    #[inline]
    pub fn executed(&self, sensor: &mut StatementSensor, cpu_tuples: u64, io_pages: u64) {
        let t0 = self.clock.now_nanos();
        sensor.exec_cpu = cpu_tuples;
        sensor.exec_io = io_pages;
        self.sensor_calls.fetch_add(1, Ordering::Relaxed);
        sensor.self_ns += self.clock.now_nanos() - t0;
    }

    /// Result sensor: wall-clock stop; writes the statement into the ring
    /// buffers.
    pub fn record(&self, mut sensor: StatementSensor, sim_secs: u64) {
        let t0 = self.clock.now_nanos();
        self.sensor_calls.fetch_add(1, Ordering::Relaxed);
        self.statements_recorded.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        let state = &mut *st;

        // statements table (+ references on first sight).
        let is_new = !state.statements.contains_key(&sensor.hash);
        if is_new {
            if state.statement_order.len() == self.statement_capacity {
                if let Some(evict) = state.statement_order.pop_front() {
                    state.statements.remove(&evict);
                    state.statement_evictions += 1;
                }
            }
            state.statement_order.push_back(sensor.hash);
            state.statements.insert(
                sensor.hash,
                StatementInfo {
                    hash: sensor.hash,
                    text: std::mem::take(&mut sensor.text),
                    frequency: 1,
                    first_seen_ns: sensor.start_ns,
                    last_seen_ns: sensor.start_ns,
                },
            );
            for t in &sensor.tables {
                state.references.push(ReferenceRecord {
                    hash: sensor.hash,
                    object: RefObject::Table,
                    object_id: u64::from(t.id.raw()),
                    table: t.id,
                });
            }
            for a in &sensor.attributes {
                state.references.push(ReferenceRecord {
                    hash: sensor.hash,
                    object: RefObject::Attribute,
                    object_id: a.column as u64,
                    table: a.table,
                });
            }
            for i in &sensor.used_indexes {
                state.references.push(ReferenceRecord {
                    hash: sensor.hash,
                    object: RefObject::Index,
                    object_id: u64::from(i.id.raw()),
                    table: i.table,
                });
            }
        } else if let Some(info) = state.statements.get_mut(&sensor.hash) {
            info.frequency += 1;
            info.last_seen_ns = sensor.start_ns;
        }

        // Object usage tables.
        for t in &sensor.tables {
            let u = state.tables.entry(t.id).or_insert_with(|| TableUsage {
                id: t.id,
                name: t.name.clone(),
                frequency: 0,
                storage: t.storage.clone(),
                data_pages: 0,
                overflow_pages: 0,
                rows: 0,
            });
            u.frequency += 1;
            u.storage.clone_from(&t.storage);
            u.data_pages = t.data_pages;
            u.overflow_pages = t.overflow_pages;
            u.rows = t.rows;
        }
        for a in &sensor.attributes {
            let u = state
                .attributes
                .entry((a.table, a.column))
                .or_insert_with(|| AttributeUsage {
                    table: a.table,
                    column: a.column,
                    name: a.name.clone(),
                    frequency: 0,
                    has_histogram: false,
                });
            u.frequency += 1;
            u.has_histogram = a.has_histogram;
        }
        for i in &sensor.used_indexes {
            let u = state.indexes.entry(i.id).or_insert_with(|| IndexUsage {
                id: i.id,
                name: i.name.clone(),
                table: i.table,
                frequency: 0,
                pages: 0,
            });
            u.frequency += 1;
            u.pages = i.pages;
        }

        // workload table: wall-clock stop is the record instant.
        let now = self.clock.now_nanos();
        let monitor_ns = sensor.self_ns + (now - t0);
        let seq = state.workload.total_pushed();
        state.workload.push(WorkloadRecord {
            hash: sensor.hash,
            seq,
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
        drop(st);
        self.self_time_ns.fetch_add(monitor_ns, Ordering::Relaxed);
    }

    /// Statistics sensor: record a system-wide sample.
    pub fn record_statistics(&self, sample: StatSample) {
        let t0 = self.clock.now_nanos();
        self.sensor_calls.fetch_add(1, Ordering::Relaxed);
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
            .filter_map(|h| st.statements.get(h).cloned())
            .collect()
    }

    /// Snapshot of the `workload` buffer (oldest first).
    pub fn workload(&self) -> Vec<WorkloadRecord> {
        self.state.lock().workload.iter().cloned().collect()
    }

    /// Snapshot of the `references` buffer.
    pub fn references(&self) -> Vec<ReferenceRecord> {
        self.state.lock().references.iter().cloned().collect()
    }

    /// Snapshot of table usage.
    pub fn tables(&self) -> Vec<TableUsage> {
        let mut v: Vec<TableUsage> = self.state.lock().tables.values().cloned().collect();
        v.sort_by_key(|t| t.id);
        v
    }

    /// Snapshot of index usage.
    pub fn indexes(&self) -> Vec<IndexUsage> {
        let mut v: Vec<IndexUsage> = self.state.lock().indexes.values().cloned().collect();
        v.sort_by_key(|i| i.id);
        v
    }

    /// Snapshot of attribute usage.
    pub fn attributes(&self) -> Vec<AttributeUsage> {
        let mut v: Vec<AttributeUsage> = self.state.lock().attributes.values().cloned().collect();
        v.sort_by_key(|a| (a.table, a.column));
        v
    }

    /// Snapshot of the `statistics` buffer.
    pub fn statistics(&self) -> Vec<StatSample> {
        self.state.lock().statistics.iter().cloned().collect()
    }

    /// Total time spent in monitoring code, nanoseconds.
    pub fn self_time_ns(&self) -> u64 {
        self.self_time_ns.load(Ordering::Relaxed)
    }

    /// Total sensor calls.
    pub fn sensor_calls(&self) -> u64 {
        self.sensor_calls.load(Ordering::Relaxed)
    }

    /// Statements recorded over the monitor's lifetime.
    pub fn statements_recorded(&self) -> u64 {
        self.statements_recorded.load(Ordering::Relaxed)
    }

    /// Snapshot the monitor's own health: self-cost counters and ring-buffer
    /// fill/wrap state (the `ima$monitor_health` provider).
    pub fn health(&self) -> MonitorHealth {
        let st = self.state.lock();
        MonitorHealth {
            self_time_ns: self.self_time_ns.load(Ordering::Relaxed),
            sensor_calls: self.sensor_calls.load(Ordering::Relaxed),
            statements_recorded: self.statements_recorded.load(Ordering::Relaxed),
            statements_len: st.statement_order.len(),
            statements_capacity: self.statement_capacity,
            statement_evictions: st.statement_evictions,
            workload_len: st.workload.len(),
            workload_capacity: st.workload.capacity(),
            workload_total: st.workload.total_pushed(),
            references_len: st.references.len(),
            references_capacity: st.references.capacity(),
            references_total: st.references.total_pushed(),
            statistics_len: st.statistics.len(),
            statistics_capacity: st.statistics.capacity(),
            statistics_total: st.statistics.total_pushed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(stmt_cap: usize) -> Monitor {
        let cfg = EngineConfig::default().with_statement_capacity(stmt_cap);
        Monitor::new(&cfg, MonotonicClock::new())
    }

    fn run_statement(m: &Monitor, text: &str) {
        let mut s = m.begin_statement(text);
        m.parsed(
            &mut s,
            vec![TableDetail {
                id: TableId(1),
                name: "protein".into(),
                storage: "HEAP".into(),
                data_pages: 8,
                overflow_pages: 3,
                rows: 100,
            }],
            vec![AttributeDetail {
                table: TableId(1),
                column: 0,
                name: "nref_id".into(),
                has_histogram: false,
            }],
        );
        m.optimized(&mut s, Cost::new(10.0, 2.0), vec![], 1000, 3);
        m.executed(&mut s, 100, 5);
        m.record(s, 0);
    }

    #[test]
    fn statement_dedup_and_frequency() {
        let m = monitor(10);
        run_statement(&m, "select 1");
        run_statement(&m, "select 1");
        run_statement(&m, "select 2");
        let stmts = m.statements();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].frequency, 2);
        assert_eq!(m.workload().len(), 3);
        assert_eq!(m.statements_recorded(), 3);
    }

    #[test]
    fn statement_ring_wraps_at_capacity() {
        // The paper: "the monitoring can capture up to 1000 different
        // statements until the buffer wraps around".
        let m = monitor(5);
        for i in 0..8 {
            run_statement(&m, &format!("select {i}"));
        }
        let stmts = m.statements();
        assert_eq!(stmts.len(), 5);
        assert!(stmts[0].text.contains('3'), "oldest kept must be #3");
        assert!(stmts[4].text.contains('7'));
        let h = m.health();
        assert_eq!(h.statements_len, 5);
        assert_eq!(h.statements_capacity, 5);
        assert_eq!(h.statement_evictions, 3);
        assert_eq!(h.workload_total, 8);
        assert_eq!(h.references_len, h.references_total as usize);
    }

    #[test]
    fn workload_records_costs() {
        let m = monitor(10);
        run_statement(&m, "select 1");
        let w = &m.workload()[0];
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
        let m = monitor(10);
        run_statement(&m, "select 1");
        let before = m.references().len();
        run_statement(&m, "select 1");
        assert_eq!(m.references().len(), before);
        assert_eq!(before, 2); // 1 table + 1 attribute
    }

    #[test]
    fn usage_frequencies_accumulate() {
        let m = monitor(10);
        run_statement(&m, "select 1");
        run_statement(&m, "select 2");
        let tables = m.tables();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].frequency, 2);
        assert_eq!(tables[0].overflow_pages, 3);
        let attrs = m.attributes();
        assert_eq!(attrs[0].frequency, 2);
    }

    #[test]
    fn statistics_samples() {
        let m = monitor(10);
        m.record_statistics(StatSample {
            locks_held: 7,
            ..Default::default()
        });
        assert_eq!(m.statistics().len(), 1);
        assert_eq!(m.statistics()[0].locks_held, 7);
    }

    #[test]
    fn self_time_accumulates() {
        let m = monitor(10);
        run_statement(&m, "select 1");
        assert!(m.self_time_ns() > 0);
        assert!(m.sensor_calls() >= 5);
    }
}
