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
//! than by call: the engine charges the begin and feed regions through
//! [`StatementSensor::add_self_time`], and [`Monitor::record`] charges
//! everything from the statement's end stamp to its own single clock read.
//!
//! The per-statement budget: no allocation once a statement and the objects
//! it references have been seen, at most four clock reads the bare engine
//! would not make (end of begin, both ends of the feed, the one in
//! `record`), and one acquisition of the monitor lock.

pub mod records;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ingot_common::{Cost, EngineConfig, IndexId, MonotonicClock, RingBuffer, StmtHash, TableId};
use ingot_planner::Footprint;
use parking_lot::Mutex;

pub use records::{
    AttributeUsage, Cells, IndexUsage, Record, RefObject, ReferenceRecord, StatSample,
    StatementInfo, TableUsage, WorkloadRecord,
};

/// The in-flight sensor state of one statement. It borrows the statement
/// text (copied into the `statements` buffer on first sight only) and shares
/// the template's interned [`Footprint`].
#[derive(Debug)]
pub struct StatementSensor<'a> {
    start_ns: u64,
    hash: StmtHash,
    text: &'a str,
    footprint: Option<Arc<Footprint>>,
    est: Cost,
    opt_time_ns: u64,
    opt_io: u64,
    exec_cpu: u64,
    exec_io: u64,
    /// Nanoseconds spent inside observer code so far.
    self_ns: u64,
}

impl StatementSensor<'_> {
    /// Attribute a measured region of observer work (the engine's begin and
    /// feed regions, a tracer merge) to this statement's self-time.
    pub fn add_self_time(&mut self, ns: u64) {
        self.self_ns += ns;
    }

    /// Parser/binder sensor: the referenced tables and attributes, with
    /// their live numbers already stored into the footprint's cells.
    #[inline]
    pub fn parsed(&mut self, footprint: Arc<Footprint>) {
        self.footprint = Some(footprint);
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

/// Sensor calls one recorded statement stands for: query interface, parser,
/// optimizer, execution, result.
const SENSORS_PER_STATEMENT: u64 = 5;

/// Interior state guarded by one mutex — a statement record touches several
/// structures and single-lock recording keeps the hot path to one
/// lock/unlock pair.
struct MonitorState {
    statements: HashMap<StmtHash, StatementInfo>,
    /// Insertion order of statement hashes for ring eviction.
    statement_order: VecDeque<StmtHash>,
    workload: RingBuffer<WorkloadRecord>,
    references: RingBuffer<ReferenceRecord>,
    tables: BTreeMap<TableId, TableUsage>,
    indexes: BTreeMap<IndexId, IndexUsage>,
    attributes: BTreeMap<(TableId, usize), AttributeUsage>,
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
                tables: BTreeMap::new(),
                indexes: BTreeMap::new(),
                attributes: BTreeMap::new(),
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

    /// Query-interface sensor: the statement's identity and its own start
    /// stamp (read by the engine for the bare statement anyway).
    #[inline]
    pub fn begin_statement<'a>(
        &self,
        hash: StmtHash,
        text: &'a str,
        start_ns: u64,
    ) -> StatementSensor<'a> {
        StatementSensor {
            start_ns,
            hash,
            text,
            footprint: None,
            est: Cost::ZERO,
            opt_time_ns: 0,
            opt_io: 0,
            exec_cpu: 0,
            exec_io: 0,
            self_ns: 0,
        }
    }

    /// Result sensor: writes the statement into the ring buffers. `end_ns`
    /// is the statement's own end stamp; what the observers did since then
    /// (ASH hand-back, tracer merge, this call) is charged up to the one
    /// clock read below, which is also the record's wall-clock stop.
    pub fn record(&self, sensor: StatementSensor<'_>, end_ns: u64, sim_secs: u64) {
        self.sensor_calls
            .fetch_add(SENSORS_PER_STATEMENT, Ordering::Relaxed);
        self.statements_recorded.fetch_add(1, Ordering::Relaxed);
        // A statement that referenced nothing (or was never fed) records an
        // empty footprint.
        let unfed = Footprint::default();
        let f = sensor.footprint.as_deref().unwrap_or(&unfed);
        let mut st = self.state.lock();
        let state = &mut *st;

        // statements table (+ text and references on first sight).
        if let Some(info) = state.statements.get_mut(&sensor.hash) {
            info.frequency += 1;
            info.last_seen_ns = sensor.start_ns;
        } else {
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
                    text: records::filed_text(sensor.text).to_owned(),
                    frequency: 1,
                    first_seen_ns: sensor.start_ns,
                    last_seen_ns: sensor.start_ns,
                },
            );
            let reference = |object, object_id, table| ReferenceRecord {
                hash: sensor.hash,
                object,
                object_id,
                table,
            };
            for t in &f.tables {
                let id = u64::from(t.id.raw());
                state.references.push(reference(RefObject::Table, id, t.id));
            }
            for a in &f.attributes {
                let col = a.column as u64;
                state
                    .references
                    .push(reference(RefObject::Attribute, col, a.table));
            }
            for i in &f.used_indexes {
                let id = u64::from(i.id.raw());
                state
                    .references
                    .push(reference(RefObject::Index, id, i.table));
            }
        }

        // Object usage tables: names are copied when an object is first
        // seen, the storage tag when it changes; the rest are numbers.
        for t in &f.tables {
            let u = state.tables.entry(t.id).or_insert_with(|| TableUsage {
                id: t.id,
                name: t.name.to_string(),
                frequency: 0,
                storage: String::new(),
                data_pages: 0,
                overflow_pages: 0,
                rows: 0,
            });
            u.frequency += 1;
            if u.storage != t.storage {
                u.storage = t.storage.to_owned();
            }
            u.data_pages = t.data_pages.load(Ordering::Relaxed);
            u.overflow_pages = t.overflow_pages.load(Ordering::Relaxed);
            u.rows = t.rows.load(Ordering::Relaxed);
        }
        for a in &f.attributes {
            let u = state
                .attributes
                .entry((a.table, a.column))
                .or_insert_with(|| AttributeUsage {
                    table: a.table,
                    column: a.column,
                    name: a.name().to_owned(),
                    frequency: 0,
                    has_histogram: false,
                });
            u.frequency += 1;
            u.has_histogram = a.has_histogram;
        }
        for i in &f.used_indexes {
            let u = state.indexes.entry(i.id).or_insert_with(|| IndexUsage {
                id: i.id,
                name: i.name.to_string(),
                table: i.table,
                frequency: 0,
                pages: 0,
            });
            u.frequency += 1;
            u.pages = i.pages.load(Ordering::Relaxed);
        }

        // workload table: wall-clock stop is the record instant.
        let now = self.clock.now_nanos();
        let monitor_ns = sensor.self_ns + now.saturating_sub(end_ns);
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

    /// Snapshot of table usage, by id.
    pub fn tables(&self) -> Vec<TableUsage> {
        self.state.lock().tables.values().cloned().collect()
    }

    /// Snapshot of index usage, by id.
    pub fn indexes(&self) -> Vec<IndexUsage> {
        self.state.lock().indexes.values().cloned().collect()
    }

    /// Snapshot of attribute usage, by `(table, column)`.
    pub fn attributes(&self) -> Vec<AttributeUsage> {
        self.state.lock().attributes.values().cloned().collect()
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
    use ingot_common::{Column, DataType, Schema};
    use ingot_planner::{AttributeRef, TableRef};

    fn monitor(stmt_cap: usize) -> Monitor {
        let cfg = EngineConfig::default().with_statement_capacity(stmt_cap);
        Monitor::new(&cfg, MonotonicClock::new())
    }

    fn run_statement(m: &Monitor, text: &str) {
        let start_ns = m.clock().now_nanos();
        let mut s = m.begin_statement(StmtHash::of(text), text, start_ns);
        s.parsed(Arc::new(Footprint {
            tables: vec![TableRef {
                id: TableId(1),
                name: "protein".into(),
                storage: "HEAP",
                data_pages: 8.into(),
                overflow_pages: 3.into(),
                rows: 100.into(),
            }],
            attributes: vec![AttributeRef {
                table: TableId(1),
                column: 0,
                schema: Schema::new(vec![Column::new("nref_id", DataType::Str)]),
                has_histogram: false,
            }],
            used_indexes: vec![],
        }));
        s.optimized(Cost::new(10.0, 2.0), 1000, 3);
        s.executed(100, 5);
        m.record(s, m.clock().now_nanos(), 0);
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
    fn evicted_statement_re_enters_as_new() {
        let m = monitor(2);
        run_statement(&m, "select 0");
        run_statement(&m, "select 0");
        let refs_per_statement = m.references().len();
        run_statement(&m, "select 1");
        run_statement(&m, "select 2");
        assert!(m.statements().iter().all(|s| s.text != "select 0"));
        // Back after the wrap: the text is captured again, the frequency
        // restarts and the references are pushed anew.
        run_statement(&m, "select 0");
        let stmts = m.statements();
        let back = stmts.last().expect("statements held");
        assert_eq!(back.text, "select 0");
        assert_eq!(back.hash, StmtHash::of("select 0"));
        assert_eq!(back.frequency, 1);
        assert_eq!(m.references().len(), 4 * refs_per_statement);
        assert_eq!(m.health().statement_evictions, 2);
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
        run_statement(&m, "select 2");
        assert!(m.self_time_ns() > 0);
        assert_eq!(m.sensor_calls(), 5 * m.statements_recorded());
    }
}
