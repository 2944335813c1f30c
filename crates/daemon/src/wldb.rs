//! The workload database: persistent, timestamped copies of the IMA data.
//!
//! "The workload database is a native Ingres database that contains the same
//! table schema as the one used in IMA. Updates on tables are appended and
//! provided with a timestamp to allow trend analysis over a longer timespan.
//! … Because the workload DB is in fact a user database, handling the
//! collected data is most simple and can be done with standard SQL."

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ingot_common::{EngineConfig, Error, Result, Row, SimClock, StmtHash, Value};
use ingot_core::{Engine, Monitor, Record, Session, TableShape, COPIED_TABLES};
use parking_lot::Mutex;

use crate::growth::GrowthStats;

/// The one workload-DB table with no `ima$` original: flattened engine
/// metrics, one row per sample per poll.
const METRICS_TABLE: &str = "wl_metrics";
const METRICS_DDL: &str =
    "create table wl_metrics (name text not null, labels text, value float, ts int)";

/// All workload-DB table names: the copy of every [`COPIED_TABLES`] entry,
/// then `wl_metrics`.
pub const WL_TABLES: &[&str] = &{
    let mut names = [METRICS_TABLE; COPIED_TABLES.len() + 1];
    let mut i = 0;
    while i < COPIED_TABLES.len() {
        names[i] = COPIED_TABLES[i].wl;
        i += 1;
    }
    names
};

/// `create table wl_x (…)`: the columns of `ima$x`, then the poll timestamp.
fn create_ddl(shape: &TableShape) -> String {
    let mut ddl = format!("create table {} (", shape.wl);
    for c in (shape.schema)().columns() {
        let not_null = if c.nullable { "" } else { " not null" };
        ddl.push_str(&format!("{} {}{not_null}, ", c.name, c.ty));
    }
    ddl + "ts int)"
}

/// Append cursor: what has already been copied out of the monitor — with
/// [`WaitCursor`], the daemon's own part of each copied table beside `ts`.
///
/// Each poll's batch runs inside one workload-DB transaction, so it is
/// all-or-nothing: a mid-batch failure (I/O fault, crash) rolls the rows
/// back, the cursors stay unpublished, and the daemon's retry re-enters
/// [`WorkloadDb::append_from`] to append the whole batch again — no
/// duplicates, no gaps.
#[derive(Default)]
struct MonitorCursor {
    last_workload_seq: Option<u64>,
    /// Last appended frequency per statement the monitor still holds.
    stmt_freq: HashMap<StmtHash, u64>,
    /// References the monitor still holds that are already copied.
    refs_seen: HashSet<(StmtHash, &'static str, u64)>,
    last_stat_ns: u64,
}

/// What [`WorkloadDb::append_waits`] has already copied.
#[derive(Clone, Copy, Default)]
struct WaitCursor {
    /// Newest ASH sample timestamp already copied into `wl_ash`.
    last_ash_ns: u64,
    /// Cumulative wait nanoseconds at the last `wl_waits` snapshot — polls
    /// where nothing waited append nothing.
    last_wait_ns: u64,
}

/// One open append transaction and what it has written so far.
struct Batch<'a> {
    session: &'a Session,
    ts: Value,
    rows: u64,
    bytes: u64,
}

impl Batch<'_> {
    /// One row into `table` through the engine's locked, WAL-observed insert
    /// path ([`Session::insert_direct`]) — every append is redo-logged like
    /// any other DML.
    fn insert(&mut self, table: &str, mut values: Vec<Value>) -> Result<()> {
        values.push(self.ts.clone());
        let row = Row::new(values);
        self.session.insert_direct(table, &row)?;
        self.bytes += row.byte_size() as u64;
        self.rows += 1;
        Ok(())
    }

    /// `record` into its `wl_` table: the `ima$` row plus `ts`.
    fn put<R: Record>(&mut self, record: R) -> Result<()> {
        self.insert(R::WL, record.encode())
    }
}

/// The workload database. Wraps a dedicated (non-monitored) engine instance.
pub struct WorkloadDb {
    engine: Arc<Engine>,
    cursor: Mutex<MonitorCursor>,
    wait_cursor: Mutex<WaitCursor>,
    growth: GrowthStats,
}

impl WorkloadDb {
    /// In-memory workload DB (unit tests, simulation-only experiments).
    pub fn in_memory(clock: SimClock) -> Result<Self> {
        let engine = Engine::builder()
            .config(Self::default_config())
            .clock(clock)
            .build()?;
        Self::init(engine)
    }

    /// File-backed workload DB under `dir` — the production shape: daemon
    /// appends are real disk writes.
    pub fn file_backed(dir: impl Into<std::path::PathBuf>, clock: SimClock) -> Result<Self> {
        let engine = Engine::builder()
            .config(Self::default_config())
            .clock(clock)
            .path(dir)
            .build()?;
        Self::init(engine)
    }

    /// Workload DB over an arbitrary disk backend — how the fault-injection
    /// tests wrap the store in an `ingot_storage::FaultInjectingBackend`.
    pub fn with_backend(
        backend: Box<dyn ingot_storage::DiskBackend>,
        clock: SimClock,
    ) -> Result<Self> {
        let engine = Engine::builder()
            .config(Self::default_config())
            .clock(clock)
            .backend(backend)
            .build()?;
        Self::init(engine)
    }

    /// Workload DB inside a caller-built engine (custom configs: tiny
    /// buffer pools, single-page heap extents). The engine should not be
    /// monitored — the workload DB is the *store*, not a workload source.
    pub fn with_engine(engine: Arc<Engine>) -> Result<Self> {
        Self::init(engine)
    }

    /// The engine configuration the standard constructors use: the workload
    /// DB is not itself monitored, and it gets a modest cache so appends
    /// spill to the backend regularly.
    pub fn default_config() -> EngineConfig {
        EngineConfig {
            monitor_enabled: false,
            buffer_pool_pages: 256,
            heap_main_pages: 4,
            ..EngineConfig::default()
        }
    }

    /// Inspect and repair a file-backed workload DB directory after a
    /// crash: pages past the last durable checkpoint whose checksums do not
    /// match (torn writes) are truncated away, and partial trailing pages
    /// are dropped. [`WorkloadDb::file_backed`] already runs this (plus WAL
    /// replay of committed appends) when it reopens a directory; calling it
    /// directly is useful for inspecting the page-level damage report.
    pub fn recover(dir: impl AsRef<std::path::Path>) -> Result<ingot_storage::RecoveryReport> {
        ingot_storage::recover(dir.as_ref())
    }

    fn init(engine: Arc<Engine>) -> Result<Self> {
        {
            // After a crash the schema may already be back: the checkpoint
            // manifest carries it and WAL replay redoes any later DDL. Only
            // the tables still missing are created.
            let session = engine.open_session();
            let missing = |table: &str| engine.catalog().read().resolve_table(table).is_err();
            for shape in &COPIED_TABLES {
                if missing(shape.wl) {
                    session.execute(&create_ddl(shape))?;
                }
            }
            if missing(METRICS_TABLE) {
                session.execute(METRICS_DDL)?;
            }
        }
        Ok(WorkloadDb {
            engine,
            cursor: Mutex::default(),
            wait_cursor: Mutex::default(),
            growth: GrowthStats::default(),
        })
    }

    /// The engine holding the workload DB (SQL access for analyzers:
    /// `wldb.session().execute("select … from wl_workload …")`).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Open a SQL session on the workload DB.
    pub fn session(&self) -> Session {
        self.engine.open_session()
    }

    /// Growth accounting (reproduces the §V-A "28 MB per hour" analysis).
    pub fn growth(&self) -> &GrowthStats {
        &self.growth
    }

    /// Run `fill` as one workload-DB transaction stamping rows with
    /// `now_secs`. `fill` reads `cursor` and returns the cursor to publish,
    /// which happens only after the commit: on error the session drops with
    /// its transaction open, which aborts it (a failed commit already rolled
    /// back), `cursor` is unchanged and the caller's retry appends the
    /// batch in full.
    fn batch<C>(
        &self,
        cursor: &mut C,
        now_secs: u64,
        fill: impl FnOnce(&mut Batch<'_>, &C) -> Result<C>,
    ) -> Result<()> {
        let session = self.engine.open_session();
        session.begin()?;
        let mut batch = Batch {
            session: &session,
            ts: Value::Int(now_secs as i64),
            rows: 0,
            bytes: 0,
        };
        let next = fill(&mut batch, cursor)?;
        session.commit()?;
        *cursor = next;
        self.growth
            .record_append(batch.rows, batch.bytes, self.engine.sim_clock().now_secs());
        Ok(())
    }

    /// Copy everything new in `monitor` into the workload DB, stamping rows
    /// with `now_secs` (simulated seconds). The whole batch runs in one
    /// transaction: all rows ride a single WAL durability barrier at commit,
    /// and a failure anywhere rolls the batch back so the daemon's retry
    /// appends it in full.
    pub fn append_from(&self, monitor: &Monitor, now_secs: u64) -> Result<()> {
        self.batch(&mut *self.cursor.lock(), now_secs, |batch, cursor| {
            // Statements whose frequency changed since the last poll. The
            // next cursor keeps only what the monitor still holds, so it is
            // bounded by the statement ring and a statement that was evicted
            // and came back is filed again, as `ima$statements` does.
            let mut stmt_freq = HashMap::new();
            for s in monitor.statements() {
                stmt_freq.insert(s.hash, s.frequency);
                if cursor.stmt_freq.get(&s.hash) != Some(&s.frequency) {
                    batch.put(s)?;
                }
            }

            // Workload executions beyond the last copied sequence number.
            let mut last_workload_seq = cursor.last_workload_seq;
            for w in monitor.workload() {
                if last_workload_seq.is_none_or(|last| w.seq > last) {
                    last_workload_seq = Some(w.seq);
                    batch.put(w)?;
                }
            }

            // Object references not yet copied; bounded like `stmt_freq`.
            let mut refs_seen = HashSet::new();
            for r in monitor.references() {
                let key = (r.hash, r.object.tag(), r.object_id);
                if refs_seen.insert(key) && !cursor.refs_seen.contains(&key) {
                    batch.put(r)?;
                }
            }

            // Object-usage snapshots: appended every poll for trend
            // analysis. No cursor needed — the enclosing transaction makes
            // the snapshot all-or-nothing.
            for t in monitor.tables() {
                batch.put(t)?;
            }
            for i in monitor.indexes() {
                batch.put(i)?;
            }
            for a in monitor.attributes() {
                batch.put(a)?;
            }

            // Statistics samples newer than the last copied one.
            let mut last_stat_ns = cursor.last_stat_ns;
            for s in monitor.statistics() {
                if s.at_ns > last_stat_ns {
                    last_stat_ns = s.at_ns;
                    batch.put(s)?;
                }
            }
            Ok(MonitorCursor {
                last_workload_seq,
                stmt_freq,
                refs_seen,
                last_stat_ns,
            })
        })
    }

    /// Append a flattened [`MetricsSnapshot`] — every sample becomes one
    /// `wl_metrics` row, so engine-level time series (buffer hit rates,
    /// latency histogram buckets, …) are queryable alongside the Fig 3
    /// workload tables.
    ///
    /// [`MetricsSnapshot`]: ingot_core::MetricsSnapshot
    pub fn append_metrics(
        &self,
        snapshot: &ingot_core::MetricsSnapshot,
        now_secs: u64,
    ) -> Result<()> {
        self.batch(&mut (), now_secs, |batch, _| {
            for (name, labels, value) in snapshot.flatten() {
                batch.insert(
                    METRICS_TABLE,
                    vec![name.into(), labels.into(), value.into()],
                )?;
            }
            Ok(())
        })
    }

    /// Roll the monitored engine's wait-event counters and new ASH samples
    /// into `wl_waits` / `wl_ash`, stamped with `now_secs`. Like
    /// [`WorkloadDb::append_from`], the batch is one transaction and the ASH
    /// cursor publishes only after commit, so a faulted poll re-appends the
    /// same samples without duplicates. A no-op when the engine's wait
    /// subsystem is off.
    pub fn append_waits(&self, source: &Engine, now_secs: u64) -> Result<()> {
        let (Some(registry), Some(sampler)) = (source.wait_registry(), source.ash_sampler()) else {
            return Ok(());
        };
        let mut cursor = self.wait_cursor.lock();
        // Idle fast path: nothing charged and nothing recorded since the
        // last poll means no transaction at all — an idle engine's polls
        // read one counter total and one ring high-water mark.
        if registry.counters().total_ns() <= cursor.last_wait_ns
            && sampler.latest_recorded_ns() <= cursor.last_ash_ns
        {
            return Ok(());
        }
        self.batch(&mut *cursor, now_secs, |batch, cursor| {
            let mut next = *cursor;
            // Cumulative per-event totals, snapshot-style like wl_tables —
            // but only when some wait has been charged since the last poll,
            // and only for events that have occurred.
            let totals = registry.snapshot();
            let grand_total: u64 = totals.iter().map(|t| t.total_ns).sum();
            if grand_total > cursor.last_wait_ns {
                next.last_wait_ns = grand_total;
                for t in totals.into_iter().filter(|t| t.count > 0) {
                    batch.put(t)?;
                }
            }
            // ASH samples newer than the cursor. Every session row from one
            // sampler tick carries the same `at_ns`, so each is compared
            // with the cursor as the poll found it — against the advancing
            // one, all but the first session of a tick would be dropped.
            for sample in sampler.history() {
                if sample.at_ns > cursor.last_ash_ns {
                    next.last_ash_ns = next.last_ash_ns.max(sample.at_ns);
                    batch.put(sample)?;
                }
            }
            Ok(next)
        })
    }

    /// Delete rows older than `cutoff_secs` from every workload table (the
    /// retention window; paper default seven days).
    pub fn purge_older_than(&self, cutoff_secs: u64) -> Result<()> {
        if cutoff_secs == 0 {
            return Ok(());
        }
        let session = self.session();
        for table in WL_TABLES {
            session.execute(&format!("delete from {table} where ts < {cutoff_secs}"))?;
        }
        Ok(())
    }

    /// Row count of one workload table.
    pub fn row_count(&self, table: &str) -> Result<u64> {
        let session = self.session();
        let r = session.execute(&format!("select count(*) from {table}"))?;
        r.rows[0]
            .get(0)
            .as_int()
            .map(|n| n as u64)
            .ok_or_else(|| Error::daemon("count(*) returned non-integer"))
    }

    /// Run a query against the workload DB and return its rows.
    pub fn query(&self, sql: &str) -> Result<Vec<Row>> {
        Ok(self.session().execute(sql)?.rows)
    }

    /// Durably checkpoint the workload DB — fsync of every data file plus
    /// the recovery manifest (page checksums + epoch + schema snapshot) and
    /// WAL truncation to the new cut. Committed appends are already durable
    /// the moment [`WorkloadDb::append_from`] returns (the WAL barrier);
    /// this bounds the log's length and replay time.
    pub fn flush(&self) -> Result<()> {
        self.engine.checkpoint().map(|_| ())
    }

    /// Total pages of the workload DB (its on-disk size).
    pub fn total_pages(&self) -> u64 {
        self.engine.total_data_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_catalog::Relation;
    use ingot_common::{Column, DataType, EngineConfig};

    /// A monitored engine whose nine copied tables all hold rows: a
    /// statement that used a secondary index, a charged wait and one ASH
    /// sample of a session mid-statement.
    fn engine_with_every_table_filled() -> Arc<Engine> {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let s = engine.open_session();
        s.execute("create table t (a int, b int)").unwrap();
        s.execute("create index t_b on t (b)").unwrap();
        for chunk in 0..4 {
            let rows: Vec<String> = (chunk * 500..(chunk + 1) * 500)
                .map(|i| format!("({i}, {i})"))
                .collect();
            s.execute(&format!("insert into t values {}", rows.join(", ")))
                .unwrap();
        }
        s.execute("create statistics on t").unwrap();
        s.execute("select a from t where b = 55").unwrap();
        engine
            .wait_registry()
            .unwrap()
            .charge(ingot_common::WaitEvent::LockWaitX, 1_000);
        let sampler = engine.ash_sampler().unwrap();
        let slot = sampler.register_session(99);
        slot.begin_statement(StmtHash::of("select 1"), &"select 1".into(), 0);
        sampler.sample_now(10);
        engine
    }

    #[test]
    fn every_copy_has_its_ima_columns_plus_ts() {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let db = WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap();
        for shape in &COPIED_TABLES {
            let mut expected = match engine.catalog().read().resolve_relation(shape.ima) {
                Ok(Relation::Virtual(live)) => live.schema.columns().to_vec(),
                _ => panic!("{} is not a registered virtual table", shape.ima),
            };
            expected.push(Column::new("ts", DataType::Int));
            match db.engine().catalog().read().resolve_relation(shape.wl) {
                Ok(Relation::Base(copy)) => {
                    assert_eq!(copy.meta.schema.columns(), expected, "{}", shape.wl)
                }
                _ => panic!("{} is not a workload-DB table", shape.wl),
            };
            assert!(WL_TABLES.contains(&shape.wl));
        }
        assert_eq!(WL_TABLES.len(), COPIED_TABLES.len() + 1);
    }

    #[test]
    fn one_poll_copies_every_provider_row() {
        let engine = engine_with_every_table_filled();
        let db = Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
        let daemon = crate::StorageDaemon::new(
            Arc::clone(&engine),
            Arc::clone(&db),
            crate::DaemonConfig::default(),
        );
        daemon.poll_once().unwrap();
        for shape in &COPIED_TABLES {
            // Through the provider, not a monitored session: the read must
            // not add rows to what it reads.
            let mut live = match engine.catalog().read().resolve_relation(shape.ima) {
                Ok(Relation::Virtual(table)) => (table.provider)(),
                _ => panic!("{} is not a registered virtual table", shape.ima),
            };
            if shape.wl == "wl_waits" {
                live.retain(|row| row.get(1).as_int() > Some(0));
            }
            assert!(!live.is_empty(), "{} must have rows to compare", shape.ima);
            let copied: Vec<Row> = db
                .query(&format!("select * from {}", shape.wl))
                .unwrap()
                .into_iter()
                .map(|row| {
                    let mut values = row.into_values();
                    assert_eq!(values.pop(), Some(Value::Int(0)), "ts closes the row");
                    Row::new(values)
                })
                .collect();
            assert_eq!(copied, live, "{} vs {}", shape.wl, shape.ima);
        }
    }

    #[test]
    fn append_cursor_stays_within_the_monitor_rings() {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let monitor = engine.monitor().unwrap();
        let capacity = monitor.health().statements_capacity;
        let s = engine.open_session();
        s.execute("create table t (a int, b int)").unwrap();
        let db = WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap();
        // The paper's never-repeating regime: every statement text is new.
        for i in 0..5 * capacity {
            s.execute(&format!("select a from t where a = {i} and b = {i}"))
                .unwrap();
            if i % (capacity / 2) == 0 {
                db.append_from(monitor, i as u64).unwrap();
            }
        }
        db.append_from(monitor, 5 * capacity as u64).unwrap();
        let health = monitor.health();
        assert!(
            health.references_total > health.references_capacity as u64,
            "the references ring must have wrapped for its bound to mean anything"
        );
        {
            let cursor = db.cursor.lock();
            assert!(cursor.stmt_freq.len() <= capacity);
            assert!(cursor.refs_seen.len() <= health.references_capacity);
        }
        // Pruning the cursor loses and repeats nothing: one row per
        // execution, each `(hash, seq)` once.
        let executions = monitor.statements_recorded();
        assert_eq!(db.row_count("wl_workload").unwrap(), executions);
        let keys: HashSet<(String, i64)> = db
            .query("select hash, seq from wl_workload")
            .unwrap()
            .iter()
            .map(|r| (r.get(0).to_string(), r.get(1).as_int().unwrap()))
            .collect();
        assert_eq!(keys.len() as u64, executions);
        assert_eq!(db.row_count("wl_statements").unwrap(), executions);
    }

    #[test]
    fn cursor_loses_and_repeats_nothing_while_writers_run() {
        // Four sessions record at once while polls copy the workload ring:
        // a poll never steps past a record still being written, so every
        // `(hash, seq)` lands exactly once.
        const WRITERS: usize = 4;
        const PER_WRITER: usize = 800; // all of it fits the 4096-slot ring
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let monitor = engine.monitor().unwrap();
        engine
            .open_session()
            .execute("create table t (a int not null primary key, b int)")
            .unwrap();
        let db = WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap();
        let running = std::sync::atomic::AtomicUsize::new(WRITERS);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (engine, running) = (&engine, &running);
                scope.spawn(move || {
                    let s = engine.open_session();
                    let insert = s.prepare("insert into t values ($1, $2)").unwrap();
                    for i in 0..PER_WRITER {
                        let key = (w * PER_WRITER + i) as i64;
                        if i % 5 == 0 {
                            s.execute(&format!("select b from t where a = {key}"))
                                .unwrap();
                        } else {
                            insert.execute(&[Value::Int(key), Value::Int(1)]).unwrap();
                        }
                    }
                    running.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                });
            }
            let mut polls = 0;
            while running.load(std::sync::atomic::Ordering::Relaxed) > 0 {
                db.append_from(monitor, polls).unwrap();
                polls += 1;
            }
        });
        db.append_from(monitor, u64::MAX >> 2).unwrap();
        let executions = monitor.statements_recorded();
        assert_eq!(executions, 1 + (WRITERS * PER_WRITER) as u64);
        let seqs: HashSet<i64> = db
            .query("select seq from wl_workload")
            .unwrap()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        assert_eq!(db.row_count("wl_workload").unwrap(), executions);
        assert_eq!(seqs, (0..executions as i64).collect::<HashSet<_>>());
        assert_eq!(monitor.health().workload_lapped, 0);
    }

    #[test]
    fn schema_is_created() {
        let db = WorkloadDb::in_memory(SimClock::new()).unwrap();
        for t in WL_TABLES {
            assert_eq!(db.row_count(t).unwrap(), 0, "{t}");
        }
    }

    #[test]
    fn append_is_incremental() {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let s = engine.open_session();
        s.execute("create table t (a int)").unwrap();
        s.execute("insert into t values (1)").unwrap();
        let db = WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap();
        db.append_from(engine.monitor().unwrap(), 100).unwrap();
        assert_eq!(db.row_count("wl_workload").unwrap(), 2);
        // Same statement again: one new workload row, statement frequency row.
        s.execute("insert into t values (1)").unwrap();
        db.append_from(engine.monitor().unwrap(), 130).unwrap();
        assert_eq!(db.row_count("wl_workload").unwrap(), 3);
        let rows = db
            .query("select frequency from wl_statements where query_text like 'insert%' order by ts desc limit 1")
            .unwrap();
        assert_eq!(rows[0].get(0), &Value::Int(2));
    }

    #[test]
    fn append_waits_is_cursor_gated() {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let registry = engine.wait_registry().unwrap();
        let sampler = engine.ash_sampler().unwrap();
        registry.charge(ingot_common::WaitEvent::LockWaitX, 1_000);
        let slot = sampler.register_session(99);
        slot.begin_statement(StmtHash::of("select 1"), &"select 1".into(), 0);
        sampler.sample_now(10);
        let db = WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap();
        db.append_waits(&engine, 100).unwrap();
        assert_eq!(db.row_count("wl_waits").unwrap(), 1);
        assert_eq!(db.row_count("wl_ash").unwrap(), 1);
        // Nothing new since: the cursors keep the next poll a no-op.
        db.append_waits(&engine, 130).unwrap();
        assert_eq!(db.row_count("wl_waits").unwrap(), 1);
        assert_eq!(db.row_count("wl_ash").unwrap(), 1);
        // Fresh waits and samples append again (cumulative snapshot rows).
        registry.charge(ingot_common::WaitEvent::WalFsync, 2_000);
        sampler.sample_now(20);
        db.append_waits(&engine, 160).unwrap();
        assert_eq!(db.row_count("wl_waits").unwrap(), 3);
        assert_eq!(db.row_count("wl_ash").unwrap(), 2);
        let rows = db
            .query("select total_ns from wl_waits where event = 'LockWaitX' order by ts limit 1")
            .unwrap();
        assert_eq!(rows[0].get(0), &Value::Int(1_000));
    }

    #[test]
    fn append_waits_keeps_every_session_of_one_tick() {
        // All rows of one sampler tick share the same at_ns; the rollup
        // cursor must not drop the tick's remaining sessions after copying
        // the first (regression: cursor advanced inside the copy loop).
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let sampler = engine.ash_sampler().unwrap();
        let slots: Vec<_> = (1..=3)
            .map(|id| {
                let slot = sampler.register_session(id);
                slot.begin_statement(StmtHash::of("select 1"), &"select 1".into(), 0);
                slot
            })
            .collect();
        sampler.sample_now(10);
        let db = WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap();
        db.append_waits(&engine, 100).unwrap();
        assert_eq!(db.row_count("wl_ash").unwrap(), 3);
        let sessions: std::collections::BTreeSet<i64> = db
            .query("select session from wl_ash")
            .unwrap()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        assert_eq!(sessions.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        // The cursor still gates the next poll: same tick, nothing new.
        db.append_waits(&engine, 130).unwrap();
        assert_eq!(db.row_count("wl_ash").unwrap(), 3);
        // A later tick appends all its sessions again.
        sampler.sample_now(20);
        db.append_waits(&engine, 160).unwrap();
        assert_eq!(db.row_count("wl_ash").unwrap(), 6);
        drop(slots);
    }

    #[test]
    fn purge_respects_cutoff() {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let s = engine.open_session();
        s.execute("create table t (a int)").unwrap();
        let db = WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap();
        db.append_from(engine.monitor().unwrap(), 100).unwrap();
        s.execute("insert into t values (1)").unwrap();
        db.append_from(engine.monitor().unwrap(), 900).unwrap();
        db.purge_older_than(500).unwrap();
        let rows = db.query("select ts from wl_workload").unwrap();
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r.get(0).as_int().unwrap() >= 500));
    }

    #[test]
    fn growth_accounting_tracks_bytes() {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let s = engine.open_session();
        s.execute("create table t (a int)").unwrap();
        for i in 0..50 {
            s.execute(&format!("insert into t values ({i})")).unwrap();
        }
        let db = WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap();
        db.append_from(engine.monitor().unwrap(), 0).unwrap();
        let g = db.growth();
        assert!(g.rows_appended() > 50);
        assert!(g.bytes_appended() > 1000);
    }

    #[test]
    fn file_backed_db_writes_real_files() {
        let dir = std::env::temp_dir().join(format!("ingot-wldb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let engine = Engine::builder()
                .config(EngineConfig::monitoring())
                .build()
                .unwrap();
            let s = engine.open_session();
            s.execute("create table t (a int)").unwrap();
            let db = WorkloadDb::file_backed(&dir, engine.sim_clock().clone()).unwrap();
            db.append_from(engine.monitor().unwrap(), 0).unwrap();
            db.flush().unwrap();
        }
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(!files.is_empty(), "expected data files in {dir:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
