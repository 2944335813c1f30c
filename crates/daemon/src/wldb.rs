//! The workload database: persistent, timestamped copies of the IMA data.
//!
//! "The workload database is a native Ingres database that contains the same
//! table schema as the one used in IMA. Updates on tables are appended and
//! provided with a timestamp to allow trend analysis over a longer timespan.
//! … Because the workload DB is in fact a user database, handling the
//! collected data is most simple and can be done with standard SQL."

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ingot_catalog::Relation;
use ingot_common::{Column, DataType, EngineConfig, Error, Result, Row, SimClock, StmtHash, Value};
use ingot_core::{Copied, Engine, Monitor, Session, TableShape, COPIED_TABLES};
use parking_lot::{Mutex, RwLock};

use crate::growth::GrowthStats;

/// The copied tables filed whole, every provider row, on each successful
/// poll: the engine's counters, which no cursor gates. The cursors of
/// [`WorkloadDb::append_from`] / [`WorkloadDb::append_waits`] file the rest.
pub const PER_POLL_TABLES: [&str; 5] = [
    "wl_transactions",
    "wl_plan_cache",
    "wl_wal",
    "wl_monitor_health",
    "wl_latency_histograms",
];

/// The columns of `wl_x`: those of `ima$x`, then `boot` and `ts`.
fn wl_columns(shape: &TableShape) -> Vec<Column> {
    let mut columns = (shape.schema)().columns().to_vec();
    columns.extend(["boot", "ts"].map(|name| Column::new(name, DataType::Int)));
    columns
}

/// One column as DDL declares it.
fn column_ddl(c: &Column) -> String {
    let not_null = if c.nullable { "" } else { " not null" };
    format!("{} {}{not_null}", c.name, c.ty)
}

/// `create table <table> (…)` over `columns`.
fn create_ddl(table: &str, columns: &[Column]) -> String {
    let columns: Vec<String> = columns.iter().map(column_ddl).collect();
    format!("create table {table} ({})", columns.join(", "))
}

/// Refuse a `wl_` table that is there with other columns than `want` (a
/// workload DB written by another build), naming the first that differs.
fn check_columns(table: &str, found: &[Column], want: &[Column]) -> Result<()> {
    let Some(i) = (0..found.len().max(want.len())).find(|&i| found.get(i) != want.get(i)) else {
        return Ok(());
    };
    let describe = |c: Option<&Column>| c.map_or_else(|| "absent".to_owned(), column_ddl);
    Err(Error::daemon(format!(
        "{table} does not match this build: column {} is {}, expected {}",
        i + 1,
        describe(found.get(i)),
        describe(want.get(i))
    )))
}

/// Append cursor: what has already been copied out of the monitor — with
/// [`WaitCursor`], the daemon's own part of each copied table beside `boot`
/// and `ts`.
///
/// Each poll's batch runs inside one workload-DB transaction, so it is
/// all-or-nothing: a mid-batch failure (I/O fault, crash) rolls the rows
/// back, the cursors stay unpublished, and the next poll's replay re-enters
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

/// The cursor in `slot` if it belongs to the life `boot` of the source
/// ([`Monitor::boot`]), else a fresh one: sequence numbers, clocks and
/// counters start over when the source restarts.
fn of_life<C: Default>(slot: &mut (u64, C), boot: u64) -> &mut C {
    if slot.0 != boot {
        *slot = (boot, C::default());
    }
    &mut slot.1
}

/// One open append transaction and what it has written so far.
struct Batch<'a> {
    session: &'a Session,
    boot: Value,
    ts: Value,
    rows: u64,
    bytes: u64,
}

impl Batch<'_> {
    /// An `ima$` row into its `wl_` table `table`, `boot` and `ts` appended,
    /// through the engine's locked, WAL-observed insert path
    /// ([`Session::insert_direct`]) — every append is redo-logged like any
    /// other DML.
    fn insert(&mut self, table: &str, mut values: Vec<Value>) -> Result<()> {
        values.push(self.boot.clone());
        values.push(self.ts.clone());
        let row = Row::new(values);
        self.session.insert_direct(table, &row)?;
        self.bytes += row.byte_size() as u64;
        self.rows += 1;
        Ok(())
    }

    /// `record` into its `wl_` table.
    fn put<R: Copied>(&mut self, record: R) -> Result<()> {
        self.insert(R::WL, record.encode())
    }
}

/// The workload database. Wraps a dedicated (non-monitored) engine instance.
pub struct WorkloadDb {
    /// The live engine; [`WorkloadDb::reopen`] swaps in its successor.
    engine: RwLock<Arc<Engine>>,
    /// The directory of a file-backed DB: what [`WorkloadDb::reopen`]
    /// reopens. `None` when there is nothing to reopen.
    dir: Option<PathBuf>,
    cursor: Mutex<(u64, MonitorCursor)>,
    wait_cursor: Mutex<(u64, WaitCursor)>,
    growth: GrowthStats,
}

impl WorkloadDb {
    /// In-memory workload DB (unit tests, simulation-only experiments).
    pub fn in_memory(clock: SimClock) -> Result<Self> {
        Self::init(Self::builder(clock).build()?, None)
    }

    /// File-backed workload DB under `dir` — the production shape: daemon
    /// appends are real disk writes, and a dead log is repaired by
    /// [`WorkloadDb::reopen`].
    pub fn file_backed(dir: impl Into<PathBuf>, clock: SimClock) -> Result<Self> {
        let dir = dir.into();
        Self::init(Self::builder(clock).path(&dir).build()?, Some(dir))
    }

    /// Workload DB over an arbitrary disk backend — how the fault-injection
    /// tests wrap the store in an `ingot_storage::FaultInjectingBackend`.
    pub fn with_backend(
        backend: Box<dyn ingot_storage::DiskBackend>,
        clock: SimClock,
    ) -> Result<Self> {
        Self::init(Self::builder(clock).backend(backend).build()?, None)
    }

    /// The standard constructors' engine: [`Self::default_config`], `clock`.
    fn builder(clock: SimClock) -> ingot_core::EngineBuilder {
        Engine::builder()
            .config(Self::default_config())
            .clock(clock)
    }

    /// Workload DB inside a caller-built engine (custom configs: tiny
    /// buffer pools, single-page heap extents). The engine should not be
    /// monitored — the workload DB is the *store*, not a workload source.
    pub fn with_engine(engine: Arc<Engine>) -> Result<Self> {
        Self::init(engine, None)
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

    fn init(engine: Arc<Engine>, dir: Option<PathBuf>) -> Result<Self> {
        Self::create_tables(&engine)?;
        Ok(WorkloadDb {
            engine: RwLock::new(engine),
            dir,
            cursor: Mutex::default(),
            wait_cursor: Mutex::default(),
            growth: GrowthStats::default(),
        })
    }

    /// Create the `wl_` tables `engine` lacks. After a crash the schema may
    /// already be back: the checkpoint manifest carries it and WAL replay
    /// redoes any later DDL. A table already there must have this build's
    /// columns, or every append to it would fail.
    fn create_tables(engine: &Arc<Engine>) -> Result<()> {
        let session = engine.open_session();
        for shape in &COPIED_TABLES {
            let found = {
                let catalog = engine.catalog().read();
                let id = catalog.resolve_table(shape.wl);
                id.and_then(|id| Ok(catalog.table(id)?.meta.schema.clone()))
            };
            let want = wl_columns(shape);
            match found {
                Ok(schema) => check_columns(shape.wl, schema.columns(), &want)?,
                Err(_) => {
                    session.execute(&create_ddl(shape.wl, &want))?;
                }
            }
        }
        Ok(())
    }

    /// Reopen the directory of a file-backed workload DB whose log died
    /// (`ima$wal.dead`): recovery repairs the pages to the last checkpoint
    /// and replays the WAL, which brings back every acknowledged append,
    /// the tables are checked as at open, and the new engine takes the
    /// slot. Errs, changing nothing, when there is no directory to reopen.
    ///
    /// The old engine may still be referenced — a session, an `Arc` from
    /// [`WorkloadDb::engine`] — and that is safe because a dead engine
    /// writes nothing to the directory: its log refuses every operation,
    /// [`Engine::checkpoint`] starts with a WAL append and so fails before
    /// it writes a page, and no part of an engine flushes when dropped.
    /// It also rests on the daemon being the workload DB's only writer: an
    /// insert on the old engine would still allocate a page in a data file
    /// before its WAL append fails.
    pub fn reopen(&self) -> Result<()> {
        let Some(dir) = &self.dir else {
            return Err(Error::daemon("the workload DB has no directory to reopen"));
        };
        let clock = self.engine().sim_clock().clone();
        let engine = Self::builder(clock).path(dir).build()?;
        Self::create_tables(&engine)?;
        *self.engine.write() = engine;
        Ok(())
    }

    /// The directory of a file-backed workload DB; `None` when there is
    /// nothing to [`reopen`](WorkloadDb::reopen).
    pub(crate) fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The engine holding the workload DB (SQL access for analyzers:
    /// `wldb.session().execute("select … from wl_workload …")`). After a
    /// [`reopen`](WorkloadDb::reopen) this is the new engine.
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.engine.read())
    }

    /// Open a SQL session on the workload DB.
    pub fn session(&self) -> Session {
        self.engine().open_session()
    }

    /// Growth accounting (reproduces the §V-A "28 MB per hour" analysis).
    pub fn growth(&self) -> &GrowthStats {
        &self.growth
    }

    /// Run `fill` as one workload-DB transaction stamping rows with
    /// `now_secs`, and copied rows with the source's `boot`. `fill` reads
    /// `cursor` and returns the cursor to publish, which happens only after
    /// the commit: on error the session drops with
    /// its transaction open, which aborts it (a failed commit already rolled
    /// back), `cursor` is unchanged and the next poll's replay appends the
    /// batch in full.
    fn batch<C>(
        &self,
        cursor: &mut C,
        boot: u64,
        now_secs: u64,
        fill: impl FnOnce(&mut Batch<'_>, &C) -> Result<C>,
    ) -> Result<()> {
        let session = self.session();
        session.begin()?;
        let mut batch = Batch {
            session: &session,
            boot: Value::Int(boot as i64),
            ts: Value::Int(now_secs as i64),
            rows: 0,
            bytes: 0,
        };
        let next = fill(&mut batch, cursor)?;
        session.commit()?;
        *cursor = next;
        self.growth.record_append(
            batch.rows,
            batch.bytes,
            session.engine().sim_clock().now_secs(),
        );
        Ok(())
    }

    /// Copy everything new in `monitor` into the workload DB, stamping rows
    /// with `now_secs` (simulated seconds). The whole batch runs in one
    /// transaction: all rows ride a single WAL durability barrier at commit,
    /// and a failure anywhere rolls the batch back so the next poll's replay
    /// appends it in full.
    pub fn append_from(&self, monitor: &Monitor, now_secs: u64) -> Result<()> {
        let boot = monitor.boot();
        let mut slot = self.cursor.lock();
        self.batch(of_life(&mut slot, boot), boot, now_secs, |batch, cursor| {
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

    /// File every row `source` serves in the [`PER_POLL_TABLES`], stamped
    /// with `now_secs`, as one transaction: the engine's counters as a time
    /// series beside the Fig 3 tables. The rows are read through the
    /// tables' providers, so reading them records nothing in the monitor.
    pub fn append_counters(&self, source: &Engine, now_secs: u64) -> Result<()> {
        let catalog = source.catalog().read();
        let boot = source.monitor().map_or(0, |m| m.boot());
        self.batch(&mut (), boot, now_secs, |batch, _| {
            for shape in COPIED_TABLES
                .iter()
                .filter(|s| PER_POLL_TABLES.contains(&s.wl))
            {
                if let Ok(Relation::Virtual(table)) = catalog.resolve_relation(shape.ima) {
                    for row in (table.provider)() {
                        batch.insert(shape.wl, row.into_values())?;
                    }
                }
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
        let boot = source.monitor().map_or(0, |m| m.boot());
        let mut slot = self.wait_cursor.lock();
        let cursor = of_life(&mut slot, boot);
        // Idle fast path: nothing charged and nothing recorded since the
        // last poll means no transaction at all — an idle engine's polls
        // read one counter total and one ring high-water mark.
        if registry.counters().total_ns() <= cursor.last_wait_ns
            && sampler.latest_recorded_ns() <= cursor.last_ash_ns
        {
            return Ok(());
        }
        self.batch(cursor, boot, now_secs, |batch, cursor| {
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
        for table in COPIED_TABLES.map(|shape| shape.wl) {
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

    /// Durably checkpoint the workload DB — the dirty pages staged in the
    /// recovery manifest (with the epoch and schema snapshot), written in
    /// place and synced, then WAL truncation to the new cut. Committed appends are already durable
    /// the moment [`WorkloadDb::append_from`] returns (the WAL barrier);
    /// this bounds the log's length and replay time.
    pub fn flush(&self) -> Result<()> {
        self.engine().checkpoint().map(|_| ())
    }

    /// Total pages of the workload DB (its on-disk size).
    pub fn total_pages(&self) -> u64 {
        self.engine().total_data_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_common::{Column, DataType, EngineConfig};

    /// A monitored engine whose copied tables all hold rows: a statement
    /// that used a secondary index, traced statements' latency histograms,
    /// a charged wait and one ASH sample of a session mid-statement.
    fn engine_with_every_table_filled() -> Arc<Engine> {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        engine.set_tracing(true);
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
            expected.push(Column::new("boot", DataType::Int));
            expected.push(Column::new("ts", DataType::Int));
            match db.engine().catalog().read().resolve_relation(shape.wl) {
                Ok(Relation::Base(copy)) => {
                    assert_eq!(copy.meta.schema.columns(), expected, "{}", shape.wl)
                }
                _ => panic!("{} is not a workload-DB table", shape.wl),
            };
        }
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
        let boot = Value::Int(engine.monitor().unwrap().boot() as i64);
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
                    assert_eq!(values.pop().as_ref(), Some(&boot), "boot precedes ts");
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
        assert!(health.statement_evictions > 0, "the statement ring wrapped");
        // One table and two attributes per statement, the references of
        // the statements held.
        let refs_per_statement = 3;
        assert_eq!(
            health.references_len,
            health.statements_len * refs_per_statement
        );
        {
            let (_, cursor) = &*db.cursor.lock();
            assert!(cursor.stmt_freq.len() <= capacity);
            assert!(cursor.refs_seen.len() <= capacity * refs_per_statement);
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
    fn a_restarted_source_restarts_the_cursors() {
        // One workload DB outlives its source engine: the second life's
        // sequence numbers, sample clock and wait totals start below the
        // first's, and must still be filed.
        let db = Arc::new(WorkloadDb::in_memory(SimClock::new()).unwrap());
        let life = |inserts: i64| {
            let engine = Engine::builder()
                .config(EngineConfig::monitoring())
                .build()
                .unwrap();
            let daemon = crate::StorageDaemon::new(
                Arc::clone(&engine),
                Arc::clone(&db),
                crate::DaemonConfig::default(),
            );
            let s = engine.open_session();
            s.execute("create table t (a int)").unwrap();
            for i in 0..inserts {
                s.execute(&format!("insert into t values ({i})")).unwrap();
            }
            engine
                .wait_registry()
                .unwrap()
                .charge(ingot_common::WaitEvent::LockWaitX, 1_000);
            daemon.poll_once().unwrap();
        };
        let counts =
            || ["wl_workload", "wl_statistics", "wl_waits"].map(|t| db.row_count(t).unwrap());
        life(200);
        let [workload, statistics, waits] = counts();
        assert_eq!([workload, statistics], [201, 4]);
        life(50);
        // 51 statements, the poll's statistics sample, the charged wait.
        let [more_workload, more_statistics, more_waits] = counts();
        assert_eq!(more_workload, workload + 51);
        assert_eq!(more_statistics, statistics + 1);
        assert!(more_waits > waits);
    }

    #[test]
    fn schema_is_created() {
        let db = WorkloadDb::in_memory(SimClock::new()).unwrap();
        for shape in &COPIED_TABLES {
            assert_eq!(db.row_count(shape.wl).unwrap(), 0, "{}", shape.wl);
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
        let engine = engine_with_every_table_filled();
        let db = Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
        let daemon = crate::StorageDaemon::new(
            Arc::clone(&engine),
            Arc::clone(&db),
            crate::DaemonConfig::default(),
        );
        let count = |table: &str, filter: &str| {
            let rows = db
                .query(&format!("select count(*) from {table} where {filter}"))
                .unwrap();
            rows[0].get(0).as_int().unwrap()
        };
        engine.sim_clock().advance_secs(100);
        daemon.poll_once().unwrap();
        engine
            .open_session()
            .execute("select a from t where b = 7")
            .unwrap();
        engine.sim_clock().advance_secs(800);
        daemon.poll_once().unwrap();
        let kept: Vec<i64> = COPIED_TABLES
            .iter()
            .map(|shape| {
                assert!(
                    count(shape.wl, "ts < 500") > 0,
                    "{} has an old row",
                    shape.wl
                );
                count(shape.wl, "ts >= 500")
            })
            .collect();
        db.purge_older_than(500).unwrap();
        for (shape, kept) in COPIED_TABLES.iter().zip(kept) {
            assert_eq!(count(shape.wl, "ts < 500"), 0, "{}", shape.wl);
            assert_eq!(count(shape.wl, "ts >= 500"), kept, "{}", shape.wl);
        }
        assert!(count("wl_workload", "ts >= 500") > 0);
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
    fn a_db_with_a_drifted_table_is_refused_at_open() {
        let dir = std::env::temp_dir().join(format!("ingot-wldb-drift-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let clock = SimClock::new();
        let shape = COPIED_TABLES.iter().find(|s| s.wl == "wl_wal").unwrap();
        let mut columns = wl_columns(shape);
        let gone = columns.remove(2);
        {
            let engine = WorkloadDb::builder(clock.clone())
                .path(&dir)
                .build()
                .unwrap();
            let ddl = create_ddl("wl_wal", &columns);
            engine.open_session().execute(&ddl).unwrap();
        }
        let err = WorkloadDb::file_backed(&dir, clock).err().expect("refused");
        let message = err.to_string();
        assert!(message.contains("wl_wal"), "{message}");
        assert!(
            message.contains(&format!("expected {}", column_ddl(&gone))),
            "{message}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
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
