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
use ingot_core::{Engine, Monitor, Session};
use parking_lot::Mutex;

use crate::growth::GrowthStats;

/// DDL creating the workload-DB schema (Fig 3 + `ts` snapshot columns).
const SCHEMA: &str = "
create table wl_statements (hash text not null, query_text text, frequency int,
    first_seen_ns int, last_seen_ns int, ts int);
create table wl_workload (hash text not null, seq int, opt_cpu_ns int, opt_dio int,
    exec_cpu int, exec_dio int, est_cpu float, est_dio float, wallclock_ns int,
    monitor_ns int, at_ns int, at_secs int, ts int);
create table wl_references (hash text not null, object_type text, object_id int,
    table_id int, ts int);
create table wl_tables (table_id int not null, table_name text, frequency int,
    storage text, data_pages int, overflow_pages int, row_count int, ts int);
create table wl_indexes (index_id int not null, index_name text, table_id int,
    frequency int, pages int, ts int);
create table wl_attributes (table_id int not null, attr_id int, attr_name text,
    frequency int, has_histogram bool, ts int);
create table wl_statistics (at_ns int not null, at_secs int, sessions int,
    max_sessions int, locks_held int, lock_waiting int, lock_waits_total int,
    deadlocks_total int, active_txns int, cache_hits int, cache_misses int,
    physical_reads int, physical_writes int, statements_executed int, ts int);
create table wl_metrics (name text not null, labels text, value float, ts int);
create table wl_waits (event text not null, count int, total_ns int, ts int);
create table wl_ash (at_ns int not null, session int, hash text, statement text,
    elapsed_ns int, event text, ts int);
";

/// All workload-DB table names.
pub const WL_TABLES: &[&str] = &[
    "wl_statements",
    "wl_workload",
    "wl_references",
    "wl_tables",
    "wl_indexes",
    "wl_attributes",
    "wl_statistics",
    "wl_metrics",
    "wl_waits",
    "wl_ash",
];

/// Append cursor: what has already been copied out of the monitor.
///
/// Each poll's batch runs inside one workload-DB transaction, so it is
/// all-or-nothing: a mid-batch failure (I/O fault, crash) rolls the rows
/// back, the cursors stay unpublished, and the daemon's retry re-enters
/// [`WorkloadDb::append_from`] to append the whole batch again — no
/// duplicates, no gaps. (The pre-WAL positional mid-batch cursor is gone:
/// transactional rollback plus log replay made it redundant.)
#[derive(Clone, Default)]
struct AppendState {
    last_workload_seq: Option<u64>,
    /// Last appended frequency per statement hash.
    stmt_freq: HashMap<StmtHash, u64>,
    refs_seen: HashSet<(StmtHash, &'static str, u64)>,
    last_stat_ns: u64,
    /// Newest ASH sample timestamp already copied into `wl_ash`.
    last_ash_ns: u64,
    /// Cumulative wait nanoseconds at the last `wl_waits` snapshot — polls
    /// where nothing waited append nothing.
    last_wait_ns: u64,
}

/// The workload database. Wraps a dedicated (non-monitored) engine instance.
pub struct WorkloadDb {
    engine: Arc<Engine>,
    state: Mutex<AppendState>,
    growth: GrowthStats,
}

impl WorkloadDb {
    /// In-memory workload DB (unit tests, simulation-only experiments).
    pub fn in_memory(clock: SimClock) -> Result<Self> {
        let engine = Engine::builder()
            .config(Self::db_config())
            .clock(clock)
            .build()?;
        Self::init(engine)
    }

    /// File-backed workload DB under `dir` — the production shape: daemon
    /// appends are real disk writes.
    pub fn file_backed(dir: impl Into<std::path::PathBuf>, clock: SimClock) -> Result<Self> {
        let engine = Engine::builder()
            .config(Self::db_config())
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
            .config(Self::db_config())
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

    /// The engine configuration the standard constructors use.
    pub fn default_config() -> EngineConfig {
        Self::db_config()
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

    fn db_config() -> EngineConfig {
        // The workload DB is not itself monitored, and it gets a modest
        // cache so appends spill to the backend regularly.
        EngineConfig {
            monitor_enabled: false,
            buffer_pool_pages: 256,
            heap_main_pages: 4,
            ..EngineConfig::default()
        }
    }

    fn init(engine: Arc<Engine>) -> Result<Self> {
        {
            // After a crash the schema may already be back: the checkpoint
            // manifest carries it and WAL replay redoes any later DDL. Only
            // the tables still missing are created. SCHEMA lists one CREATE
            // per entry of WL_TABLES, in the same order.
            let stmts: Vec<&str> = SCHEMA
                .split(';')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            debug_assert_eq!(stmts.len(), WL_TABLES.len());
            let session = engine.open_session();
            for (table, stmt) in WL_TABLES.iter().zip(&stmts) {
                if engine.catalog().read().resolve_table(table).is_err() {
                    session.execute(stmt)?;
                }
            }
        }
        Ok(WorkloadDb {
            engine,
            state: Mutex::new(AppendState::default()),
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

    /// One row into `table` through the engine's locked, WAL-observed insert
    /// path ([`Session::insert_direct`]) — every append is redo-logged like
    /// any other DML. Returns the row's byte size for growth accounting.
    fn insert(&self, session: &Session, table: &str, row: Row) -> Result<u64> {
        let bytes = row.byte_size() as u64;
        session.insert_direct(table, &row)?;
        Ok(bytes)
    }

    /// Copy everything new in `monitor` into the workload DB, stamping rows
    /// with `now_secs` (simulated seconds). The whole batch runs in one
    /// transaction: all rows ride a single WAL durability barrier at commit,
    /// and a failure anywhere rolls the batch back so the daemon's retry
    /// appends it in full.
    pub fn append_from(&self, monitor: &Monitor, now_secs: u64) -> Result<()> {
        let mut state = self.state.lock();
        // Cursors advance on a scratch copy and publish only after the
        // transaction commits: an aborted batch must be retried in full.
        let mut scratch = state.clone();
        let session = self.engine.open_session();
        session.begin()?;
        let appended = self
            .append_batch(&session, monitor, now_secs, &mut scratch)
            .and_then(|totals| session.commit().map(|()| totals));
        // On error the session drops with its transaction open, which aborts
        // it (a failed commit already rolled back); `state` stays unchanged.
        let (rows, bytes) = appended?;
        *state = scratch;
        self.growth
            .record_append(rows, bytes, self.engine.sim_clock().now_secs());
        Ok(())
    }

    fn append_batch(
        &self,
        session: &Session,
        monitor: &Monitor,
        now_secs: u64,
        state: &mut AppendState,
    ) -> Result<(u64, u64)> {
        let ts = Value::Int(now_secs as i64);
        let mut rows = 0u64;
        let mut bytes = 0u64;

        // Statements whose frequency changed since the last poll.
        for s in monitor.statements() {
            let prev = state.stmt_freq.get(&s.hash).copied().unwrap_or(0);
            if s.frequency != prev {
                let n = self.insert(
                    session,
                    "wl_statements",
                    Row::new(vec![
                        Value::Str(s.hash.to_string()),
                        Value::Str(s.text.clone()),
                        Value::Int(s.frequency as i64),
                        Value::Int(s.first_seen_ns as i64),
                        Value::Int(s.last_seen_ns as i64),
                        ts.clone(),
                    ]),
                )?;
                bytes += n;
                rows += 1;
                state.stmt_freq.insert(s.hash, s.frequency);
            }
        }

        // Workload executions beyond the last copied sequence number.
        for w in monitor.workload() {
            if state.last_workload_seq.is_some_and(|last| w.seq <= last) {
                continue;
            }
            bytes += self.insert(
                session,
                "wl_workload",
                Row::new(vec![
                    Value::Str(w.hash.to_string()),
                    Value::Int(w.seq as i64),
                    Value::Int(w.opt_time_ns as i64),
                    Value::Int(w.opt_io as i64),
                    Value::Int(w.exec_cpu as i64),
                    Value::Int(w.exec_io as i64),
                    Value::Float(w.est.cpu),
                    Value::Float(w.est.io),
                    Value::Int(w.wallclock_ns as i64),
                    Value::Int(w.monitor_ns as i64),
                    Value::Int(w.at_ns as i64),
                    Value::Int(w.at_sim_secs as i64),
                    ts.clone(),
                ]),
            )?;
            rows += 1;
            state.last_workload_seq = Some(w.seq);
        }

        // New object references.
        for r in monitor.references() {
            let key = (r.hash, r.object.tag(), r.object_id);
            if state.refs_seen.contains(&key) {
                continue;
            }
            bytes += self.insert(
                session,
                "wl_references",
                Row::new(vec![
                    Value::Str(r.hash.to_string()),
                    Value::Str(r.object.tag().to_owned()),
                    Value::Int(r.object_id as i64),
                    Value::Int(i64::from(r.table.raw())),
                    ts.clone(),
                ]),
            )?;
            rows += 1;
            state.refs_seen.insert(key);
        }

        // Object-usage snapshots: appended every poll for trend analysis.
        // No cursor needed — the enclosing transaction makes the snapshot
        // all-or-nothing, so a faulted batch leaves no partial snapshot for
        // the retry to complete.
        for t in monitor.tables() {
            bytes += self.insert(
                session,
                "wl_tables",
                Row::new(vec![
                    Value::Int(i64::from(t.id.raw())),
                    Value::Str(t.name.clone()),
                    Value::Int(t.frequency as i64),
                    Value::Str(t.storage.clone()),
                    Value::Int(t.data_pages as i64),
                    Value::Int(t.overflow_pages as i64),
                    Value::Int(t.rows as i64),
                    ts.clone(),
                ]),
            )?;
            rows += 1;
        }
        for i in monitor.indexes() {
            bytes += self.insert(
                session,
                "wl_indexes",
                Row::new(vec![
                    Value::Int(i64::from(i.id.raw())),
                    Value::Str(i.name.clone()),
                    Value::Int(i64::from(i.table.raw())),
                    Value::Int(i.frequency as i64),
                    Value::Int(i.pages as i64),
                    ts.clone(),
                ]),
            )?;
            rows += 1;
        }
        for a in monitor.attributes() {
            bytes += self.insert(
                session,
                "wl_attributes",
                Row::new(vec![
                    Value::Int(i64::from(a.table.raw())),
                    Value::Int(a.column as i64),
                    Value::Str(a.name.clone()),
                    Value::Int(a.frequency as i64),
                    Value::Bool(a.has_histogram),
                    ts.clone(),
                ]),
            )?;
            rows += 1;
        }

        // New statistics samples.
        for s in monitor.statistics() {
            if s.at_ns <= state.last_stat_ns {
                continue;
            }
            bytes += self.insert(
                session,
                "wl_statistics",
                Row::new(vec![
                    Value::Int(s.at_ns as i64),
                    Value::Int(s.at_sim_secs as i64),
                    Value::Int(s.sessions as i64),
                    Value::Int(s.max_sessions as i64),
                    Value::Int(s.locks_held as i64),
                    Value::Int(s.lock_waiting as i64),
                    Value::Int(s.lock_waits_total as i64),
                    Value::Int(s.deadlocks_total as i64),
                    Value::Int(s.active_txns as i64),
                    Value::Int(s.cache_hits as i64),
                    Value::Int(s.cache_misses as i64),
                    Value::Int(s.physical_reads as i64),
                    Value::Int(s.physical_writes as i64),
                    Value::Int(s.statements_executed as i64),
                    ts.clone(),
                ]),
            )?;
            rows += 1;
            state.last_stat_ns = s.at_ns;
        }

        Ok((rows, bytes))
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
        let ts = Value::Int(now_secs as i64);
        let session = self.engine.open_session();
        session.begin()?;
        let mut rows = 0u64;
        let mut bytes = 0u64;
        for (name, labels, value) in snapshot.flatten() {
            bytes += self.insert(
                &session,
                "wl_metrics",
                Row::new(vec![
                    Value::Str(name),
                    Value::Str(labels),
                    Value::Float(value),
                    ts.clone(),
                ]),
            )?;
            rows += 1;
        }
        session.commit()?;
        self.growth
            .record_append(rows, bytes, self.engine.sim_clock().now_secs());
        Ok(())
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
        let mut state = self.state.lock();
        // Idle fast path: nothing charged and nothing recorded since the
        // last poll means no transaction at all — an idle engine's polls
        // read one counter snapshot and one ring high-water mark.
        let grand_total: u64 = registry
            .counters()
            .snapshot()
            .iter()
            .map(|t| t.total_ns)
            .sum();
        if grand_total <= state.last_wait_ns && sampler.latest_recorded_ns() <= state.last_ash_ns {
            return Ok(());
        }
        let mut scratch = state.clone();
        let ts = Value::Int(now_secs as i64);
        let session = self.engine.open_session();
        session.begin()?;
        let appended = (|| {
            let mut rows = 0u64;
            let mut bytes = 0u64;
            // Cumulative per-event totals, snapshot-style like wl_tables —
            // but only when some wait has been charged since the last poll,
            // so an idle interval appends nothing.
            let totals = registry.counters().snapshot();
            let grand_total: u64 = totals.iter().map(|t| t.total_ns).sum();
            if grand_total > scratch.last_wait_ns {
                for t in totals.iter().filter(|t| t.count > 0) {
                    bytes += self.insert(
                        &session,
                        "wl_waits",
                        Row::new(vec![
                            Value::Str(t.event.name().to_owned()),
                            Value::Int(t.count as i64),
                            Value::Int(t.total_ns as i64),
                            ts.clone(),
                        ]),
                    )?;
                    rows += 1;
                }
                scratch.last_wait_ns = grand_total;
            }
            // ASH samples newer than the cursor. Every session row from one
            // sampler tick carries the same `at_ns`, so the cutoff must be
            // snapshotted before the loop and the cursor advanced only after
            // it — bumping the cursor row-by-row would drop all but the
            // first session of each tick.
            let cutoff = scratch.last_ash_ns;
            for sample in sampler.history() {
                if sample.at_ns <= cutoff {
                    continue;
                }
                bytes += self.insert(
                    &session,
                    "wl_ash",
                    Row::new(vec![
                        Value::Int(sample.at_ns as i64),
                        Value::Int(sample.session_id as i64),
                        Value::Str(sample.hash.to_string()),
                        Value::Str(sample.template.to_string()),
                        Value::Int(sample.elapsed_ns as i64),
                        Value::Str(sample.event.to_owned()),
                        ts.clone(),
                    ]),
                )?;
                rows += 1;
                scratch.last_ash_ns = scratch.last_ash_ns.max(sample.at_ns);
            }
            Ok((rows, bytes))
        })()
        .and_then(|totals| session.commit().map(|()| totals));
        let (rows, bytes) = appended?;
        *state = scratch;
        self.growth
            .record_append(rows, bytes, self.engine.sim_clock().now_secs());
        Ok(())
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
    use ingot_common::EngineConfig;

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
        slot.begin_statement(StmtHash::of("select 1"), "select 1".into(), 0);
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
                slot.begin_statement(StmtHash::of("select 1"), "select 1".into(), 0);
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
