//! The engine facade: sessions, the sensor-instrumented statement path, and
//! the administration surface used by the daemon and analyzer. One module
//! per decision: `builder` constructs, `recovery` redoes the log, `commit`
//! orders a commit, `ddl` changes the schema, `metrics` exports counters,
//! and `session` runs statements.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ingot_catalog::SharedCatalog;
use ingot_common::waits::WaitRegistry;
use ingot_common::{
    Cost, EngineConfig, IndexId, MonotonicClock, Result, SessionId, SimClock, TableId, TxnId,
};
use ingot_planner::{
    optimize, Binder, OptimizerOptions, PlanCache, PlanCacheStats, PlannedStatement,
};
use ingot_sql::parse_statement;
use ingot_storage::{BufferStats, IoStats, StorageEngine, Wal, WalRecord, WalStats};
use ingot_trace::Tracer;
use ingot_txn::{LockManager, TxnManager};
use parking_lot::Mutex;

use crate::ash::AshSampler;
use crate::ima::provider;
use crate::monitor::{Monitor, Record, StatSample};
use commit::TxnUndo;

mod builder;
mod commit;
mod ddl;
mod metrics;
mod recovery;
mod session;

pub use builder::EngineBuilder;
pub use session::{Prepared, Session};

/// Concurrent-session counters ("Current sessions, Maximum sessions" in the
/// Fig 3 statistics table).
#[derive(Debug, Default)]
pub(crate) struct SessionCounters {
    current: AtomicU64,
    peak: AtomicU64,
    next_id: AtomicU64,
}

impl SessionCounters {
    fn open(&self) -> SessionId {
        let cur = self.current.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(cur, Ordering::Relaxed);
        SessionId(self.next_id.fetch_add(1, Ordering::Relaxed) + 1)
    }

    fn close(&self) {
        self.current.fetch_sub(1, Ordering::Relaxed);
    }

    /// Currently open sessions.
    pub(crate) fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Peak concurrent sessions.
    pub(crate) fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

pub use ingot_common::conn::StatementResult;

/// Result of a what-if estimation (no execution, no monitoring).
#[derive(Debug, Clone)]
pub struct EstimateResult {
    /// Estimated cost of the chosen plan.
    pub est: Cost,
    /// Indexes the chosen plan would use.
    pub used_indexes: Vec<IndexId>,
    /// True when a virtual index was chosen.
    pub uses_virtual: bool,
    /// Rendered plan tree.
    pub plan: String,
    /// Physical pages read while binding and optimizing this estimate
    /// (catalog statistics, virtual-index what-if probes).
    pub probe_io: u64,
}

/// An Ingot engine instance: one database, one buffer pool, optional
/// integrated monitoring.
pub struct Engine {
    config: EngineConfig,
    sim_clock: SimClock,
    wall: MonotonicClock,
    storage: StorageEngine,
    wal: Arc<Wal>,
    catalog: SharedCatalog,
    monitor: Option<Arc<Monitor>>,
    tracer: Option<Arc<Tracer>>,
    locks: Arc<LockManager>,
    txns: Arc<TxnManager>,
    sessions: Arc<SessionCounters>,
    plan_cache: Arc<PlanCache>,
    statements_executed: AtomicU64,
    /// Per-transaction WAL/undo state, keyed by live transaction id.
    undo: Mutex<HashMap<TxnId, TxnUndo>>,
    /// Serialises [`Engine::checkpoint`] callers (daemon + admin paths).
    checkpoint_serial: Mutex<()>,
    /// Wait-event accounting; present when monitoring + wait events are on.
    waits: Option<Arc<WaitRegistry>>,
    /// The ASH sampler; present exactly when `waits` is.
    ash: Option<Arc<AshSampler>>,
    /// The row sources of the `ima$` tables filled outside the engine, by
    /// table name (see [`Engine::attach`]).
    attached: Arc<Mutex<HashMap<&'static str, ingot_catalog::VirtualProvider>>>,
}

impl Engine {
    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The monitor, when this instance was built with monitoring.
    pub fn monitor(&self) -> Option<&Arc<Monitor>> {
        self.monitor.as_ref()
    }

    /// The tracer, when this instance was built with monitoring (tracing
    /// rides on the monitor; it may still be disabled at runtime).
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Flip runtime tracing on or off (also reachable as `SET trace = on`).
    /// No-op on an unmonitored instance.
    pub fn set_tracing(&self, on: bool) {
        if let Some(t) = &self.tracer {
            t.set_enabled(on);
        }
    }

    /// Is runtime tracing currently enabled?
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.as_ref().is_some_and(|t| t.enabled())
    }

    /// The wait-event registry, when the wait subsystem is wired in
    /// (monitoring + `wait_events_enabled`).
    pub fn wait_registry(&self) -> Option<&Arc<WaitRegistry>> {
        self.waits.as_ref()
    }

    /// The ASH sampler, when the wait subsystem is wired in. The daemon
    /// calls [`AshSampler::sample_if_due`] through this on every poll so an
    /// otherwise-idle engine still gets its timeline sampled.
    pub fn ash_sampler(&self) -> Option<&Arc<AshSampler>> {
        self.ash.as_ref()
    }

    /// Serve the `ima$` table of `R` from `rows`, a source outside the
    /// engine: a storage daemon's `ima$daemon_health`, a server's
    /// `ima$connections`. The table is registered on the first attach —
    /// table ids share one space, so registering it at construction would
    /// renumber every table created afterwards — and reads through a slot
    /// each later attach replaces, so the latest daemon or a restarted
    /// server serves its own rows, never a predecessor's.
    pub fn attach<R: Record>(
        &self,
        rows: impl Fn() -> Vec<R> + Send + Sync + 'static,
    ) -> Result<()> {
        self.attached.lock().insert(R::IMA, provider(rows));
        let mut catalog = self.catalog.write();
        if catalog.resolve_relation(R::IMA).is_ok() {
            // An earlier attach registered it; swapping the slot was all.
            return Ok(());
        }
        let slots = Arc::clone(&self.attached);
        let rows = move || {
            let source = slots.lock().get(R::IMA).cloned();
            source.map(|rows| rows()).unwrap_or_default()
        };
        catalog.register_virtual_table(R::IMA, R::schema(), Arc::new(rows))?;
        Ok(())
    }

    /// Detach the row source of `R`'s table: the table stays registered but
    /// serves no row until the next [`attach`](Self::attach).
    pub fn detach<R: Record>(&self) {
        self.attached.lock().remove(R::IMA);
    }

    /// The shared simulated clock.
    pub fn sim_clock(&self) -> &SimClock {
        &self.sim_clock
    }

    /// The engine's wall clock.
    pub fn wall_clock(&self) -> &MonotonicClock {
        &self.wall
    }

    /// The shared catalog (advanced use: analyzer, workload loaders).
    /// `read()` returns an immutable snapshot — cheap, never blocked by
    /// writers; `write()` opens a copy-on-write schema-change guard.
    pub fn catalog(&self) -> &SharedCatalog {
        &self.catalog
    }

    /// The lock manager (statistics sensor input).
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The transaction manager.
    pub fn txns(&self) -> &Arc<TxnManager> {
        &self.txns
    }

    /// Plan-cache counter snapshot (also queryable as `ima$plan_cache`).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Cumulative physical I/O of this instance.
    pub fn io_stats(&self) -> IoStats {
        self.storage.io_stats()
    }

    /// Buffer-pool counters.
    pub fn buffer_stats(&self) -> BufferStats {
        self.storage.buffer_stats()
    }

    /// Statements executed over the engine's lifetime.
    pub fn statements_executed(&self) -> u64 {
        self.statements_executed.load(Ordering::Relaxed)
    }

    /// Take a durable checkpoint: quiesce DML, cut the WAL, flush every dirty
    /// page, install the recovery manifest (with an embedded schema snapshot)
    /// and truncate the log to the cut. Returns the checkpoint epoch (0 for
    /// backends without checkpoints).
    ///
    /// The quiesce step waits (bounded) for in-flight transactions to drain
    /// while parking new `begin`s, so the flushed pages and the WAL
    /// truncation point describe the same instant. A caller holding an open
    /// explicit transaction on the same thread would deadlock the drain and
    /// gets the quiesce timeout error instead.
    pub fn checkpoint(&self) -> Result<u64> {
        let _one_at_a_time = self.checkpoint_serial.lock();
        let _quiesced = self.txns.quiesce(Duration::from_secs(5))?;
        let epoch = self.storage.checkpoint_epoch() + 1;
        let cut = self.wal.append(&WalRecord::Checkpoint { epoch })?;
        self.wal.sync_to(cut)?;
        let schema = self.catalog.read().dump_schema();
        let installed = self.storage.checkpoint(&schema)?;
        // Everything at or below `cut` is now redundant. A crash inside
        // truncation leaves the full old log, which replay tolerates: the
        // manifest's epoch marks `cut` as the low-water mark.
        self.wal.truncate_to(cut, epoch)?;
        Ok(installed)
    }

    /// Garbage-collect dead versions: every version whose committed `end`
    /// lies at or below the oldest-active-snapshot watermark is invisible to
    /// all present and future snapshots and is physically reclaimed (chain
    /// relink + per-version index entry removal). Runs under a short
    /// transaction quiesce so no scan holds a row id into a chain being
    /// relinked; a busy engine returns the quiesce timeout instead (the
    /// daemon just retries next poll). Returns versions reclaimed.
    pub fn mvcc_gc(&self) -> Result<u64> {
        let _quiesced = self.txns.quiesce(Duration::from_millis(200))?;
        let watermark = self.txns.gc_watermark();
        let catalog = self.catalog.read();
        let ids: Vec<TableId> = catalog.tables().map(|t| t.meta.id).collect();
        let mut removed = 0u64;
        let (mut versions, mut chains, mut longest) = (0u64, 0u64, 0u64);
        for id in ids {
            removed += catalog.gc_table(id, watermark)?;
            let (v, c, l) = catalog.chain_stats(id)?;
            versions += v;
            chains += c;
            longest = longest.max(l);
        }
        drop(catalog);
        self.txns.note_gc(removed, watermark);
        self.txns.note_chain_shape(versions, chains, longest);
        Ok(removed)
    }

    /// The write-ahead log: crash scripting (fault plans), LSN watermarks
    /// and counters.
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// WAL counter snapshot (also queryable as `ima$wal`).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Total data pages (tables + indexes) — the Fig 7 size metric.
    pub fn total_data_pages(&self) -> u64 {
        self.catalog.read().total_data_pages()
    }

    /// Record one system-wide statistics sample (statistics sensor). Called
    /// by the storage daemon on its poll interval and by the engine itself
    /// every 64th statement. Gathering it walks the lock table and reads the
    /// pool's counters; that and the push are monitoring self-time.
    pub fn sample_statistics(&self) {
        let Some(monitor) = &self.monitor else { return };
        monitor.sample_statistics(|at_ns| self.gather_statistics(at_ns));
    }

    pub(super) fn gather_statistics(&self, at_ns: u64) -> StatSample {
        let locks = self.locks.stats();
        let buf = self.buffer_stats();
        let io = self.io_stats();
        StatSample {
            at_ns,
            at_sim_secs: self.sim_clock.now_secs(),
            sessions: self.sessions.current(),
            max_sessions: self.sessions.peak(),
            locks_held: locks.held,
            lock_waiting: locks.waiting,
            lock_waits_total: locks.waits_total,
            deadlocks_total: locks.deadlocks_total,
            active_txns: self.txns.active_count(),
            cache_hits: buf.hits,
            cache_misses: buf.misses,
            physical_reads: io.reads(),
            seq_reads: io.seq_reads,
            rand_reads: io.rand_reads,
            physical_writes: io.writes,
            statements_executed: self.statements_executed(),
        }
    }

    // ---- what-if interface (used by the analyzer) ----------------------------

    /// Register a virtual (hypothetical) index on `table(columns…)`.
    ///
    /// Invalidates the plan cache: registration publishes a new schema epoch
    /// anyway, but dropping the entries eagerly keeps `estimate(...,
    /// include_virtual = true)` from ever observing a cached non-virtual plan.
    pub fn add_virtual_index(&self, table: &str, columns: &[&str]) -> Result<IndexId> {
        let result = {
            let mut catalog = self.catalog.write();
            let id = catalog.resolve_table(table)?;
            let cols = ddl::column_indexes(&catalog.table(id)?.meta.schema, columns)?;
            catalog.add_virtual_index(id, cols)
        };
        self.plan_cache.invalidate_all();
        result
    }

    /// Drop all virtual indexes (end of a what-if session). Invalidates the
    /// plan cache, mirroring [`Engine::add_virtual_index`].
    pub fn clear_virtual_indexes(&self) {
        self.catalog.write().clear_virtual_indexes();
        self.plan_cache.invalidate_all();
    }

    /// Estimate a statement without executing it, optionally letting virtual
    /// indexes compete (`include_virtual`). Not recorded by the monitor.
    pub fn estimate(&self, sql: &str, include_virtual: bool) -> Result<EstimateResult> {
        let stmt = parse_statement(sql)?;
        let catalog = self.catalog.read();
        let io_before = self.storage.io_stats().total();
        let (bound, _) = Binder::new(&catalog).bind(&stmt)?;
        let planned = optimize(&catalog, &bound, OptimizerOptions { include_virtual })?;
        let probe_io = self.storage.io_stats().total().saturating_sub(io_before);
        let (plan, uses_virtual) = match &planned {
            PlannedStatement::Query(q) => (q.root.to_string(), q.uses_virtual),
            other => (format!("{other:?}"), false),
        };
        Ok(EstimateResult {
            est: planned.estimated_cost(),
            used_indexes: planned.used_indexes().to_vec(),
            uses_virtual,
            plan,
            probe_io,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ima::{ConnectionRow, IMA_CONNECTIONS};
    use ingot_common::{Error, StmtHash, Value};

    fn engine() -> Arc<Engine> {
        Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap()
    }

    fn engine_with(config: EngineConfig) -> Arc<Engine> {
        Engine::builder().config(config).build().unwrap()
    }

    fn load_demo(s: &Session) {
        s.execute("create table protein (nref_id int not null primary key, name text, len int)")
            .unwrap();
        for i in 0..200 {
            s.execute(&format!(
                "insert into protein values ({i}, 'p{i}', {})",
                i % 10
            ))
            .unwrap();
        }
    }

    #[test]
    fn end_to_end_statement_path() {
        let e = engine();
        let s = e.open_session();
        load_demo(&s);
        let r = s
            .execute("select name from protein where nref_id = 42")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0), &Value::Str("p42".into()));
        assert!(r.wallclock_ns > 0);
        assert!(r.actual_cost.cpu > 0.0);
        assert!(r.est_cost.total() > 0.0);
    }

    #[test]
    fn monitor_records_the_workload() {
        let e = engine();
        let s = e.open_session();
        load_demo(&s);
        s.execute("select name from protein where nref_id = 1")
            .unwrap();
        s.execute("select name from protein where nref_id = 1")
            .unwrap();
        let m = e.monitor().unwrap();
        let stmts = m.statements();
        // 1 create + 200 inserts + 1 select (dedup) = 202 unique.
        assert_eq!(stmts.len(), 202);
        let sel = stmts.iter().find(|s| s.text.starts_with("select")).unwrap();
        assert_eq!(sel.frequency, 2);
        assert!(m.workload().len() >= 200);
        assert_eq!(m.tables().len(), 1);
        assert_eq!(m.tables()[0].name, "protein");
    }

    #[test]
    fn original_instance_has_no_monitor() {
        let e = engine_with(EngineConfig::original());
        let s = e.open_session();
        s.execute("create table t (a int)").unwrap();
        s.execute("insert into t values (1)").unwrap();
        assert!(e.monitor().is_none());
        let r = s.execute("select * from t").unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn ima_tables_are_queryable_via_sql() {
        let e = engine();
        let s = e.open_session();
        load_demo(&s);
        s.execute("select name from protein where nref_id = 7")
            .unwrap();
        let r = s
            .execute(
                "select query_text, frequency from ima$statements \
                 where query_text like 'select name%' order by frequency desc",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        // Workload join back to statements via hash.
        let r = s
            .execute(
                "select count(*) from ima$workload w \
                 join ima$statements s on w.hash = s.hash",
            )
            .unwrap();
        let n = r.rows[0].get(0).as_int().unwrap();
        assert!(n > 200, "workload x statements join should match, got {n}");
    }

    #[test]
    fn explain_returns_plan() {
        let e = engine();
        let s = e.open_session();
        load_demo(&s);
        let r = s
            .execute("explain select name from protein where nref_id = 3")
            .unwrap();
        assert!(!r.rows.is_empty());
        let text: String = r
            .rows
            .iter()
            .map(|row| row.get(0).as_str().unwrap().to_owned())
            .collect();
        assert!(text.contains("SeqScan"), "{text}");
    }

    #[test]
    fn ddl_modify_and_statistics_pipeline() {
        let e = engine();
        let s = e.open_session();
        load_demo(&s);
        // Grow the table so keyed access beats a (now multi-page) scan.
        for i in 200..5000 {
            s.execute(&format!(
                "insert into protein values ({i}, 'p{i}', {})",
                i % 10
            ))
            .unwrap();
        }
        s.execute("create statistics on protein").unwrap();
        s.execute("modify protein to btree").unwrap();
        // Now the same point query should use the clustered structure.
        let r = s
            .execute("explain select name from protein where nref_id = 3")
            .unwrap();
        let text: String = r
            .rows
            .iter()
            .map(|row| row.get(0).as_str().unwrap().to_owned())
            .collect();
        assert!(text.contains("PkLookup"), "{text}");
        // Statistics exist now.
        let catalog = e.catalog().read();
        let t = catalog.resolve_table("protein").unwrap();
        assert!(catalog.table(t).unwrap().stats.is_some());
    }

    #[test]
    fn whatif_estimation_with_virtual_index() {
        let e = engine();
        let s = e.open_session();
        load_demo(&s);
        s.execute("create statistics on protein").unwrap();
        let before = e
            .estimate("select name from protein where len = 3", true)
            .unwrap();
        assert!(!before.uses_virtual);
        e.add_virtual_index("protein", &["len"]).unwrap();
        let with_virtual = e
            .estimate("select name from protein where len = 3", true)
            .unwrap();
        // Normal execution still works and ignores the virtual index.
        let r = s.execute("select name from protein where len = 3").unwrap();
        assert_eq!(r.rows.len(), 20);
        e.clear_virtual_indexes();
        let _ = with_virtual;
    }

    #[test]
    fn sessions_and_statistics_sampling() {
        let e = engine();
        let s1 = e.open_session();
        {
            let _s2 = e.open_session();
            assert_eq!(e.sessions.current(), 2);
            e.sample_statistics();
        }
        assert_eq!(e.sessions.current(), 1);
        assert_eq!(e.sessions.peak(), 2);
        let m = e.monitor().unwrap();
        assert_eq!(m.statistics().len(), 1);
        assert_eq!(m.statistics()[0].sessions, 2);
        drop(s1);
    }

    #[test]
    fn explicit_transactions_hold_locks() {
        let e = engine();
        let s1 = e.open_session();
        s1.execute("create table t (a int)").unwrap();
        s1.execute("insert into t values (1)").unwrap();
        s1.begin().unwrap();
        s1.execute("update t set a = 2").unwrap();
        assert!(e.locks().stats().held > 0);
        s1.commit().unwrap();
        assert_eq!(e.locks().stats().held, 0);
    }

    #[test]
    fn errors_do_not_leak_locks() {
        let e = engine();
        let s = e.open_session();
        s.execute("create table t (a int not null)").unwrap();
        assert!(s.execute("insert into t values (null)").is_err());
        assert_eq!(e.locks().stats().held, 0);
        assert_eq!(e.txns().active_count(), 0);
    }

    #[test]
    fn explain_analyze_annotates_operators() {
        let e = engine();
        let s = e.open_session();
        load_demo(&s);
        let r = s
            .execute("explain analyze select name from protein where len = 3")
            .unwrap();
        let text: String = r
            .rows
            .iter()
            .map(|row| format!("{}\n", row.get(0).as_str().unwrap()))
            .collect();
        assert!(text.contains("SeqScan"), "{text}");
        assert!(text.contains("act rows=20"), "{text}");
        assert!(text.contains("est rows="), "{text}");
        assert!(text.contains("Execution:"), "{text}");
        assert!(r.actual_cost.cpu > 0.0);
        // The spans were merged into the tracer even with tracing off…
        let tracer = e.tracer().unwrap();
        let ops = tracer.operator_stats();
        assert!(!ops.is_empty());
        // …and are queryable via SQL.
        let r = s
            .execute("select op, rows_out from ima$operator_stats where op = 'SeqScan'")
            .unwrap();
        assert!(!r.rows.is_empty());
        // Nested EXPLAIN is rejected.
        assert!(s
            .execute("explain analyze explain select 1 from protein")
            .is_err());
    }

    #[test]
    fn tracing_builds_histograms_matching_frequency() {
        let e = engine_with(EngineConfig::tracing());
        let s = e.open_session();
        load_demo(&s);
        for _ in 0..5 {
            s.execute("select name from protein where nref_id = 9")
                .unwrap();
        }
        let tracer = e.tracer().unwrap();
        assert!(tracer.enabled());
        assert!(tracer.statements_traced() > 0);
        let hash = StmtHash::of("select name from protein where nref_id = 9");
        let hist = tracer
            .histograms()
            .into_iter()
            .find(|(h, _)| *h == hash)
            .map(|(_, h)| h)
            .expect("histogram for traced statement");
        assert_eq!(hist.total(), 5);
        // Bucket counts agree with ima$statements.frequency via SQL. The
        // reading query runs before its own record lands, so it never sees
        // itself.
        let r = s
            .execute(&format!(
                "select frequency from ima$statements where hash = '{hash}'"
            ))
            .unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Int(5));
        let r = s
            .execute(&format!(
                "select sum(count) from ima$latency_histograms where hash = '{hash}'"
            ))
            .unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Int(5));
    }

    #[test]
    fn set_trace_toggles_tracing_at_runtime() {
        let e = engine();
        let s = e.open_session();
        load_demo(&s);
        assert!(!e.tracing_enabled());
        s.execute("select name from protein where nref_id = 1")
            .unwrap();
        assert_eq!(e.tracer().unwrap().statements_traced(), 0);
        s.execute("set trace = true").unwrap();
        assert!(e.tracing_enabled());
        s.execute("select name from protein where nref_id = 1")
            .unwrap();
        assert_eq!(e.tracer().unwrap().statements_traced(), 1);
        s.execute("set trace = 'off'").unwrap();
        assert!(!e.tracing_enabled());
    }

    #[test]
    fn tracer_self_time_lands_in_monitor_ns() {
        let e = engine_with(EngineConfig::tracing());
        let s = e.open_session();
        load_demo(&s);
        s.execute("select name from protein where len = 3").unwrap();
        let tracer = e.tracer().unwrap();
        assert!(tracer.self_time_ns() > 0);
        // The monitor's self-time includes the tracer's record step.
        assert!(e.monitor().unwrap().self_time_ns() >= tracer.self_time_ns());
    }

    #[test]
    fn monitor_health_table_reports_counts() {
        let e = engine();
        let s = e.open_session();
        load_demo(&s);
        let r = s
            .execute("select statements_recorded, sensor_calls from ima$monitor_health")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let recorded = r.rows[0].get(0).as_int().unwrap();
        assert!(recorded >= 201, "got {recorded}");
        assert!(r.rows[0].get(1).as_int().unwrap() > 0);
    }

    #[test]
    fn opt_io_charges_whatif_probe_reads() {
        let e = engine();
        let s = e.open_session();
        load_demo(&s);
        s.execute("create statistics on protein").unwrap();
        // Optimizing against statistics may touch pages; at minimum the field
        // is plumbed (no longer hardwired to zero for every record).
        let est = e
            .estimate("select name from protein where len = 3", true)
            .unwrap();
        // probe_io is measured (possibly 0 if all pages are cached) — the
        // EstimateResult exposes it either way.
        let _ = est.probe_io;
        let w = e.monitor().unwrap().workload();
        assert!(!w.is_empty());
    }

    #[test]
    fn plan_cache_hits_on_repeated_templates() {
        let e = engine();
        let s = e.open_session();
        load_demo(&s);
        let sql = "select name from protein where nref_id = 42";
        s.execute(sql).unwrap();
        let after_first = e.plan_cache_stats();
        assert_eq!(after_first.hits, 0);
        assert!(after_first.entries >= 1);
        let r = s.execute(sql).unwrap();
        assert_eq!(r.rows.len(), 1, "cache hit returns the same result");
        assert_eq!(r.rows[0].get(0), &Value::Str("p42".into()));
        let stats = e.plan_cache_stats();
        assert_eq!(stats.hits, 1);
        // Whitespace variations normalize to the same template.
        s.execute("select name  from protein\n where nref_id = 42")
            .unwrap();
        assert_eq!(e.plan_cache_stats().hits, 2);
        // The counters are visible over SQL as ima$plan_cache.
        let r = s
            .execute("select hits, misses, entries, capacity from ima$plan_cache")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert!(r.rows[0].get(0).as_int().unwrap() >= 2, "hits visible");
        assert!(r.rows[0].get(1).as_int().unwrap() >= 1, "misses visible");
        assert_eq!(r.rows[0].get(3).as_int(), Some(256), "default capacity");
    }

    #[test]
    fn ddl_and_statistics_invalidate_cached_plans() {
        let e = engine();
        let s = e.open_session();
        load_demo(&s);
        let sql = "select name from protein where len = 3";
        s.execute(sql).unwrap();
        assert!(e.plan_cache_stats().entries >= 1);
        // DDL drops every memoized plan…
        s.execute("create index protein_len on protein (len)")
            .unwrap();
        let stats = e.plan_cache_stats();
        assert_eq!(stats.entries, 0, "DDL empties the cache");
        assert!(stats.invalidations >= 1);
        // …and the replanned statement sees the new index (fresh optimize).
        let r = s.execute(sql).unwrap();
        assert_eq!(r.rows.len(), 20);
        // CREATE STATISTICS also invalidates: histograms change plan choice.
        s.execute(sql).unwrap();
        assert!(e.plan_cache_stats().entries >= 1);
        s.execute("create statistics on protein").unwrap();
        assert_eq!(e.plan_cache_stats().entries, 0);
        // MODIFY (storage structure change) must never leave a stale plan:
        // the cached heap-scan plan would misread a B-Tree table.
        s.execute("select name from protein where nref_id = 7")
            .unwrap();
        s.execute("modify protein to btree").unwrap();
        let r = s
            .execute("select name from protein where nref_id = 7")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0), &Value::Str("p7".into()));
    }

    #[test]
    fn prepared_statements_bind_parameters() {
        let e = engine();
        let s = e.open_session();
        load_demo(&s);
        let point = s
            .prepare("select name from protein where nref_id = $1")
            .unwrap();
        assert_eq!(point.param_count(), 1);
        // Different bindings reuse one cached template.
        for i in [3i64, 99, 17] {
            let r = point.execute(&[Value::Int(i)]).unwrap();
            assert_eq!(r.rows.len(), 1);
            assert_eq!(r.rows[0].get(0), &Value::Str(format!("p{i}")));
        }
        let stats = e.plan_cache_stats();
        assert!(stats.hits >= 2, "bindings 2 and 3 hit, got {stats:?}");
        // Parameterised writes: insert + update + delete round-trip.
        let ins = s
            .prepare("insert into protein values ($1, $2, $3)")
            .unwrap();
        ins.execute(&[Value::Int(900), Value::Str("new".into()), Value::Int(5)])
            .unwrap();
        let upd = s
            .prepare("update protein set len = $2 where nref_id = $1")
            .unwrap();
        let r = upd.execute(&[Value::Int(900), Value::Int(8)]).unwrap();
        assert_eq!(r.affected, 1);
        let r = s
            .execute("select len from protein where nref_id = 900")
            .unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Int(8));
        let del = s.prepare("delete from protein where nref_id = $1").unwrap();
        assert_eq!(del.execute(&[Value::Int(900)]).unwrap().affected, 1);
        // Arity is enforced on every execution…
        assert!(matches!(
            point.execute(&[]),
            Err(Error::ParamArity {
                expected: 1,
                got: 0
            })
        ));
        assert!(matches!(
            point.execute(&[Value::Int(1), Value::Int(2)]),
            Err(Error::ParamArity {
                expected: 1,
                got: 2
            })
        ));
        // …including the textual path, which binds nothing.
        assert!(matches!(
            s.execute("select name from protein where nref_id = $1"),
            Err(Error::ParamArity {
                expected: 1,
                got: 0
            })
        ));
        // NOT NULL violations bound through parameters surface as
        // constraint errors at execution, not as corrupt rows.
        assert!(ins
            .execute(&[Value::Null, Value::Str("x".into()), Value::Null])
            .is_err());
    }

    #[test]
    fn virtual_index_changes_invalidate_plan_cache() {
        let e = engine();
        let s = e.open_session();
        load_demo(&s);
        s.execute("create statistics on protein").unwrap();
        let sql = "select name from protein where len = 3";
        s.execute(sql).unwrap();
        assert!(e.plan_cache_stats().entries >= 1);
        e.add_virtual_index("protein", &["name"]).unwrap();
        assert_eq!(
            e.plan_cache_stats().entries,
            0,
            "virtual registration empties the cache"
        );
        // The what-if estimate sees the virtual index (never a cached
        // non-virtual plan): `name = 'p3'` is selective enough (1 of 200
        // rows) that the hypothetical index must win.
        let est = e
            .estimate("select len from protein where name = 'p3'", true)
            .unwrap();
        assert!(est.uses_virtual);
        // …while normal execution replans without it.
        let r = s.execute(sql).unwrap();
        assert_eq!(r.rows.len(), 20);
        s.execute(sql).unwrap();
        assert!(e.plan_cache_stats().entries >= 1);
        e.clear_virtual_indexes();
        assert_eq!(e.plan_cache_stats().entries, 0);
    }

    #[test]
    fn plan_cache_capacity_zero_disables_caching() {
        let e = engine_with(EngineConfig::monitoring().with_plan_cache_capacity(0));
        let s = e.open_session();
        load_demo(&s);
        let sql = "select name from protein where nref_id = 1";
        s.execute(sql).unwrap();
        s.execute(sql).unwrap();
        let stats = e.plan_cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.capacity, 0);
    }

    #[test]
    fn builder_rejects_path_and_backend_together() {
        let err = Engine::builder()
            .path("/tmp/nowhere")
            .backend(Box::new(ingot_storage::MemoryBackend::new()))
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn metrics_snapshot_renders_prometheus_text() {
        let e = engine_with(EngineConfig::tracing());
        let s = e.open_session();
        load_demo(&s);
        s.execute("select count(*) from protein").unwrap();
        let text = e.metrics_snapshot().render_prometheus();
        assert!(
            text.contains("# TYPE ingot_statistics_statements_executed untyped"),
            "{text}"
        );
        assert!(
            text.contains("# HELP ingot_statistics_cache_hits ima$statistics.cache_hits"),
            "{text}"
        );
        assert!(
            text.contains("ingot_transactions_value{metric=\"commit_seq\"}"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE ingot_statement_latency_ns histogram"),
            "{text}"
        );
        assert!(text.contains("le=\"+Inf\""), "{text}");
        assert!(text.contains("ingot_monitor_health_self_time_ns"), "{text}");
        assert!(
            text.contains("ingot_monitor_health_trace_enabled 1"),
            "{text}"
        );
    }

    #[test]
    fn ima_connections_is_registered_once_and_swaps_its_source() {
        let fleet = |peer: &'static str| {
            move || {
                vec![ConnectionRow {
                    session: 1,
                    peer: peer.into(),
                    client: String::new(),
                    state: "idle",
                    statement: None,
                    wait_event: None,
                    idle_ms: 0,
                    txn_age_ms: -1,
                }]
            }
        };
        let e = engine();
        let s = e.open_session();
        let peers = || -> Vec<Value> {
            let r = s.execute("select peer from ima$connections").unwrap();
            r.rows.iter().map(|row| row.get(0).clone()).collect()
        };
        e.attach(fleet("first")).unwrap();
        assert_eq!(peers(), [Value::Str("first".into())]);
        e.detach::<ConnectionRow>();
        assert!(peers().is_empty(), "registered, but no fleet attached");
        e.attach(fleet("second")).unwrap();
        assert_eq!(peers(), [Value::Str("second".into())]);
        let tables = e
            .catalog()
            .read()
            .virtual_tables()
            .filter(|t| &*t.name == IMA_CONNECTIONS)
            .count();
        assert_eq!(tables, 1);
    }
}
