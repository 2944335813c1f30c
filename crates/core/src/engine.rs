//! The engine facade: sessions, the sensor-instrumented statement path, and
//! the administration surface used by the daemon and analyzer.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ingot_catalog::{Catalog, SharedCatalog, StorageStructure, VersionChange, WriteAs};
use ingot_common::waits::{bind_session, WaitRegistry, WaitTotal};
use ingot_common::{
    Column, ColumnSet, Connection, Cost, EngineConfig, Error, IndexId, MonotonicClock,
    PreparedStatement, Result, Row, Schema, SessionId, SimClock, Snapshot, StmtHash, TableId,
    TxnId, Value, WalFsyncMode,
};
use ingot_executor::{dml::insert_one, execute, DmlObserver, ExecCtx};
use ingot_planner::{
    optimize, template_key, AttributeRef, BindArtifacts, Binder, BoundStatement, CachedPlan,
    Footprint, IndexRef, OptimizerOptions, PlanCache, PlanCacheStats, PlannedStatement, TableRef,
};
use ingot_sql::{param_count, parse_statement, ColumnDef, Statement};
use ingot_storage::{
    decode_row, encode_row, BufferStats, IoStats, Lsn, RowId, StorageEngine, Wal, WalEntry,
    WalRecord, WalStats,
};
use ingot_trace::{
    render_operator_tree, MetricKind, MetricsSnapshot, OperatorSpan, Sample, Stage, TraceBuilder,
    TraceConfig, Tracer,
};
use ingot_txn::{AbortCause, LockManager, LockMode, Resource, TxnManager};
use parking_lot::Mutex;

use crate::ash::{ActiveSession, AshSampler};
use crate::ima::{
    register_concurrency_tables, register_ima_tables, register_monitor_health_table,
    register_plan_cache_table, register_trace_tables, register_wait_tables, register_wal_table,
};
use crate::monitor::{Monitor, StatSample, StatementSensor};

/// Concurrent-session counters ("Current sessions, Maximum sessions" in the
/// Fig 3 statistics table).
#[derive(Debug, Default)]
pub struct SessionCounters {
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
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Peak concurrent sessions.
    pub fn peak(&self) -> u64 {
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

/// One transaction's write-side state: whether a `Begin` record was appended
/// to the WAL (first mutation does it lazily) and the [`VersionChange`]s its
/// mutations produced. At commit the changes are stamped with the commit
/// timestamp; on abort they are undone newest-first (the transaction still
/// holds row-exclusive locks on every chain it touched, so undo cannot race
/// other writers).
#[derive(Debug, Default)]
struct TxnUndo {
    began: bool,
    ops: Vec<VersionChange>,
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
    /// Swappable row source behind `ima$connections`. The virtual table is
    /// registered once (first [`Engine::attach_connections_provider`]) with a
    /// closure reading this slot, so a restarted in-process server re-attaches
    /// its fresh registry instead of leaving the table serving stale rows.
    conn_provider: Arc<Mutex<Option<ingot_catalog::VirtualProvider>>>,
}

/// Configures and builds an [`Engine`]. Obtained via [`Engine::builder`].
///
/// The storage backing is chosen by at most one of [`path`](Self::path)
/// (file-backed pages under a directory) and [`backend`](Self::backend)
/// (an arbitrary [`ingot_storage::DiskBackend`], e.g. a fault-injection
/// wrapper); with neither, pages live in memory.
///
/// ```
/// use ingot_common::EngineConfig;
/// use ingot_core::Engine;
///
/// let engine = Engine::builder()
///     .config(EngineConfig::monitoring())
///     .plan_cache_capacity(64)
///     .build()
///     .unwrap();
/// let session = engine.open_session();
/// # drop(session);
/// ```
pub struct EngineBuilder {
    config: EngineConfig,
    clock: Option<SimClock>,
    backend: Option<Box<dyn ingot_storage::DiskBackend>>,
    path: Option<std::path::PathBuf>,
}

impl EngineBuilder {
    /// Use `config` instead of [`EngineConfig::default`].
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Share an external simulated clock (benchmarks coordinate the main
    /// engine and the workload DB through one clock).
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Back pages with real files under `dir` — used for the workload
    /// database, so the storage daemon's periodic appends genuinely hit the
    /// disk (the paper's "Daemon" setup). Mutually exclusive with
    /// [`backend`](Self::backend).
    pub fn path(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.path = Some(dir.into());
        self
    }

    /// Back pages with an arbitrary disk backend — fault-injection wrappers
    /// in robustness tests, custom stores. Mutually exclusive with
    /// [`path`](Self::path).
    pub fn backend(mut self, backend: Box<dyn ingot_storage::DiskBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Override the shared plan cache's capacity (templates held). Zero
    /// disables plan caching entirely.
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.config.plan_cache_capacity = capacity;
        self
    }

    /// Build the engine. Fails when both a path and a backend were given,
    /// when the durability configuration is inconsistent, when opening a
    /// file-backed store fails, or when crash recovery finds a log that
    /// contradicts the checkpoint image.
    pub fn build(self) -> Result<Arc<Engine>> {
        if self.backend.is_some() && self.path.is_some() {
            return Err(Error::unsupported(
                "EngineBuilder: .path() and .backend() are mutually exclusive",
            ));
        }
        if self.config.wal_fsync_mode == WalFsyncMode::Group
            && self.config.group_commit_window_us == 0
        {
            return Err(Error::unsupported(
                "EngineBuilder: wal_fsync_mode=group needs group_commit_window_us > 0 \
                 (use wal_fsync_mode=always for one unbatched fsync per commit)",
            ));
        }
        if self.config.monitor_enabled && self.config.wait_events_enabled {
            if self.config.ash_sample_interval_ms == 0 {
                return Err(Error::unsupported(
                    "EngineBuilder: wait_events_enabled needs ash_sample_interval_ms > 0 \
                     (set wait_events_enabled=false to drop the subsystem entirely)",
                ));
            }
            if self.config.ash_ring_capacity == 0 {
                return Err(Error::unsupported(
                    "EngineBuilder: wait_events_enabled needs ash_ring_capacity > 0 \
                     (set wait_events_enabled=false to drop the subsystem entirely)",
                ));
            }
        }
        let clock = self.clock.unwrap_or_default();
        let (storage, wal) = if let Some(dir) = self.path {
            // Crash recovery, part 1: restore the page files to the last
            // durable checkpoint (recovery manifest), then open the WAL,
            // salvaging its valid prefix and truncating any torn tail.
            // Part 2 — replaying committed transactions on top of the
            // checkpoint image — runs below, once an engine exists to
            // re-execute replayed DDL.
            ingot_storage::recover(&dir)?;
            let wal = Wal::open_in_dir(&dir, &self.config)?;
            (
                StorageEngine::file_backed(dir, &self.config, clock.clone())?,
                wal,
            )
        } else if let Some(backend) = self.backend {
            (
                StorageEngine::with_backend(backend, &self.config, clock.clone()),
                Wal::in_memory(&self.config),
            )
        } else {
            (
                StorageEngine::in_memory(&self.config, clock.clone()),
                Wal::in_memory(&self.config),
            )
        };
        let engine = Engine::with_storage(self.config, clock, storage, wal)?;
        engine.replay_wal()?;
        // New commit timestamps must start above every stamp already in the
        // data pages — checkpointed versions as well as replayed ones.
        let max_ts = {
            let catalog = engine.catalog.read();
            catalog
                .tables()
                .map(|t| t.heap.max_commit_ts())
                .max()
                .unwrap_or(0)
        };
        engine.txns.restore_commit_seq(max_ts);
        Ok(engine)
    }
}

impl Engine {
    /// Start configuring an engine. The builder is the one construction
    /// path: storage backing, clock sharing and plan-cache sizing are all
    /// expressed on it, and [`EngineBuilder::build`] returns the instance.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            config: EngineConfig::default(),
            clock: None,
            backend: None,
            path: None,
        }
    }

    fn with_storage(
        config: EngineConfig,
        sim_clock: SimClock,
        storage: StorageEngine,
        wal: Wal,
    ) -> Result<Arc<Engine>> {
        let wall = MonotonicClock::new();
        let wal = Arc::new(wal);
        let mut catalog = Catalog::new(Arc::clone(storage.pool()), config.heap_main_pages);
        // Crash recovery, part 2a: re-attach the schema recorded in the
        // checkpoint manifest so WAL replay (part 2b, in `build`) finds its
        // tables. Base tables come back before any `ima$…` registration.
        if let Some(blob) = storage.checkpoint_meta()? {
            catalog.attach_schema(&blob)?;
        }
        let monitor = config
            .monitor_enabled
            .then(|| Arc::new(Monitor::new(&config, wall)));
        // Tracing rides on the monitoring infrastructure: no monitor, no
        // tracer (the "Original" setup stays untouched).
        let tracer = monitor.is_some().then(|| {
            Arc::new(Tracer::new(
                wall,
                &TraceConfig {
                    enabled: config.trace_enabled,
                    ..TraceConfig::default()
                },
            ))
        });
        let locks = Arc::new(LockManager::new(Duration::from_millis(
            config.lock_timeout_ms,
        )));
        let txns = Arc::new(TxnManager::new());
        let sessions = Arc::new(SessionCounters::default());
        let plan_cache = Arc::new(PlanCache::new(config.plan_cache_capacity));
        // Wait events + ASH ride on the monitor, like tracing: the
        // "Original" setup never constructs a registry and every guard on
        // the instrumented paths stays a no-op.
        let (waits, ash) = if monitor.is_some() && config.wait_events_enabled {
            let registry = Arc::new(WaitRegistry::with_clock(wall));
            locks.set_wait_registry(Arc::clone(&registry));
            wal.set_wait_registry(Arc::clone(&registry));
            storage.pool().set_wait_registry(Arc::clone(&registry));
            txns.set_wait_registry(Arc::clone(&registry));
            let sampler = Arc::new(AshSampler::new(
                wall,
                config.ash_sample_interval_ms.saturating_mul(1_000_000),
                config.ash_ring_capacity,
            ));
            sampler.set_wait_registry(Arc::clone(&registry));
            (Some(registry), Some(sampler))
        } else {
            (None, None)
        };
        if let (Some(m), Some(t)) = (&monitor, &tracer) {
            register_ima_tables(&mut catalog, m)?;
            register_monitor_health_table(&mut catalog, m, t, ash.as_ref())?;
            register_concurrency_tables(&mut catalog, &locks, &txns, &sessions)?;
            register_plan_cache_table(&mut catalog, &plan_cache)?;
            register_wal_table(&mut catalog, &wal)?;
        }
        if let (Some(registry), Some(sampler)) = (&waits, &ash) {
            register_wait_tables(&mut catalog, registry, sampler)?;
        }
        if let Some(t) = &tracer {
            register_trace_tables(&mut catalog, t)?;
        }
        Ok(Arc::new(Engine {
            locks,
            txns,
            sessions,
            plan_cache,
            statements_executed: AtomicU64::new(0),
            sim_clock,
            wall,
            storage,
            wal,
            catalog: SharedCatalog::new(catalog),
            monitor,
            tracer,
            config,
            undo: Mutex::new(HashMap::new()),
            checkpoint_serial: Mutex::new(()),
            waits,
            ash,
            conn_provider: Arc::new(Mutex::new(None)),
        }))
    }

    /// Crash recovery, part 2b: replay the salvaged WAL on top of the
    /// checkpoint image — all DDL, plus the data mutations of transactions
    /// whose `Commit` record reached the disk. Loser transactions (no commit
    /// record) are discarded: the no-steal buffer pool guarantees none of
    /// their pages were flushed, so skipping their records *is* the undo.
    /// Runs exactly once, from [`EngineBuilder::build`].
    fn replay_wal(self: &Arc<Self>) -> Result<()> {
        let entries = self.wal.take_recovered();
        if entries.is_empty() {
            return Ok(());
        }
        // Records at or below the newest Checkpoint record whose epoch made
        // it into the recovery manifest are already reflected in the page
        // files (a crash between manifest install and log truncation leaves
        // both the checkpoint record and everything before it in the log).
        let installed = self.storage.checkpoint_epoch();
        let mut low_water: Lsn = 0;
        // Winner transactions mapped to the commit timestamp their versions
        // were stamped with pre-crash: replay reconstructs version chains
        // with the same stamps, so post-recovery snapshots agree with
        // pre-crash ones.
        let mut committed: HashMap<TxnId, u64> = HashMap::new();
        for e in &entries {
            match e.record {
                WalRecord::Checkpoint { epoch } if epoch <= installed => {
                    low_water = low_water.max(e.lsn);
                }
                WalRecord::Commit { txn, commit_ts } => {
                    committed.insert(txn, commit_ts);
                    self.txns.restore_commit_seq(commit_ts);
                }
                _ => {}
            }
        }
        self.wal.set_replaying(true);
        let replayed = self.replay_entries(&entries, low_water, &committed);
        self.wal.set_replaying(false);
        let (records, txns) = replayed?;
        self.wal.record_replay(records, txns);
        Ok(())
    }

    fn replay_entries(
        self: &Arc<Self>,
        entries: &[WalEntry],
        low_water: Lsn,
        committed: &HashMap<TxnId, u64>,
    ) -> Result<(u64, u64)> {
        let session = self.open_session();
        let mut records = 0u64;
        let mut txns: HashSet<TxnId> = HashSet::new();
        for e in entries.iter().filter(|e| e.lsn > low_water) {
            match &e.record {
                // Transaction bookkeeping carries no data to redo.
                WalRecord::Begin { .. }
                | WalRecord::Commit { .. }
                | WalRecord::Abort { .. }
                | WalRecord::Checkpoint { .. } => {}
                // DDL is logged only after it succeeded originally, so
                // re-executing it must succeed too; a failure means log and
                // checkpoint image disagree, and replay stops loudly rather
                // than continue against a wrong schema.
                WalRecord::Ddl { sql } => {
                    session.execute(sql).map_err(|err| {
                        Error::storage(format!("WAL replay: DDL `{sql}` failed: {err}"))
                    })?;
                    records += 1;
                }
                // Winner data records replay as already-committed versions,
                // stamped with the transaction's logged commit timestamp —
                // per-row WAL order matches commit order (row locks release
                // only after stamping), so the rebuilt chains match the
                // pre-crash ones.
                WalRecord::Insert { txn, table, row } if committed.contains_key(txn) => {
                    let Some(&cts) = committed.get(txn) else {
                        continue;
                    };
                    let catalog = self.catalog.read();
                    let id = catalog.resolve_table(table)?;
                    catalog.insert_row_v(id, &decode_row(row)?, WriteAs::Committed(cts))?;
                    records += 1;
                    txns.insert(*txn);
                }
                WalRecord::Delete { txn, table, old } if committed.contains_key(txn) => {
                    let Some(&cts) = committed.get(txn) else {
                        continue;
                    };
                    let catalog = self.catalog.read();
                    let id = catalog.resolve_table(table)?;
                    let rid = find_row_by_image(&catalog, id, &decode_row(old)?)?;
                    catalog.delete_row_v(id, rid, WriteAs::Committed(cts))?;
                    records += 1;
                    txns.insert(*txn);
                }
                WalRecord::Update {
                    txn,
                    table,
                    old,
                    new,
                } if committed.contains_key(txn) => {
                    let Some(&cts) = committed.get(txn) else {
                        continue;
                    };
                    let catalog = self.catalog.read();
                    let id = catalog.resolve_table(table)?;
                    let rid = find_row_by_image(&catalog, id, &decode_row(old)?)?;
                    catalog.update_row_v(id, rid, &decode_row(new)?, WriteAs::Committed(cts))?;
                    records += 1;
                    txns.insert(*txn);
                }
                // A data record of a loser transaction: discard.
                WalRecord::Insert { .. } | WalRecord::Delete { .. } | WalRecord::Update { .. } => {}
            }
        }
        Ok((records, txns.len() as u64))
    }

    /// Open a session.
    pub fn open_session(self: &Arc<Self>) -> Session {
        let id = self.sessions.open();
        let ash = self.ash.as_ref().map(|s| s.register_session(id.raw()));
        Session {
            id,
            engine: Arc::clone(self),
            txn: Mutex::new(None),
            snap: Mutex::new(None),
            ash,
        }
    }

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

    /// Attach (or replace) the row source behind the `ima$connections`
    /// virtual table. Called by a server embedding this engine when it
    /// starts accepting connections; the table itself is registered on the
    /// first attach and thereafter reads through a swappable slot, so a
    /// server restarted on the same engine serves fresh rows rather than a
    /// stale captured registry. No-op registration on an unmonitored engine
    /// (`ima$…` tables need the monitor's catalog surface).
    pub fn attach_connections_provider(
        &self,
        provider: ingot_catalog::VirtualProvider,
    ) -> Result<()> {
        let mut slot = self.conn_provider.lock();
        let first = slot.is_none();
        *slot = Some(provider);
        drop(slot);
        if first && self.monitor.is_some() {
            let hook = Arc::clone(&self.conn_provider);
            let mut catalog = self.catalog.write();
            // A previous attach/detach cycle may have left the table
            // registered; only that duplicate is expected — anything else
            // would silently lose ima$connections.
            match crate::ima::register_connections_table(
                &mut catalog,
                Arc::new(move || hook.lock().as_ref().map(|p| p()).unwrap_or_default()),
            ) {
                Ok(()) => {}
                Err(ingot_common::Error::Catalog(msg)) if msg.contains("already exists") => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Detach the `ima$connections` row source: the table stays registered
    /// but reports an empty fleet until the next attach.
    pub fn detach_connections_provider(&self) {
        *self.conn_provider.lock() = None;
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

    /// Session counters.
    pub fn sessions(&self) -> &Arc<SessionCounters> {
        &self.sessions
    }

    /// The shared plan cache (all sessions probe and fill the same one).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
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

    /// Flush all dirty pages to the storage backend.
    ///
    /// Prefer [`Engine::checkpoint`]: a bare flush between checkpoints writes
    /// pages the recovery manifest does not describe, and crash recovery
    /// truncates data files back to the manifest state before replaying the
    /// WAL — redo correctness assumes pages move to disk only at checkpoints.
    /// Kept for buffer-pool experiments and tests.
    pub fn flush(&self) -> Result<()> {
        self.storage.flush()
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
    /// every few statements.
    pub fn sample_statistics(&self) {
        let Some(monitor) = &self.monitor else { return };
        let locks = self.locks.stats();
        let buf = self.buffer_stats();
        let io = self.io_stats();
        monitor.record_statistics(StatSample {
            at_ns: self.wall.now_nanos(),
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
            physical_writes: io.writes,
            statements_executed: self.statements_executed(),
        });
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
            let schema = catalog.table(id)?.meta.schema.clone();
            let cols: Vec<usize> = columns
                .iter()
                .map(|c| {
                    schema
                        .index_of(c)
                        .ok_or_else(|| Error::binder(format!("unknown column '{c}'")))
                })
                .collect::<Result<_>>()?;
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

    /// Assemble a point-in-time [`MetricsSnapshot`] of the engine: execution
    /// counters, buffer-pool and I/O totals, lock-manager state, monitor and
    /// tracer self-cost, and the per-statement latency histograms as proper
    /// Prometheus histograms. The shell renders it with `\metrics`; the
    /// storage daemon flattens it into the workload DB.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.push(
            "ingot_statements_executed_total",
            "Statements executed since engine start.",
            MetricKind::Counter,
            vec![Sample::plain(self.statements_executed() as f64)],
        );
        snap.push(
            "ingot_sessions",
            "Open sessions (current) and high-water mark (peak).",
            MetricKind::Gauge,
            vec![
                Sample::labelled(
                    vec![("state".into(), "current".into())],
                    self.sessions.current() as f64,
                ),
                Sample::labelled(
                    vec![("state".into(), "peak".into())],
                    self.sessions.peak() as f64,
                ),
            ],
        );
        let buf = self.buffer_stats();
        snap.push(
            "ingot_buffer_pool_requests_total",
            "Buffer-pool page requests by outcome.",
            MetricKind::Counter,
            vec![
                Sample::labelled(vec![("outcome".into(), "hit".into())], buf.hits as f64),
                Sample::labelled(vec![("outcome".into(), "miss".into())], buf.misses as f64),
            ],
        );
        let io = self.io_stats();
        snap.push(
            "ingot_disk_pages_total",
            "Physical page transfers by kind.",
            MetricKind::Counter,
            vec![
                Sample::labelled(
                    vec![("kind".into(), "seq_read".into())],
                    io.seq_reads as f64,
                ),
                Sample::labelled(
                    vec![("kind".into(), "rand_read".into())],
                    io.rand_reads as f64,
                ),
                Sample::labelled(vec![("kind".into(), "write".into())], io.writes as f64),
            ],
        );
        let locks = self.locks.stats();
        snap.push(
            "ingot_locks_held",
            "Locks currently granted.",
            MetricKind::Gauge,
            vec![Sample::plain(locks.held as f64)],
        );
        snap.push(
            "ingot_lock_waits_total",
            "Lock requests that had to wait.",
            MetricKind::Counter,
            vec![Sample::plain(locks.waits_total as f64)],
        );
        snap.push(
            "ingot_deadlocks_total",
            "Deadlocks detected.",
            MetricKind::Counter,
            vec![Sample::plain(locks.deadlocks_total as f64)],
        );
        snap.push(
            "ingot_txn_commit_seq",
            "Highest published MVCC commit timestamp.",
            MetricKind::Gauge,
            vec![Sample::plain(self.txns.read_ts() as f64)],
        );
        snap.push(
            "ingot_txn_active_snapshots",
            "Registered read snapshots (each pins the GC watermark).",
            MetricKind::Gauge,
            vec![Sample::plain(self.txns.active_snapshots().len() as f64)],
        );
        snap.push(
            "ingot_txn_aborts_total",
            "Transactions aborted, by cause.",
            MetricKind::Counter,
            AbortCause::ALL
                .iter()
                .map(|&c| {
                    Sample::labelled(
                        vec![("cause".into(), c.name().into())],
                        self.txns.aborts_by_cause(c) as f64,
                    )
                })
                .collect(),
        );
        snap.push(
            "ingot_mvcc_validation_failures_total",
            "First-committer-wins validation failures at commit.",
            MetricKind::Counter,
            vec![Sample::plain(self.txns.validation_failures() as f64)],
        );
        snap.push(
            "ingot_mvcc_gc_total",
            "Version-chain garbage collection: sweeps run and versions reclaimed.",
            MetricKind::Counter,
            vec![
                Sample::labelled(
                    vec![("kind".into(), "runs".into())],
                    self.txns.gc_runs() as f64,
                ),
                Sample::labelled(
                    vec![("kind".into(), "versions_removed".into())],
                    self.txns.gc_versions_removed() as f64,
                ),
            ],
        );
        snap.push(
            "ingot_mvcc_gc_watermark",
            "Oldest-active-snapshot watermark of the most recent GC sweep.",
            MetricKind::Gauge,
            vec![Sample::plain(self.txns.gc_last_watermark() as f64)],
        );
        let pc = self.plan_cache.stats();
        snap.push(
            "ingot_plan_cache_events_total",
            "Plan-cache probe and maintenance events by kind.",
            MetricKind::Counter,
            vec![
                Sample::labelled(vec![("event".into(), "hit".into())], pc.hits as f64),
                Sample::labelled(vec![("event".into(), "miss".into())], pc.misses as f64),
                Sample::labelled(
                    vec![("event".into(), "eviction".into())],
                    pc.evictions as f64,
                ),
                Sample::labelled(
                    vec![("event".into(), "invalidation".into())],
                    pc.invalidations as f64,
                ),
            ],
        );
        snap.push(
            "ingot_plan_cache_entries",
            "Cached plan templates (live) and configured capacity.",
            MetricKind::Gauge,
            vec![
                Sample::labelled(vec![("kind".into(), "live".into())], pc.entries as f64),
                Sample::labelled(vec![("kind".into(), "capacity".into())], pc.capacity as f64),
            ],
        );
        let wal = self.wal.stats();
        snap.push(
            "ingot_wal_appends_total",
            "WAL records appended.",
            MetricKind::Counter,
            vec![Sample::plain(wal.appends as f64)],
        );
        snap.push(
            "ingot_wal_fsyncs_total",
            "WAL durability barriers completed.",
            MetricKind::Counter,
            vec![Sample::plain(wal.fsyncs as f64)],
        );
        snap.push(
            "ingot_wal_group_commit_total",
            "Group-commit leader fsyncs and the commits they acknowledged.",
            MetricKind::Counter,
            vec![
                Sample::labelled(vec![("kind".into(), "groups".into())], wal.groups as f64),
                Sample::labelled(
                    vec![("kind".into(), "commits".into())],
                    wal.grouped_commits as f64,
                ),
            ],
        );
        snap.push(
            "ingot_wal_lsn",
            "WAL log sequence numbers: highest appended vs highest durable.",
            MetricKind::Gauge,
            vec![
                Sample::labelled(
                    vec![("kind".into(), "current".into())],
                    wal.current_lsn as f64,
                ),
                Sample::labelled(
                    vec![("kind".into(), "durable".into())],
                    wal.durable_lsn as f64,
                ),
            ],
        );
        if let Some(registry) = &self.waits {
            let totals = registry.snapshot();
            snap.push(
                "ingot_wait_event_ns_total",
                "Nanoseconds lost per wait event.",
                MetricKind::Counter,
                totals
                    .iter()
                    .map(|t| {
                        Sample::labelled(
                            vec![("event".into(), t.event.name().into())],
                            t.total_ns as f64,
                        )
                    })
                    .collect(),
            );
            snap.push(
                "ingot_wait_event_count_total",
                "Completed waits per wait event.",
                MetricKind::Counter,
                totals
                    .iter()
                    .map(|t| {
                        Sample::labelled(
                            vec![("event".into(), t.event.name().into())],
                            t.count as f64,
                        )
                    })
                    .collect(),
            );
        }
        if let Some(sampler) = &self.ash {
            snap.push(
                "ingot_ash_samples_total",
                "Active Session History samples taken.",
                MetricKind::Counter,
                vec![Sample::plain(sampler.samples_taken() as f64)],
            );
        }
        if let Some(m) = &self.monitor {
            snap.push(
                "ingot_monitor_self_time_ns_total",
                "Nanoseconds spent inside monitoring code.",
                MetricKind::Counter,
                vec![Sample::plain(m.self_time_ns() as f64)],
            );
            snap.push(
                "ingot_monitor_sensor_calls_total",
                "Monitor sensor invocations.",
                MetricKind::Counter,
                vec![Sample::plain(m.sensor_calls() as f64)],
            );
            snap.push(
                "ingot_monitor_statements_recorded_total",
                "Statements recorded by the monitor.",
                MetricKind::Counter,
                vec![Sample::plain(m.statements_recorded() as f64)],
            );
        }
        if let Some(t) = &self.tracer {
            snap.push(
                "ingot_trace_enabled",
                "1 when runtime tracing is on.",
                MetricKind::Gauge,
                vec![Sample::plain(if t.enabled() { 1.0 } else { 0.0 })],
            );
            snap.push(
                "ingot_trace_self_time_ns_total",
                "Nanoseconds spent inside tracer bookkeeping.",
                MetricKind::Counter,
                vec![Sample::plain(t.self_time_ns() as f64)],
            );
            snap.push(
                "ingot_trace_statements_total",
                "Statements traced.",
                MetricKind::Counter,
                vec![Sample::plain(t.statements_traced() as f64)],
            );
            let mut samples = Vec::new();
            for (hash, hist) in t.histograms() {
                let label = hash.to_string();
                for (_, _, hi, _, cum) in hist.rows() {
                    samples.push(Sample {
                        suffix: "_bucket",
                        labels: vec![
                            ("hash".into(), label.clone()),
                            ("le".into(), hi.to_string()),
                        ],
                        value: cum as f64,
                    });
                }
                samples.push(Sample {
                    suffix: "_bucket",
                    labels: vec![("hash".into(), label.clone()), ("le".into(), "+Inf".into())],
                    value: hist.total() as f64,
                });
                samples.push(Sample {
                    suffix: "_sum",
                    labels: vec![("hash".into(), label.clone())],
                    value: hist.sum_ns() as f64,
                });
                samples.push(Sample {
                    suffix: "_count",
                    labels: vec![("hash".into(), label)],
                    value: hist.total() as f64,
                });
            }
            if !samples.is_empty() {
                snap.push(
                    "ingot_statement_latency_ns",
                    "Statement wall-clock latency by statement hash.",
                    MetricKind::Histogram,
                    samples,
                );
            }
        }
        snap
    }

    // ---- transaction completion (WAL-ordered) ----------------------------

    /// Record one applied data mutation of `txn`: push its version change
    /// (the commit stamp set / abort undo list) and lazily append the
    /// transaction's `Begin` WAL record on its first mutation. The DML
    /// record itself is appended by the caller.
    fn note_mutation(&self, txn: TxnId, op: VersionChange) -> Result<()> {
        let need_begin = {
            let mut undo = self.undo.lock();
            let entry = undo.entry(txn).or_default();
            entry.ops.push(op);
            !std::mem::replace(&mut entry.began, true)
        };
        if need_begin {
            self.wal.append(&WalRecord::Begin { txn })?;
        }
        Ok(())
    }

    /// Commit `txn`. Ordering, each step gated on the previous:
    ///
    /// 1. first-committer-wins validation ([`TxnManager::validate_write_set`])
    ///    — write-time conflict checks already failed any statement whose
    ///    target was superseded, so the write set is intact here; the call is
    ///    the recorded validation point and must precede `txns.commit`;
    /// 2. reserve a commit timestamp ([`TxnManager::start_commit`] — no lock
    ///    held, so concurrent committers still share group-commit batches);
    /// 3. append the `Commit` record carrying that timestamp and wait for
    ///    the configured durability barrier — a barrier failure abandons the
    ///    timestamp and rolls the transaction back: an un-durable commit is
    ///    never acknowledged;
    /// 4. stamp the write-set versions with the timestamp and publish it —
    ///    only now do other snapshots start seeing the transaction's rows;
    /// 5. release locks and retire the transaction.
    fn commit_txn(&self, txn: TxnId) -> Result<()> {
        if let Err(e) = self.txns.validate_write_set(txn, None) {
            self.abort_txn_with(txn, AbortCause::from_error(&e));
            return Err(e);
        }
        let undo = self.undo.lock().remove(&txn);
        let Some(undo) = undo.filter(|u| !u.ops.is_empty()) else {
            // Read-only (or no-op) transaction: nothing to log or stamp, so
            // no durability barrier is owed before acknowledging.
            self.locks.release_all(txn);
            self.txns.commit_read_only(txn);
            return Ok(());
        };
        let ticket = self.txns.start_commit();
        // A non-empty write set implies `began`: `note_mutation` pushes the
        // first op and appends the Begin record under the same undo-map
        // lock, so there is no path here with ops but no Begin.
        debug_assert!(undo.began, "write set without a Begin record");
        if !self.wal.is_replaying() {
            let durable = self
                .wal
                .append(&WalRecord::Commit {
                    txn,
                    commit_ts: ticket.ts(),
                })
                .and_then(|lsn| self.wal.commit_barrier(lsn));
            if let Err(e) = durable {
                // Put the write set back so the abort path can undo it; the
                // dropped ticket abandons the reserved timestamp.
                drop(ticket);
                self.undo.lock().insert(txn, undo);
                self.abort_txn_with(txn, AbortCause::Other);
                return Err(e);
            }
        }
        // Stamp, then publish: a snapshot that can read the published
        // timestamp sees either all of this transaction's versions or (for
        // older snapshots) none. A stamp failure is a storage-level
        // inconsistency; it still publishes and releases (the WAL holds the
        // commit record, so recovery is the authority) but surfaces loudly.
        let mut stamp_err = None;
        {
            let catalog = self.catalog.read();
            for change in &undo.ops {
                if let Err(e) = catalog.apply_version_commit(change, ticket.ts()) {
                    stamp_err.get_or_insert(e);
                }
            }
        }
        ticket.publish();
        self.locks.release_all(txn);
        self.txns.commit(txn);
        match stamp_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Abort `txn`: reverse its applied mutations (version undo, newest
    /// first), append a best-effort `Abort` record and release its locks.
    /// Infallible — abort runs from error paths and `Drop`, which cannot
    /// propagate. An undo failure is tolerable because the WAL, which holds
    /// no `Commit` record for `txn`, stays the authority on the next
    /// recovery; the `Abort` record is purely diagnostic.
    fn abort_txn(&self, txn: TxnId) {
        self.abort_txn_with(txn, AbortCause::User);
    }

    /// [`Engine::abort_txn`] with an explicit [`AbortCause`] for the
    /// per-cause counters behind `ima$transactions`.
    fn abort_txn_with(&self, txn: TxnId, cause: AbortCause) {
        if let Some(undo) = self.undo.lock().remove(&txn) {
            let catalog = self.catalog.read();
            for op in undo.ops.iter().rev() {
                if catalog.apply_version_undo(op).is_err() {
                    // The WAL (no Commit record) stays the recovery
                    // authority; surface the inconsistency instead of
                    // swallowing it.
                    self.txns.note_undo_failure();
                }
            }
            if undo.began && !self.wal.is_replaying() {
                let _ = self.wal.append(&WalRecord::Abort { txn });
            }
        }
        self.locks.release_all(txn);
        self.txns.abort_with(txn, cause);
    }
}

/// Locate the live (visible-at-latest) row holding exactly `image`. WAL
/// replay identifies Delete/Update targets by image because physical row ids
/// are not stable across recovery. Identical duplicate rows are
/// interchangeable, so matching the first is sound. Strict on absence: a
/// missing image means the log and the data pages disagree, which must
/// surface, not be papered over.
fn find_row_by_image(catalog: &Catalog, table: TableId, image: &Row) -> Result<RowId> {
    let entry = catalog.table(table)?;
    for item in entry.scan_visible(&Snapshot::latest(), ColumnSet::all()) {
        let (rid, _, row) = item?;
        if row == *image {
            return Ok(rid);
        }
    }
    Err(Error::storage(format!(
        "no row in '{}' matches the logged image",
        entry.meta.name
    )))
}

/// Observes each applied DML mutation on behalf of one transaction: pushes
/// its logical undo and appends the matching WAL record. The log carries
/// exactly the stored (schema-coerced) representation: an insert hands over
/// the checked row the heap just encoded, an update's new image is re-read
/// from the heap, and pre-images arrive already canonical because the
/// executor read them from the heap.
struct WalDmlObserver<'a> {
    engine: &'a Engine,
    catalog: &'a Catalog,
    txn: TxnId,
}

impl<'a> WalDmlObserver<'a> {
    /// The execution context of one session statement: versions marked with
    /// the observed transaction, row locks taken in its name, every mutation
    /// reported back here. Auto-commit statements retarget superseded rows,
    /// explicit transactions fail them with a write conflict
    /// (first-committer-wins).
    fn exec_ctx(
        &'a self,
        snap: Snapshot,
        auto: bool,
        trace: Option<MonotonicClock>,
    ) -> ExecCtx<'a> {
        ExecCtx {
            snap,
            write: WriteAs::Txn(self.txn),
            locks: Some((&self.engine.locks, self.txn)),
            retarget: auto,
            observer: self,
            trace,
        }
    }

    fn table_name(&self, table: TableId) -> Result<Cow<'a, str>> {
        Ok(Cow::Borrowed(&self.catalog.table(table)?.meta.name))
    }

    fn stored_image(&self, table: TableId, rid: RowId) -> Result<Row> {
        self.catalog.table(table)?.heap.get(rid)
    }
}

impl DmlObserver for WalDmlObserver<'_> {
    fn on_insert(
        &self,
        table: TableId,
        _rid: RowId,
        row: &Row,
        change: &VersionChange,
    ) -> Result<()> {
        if self.engine.wal.is_replaying() {
            return Ok(());
        }
        // Undo info is recorded before the fallible WAL append: if the
        // append fails mid-statement, the abort path still knows how to
        // reverse this already-applied version.
        self.engine.note_mutation(self.txn, change.clone())?;
        self.engine.wal.append(&WalRecord::Insert {
            txn: self.txn,
            table: self.table_name(table)?,
            row: encode_row(row),
        })?;
        Ok(())
    }

    fn on_delete(
        &self,
        table: TableId,
        _rid: RowId,
        old: &Row,
        change: &VersionChange,
    ) -> Result<()> {
        if self.engine.wal.is_replaying() {
            return Ok(());
        }
        self.engine.note_mutation(self.txn, change.clone())?;
        self.engine.wal.append(&WalRecord::Delete {
            txn: self.txn,
            table: self.table_name(table)?,
            old: encode_row(old),
        })?;
        Ok(())
    }

    fn on_update(
        &self,
        table: TableId,
        _old_rid: RowId,
        new_rid: RowId,
        old: &Row,
        _new: &Row,
        changes: &[VersionChange],
    ) -> Result<()> {
        if self.engine.wal.is_replaying() {
            return Ok(());
        }
        let new_image = self.stored_image(table, new_rid)?;
        for change in changes {
            self.engine.note_mutation(self.txn, change.clone())?;
        }
        self.engine.wal.append(&WalRecord::Update {
            txn: self.txn,
            table: self.table_name(table)?,
            old: encode_row(old),
            new: encode_row(&new_image),
        })?;
        Ok(())
    }
}

/// The two per-statement observers every step of the statement path feeds:
/// the monitor's sensor record and, while runtime tracing is on, the stage /
/// operator span builder. Either may be absent; the helpers are no-ops then.
struct Probes<'a> {
    sensor: Option<StatementSensor<'a>>,
    trace: Option<TraceBuilder>,
}

impl Probes<'_> {
    /// Charge monitoring bookkeeping time to the statement's `monitor_ns`.
    fn add_self_time(&mut self, ns: u64) {
        if let Some(s) = self.sensor.as_mut() {
            s.add_self_time(ns);
        }
    }

    /// Record a completed pipeline stage.
    fn stage(&mut self, stage: Stage, elapsed_ns: u64) {
        if let Some(tb) = self.trace.as_mut() {
            tb.stage(stage, elapsed_ns);
        }
    }
}

/// What [`Session::run_planned`] does differently per path: the two facts
/// about where its plan came from.
#[derive(Default)]
struct PlanOrigin {
    /// `(opt_ns, opt_io)` when the plan was just optimized. `None` for a plan
    /// probed out of the cache: the optimizer cost this statement nothing,
    /// and the schema epoch is re-verified under the execution snapshot.
    optimized: Option<(u64, u64)>,
    /// `EXPLAIN ANALYZE`: operator spans are collected whether or not
    /// tracing is on and rendered as the result, with the waits accrued
    /// since these session totals (taken before planning).
    analyze: Option<Vec<WaitTotal>>,
}

/// A statement's identity, computed once per text (by [`Session::prepare`]
/// for a handle, at [`Session::execute`] for plain text) and handed to every
/// party that keys on it: monitor sensor, ASH slot, tracer and plan cache.
struct StmtIdentity {
    /// Hash of the raw text — the key of `ima$statements`. Only observers
    /// read it, so the bare engine does not compute it.
    hash: StmtHash,
    /// Whitespace-normalized text — the plan-cache key and the ASH template.
    template: Arc<str>,
}

/// A connection to the engine. Statements auto-commit unless an explicit
/// transaction is open via [`Session::begin`].
pub struct Session {
    engine: Arc<Engine>,
    id: SessionId,
    txn: Mutex<Option<TxnId>>,
    /// The open explicit transaction's read snapshot, taken lazily at its
    /// first statement and held for the whole transaction (snapshot
    /// isolation). Auto-commit statements take a fresh snapshot each and
    /// never store it here.
    snap: Mutex<Option<Snapshot>>,
    /// This session's ASH slot (wait sink + current-statement cell);
    /// `None` when the wait subsystem is off.
    ash: Option<Arc<ActiveSession>>,
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some(txn) = self.txn.lock().take() {
            // An open transaction dropped without commit aborts: its data
            // changes are reversed and its locks release.
            self.engine.abort_txn(txn);
        }
        if let (Some(sampler), Some(slot)) = (&self.engine.ash, &self.ash) {
            sampler.deregister_session(slot.session_id());
        }
        self.engine.sessions.close();
    }
}

impl Session {
    /// This session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The engine behind the session.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Cumulative wait totals charged to this session, one row per
    /// [`ingot_common::WaitEvent`]. Empty when the wait subsystem is off.
    pub fn wait_totals(&self) -> Vec<WaitTotal> {
        self.ash
            .as_ref()
            .map(|s| s.waits().counters().snapshot())
            .unwrap_or_default()
    }

    /// This session's ASH slot (wait sink + current-statement cell), `None`
    /// when the wait subsystem is off. The server publishes each wire
    /// connection's slot into `ima$connections` so the fleet view shows the
    /// live wait event per peer.
    pub fn ash_slot(&self) -> Option<&Arc<ActiveSession>> {
        self.ash.as_ref()
    }

    /// Is an explicit transaction currently open on this session?
    pub fn in_transaction(&self) -> bool {
        self.txn.lock().is_some()
    }

    /// Open an explicit transaction (locks held until commit/rollback).
    pub fn begin(&self) -> Result<()> {
        let mut txn = self.txn.lock();
        if txn.is_some() {
            return Err(Error::execution("transaction already open"));
        }
        *txn = Some(self.engine.txns.begin());
        Ok(())
    }

    /// Commit the open transaction. The WAL `Commit` record reaches the
    /// configured durability barrier *before* any lock is released or the
    /// commit acknowledged; on a barrier failure the transaction is rolled
    /// back instead and the error returned — an un-durable commit is never
    /// acknowledged.
    pub fn commit(&self) -> Result<()> {
        let txn = self
            .txn
            .lock()
            .take()
            .ok_or_else(|| Error::execution("no open transaction"))?;
        *self.snap.lock() = None;
        self.engine.commit_txn(txn)
    }

    /// Roll back the open transaction: its data changes are reversed
    /// (logical undo, newest first), an `Abort` record is logged and its
    /// locks release.
    pub fn rollback(&self) -> Result<()> {
        let txn = self
            .txn
            .lock()
            .take()
            .ok_or_else(|| Error::execution("no open transaction"))?;
        *self.snap.lock() = None;
        self.engine.abort_txn(txn);
        Ok(())
    }

    /// Execute one SQL statement. This is the prepared path with zero
    /// parameters: the same plan-cache probe, sensors and locking as
    /// [`Prepared::execute`], so repeated texts skip parse/bind/optimize.
    pub fn execute(&self, sql: &str) -> Result<StatementResult> {
        self.execute_with_params(sql, &self.identify(sql), &[])
    }

    fn identify(&self, sql: &str) -> StmtIdentity {
        StmtIdentity {
            hash: match self.engine.monitor {
                Some(_) => StmtHash::of(sql),
                None => StmtHash(0),
            },
            template: template_key(sql),
        }
    }

    /// Validate `sql` once and return a reusable handle that executes it
    /// with bound parameter values (`$1`… or `?` markers).
    pub fn prepare(&self, sql: &str) -> Result<Prepared<'_>> {
        let stmt = parse_statement(sql)?;
        Ok(Prepared {
            session: self,
            text: sql.to_owned(),
            identity: self.identify(sql),
            param_count: param_count(&stmt),
        })
    }

    /// Insert one already-typed row into `table`, bypassing SQL but using
    /// the same locking, WAL and undo path as `INSERT`. The storage daemon's
    /// workload-DB writer batches thousands of rows per poll through this —
    /// one parse-free call each inside a single explicit transaction, so the
    /// whole batch rides one durability barrier at commit.
    pub fn insert_direct(&self, table: &str, row: &Row) -> Result<RowId> {
        let engine = &*self.engine;
        let id = engine.catalog.read().resolve_table(table)?;
        let (txn, auto) = self.current_txn();
        // Table-shared lock = DDL fence only; the insert itself takes
        // row-level constraint-key locks inside `insert_one`.
        if let Err(e) = engine
            .locks
            .lock(txn, Resource::Table(id), LockMode::Shared)
        {
            if auto {
                self.abort_auto_txn(txn, &e);
            }
            return Err(e);
        }
        let catalog = engine.catalog.read();
        let observer = WalDmlObserver {
            engine,
            catalog: &catalog,
            txn,
        };
        let ctx = observer.exec_ctx(Snapshot::latest(), auto, None);
        let result = insert_one(&catalog, id, row, &ctx);
        drop(catalog);
        if auto {
            let fin = self.finish_auto_txn(txn, result.as_ref().err());
            return result.and_then(|r| fin.map(|()| r));
        }
        result
    }

    fn execute_with_params(
        &self,
        sql: &str,
        id: &StmtIdentity,
        params: &[Value],
    ) -> Result<StatementResult> {
        let engine = &*self.engine;
        // The statement's own start stamp; it also opens the observers'
        // begin region.
        let start_ns = engine.wall.now_nanos();
        let mut probes = Probes {
            // Query-interface sensor: wall-clock start + text hash.
            sensor: engine
                .monitor
                .as_ref()
                .map(|m| m.begin_statement(id.hash, sql, start_ns)),
            // Structured tracing: one atomic load when disabled, a
            // stage/span builder when enabled.
            trace: engine
                .tracer
                .as_ref()
                .filter(|t| t.enabled())
                .map(|_| TraceBuilder::new(engine.wall)),
        };

        // Wait-event accounting: publish this statement to the session's
        // ASH slot, give the cooperative sampler its tick, and bind the
        // session's wait sink to this thread so guards anywhere down the
        // stack (locks, WAL, buffer pool, retry) charge it.
        let mut wait_before = 0u64;
        let _wait_binding = self.ash.as_ref().map(|slot| {
            wait_before = slot.waits().total_ns();
            slot.begin_statement(id.hash, Arc::clone(&id.template), start_ns);
            if let Some(sampler) = &engine.ash {
                sampler.sample_if_due(start_ns);
            }
            bind_session(Arc::clone(slot.waits()))
        });
        if let Some(s) = probes.sensor.as_mut() {
            s.add_self_time(engine.wall.now_nanos() - start_ns);
        }

        let io_before = engine.io_stats();
        let outcome = self.execute_inner(sql, id, params, &mut probes);
        let io_pages = engine.io_stats().delta_since(&io_before).total();
        engine.statements_executed.fetch_add(1, Ordering::Relaxed);
        // The statement's own end stamp. Everything below is observer work,
        // charged to `monitor_ns` as one region that `Monitor::record`
        // closes with its single clock read.
        let end_ns = engine.wall.now_nanos();

        if let Some(slot) = &self.ash {
            if let Some(sampler) = &engine.ash {
                sampler.sample_if_due(end_ns);
            }
            slot.end_statement();
        }

        match outcome {
            Ok(mut result) => {
                result.actual_cost.io = io_pages as f64;
                result.wallclock_ns = end_ns - start_ns;
                if let Some(slot) = &self.ash {
                    result.wait_ns = slot.waits().total_ns().saturating_sub(wait_before);
                }
                // Hand the finished trace to the tracer before the monitor
                // records: the tracer's bookkeeping falls inside the record
                // region, so it lands in this statement's monitor_ns (Fig 5
                // stays honest).
                if let (Some(tracer), Some(tb)) = (&engine.tracer, probes.trace.take()) {
                    tracer.record_statement(tb.finish(id.hash, result.wallclock_ns));
                }
                if let (Some(monitor), Some(mut s)) = (&engine.monitor, probes.sensor.take()) {
                    s.executed(result.actual_cost.cpu as u64, io_pages);
                    monitor.record(s, end_ns, engine.sim_clock.now_secs());
                    // Periodic statistics sampling from within the engine.
                    if engine.statements_executed().is_multiple_of(64) {
                        engine.sample_statistics();
                    }
                }
                Ok(result)
            }
            Err(e) => {
                // Failed statements are not recorded (the paper logs executed
                // statements); a deadlock victim's or first-committer-wins
                // loser's transaction is aborted, classified by cause.
                if matches!(e, Error::Deadlock { .. } | Error::WriteConflict(_)) {
                    if let Some(txn) = self.txn.lock().take() {
                        *self.snap.lock() = None;
                        self.engine.abort_txn_with(txn, AbortCause::from_error(&e));
                    }
                }
                Err(e)
            }
        }
    }

    fn execute_inner(
        &self,
        sql: &str,
        id: &StmtIdentity,
        params: &[Value],
        probes: &mut Probes,
    ) -> Result<StatementResult> {
        let engine = &*self.engine;
        // Plan-cache probe *before* parsing: a hit executes the memoized
        // template without touching parser, binder or optimizer. The bare
        // engine probes too, so this is statement time, not monitor_ns.
        if engine.plan_cache.capacity() > 0 {
            let epoch = engine.catalog.read().epoch();
            if let Some(cached) = engine.plan_cache.probe(&id.template, epoch) {
                return self.run_planned(sql, id, &cached, params, PlanOrigin::default(), probes);
            }
        }
        let parse_t0 = self.engine.wall.now_nanos();
        let stmt = parse_statement(sql)?;
        probes.stage(Stage::Parse, self.engine.wall.now_nanos() - parse_t0);
        // Every declared marker needs a bound value (the textual path binds
        // none, so a raw `$1` fails up front instead of deep in execution).
        let expected = param_count(&stmt);
        if expected != params.len() {
            return Err(Error::param_arity(expected, params.len()));
        }
        // DDL and statistics collection change what the optimizer would
        // choose; drop every memoized plan once the statement succeeds.
        let invalidates_plans = matches!(
            &stmt,
            Statement::CreateTable { .. }
                | Statement::DropTable { .. }
                | Statement::CreateIndex { .. }
                | Statement::DropIndex { .. }
                | Statement::Modify { .. }
                | Statement::CreateStatistics { .. }
        );
        let result = match stmt {
            Statement::Explain {
                analyze: false,
                inner,
            } => self.run_explain(&inner),
            Statement::Explain {
                analyze: true,
                inner,
            } => self.run_explain_analyze(sql, id, &inner, params, probes),
            Statement::CreateTable {
                name,
                columns,
                primary_key,
            } => self.run_create_table(&name, &columns, &primary_key),
            Statement::DropTable { name } => {
                self.with_table_lock_by_name(&name, LockMode::Exclusive, |eng| {
                    eng.catalog.write().drop_table(&name)?;
                    Ok(StatementResult::default())
                })
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
            } => self.run_create_index(&name, &table, &columns, unique),
            Statement::DropIndex { name } => {
                self.engine.catalog.write().drop_index(&name)?;
                Ok(StatementResult::default())
            }
            Statement::Modify { table, to } => {
                let to: StorageStructure = to.parse()?;
                self.with_table_lock_by_name(&table, LockMode::Exclusive, |eng| {
                    let mut catalog = eng.catalog.write();
                    let id = catalog.resolve_table(&table)?;
                    catalog.modify_storage(id, to)?;
                    Ok(StatementResult::default())
                })
            }
            Statement::CreateStatistics { table, columns } => {
                let now_secs = self.engine.sim_clock.now_secs();
                // No table lock at all (PR 8): the histogram build scans the
                // table under a registered MVCC snapshot, so concurrent
                // writers proceed untouched and the collected counts are
                // still exact *for that snapshot*. DDL is fenced by the
                // catalog write guard the collection itself holds.
                let (txn, auto) = self.current_txn();
                let snap = self.statement_snapshot(txn, auto);
                let result = (|| {
                    let mut catalog = self.engine.catalog.write();
                    let id = catalog.resolve_table(&table)?;
                    let schema = catalog.table(id)?.meta.schema.clone();
                    let cols: Vec<usize> = columns
                        .iter()
                        .map(|c| {
                            schema
                                .index_of(c)
                                .ok_or_else(|| Error::binder(format!("unknown column '{c}'")))
                        })
                        .collect::<Result<_>>()?;
                    catalog.collect_statistics_snapshot(id, &cols, now_secs, &snap)?;
                    Ok(StatementResult::default())
                })();
                if auto {
                    let fin = self.finish_auto_txn(txn, result.as_ref().err());
                    result.and_then(|r| fin.map(|()| r))
                } else {
                    result
                }
            }
            Statement::Set { name, value } => self.set_option(&name, &value),
            dml => self.run_fresh(sql, id, &dml, params, probes),
        };
        if invalidates_plans && result.is_ok() {
            // Schema changes are redone from the log on recovery, so the
            // record is appended only once the DDL *succeeded* (a failed
            // statement must never replay) and is made durable before the
            // statement is acknowledged. Suppressed during replay itself.
            if !engine.wal.is_replaying() {
                let lsn = engine.wal.append(&WalRecord::Ddl {
                    sql: sql.to_owned(),
                })?;
                engine.wal.commit_barrier(lsn)?;
            }
            engine.plan_cache.invalidate_all();
        }
        result
    }

    /// `SET name = value`. `trace`/`tracing` flips runtime tracing; other
    /// knobs are accepted and ignored (compatibility with scripts). This is
    /// the target of both the SQL `SET` statement and the [`Connection`]
    /// trait's `set` verb, embedded or over the wire.
    pub fn set_option(&self, name: &str, value: &Value) -> Result<StatementResult> {
        if matches!(name.to_ascii_lowercase().as_str(), "trace" | "tracing") {
            let on = match value {
                Value::Bool(b) => *b,
                Value::Int(i) => *i != 0,
                Value::Str(s) => matches!(s.to_ascii_lowercase().as_str(), "on" | "true" | "1"),
                _ => return Err(Error::execution("SET trace expects a boolean")),
            };
            self.engine.set_tracing(on);
        }
        Ok(StatementResult::default())
    }

    fn run_explain(&self, inner: &Statement) -> Result<StatementResult> {
        let engine = &*self.engine;
        let catalog = engine.catalog.read();
        let (bound, _) = Binder::new(&catalog).bind(inner)?;
        let planned = optimize(&catalog, &bound, OptimizerOptions::default())?;
        let text = match &planned {
            PlannedStatement::Query(q) => q.root.to_string(),
            PlannedStatement::Insert { table, rows, est } => {
                let name = catalog.table(*table).map(|e| e.meta.name.clone())?;
                format!(
                    "Insert into {name}  ({} row(s), est {est})
",
                    rows.len()
                )
            }
            PlannedStatement::Update {
                table,
                sets,
                filter,
                est,
            } => {
                let name = catalog.table(*table).map(|e| e.meta.name.clone())?;
                format!(
                    "Update {name} [{} column(s){}]  (est {est})
",
                    sets.len(),
                    if filter.is_some() { ", filtered" } else { "" }
                )
            }
            PlannedStatement::Delete { table, filter, est } => {
                let name = catalog.table(*table).map(|e| e.meta.name.clone())?;
                format!(
                    "Delete from {name}{}  (est {est})
",
                    if filter.is_some() { " [filtered]" } else { "" }
                )
            }
        };
        Ok(StatementResult {
            rows: text
                .lines()
                .map(|l| Row::new(vec![Value::Str(l.to_owned())]))
                .collect(),
            columns: vec!["query plan".to_owned()],
            est_cost: planned.estimated_cost(),
            ..Default::default()
        })
    }

    fn run_create_table(
        &self,
        name: &str,
        columns: &[ColumnDef],
        primary_key: &[String],
    ) -> Result<StatementResult> {
        let cols: Vec<Column> = columns
            .iter()
            .map(|c| {
                if c.not_null {
                    Column::not_null(c.name.clone(), c.ty)
                } else {
                    Column::new(c.name.clone(), c.ty)
                }
            })
            .collect();
        let schema = Schema::new(cols);
        let pk: Vec<usize> = primary_key
            .iter()
            .map(|c| {
                schema
                    .index_of(c)
                    .ok_or_else(|| Error::binder(format!("unknown primary key column '{c}'")))
            })
            .collect::<Result<_>>()?;
        self.engine.catalog.write().create_table(name, schema, pk)?;
        Ok(StatementResult::default())
    }

    fn run_create_index(
        &self,
        name: &str,
        table: &str,
        columns: &[String],
        unique: bool,
    ) -> Result<StatementResult> {
        self.with_table_lock_by_name(table, LockMode::Exclusive, |eng| {
            let mut catalog = eng.catalog.write();
            let id = catalog.resolve_table(table)?;
            let schema = catalog.table(id)?.meta.schema.clone();
            let cols: Vec<usize> = columns
                .iter()
                .map(|c| {
                    schema
                        .index_of(c)
                        .ok_or_else(|| Error::binder(format!("unknown column '{c}'")))
                })
                .collect::<Result<_>>()?;
            catalog.create_index(name, id, cols, unique)?;
            Ok(StatementResult::default())
        })
    }

    /// Run a closure holding a logical lock on `table` (auto-commit scope).
    ///
    /// Lock-order discipline: the table lock is acquired *before* the closure
    /// opens the catalog write guard, matching DML (table locks, then
    /// snapshot/guard). Nothing holding the DDL guard ever takes table locks.
    fn with_table_lock_by_name<F>(
        &self,
        table: &str,
        mode: LockMode,
        f: F,
    ) -> Result<StatementResult>
    where
        F: FnOnce(&Engine) -> Result<StatementResult>,
    {
        let id = {
            let catalog = self.engine.catalog.read();
            // A yet-unknown table (CREATE) needs no lock.
            catalog.resolve_table(table).ok()
        };
        let (txn, auto) = self.current_txn();
        if let Some(id) = id {
            let locked = self.engine.locks.lock(txn, Resource::Table(id), mode);
            if let Err(e) = locked {
                if auto {
                    self.abort_auto_txn(txn, &e);
                }
                return Err(e);
            }
        }
        let out = f(&self.engine);
        if auto {
            let fin = self.finish_auto_txn(txn, out.as_ref().err());
            return out.and_then(|r| fin.map(|()| r));
        }
        out
    }

    fn current_txn(&self) -> (TxnId, bool) {
        match *self.txn.lock() {
            Some(t) => (t, false),
            None => (self.engine.txns.begin(), true),
        }
    }

    /// Close an auto-commit transaction: commit on success (`err` is
    /// `None`), abort classified by the statement's error otherwise. Commit
    /// goes through the WAL durability barrier; its error (a commit that
    /// cannot be acknowledged) must replace an otherwise-successful
    /// statement result.
    fn finish_auto_txn(&self, txn: TxnId, err: Option<&Error>) -> Result<()> {
        match err {
            None => self.engine.commit_txn(txn),
            Some(e) => {
                self.engine.abort_txn_with(txn, AbortCause::from_error(e));
                Ok(())
            }
        }
    }

    /// Abort an auto-commit transaction after a statement error.
    /// Infallible, so error paths cannot accidentally discard a commit
    /// failure the way `let _ = finish_auto_txn(…)` used to.
    fn abort_auto_txn(&self, txn: TxnId, e: &Error) {
        self.engine.abort_txn_with(txn, AbortCause::from_error(e));
    }

    /// The snapshot a statement of `txn` reads under: auto-commit statements
    /// take a fresh one, an explicit transaction takes one at its first
    /// statement and keeps it (snapshot isolation). Registered snapshots pin
    /// the version-chain GC watermark until the transaction retires.
    fn statement_snapshot(&self, txn: TxnId, auto: bool) -> Snapshot {
        if auto {
            return self.engine.txns.snapshot(txn);
        }
        let mut snap = self.snap.lock();
        *snap.get_or_insert_with(|| self.engine.txns.snapshot(txn))
    }

    /// Bind and optimize a statement under the catalog read lock, stamping
    /// the Bind/Optimize stage spans. Returns the plan in its cacheable form
    /// (template, bind artifacts, lock footprint, the schema epoch of the
    /// snapshot it was optimized under) plus what the optimizer cost:
    /// planning time and the pages read on its behalf (catalog statistics,
    /// what-if probes into virtual indexes — the statement's `opt_io`).
    fn bind_and_optimize(
        &self,
        stmt: &Statement,
        param_count: usize,
        probes: &mut Probes,
    ) -> Result<(Arc<CachedPlan>, (u64, u64))> {
        let engine = &*self.engine;
        let catalog = engine.catalog.read();

        let bind_t0 = engine.wall.now_nanos();
        let (bound, mut artifacts) = Binder::new(&catalog).bind(stmt)?;
        probes.stage(Stage::Bind, engine.wall.now_nanos() - bind_t0);

        let io_before = engine.io_stats().total();
        let t0 = engine.wall.now_nanos();
        let planned = optimize(&catalog, &bound, OptimizerOptions::default())?;
        let opt_ns = engine.wall.now_nanos() - t0;
        let opt_io = engine.io_stats().total().saturating_sub(io_before);
        probes.stage(Stage::Optimize, opt_ns);
        if engine.monitor.is_some() {
            let footprint = intern_footprint(&catalog, &artifacts, planned.used_indexes());
            artifacts.footprint = Some(Arc::new(footprint));
        }
        let plan = CachedPlan {
            planned,
            artifacts,
            lock_spec: lock_spec(&bound),
            epoch: catalog.epoch(),
            param_count,
        };
        Ok((Arc::new(plan), (opt_ns, opt_io)))
    }

    /// Plan-cache miss: bind, optimize and memoize the template, then run it
    /// through the shared tail.
    fn run_fresh(
        &self,
        sql: &str,
        id: &StmtIdentity,
        stmt: &Statement,
        params: &[Value],
        probes: &mut Probes,
    ) -> Result<StatementResult> {
        let engine = &*self.engine;
        let (plan, optimized) = self.bind_and_optimize(stmt, params.len(), probes)?;
        // Memoize the optimized template *before* parameter substitution so
        // the cached plan stays reusable for any future binding. Everything
        // reaching run_fresh is cacheable: DDL, SET and EXPLAIN dispatch
        // elsewhere, and execution plans never use virtual indexes.
        engine
            .plan_cache
            .insert(Arc::clone(&id.template), Arc::clone(&plan));
        let origin = PlanOrigin {
            optimized: Some(optimized),
            analyze: None,
        };
        self.run_planned(sql, id, &plan, params, origin, probes)
    }

    /// `EXPLAIN ANALYZE <stmt>`: plan the inner statement (never memoized)
    /// and run it through the shared tail, which collects operator spans
    /// regardless of runtime tracing and renders them in place of the
    /// statement's own rows.
    fn run_explain_analyze(
        &self,
        sql: &str,
        id: &StmtIdentity,
        inner: &Statement,
        params: &[Value],
        probes: &mut Probes,
    ) -> Result<StatementResult> {
        if matches!(inner, Statement::Explain { .. }) {
            return Err(Error::parse("EXPLAIN cannot be nested"));
        }
        // Wait baseline: everything this statement loses from here on —
        // lock acquisition included — shows up in the "Waits:" line.
        let waits_before = self.wait_totals();
        let (plan, optimized) = self.bind_and_optimize(inner, params.len(), probes)?;
        let origin = PlanOrigin {
            optimized: Some(optimized),
            analyze: Some(waits_before),
        };
        self.run_planned(sql, id, &plan, params, origin, probes)
    }

    /// The one tail every planned statement runs through — cache hit, miss
    /// or `EXPLAIN ANALYZE`: substitute the bound values, lock the recorded
    /// footprint, snapshot the catalog, feed the monitor's parse/optimize
    /// sensors from the bind artifacts, execute, stamp `Stage::Execute` and
    /// finish the auto-commit transaction.
    ///
    /// The catalog snapshot is taken *after* lock acquisition: the schema of
    /// every locked table is stable (DDL takes the same table locks), so the
    /// statement sees current indexes and structure without ever holding an
    /// engine-wide lock. A cached plan re-verifies its schema epoch under
    /// that snapshot; on a mismatch (DDL raced in between probe and locks)
    /// it falls back to the full parse path — a stale plan never executes.
    fn run_planned(
        &self,
        sql: &str,
        id: &StmtIdentity,
        plan: &CachedPlan,
        params: &[Value],
        origin: PlanOrigin,
        probes: &mut Probes,
    ) -> Result<StatementResult> {
        let engine = &*self.engine;
        if params.len() != plan.param_count {
            return Err(Error::param_arity(plan.param_count, params.len()));
        }
        let substituted;
        let planned = if params.is_empty() {
            &plan.planned
        } else {
            substituted = plan.planned.substitute_params(params)?;
            &substituted
        };

        let (txn, auto) = self.current_txn();
        if let Err(e) = self.acquire_locks(txn, &plan.lock_spec) {
            if auto {
                self.abort_auto_txn(txn, &e);
            }
            return Err(e);
        }
        let catalog = engine.catalog.read();
        if origin.optimized.is_none() && catalog.epoch() != plan.epoch {
            // The schema moved after the probe; nothing ran yet, so release
            // the speculative locks (auto-commit scope) and replan fresh.
            // The next probe of this template drops the stale entry.
            drop(catalog);
            if auto {
                self.finish_auto_txn(txn, None)?;
            }
            let stmt = parse_statement(sql)?;
            return self.run_fresh(sql, id, &stmt, params, probes);
        }

        // Parse and optimizer sensors, fed once per statement under the
        // already-held catalog guard: the live numbers go into the cells of
        // the template's interned footprint, the sensor takes a reference
        // to it. A cache hit spent nothing in the optimizer.
        if let Some(s) = probes.sensor.as_mut() {
            let feed_ns = engine.wall.now_nanos();
            if let Some(footprint) = &plan.artifacts.footprint {
                store_live_numbers(&catalog, footprint);
                s.parsed(Arc::clone(footprint));
            }
            let (opt_ns, opt_io) = origin.optimized.unwrap_or((0, 0));
            s.optimized(planned.estimated_cost(), opt_ns, opt_io);
            s.add_self_time(engine.wall.now_nanos() - feed_ns);
        }

        // DML versions are marked with `txn` and observed by its WAL/undo
        // recorder; EXPLAIN ANALYZE executes DML for real, so its mutations
        // are observed like any other statement's.
        let observer = WalDmlObserver {
            engine,
            catalog: &catalog,
            txn,
        };
        let ctx = observer.exec_ctx(
            self.statement_snapshot(txn, auto),
            auto,
            (origin.analyze.is_some() || probes.trace.is_some()).then_some(engine.wall),
        );
        let exec_t0 = engine.wall.now_nanos();
        let exec_result = execute(&catalog, planned, &ctx);
        let exec_ns = engine.wall.now_nanos() - exec_t0;
        drop(catalog);
        probes.stage(Stage::Execute, exec_ns);
        let exec_result = if auto {
            let fin = self.finish_auto_txn(txn, exec_result.as_ref().err());
            exec_result.and_then(|r| fin.map(|()| r))
        } else {
            exec_result
        };
        let (outcome, spans) = exec_result?;

        let mut result = StatementResult {
            rows: outcome.rows,
            affected: outcome.affected,
            est_cost: planned.estimated_cost(),
            actual_cost: Cost::cpu(outcome.tuples as f64),
            ..Default::default()
        };
        if let Some(waits_before) = origin.analyze {
            let text = self.render_analysis(
                &spans,
                outcome.tuples,
                outcome.affected,
                exec_ns,
                &waits_before,
            );
            result.rows = text
                .lines()
                .map(|l| Row::new(vec![Value::Str(l.to_owned())]))
                .collect();
            result.columns = vec!["query plan".to_owned()];
            // With tracing on, the spans ride the statement trace recorded
            // by `execute_with_params`; otherwise merge them into the
            // aggregates directly (keyed by the *outer* statement text, so
            // they join against `ima$statements`).
            if let (None, Some(tracer)) = (&probes.trace, &engine.tracer) {
                let dt = tracer.record_operators(id.hash, &spans);
                probes.add_self_time(dt);
            }
        } else if let PlannedStatement::Query(q) = planned {
            result.columns = q.output_names.clone();
        }
        if let Some(tb) = probes.trace.as_mut() {
            tb.set_ops(spans);
        }
        Ok(result)
    }

    /// The `EXPLAIN ANALYZE` text: the annotated operator tree, the
    /// execution summary and — when the wait subsystem is on and the
    /// statement lost any time — the per-event wait breakdown.
    fn render_analysis(
        &self,
        spans: &[OperatorSpan],
        tuples: u64,
        affected: u64,
        exec_ns: u64,
        waits_before: &[WaitTotal],
    ) -> String {
        let mut text = render_operator_tree(spans);
        text.push_str(&format!(
            "Execution: {} tuple(s) processed, {} row(s) affected, {:.3} ms\n",
            tuples,
            affected,
            exec_ns as f64 / 1e6
        ));
        let mut parts = Vec::new();
        let mut total_ns = 0u64;
        for (b, a) in waits_before.iter().zip(self.wait_totals()) {
            let dns = a.total_ns.saturating_sub(b.total_ns);
            if dns > 0 {
                total_ns = total_ns.saturating_add(dns);
                parts.push(format!("{} {:.3} ms", a.event, dns as f64 / 1e6));
            }
        }
        if total_ns > 0 {
            text.push_str(&format!(
                "Waits: {:.3} ms total ({})\n",
                total_ns as f64 / 1e6,
                parts.join(", ")
            ));
        }
        text
    }

    fn acquire_locks(&self, txn: TxnId, spec: &[(TableId, bool)]) -> Result<()> {
        for (table, exclusive) in spec {
            let mode = if *exclusive {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            self.engine.locks.lock(txn, Resource::Table(*table), mode)?;
        }
        Ok(())
    }
}

/// The table-lock footprint of a bound statement, `(table, exclusive)`.
/// Stored verbatim in cached plans so a hit locks exactly what a fresh plan
/// would.
///
/// Under row-level MVCC (PR 8) this footprint is deliberately thin: queries
/// take *no* locks at all (they read a registered snapshot), and DML takes
/// only a table-**shared** lock on its one target — a DDL fence, compatible
/// with every other reader and writer. Actual write-write isolation comes
/// from the row-exclusive chain-root locks the executor takes per target
/// row; table exclusive locks remain the preserve of DDL
/// ([`Session::with_table_lock_by_name`]).
fn lock_spec(bound: &BoundStatement) -> Vec<(TableId, bool)> {
    match bound {
        BoundStatement::Select(_) => Vec::new(),
        BoundStatement::Insert { table, .. }
        | BoundStatement::Update { table, .. }
        | BoundStatement::Delete { table, .. } => vec![(*table, false)],
    }
}

/// A prepared statement: the text is validated once by [`Session::prepare`],
/// then executed any number of times with different parameter bindings. The
/// optimized plan lives in the engine-wide plan cache, so repeated
/// executions (from this handle or any session running the same template)
/// skip parse/bind/optimize entirely.
///
/// ```
/// # use ingot_common::{EngineConfig, Value};
/// # use ingot_core::Engine;
/// # let engine = Engine::builder().config(EngineConfig::monitoring()).build().unwrap();
/// # let session = engine.open_session();
/// # session.execute("create table t (a int not null primary key, b int)").unwrap();
/// let insert = session.prepare("insert into t values ($1, $2)").unwrap();
/// for i in 0..10 {
///     insert.execute(&[Value::Int(i), Value::Int(i * 2)]).unwrap();
/// }
/// let point = session.prepare("select b from t where a = $1").unwrap();
/// let row = point.execute(&[Value::Int(7)]).unwrap();
/// assert_eq!(row.rows[0].get(0), &Value::Int(14));
/// ```
pub struct Prepared<'a> {
    session: &'a Session,
    text: String,
    identity: StmtIdentity,
    param_count: usize,
}

impl Prepared<'_> {
    /// The statement text this handle was prepared from.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Number of parameter markers the statement declares.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Execute with `params` bound positionally (`$1` ↔ `params[0]`). The
    /// value count must match [`param_count`](Self::param_count) exactly.
    pub fn execute(&self, params: &[Value]) -> Result<StatementResult> {
        if params.len() != self.param_count {
            return Err(Error::param_arity(self.param_count, params.len()));
        }
        self.session
            .execute_with_params(&self.text, &self.identity, params)
    }
}

// The embedded half of the unified surface: a `Session` *is* a
// `Connection`, so shells, examples and bench harnesses written against
// `&dyn Connection` run in-process without an adapter. (The remote half is
// `ingot_client::ClientConnection`.)
impl Connection for Session {
    fn execute(&self, sql: &str) -> Result<StatementResult> {
        Session::execute(self, sql)
    }

    fn prepare(&self, sql: &str) -> Result<Box<dyn PreparedStatement + '_>> {
        Ok(Box::new(Session::prepare(self, sql)?))
    }

    fn set(&self, name: &str, value: &Value) -> Result<()> {
        self.set_option(name, value).map(|_| ())
    }

    fn begin(&self) -> Result<()> {
        Session::begin(self)
    }

    fn commit(&self) -> Result<()> {
        Session::commit(self)
    }

    fn rollback(&self) -> Result<()> {
        Session::rollback(self)
    }
}

impl PreparedStatement for Prepared<'_> {
    fn param_count(&self) -> usize {
        Prepared::param_count(self)
    }

    fn execute(&self, params: &[Value]) -> Result<StatementResult> {
        Prepared::execute(self, params)
    }
}

/// Intern a freshly planned template's reference footprint for the monitor:
/// ids, names, storage tags and histogram flags of what the binder resolved
/// plus the indexes the chosen plan uses. All data comes from the
/// already-held catalog guard ("no further access to the catalogs is
/// required for the monitoring"); provider-backed tables have no storage to
/// report and contribute their attributes only.
fn intern_footprint(catalog: &Catalog, artifacts: &BindArtifacts, used: &[IndexId]) -> Footprint {
    Footprint {
        tables: artifacts
            .tables
            .iter()
            .filter_map(|(id, name)| {
                catalog.table(*id).ok().map(|entry| TableRef {
                    id: *id,
                    name: Arc::clone(name),
                    storage: entry.meta.storage.as_str(),
                    data_pages: AtomicU64::new(0),
                    overflow_pages: AtomicU64::new(0),
                    rows: AtomicU64::new(0),
                })
            })
            .collect(),
        attributes: artifacts
            .attributes
            .iter()
            .filter_map(|&(table, column)| {
                let schema = match catalog.table(table) {
                    Ok(entry) => &entry.meta.schema,
                    Err(_) => &catalog.virtual_table(table)?.schema,
                };
                Some(AttributeRef {
                    table,
                    column,
                    schema: schema.clone(),
                    has_histogram: artifacts.histograms.contains(&(table, column)),
                })
            })
            .collect(),
        used_indexes: used
            .iter()
            .filter_map(|id| {
                catalog.index(*id).ok().map(|e| IndexRef {
                    id: *id,
                    name: Arc::clone(&e.meta.name),
                    table: e.meta.table,
                    pages: AtomicU64::new(0),
                })
            })
            .collect(),
    }
}

/// The per-execution half of the parse/optimize sensor feed: the numbers
/// that move between executions of one template, read off the objects the
/// statement is about to touch ("logged right at its source").
fn store_live_numbers(catalog: &Catalog, footprint: &Footprint) {
    for t in &footprint.tables {
        if let Ok(entry) = catalog.table(t.id) {
            let hs = entry.heap.stats();
            t.data_pages.store(hs.main_pages, Ordering::Relaxed);
            t.overflow_pages.store(hs.overflow_pages, Ordering::Relaxed);
            t.rows.store(hs.rows, Ordering::Relaxed);
        }
    }
    for i in &footprint.used_indexes {
        if let Ok(entry) = catalog.index(i.id) {
            i.pages.store(entry.pages(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(e.sessions().current(), 2);
            e.sample_statistics();
        }
        assert_eq!(e.sessions().current(), 1);
        assert_eq!(e.sessions().peak(), 2);
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
        let e = Engine::builder()
            .config(EngineConfig::monitoring())
            .plan_cache_capacity(0)
            .build()
            .unwrap();
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
            text.contains("# TYPE ingot_statements_executed_total counter"),
            "{text}"
        );
        assert!(
            text.contains("ingot_buffer_pool_requests_total{outcome=\"hit\"}"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE ingot_statement_latency_ns histogram"),
            "{text}"
        );
        assert!(text.contains("le=\"+Inf\""), "{text}");
        assert!(text.contains("ingot_monitor_self_time_ns_total"), "{text}");
        assert!(text.contains("ingot_trace_enabled 1"), "{text}");
    }
}
