//! Construction: [`EngineBuilder`] picks the storage backing and validates
//! the configuration, `with_storage` wires the subsystems and registers every
//! `ima$…` table of the configuration, and `build` runs crash recovery.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use ingot_catalog::{Catalog, SharedCatalog};
use ingot_common::waits::WaitRegistry;
use ingot_common::{EngineConfig, Error, MonotonicClock, Result, SimClock, WalFsyncMode};
use ingot_planner::PlanCache;
use ingot_storage::{StorageEngine, Wal};
use ingot_trace::{TraceConfig, Tracer};
use ingot_txn::{LockManager, TxnManager};
use parking_lot::Mutex;

use super::{Engine, SessionCounters};
use crate::ash::{AshSample, AshSampler};
use crate::ima::{
    latency_buckets, observer_health, provider, serve, serve_attached, transaction_metrics,
};
use crate::monitor::{Monitor, Record};

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
///     .config(EngineConfig::monitoring().with_plan_cache_capacity(64))
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
            // Crash recovery, part 1: open the WAL, salvaging its valid
            // prefix and truncating any torn tail; opening the page store
            // finishes the last checkpoint it staged and cuts each file to
            // its checkpointed length. Part 2 — replaying committed
            // transactions on top of the checkpoint image — runs below,
            // once an engine exists to re-execute replayed DDL.
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
    /// path: storage backing and clock sharing are expressed on it, sizing
    /// (plan cache included) on its [`EngineConfig`], and
    /// [`EngineBuilder::build`] returns the instance.
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
        // tables, under the ids they had.
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
        let c = &mut catalog;
        if let (Some(m), Some(t)) = (&monitor, &tracer) {
            // Every `ima$` table the engine serves itself, in registration
            // order (`IMA_TABLE_NAMES`).
            serve(c, m, Monitor::statements)?;
            serve(c, m, Monitor::workload)?;
            serve(c, m, Monitor::references)?;
            serve(c, m, Monitor::tables)?;
            serve(c, m, Monitor::indexes)?;
            serve(c, m, Monitor::attributes)?;
            serve(c, m, Monitor::statistics)?;
            let (a, tr) = (ash.clone(), Arc::clone(t));
            serve(c, m, move |m| vec![observer_health(m, &a, &tr)])?;
            serve(c, &locks, LockManager::snapshot_locks)?;
            let (tx, lk) = (Arc::clone(&txns), Arc::clone(&locks));
            serve(c, &sessions, move |s| {
                vec![(s.current(), s.peak(), tx.active_count(), lk.stats())]
            })?;
            serve(c, &txns, transaction_metrics)?;
            serve(c, &plan_cache, |p| vec![p.stats()])?;
            serve(c, &wal, |w| vec![(w.mode(), w.stats())])?;
            if let (Some(registry), Some(sampler)) = (&waits, &ash) {
                serve(c, registry, WaitRegistry::snapshot)?;
                let live = Arc::clone(sampler);
                let rows = provider(move || live.active_snapshot());
                c.register_virtual_table("ima$active_sessions", AshSample::schema(), rows)?;
                serve(c, sampler, AshSampler::history)?;
            }
            serve(c, t, Tracer::operator_stats)?;
            serve(c, t, latency_buckets)?;
        }
        // Then the tables filled outside the engine, empty until attached:
        // a daemon's on every engine, a server's on a monitored one.
        let attached = Arc::default();
        serve_attached::<crate::DaemonHealthRow>(c, &attached)?;
        if monitor.is_some() {
            serve_attached::<crate::ConnectionRow>(c, &attached)?;
            serve_attached::<Arc<ingot_trace::ServerStats>>(c, &attached)?;
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
            attached,
        }))
    }
}
