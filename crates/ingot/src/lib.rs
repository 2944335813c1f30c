#![forbid(unsafe_code)]
//! # Ingot — integrated performance monitoring for autonomous tuning
//!
//! Umbrella crate re-exporting the whole system: a from-scratch relational
//! engine (storage, catalog, SQL, optimizer, executor, locking) whose core
//! carries the integrated monitoring of Thiem & Sattler's ICDE 2009 paper,
//! plus the storage daemon, the analyzer, and the NREF-like evaluation
//! workload.
//!
//! ```
//! use ingot::prelude::*;
//!
//! let engine = Engine::builder().config(EngineConfig::monitoring()).build().unwrap();
//! let session = engine.open_session();
//! session.execute("create table t (id int not null primary key, v int)").unwrap();
//! session.execute("insert into t values (1, 10), (2, 20)").unwrap();
//! let r = session.execute("select v from t where id = 2").unwrap();
//! assert_eq!(r.rows[0].get(0).as_int(), Some(20));
//! // Every statement was recorded by the integrated monitor:
//! let recorded = session.execute("select count(*) from ima$workload").unwrap();
//! assert!(recorded.rows[0].get(0).as_int().unwrap() >= 3);
//! ```

pub use ingot_analyzer as analyzer;
pub use ingot_catalog as catalog;
pub use ingot_client as client;
pub use ingot_common as common;
pub use ingot_core as core;
pub use ingot_daemon as daemon;
pub use ingot_executor as executor;
pub use ingot_planner as planner;
pub use ingot_server as server;
pub use ingot_sql as sql;
pub use ingot_storage as storage;
pub use ingot_trace as trace;
pub use ingot_txn as txn;
pub use ingot_workload as workload;

/// The types most applications need.
pub mod prelude {
    pub use ingot_analyzer::{Analyzer, AnalyzerConfig, Recommendation, WorkloadView};
    pub use ingot_client::{connect_or_spawn, ClientConnection, SpawnOptions};
    pub use ingot_common::{
        Connection, Cost, EngineConfig, Error, PreparedStatement, Result, Row, SimClock,
        SocketSpec, Value,
    };
    pub use ingot_core::{
        Engine, EngineBuilder, MetricsSnapshot, Monitor, PlanCacheStats, Prepared, Session,
        StatementResult, Tracer,
    };
    pub use ingot_daemon::{
        Alert, AlertRule, DaemonConfig, DaemonHealth, HealthState, StorageDaemon, WorkloadDb,
    };
    pub use ingot_server::{Server, ServerConfig};
    pub use ingot_storage::{FaultInjectingBackend, FaultPlan, MemoryBackend};
    pub use ingot_workload::{analytic_queries, load_nref, NrefConfig};
}
