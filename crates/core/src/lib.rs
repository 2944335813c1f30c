#![forbid(unsafe_code)]
//! The Ingot engine with **integrated performance monitoring** — the primary
//! contribution of *An Integrated Approach to Performance Monitoring for
//! Autonomous Tuning* (Thiem & Sattler, ICDE 2009), rebuilt in Rust.
//!
//! The crate wires the substrates (storage, catalog, SQL front end, planner,
//! executor, lock manager) into an [`engine::Engine`] whose statement path
//! carries *local sensors* at every stage of Fig 2:
//!
//! ```text
//! Query Interface → Parser → Optimiser → Execution → Result
//!   wallclock start  text+hash  est. costs   actual     wallclock stop
//!                    references used indexes costs
//! ```
//!
//! Sensor data lands in in-memory ring buffers ([`monitor::Monitor`], the
//! Fig 3 schema) which are registered as virtual SQL tables (`ima$…`) through
//! [`ima`] — the analogue of the Ingres Management Architecture: "with IMA it
//! is possible to easily access in-memory structures within the DBMS over
//! standard SQL".
//!
//! Monitoring is a per-instance switch ([`ingot_common::EngineConfig`]): the
//! paper's three evaluation setups are `EngineConfig::original()` (sensors
//! absent), `EngineConfig::monitoring()` (sensors active), and the latter
//! plus the storage daemon from `ingot-daemon`.

pub mod ash;
pub mod engine;
pub mod ima;
pub mod monitor;

pub use ash::{ActiveSession, AshSample, AshSampler, CurrentStatement, ON_CPU};
pub use engine::{Engine, EngineBuilder, Prepared, Session, StatementResult};
pub use ima::{
    ConnectionRow, DaemonHealthRow, TableShape, COPIED_TABLES, IMA_CONNECTIONS, IMA_DAEMON_HEALTH,
    IMA_SERVER, IMA_TABLE_NAMES,
};
pub use ingot_planner::{PlanCache, PlanCacheStats};
pub use ingot_trace::{MetricsSnapshot, Tracer};
pub use monitor::{Copied, Monitor, MonitorHealth, Record, StatementSensor};
