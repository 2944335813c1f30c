#![forbid(unsafe_code)]
//! Shared foundation types for the Ingot DBMS.
//!
//! This crate contains the vocabulary used by every other subsystem: SQL
//! [`Value`]s and their [`DataType`]s, [`Row`]s and [`Schema`]s, object
//! identifiers, the unified [`Error`] type, cost units, statement hashing and
//! clock utilities.
//!
//! The engine reproduces the system described in *An Integrated Approach to
//! Performance Monitoring for Autonomous Tuning* (Thiem & Sattler, ICDE 2009);
//! these types are deliberately simple so that the monitoring sensors added in
//! `ingot-core` can log them "right at their source" without any extra
//! catalog or disk access, as the paper requires.

pub mod clock;
pub mod config;
pub mod conn;
pub mod cost;
pub mod error;
pub mod hash;
pub mod ids;
pub mod mvcc;
pub mod net;
pub mod ring;
pub mod rng;
pub mod row;
pub mod value;
pub mod waits;
pub mod wire;

pub use clock::{MonotonicClock, SimClock};
pub use config::{EngineConfig, WalFsyncMode};
pub use conn::{Connection, PreparedStatement, StatementResult};
pub use cost::Cost;
pub use error::{Error, Result};
pub use hash::{fnv1a64, StmtHash};
pub use ids::{AttrId, DatabaseId, IndexId, PageId, SessionId, TableId, TxnId};
pub use mvcc::Snapshot;
pub use net::{SocketSpec, Stream};
pub use ring::RingBuffer;
pub use rng::SplitMix64;
pub use row::{Column, ColumnSet, Row, Schema};
pub use value::{DataType, Value};
pub use waits::{
    bind_session, SessionBinding, SessionWaits, WaitCounters, WaitEvent, WaitGuard, WaitRegistry,
    WaitRegistryHandle, WaitTotal, WAIT_EVENT_COUNT,
};
pub use wire::{
    Request, Response, WireCodeEntry, WireError, MAX_FRAME_BYTES, PROTOCOL_VERSION, WIRE_CODE_TABLE,
};
