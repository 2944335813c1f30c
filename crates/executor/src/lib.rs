#![forbid(unsafe_code)]
//! The executor: interprets physical plans and accounts actual costs.
//!
//! Execution counts every tuple it touches; the engine wraps each statement
//! with a buffer-pool I/O snapshot, so together they yield the *actual* CPU
//! and disk-I/O cost that the monitor's execution sensor records (Fig 2,
//! "Actual Costs") — the quantity the analyzer compares with the optimizer's
//! estimate to detect stale statistics.

pub mod aggregate;
pub mod dml;
pub mod exec;
mod scan;

pub use dml::{execute, DmlObserver, ExecCtx, ExecOutcome, NoopObserver};
pub use exec::{execute_plan_snapshot, QueryResult};
