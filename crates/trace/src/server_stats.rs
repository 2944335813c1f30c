//! Wire-server counters, served as the `ima$server` table.
//!
//! `ingot-server` charges one [`ServerStats`] per process: connection churn,
//! frame and byte traffic, statements served and error/reap counts. The
//! struct lives here, below both the engine and the server, so the engine
//! core can define its `ima$server` record (`ingot_core::ima`) and the
//! server can attach that record and render it into its
//! [`MetricsSnapshot`](crate::MetricsSnapshot) like any other `ima$` table.

use std::sync::atomic::AtomicU64;

/// Monotonic counters describing one server process's wire traffic.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted (including ones later rejected at handshake).
    pub connections_opened: AtomicU64,
    /// Connections fully torn down.
    pub connections_closed: AtomicU64,
    /// Connections force-closed by the orphan reaper (heartbeat expiry).
    pub connections_reaped: AtomicU64,
    /// Request frames read.
    pub frames_in: AtomicU64,
    /// Response frames written.
    pub frames_out: AtomicU64,
    /// Request payload bytes read (frame bodies, excluding length prefixes).
    pub bytes_in: AtomicU64,
    /// Response payload bytes written.
    pub bytes_out: AtomicU64,
    /// Statements executed on behalf of wire clients.
    pub statements_served: AtomicU64,
    /// Error responses sent.
    pub errors_sent: AtomicU64,
    /// Heartbeat frames answered.
    pub heartbeats: AtomicU64,
}

impl ServerStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }
}
