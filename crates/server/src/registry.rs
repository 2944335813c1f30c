//! The wire-connection fleet registry behind `ima$connections`.
//!
//! One [`ConnShared`] per live connection, written by the handler thread and
//! read by the reaper (heartbeat expiry) and the `ima$connections` provider.
//! Everything the provider reads is atomic, set once, or behind its own
//! short mutex — a fleet snapshot never blocks the statement path, and a
//! statement takes one lock (its text, an `Arc` made at prepare) to show.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use ingot_common::MonotonicClock;
use ingot_core::{ActiveSession, ConnectionRow};
use parking_lot::Mutex;

use crate::socket::Stream;

/// Lifecycle state reported in `ima$connections.state`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ConnState {
    /// Accepted, `hello` not yet completed.
    Handshake,
    /// Between statements, no open transaction.
    Idle,
    /// A statement is executing right now.
    Active,
    /// Between statements inside an explicit transaction.
    IdleInTxn,
    /// Server is draining; the connection is finishing up.
    Draining,
}

impl ConnState {
    /// The SQL-visible state label.
    pub fn as_str(self) -> &'static str {
        match self {
            ConnState::Handshake => "handshake",
            ConnState::Idle => "idle",
            ConnState::Active => "active",
            ConnState::IdleInTxn => "idle_in_txn",
            ConnState::Draining => "draining",
        }
    }

    const ALL: [ConnState; 5] = [
        ConnState::Handshake,
        ConnState::Idle,
        ConnState::Active,
        ConnState::IdleInTxn,
        ConnState::Draining,
    ];
}

/// Per-connection record shared between handler, reaper and IMA provider.
#[derive(Debug)]
pub struct ConnShared {
    /// Registry key (not the engine session id).
    pub conn_id: u64,
    /// Transport peer label (`unix` or the TCP peer address).
    pub peer: String,
    /// Arrived over the Unix-domain listener (filesystem permissions gate
    /// those peers; admin verbs like `Shutdown` trust them by default).
    pub via_unix: bool,
    /// Client self-identification from `hello`.
    pub client: OnceLock<String>,
    /// Engine session id (0 until the handshake opens the session).
    pub session_id: AtomicU64,
    /// Current lifecycle state, a [`ConnState`] discriminant; see
    /// [`state`](Self::state) / [`set_state`](Self::set_state).
    state: AtomicU8,
    /// Statement currently executing (raw text), `None` when idle.
    pub current_sql: Mutex<Option<Arc<str>>>,
    /// Last frame observed from the peer, wall-clock nanoseconds.
    pub last_activity_ns: AtomicU64,
    /// When the open explicit transaction began; 0 = no transaction.
    pub txn_since_ns: AtomicU64,
    /// Raised by the reaper (heartbeat expiry) or the drain deadline; the
    /// handler abandons the connection at the next flag check.
    pub kill: AtomicBool,
    /// OS-handle clone used to shutdown a handler blocked in `read`.
    pub stream: Mutex<Option<Stream>>,
    /// The engine session's ASH slot (wait sink); fills `wait_event`.
    pub ash: OnceLock<Arc<ActiveSession>>,
}

impl ConnShared {
    /// Current lifecycle state.
    pub fn state(&self) -> ConnState {
        ConnState::ALL[usize::from(self.state.load(Ordering::Relaxed))]
    }

    /// Move to `state`.
    pub fn set_state(&self, state: ConnState) {
        self.state.store(state as u8, Ordering::Relaxed);
    }

    /// Mark peer traffic now (any frame counts as a heartbeat).
    pub fn touch(&self, now_ns: u64) {
        self.last_activity_ns.store(now_ns, Ordering::Relaxed);
    }

    /// Request an out-of-band close: flag + socket shutdown so a blocked
    /// `read` returns immediately.
    pub fn kill_now(&self) {
        self.kill.store(true, Ordering::Relaxed);
        if let Some(s) = self.stream.lock().as_ref() {
            s.shutdown();
        }
    }
}

/// All live connections of one server.
pub struct ConnRegistry {
    clock: MonotonicClock,
    conns: Mutex<HashMap<u64, Arc<ConnShared>>>,
    next_id: AtomicU64,
    /// Last instant the fleet was non-empty (or the server started); the
    /// idle auto-shutdown clock measures from here.
    last_nonempty_ns: AtomicU64,
}

impl ConnRegistry {
    /// Empty registry reading `clock`.
    pub fn new(clock: MonotonicClock) -> Self {
        let now = clock.now_nanos();
        ConnRegistry {
            clock,
            conns: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            last_nonempty_ns: AtomicU64::new(now),
        }
    }

    /// The registry's wall clock (shared with the engine).
    pub fn clock(&self) -> &MonotonicClock {
        &self.clock
    }

    /// Admit a freshly accepted connection.
    pub fn register(&self, peer: String, via_unix: bool, stream: Stream) -> Arc<ConnShared> {
        let now = self.clock.now_nanos();
        let shared = Arc::new(ConnShared {
            conn_id: self.next_id.fetch_add(1, Ordering::Relaxed),
            peer,
            via_unix,
            client: OnceLock::new(),
            session_id: AtomicU64::new(0),
            state: AtomicU8::new(ConnState::Handshake as u8),
            current_sql: Mutex::new(None),
            last_activity_ns: AtomicU64::new(now),
            txn_since_ns: AtomicU64::new(0),
            kill: AtomicBool::new(false),
            stream: Mutex::new(Some(stream)),
            ash: OnceLock::new(),
        });
        self.conns
            .lock()
            .insert(shared.conn_id, Arc::clone(&shared));
        self.last_nonempty_ns.store(now, Ordering::Relaxed);
        shared
    }

    /// Remove a fully torn-down connection. The fleet was non-empty until
    /// this very moment, so the idle clock restarts here either way.
    pub fn deregister(&self, conn_id: u64) {
        let mut conns = self.conns.lock();
        conns.remove(&conn_id);
        self.last_nonempty_ns
            .store(self.clock.now_nanos(), Ordering::Relaxed);
    }

    /// Live connection count.
    pub fn len(&self) -> usize {
        self.conns.lock().len()
    }

    /// Is the fleet empty?
    pub fn is_empty(&self) -> bool {
        self.conns.lock().is_empty()
    }

    /// Snapshot of every live connection (reaper, drain sweep).
    pub fn snapshot(&self) -> Vec<Arc<ConnShared>> {
        self.conns.lock().values().cloned().collect()
    }

    /// Nanoseconds the fleet has been continuously empty (0 when occupied).
    pub fn idle_ns(&self) -> u64 {
        if !self.is_empty() {
            return 0;
        }
        self.clock
            .now_nanos()
            .saturating_sub(self.last_nonempty_ns.load(Ordering::Relaxed))
    }

    /// The `ima$connections` rows, in connection order.
    pub fn connections(&self) -> Vec<ConnectionRow> {
        let now = self.clock.now_nanos();
        let mut out: Vec<(u64, ConnectionRow)> = self
            .conns
            .lock()
            .values()
            .map(|c| {
                let txn_since = c.txn_since_ns.load(Ordering::Relaxed);
                let row = ConnectionRow {
                    session: c.session_id.load(Ordering::Relaxed),
                    peer: c.peer.clone(),
                    client: c.client.get().cloned().unwrap_or_default(),
                    state: c.state().as_str(),
                    statement: c.current_sql.lock().as_ref().map(|s| s.to_string()),
                    wait_event: c
                        .ash
                        .get()
                        .and_then(|slot| slot.waits().current_wait())
                        .map(|(e, _)| e.name()),
                    idle_ms: now.saturating_sub(c.last_activity_ns.load(Ordering::Relaxed))
                        / 1_000_000,
                    txn_age_ms: if txn_since == 0 {
                        -1
                    } else {
                        (now.saturating_sub(txn_since) / 1_000_000) as i64
                    },
                };
                (c.conn_id, row)
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out.into_iter().map(|(_, row)| row).collect()
    }
}
