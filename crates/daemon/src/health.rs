//! The daemon's health-state machine and its counters.
//!
//! ```text
//!              failed poll             8 consecutive failed polls
//!   Healthy ─────────────▶ Degraded ─────────────────────────▶ Quarantined
//!      ▲                      │                                    ▲
//!      └──────────────────────┘                                    │
//!   successful poll: a dead log                  from Healthy or Degraded:
//!   reopened, buffered snapshots                 a permanent error with
//!   replayed                                     nothing to reopen
//! ```
//!
//! * **Healthy** — polls append to the workload DB normally.
//! * **Degraded** — a poll failed; snapshot timestamps are buffered
//!   (bounded by the catch-up window). The next poll reopens the workload
//!   DB's directory if its log died, then replays the buffer in order, so
//!   an outage that heals loses no monitor data.
//! * **Quarantined** — the workload DB failed permanently with no directory
//!   to reopen (or kept failing past the threshold, reopens included);
//!   appends stop, snapshots are counted as dropped, and a self-alert is
//!   raised. Monitoring itself (ring buffers, alert evaluation) continues —
//!   graceful degradation, not shutdown.
//!
//! Counters are exported through the `ima$daemon_health` virtual table.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};

use ingot_core::DaemonHealthRow;
use parking_lot::Mutex;

/// Daemon health states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Appends succeed.
    Healthy,
    /// A poll failed; buffering snapshots for catch-up.
    Degraded,
    /// Failed for good; appends suspended.
    Quarantined,
}

impl HealthState {
    fn from_u8(v: u8) -> HealthState {
        match v {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            _ => HealthState::Quarantined,
        }
    }

    /// Lower-case name, as shown in `ima$daemon_health.state`.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
        }
    }
}

/// Shared, lock-free health counters (the `ima$daemon_health` row source).
pub struct DaemonHealth {
    state: AtomicU8,
    polls: AtomicU64,
    failed_polls: AtomicU64,
    consecutive_failures: AtomicU64,
    reopens: AtomicU64,
    buffered_snapshots: AtomicU64,
    recovered_snapshots: AtomicU64,
    dropped_snapshots: AtomicU64,
    /// Sim-clock seconds when the daemon left Healthy; -1 while healthy.
    degraded_since_secs: AtomicI64,
    last_error: Mutex<Option<String>>,
}

impl Default for DaemonHealth {
    fn default() -> Self {
        DaemonHealth {
            state: AtomicU8::new(0),
            polls: AtomicU64::new(0),
            failed_polls: AtomicU64::new(0),
            consecutive_failures: AtomicU64::new(0),
            reopens: AtomicU64::new(0),
            buffered_snapshots: AtomicU64::new(0),
            recovered_snapshots: AtomicU64::new(0),
            dropped_snapshots: AtomicU64::new(0),
            // A daemon that has never degraded reports -1, not epoch 0.
            degraded_since_secs: AtomicI64::new(-1),
            last_error: Mutex::new(None),
        }
    }
}

impl DaemonHealth {
    /// Current state.
    pub fn state(&self) -> HealthState {
        HealthState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Transition into `state`, tracking when Healthy was left.
    pub fn set_state(&self, state: HealthState, now_secs: u64) {
        let prev = self.state.swap(
            match state {
                HealthState::Healthy => 0,
                HealthState::Degraded => 1,
                HealthState::Quarantined => 2,
            },
            Ordering::Relaxed,
        );
        match (HealthState::from_u8(prev), state) {
            (HealthState::Healthy, HealthState::Healthy) => {}
            (HealthState::Healthy, _) => {
                self.degraded_since_secs
                    .store(now_secs as i64, Ordering::Relaxed);
            }
            (_, HealthState::Healthy) => {
                self.degraded_since_secs.store(-1, Ordering::Relaxed);
                self.consecutive_failures.store(0, Ordering::Relaxed);
                *self.last_error.lock() = None;
            }
            _ => {}
        }
    }

    /// Count one poll attempt.
    pub fn record_poll(&self) -> u64 {
        self.polls.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Count a failed poll; returns the new consecutive-failure count.
    pub fn record_failure(&self, error: &ingot_common::Error) -> u64 {
        self.failed_polls.fetch_add(1, Ordering::Relaxed);
        *self.last_error.lock() = Some(error.to_string());
        self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Count one reopen of the workload DB after its log died.
    pub fn record_reopen(&self) {
        self.reopens.fetch_add(1, Ordering::Relaxed);
    }

    /// Adjust the buffered-snapshot gauge to `n`.
    pub fn set_buffered(&self, n: u64) {
        self.buffered_snapshots.store(n, Ordering::Relaxed);
    }

    /// Count snapshots recovered from the catch-up buffer.
    pub fn record_recovered(&self, n: u64) {
        if n > 0 {
            self.recovered_snapshots.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count snapshots dropped (buffer overflow or quarantine).
    pub fn record_dropped(&self, n: u64) {
        if n > 0 {
            self.dropped_snapshots.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Polls performed.
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// Failed polls.
    pub fn failed_polls(&self) -> u64 {
        self.failed_polls.load(Ordering::Relaxed)
    }

    /// Consecutive failed polls (reset on success).
    pub fn consecutive_failures(&self) -> u64 {
        self.consecutive_failures.load(Ordering::Relaxed)
    }

    /// Reopens of the workload DB after its log died.
    pub fn reopens(&self) -> u64 {
        self.reopens.load(Ordering::Relaxed)
    }

    /// Snapshots currently buffered for catch-up.
    pub fn buffered_snapshots(&self) -> u64 {
        self.buffered_snapshots.load(Ordering::Relaxed)
    }

    /// Snapshots recovered from the buffer after healing.
    pub fn recovered_snapshots(&self) -> u64 {
        self.recovered_snapshots.load(Ordering::Relaxed)
    }

    /// Snapshots lost to buffer overflow or quarantine.
    pub fn dropped_snapshots(&self) -> u64 {
        self.dropped_snapshots.load(Ordering::Relaxed)
    }

    /// Most recent error message, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// The `ima$daemon_health` row.
    pub fn snapshot(&self) -> DaemonHealthRow {
        DaemonHealthRow {
            state: self.state().name(),
            polls: self.polls(),
            failed_polls: self.failed_polls(),
            consecutive_failures: self.consecutive_failures(),
            reopens: self.reopens(),
            buffered_snapshots: self.buffered_snapshots(),
            recovered_snapshots: self.recovered_snapshots(),
            dropped_snapshots: self.dropped_snapshots(),
            degraded_since_secs: self.degraded_since_secs.load(Ordering::Relaxed),
            last_error: self.last_error().unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_common::Error;

    #[test]
    fn state_transitions_track_degradation_window() {
        let h = DaemonHealth::default();
        assert_eq!(h.state(), HealthState::Healthy);
        h.set_state(HealthState::Degraded, 100);
        assert_eq!(h.state(), HealthState::Degraded);
        assert_eq!(h.snapshot().degraded_since_secs, 100);
        // Degraded -> Quarantined keeps the original since-timestamp.
        h.set_state(HealthState::Quarantined, 500);
        assert_eq!(h.snapshot().degraded_since_secs, 100);
        // Recovery clears the window, the consecutive count and the error.
        h.record_failure(&Error::transient_io("x"));
        h.set_state(HealthState::Healthy, 900);
        assert_eq!(h.snapshot().degraded_since_secs, -1);
        assert_eq!(h.consecutive_failures(), 0);
        assert_eq!(h.last_error(), None);
    }

    #[test]
    fn counters_accumulate() {
        let h = DaemonHealth::default();
        h.record_poll();
        h.record_poll();
        let consec = h.record_failure(&Error::transient_io("blip"));
        assert_eq!(consec, 1);
        h.record_reopen();
        h.set_buffered(2);
        h.record_recovered(2);
        h.record_dropped(1);
        assert_eq!(h.polls(), 2);
        assert_eq!(h.failed_polls(), 1);
        assert_eq!(h.reopens(), 1);
        assert_eq!(h.buffered_snapshots(), 2);
        assert_eq!(h.recovered_snapshots(), 2);
        assert_eq!(h.dropped_snapshots(), 1);
        assert!(h.last_error().unwrap().contains("blip"));
    }
}
