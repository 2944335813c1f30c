//! Clocks.
//!
//! Two time sources are used in the system:
//!
//! * [`MonotonicClock`] — thin wrapper over `std::time::Instant` used by the
//!   sensors for wall-clock start/stop and for the monitor's self-timing
//!   (Fig 5 needs the share of monitoring time per statement).
//! * [`SimClock`] — a shared, manually-advanced nanosecond counter used by
//!   the disk model and the daemon's retention logic so that experiments
//!   like "seven days of collection" run deterministically in milliseconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, UNIX_EPOCH};

/// Wall-clock helper: nanoseconds since an arbitrary process-local epoch.
#[derive(Debug, Clone, Copy)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock anchored at "now".
    pub fn new() -> Self {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the clock's epoch.
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

/// A boot identity: wall-clock nanoseconds since the Unix epoch, above every
/// one this process handed out before, so no two engine lives share one.
pub fn boot_id() -> u64 {
    static LAST: AtomicU64 = AtomicU64::new(0);
    let now = UNIX_EPOCH.elapsed().map_or(0, |d| d.as_nanos() as u64);
    LAST.fetch_max(now, Ordering::Relaxed);
    LAST.fetch_add(1, Ordering::Relaxed) + 1
}

/// A shared simulated clock measured in nanoseconds.
///
/// Cloning shares the underlying counter. The engine advances it when the
/// disk model charges simulated latency; tests and experiment harnesses
/// advance it to fast-forward through retention windows.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in nanoseconds.
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Current simulated time in whole seconds.
    pub fn now_secs(&self) -> u64 {
        self.now_nanos() / 1_000_000_000
    }

    /// Advance the clock by `delta` nanoseconds, returning the new reading.
    #[inline]
    pub fn advance_nanos(&self, delta: u64) -> u64 {
        self.nanos.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// Advance the clock by whole seconds.
    pub fn advance_secs(&self, secs: u64) -> u64 {
        self.advance_nanos(secs * 1_000_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn sim_clock_is_shared() {
        let c = SimClock::new();
        let c2 = c.clone();
        c.advance_secs(5);
        assert_eq!(c2.now_secs(), 5);
        c2.advance_nanos(1_000_000_000);
        assert_eq!(c.now_secs(), 6);
    }
    #[test]
    fn boot_ids_are_unique_and_rise() {
        let ids: Vec<u64> = (0..1000).map(|_| boot_id()).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }
}
