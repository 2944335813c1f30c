//! Retry with capped exponential backoff and deterministic, seeded jitter.
//!
//! The storage daemon must survive transient workload-DB failures without
//! operator intervention (the "always on" promise of §IV): failed appends
//! and flushes are retried on a backoff schedule instead of being dropped.
//! Two properties keep this testable:
//!
//! * **Determinism** — jitter comes from a seeded [`SplitMix64`] stream, so
//!   a fixed [`RetryPolicy`] always produces the identical delay schedule.
//! * **Simulated time** — waits can be charged to the shared [`SimClock`]
//!   ([`RetryPolicy::run_sim`]), so a test that exercises eight retries with
//!   second-scale backoff completes in microseconds of wall time.
//!
//! Only errors classified as transient by [`Error::is_transient`](crate::Error::is_transient) are
//! retried; deterministic failures surface immediately.

use std::time::Duration;

use crate::clock::SimClock;
use crate::error::Result;
use crate::waits::{charge_ambient, WaitEvent};

/// A tiny deterministic PRNG (SplitMix64). Used for backoff jitter and by
/// the fault-injection layer for corruption bytes; both need reproducible
/// streams without pulling in an external crate.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value uniform in `[0, bound)`; 0 when `bound` is 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Capped exponential backoff policy with deterministic seeded jitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `max_attempts = 1` means no
    /// retry at all). Clamped to ≥ 1.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Hard cap on any single delay, jitter included.
    pub max_delay: Duration,
    /// Seed for the jitter stream; the same seed yields the same schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            seed: 0x696E_676F_7472_7972, // "ingotryr"
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// The deterministic delay schedule: one entry per possible retry
    /// (`max_attempts - 1` entries). Entry *k* is `base · 2^k`, capped at
    /// `max_delay`, with half-range jitter: the delay is drawn uniformly
    /// from `[d/2, d]` so schedules neither synchronise across daemons nor
    /// collapse to zero.
    pub fn schedule(&self) -> Vec<Duration> {
        let mut rng = SplitMix64::new(self.seed);
        let cap = self.max_delay.as_nanos() as u64;
        let base = self.base_delay.as_nanos() as u64;
        (0..self.max_attempts.max(1) - 1)
            .map(|k| {
                let exp = base.saturating_mul(1u64.checked_shl(k).unwrap_or(u64::MAX));
                let d = exp.min(cap);
                let half = d / 2;
                let jittered = half + rng.next_below(half + 1);
                Duration::from_nanos(jittered.min(cap))
            })
            .collect()
    }

    /// Run `op` until it succeeds, the error is not transient, or attempts
    /// are exhausted. `wait` is invoked with each backoff delay before the
    /// corresponding retry (callers sleep, advance a simulated clock, count
    /// retries, …). `op` receives the 1-based attempt number.
    pub fn run<T>(
        &self,
        mut wait: impl FnMut(Duration),
        mut op: impl FnMut(u32) -> Result<T>,
    ) -> Result<T> {
        let delays = self.schedule();
        let attempts = self.max_attempts.max(1);
        for attempt in 1..=attempts {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < attempts => {
                    let delay = delays[(attempt - 1) as usize];
                    wait(delay);
                    // Charge the *declared* delay, not a wall measurement:
                    // under run_sim the wait advances a simulated clock and
                    // wall elapsed would read ~0.
                    charge_ambient(WaitEvent::RetryBackoff, delay.as_nanos() as u64);
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on the final attempt")
    }

    /// [`RetryPolicy::run`] with waits charged to the simulated clock, so
    /// retry storms are instant in wall-clock terms but still visible to
    /// retention windows and growth accounting.
    pub fn run_sim<T>(&self, clock: &SimClock, op: impl FnMut(u32) -> Result<T>) -> Result<T> {
        self.run(
            |d| {
                clock.advance_nanos(d.as_nanos() as u64);
            },
            op,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    #[test]
    fn schedule_is_deterministic_and_capped() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 42,
        };
        let a = p.schedule();
        let b = p.schedule();
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
        assert!(a.iter().all(|d| *d <= p.max_delay));
        // Early delays respect the half-range floor.
        assert!(a[0] >= Duration::from_millis(5));
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(8),
            seed: 7,
        };
        let clock = SimClock::new();
        let mut calls = 0;
        let out = p.run_sim(&clock, |_| {
            calls += 1;
            if calls < 3 {
                Err(Error::transient_io("blip"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out.unwrap(), 3);
        assert!(clock.now_nanos() > 0, "waits must advance the sim clock");
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let p = RetryPolicy::default();
        let mut calls = 0;
        let out: Result<()> = p.run(
            |_| {},
            |_| {
                calls += 1;
                Err(Error::Io("disk gone".into()))
            },
        );
        assert!(out.is_err());
        assert_eq!(calls, 1, "non-transient errors must not be retried");
    }

    #[test]
    fn attempts_are_exhausted() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            seed: 1,
        };
        let mut calls = 0;
        let out: Result<()> = p.run(
            |_| {},
            |_| {
                calls += 1;
                Err(Error::transient_io("still down"))
            },
        );
        assert!(out.is_err());
        assert_eq!(calls, 3);
    }
}
