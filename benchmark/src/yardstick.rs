//! The yardstick: a fixed loop that tells how fast the box is *right now*.
//!
//! A shared 2-vCPU sandbox does not run at one speed. Identical code moved
//! `stmt_per_s` by 40 % between two runs ten minutes apart and by 9 % from
//! one minute to the next — a neighbour's burst, not the program. No slice
//! length averages that out, because the slow phases outlast a run. So every
//! lane weaves this loop into its slice, a millisecond in every ten, and each
//! slice's times are scaled by the speed the yardstick saw *in that slice*:
//! reported times are times at the reference speed, [`REFERENCE_RATE`], which
//! is what this box does when it is quiet.
//!
//! The loop touches nothing of the engine and nothing a later change could
//! make faster or slower, and after construction it never allocates. It is
//! built to slow down the way a statement does, not the way a tight kernel
//! does: an ordered-map lookup (pointer chasing, compares, branches — what an
//! index probe is), a dependent probe into a 256 KiB table, a key formatted
//! as the workloads format theirs, an FNV hash over it. A pure ALU loop
//! missed cache contention; a loop of table probes alone lost up to half its
//! speed in phases where the statements lost a fifth.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Yardstick iterations per second of this box when nothing disturbs it.
/// Times are reported as if the box always ran at this speed.
pub const REFERENCE_RATE: f64 = 8.4e6;

/// How long a lane runs statements between two yardstick turns, and how long
/// a turn lasts: a tenth of every slice goes to the yardstick.
pub const STRIDE: Duration = Duration::from_millis(10);
pub const TURN: Duration = Duration::from_millis(1);

const TABLE_WORDS: usize = 1 << 15;
const INDEX_KEYS: u64 = 1 << 14;

/// A fixed-capacity text buffer on the stack.
struct Key {
    buf: [u8; 16],
    len: usize,
}

impl std::fmt::Write for Key {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = (self.len + s.len()).min(self.buf.len());
        self.buf[self.len..end].copy_from_slice(&s.as_bytes()[..end - self.len]);
        self.len = end;
        Ok(())
    }
}

/// The loop's state; one per lane.
pub struct Yardstick {
    table: Vec<u64>,
    index: BTreeMap<u64, u64>,
    state: u64,
    /// Iterations and seconds spent since the last [`take`](Self::take).
    iters: u64,
    secs: f64,
}

impl Default for Yardstick {
    fn default() -> Self {
        let mut s = 0x1234_5678u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                s
            })
            .collect();
        // Keys spread over the u64 range so that lookups descend different
        // paths; every probe below hits.
        let index = (0..INDEX_KEYS)
            .map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k))
            .collect();
        Yardstick {
            table,
            index,
            state: 1,
            iters: 0,
            secs: 0.0,
        }
    }
}

impl Yardstick {
    /// Run the loop for about `dur`; returns when it ended.
    pub fn turn(&mut self, dur: Duration) -> Instant {
        let t0 = Instant::now();
        let mask = TABLE_WORDS - 1;
        loop {
            for _ in 0..64 {
                let key = (self.state % INDEX_KEYS).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let found = self.index.get(&key).copied().unwrap_or(0);
                let i = ((self.state ^ found) as usize) & mask;
                let v = self.table[i];
                self.state = self.state.rotate_left(7) ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                self.table[i] = v.wrapping_add(self.state);
                let mut key = Key {
                    buf: [0; 16],
                    len: 0,
                };
                let _ = write!(key, "NF{:08}", self.state % 100_000_000);
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for b in &key.buf[..key.len] {
                    h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
                }
                self.state ^= std::hint::black_box(h);
            }
            self.iters += 64;
            let now = Instant::now();
            if now - t0 >= dur {
                self.secs += (now - t0).as_secs_f64();
                return now;
            }
        }
    }

    /// `(iterations, seconds)` since the last call, and start afresh.
    pub fn take(&mut self) -> (u64, f64) {
        let r = (self.iters, self.secs);
        (self.iters, self.secs) = (0, 0.0);
        r
    }
}

/// Speed of the box relative to the reference, from what the yardstick did:
/// 1.0 when quiet, 0.6 in a neighbour's burst. 1.0 when it never ran (a slice
/// shorter than one stride).
pub fn speed(iters: u64, secs: f64) -> f64 {
    if iters == 0 || secs <= 0.0 {
        1.0
    } else {
        iters as f64 / secs / REFERENCE_RATE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_turn_lasts_about_as_long_as_asked_and_counts_its_work() {
        let mut y = Yardstick::default();
        let t0 = Instant::now();
        let end = y.turn(Duration::from_millis(5));
        assert!(end - t0 >= Duration::from_millis(5));
        let (iters, secs) = y.take();
        assert!(iters >= 64 && iters % 64 == 0);
        assert!((0.005..0.5).contains(&secs));
        assert_eq!(y.take(), (0, 0.0));
    }

    #[test]
    fn the_loop_is_deterministic() {
        let (mut a, mut b) = (Yardstick::default(), Yardstick::default());
        // Same number of batches → same state, whatever the clock said.
        while a.iters < 6_400 {
            a.turn(Duration::ZERO);
        }
        while b.iters < 6_400 {
            b.turn(Duration::ZERO);
        }
        assert_eq!(a.state, b.state);
    }

    #[test]
    fn speed_is_relative_to_the_reference() {
        assert_eq!(speed(0, 0.0), 1.0);
        let half = (REFERENCE_RATE / 2.0) as u64;
        assert!((speed(half, 1.0) - 0.5).abs() < 1e-9);
        assert!((speed(half / 500, 0.001) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn key_buffer_truncates_instead_of_overflowing() {
        let mut k = Key {
            buf: [0; 16],
            len: 0,
        };
        let _ = write!(k, "{}", "x".repeat(40));
        assert_eq!(k.len, 16);
    }
}
