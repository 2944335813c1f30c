//! The disk model: I/O accounting and simulated latency.
//!
//! The paper evaluates against a database "significantly larger than the
//! system's main memory" on a 2009 hard disk. We reproduce that regime
//! deterministically: every physical page access that misses the buffer pool
//! is counted here and charged to the shared [`SimClock`] with a latency that
//! distinguishes sequential from random reads. Experiments that reason about
//! I/O volume (Fig 6, Fig 7) read these counters; experiments about
//! wall-clock overhead (Fig 4, Fig 5) use real time and merely *also* record
//! the counters.

use std::sync::atomic::{AtomicU64, Ordering};

use ingot_common::SimClock;
use parking_lot::Mutex;

use crate::disk::FileId;

/// Snapshot of cumulative I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Physical page reads that the model classified as sequential.
    pub seq_reads: u64,
    /// Physical page reads classified as random.
    pub rand_reads: u64,
    /// Physical page writes.
    pub writes: u64,
    /// Total simulated latency charged, in nanoseconds.
    pub sim_latency_ns: u64,
}

impl IoStats {
    /// All physical reads.
    pub fn reads(&self) -> u64 {
        self.seq_reads + self.rand_reads
    }

    /// Reads + writes.
    pub fn total(&self) -> u64 {
        self.reads() + self.writes
    }

    /// Component-wise difference (for per-query deltas).
    pub fn delta_since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            seq_reads: self.seq_reads - earlier.seq_reads,
            rand_reads: self.rand_reads - earlier.rand_reads,
            writes: self.writes - earlier.writes,
            sim_latency_ns: self.sim_latency_ns - earlier.sim_latency_ns,
        }
    }
}

// Simulated device latencies, calibrated to a 2009-era server disk subsystem
// with command queueing and read-ahead: ~2 ms effective random read, ~0.2 ms
// per sequential page, ~0.25 ms write (a 10:1 random:sequential asymmetry —
// pure seek time would be worse, but real scans and probes overlap I/O).
// Every experiment prices I/O with these; they were never set otherwise.

/// Simulated latency of one random page read, in nanoseconds.
const RANDOM_READ_NS: u64 = 2_000_000;
/// Simulated latency of one sequential page read, in nanoseconds.
const SEQ_READ_NS: u64 = 200_000;
/// Simulated latency of one page write, in nanoseconds.
const WRITE_NS: u64 = 250_000;

/// Prices physical I/O and advances the simulated clock.
pub struct DiskModel {
    clock: SimClock,
    seq_reads: AtomicU64,
    rand_reads: AtomicU64,
    writes: AtomicU64,
    sim_latency_ns: AtomicU64,
    /// Last page read per file, to classify sequential access.
    last_read: Mutex<std::collections::HashMap<FileId, u64>>,
}

impl DiskModel {
    /// Build a model charging `clock`.
    pub fn new(clock: SimClock) -> Self {
        DiskModel {
            clock,
            seq_reads: AtomicU64::new(0),
            rand_reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            sim_latency_ns: AtomicU64::new(0),
            last_read: Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// The simulated clock shared with the rest of the engine.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Record a physical read of `(file, page_no)`; classifies it as
    /// sequential when it directly follows the previous read of that file.
    pub fn record_read(&self, file: FileId, page_no: u64) {
        let sequential = {
            let mut last = self.last_read.lock();
            let seq = last.get(&file).is_some_and(|&p| p + 1 == page_no);
            last.insert(file, page_no);
            seq
        };
        let latency = if sequential {
            self.seq_reads.fetch_add(1, Ordering::Relaxed);
            SEQ_READ_NS
        } else {
            self.rand_reads.fetch_add(1, Ordering::Relaxed);
            RANDOM_READ_NS
        };
        self.sim_latency_ns.fetch_add(latency, Ordering::Relaxed);
        self.clock.advance_nanos(latency);
    }

    /// Record a physical page write.
    pub fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.sim_latency_ns.fetch_add(WRITE_NS, Ordering::Relaxed);
        self.clock.advance_nanos(WRITE_NS);
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> IoStats {
        IoStats {
            seq_reads: self.seq_reads.load(Ordering::Relaxed),
            rand_reads: self.rand_reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            sim_latency_ns: self.sim_latency_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DiskModel {
        DiskModel::new(SimClock::new())
    }

    #[test]
    fn sequential_classification() {
        let m = model();
        m.record_read(FileId(0), 0); // first read of a file: random
        m.record_read(FileId(0), 1); // sequential
        m.record_read(FileId(0), 2); // sequential
        m.record_read(FileId(0), 9); // jump: random
        let s = m.stats();
        assert_eq!(s.seq_reads, 2);
        assert_eq!(s.rand_reads, 2);
    }

    #[test]
    fn per_file_sequences_are_independent() {
        let m = model();
        m.record_read(FileId(0), 0);
        m.record_read(FileId(1), 0);
        m.record_read(FileId(0), 1); // still sequential for file 0
        assert_eq!(m.stats().seq_reads, 1);
    }

    #[test]
    fn latency_advances_sim_clock() {
        let m = model();
        let before = m.clock().now_nanos();
        m.record_read(FileId(0), 5);
        m.record_write();
        let s = m.stats();
        assert_eq!(s.writes, 1);
        assert!(m.clock().now_nanos() - before == s.sim_latency_ns);
    }

    #[test]
    fn delta_since() {
        let m = model();
        m.record_read(FileId(0), 0);
        let a = m.stats();
        m.record_write();
        let d = m.stats().delta_since(&a);
        assert_eq!(d.reads(), 0);
        assert_eq!(d.writes, 1);
    }
}
