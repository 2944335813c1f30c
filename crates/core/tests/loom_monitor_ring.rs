#![cfg(loom)]
//! Model tests for the lock-free `ima$workload` ring under perturbed
//! schedules.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p ingot-core --test
//! loom_monitor_ring`. The ring's own source file is compiled here against
//! the loom shim's atomics, which perturb the schedule around every load,
//! store and read-modify-write. Each body executes under `loom::model`,
//! which re-runs it across many seeded interleavings. The slot protocol's
//! two promises are checked directly:
//!
//! 1. **No torn record** — a reader returns a record only if no writer
//!    touched its slot while it was copied, even when writers lap the ring.
//! 2. **No step past an in-flight slot** — a reader stops at a record still
//!    being written, so a consumer resuming after the last sequence number it
//!    was handed (the storage daemon's cursor) never misses one that lands
//!    later.

use std::collections::BTreeSet;

use ingot_common::{Cost, StmtHash};
use loom::sync::Arc;
use loom::thread;

mod atomic {
    pub use loom::sync::atomic::{fence, AtomicU64, Ordering};
}

mod records {
    pub use ingot_core::monitor::WorkloadRecord;
}

#[allow(dead_code)]
#[path = "../src/monitor/ring.rs"]
mod ring;

use records::WorkloadRecord;
use ring::WorkloadRing;

/// A record whose every field is derived from `v`, so a copy mixing two
/// records shows.
fn record(v: u64) -> WorkloadRecord {
    WorkloadRecord {
        hash: StmtHash(v),
        seq: 0,
        opt_time_ns: v,
        opt_io: v,
        exec_cpu: v,
        exec_io: v,
        est: Cost::new(v as f64, v as f64),
        wallclock_ns: v,
        monitor_ns: v,
        at_ns: v,
        at_sim_secs: v,
    }
}

fn assert_whole(r: &WorkloadRecord) {
    let v = r.hash.0;
    let fields = [
        r.opt_time_ns,
        r.opt_io,
        r.exec_cpu,
        r.exec_io,
        r.wallclock_ns,
        r.monitor_ns,
        r.at_ns,
        r.at_sim_secs,
    ];
    assert!(
        fields.iter().all(|&f| f == v) && r.est == Cost::new(v as f64, v as f64),
        "torn record at seq {}: {r:?}",
        r.seq
    );
}

/// The daemon's cursor: take what lies beyond the last sequence number
/// taken.
#[derive(Default)]
struct Cursor {
    last: Option<u64>,
    taken: Vec<u64>,
}

impl Cursor {
    fn poll(&mut self, ring: &WorkloadRing) {
        let mut prev = None;
        for r in ring.read() {
            assert_whole(&r);
            assert!(prev.is_none_or(|p| r.seq > p), "one read is in order");
            prev = Some(r.seq);
            if self.last.is_none_or(|last| r.seq > last) {
                self.last = Some(r.seq);
                self.taken.push(r.seq);
            }
        }
    }
}

/// One writer per entry of `records`, pushing that many records.
fn spawn_writers(ring: &Arc<WorkloadRing>, records: &[u64]) -> Vec<thread::JoinHandle<()>> {
    records
        .iter()
        .enumerate()
        .map(|(w, &n)| {
            let ring = Arc::clone(ring);
            thread::spawn(move || {
                for i in 0..n {
                    ring.push(&record(1 + w as u64 * 1_000 + i));
                }
            })
        })
        .collect()
}

/// Promise 2 without lapping: a cursor polling while three writers push
/// takes every sequence number exactly once.
#[test]
fn a_polling_cursor_takes_every_record_once() {
    loom::model(|| {
        let ring = Arc::new(WorkloadRing::new(64));
        let writers = spawn_writers(&ring, &[4, 4, 4]);
        let reader = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                let mut cursor = Cursor::default();
                for _ in 0..6 {
                    cursor.poll(&ring);
                    thread::yield_now();
                }
                cursor
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        let mut cursor = reader.join().unwrap();
        cursor.poll(&ring);
        let all: Vec<u64> = (0..12).collect();
        assert_eq!(cursor.taken, all, "each sequence number once, in order");
        assert_eq!(ring.lapped(), 0);
    });
}

/// Promise 1 under lapping: two writers and a third that laps them on a
/// two-slot ring. Every record a reader returns is whole; once the writers
/// are done, the cursor holds every record still in the ring.
#[test]
fn lapping_writers_never_show_a_torn_record() {
    loom::model(|| {
        const CAPACITY: usize = 2;
        let ring = Arc::new(WorkloadRing::new(CAPACITY));
        // Two writers and one that laps them several times over.
        let writers = spawn_writers(&ring, &[3, 3, 8]);
        let reader = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                let mut cursor = Cursor::default();
                for _ in 0..8 {
                    cursor.poll(&ring);
                }
                cursor
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        let mut cursor = reader.join().unwrap();
        cursor.poll(&ring);
        let end = ring.claimed();
        assert_eq!(end, 2 * 3 + 8);
        let taken: BTreeSet<u64> = cursor.taken.iter().copied().collect();
        assert_eq!(taken.len(), cursor.taken.len(), "nothing taken twice");
        for seq in end - CAPACITY as u64..end {
            assert!(taken.contains(&seq), "seq {seq} was stepped past");
        }
    });
}
