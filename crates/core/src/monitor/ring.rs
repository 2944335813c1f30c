//! The `ima$workload` ring: a fixed array of sequence-stamped slots of
//! atomic words, written without a lock.
//!
//! A writer claims the next sequence number with one `fetch_add`; sequence
//! `s` lives in slot `s % capacity`. The slot's stamp is `2s + 1` while the
//! writer of `s` copies its words in and `2s + 2` once it is done. The
//! writer of `s` starts only once the slot shows the previous lap done
//! (`2(s - capacity) + 2`, or 0 on the first lap): one writer per slot at a
//! time, in sequence order, so it claims the slot with plain stores and
//! stamps only grow. The wait is a few stores long unless the previous
//! lap's writer was descheduled mid-copy.
//!
//! A reader copies a slot between two stamp reads and keeps the copy only if
//! both read `2s + 2`. A stamp above that means a later lap overwrote the
//! record, before or during the copy: the slot is skipped and counted in
//! [`lapped`](WorkloadRing::lapped). A stamp below it means the record of `s`
//! is still being written: the reader *stops* there, so a consumer that
//! resumes after the last sequence it was handed (the storage daemon's
//! `wl_workload` cursor) can never step past a record that lands later.

use ingot_common::{Cost, StmtHash};

// Both through the parent module, so the loom model
// (`tests/loom_monitor_ring.rs`) can compile this very file against the
// shim's perturbed atomics.
use super::atomic::{fence, AtomicU64, Ordering};
use super::records::WorkloadRecord;

/// Words per record: every field of [`WorkloadRecord`] but `seq`, which is
/// the slot's sequence number.
const WORDS: usize = 11;

/// One slot: the stamp and the record's words.
#[derive(Default)]
struct Slot {
    stamp: AtomicU64,
    words: [AtomicU64; WORDS],
}

/// A bounded ring of [`WorkloadRecord`]s with lock-free push and read.
pub(crate) struct WorkloadRing {
    /// Sequence numbers handed out: records pushed or being pushed.
    claimed: AtomicU64,
    /// Slots a reader skipped because a later lap overwrote them.
    lapped: AtomicU64,
    slots: Box<[Slot]>,
}

impl WorkloadRing {
    /// A ring of `capacity` records (min 1).
    pub(crate) fn new(capacity: usize) -> Self {
        WorkloadRing {
            claimed: AtomicU64::new(0),
            lapped: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Slot::default()).collect(),
        }
    }

    /// Slots in the ring.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records ever pushed, counting those still being written.
    pub(crate) fn claimed(&self) -> u64 {
        self.claimed.load(Ordering::Relaxed)
    }

    /// Slots readers skipped because a later lap had overwritten them.
    pub(crate) fn lapped(&self) -> u64 {
        self.lapped.load(Ordering::Relaxed)
    }

    fn slot(&self, seq: u64) -> &Slot {
        &self.slots[(seq % self.slots.len() as u64) as usize]
    }

    /// Append `record` under the next sequence number (its `seq` field is
    /// ignored).
    pub(crate) fn push(&self, record: &WorkloadRecord) {
        let seq = self.claimed.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot(seq);
        let lap = self.slots.len() as u64;
        let previous_done = if seq >= lap { 2 * (seq - lap) + 2 } else { 0 };
        // Acquire: the previous lap's words land before ours.
        while slot.stamp.load(Ordering::Acquire) != previous_done {
            std::thread::yield_now();
        }
        let writing = 2 * seq + 1;
        slot.stamp.store(writing, Ordering::Relaxed);
        // The odd stamp is ordered before the words (a reader that sees any
        // of them sees the stamp move), the words before the even one.
        fence(Ordering::Release);
        for (cell, word) in slot.words.iter().zip(encode(record)) {
            cell.store(word, Ordering::Relaxed);
        }
        slot.stamp.store(writing + 1, Ordering::Release);
    }

    /// The records held, oldest first, up to the first one still being
    /// written.
    pub(crate) fn read(&self) -> Vec<WorkloadRecord> {
        let end = self.claimed.load(Ordering::Acquire);
        let start = end.saturating_sub(self.slots.len() as u64);
        let mut out = Vec::with_capacity((end - start) as usize);
        let mut lapped = 0;
        for seq in start..end {
            let slot = self.slot(seq);
            let done = 2 * seq + 2;
            let before = slot.stamp.load(Ordering::Acquire);
            if before < done {
                break; // in flight: everything after it waits for the next read
            }
            if before == done {
                let words: [u64; WORDS] =
                    std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
                fence(Ordering::Acquire);
                if slot.stamp.load(Ordering::Relaxed) == done {
                    out.push(decode(seq, words));
                    continue;
                }
            }
            lapped += 1;
        }
        if lapped > 0 {
            self.lapped.fetch_add(lapped, Ordering::Relaxed);
        }
        out
    }
}

fn encode(r: &WorkloadRecord) -> [u64; WORDS] {
    [
        r.hash.0,
        r.opt_time_ns,
        r.opt_io,
        r.exec_cpu,
        r.exec_io,
        r.est.cpu.to_bits(),
        r.est.io.to_bits(),
        r.wallclock_ns,
        r.monitor_ns,
        r.at_ns,
        r.at_sim_secs,
    ]
}

fn decode(seq: u64, w: [u64; WORDS]) -> WorkloadRecord {
    WorkloadRecord {
        hash: StmtHash(w[0]),
        seq,
        opt_time_ns: w[1],
        opt_io: w[2],
        exec_cpu: w[3],
        exec_io: w[4],
        est: Cost::new(f64::from_bits(w[5]), f64::from_bits(w[6])),
        wallclock_ns: w[7],
        monitor_ns: w[8],
        at_ns: w[9],
        at_sim_secs: w[10],
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn record(v: u64) -> WorkloadRecord {
        WorkloadRecord {
            hash: StmtHash(v),
            seq: 0,
            opt_time_ns: v + 1,
            opt_io: v + 2,
            exec_cpu: v + 3,
            exec_io: v + 4,
            est: Cost::new(v as f64 + 0.5, v as f64 + 0.25),
            wallclock_ns: v + 5,
            monitor_ns: v + 6,
            at_ns: v + 7,
            at_sim_secs: v + 8,
        }
    }

    #[test]
    fn round_trips_every_field() {
        let ring = WorkloadRing::new(4);
        ring.push(&record(10));
        let got = ring.read();
        assert_eq!(got.len(), 1);
        let (a, b) = (&got[0], record(10));
        assert_eq!(a.seq, 0);
        assert_eq!(
            (a.hash, a.opt_time_ns, a.opt_io, a.exec_cpu, a.exec_io),
            (b.hash, b.opt_time_ns, b.opt_io, b.exec_cpu, b.exec_io)
        );
        assert_eq!(a.est, b.est);
        assert_eq!(
            (a.wallclock_ns, a.monitor_ns, a.at_ns, a.at_sim_secs),
            (b.wallclock_ns, b.monitor_ns, b.at_ns, b.at_sim_secs)
        );
    }

    #[test]
    fn keeps_the_newest_capacity_records() {
        let ring = WorkloadRing::new(4);
        for v in 0..10 {
            ring.push(&record(v));
        }
        let seqs: Vec<u64> = ring.read().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(ring.claimed(), 10);
        assert_eq!(ring.lapped(), 0);
    }

    #[test]
    fn a_reader_stops_at_a_claimed_slot_not_yet_written() {
        let ring = WorkloadRing::new(4);
        ring.push(&record(0));
        // A writer that claimed sequence 1 but has not stamped its slot.
        ring.claimed.fetch_add(1, Ordering::Relaxed);
        let seqs: Vec<u64> = ring.read().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0]);
    }

    #[test]
    fn a_lapped_slot_is_skipped_and_counted() {
        let ring = WorkloadRing::new(2);
        for v in 0..2 {
            ring.push(&record(v));
        }
        // Sequence 2 overwrote slot 0 while the reader's window still
        // started at 0: emulate that reader by stamping slot 0 past its lap.
        ring.slot(0).stamp.store(2 * 2 + 2, Ordering::Relaxed);
        let seqs: Vec<u64> = ring.read().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1]);
        assert_eq!(ring.lapped(), 1);
    }
}
