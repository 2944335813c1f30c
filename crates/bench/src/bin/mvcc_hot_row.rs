//! Row-level MVCC payoff — snapshot readers against a contended hot row.
//!
//! One writer thread runs a loop of auto-commit `update … where id = 1`
//! statements against a single-row table while N reader sessions point-read
//! the same row as fast as they can. Two arms per cell:
//!
//! * **table-lock** — the pre-MVCC discipline, emulated with an external
//!   [`LockManager`] (the engine's own FIFO-fair queue): every read holds a
//!   table-Shared lock and every write a table-Exclusive lock across its
//!   whole statement, exactly the serialization DML used before row-level
//!   MVCC. Readers stall whenever the writer is inside its commit barrier.
//! * **mvcc** — the engine as shipped: readers take no locks and evaluate
//!   snapshot visibility against the version chain, the writer takes the
//!   shared DDL fence plus a row-exclusive chain-root lock.
//!
//! The WAL simulates a disk barrier (`SYNC_DELAY_US` per fsync) so the
//! writer's critical section is dominated by durable-commit latency, as it
//! is on real hardware. The headline claim checked at the bottom: **at 8
//! reader sessions MVCC sustains at least 4x the table-lock read
//! throughput**. Numbers land in `results/mvcc_hot_row.json`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ingot_bench::{best_of, header, pace, write_results, Field, Fields, Scale, ScratchDir};
use ingot_common::{EngineConfig, WalFsyncMode};
use ingot_common::{TableId, TxnId};
use ingot_core::Engine;
use ingot_txn::{LockManager, LockMode, Resource};

/// Concurrent reader counts (the writer is always one extra thread).
const READERS: [usize; 4] = [1, 2, 4, 8];

/// Simulated disk-barrier latency per fsync: the writer's exclusive window
/// in the table-lock arm is dominated by this, as on real storage.
const SYNC_DELAY_US: u64 = 8000;

/// Writer think time between statements, spent outside any lock so the
/// table-lock arm's readers are guaranteed forward progress.
const WRITER_PAUSE_US: u64 = 20;

/// The writer triggers a version-chain sweep this often, standing in for
/// the daemon's poll-cadence GC so chains stay short in both arms.
const GC_EVERY: u64 = 64;

#[derive(Clone, Copy, PartialEq)]
enum Arm {
    TableLock,
    Mvcc,
}

struct Cell {
    readers: usize,
    reads: usize,
    lock_ms: f64,
    mvcc_ms: f64,
    lock_reads_per_sec: f64,
    mvcc_reads_per_sec: f64,
    speedup: f64,
    lock_writes: u64,
    mvcc_writes: u64,
}

impl Cell {
    fn fields(&self) -> Fields {
        vec![
            ("readers", Field::Int(self.readers as u64)),
            ("reads_per_reader", Field::Int(self.reads as u64)),
            ("table_lock_ms", Field::Num(self.lock_ms)),
            ("mvcc_ms", Field::Num(self.mvcc_ms)),
            (
                "table_lock_reads_per_sec",
                Field::Num(self.lock_reads_per_sec),
            ),
            ("mvcc_reads_per_sec", Field::Num(self.mvcc_reads_per_sec)),
            ("speedup", Field::Num(self.speedup)),
            ("table_lock_writes", Field::Int(self.lock_writes)),
            ("mvcc_writes", Field::Int(self.mvcc_writes)),
        ]
    }
}

/// One storm on a fresh engine and directory: `readers` threads x `reads`
/// point-selects of the hot row, racing one update-loop writer. Returns
/// (reader elapsed, writer commits).
fn run_storm(arm: Arm, readers: usize, reads: usize) -> (Duration, u64) {
    let dir = ScratchDir::new("mvcc");
    let engine = Engine::builder()
        .config(
            EngineConfig::default()
                .with_wal_fsync_mode(WalFsyncMode::Always)
                .with_wal_sync_delay_us(SYNC_DELAY_US),
        )
        .path(dir.path())
        .build()
        .expect("file-backed engine");
    {
        let s = engine.open_session();
        s.execute("create table hot (id int not null, v int)")
            .unwrap();
        s.execute("insert into hot values (1, 0)").unwrap();
    }
    // The emulated table lock — the engine's own FIFO-fair queue, so the
    // writer's exclusive request is never starved by a reader stampede.
    // The MVCC arm never touches it.
    let table = Arc::new(LockManager::new(Duration::from_secs(30)));
    let hot = Resource::Table(TableId(1));
    let stop = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(AtomicU64::new(0));

    let writer = {
        let engine = Arc::clone(&engine);
        let table = Arc::clone(&table);
        let stop = Arc::clone(&stop);
        let writes = Arc::clone(&writes);
        std::thread::spawn(move || {
            let s = engine.open_session();
            let me = TxnId(u64::MAX);
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                n += 1;
                if arm == Arm::TableLock {
                    table.lock(me, hot, LockMode::Exclusive).unwrap();
                }
                let r = s.execute(&format!("update hot set v = {n} where id = 1"));
                if arm == Arm::TableLock {
                    table.release_all(me);
                }
                r.unwrap();
                writes.fetch_add(1, Ordering::Relaxed);
                if n.is_multiple_of(GC_EVERY) {
                    let _ = engine.mvcc_gc();
                }
                // Think time between statements, outside any lock.
                pace(Duration::from_micros(WRITER_PAUSE_US));
            }
        })
    };

    let start = Instant::now();
    let handles: Vec<_> = (0..readers)
        .map(|i| {
            let engine = Arc::clone(&engine);
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let s = engine.open_session();
                let me = TxnId(u64::MAX - 1 - i as u64);
                for _ in 0..reads {
                    if arm == Arm::TableLock {
                        table.lock(me, hot, LockMode::Shared).unwrap();
                    }
                    let r = s.execute("select v from hot where id = 1");
                    if arm == Arm::TableLock {
                        table.release_all(me);
                    }
                    let r = r.unwrap();
                    assert_eq!(r.rows.len(), 1, "the hot row must stay visible");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("reader thread");
    }
    let elapsed = start.elapsed();
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer thread");
    (elapsed, writes.load(Ordering::Relaxed))
}

fn main() {
    let scale = Scale::from_env();
    header(
        "MVCC hot row",
        "snapshot-read throughput against one contended row, table-lock vs. MVCC",
        &scale,
    );
    let reads = ((scale.n_simple / 25).max(200)) as usize;
    println!(
        "simulated barrier: {SYNC_DELAY_US} us per fsync, {reads} reads per reader, \
         1 update-loop writer\n"
    );
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>12} {:>9} {:>9} {:>9}",
        "readers", "lock_ms", "mvcc_ms", "lock r/s", "mvcc r/s", "speedup", "lock_w", "mvcc_w"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for readers in READERS {
        let total = (readers * reads) as f64;
        let (lock, lock_writes) =
            best_of(scale.repeats, || run_storm(Arm::TableLock, readers, reads));
        let (mvcc, mvcc_writes) = best_of(scale.repeats, || run_storm(Arm::Mvcc, readers, reads));
        let lock_tput = total / lock.as_secs_f64();
        let mvcc_tput = total / mvcc.as_secs_f64();
        let speedup = mvcc_tput / lock_tput;
        println!(
            "{:<8} {:>10.1} {:>10.1} {:>12.0} {:>12.0} {:>8.2}x {:>9} {:>9}",
            readers,
            lock.as_secs_f64() * 1e3,
            mvcc.as_secs_f64() * 1e3,
            lock_tput,
            mvcc_tput,
            speedup,
            lock_writes,
            mvcc_writes
        );
        cells.push(Cell {
            readers,
            reads,
            lock_ms: lock.as_secs_f64() * 1e3,
            mvcc_ms: mvcc.as_secs_f64() * 1e3,
            lock_reads_per_sec: lock_tput,
            mvcc_reads_per_sec: mvcc_tput,
            speedup,
            lock_writes,
            mvcc_writes,
        });
    }

    write_results(
        "mvcc_hot_row.json",
        "mvcc_hot_row",
        &scale,
        &[
            ("sync_delay_us", Field::Int(SYNC_DELAY_US)),
            (
                "model",
                Field::Text(
                    "one hot row, N snapshot readers vs. 1 auto-commit \
                     update writer; table-lock arm emulated with an external FIFO lock \
                     queue, best-of wall clock per cell",
                ),
            ),
        ],
        &cells.iter().map(Cell::fields).collect::<Vec<_>>(),
    );

    // The headline claim: snapshot reads never queue behind the writer's
    // commit barrier, so read throughput scales with the session count.
    for c in cells.iter().filter(|c| c.readers >= 8) {
        assert!(
            c.speedup >= 4.0,
            "MVCC must sustain at least 4x the table-lock read throughput at \
             {} readers (got {:.2}x)",
            c.readers,
            c.speedup
        );
        assert!(
            c.mvcc_writes > 0,
            "the writer must keep committing under read load"
        );
    }
}
