//! WAL group-commit payoff — concurrent commit throughput with the group
//! coordinator batching fsyncs vs. one fsync per commit.
//!
//! Each writer thread owns its own table (so table locks never serialize
//! the storm) and runs a loop of auto-commit single-row inserts against a
//! file-backed engine whose WAL simulates a disk barrier of
//! `SYNC_DELAY_US` per fsync — on a laptop-class SSD (or tmpfs in CI) the
//! raw fsync is too cheap to show the batching effect the coordinator
//! exists for. Under `always` each committer runs the barrier itself, but
//! `Wal::sync_to` returns early once a completed barrier covers its LSN, so
//! concurrent committers already share fsyncs there and the throughput
//! ratio between the modes depends on how many cores overlap them. Under
//! `group` the coordinator gathers committers behind one leader's fsync.
//! The claims checked at the bottom are what the coordinator controls:
//! **from 8 writers up, leaders wait to gather committers, group commit
//! makes at most 0.5 fsyncs per commit, and over those cells together its
//! throughput is no lower than always-fsync**. Numbers land in
//! `results/wal_group_commit.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ingot_bench::{best_of, header, write_results, Field, Fields, Scale, ScratchDir};
use ingot_common::waits::WaitEvent;
use ingot_common::{EngineConfig, WalFsyncMode};
use ingot_core::Engine;

/// Concurrent committer counts (the 1-writer cell is the no-batching
/// baseline where both modes must be within noise of each other).
const WRITERS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Simulated disk-barrier latency per fsync. Sized so the barrier dominates
/// per-commit execution and scheduler noise, so fsyncs per commit measure
/// batching rather than how fast one writer can re-arrive.
const SYNC_DELAY_US: u64 = 500;

struct Cell {
    writers: usize,
    commits: usize,
    always_ms: f64,
    group_ms: f64,
    always_commits_per_sec: f64,
    group_commits_per_sec: f64,
    speedup: f64,
    always_fsyncs_per_commit: f64,
    group_fsyncs_per_commit: f64,
    max_group: u64,
    group_gathers: u64,
}

impl Cell {
    fn fields(&self) -> Fields {
        vec![
            ("writers", Field::Int(self.writers as u64)),
            ("commits_per_writer", Field::Int(self.commits as u64)),
            ("always_ms", Field::Num(self.always_ms)),
            ("group_ms", Field::Num(self.group_ms)),
            (
                "always_commits_per_sec",
                Field::Num(self.always_commits_per_sec),
            ),
            (
                "group_commits_per_sec",
                Field::Num(self.group_commits_per_sec),
            ),
            ("speedup", Field::Num(self.speedup)),
            (
                "always_fsyncs_per_commit",
                Field::Num(self.always_fsyncs_per_commit),
            ),
            (
                "group_fsyncs_per_commit",
                Field::Num(self.group_fsyncs_per_commit),
            ),
            ("max_group", Field::Int(self.max_group)),
            ("group_gathers", Field::Int(self.group_gathers)),
        ]
    }
}

/// The storm's counters: fsyncs, the largest group, and how often a
/// group-commit leader waited to gather committers.
type StormCounts = (u64, u64, u64);

/// One storm on a fresh engine and directory: `writers` threads x `commits`
/// auto-commit inserts, each writer on its own table. Returns (elapsed,
/// counters of the storm).
fn run_storm(mode: WalFsyncMode, writers: usize, commits: usize) -> (Duration, StormCounts) {
    let dir = ScratchDir::new("wal");
    let engine = Engine::builder()
        .config(
            EngineConfig::default()
                .with_wal_fsync_mode(mode)
                .with_wal_sync_delay_us(SYNC_DELAY_US),
        )
        .path(dir.path())
        .build()
        .expect("file-backed engine");
    {
        let s = engine.open_session();
        for w in 0..writers {
            s.execute(&format!("create table w{w} (a int not null, b text)"))
                .unwrap();
        }
    }
    let gathers = || {
        let registry = engine
            .wait_registry()
            .expect("wait events are on by default");
        registry.counters().count(WaitEvent::GroupCommitDally)
    };
    let fsyncs_before = engine.wal_stats().fsyncs;
    let gathers_before = gathers();
    let start = Instant::now();
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let s = engine.open_session();
                for i in 0..commits {
                    s.execute(&format!("insert into w{w} values ({i}, 'payload {i}')"))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread");
    }
    let elapsed = start.elapsed();
    let stats = engine.wal_stats();
    let counts = (
        stats.fsyncs - fsyncs_before,
        stats.max_group,
        gathers() - gathers_before,
    );
    (elapsed, counts)
}

fn main() {
    let scale = Scale::from_env();
    header(
        "WAL group commit",
        "concurrent commit throughput, group vs. always fsync",
        &scale,
    );
    let commits = ((scale.n_simple / 100).max(30)) as usize;
    println!(
        "simulated barrier: {SYNC_DELAY_US} us per fsync, {commits} commits per writer, \
         best of {} runs per cell\n",
        scale.repeats
    );
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>12} {:>9} {:>9} {:>9} {:>8}",
        "writers",
        "always_ms",
        "group_ms",
        "always c/s",
        "group c/s",
        "speedup",
        "fs/c alw",
        "fs/c grp",
        "max_grp"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for writers in WRITERS {
        let total = (writers * commits) as f64;
        let (always, (always_fsyncs, _, _)) = best_of(scale.repeats, || {
            run_storm(WalFsyncMode::Always, writers, commits)
        });
        let (group, (group_fsyncs, max_group, group_gathers)) = best_of(scale.repeats, || {
            run_storm(WalFsyncMode::Group, writers, commits)
        });
        let always_tput = total / always.as_secs_f64();
        let group_tput = total / group.as_secs_f64();
        let speedup = group_tput / always_tput;
        let always_fsyncs_per_commit = always_fsyncs as f64 / total;
        let group_fsyncs_per_commit = group_fsyncs as f64 / total;
        println!(
            "{:<8} {:>10.1} {:>10.1} {:>12.0} {:>12.0} {:>8.2}x {:>9.3} {:>9.3} {:>8}",
            writers,
            always.as_secs_f64() * 1e3,
            group.as_secs_f64() * 1e3,
            always_tput,
            group_tput,
            speedup,
            always_fsyncs_per_commit,
            group_fsyncs_per_commit,
            max_group
        );
        cells.push(Cell {
            writers,
            commits,
            always_ms: always.as_secs_f64() * 1e3,
            group_ms: group.as_secs_f64() * 1e3,
            always_commits_per_sec: always_tput,
            group_commits_per_sec: group_tput,
            speedup,
            always_fsyncs_per_commit,
            group_fsyncs_per_commit,
            max_group,
            group_gathers,
        });
    }

    write_results(
        "wal_group_commit.json",
        "wal_commit",
        &scale,
        &[
            ("sync_delay_us", Field::Int(SYNC_DELAY_US)),
            (
                "model",
                Field::Text(
                    "per-writer tables, auto-commit single-row inserts, \
                     best-of wall clock per cell",
                ),
            ),
        ],
        &cells.iter().map(Cell::fields).collect::<Vec<_>>(),
    );

    // The coordinator must actually batch once there is anyone to batch.
    let batched: Vec<&Cell> = cells.iter().filter(|c| c.writers >= 8).collect();
    for c in &batched {
        assert!(
            c.max_group >= 2,
            "at {} writers the leader must pick up followers (max batch {})",
            c.writers,
            c.max_group
        );
        // Committers that arrive during a barrier form the next group by
        // themselves, so a leader that never waited would still batch and
        // match always-fsync: the wait itself is checked.
        assert!(
            c.group_gathers > 0,
            "at {} writers no group-commit leader waited to gather committers",
            c.writers
        );
        assert!(
            c.group_fsyncs_per_commit <= 0.5,
            "at {} writers group commit must share each fsync among at least \
             two commits (got {:.3} fsyncs per commit)",
            c.writers,
            c.group_fsyncs_per_commit
        );
    }
    // Throughput is pooled over those cells: one cell is the best of its
    // repeats of ~0.1 s of wall time, and its ratio alone swings with
    // scheduling (0.86-2.08x at 16 and 32 writers on a 2-vCPU box), so a
    // per-cell check failed about one run in sixteen with the coordinator
    // working. Both modes run the same commits, so the pooled throughput
    // ratio is the ratio of the cells' summed wall times.
    let total_ms = |ms: fn(&Cell) -> f64| batched.iter().map(|c| ms(c)).sum::<f64>();
    let speedup = total_ms(|c| c.always_ms) / total_ms(|c| c.group_ms);
    println!("\npooled over 8+ writers: group {speedup:.2}x always-fsync throughput");
    assert!(
        speedup >= 1.0,
        "group commit must not be slower than always-fsync over the cells of \
         8+ writers (got {speedup:.2}x pooled)"
    );
}
