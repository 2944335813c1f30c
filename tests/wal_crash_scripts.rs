//! Crash-scripted replay proofs for the write-ahead log.
//!
//! Each test drives a file-backed engine through a committed workload mix,
//! scripts a deterministic power cut at one of the WAL's fault points
//! (append, mid-fsync, torn tail, checkpoint truncation), reopens the same
//! directory and asserts the **acknowledged-commit invariant**: every commit
//! that returned `Ok` before the cut is present after recovery, and nothing
//! that was never acknowledged (in-flight statements, rolled-back or
//! unfinished transactions) survives. A property test closes the loop:
//! random interleaved commit/abort histories replay to exactly the table
//! state observed before the crash. Crashes inside a checkpoint's page
//! writes come from `checkpoint_cut`.

mod checkpoint_cut;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ingot::common::WalFsyncMode;
use ingot::prelude::*;
use ingot::storage::{FaultEffect, FaultOp, RESERVE_STEP, WAL_FILE};
use proptest::prelude::*;

use checkpoint_cut::{pages_and_manifest, Cut, Point};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory per scenario (proptest cases included).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ingot-walcrash-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open(dir: &Path, mode: WalFsyncMode) -> Arc<Engine> {
    Engine::builder()
        .config(EngineConfig::default().with_wal_fsync_mode(mode))
        .path(dir)
        .build()
        .unwrap()
}

fn table_ints(engine: &Arc<Engine>) -> Vec<i64> {
    let s = engine.open_session();
    let r = s.execute("select a from t order by a").unwrap();
    r.rows
        .iter()
        .map(|row| row.get(0).as_int().unwrap())
        .collect()
}

/// The committed workload mix every crash script runs first: auto-commit
/// inserts, a multi-row update, a multi-row delete, one explicit committed
/// transaction and one explicitly rolled-back transaction.
fn seed_mix(s: &Session) {
    s.execute("create table t (a int not null, b text)")
        .unwrap();
    for i in 0..8 {
        s.execute(&format!("insert into t values ({i}, 'seed {i}')"))
            .unwrap();
    }
    s.execute("update t set b = 'touched' where a < 3").unwrap();
    s.execute("delete from t where a >= 6").unwrap();
    s.begin().unwrap();
    s.execute("insert into t values (100, 'explicit commit')")
        .unwrap();
    s.commit().unwrap();
    s.begin().unwrap();
    s.execute("insert into t values (200, 'rolled back')")
        .unwrap();
    s.rollback().unwrap();
}

/// What the mix leaves behind: the surviving seeds plus the explicit commit.
const MIX_STATE: [i64; 7] = [0, 1, 2, 3, 4, 5, 100];

/// Crash point `crash_after_wal_append`: the Commit record reaches the OS
/// but the covering fsync dies. The statement must fail (never acknowledged)
/// and recovery must keep exactly the acknowledged history.
#[test]
fn crash_after_wal_append_discards_the_unacknowledged_commit() {
    let dir = scratch_dir("append-ack");
    {
        let e = open(&dir, WalFsyncMode::Always);
        let s = e.open_session();
        seed_mix(&s);
        e.wal().set_fault_plan(FaultPlan::new().with_rule(
            FaultOp::WalFsync,
            1,
            u64::MAX,
            FaultEffect::Crash,
        ));
        let err = s
            .execute("insert into t values (300, 'never acked')")
            .unwrap_err();
        assert!(err.to_string().contains("power cut"), "{err}");
        assert!(e.wal().is_crashed(), "the power cut must kill the log");
    }
    let e = open(&dir, WalFsyncMode::Always);
    assert_eq!(table_ints(&e), MIX_STATE);
    let stats = e.wal_stats();
    assert!(
        stats.replayed_txns >= 1,
        "the committed history must be redone from the log: {stats:?}"
    );
}

/// Crash point `torn_wal_tail`: the power cut lands mid-frame, leaving a
/// partial record on the platter. Salvage must drop exactly the torn tail,
/// and the reopened engine must keep committing.
#[test]
fn torn_wal_tail_is_salvaged_to_the_last_durable_commit() {
    let dir = scratch_dir("torn");
    {
        let e = open(&dir, WalFsyncMode::Always);
        let s = e.open_session();
        seed_mix(&s);
        e.wal().set_fault_plan(FaultPlan::new().with_rule(
            FaultOp::WalAppend,
            1,
            u64::MAX,
            FaultEffect::Torn(5),
        ));
        let err = s
            .execute("insert into t values (300, 'torn away')")
            .unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
    }
    let e = open(&dir, WalFsyncMode::Always);
    assert_eq!(table_ints(&e), MIX_STATE);
    let stats = e.wal_stats();
    assert!(
        stats.discarded_bytes > 0,
        "the torn tail must be counted as discarded: {stats:?}"
    );
    let s = e.open_session();
    s.execute("insert into t values (7, 'post-recovery')")
        .unwrap();
    assert_eq!(table_ints(&e), vec![0, 1, 2, 3, 4, 5, 7, 100]);
}

/// Crash point `crash_mid_fsync` under group commit: the batch leader's
/// fsync dies; no rider of that batch may be acknowledged.
#[test]
fn group_commit_crash_mid_fsync_loses_no_acknowledged_commit() {
    let dir = scratch_dir("group-fsync");
    {
        let e = open(&dir, WalFsyncMode::Group);
        let s = e.open_session();
        seed_mix(&s);
        e.wal().set_fault_plan(FaultPlan::new().with_rule(
            FaultOp::WalFsync,
            1,
            u64::MAX,
            FaultEffect::Crash,
        ));
        let err = s
            .execute("insert into t values (300, 'doomed rider')")
            .unwrap_err();
        assert!(err.to_string().contains("power cut"), "{err}");
    }
    let e = open(&dir, WalFsyncMode::Group);
    assert_eq!(table_ints(&e), MIX_STATE);
}

/// Crash point `crash_during_checkpoint_truncate`: the checkpoint image is
/// installed but the log truncation dies. Recovery must come up on the new
/// checkpoint without double-applying the pre-checkpoint history, and a
/// later checkpoint must complete normally.
#[test]
fn crash_during_checkpoint_truncate_replays_from_the_full_log() {
    let dir = scratch_dir("ckpt-truncate");
    {
        let e = open(&dir, WalFsyncMode::Always);
        let s = e.open_session();
        seed_mix(&s);
        e.checkpoint().unwrap();
        s.execute("insert into t values (300, 'after checkpoint one')")
            .unwrap();
        e.wal().set_fault_plan(FaultPlan::new().with_rule(
            FaultOp::WalTruncate,
            1,
            u64::MAX,
            FaultEffect::Crash,
        ));
        let err = e.checkpoint().unwrap_err();
        assert!(err.to_string().contains("power cut"), "{err}");
    }
    let expected = [0, 1, 2, 3, 4, 5, 100, 300];
    let e = open(&dir, WalFsyncMode::Always);
    assert_eq!(table_ints(&e), expected);
    e.checkpoint().unwrap();
    drop(e);
    let e = open(&dir, WalFsyncMode::Always);
    assert_eq!(table_ints(&e), expected);
}

/// Every row of the heap table `t` and the B-Tree table `k`, in key order.
fn both_tables(engine: &Arc<Engine>) -> Vec<Row> {
    let s = engine.open_session();
    let mut rows = s.execute("select a, b from t order by a").unwrap().rows;
    rows.extend(s.execute("select id, v from k order by id").unwrap().rows);
    rows
}

/// A second checkpoint cut short, on a heap and a B-Tree table that took
/// an update and a delete since the first: (a) while its images are staged
/// (no temp file, a torn one, all but its last byte), (b) after each k of
/// its m in-place page writes with the next page torn, (c) after every
/// write but before the images are dropped. Each state reopens with
/// exactly the acknowledged rows, and a second reopen changes nothing.
#[test]
fn a_checkpoint_cut_anywhere_reopens_with_every_acknowledged_row() {
    let dir = scratch_dir("ckpt-cut");
    let pad = "k".repeat(200);
    let (cut, acked) = {
        let e = open(&dir, WalFsyncMode::Always);
        let s = e.open_session();
        seed_mix(&s);
        s.execute("create table k (id int not null primary key, v text)")
            .unwrap();
        s.execute("modify k to btree").unwrap();
        for i in 0..200 {
            s.execute(&format!("insert into k values ({i}, '{i} {pad}')"))
                .unwrap();
        }
        e.checkpoint().unwrap();
        s.execute("update k set v = 'updated' where id < 120")
            .unwrap();
        s.execute("delete from k where id >= 160").unwrap();
        s.execute("update t set b = 'after one' where a = 4")
            .unwrap();
        s.execute("delete from t where a = 5").unwrap();
        let acked = both_tables(&e);
        (Cut::run(&dir, &e, || e.checkpoint().map(|_| ())), acked)
    };
    let written = cut.written().len();
    assert!(written >= 4, "the checkpoint writes {written} pages");
    let staged = cut.staged().len();
    let points = [0, staged / 2, staged - 1]
        .map(Point::Staging)
        .into_iter()
        .chain((0..written).map(Point::Applying))
        .chain([Point::Applied]);
    for point in points {
        let crashed = scratch_dir("ckpt-cut-state");
        cut.crash_state(&crashed, point);
        let e = Engine::builder()
            .path(&crashed)
            .build()
            .unwrap_or_else(|err| panic!("{point:?}: reopen failed: {err}"));
        assert_eq!(both_tables(&e), acked, "{point:?}");
        drop(e);
        let once = pages_and_manifest(&crashed);
        let e = open(&crashed, WalFsyncMode::Always);
        assert_eq!(both_tables(&e), acked, "{point:?}: second reopen");
        drop(e);
        assert!(
            pages_and_manifest(&crashed) == once,
            "{point:?}: a second reopen changed the pages or the manifest"
        );
        std::fs::remove_dir_all(&crashed).unwrap();
    }
}

/// A checkpoint whose in-place writes fail once its images are staged has
/// still taken its epoch, so the retry logs the next one. A crash before the
/// retry's stage is installed then replays from the first attempt's
/// `Checkpoint` record, and the commits between the attempts survive.
#[test]
fn a_checkpoint_retried_after_a_failed_apply_keeps_the_commits_between() {
    let dir = scratch_dir("ckpt-retry");
    let (cut, acked) = {
        let e = open(&dir, WalFsyncMode::Always);
        let s = e.open_session();
        seed_mix(&s);
        e.checkpoint().unwrap();
        s.execute("update t set b = 'before the attempt' where a = 1")
            .unwrap();
        // The apply opens each data file by path: a directory in a file's
        // place fails it after the stage.
        let (path, aside) = (dir.join("ingot_0000.dat"), dir.join("aside"));
        std::fs::rename(&path, &aside).unwrap();
        std::fs::create_dir(&path).unwrap();
        assert!(e.checkpoint().is_err(), "the apply must fail");
        std::fs::remove_dir(&path).unwrap();
        std::fs::rename(&aside, &path).unwrap();
        for i in 300..305 {
            s.execute(&format!("insert into t values ({i}, 'between')"))
                .unwrap();
        }
        s.execute("delete from t where a = 4").unwrap();
        let acked = table_ints(&e);
        (Cut::run(&dir, &e, || e.checkpoint().map(|_| ())), acked)
    };
    assert_eq!(acked, [0, 1, 2, 3, 5, 100, 300, 301, 302, 303, 304]);
    // The retry cut before its stage was installed: the first attempt's
    // manifest, its pages as they were, and the retry's log.
    let crashed = scratch_dir("ckpt-retry-state");
    cut.crash_state(&crashed, Point::Staging(0));
    let e = open(&crashed, WalFsyncMode::Always);
    assert_eq!(table_ints(&e), acked);
}

/// A transaction whose records are durable (a later commit's fsync covered
/// them) but that never committed is a *loser*: replay must discard its
/// mutations while redoing the interleaved winner.
#[test]
fn durable_loser_records_are_discarded_by_replay() {
    let dir = scratch_dir("loser");
    {
        let e = open(&dir, WalFsyncMode::Always);
        let s1 = e.open_session();
        s1.execute("create table t (a int not null, b text)")
            .unwrap();
        s1.execute("create table u (a int not null, b text)")
            .unwrap();
        let s2 = e.open_session();
        s2.begin().unwrap();
        s2.execute("insert into u values (99, 'loser')").unwrap();
        // s1's auto-commit barrier makes the whole log durable, the loser's
        // Begin/Insert records included.
        s1.execute("insert into t values (1, 'winner')").unwrap();
        // Power cut before s2 resolves: its best-effort Abort record hits
        // the dead log and is dropped on the floor.
        e.wal().set_fault_plan(FaultPlan::new().with_rule(
            FaultOp::WalAppend,
            1,
            u64::MAX,
            FaultEffect::Crash,
        ));
        drop(s2);
        assert!(e.wal().is_crashed());
    }
    let e = open(&dir, WalFsyncMode::Always);
    assert_eq!(table_ints(&e), vec![1]);
    let s = e.open_session();
    let u = s.execute("select a from u").unwrap();
    assert!(
        u.rows.is_empty(),
        "the uncommitted insert must not survive replay"
    );
}

/// Power cut mid-commit with an open version chain: a committed winner and
/// an in-flight loser both stack versions on the *same row*. The loser's
/// Begin/Update records are durable but its Commit fsync dies, so the
/// statement is never acknowledged. Recovery must rebuild the chain with
/// the winner's version visible and the loser's version discarded — and
/// the reopened chain must stay writable and GC-able (no stale uncommitted
/// marker wedging the head).
#[test]
fn mid_commit_crash_discards_the_losers_version_chain_entry() {
    let dir = scratch_dir("mvcc-chain");
    {
        let e = open(&dir, WalFsyncMode::Always);
        let s1 = e.open_session();
        s1.execute("create table t (a int not null, b text)")
            .unwrap();
        s1.execute("insert into t values (1, 'v0')").unwrap();
        // The winner supersedes v0 and is acknowledged durable.
        s1.execute("update t set b = 'winner' where a = 1").unwrap();
        // The loser stacks a third version on the same chain inside an
        // explicit transaction; its Begin/Update records reach the log...
        let s2 = e.open_session();
        s2.begin().unwrap();
        s2.execute("update t set b = 'loser' where a = 1").unwrap();
        // ...but the power cut lands on the Commit record's fsync, so the
        // commit is never acknowledged.
        e.wal().set_fault_plan(FaultPlan::new().with_rule(
            FaultOp::WalFsync,
            1,
            u64::MAX,
            FaultEffect::Crash,
        ));
        let err = s2.commit().unwrap_err();
        assert!(err.to_string().contains("power cut"), "{err}");
        assert!(e.wal().is_crashed(), "the power cut must kill the log");
    }
    let e = open(&dir, WalFsyncMode::Always);
    let s = e.open_session();
    let r = s.execute("select b from t where a = 1").unwrap();
    assert_eq!(r.rows.len(), 1, "exactly one visible version of the row");
    assert_eq!(
        r.rows[0].get(0).as_str(),
        Some("winner"),
        "recovery must keep the winner's version and discard the loser's"
    );
    // The rebuilt chain is not wedged: it accepts new versions and the
    // sweep reclaims the superseded ones.
    s.execute("update t set b = 'after recovery' where a = 1")
        .unwrap();
    let r = s.execute("select b from t where a = 1").unwrap();
    assert_eq!(r.rows[0].get(0).as_str(), Some("after recovery"));
    assert!(
        e.mvcc_gc().unwrap() >= 1,
        "the sweep must reclaim the superseded winner version"
    );
}

/// The full crash-point × fsync-mode matrix over the shared workload mix:
/// whatever fails — a scripted cut, a torn tail, or a permanent or transient
/// fsync fault — the statement in flight fails, the log stays dead (so the
/// next statement fails too and cannot make the failed one durable), and
/// recovery reproduces exactly the acknowledged state. Each plan faults
/// only the first matching operation.
#[test]
fn every_crash_point_preserves_acknowledged_commits() {
    let modes = [
        (WalFsyncMode::Always, "always", 7),
        (WalFsyncMode::Group, "group", 3),
    ];
    for (mode, m, torn) in modes {
        for (op, effect, what) in [
            (FaultOp::WalAppend, FaultEffect::Crash, "append"),
            (FaultOp::WalAppend, FaultEffect::Torn(torn), "torn"),
            (FaultOp::WalFsync, FaultEffect::Crash, "fsync"),
            (FaultOp::WalFsync, FaultEffect::Permanent, "fsync-permanent"),
            (FaultOp::WalFsync, FaultEffect::Transient, "fsync-transient"),
        ] {
            let tag = format!("{m}-{what}");
            let dir = scratch_dir(&tag);
            {
                let e = open(&dir, mode);
                let s = e.open_session();
                seed_mix(&s);
                e.wal()
                    .set_fault_plan(FaultPlan::new().with_rule(op, 1, 1, effect));
                assert!(
                    s.execute("insert into t values (300, 'doomed')").is_err(),
                    "{tag}: the in-flight statement must fail at the crash point"
                );
                assert!(
                    s.execute("insert into t values (301, 'after')").is_err(),
                    "{tag}: the log must stay dead after the failure"
                );
            }
            let e = open(&dir, mode);
            assert_eq!(table_ints(&e), MIX_STATE, "{tag}");
        }
    }
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(WAL_FILE)).unwrap().len()
}

/// The log file keeps a zero-filled reservation ahead of its end. A clean
/// shutdown and reopen is not a torn tail: nothing is discarded, the same
/// state comes back, and the reservation survives the open.
#[test]
fn clean_reopen_keeps_the_reserved_tail() {
    let dir = scratch_dir("reserve-clean");
    {
        let e = open(&dir, WalFsyncMode::Group);
        seed_mix(&e.open_session());
    }
    let len = wal_len(&dir);
    assert_eq!(len % RESERVE_STEP, 0, "the log grows in whole steps: {len}");
    let e = open(&dir, WalFsyncMode::Group);
    assert_eq!(table_ints(&e), MIX_STATE);
    assert_eq!(e.wal_stats().discarded_bytes, 0, "{:?}", e.wal_stats());
    assert_eq!(wal_len(&dir), len, "open keeps the reservation");
}

/// A torn frame lands inside the reservation: salvage counts only its
/// non-zero bytes (never the zero tail behind it), truncates it away, and a
/// third open is clean.
#[test]
fn torn_frame_in_the_reservation_is_counted_and_truncated() {
    let dir = scratch_dir("reserve-torn");
    let keep = 9;
    {
        let e = open(&dir, WalFsyncMode::Always);
        let s = e.open_session();
        seed_mix(&s);
        e.wal().set_fault_plan(FaultPlan::new().with_rule(
            FaultOp::WalAppend,
            1,
            u64::MAX,
            FaultEffect::Torn(keep),
        ));
        assert!(s.execute("insert into t values (300, 'torn')").is_err());
    }
    assert_eq!(
        wal_len(&dir) % RESERVE_STEP,
        0,
        "the torn prefix sits in a step"
    );
    let e = open(&dir, WalFsyncMode::Always);
    assert_eq!(table_ints(&e), MIX_STATE);
    let stats = e.wal_stats();
    assert!(
        (1..=keep as u64).contains(&stats.discarded_bytes),
        "only the torn frame's bytes are discarded: {stats:?}"
    );
    drop(e);
    let e = open(&dir, WalFsyncMode::Always);
    assert_eq!(e.wal_stats().discarded_bytes, 0, "third open is clean");
    assert_eq!(table_ints(&e), MIX_STATE);
}

/// Enough log to cross several reservation steps, a checkpoint that
/// rewrites the log (and reserves again), then more commits: everything
/// acknowledged reopens intact.
#[test]
fn commits_across_reservation_steps_and_a_checkpoint_reopen_intact() {
    let dir = scratch_dir("reserve-steps");
    let pad = "p".repeat(1_500);
    let mut expected = MIX_STATE.to_vec();
    {
        let e = open(&dir, WalFsyncMode::Group);
        let s = e.open_session();
        seed_mix(&s);
        for i in 1_000..1_120 {
            s.execute(&format!("insert into t values ({i}, '{pad}')"))
                .unwrap();
            expected.push(i);
        }
        assert!(wal_len(&dir) >= 3 * RESERVE_STEP, "{}", wal_len(&dir));
        e.checkpoint().unwrap();
        assert_eq!(wal_len(&dir), RESERVE_STEP, "the rewrite starts a new step");
        for i in 2_000..2_060 {
            s.execute(&format!("insert into t values ({i}, '{pad}')"))
                .unwrap();
            expected.push(i);
        }
    }
    expected.sort_unstable();
    let e = open(&dir, WalFsyncMode::Group);
    assert_eq!(e.wal_stats().discarded_bytes, 0);
    assert_eq!(table_ints(&e), expected);
}

/// The `(name, id)` of every base table, in name order.
fn table_ids(engine: &Engine) -> Vec<(String, u32)> {
    let catalog = engine.catalog().read();
    let mut ids: Vec<_> = catalog
        .tables()
        .map(|t| (t.meta.name.to_string(), t.meta.id.raw()))
        .collect();
    ids.sort();
    ids
}

/// Schema changes racing checkpoints: two sessions create tables while a
/// third thread checkpoints in a loop, then the engine crashes (no final
/// checkpoint) and reopens through WAL replay. Each `Ddl` record must be
/// logged in the order its table took its id, and on the same side of a
/// checkpoint's cut as the schema that checkpoint dumps — else replay
/// hands out the ids in another order, or re-runs a CREATE the image
/// already holds and the engine cannot reopen.
#[test]
fn ddl_racing_checkpoints_reopens_with_every_id() {
    const PER_SESSION: usize = 60;
    let dir = scratch_dir("ddl-vs-checkpoint");
    let (before, checkpoints) = {
        let e = open(&dir, WalFsyncMode::Group);
        let creating = AtomicU64::new(2);
        let checkpoints = std::thread::scope(|scope| {
            for session in 0..2 {
                let (e, creating) = (&e, &creating);
                scope.spawn(move || {
                    let s = e.open_session();
                    for i in 0..PER_SESSION {
                        s.execute(&format!("create table s{session}_{i} (a int)"))
                            .unwrap();
                    }
                    creating.fetch_sub(1, Ordering::Relaxed);
                });
            }
            let mut checkpoints = 0;
            while creating.load(Ordering::Relaxed) > 0 {
                e.checkpoint().unwrap();
                checkpoints += 1;
            }
            checkpoints
        });
        (table_ids(&e), checkpoints)
    };
    assert_eq!(before.len(), 2 * PER_SESSION);
    assert!(checkpoints > 1, "the checkpoints must overlap the creates");
    let e = Engine::builder()
        .config(EngineConfig::default().with_wal_fsync_mode(WalFsyncMode::Group))
        .path(&dir)
        .build()
        .expect("reopen through WAL replay");
    assert_eq!(table_ids(&e), before);
}

/// Copy every file of `dir` into a fresh scratch directory.
fn copy_dir(dir: &Path, tag: &str) -> PathBuf {
    let copy = scratch_dir(tag);
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            std::fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
        }
    }
    copy
}

/// Byte copies of the database directory taken while two writer sessions
/// commit and a third holds a transaction open — unsynced frames of the
/// open transaction and of the other writer's commit in flight, then the
/// zero tail. Each writer copies right after each of its acknowledgements;
/// every copy reopens with that commit and all that writer's earlier ones,
/// and without the unfinished transaction. A last copy, taken once the
/// writers are done and the open transaction's frames lie written behind
/// the commits, reopens with exactly the acknowledged rows and discards
/// nothing.
#[test]
fn byte_copy_taken_mid_run_keeps_every_acknowledged_commit() {
    const PER_WRITER: i64 = 10;
    let dir = scratch_dir("reserve-copy");
    let e = open(&dir, WalFsyncMode::Group);
    let s = e.open_session();
    seed_mix(&s);
    let open_txn = e.open_session();
    open_txn.begin().unwrap();
    open_txn
        .execute("insert into t values (400, 'unfinished')")
        .unwrap();
    let copies: Vec<(i64, PathBuf)> = std::thread::scope(|scope| {
        let writers: Vec<_> = (1..=2)
            .map(|writer| {
                let (e, dir) = (&e, &dir);
                scope.spawn(move || {
                    let s = e.open_session();
                    (0..PER_WRITER)
                        .map(|i| {
                            let key = 1_000 * writer + i;
                            s.execute(&format!("insert into t values ({key}, 'acked')"))
                                .unwrap();
                            (key, copy_dir(dir, "reserve-copy-dst"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        writers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    let quiescent = copy_dir(&dir, "reserve-copy-dst");
    drop(open_txn);
    let copied = open(&quiescent, WalFsyncMode::Group);
    let acked: Vec<i64> = MIX_STATE
        .into_iter()
        .chain((1..=2).flat_map(|w| 1_000 * w..1_000 * w + PER_WRITER))
        .collect();
    assert_eq!(table_ints(&copied), acked);
    assert_eq!(copied.wal_stats().discarded_bytes, 0);
    assert_eq!(copies.len(), 2 * PER_WRITER as usize);
    for (key, copy) in copies {
        let got = table_ints(&open(&copy, WalFsyncMode::Group));
        let acked = MIX_STATE.into_iter().chain(key - key % 1_000..=key);
        for k in acked {
            assert!(
                got.contains(&k),
                "copy after {key}: acknowledged {k} missing"
            );
        }
        assert!(
            !got.contains(&400),
            "copy after {key}: the open transaction"
        );
    }
}

/// The WAL's counters are queryable over SQL as `ima$wal` and agree with the
/// typed stats surface.
#[test]
fn ima_wal_surfaces_the_log_counters() {
    let e = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let s = e.open_session();
    s.execute("create table t (a int not null)").unwrap();
    for i in 0..4 {
        s.execute(&format!("insert into t values ({i})")).unwrap();
    }
    let r = s
        .execute(
            "select fsync_mode, appends, fsyncs, current_lsn, durable_lsn, \
             grouped_commits from ima$wal",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1, "ima$wal is a one-row table");
    let row = &r.rows[0];
    assert_eq!(row.get(0).as_str().unwrap(), "group");
    assert!(row.get(1).as_int().unwrap() > 0, "appends must be counted");
    assert!(row.get(2).as_int().unwrap() > 0, "barriers must be counted");
    assert_eq!(
        row.get(3).as_int().unwrap(),
        row.get(4).as_int().unwrap(),
        "after quiescing, everything acknowledged is durable"
    );
    let stats = e.wal_stats();
    assert_eq!(stats.appends as i64, row.get(1).as_int().unwrap());
}

fn snapshot(engine: &Arc<Engine>, table: &str) -> Vec<(i64, String)> {
    let s = engine.open_session();
    let r = s
        .execute(&format!("select a, b from {table} order by a, b"))
        .unwrap();
    r.rows
        .iter()
        .map(|row| {
            (
                row.get(0).as_int().unwrap(),
                row.get(1).as_str().unwrap_or("").to_string(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two transactions interleave record by record in the log — one per
    /// table so their locks are disjoint — each randomly committing or
    /// rolling back, on top of a committed baseline and an optional
    /// checkpoint. After an unflushed shutdown (everything since the last
    /// checkpoint exists only in the log), recovery must reproduce exactly
    /// the state observed before the cut: committed-only redo, losers
    /// discarded, idempotent across the checkpoint boundary.
    #[test]
    fn random_histories_replay_to_the_uncrashed_state(
        ops_a in prop::collection::vec(0u8..6, 1..12),
        ops_b in prop::collection::vec(0u8..6, 1..12),
        commit_a in any::<bool>(),
        commit_b in any::<bool>(),
        mid_checkpoint in any::<bool>(),
    ) {
        let dir = scratch_dir("prop");
        let before_cut;
        {
            let e = open(&dir, WalFsyncMode::Group);
            let setup = e.open_session();
            setup.execute("create table ta (a int not null, b text)").unwrap();
            setup.execute("create table tb (a int not null, b text)").unwrap();
            for i in 0..4 {
                setup.execute(&format!("insert into ta values ({i}, 'base')")).unwrap();
                setup.execute(&format!("insert into tb values ({i}, 'base')")).unwrap();
            }
            if mid_checkpoint {
                e.checkpoint().unwrap();
            }
            let sa = e.open_session();
            let sb = e.open_session();
            sa.begin().unwrap();
            sb.begin().unwrap();
            let apply = |s: &Session, table: &str, round: usize, op: u8| {
                let key = 10 + round as i64;
                match op % 3 {
                    0 => s.execute(&format!("insert into {table} values ({key}, 'w{op}')")),
                    1 => s.execute(&format!("update {table} set b = 'u{op}' where a = {}", op % 4)),
                    _ => s.execute(&format!("delete from {table} where a = {}", op % 4)),
                }
                .unwrap();
            };
            for round in 0..ops_a.len().max(ops_b.len()) {
                if let Some(op) = ops_a.get(round) {
                    apply(&sa, "ta", round, *op);
                }
                if let Some(op) = ops_b.get(round) {
                    apply(&sb, "tb", round, *op);
                }
            }
            if commit_a { sa.commit().unwrap(); } else { sa.rollback().unwrap(); }
            if commit_b { sb.commit().unwrap(); } else { sb.rollback().unwrap(); }
            before_cut = (snapshot(&e, "ta"), snapshot(&e, "tb"));
        }
        let e = open(&dir, WalFsyncMode::Group);
        prop_assert_eq!(snapshot(&e, "ta"), before_cut.0);
        prop_assert_eq!(snapshot(&e, "tb"), before_cut.1);
    }
}
