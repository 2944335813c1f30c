//! Row-level MVCC integration: snapshot reads that never block writers,
//! a commit parked in its WAL barrier that holds up no reader and no writer
//! of another row, first-committer-wins, `ima$transactions`, and
//! version-chain GC.

// Real-time pacing: sleeps coordinate contending sessions — the sanctioned
// exception to the workspace sleep ban.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ingot::common::WalFsyncMode;
use ingot::prelude::*;

fn engine() -> Arc<Engine> {
    Engine::builder()
        .config(EngineConfig {
            lock_timeout_ms: 400,
            ..EngineConfig::monitoring()
        })
        .build()
        .unwrap()
}

fn metric(rows: &[Row], name: &str) -> i64 {
    rows.iter()
        .find(|r| r.get(0).as_str() == Some(name))
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .get(2)
        .as_int()
        .unwrap()
}

#[test]
fn snapshot_readers_never_block_writers() {
    let e = engine();
    let s1 = e.open_session();
    s1.execute("create table t (id int not null primary key, v int)")
        .unwrap();
    s1.execute("insert into t values (1, 10)").unwrap();

    // Writer holds an uncommitted update (row-X + table-S fence).
    s1.begin().unwrap();
    s1.execute("update t set v = 20 where id = 1").unwrap();

    // A reader on another session sees the pre-update value without ever
    // queueing on a lock.
    let waits_before = e.locks().stats().waits_total;
    let s2 = e.open_session();
    let r = s2.execute("select v from t where id = 1").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(10), "pre-commit value");
    assert_eq!(
        e.locks().stats().waits_total,
        waits_before,
        "snapshot read must not wait on the writer"
    );

    // ...while the writer reads its own uncommitted version.
    let r = s1.execute("select v from t where id = 1").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(20), "own write visible");

    s1.commit().unwrap();
    let r = s2.execute("select v from t where id = 1").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(20), "post-commit value");
}

/// Whether `ima$active_sessions` shows an `update hot …` statement inside
/// its WAL barrier.
fn update_in_wal_fsync(observer: &Session) -> bool {
    let r = observer
        .execute("select statement, event from ima$active_sessions")
        .unwrap();
    r.rows.iter().any(|row| {
        row.get(0)
            .as_str()
            .is_some_and(|t| t.starts_with("update hot"))
            && row.get(1).as_str() == Some("WalFsync")
    })
}

/// An auto-commit update parked for 300 ms inside its commit barrier holds
/// nothing that a reader of its row, or a writer of another row of its
/// table, waits for: both finish while it is still parked, with no lock
/// wait at all, and the reader sees the value from before the commit. A
/// table lock held across the commit, or any engine-wide statement lock,
/// makes them queue behind the barrier and fails this.
#[test]
fn a_commit_parked_in_its_barrier_holds_up_no_reader_and_no_other_row() {
    let e = Engine::builder()
        .config(EngineConfig {
            wal_fsync_mode: WalFsyncMode::Always,
            wal_sync_delay_us: 300_000,
            lock_timeout_ms: 400,
            ..EngineConfig::monitoring()
        })
        .build()
        .unwrap();
    let setup = e.open_session();
    setup
        .execute("create table hot (id int not null primary key, v int)")
        .unwrap();
    setup
        .execute("insert into hot values (1, 0), (2, 0)")
        .unwrap();

    let writer = {
        let e = Arc::clone(&e);
        std::thread::spawn(move || {
            e.open_session()
                .execute("update hot set v = 1 where id = 1")
                .map(|r| r.affected)
        })
    };
    let observer = e.open_session();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !update_in_wal_fsync(&observer) {
        assert!(
            !writer.is_finished() && Instant::now() < deadline,
            "the writer was never seen inside its commit barrier"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let waits_before = e.locks().stats().waits_total;
    let reader = e.open_session();
    for _ in 0..5 {
        let r = reader.execute("select v from hot where id = 1").unwrap();
        assert_eq!(r.rows[0].get(0).as_int(), Some(0), "pre-commit value");
    }
    let other = e.open_session();
    other.begin().unwrap();
    let r = other.execute("update hot set v = 2 where id = 2").unwrap();
    assert_eq!(r.affected, 1);
    assert_eq!(
        e.locks().stats().waits_total,
        waits_before,
        "neither the reader nor the other row's writer waited on a lock"
    );
    assert!(
        update_in_wal_fsync(&observer),
        "both finished while the writer was still inside its barrier"
    );

    assert_eq!(writer.join().unwrap().unwrap(), 1);
    let r = reader.execute("select v from hot where id = 1").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(1), "post-commit value");
    other.commit().unwrap();
    let r = reader.execute("select v from hot where id = 2").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(2));
}

#[test]
fn explicit_transactions_read_a_stable_snapshot() {
    let e = engine();
    let s1 = e.open_session();
    s1.execute("create table t (id int not null primary key, v int)")
        .unwrap();
    s1.execute("insert into t values (1, 1)").unwrap();

    // The reader's snapshot pins at its first statement and holds for the
    // whole transaction (snapshot isolation), even across foreign commits.
    let s2 = e.open_session();
    s2.begin().unwrap();
    let r = s2.execute("select v from t where id = 1").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(1));

    s1.execute("update t set v = 2 where id = 1").unwrap(); // auto-commit

    let r = s2.execute("select v from t where id = 1").unwrap();
    assert_eq!(
        r.rows[0].get(0).as_int(),
        Some(1),
        "repeatable read inside the transaction"
    );
    s2.commit().unwrap();
    let r = s2.execute("select v from t where id = 1").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(2), "fresh snapshot after");
}

#[test]
fn first_committer_wins_aborts_the_stale_writer() {
    let e = engine();
    let s1 = e.open_session();
    s1.execute("create table t (id int not null primary key, v int)")
        .unwrap();
    s1.execute("insert into t values (1, 0)").unwrap();

    // B snapshots first, then A updates and commits, then B tries to write
    // the row it read: B's base version was superseded, so B must lose.
    let s2 = e.open_session();
    s2.begin().unwrap();
    let r = s2.execute("select v from t where id = 1").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(0));

    s1.execute("update t set v = 1 where id = 1").unwrap(); // auto-commit

    let err = s2.execute("update t set v = 99 where id = 1").unwrap_err();
    assert!(matches!(err, Error::WriteConflict(_)), "{err:?}");

    // The conflict aborted B's transaction and the abort taxonomy shows it.
    let s3 = e.open_session();
    let r = s3.execute("select * from ima$transactions").unwrap();
    assert!(metric(&r.rows, "aborts_write_conflict") >= 1, "{r:?}");

    // The winner's value survives; B can retry on a fresh snapshot.
    let r = s2.execute("select v from t where id = 1").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(1), "winner's value");
    s2.execute("update t set v = 99 where id = 1").unwrap();
    let r = s2.execute("select v from t where id = 1").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(99));
}

#[test]
fn ima_transactions_is_queryable_under_load() {
    let e = engine();
    {
        let s = e.open_session();
        s.execute("create table t (id int not null primary key, v int)")
            .unwrap();
        for i in 0..4 {
            s.execute(&format!("insert into t values ({i}, 0)"))
                .unwrap();
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..3 {
        let e = Arc::clone(&e);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let s = e.open_session();
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                s.execute(&format!("update t set v = v + 1 where id = {}", w % 4))
                    .unwrap();
                n += 1;
            }
            n
        }));
    }

    // Query the MVCC authority while the writers hammer: the virtual table
    // is lock-free, so every read completes and the commit sequence climbs.
    let s = e.open_session();
    let mut last_seq = 0i64;
    for _ in 0..50 {
        let r = s.execute("select * from ima$transactions").unwrap();
        let seq = metric(&r.rows, "commit_seq");
        assert!(seq >= last_seq, "commit_seq is monotone");
        last_seq = seq;
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    let committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(committed > 0);

    let r = s.execute("select * from ima$transactions").unwrap();
    assert!(
        metric(&r.rows, "commit_seq") as u64 >= committed,
        "every auto-commit update published a timestamp: {r:?}"
    );
    assert!(metric(&r.rows, "committed_total") as u64 >= committed);
    // Undo failures are surfaced as their own counter (and none occurred:
    // every abort here replayed its undo chain cleanly).
    assert_eq!(metric(&r.rows, "undo_failures"), 0, "{r:?}");

    // An open snapshot appears as a per-transaction row...
    s.begin().unwrap();
    s.execute("select count(*) from t").unwrap();
    let r = s.execute("select * from ima$transactions").unwrap();
    assert!(metric(&r.rows, "active_snapshots") >= 1, "{r:?}");
    assert!(
        r.rows
            .iter()
            .any(|row| row.get(0).as_str() == Some("snapshot_ts") && row.get(1).as_int().is_some()),
        "snapshot_ts row names its holder: {r:?}"
    );
    s.commit().unwrap();
}

#[test]
fn gc_reclaims_dead_versions_and_updates_counters() {
    let e = engine();
    let s = e.open_session();
    s.execute("create table t (id int not null primary key, v int)")
        .unwrap();
    s.execute("insert into t values (1, 0)").unwrap();
    for _ in 0..20 {
        s.execute("update t set v = v + 1 where id = 1").unwrap();
    }

    let removed = e.mvcc_gc().unwrap();
    assert!(removed >= 19, "dead versions reclaimed: {removed}");

    let r = s.execute("select v from t where id = 1").unwrap();
    assert_eq!(
        r.rows[0].get(0).as_int(),
        Some(20),
        "live value survives GC"
    );

    let r = s.execute("select * from ima$transactions").unwrap();
    assert!(metric(&r.rows, "gc_runs") >= 1, "{r:?}");
    assert!(metric(&r.rows, "gc_versions_removed") >= 19, "{r:?}");
    assert!(metric(&r.rows, "chain_versions") >= 1, "{r:?}");
    assert_eq!(metric(&r.rows, "chain_longest"), 1, "chains trimmed: {r:?}");

    // An open transaction blocks the sweep outright: GC runs only on a
    // quiesced engine (lock-free readers may be walking the very chains it
    // would unlink), so its snapshot's versions are safe by construction.
    let s2 = e.open_session();
    s2.begin().unwrap();
    let r = s2.execute("select v from t where id = 1").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(20));
    s.execute("update t set v = 100 where id = 1").unwrap();
    assert!(e.mvcc_gc().is_err(), "open transaction blocks the sweep");
    let r = s2.execute("select v from t where id = 1").unwrap();
    assert_eq!(
        r.rows[0].get(0).as_int(),
        Some(20),
        "the old snapshot still reads its version"
    );
    s2.commit().unwrap();
    assert!(e.mvcc_gc().unwrap() >= 1, "superseded version reclaimed");
    let r = s.execute("select v from t where id = 1").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(100));
}
