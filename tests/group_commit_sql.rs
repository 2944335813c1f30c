//! Group commit, read from SQL: the engine's own `ima$wal` counters explain
//! the fsyncs a concurrent insert load saves.
//!
//! A test binary of its own on purpose: the test measures how committers
//! batch, and other tests running beside it on the harness's threads would
//! take the CPU the two writers share.

use std::sync::Arc;

use ingot::common::WalFsyncMode;
use ingot::prelude::*;

fn open(dir: &std::path::Path) -> Arc<Engine> {
    Engine::builder()
        .config(EngineConfig::default().with_wal_fsync_mode(WalFsyncMode::Group))
        .path(dir)
        .build()
        .unwrap()
}

/// `(grouped_commits, groups, fsyncs)`, read from `ima$wal`.
fn wal_batching(engine: &Arc<Engine>) -> (i64, i64, i64) {
    let r = engine
        .open_session()
        .execute("select grouped_commits, groups, fsyncs from ima$wal")
        .unwrap();
    let int = |i: usize| r.rows[0].get(i).as_int().unwrap();
    (int(0), int(1), int(2))
}

/// Two closed-loop writers on a file-backed group-commit engine share their
/// fsyncs, and the engine's own counters show it: read from `ima$wal`
/// alone, each group acknowledges at least 1.5 commits. (A leader that
/// gathered only when a follower was already queued read ≈ 1.03 here: with
/// two writers the one just acknowledged has always left at the next
/// election.)
#[test]
fn two_writers_share_their_fsyncs_by_ima_wal() {
    const PER_WRITER: i64 = 1_000;
    let dir = std::env::temp_dir().join(format!("ingot-group-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let e = open(&dir);
    e.open_session()
        .execute("create table t (a int not null, b int)")
        .unwrap();
    let before = wal_batching(&e);
    std::thread::scope(|scope| {
        for writer in 0..2 {
            let e = &e;
            scope.spawn(move || {
                let s = e.open_session();
                let insert = s.prepare("insert into t values ($1, $2)").unwrap();
                for i in 0..PER_WRITER {
                    insert
                        .execute(&[Value::Int(writer * PER_WRITER + i), Value::Int(writer)])
                        .unwrap();
                }
            });
        }
    });
    let after = wal_batching(&e);
    let (commits, groups, fsyncs) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    assert_eq!(
        commits,
        2 * PER_WRITER,
        "every insert is one acknowledged commit"
    );
    let per_group = commits as f64 / groups as f64;
    println!(
        "{commits} commits, {groups} groups ({per_group:.2} commits per group), \
         {fsyncs} fsyncs ({:.2} per commit)",
        fsyncs as f64 / commits as f64
    );
    assert!(per_group >= 1.5, "{per_group:.2} commits per group");
    assert!(fsyncs <= groups, "every fsync is some group's barrier");
    drop(e);
    std::fs::remove_dir_all(&dir).unwrap();
}
