//! Wait-event + ASH integration (the observability pipeline end to end):
//! a contended multi-session workload populates `ima$wait_events`,
//! `ima$active_sessions` and `ima$ash`; per-session charges reconcile with
//! the global registry and never exceed wall time; the storage daemon rolls
//! the data into `wl_waits` / `wl_ash`; and a WalFsync-dominated write-heavy
//! interval draws a tuning recommendation from the analyzer's wait-profile
//! rules.

// Real-time pacing: contending sessions genuinely block each other here —
// the sanctioned exception to the workspace sleep ban.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;

use ingot::common::waits::{WaitEvent, WAIT_EVENT_COUNT};
use ingot::common::{MonotonicClock, StmtHash, WalFsyncMode};
use ingot::core::AshSampler;
use ingot::prelude::*;
use proptest::prelude::*;

fn contended_engine() -> Arc<Engine> {
    Engine::builder()
        .config(EngineConfig {
            // Fast ASH cadence so a short workload leaves history, and a
            // visible fsync cost so WAL waits have real wall-clock weight.
            ash_sample_interval_ms: 1,
            wal_sync_delay_us: 200,
            lock_timeout_ms: 5_000,
            ..EngineConfig::monitoring()
        })
        .build()
        .unwrap()
}

/// Eight sessions hammering one table: session wait charges reconcile with
/// the global registry, stay within wall time, and all three IMA tables
/// answer SQL afterwards.
#[test]
fn contended_sessions_populate_wait_tables() {
    let engine = contended_engine();
    let seed = engine.open_session();
    seed.execute("create table t (a int, b int)").unwrap();
    for i in 0..64 {
        seed.execute(&format!("insert into t values ({i}, 0)"))
            .unwrap();
    }

    let mut handles = Vec::new();
    for w in 0..8 {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let s = engine.open_session();
            let start = engine.wall_clock().now_nanos();
            let mut statement_wait_ns = 0u64;
            for i in 0..12 {
                // Single-statement transactions on a shared table: the table
                // lock serializes writers (LockWaitX), every commit pays the
                // WAL barrier (WalFsync, plus GroupCommitDally /
                // GroupCommitFollow when commits overlap).
                let r = s
                    .execute(&format!(
                        "update t set b = {i} where a = {}",
                        (w * 7 + i) % 64
                    ))
                    .unwrap();
                statement_wait_ns += r.wait_ns;
            }
            let elapsed = engine.wall_clock().now_nanos() - start;
            let session_total: u64 = s.wait_totals().iter().map(|t| t.total_ns).sum();
            (session_total, statement_wait_ns, elapsed)
        }));
    }
    let mut workers_total = 0u64;
    for h in handles {
        let (session_total, statement_wait_ns, elapsed) = h.join().unwrap();
        assert!(
            session_total <= elapsed,
            "a session cannot wait longer than it ran: {session_total} > {elapsed}"
        );
        assert_eq!(
            session_total, statement_wait_ns,
            "per-statement wait_ns must add up to the session's counters"
        );
        workers_total += session_total;
    }

    // Every wait was charged inside some session's statement, so the global
    // registry must equal the sum of per-session charges.
    let registry = engine.wait_registry().expect("wait subsystem on");
    let global: u64 = registry
        .counters()
        .snapshot()
        .iter()
        .map(|t| t.total_ns)
        .sum();
    let seed_total: u64 = seed.wait_totals().iter().map(|t| t.total_ns).sum();
    assert_eq!(
        global,
        workers_total + seed_total,
        "global wait time must reconcile with the per-session charges"
    );
    assert!(global > 0, "a contended commit-heavy workload must wait");
    assert!(
        registry.counters().count(WaitEvent::WalFsync) > 0,
        "every leader commit pays the fsync barrier"
    );

    // The cumulative table: always exactly one row per taxonomy event.
    let r = seed
        .execute("select event, count, total_ns from ima$wait_events")
        .unwrap();
    assert_eq!(
        r.rows.len(),
        WAIT_EVENT_COUNT,
        "one row per WaitEvent variant"
    );
    let wal_row = r
        .rows
        .iter()
        .find(|row| row.get(0).as_str() == Some("WalFsync"))
        .expect("WalFsync row");
    assert!(wal_row.get(1).as_int().unwrap() > 0);
    assert!(wal_row.get(2).as_int().unwrap() > 0);

    // The live view: the querying session is mid-statement while the
    // provider runs, so it observes at least itself.
    let r = seed
        .execute("select session, statement, event from ima$active_sessions")
        .unwrap();
    assert!(
        !r.rows.is_empty(),
        "the querying session must appear in ima$active_sessions"
    );
    assert!(r.rows.iter().any(|row| row
        .get(1)
        .as_str()
        .unwrap_or("")
        .contains("ima$active_sessions")));

    // The history ring: a 1 ms cadence over a multi-ms workload leaves rows.
    let r = seed
        .execute("select at_ns, session, event from ima$ash")
        .unwrap();
    assert!(!r.rows.is_empty(), "ASH history must be populated");
}

/// Group commit books its two waits apart: a leader dallying for followers
/// (`GroupCommitDally`, at most once per fsync it leads) and a follower
/// parked behind an fsync already in flight (`GroupCommitFollow`). Writers
/// on disjoint tables overlap their commits, so both must show up.
#[test]
fn group_commit_books_leader_dally_and_follower_wait_apart() {
    let engine = Engine::builder()
        .config(EngineConfig {
            wal_sync_delay_us: 500,
            group_commit_window_us: 200,
            ..EngineConfig::monitoring()
        })
        .build()
        .unwrap();
    let writers = 6;
    {
        let s = engine.open_session();
        for w in 0..writers {
            s.execute(&format!("create table w{w} (a int)")).unwrap();
        }
    }
    let registry = engine.wait_registry().expect("wait subsystem on");
    let dally_before = registry.counters().count(WaitEvent::GroupCommitDally);
    let groups_before = engine.wal_stats().groups;
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let s = engine.open_session();
                for i in 0..20 {
                    s.execute(&format!("insert into w{w} values ({i})"))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let counters = registry.counters();
    let stats = engine.wal_stats();
    assert!(
        counters.count(WaitEvent::GroupCommitFollow) > 0,
        "overlapping commits must park followers: {stats:?}"
    );
    assert!(
        counters.count(WaitEvent::GroupCommitDally) - dally_before <= stats.groups - groups_before,
        "only a leader dallies, at most once per fsync it leads: {stats:?}"
    );
    let s = engine.open_session();
    let r = s
        .execute("select count from ima$wait_events where event = 'GroupCommitFollow'")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(r.rows[0].get(0).as_int().unwrap() > 0);
}

/// The daemon's poll copies wait counters and ASH samples into the workload
/// DB, and the long-term view reads them back.
#[test]
fn daemon_rolls_waits_into_workload_db() {
    let engine = contended_engine();
    let s = engine.open_session();
    s.execute("create table t (a int)").unwrap();
    for i in 0..24 {
        s.execute(&format!("insert into t values ({i})")).unwrap();
    }
    let wldb = Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
    let daemon = StorageDaemon::new(
        Arc::clone(&engine),
        Arc::clone(&wldb),
        DaemonConfig::default(),
    );
    daemon.poll_once().unwrap();

    assert!(
        wldb.row_count("wl_waits").unwrap() > 0,
        "wait totals rolled up"
    );
    assert!(
        wldb.row_count("wl_ash").unwrap() > 0,
        "ASH samples rolled up"
    );

    let view = WorkloadView::from_workload_db(&wldb).unwrap();
    assert!(
        view.waits
            .iter()
            .any(|w| w.event == "WalFsync" && w.total_ns > 0),
        "waits: {:?}",
        view.waits
    );
    assert!(!view.ash.is_empty(), "ash profiles: {:?}", view.ash);

    // A second poll with no new activity appends nothing (cursor-gated).
    let waits_before = wldb.row_count("wl_waits").unwrap();
    let ash_before = wldb.row_count("wl_ash").unwrap();
    daemon.poll_once().unwrap();
    assert_eq!(wldb.row_count("wl_waits").unwrap(), waits_before);
    assert_eq!(wldb.row_count("wl_ash").unwrap(), ash_before);
}

/// An always-fsync log books its commits' fsyncs as `WalFsync` waits, and
/// EXPLAIN ANALYZE surfaces the same waits inline.
#[test]
fn explain_analyze_shows_walfsync_waits_inline() {
    let engine = Engine::builder()
        .config(EngineConfig {
            wal_fsync_mode: WalFsyncMode::Always,
            wal_sync_delay_us: 500,
            ..EngineConfig::monitoring()
        })
        .build()
        .unwrap();
    let s = engine.open_session();
    s.execute("create table orders (id int, total int)")
        .unwrap();
    for i in 0..30 {
        s.execute(&format!("insert into orders values ({i}, {})", i * 10))
            .unwrap();
    }

    let view = WorkloadView::from_engine(&engine);
    assert!(
        view.waits.iter().any(|w| w.event == "WalFsync"),
        "waits: {:?}",
        view.waits
    );

    let r = s
        .execute("explain analyze insert into orders values (999, 0)")
        .unwrap();
    let text: String = r
        .rows
        .iter()
        .filter_map(|row| row.get(0).as_str().map(str::to_owned))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("Waits:"), "explain output:\n{text}");
    assert!(text.contains("WalFsync"), "explain output:\n{text}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cooperative cadence: over any tick pattern the sample count tracks
    /// elapsed/interval (never more than one per interval, never starved
    /// below the coarser tick+interval grid) and the ring stays bounded.
    #[test]
    fn ash_sampler_cadence_and_bounded_ring(
        interval in 1u64..1_000,
        ticks in 1u64..1_500,
        step in 1u64..50,
    ) {
        let sampler = AshSampler::new(MonotonicClock::new(), interval, 64);
        let slot = sampler.register_session(1);
        slot.begin_statement(StmtHash::of("q"), &"q".into(), 0);
        for k in 1..=ticks {
            sampler.sample_if_due(k * step);
        }
        let elapsed = ticks * step;
        let taken = sampler.samples_taken();
        prop_assert!(
            taken <= elapsed / interval,
            "{taken} samples from {elapsed} ns at interval {interval}"
        );
        prop_assert!(
            taken >= elapsed / (interval + step),
            "{taken} samples starved: {elapsed} ns, interval {interval}, step {step}"
        );
        prop_assert!(sampler.history().len() <= 64, "ring must stay bounded");
        prop_assert_eq!(sampler.total_recorded(), taken, "one active session: one row per sample");
    }
}
