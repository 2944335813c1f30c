//! Fault-injection integration tests: the storage daemon's self-healing
//! behaviour end to end. A scripted transient outage of the workload DB's
//! disk backend must lose no monitor snapshots once the backend heals
//! (row-count parity with a no-fault run for every cursor-driven table; the
//! per-poll counter tables hold a row set per successful poll; `wl_ash`
//! holds exactly the run's own ASH samples); permanent failures must
//! quarantine the daemon with a self-alert while rule evaluation keeps
//! working; a torn flush must be repaired by `WorkloadDb::recover` with
//! only the unacknowledged tail dropped; and the daemon's health counters
//! must be queryable over SQL as `ima$daemon_health`.

use std::collections::BTreeMap;
use std::sync::Arc;

use ingot::common::StmtHash;
use ingot::core::COPIED_TABLES;
use ingot::daemon::wldb::PER_POLL_TABLES;
use ingot::prelude::*;
use ingot::storage::PAGE_SIZE;

/// A monitored engine with a seed workload, its fault-wrapped workload DB
/// (in-memory store behind a `FaultInjectingBackend`), and the daemon.
fn faulted_setup() -> (
    Arc<Engine>,
    Session,
    Arc<FaultInjectingBackend>,
    Arc<WorkloadDb>,
    StorageDaemon,
) {
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let session = engine.open_session();
    session
        .execute("create table t (a int not null, b text)")
        .unwrap();
    for i in 0..40 {
        session
            .execute(&format!("insert into t values ({i}, 'seed row {i}')"))
            .unwrap();
    }

    let fb = Arc::new(FaultInjectingBackend::new(
        Box::new(MemoryBackend::new()),
        FaultPlan::new(),
    ));
    // Single-page main extents so a burst of appends must allocate overflow
    // pages — the injection point for append-time faults.
    let wl_config = EngineConfig {
        monitor_enabled: false,
        heap_main_pages: 1,
        buffer_pool_pages: 256,
        ..EngineConfig::default()
    };
    let wl_engine = Engine::builder()
        .config(wl_config)
        .clock(engine.sim_clock().clone())
        .backend(Box::new(Arc::clone(&fb)))
        .build()
        .unwrap();
    let wldb = Arc::new(WorkloadDb::with_engine(wl_engine).unwrap());
    let daemon = StorageDaemon::new(
        Arc::clone(&engine),
        Arc::clone(&wldb),
        DaemonConfig {
            polls_per_flush: 1,
            ..Default::default()
        },
    );
    (engine, session, fb, wldb, daemon)
}

/// Enough fresh, distinct statements that appending them must allocate
/// pages (70 workload rows ≫ one 8 KiB page).
fn burst(session: &Session, lo: u64) {
    for i in lo..lo + 70 {
        session
            .execute(&format!("insert into t values ({i}, 'outage row {i}')"))
            .unwrap();
    }
}

/// Run the shared scenario — one healthy poll, two polls over a burst of
/// activity (under a scripted transient outage when `outage`), heal, one
/// catch-up poll — check that `wl_ash` holds exactly the run's ASH sample
/// history, and return the final row counts of the other tables. Tracing is
/// on, so `wl_latency_histograms` has rows to count too.
fn run_scenario(outage: bool) -> BTreeMap<&'static str, u64> {
    let (engine, session, fb, wldb, daemon) = faulted_setup();
    engine.set_tracing(true);
    // A session held mid-statement and sampled after each burst, so `wl_ash`
    // has samples to account for whatever the wall clock does.
    let sampler = engine.ash_sampler().unwrap();
    let held = sampler.register_session(999);
    held.begin_statement(StmtHash::of("held"), &"held".into(), 0);
    daemon.poll_once().unwrap();

    if outage {
        fb.set_plan(FaultPlan::parse("alloc#*=transient").unwrap());
    }
    for poll in 0..2u64 {
        engine.sim_clock().advance_secs(30);
        burst(&session, 100 + poll * 100);
        sampler.sample_now(engine.wall_clock().now_nanos());
        let result = daemon.poll_once();
        assert_eq!(result.is_err(), outage, "poll outcome with outage={outage}");
    }
    if outage {
        assert_eq!(daemon.health().state(), HealthState::Degraded);
        assert_eq!(daemon.health().buffered_snapshots(), 2);
        assert!(daemon.health().failed_polls() >= 2);
        let stats = fb.stats();
        assert!(stats.injected_transient > 0, "the plan must actually fire");
        fb.set_plan(FaultPlan::new()); // heal the backend
    }
    engine.sim_clock().advance_secs(30);
    daemon.poll_once().unwrap();

    assert_eq!(daemon.health().state(), HealthState::Healthy);
    assert_eq!(daemon.health().buffered_snapshots(), 0);
    if outage {
        assert_eq!(daemon.health().recovered_snapshots(), 2);
        assert_eq!(daemon.health().dropped_snapshots(), 0);
        let alerts = daemon.take_alerts();
        assert!(
            alerts.iter().any(|a| a.message.contains("degraded")),
            "degradation must self-alert: {alerts:?}"
        );
        assert!(
            alerts.iter().any(|a| a.message.contains("recovered")),
            "recovery must self-alert: {alerts:?}"
        );
    }
    // ASH samples fire on the wall clock, so a slower run may hold more of
    // them: `wl_ash` is checked against this run's own sample history.
    let mut history: Vec<(u64, u64)> = engine
        .ash_sampler()
        .unwrap()
        .history()
        .iter()
        .map(|s| (s.at_ns, s.session_id))
        .collect();
    history.sort_unstable();
    let mut filed: Vec<(u64, u64)> = wldb
        .query("select at_ns, session from wl_ash")
        .unwrap()
        .iter()
        .map(|r| {
            let int = |i| r.get(i).as_int().unwrap() as u64;
            (int(0), int(1))
        })
        .collect();
    filed.sort_unstable();
    assert_eq!(
        filed, history,
        "wl_ash holds every ASH sample exactly once, and nothing else"
    );
    COPIED_TABLES
        .iter()
        .filter(|shape| shape.wl != "wl_ash")
        .map(|shape| (shape.wl, wldb.row_count(shape.wl).unwrap()))
        .collect()
}

#[test]
fn transient_outage_loses_no_snapshots() {
    let healthy = run_scenario(false);
    let faulted = run_scenario(true);
    for (table, &rows) in &healthy {
        let faulted = faulted[table];
        if PER_POLL_TABLES.contains(table) {
            // The engine's counters are filed on every successful poll, not
            // replayed: the outage run performs fewer successful polls, so
            // it holds fewer (but still some) rows.
            assert!(
                faulted > 0 && faulted <= rows,
                "{table}: {faulted} vs {rows}"
            );
        } else {
            assert_eq!(
                faulted, rows,
                "{table}: after healing, every cursor-driven table must hold exactly the no-fault row count"
            );
        }
    }
}

#[test]
fn permanent_failure_quarantines_with_alert() {
    let (engine, session, fb, _wldb, daemon) = faulted_setup();
    daemon.poll_once().unwrap();
    daemon.add_rule(AlertRule::max_sessions(0)); // DBA rule stays active

    fb.set_plan(FaultPlan::parse("alloc#*=permanent").unwrap());
    engine.sim_clock().advance_secs(30);
    burst(&session, 500);
    assert!(daemon.poll_once().is_err());
    assert_eq!(daemon.health().state(), HealthState::Quarantined);

    // While quarantined, polls drop snapshots without touching the store,
    // but alert rules still evaluate — monitoring degrades, never stops.
    let allocs_at_quarantine = fb.stats().allocs;
    engine.sim_clock().advance_secs(30);
    assert!(daemon.poll_once().is_err());
    assert_eq!(fb.stats().allocs, allocs_at_quarantine);
    assert!(daemon.health().dropped_snapshots() >= 1);

    let alerts = daemon.take_alerts();
    assert!(
        alerts
            .iter()
            .any(|a| a.rule == "daemon_health" && a.message.contains("quarantined")),
        "quarantine must self-alert: {alerts:?}"
    );
    assert!(
        alerts.iter().any(|a| a.rule == "max_sessions"),
        "DBA rules must keep firing while quarantined: {alerts:?}"
    );

    // The monitored engine sees the daemon's state over plain SQL.
    let rows = session
        .execute("select state, dropped_snapshots from ima$daemon_health")
        .unwrap()
        .rows;
    assert_eq!(rows[0].get(0).as_str(), Some("quarantined"));
    assert!(rows[0].get(1).as_int().unwrap() >= 1);
}

#[test]
fn torn_flush_recovery_truncates_only_the_tail() {
    let dir = std::env::temp_dir().join(format!("ingot-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let s = engine.open_session();
        s.execute("create table t (a int not null, b text)")
            .unwrap();
        for i in 0..200 {
            s.execute(&format!("insert into t values ({i}, 'persisted row {i}')"))
                .unwrap();
        }
        let wldb = WorkloadDb::file_backed(&dir, engine.sim_clock().clone()).unwrap();
        wldb.append_from(engine.monitor().unwrap(), 0).unwrap();
        // Durable checkpoint: fsync + page-checksum manifest.
        wldb.flush().unwrap();
    }

    // Crash simulation: a flush that never completed appended one full page
    // of garbage plus half a page to the largest data file.
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "dat"))
        .max_by_key(|p| std::fs::metadata(p).unwrap().len())
        .unwrap();
    let clean_len = std::fs::metadata(&victim).unwrap().len();
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&victim)
            .unwrap();
        f.write_all(&vec![0xAB; PAGE_SIZE + PAGE_SIZE / 2]).unwrap();
    }

    let report = WorkloadDb::recover(&dir).unwrap();
    assert!(report.manifest_found && report.manifest_valid);
    assert!(report.torn_pages >= 1, "{report}");
    assert!(report.pages_truncated >= 1, "{report}");
    assert!(report.rows_salvaged > 0, "{report}");
    assert_eq!(
        std::fs::metadata(&victim).unwrap().len(),
        clean_len,
        "recovery must restore exactly the checkpointed length"
    );

    // Recovery is idempotent: a second pass finds nothing to repair.
    let again = WorkloadDb::recover(&dir).unwrap();
    assert_eq!(again.torn_pages, 0, "{again}");
    assert_eq!(again.pages_truncated, 0, "{again}");
    assert_eq!(again.rows_salvaged, report.rows_salvaged);

    // The daemon resumes on the repaired directory.
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let s = engine.open_session();
    s.execute("create table fresh (a int)").unwrap();
    let wldb = Arc::new(WorkloadDb::file_backed(&dir, engine.sim_clock().clone()).unwrap());
    let daemon = StorageDaemon::new(
        Arc::clone(&engine),
        Arc::clone(&wldb),
        DaemonConfig::default(),
    );
    daemon.poll_once().unwrap();
    assert_eq!(daemon.health().state(), HealthState::Healthy);
    assert!(wldb.row_count("wl_workload").unwrap() > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn daemon_health_is_queryable_via_sql() {
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let s = engine.open_session();
    s.execute("create table t (a int)").unwrap();
    let wldb = Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
    let daemon = StorageDaemon::new(Arc::clone(&engine), wldb, DaemonConfig::default());
    daemon.poll_once().unwrap();

    let rows = s
        .execute(
            "select state, polls, failed_polls, consecutive_failures, retries, \
             buffered_snapshots, recovered_snapshots, dropped_snapshots, \
             degraded_since_secs, last_error from ima$daemon_health",
        )
        .unwrap()
        .rows;
    assert_eq!(rows.len(), 1, "exactly one health row");
    assert_eq!(rows[0].get(0).as_str(), Some("healthy"));
    assert_eq!(rows[0].get(1).as_int(), Some(1)); // one poll so far
    assert_eq!(rows[0].get(2).as_int(), Some(0));
    assert_eq!(rows[0].get(8).as_int(), Some(-1)); // never degraded
    assert_eq!(rows[0].get(9).as_str(), Some(""));

    // `select *` resolves through the same registered schema.
    let all = s.execute("select * from ima$daemon_health").unwrap();
    assert_eq!(all.rows.len(), 1);
    assert_eq!(all.rows[0].get(0).as_str(), Some("healthy"));
}
