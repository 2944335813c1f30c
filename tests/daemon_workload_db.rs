//! Integration tests of the storage daemon: delayed persistence into the
//! workload DB, retention, alerting, growth accounting, and restart
//! persistence of the file-backed database.

// Real-time pacing: sleeps coordinate contending sessions and wait out
// daemon intervals — the sanctioned exception to the workspace sleep ban.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use std::time::Duration;

use ingot::core::COPIED_TABLES;
use ingot::prelude::*;

fn engine_with_activity() -> std::sync::Arc<Engine> {
    let e = Engine::builder()
        .config(EngineConfig::monitoring().with_heap_main_pages(2))
        .build()
        .unwrap();
    let s = e.open_session();
    s.execute("create table t (a int not null, b text)")
        .unwrap();
    // Enough rows to overflow the 2-page main extent (the analyzer's
    // B-Tree rule needs overflow to fire).
    for i in 0..1200 {
        s.execute(&format!("insert into t values ({i}, 'it''s row {i}')"))
            .unwrap();
    }
    s.execute("select count(*) from t where a < 50").unwrap();
    e
}

#[test]
fn daemon_end_to_end_via_sql() {
    let engine = engine_with_activity();
    let wldb = Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
    let daemon = StorageDaemon::new(
        Arc::clone(&engine),
        Arc::clone(&wldb),
        DaemonConfig::default(),
    );
    daemon.poll_once().unwrap();

    // All seven Fig 3 tables and the engine's counters are populated.
    // Indexes only fill when one was used, latency histograms when tracing
    // is on; the wait/ASH rollups depend on wall-clock sampling cadence and
    // are pinned deterministically in tests/wait_events.rs instead.
    for t in COPIED_TABLES.map(|shape| shape.wl) {
        if matches!(
            t,
            "wl_indexes" | "wl_latency_histograms" | "wl_waits" | "wl_ash"
        ) {
            continue;
        }
        assert!(wldb.row_count(t).unwrap() > 0, "{t} must have rows");
    }
    // Statement texts (with their embedded escaped quotes) survived the
    // round trip. The stored text is the raw SQL, so the pattern matches
    // the doubled quote form.
    let rows = wldb
        .query("select query_text from wl_statements where query_text like '%row 5%' limit 1")
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert!(rows[0].get(0).as_str().unwrap().contains("it''s"));
    // Trend analysis: per-statement totals via SQL on the workload DB.
    let rows = wldb
        .query(
            "select hash, count(*) as n, sum(exec_cpu) from wl_workload \
             group by hash order by n desc limit 5",
        )
        .unwrap();
    assert!(!rows.is_empty());
}

#[test]
fn incremental_polls_do_not_duplicate() {
    let engine = engine_with_activity();
    let wldb = Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
    let daemon = StorageDaemon::new(
        Arc::clone(&engine),
        Arc::clone(&wldb),
        DaemonConfig::default(),
    );
    daemon.poll_once().unwrap();
    let first = wldb.row_count("wl_workload").unwrap();
    daemon.poll_once().unwrap();
    assert_eq!(wldb.row_count("wl_workload").unwrap(), first);
    // New activity → only the delta arrives.
    let s = engine.open_session();
    s.execute("select count(*) from t").unwrap();
    daemon.poll_once().unwrap();
    assert_eq!(wldb.row_count("wl_workload").unwrap(), first + 1);
}

#[test]
fn seven_day_retention_window() {
    let engine = engine_with_activity();
    let wldb = Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
    let daemon = StorageDaemon::new(
        Arc::clone(&engine),
        Arc::clone(&wldb),
        DaemonConfig::default(),
    );
    daemon.poll_once().unwrap();
    let day = 24 * 3600;
    // Three days later: new work arrives, old work stays (inside the window).
    engine.sim_clock().advance_secs(3 * day);
    let s = engine.open_session();
    s.execute("select count(*) from t where a = 1").unwrap();
    daemon.poll_once().unwrap();
    let mid = wldb.row_count("wl_workload").unwrap();
    assert!(mid > 0);
    // Nine days after the start: the first batch ages out, the day-3 batch
    // survives.
    engine.sim_clock().advance_secs(5 * day);
    daemon.poll_once().unwrap();
    let rows = wldb
        .query("select ts from wl_workload order by ts")
        .unwrap();
    assert!(!rows.is_empty());
    assert!(rows
        .iter()
        .all(|r| r.get(0).as_int().unwrap() >= 3 * day as i64));
}

#[test]
fn file_backed_workload_db_survives_restart() {
    let dir = std::env::temp_dir().join(format!("ingot-wldb-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = engine_with_activity();
    let stmt_count;
    {
        let wldb = Arc::new(WorkloadDb::file_backed(&dir, engine.sim_clock().clone()).unwrap());
        let daemon = StorageDaemon::new(
            Arc::clone(&engine),
            Arc::clone(&wldb),
            DaemonConfig::default(),
        );
        daemon.poll_once().unwrap();
        stmt_count = wldb.row_count("wl_statements").unwrap();
        wldb.flush().unwrap();
    }
    // "Restart": a fresh engine re-attaches the same directory. The data
    // files are still there with content.
    let total: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|f| f.unwrap().metadata().unwrap().len())
        .sum();
    assert!(total > 0, "expected persisted bytes in {dir:?}");
    assert!(stmt_count > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn background_daemon_with_alerts() {
    let engine = engine_with_activity();
    let wldb = Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
    let daemon = StorageDaemon::new(
        Arc::clone(&engine),
        wldb,
        DaemonConfig {
            interval: Duration::from_millis(15),
            ..Default::default()
        },
    );
    daemon.add_rule(AlertRule::max_sessions(0));
    let handle = daemon.spawn().unwrap();
    let _busy = engine.open_session();
    // The alert needs one poll that samples statistics *after* `_busy`
    // opened; under a loaded test host the daemon thread can be starved,
    // so wait for the alert rather than for a fixed interval.
    let mut alerts = Vec::new();
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(20));
        alerts = handle.daemon().take_alerts();
        if !alerts.is_empty() {
            break;
        }
    }
    handle.stop();
    assert!(!alerts.is_empty(), "session count above 0 must alert");
}

#[test]
fn growth_projection_matches_paper_formula() {
    let engine = engine_with_activity();
    let wldb = Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
    let daemon = StorageDaemon::new(
        Arc::clone(&engine),
        Arc::clone(&wldb),
        DaemonConfig::default(),
    );
    daemon.poll_once().unwrap();
    engine.sim_clock().advance_secs(3600);
    let s = engine.open_session();
    for i in 0..20 {
        s.execute(&format!("select count(*) from t where a = {i}"))
            .unwrap();
    }
    daemon.poll_once().unwrap();
    let g = wldb.growth();
    let rate = g.bytes_per_hour().expect("one simulated hour elapsed");
    let projected = g.projected_size(7 * 24 * 3600).unwrap();
    assert!((projected - rate * 168.0).abs() < 1.0);
}

#[test]
fn analyzer_reads_the_workload_db() {
    // The paper's architecture: the analyzer works off the *persistent*
    // store, not the live buffers.
    let engine = engine_with_activity();
    let wldb = Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
    let daemon = StorageDaemon::new(
        Arc::clone(&engine),
        Arc::clone(&wldb),
        DaemonConfig::default(),
    );
    daemon.poll_once().unwrap();
    let view = WorkloadView::from_workload_db(&wldb).unwrap();
    assert!(!view.statements.is_empty());
    assert!(!view.tables.is_empty());
    let report = Analyzer::default().analyze(&engine, &view).unwrap();
    // The heap table overflowed during load → B-Tree recommendation.
    assert!(report
        .recommendations
        .iter()
        .any(|r| matches!(r, Recommendation::ModifyToBTree { table, .. } if table == "t")));
}

#[test]
fn ids_and_usage_survive_a_checkpoint_restart_and_a_crash() {
    // Three lives of one file-backed monitored engine and its file-backed
    // workload DB: a checkpoint and reopen, then a crash whose schema
    // change after the checkpoint comes back through WAL replay.
    let root = std::env::temp_dir().join(format!("ingot-restart-ids-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let clock = SimClock::new();
    let open = || {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .clock(clock.clone())
            .path(root.join("data"))
            .build()
            .unwrap();
        let wldb = Arc::new(WorkloadDb::file_backed(root.join("wldb"), clock.clone()).unwrap());
        (engine, wldb)
    };
    let ids = |engine: &Engine| {
        let catalog = engine.catalog().read();
        let tables = catalog
            .tables()
            .map(|t| (t.meta.name.to_string(), t.meta.id.raw()));
        let indexes = catalog
            .indexes()
            .map(|i| (i.meta.name.to_string(), i.meta.id.raw()));
        let mut ids: Vec<(String, u32)> = tables.chain(indexes).collect();
        ids.sort();
        ids
    };
    // Each table's frequency as the monitor counted it, summed over lives.
    let mut frequency: std::collections::BTreeMap<String, u64> = Default::default();
    let mut poll = |engine: &Arc<Engine>, wldb: &Arc<WorkloadDb>| {
        clock.advance_secs(30);
        let daemon = StorageDaemon::new(
            Arc::clone(engine),
            Arc::clone(wldb),
            DaemonConfig::default(),
        );
        daemon.poll_once().unwrap();
        for t in engine.monitor().unwrap().tables() {
            *frequency.entry(t.name).or_default() += t.frequency;
        }
    };
    let touch = |s: &Session, tables: &[&str]| {
        for t in tables {
            s.execute(&format!("insert into {t} values (1, 1)"))
                .unwrap();
            s.execute(&format!("select k from {t} where v = 1"))
                .unwrap();
        }
    };

    // Life 1: a dropped table and a what-if pass leave gaps and take
    // nothing from the base ids.
    let (engine, wldb) = open();
    let s = engine.open_session();
    for t in ["a", "b", "c"] {
        s.execute(&format!("create table {t} (k int, v int)"))
            .unwrap();
    }
    s.execute("drop table a").unwrap();
    let mut what_if = engine.what_if();
    what_if.add_virtual_index("b", &["v"]).unwrap();
    ingot::core::estimate(&what_if, "select k from b where v = 1").unwrap();
    s.execute("create index b_v on b (v)").unwrap();
    touch(&s, &["b", "c"]);
    poll(&engine, &wldb);
    let first = ids(&engine);
    let expected = |pairs: &[(&str, u32)]| -> Vec<(String, u32)> {
        pairs.iter().map(|&(n, id)| (n.to_owned(), id)).collect()
    };
    assert_eq!(first, expected(&[("b", 2), ("b_v", 1), ("c", 3)]));
    engine.checkpoint().unwrap();
    wldb.flush().unwrap();
    drop((s, engine, wldb));

    // Life 2: reopened from the checkpoint; new objects after it.
    let (engine, wldb) = open();
    assert_eq!(ids(&engine), first);
    let s = engine.open_session();
    s.execute("create table d (k int, v int)").unwrap();
    s.execute("create index d_v on d (v)").unwrap();
    touch(&s, &["b", "c", "d"]);
    poll(&engine, &wldb);
    let second = ids(&engine);
    assert_eq!(
        second,
        expected(&[("b", 2), ("b_v", 1), ("c", 3), ("d", 4), ("d_v", 2)])
    );
    // A crash: no checkpoint, `d` and `d_v` live only in the log.
    drop((s, engine, wldb));

    // Life 3: WAL replay re-creates them under their first ids.
    let (engine, wldb) = open();
    assert_eq!(ids(&engine), second);
    touch(&engine.open_session(), &["b", "c", "d"]);
    poll(&engine, &wldb);

    // One entry per table, under its one id, counting all three lives.
    let view = WorkloadView::from_workload_db(&wldb).unwrap();
    let names: Vec<&str> = view.tables.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(
        names,
        frequency.keys().map(String::as_str).collect::<Vec<_>>()
    );
    for t in &view.tables {
        assert!(second.contains(&(t.name.clone(), t.id.raw())), "{t:?}");
        assert_eq!(t.frequency, frequency[&t.name], "{}", t.name);
    }
    assert!(["b", "c", "d"].iter().all(|t| frequency.contains_key(*t)));
    drop((engine, wldb));
    std::fs::remove_dir_all(&root).unwrap();
}
