//! Fault-injection integration tests: the storage daemon's self-healing
//! behaviour end to end. It repairs one way — a failed poll buffers its
//! snapshot, the next reopens a workload DB whose log died and replays —
//! and a fault that heals must lose no monitor snapshots (row-count parity
//! with a no-fault run for every cursor-driven table; the per-poll counter
//! tables hold a row set per successful poll; `wl_ash` holds exactly the
//! run's own ASH samples; the newest `wl_waits` snapshot holds the wait
//! registry's totals). That holds for page faults on an in-memory store and
//! for every WAL fault on a file-backed one; the same WAL faults on a
//! store with nothing to reopen quarantine the daemon with a self-alert
//! while rule evaluation keeps working. Reopening a workload DB cuts a torn
//! append back to the last checkpoint and finishes a flush a power cut
//! interrupted, and the daemon's health counters and the log's death must
//! be queryable over SQL.

mod checkpoint_cut;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use ingot::common::StmtHash;
use ingot::core::COPIED_TABLES;
use ingot::daemon::wldb::PER_POLL_TABLES;
use ingot::prelude::*;
use ingot::storage::PAGE_SIZE;

use checkpoint_cut::{pages_and_manifest, Cut, Point};

/// The three WAL operations a fault can hit, and the two effects that, on
/// the log, are both a power cut.
const WAL_OPS: [&str; 3] = ["wal_append", "wal_fsync", "wal_truncate"];
const WAL_EFFECTS: [&str; 2] = ["transient", "permanent"];

/// A monitored engine with a seed workload, its workload DB and the daemon.
struct Rig {
    engine: Arc<Engine>,
    session: Session,
    wldb: Arc<WorkloadDb>,
    daemon: StorageDaemon,
    /// The page-level fault layer of an in-memory store; `None` for a
    /// file-backed one.
    fb: Option<Arc<FaultInjectingBackend>>,
    /// A file-backed store's directory, removed on drop.
    dir: Option<PathBuf>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The monitored engine every rig watches: one table, 40 seed rows.
fn monitored() -> (Arc<Engine>, Session) {
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
    (engine, session)
}

/// A daemon flushing after every poll, so each poll checkpoints.
fn daemon(engine: &Arc<Engine>, wldb: &Arc<WorkloadDb>) -> StorageDaemon {
    StorageDaemon::new(
        Arc::clone(engine),
        Arc::clone(wldb),
        DaemonConfig {
            polls_per_flush: 1,
            ..Default::default()
        },
    )
}

impl Rig {
    /// An in-memory store behind a `FaultInjectingBackend`, inside an
    /// engine the test builds: nothing to reopen.
    fn in_memory() -> Rig {
        let (engine, session) = monitored();
        let fb = Arc::new(FaultInjectingBackend::new(
            Box::new(MemoryBackend::new()),
            FaultPlan::new(),
        ));
        // Single-page main extents so a burst of appends must allocate
        // overflow pages — the injection point for append-time faults.
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
        let daemon = daemon(&engine, &wldb);
        Rig {
            engine,
            session,
            wldb,
            daemon,
            fb: Some(fb),
            dir: None,
        }
    }

    /// A file-backed workload DB in a fresh directory named after `case`.
    fn file_backed(case: &str) -> Rig {
        let dir =
            std::env::temp_dir().join(format!("ingot-daemon-faults-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (engine, session) = monitored();
        let wldb = Arc::new(WorkloadDb::file_backed(&dir, engine.sim_clock().clone()).unwrap());
        let daemon = daemon(&engine, &wldb);
        Rig {
            engine,
            session,
            wldb,
            daemon,
            fb: None,
            dir: Some(dir),
        }
    }

    /// The in-memory store's page-level fault layer.
    fn fb(&self) -> &FaultInjectingBackend {
        self.fb.as_ref().expect("an in-memory rig")
    }

    /// Install `script` on the workload DB's current log.
    fn fault_wal(&self, script: &str) {
        let plan = FaultPlan::parse(script).unwrap();
        self.wldb.engine().wal().set_fault_plan(plan);
    }

    /// Heal every fault layer.
    fn heal(&self) {
        if let Some(fb) = &self.fb {
            fb.set_plan(FaultPlan::new());
        }
        self.fault_wal("");
    }

    /// Tracing on, a session held mid-statement (so `wl_ash` has samples
    /// to account for whatever the wall clock does), and one healthy poll.
    fn start(&self) {
        self.engine.set_tracing(true);
        let sampler = self.engine.ash_sampler().unwrap();
        let held = sampler.register_session(999);
        held.begin_statement(StmtHash::of("held"), &"held".into(), 0);
        self.daemon.poll_once().unwrap();
    }

    /// Thirty simulated seconds, enough fresh, distinct statements that
    /// appending them must allocate pages (70 workload rows ≫ one 8 KiB
    /// page), an ASH sample, and a poll: whether it failed.
    fn busy_poll(&self, lo: u64) -> bool {
        self.engine.sim_clock().advance_secs(30);
        for i in lo..lo + 70 {
            self.session
                .execute(&format!("insert into t values ({i}, 'outage row {i}')"))
                .unwrap();
        }
        let sampler = self.engine.ash_sampler().unwrap();
        sampler.sample_now(self.engine.wall_clock().now_nanos());
        self.daemon.poll_once().is_err()
    }

    /// Two busy polls, whether each failed.
    fn two_busy_polls(&self) -> [bool; 2] {
        [self.busy_poll(100), self.busy_poll(200)]
    }

    /// One catch-up poll, which must leave the daemon Healthy with nothing
    /// buffered or dropped; then check that `wl_ash` holds exactly the
    /// run's ASH sample history and the newest `wl_waits` snapshot the wait
    /// registry's totals, and return the row counts of the other tables.
    fn finish(&self) -> BTreeMap<&'static str, u64> {
        self.engine.sim_clock().advance_secs(30);
        self.daemon.poll_once().unwrap();
        let health = self.daemon.health();
        assert_eq!(health.state(), HealthState::Healthy);
        assert_eq!(health.buffered_snapshots(), 0);
        assert_eq!(health.dropped_snapshots(), 0);

        // ASH samples fire on the wall clock, so a slower run may hold more
        // of them: `wl_ash` is checked against this run's own history.
        let mut history: Vec<(u64, u64)> = self
            .engine
            .ash_sampler()
            .unwrap()
            .history()
            .iter()
            .map(|s| (s.at_ns, s.session_id))
            .collect();
        history.sort_unstable();
        let int = |r: &Row, i| r.get(i).as_int().unwrap();
        let mut filed: Vec<(u64, u64)> = self
            .wldb
            .query("select at_ns, session from wl_ash")
            .unwrap()
            .iter()
            .map(|r| (int(r, 0) as u64, int(r, 1) as u64))
            .collect();
        filed.sort_unstable();
        assert_eq!(
            filed, history,
            "wl_ash holds every ASH sample exactly once, and nothing else"
        );

        // A run that replayed has waited in DaemonCatchup, so `wl_waits`
        // may hold one more event per snapshot: what must hold is that the
        // newest snapshot is the registry's cumulative totals.
        let totals: BTreeMap<String, i64> = self
            .engine
            .wait_registry()
            .unwrap()
            .snapshot()
            .into_iter()
            .filter(|t| t.count > 0)
            .map(|t| (t.event.name().to_owned(), t.count as i64))
            .collect();
        let rows = self
            .wldb
            .query("select event, count, ts from wl_waits")
            .unwrap();
        let newest = rows.iter().map(|r| int(r, 2)).max();
        let snapshot: BTreeMap<String, i64> = rows
            .iter()
            .filter(|r| Some(int(r, 2)) == newest)
            .map(|r| (r.get(0).as_str().unwrap().to_owned(), int(r, 1)))
            .collect();
        assert_eq!(snapshot, totals, "the newest wl_waits snapshot");

        COPIED_TABLES
            .iter()
            .filter(|shape| !["wl_ash", "wl_waits"].contains(&shape.wl))
            .map(|shape| (shape.wl, self.wldb.row_count(shape.wl).unwrap()))
            .collect()
    }
}

/// The row counts of a no-fault run on `rig`.
fn healthy(rig: Rig) -> BTreeMap<&'static str, u64> {
    rig.start();
    assert_eq!(rig.two_busy_polls(), [false, false]);
    rig.finish()
}

/// After healing, every cursor-driven table holds exactly the no-fault row
/// count. The engine's counters are filed on every successful poll, not
/// replayed: a run with failed polls holds fewer (but still some) rows.
fn assert_parity(
    healthy: &BTreeMap<&'static str, u64>,
    faulted: &BTreeMap<&'static str, u64>,
    case: &str,
) {
    for (table, &rows) in healthy {
        let faulted = faulted[table];
        if PER_POLL_TABLES.contains(table) {
            assert!(
                faulted > 0 && faulted <= rows,
                "{case}: {table}: {faulted} vs {rows}"
            );
        } else {
            assert_eq!(faulted, rows, "{case}: {table}");
        }
    }
}

#[test]
fn transient_outage_loses_no_snapshots() {
    let healthy = healthy(Rig::in_memory());
    let rig = Rig::in_memory();
    rig.start();
    rig.fb()
        .set_plan(FaultPlan::parse("alloc#*=transient").unwrap());
    assert_eq!(rig.two_busy_polls(), [true, true]);
    let health = rig.daemon.health();
    assert_eq!(health.state(), HealthState::Degraded);
    assert_eq!(health.buffered_snapshots(), 2);
    assert_eq!(health.failed_polls(), 2);
    assert!(
        rig.fb().stats().injected_transient > 0,
        "the plan must fire"
    );
    rig.heal();
    let faulted = rig.finish();
    assert_eq!(rig.daemon.health().recovered_snapshots(), 2);
    assert_eq!(rig.daemon.health().reopens(), 0, "the log never died");
    let alerts = rig.daemon.take_alerts();
    assert!(
        alerts.iter().any(|a| a.message.contains("degraded")),
        "degradation must self-alert: {alerts:?}"
    );
    assert!(
        alerts.iter().any(|a| a.message.contains("recovered")),
        "recovery must self-alert: {alerts:?}"
    );
    assert_parity(&healthy, &faulted, "alloc#*=transient");
}

/// A transient page fault is not retried within its poll: that poll fails,
/// and the next one replays its snapshot.
#[test]
fn one_shot_transient_fault_is_replayed_by_the_next_poll() {
    let healthy = healthy(Rig::in_memory());
    let rig = Rig::in_memory();
    rig.start();
    let next_alloc = rig.fb().stats().allocs + 1;
    let script = format!("alloc#{next_alloc}=transient");
    rig.fb().set_plan(FaultPlan::parse(&script).unwrap());
    assert_eq!(rig.two_busy_polls(), [true, false], "{script}");
    assert_eq!(rig.fb().stats().injected_transient, 1);
    let faulted = rig.finish();
    let health = rig.daemon.health();
    assert_eq!(health.failed_polls(), 1);
    assert_eq!(health.recovered_snapshots(), 1);
    assert_parity(&healthy, &faulted, &script);
}

/// Every WAL fault, transient or permanent, on the first matching operation
/// kills the file-backed workload DB's log; the next poll reopens the
/// directory, replays what the faulted poll missed, and the run ends with
/// exactly the no-fault rows.
#[test]
fn wal_faults_on_a_file_backed_db_are_repaired_by_reopening_it() {
    let healthy = healthy(Rig::file_backed("healthy"));
    for op in WAL_OPS {
        for effect in WAL_EFFECTS {
            let script = format!("{op}#1={effect}");
            let rig = Rig::file_backed(&format!("{op}-{effect}"));
            rig.start();
            rig.fault_wal(&script);
            let failed = rig.two_busy_polls();
            assert!(failed[0], "{script}: the faulted poll fails");
            assert_eq!(
                rig.daemon.health().state(),
                HealthState::Healthy,
                "{script}: the second poll reopened and replayed"
            );
            rig.heal();
            let faulted = rig.finish();
            assert!(rig.daemon.health().reopens() >= 1, "{script}");
            assert!(!rig.wldb.engine().wal_stats().dead, "{script}");
            assert_parity(&healthy, &faulted, &script);
        }
    }
}

/// The same faults on a workload DB with nothing to reopen quarantine the
/// daemon at once, and its alert says why.
#[test]
fn wal_faults_with_nothing_to_reopen_quarantine() {
    for op in WAL_OPS {
        for effect in WAL_EFFECTS {
            let script = format!("{op}#1={effect}");
            let rig = Rig::in_memory();
            rig.start();
            rig.fault_wal(&script);
            assert!(rig.busy_poll(100), "{script}");
            let health = rig.daemon.health();
            assert_eq!(health.state(), HealthState::Quarantined, "{script}");
            assert_eq!(health.reopens(), 0, "{script}");
            let alerts = rig.daemon.take_alerts();
            assert!(
                alerts
                    .iter()
                    .any(|a| a.message.contains("quarantined") && a.message.contains("reopen")),
                "{script}: {alerts:?}"
            );
        }
    }
}

#[test]
fn permanent_failure_quarantines_with_alert() {
    let rig = Rig::in_memory();
    let (engine, session, daemon) = (&rig.engine, &rig.session, &rig.daemon);
    daemon.poll_once().unwrap();
    daemon.add_rule(AlertRule::max_sessions(0)); // DBA rule stays active

    rig.fb()
        .set_plan(FaultPlan::parse("alloc#*=permanent").unwrap());
    assert!(rig.busy_poll(500));
    assert_eq!(daemon.health().state(), HealthState::Quarantined);

    // While quarantined, polls drop snapshots without touching the store,
    // but alert rules still evaluate — monitoring degrades, never stops.
    let allocs_at_quarantine = rig.fb().stats().allocs;
    engine.sim_clock().advance_secs(30);
    assert!(daemon.poll_once().is_err());
    assert_eq!(rig.fb().stats().allocs, allocs_at_quarantine);
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
        // Durable checkpoint: the pages and the manifest.
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

    // Reopening the workload DB repairs the directory.
    let filed = {
        let wldb = WorkloadDb::file_backed(&dir, SimClock::new()).unwrap();
        assert_eq!(
            std::fs::metadata(&victim).unwrap().len(),
            clean_len,
            "recovery must restore exactly the checkpointed length"
        );
        wldb.row_count("wl_workload").unwrap()
    };
    assert!(filed > 0);

    // Recovery is idempotent: a second pass finds nothing to repair.
    let repaired = pages_and_manifest(&dir);
    {
        let wldb = WorkloadDb::file_backed(&dir, SimClock::new()).unwrap();
        assert_eq!(wldb.row_count("wl_workload").unwrap(), filed);
    }
    assert!(
        pages_and_manifest(&dir) == repaired,
        "a second pass changed the pages or the manifest"
    );

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

/// Every row of every copied `wl_` table of `wldb`, sorted per table.
fn filed_rows(wldb: &WorkloadDb) -> BTreeMap<&'static str, Vec<Row>> {
    COPIED_TABLES
        .iter()
        .map(|shape| {
            let mut rows = wldb.query(&format!("select * from {}", shape.wl)).unwrap();
            rows.sort();
            (shape.wl, rows)
        })
        .collect()
}

/// A power cut inside `WorkloadDb::flush`: the checkpoint's page images
/// are staged and half of them written in place. Reopening finishes the
/// checkpoint, and every row filed before the flush is there —
/// `wl_workload`'s and every other copied table's.
#[test]
fn a_power_cut_inside_flush_keeps_every_filed_row() {
    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("ingot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let (dir, crashed) = (scratch("flush-cut"), scratch("flush-cut-state"));
    let (engine, s) = monitored();
    let monitor = engine.monitor().unwrap();
    let (cut, filed) = {
        let wldb = WorkloadDb::file_backed(&dir, engine.sim_clock().clone()).unwrap();
        wldb.append_from(monitor, 0).unwrap();
        wldb.flush().unwrap();
        for i in 0..50 {
            s.execute(&format!("select b from t where a = {i}"))
                .unwrap();
        }
        wldb.append_from(monitor, 1).unwrap();
        let filed = filed_rows(&wldb);
        assert!(!filed["wl_workload"].is_empty());
        (Cut::run(&dir, &wldb.engine(), || wldb.flush()), filed)
    };
    let written = cut.written().len();
    assert!(written >= 2, "the flush writes {written} pages");
    std::fs::create_dir_all(&crashed).unwrap();
    cut.crash_state(&crashed, Point::Applying(written / 2));
    let wldb = WorkloadDb::file_backed(&crashed, engine.sim_clock().clone()).unwrap();
    assert_eq!(filed_rows(&wldb), filed);
    drop(wldb);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&crashed).unwrap();
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
            "select state, polls, failed_polls, consecutive_failures, reopens, \
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

/// `ima$wal.dead` says whether a failed operation killed the engine's own
/// log — the flag the daemon reads before it reopens a workload DB.
#[test]
fn a_dead_log_shows_in_ima_wal() {
    let engine = Engine::builder().build().unwrap();
    let s = engine.open_session();
    s.execute("create table t (a int)").unwrap();
    let dead = |s: &Session| {
        s.execute("select dead from ima$wal").unwrap().rows[0]
            .get(0)
            .as_int()
    };
    assert_eq!(dead(&s), Some(0));
    engine
        .wal()
        .set_fault_plan(FaultPlan::parse("wal_append#1=transient").unwrap());
    assert!(s.execute("insert into t values (1)").is_err());
    assert_eq!(dead(&s), Some(1));
    assert!(engine.wal_stats().dead);
}
