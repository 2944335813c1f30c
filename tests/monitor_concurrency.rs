//! The monitor's counting oracles under concurrency, and its cadence and
//! self-time accounting.
//!
//! A seen statement records through atomics the statement already holds —
//! its template's footprint, its kept statement cell, a workload-ring slot
//! — without the monitor lock. These tests pin that every execution is still
//! counted exactly once: the sums that used to hold because one lock
//! serialised every record must hold with eight sessions recording at once.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use ingot::core::monitor::RefObject;
use ingot::prelude::*;

const SESSIONS: usize = 8;
const PER_SESSION: usize = 400;
const ROWS: i64 = 64;

fn engine(config: EngineConfig) -> Arc<Engine> {
    Engine::builder().config(config).build().unwrap()
}

/// Create `t (a, b)` with `ROWS` rows; returns the statements it ran.
fn load(s: &Session) -> u64 {
    s.execute("create table t (a int not null primary key, b int)")
        .unwrap();
    let insert = s.prepare("insert into t values ($1, $2)").unwrap();
    for i in 0..ROWS {
        insert.execute(&[Value::Int(i), Value::Int(i * 2)]).unwrap();
    }
    1 + ROWS as u64
}

#[test]
fn eight_sessions_record_every_statement_exactly_once() {
    let e = engine(EngineConfig::monitoring().with_statement_capacity(10_000));
    let setup = load(&e.open_session());
    thread::scope(|scope| {
        for n in 0..SESSIONS {
            let e = &e;
            scope.spawn(move || {
                let s = e.open_session();
                let point = s.prepare("select b from t where a = $1").unwrap();
                for i in 0..PER_SESSION {
                    let key = ((n * PER_SESSION + i) as i64) % ROWS;
                    let r = if i % 3 == 0 {
                        // Text: the same few texts from every session, so
                        // first sights race and repeats take the lock.
                        s.execute(&format!("select b from t where a = {}", key % 16))
                            .unwrap()
                    } else {
                        point.execute(&[Value::Int(key)]).unwrap()
                    };
                    assert_eq!(r.rows.len(), 1);
                }
            });
        }
    });
    let run = setup + (SESSIONS * PER_SESSION) as u64;
    let m = e.monitor().unwrap();
    let health = m.health();

    // Every statement is one workload record and one unit of frequency.
    assert_eq!(m.statements_recorded(), run);
    assert_eq!(health.workload_total, run);
    assert_eq!(health.statement_evictions, 0, "capacity holds every text");
    let statements = m.statements();
    assert_eq!(statements.iter().map(|s| s.frequency).sum::<u64>(), run);
    let prepared = statements
        .iter()
        .find(|s| s.text == "select b from t where a = $1")
        .unwrap();
    let texts = (0..PER_SESSION).filter(|i| i % 3 == 0).count();
    assert_eq!(
        prepared.frequency,
        (SESSIONS * (PER_SESSION - texts)) as u64
    );

    // Each object's frequency is the sum, over the statements referencing
    // it, of their frequencies.
    let frequency: HashMap<_, _> = statements.iter().map(|s| (s.hash, s.frequency)).collect();
    let mut expected: HashMap<(&str, u64, u32), u64> = HashMap::new();
    for r in m.references() {
        let key = (r.object.tag(), r.object_id, r.table.raw());
        *expected.entry(key).or_default() += frequency[&r.hash];
    }
    let tables = m.tables();
    assert_eq!(tables.len(), 1);
    for t in &tables {
        let key = (RefObject::Table.tag(), u64::from(t.id.raw()), t.id.raw());
        assert_eq!(t.frequency, expected[&key], "table {}", t.name);
    }
    let attributes = m.attributes();
    assert!(!attributes.is_empty());
    for a in &attributes {
        let key = (RefObject::Attribute.tag(), a.column as u64, a.table.raw());
        assert_eq!(a.frequency, expected[&key], "attribute {}", a.name);
    }
    for i in m.indexes() {
        let key = (RefObject::Index.tag(), u64::from(i.id.raw()), i.table.raw());
        assert_eq!(i.frequency, expected[&key], "index {}", i.name);
    }

    // Sensor calls are derived: five per statement plus the samples.
    assert_eq!(
        m.sensor_calls(),
        5 * m.statements_recorded() + health.statistics_total
    );
    // The ring holds the newest records, one per sequence number, in order.
    let workload = m.workload();
    assert_eq!(
        workload.len() as u64,
        run.min(health.workload_capacity as u64)
    );
    assert!(workload.windows(2).all(|w| w[1].seq == w[0].seq + 1));
    assert_eq!(health.workload_lapped, 0);
}

#[test]
fn statistics_are_sampled_every_64th_statement_failed_or_not() {
    let e = engine(EngineConfig::monitoring());
    let setup = load(&e.open_session());
    const PER_THREAD: usize = 640;
    thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let s = e.open_session();
                for i in 0..PER_THREAD {
                    if i % 7 == 3 {
                        assert!(s.execute("select b from missing where a = 1").is_err());
                    } else {
                        s.execute("select count(*) from t").unwrap();
                    }
                }
            });
        }
    });
    let executed = setup + 2 * PER_THREAD as u64;
    assert_eq!(e.statements_executed(), executed);
    let m = e.monitor().unwrap();
    assert_eq!(m.statistics().len() as u64, executed / 64);
    assert_eq!(m.health().statistics_total, executed / 64);
}

#[test]
fn a_sampled_statement_charges_the_statistics_gather() {
    let e = engine(EngineConfig::monitoring());
    let holder = e.open_session();
    holder
        .execute("create table big (a int not null primary key, b int)")
        .unwrap();
    let insert = holder.prepare("insert into big values ($1, 0)").unwrap();
    for i in 0..10_000 {
        insert.execute(&[Value::Int(i)]).unwrap();
    }
    // An open transaction holding a row lock per row makes the gather
    // (which walks every held lock) long enough to tell apart from the
    // record.
    holder.begin().unwrap();
    holder.execute("update big set b = 1").unwrap();
    let gather_ns = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(e.locks().stats());
            t0.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap();
    let held = e.locks().stats().held;
    assert!(held >= 10_000, "held {held}");

    let s = e.open_session();
    while !(e.statements_executed() + 1).is_multiple_of(64) {
        s.execute("select 1 from big where a = 1").unwrap();
    }
    let m = e.monitor().unwrap();
    let samples = m.statistics().len();
    let before = m.self_time_ns();
    s.execute("select 1 from big where a = 1").unwrap();
    let charged = m.self_time_ns() - before;
    assert_eq!(
        m.statistics().len(),
        samples + 1,
        "the 64th statement samples"
    );
    assert!(
        charged >= gather_ns / 2,
        "self-time grew {charged} ns across a statement whose gather alone takes ≥ {gather_ns} ns"
    );
    holder.rollback().unwrap();
}

#[test]
fn a_warmed_prepared_loop_takes_no_monitor_lock() {
    let e = engine(EngineConfig::monitoring());
    let s = e.open_session();
    load(&s);
    let m = e.monitor().unwrap();
    let point = s.prepare("select b from t where a = $1").unwrap();
    point.execute(&[Value::Int(1)]).unwrap();
    let warmed = m.health().first_sight_locks;
    for i in 0..200 {
        point.execute(&[Value::Int(i % ROWS)]).unwrap();
    }
    assert_eq!(m.health().first_sight_locks, warmed);

    // Text statements record under the lock: one take per statement.
    for i in 0..10 {
        s.execute(&format!("select b from t where a = {i} and b >= 0"))
            .unwrap();
    }
    assert_eq!(m.health().first_sight_locks, warmed + 10);
    let row = &s
        .execute("select first_sight_locks, workload_lapped from ima$monitor_health")
        .unwrap()
        .rows[0];
    assert_eq!(row.get(0).as_int(), Some(warmed as i64 + 10));
    assert_eq!(row.get(1).as_int(), Some(0));
}

#[test]
fn an_evicted_prepared_statement_re_enters_with_its_text_and_references() {
    let e = engine(EngineConfig::monitoring().with_statement_capacity(4));
    let s = e.open_session();
    load(&s);
    let m = e.monitor().unwrap();
    let point = s.prepare("select b from t where a = $1").unwrap();
    point.execute(&[Value::Int(1)]).unwrap();
    point.execute(&[Value::Int(2)]).unwrap();
    let hash = m.workload().last().unwrap().hash;
    let refs = m.references().iter().filter(|r| r.hash == hash).count();
    for i in 0..4 {
        s.execute(&format!("select a from t where b = {i}"))
            .unwrap();
    }
    assert!(m.statements().iter().all(|st| st.hash != hash));
    point.execute(&[Value::Int(3)]).unwrap();
    let back = m
        .statements()
        .into_iter()
        .find(|st| st.hash == hash)
        .unwrap();
    assert_eq!(back.text, "select b from t where a = $1");
    assert_eq!(back.frequency, 1);
    // Re-entry lists the statement's references once, and the statements
    // evicted meanwhile leave none behind.
    assert_eq!(
        m.references().iter().filter(|r| r.hash == hash).count(),
        refs
    );
    // Read through the accessors: a query of one `ima$` table would be
    // recorded, and evict a statement, before the query of the other.
    let held: HashSet<_> = m.statements().iter().map(|st| st.hash).collect();
    let referencing: HashSet<_> = m.references().iter().map(|r| r.hash).collect();
    assert!(referencing.is_subset(&held), "{referencing:?} ⊄ {held:?}");
    let locks = m.health().first_sight_locks;
    point.execute(&[Value::Int(4)]).unwrap();
    assert_eq!(m.health().first_sight_locks, locks, "kept again");
}
