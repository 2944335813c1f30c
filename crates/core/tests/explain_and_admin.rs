//! EXPLAIN rendering and administrative statement behaviour.

use ingot_common::{EngineConfig, Error};
use ingot_core::Engine;

fn engine() -> std::sync::Arc<Engine> {
    let e = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let s = e.open_session();
    s.execute("create table t (id int not null primary key, v int)")
        .unwrap();
    for i in 0..2000 {
        s.execute(&format!("insert into t values ({i}, {})", i % 10))
            .unwrap();
    }
    drop(s);
    e
}

fn explain(e: &std::sync::Arc<Engine>, sql: &str) -> String {
    let s = e.open_session();
    s.execute(&format!("explain {sql}"))
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_str().unwrap().to_owned())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn explain_dml_is_readable() {
    let e = engine();
    let up = explain(&e, "update t set v = 0 where id = 5");
    assert!(up.contains("Update t"), "{up}");
    assert!(up.contains("filtered"), "{up}");
    let del = explain(&e, "delete from t");
    assert!(del.contains("Delete from t"), "{del}");
    assert!(!del.contains("filtered"), "{del}");
    let ins = explain(&e, "insert into t values (9999, 1)");
    assert!(
        ins.contains("Insert into t") && ins.contains("1 row"),
        "{ins}"
    );
}

#[test]
fn explain_shows_plan_change_after_tuning() {
    let e = engine();
    let before = explain(&e, "select v from t where id = 77");
    assert!(before.contains("SeqScan"), "{before}");
    let s = e.open_session();
    s.execute("create statistics on t").unwrap();
    s.execute("modify t to btree").unwrap();
    let after = explain(&e, "select v from t where id = 77");
    assert!(after.contains("PkLookup"), "{after}");
}

#[test]
fn explain_does_not_execute() {
    let e = engine();
    let s = e.open_session();
    let before = s.execute("select count(*) from t").unwrap();
    s.execute("explain delete from t").unwrap();
    let after = s.execute("select count(*) from t").unwrap();
    assert_eq!(before.rows, after.rows, "EXPLAIN must not run the DML");
}

#[test]
fn set_of_an_unknown_name_is_refused() {
    let e = engine();
    let s = e.open_session();
    // A name the engine cannot change at run time is an error, not a
    // silent no-op.
    for sql in ["set monitor_resolution = 100", "set lock_timeout = 'long'"] {
        let err = s.execute(sql).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{sql}: {err}");
    }
    s.execute("set trace = on").unwrap();
    s.execute("set trace = off").unwrap();
}

#[test]
fn drop_table_then_recreate() {
    let e = engine();
    let s = e.open_session();
    s.execute("drop table t").unwrap();
    assert!(s.execute("select * from t").is_err());
    s.execute("create table t (id int)").unwrap();
    s.execute("insert into t values (1)").unwrap();
    let r = s.execute("select count(*) from t").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(1));
}

#[test]
fn drop_index_restores_scans() {
    let e = engine();
    let s = e.open_session();
    s.execute("create index t_v on t (v)").unwrap();
    s.execute("create statistics on t").unwrap();
    s.execute("drop index t_v").unwrap();
    let plan = explain(&e, "select id from t where v = 3");
    assert!(plan.contains("SeqScan"), "{plan}");
    // And the query still answers correctly.
    let r = s.execute("select count(*) from t where v = 3").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(200));
}
