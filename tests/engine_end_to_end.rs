//! Cross-crate integration: full SQL behaviour through the public API,
//! validated against independently computed expectations.

use ingot::prelude::*;

fn engine() -> std::sync::Arc<Engine> {
    Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap()
}

fn ints(r: &StatementResult, col: usize) -> Vec<i64> {
    r.rows
        .iter()
        .map(|row| row.get(col).as_int().unwrap())
        .collect()
}

#[test]
fn join_results_match_naive_computation() {
    let e = engine();
    let s = e.open_session();
    s.execute("create table a (k int not null, av int)")
        .unwrap();
    s.execute("create table b (k int not null, bv int)")
        .unwrap();
    // Deterministic pseudo-random data via a simple LCG.
    let mut x = 7u64;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as i64
    };
    let mut a_rows = Vec::new();
    let mut b_rows = Vec::new();
    for _ in 0..300 {
        let k = next() % 40;
        let v = next() % 1000;
        a_rows.push((k, v));
        s.execute(&format!("insert into a values ({k}, {v})"))
            .unwrap();
    }
    for _ in 0..200 {
        let k = next() % 40;
        let v = next() % 1000;
        b_rows.push((k, v));
        s.execute(&format!("insert into b values ({k}, {v})"))
            .unwrap();
    }
    // Naive nested-loop expectation.
    let mut expected: Vec<(i64, i64, i64)> = Vec::new();
    for &(ak, av) in &a_rows {
        for &(bk, bv) in &b_rows {
            if ak == bk && av < bv {
                expected.push((ak, av, bv));
            }
        }
    }
    expected.sort();
    let r = s
        .execute(
            "select a.k, av, bv from a join b on a.k = b.k \
             where av < bv order by a.k, av, bv",
        )
        .unwrap();
    let got: Vec<(i64, i64, i64)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row.get(0).as_int().unwrap(),
                row.get(1).as_int().unwrap(),
                row.get(2).as_int().unwrap(),
            )
        })
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn aggregates_match_naive_computation() {
    let e = engine();
    let s = e.open_session();
    s.execute("create table t (g int, v int)").unwrap();
    let mut sums = std::collections::BTreeMap::new();
    for i in 0..500i64 {
        let g = i % 7;
        let v = (i * 13) % 101;
        *sums.entry(g).or_insert(0i64) += v;
        s.execute(&format!("insert into t values ({g}, {v})"))
            .unwrap();
    }
    let r = s
        .execute("select g, sum(v), count(*), min(v), max(v) from t group by g order by g")
        .unwrap();
    assert_eq!(r.rows.len(), 7);
    for row in &r.rows {
        let g = row.get(0).as_int().unwrap();
        assert_eq!(row.get(1).as_int().unwrap(), sums[&g]);
        assert!(row.get(2).as_int().unwrap() >= 71);
    }
    // Global aggregate.
    let total: i64 = sums.values().sum();
    let r = s.execute("select sum(v) from t").unwrap();
    assert_eq!(r.rows[0].get(0).as_int().unwrap(), total);
}

#[test]
fn update_delete_respect_predicates_and_indexes_stay_consistent() {
    let e = engine();
    let s = e.open_session();
    s.execute("create table t (id int not null primary key, v int)")
        .unwrap();
    for i in 0..400 {
        s.execute(&format!("insert into t values ({i}, {})", i % 20))
            .unwrap();
    }
    s.execute("create index t_v on t (v)").unwrap();
    s.execute("modify t to btree").unwrap();
    s.execute("update t set v = 99 where v = 5").unwrap();
    // Via the index (v) and via a scan must agree.
    let by_index = s.execute("select count(*) from t where v = 99").unwrap();
    assert_eq!(by_index.rows[0].get(0).as_int().unwrap(), 20);
    let gone = s.execute("select count(*) from t where v = 5").unwrap();
    assert_eq!(gone.rows[0].get(0).as_int().unwrap(), 0);
    s.execute("delete from t where v = 99").unwrap();
    let total = s.execute("select count(*) from t").unwrap();
    assert_eq!(total.rows[0].get(0).as_int().unwrap(), 380);
    // PK lookups still correct after delete.
    let r = s.execute("select v from t where id = 6").unwrap();
    assert_eq!(r.rows[0].get(0).as_int().unwrap(), 6);
    let r = s.execute("select v from t where id = 5").unwrap();
    assert!(r.rows.is_empty(), "id 5 had v=5 → deleted");
}

#[test]
fn order_limit_distinct_between_like() {
    let e = engine();
    let s = e.open_session();
    s.execute("create table t (id int, tag text)").unwrap();
    for i in 0..50 {
        s.execute(&format!("insert into t values ({i}, 'tag{}')", i % 5))
            .unwrap();
    }
    let r = s
        .execute("select distinct tag from t where id between 10 and 30 order by tag desc limit 3")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0].get(0).as_str(), Some("tag4"));
    let r = s
        .execute("select count(*) from t where tag like 'tag_'")
        .unwrap();
    assert_eq!(r.rows[0].get(0).as_int().unwrap(), 50);
    let r = s
        .execute("select count(*) from t where tag like '%3'")
        .unwrap();
    assert_eq!(r.rows[0].get(0).as_int().unwrap(), 10);
    // ORDER BY hidden column + OFFSET.
    let r = s
        .execute("select tag from t order by id desc limit 2 offset 1")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0].get(0).as_str(), Some("tag3")); // id 48
}

#[test]
fn null_semantics_end_to_end() {
    let e = engine();
    let s = e.open_session();
    s.execute("create table t (id int, v int)").unwrap();
    s.execute("insert into t values (1, 10), (2, null), (3, 30)")
        .unwrap();
    // NULL never matches comparisons.
    let r = s.execute("select id from t where v > 5").unwrap();
    assert_eq!(ints(&r, 0).len(), 2);
    let r = s.execute("select id from t where v is null").unwrap();
    assert_eq!(ints(&r, 0), vec![2]);
    let r = s
        .execute("select id from t where v is not null order by id")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![1, 3]);
    // Aggregates skip NULLs; count(*) does not.
    let r = s
        .execute("select count(v), count(*), sum(v) from t")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![2]);
    assert_eq!(r.rows[0].get(1).as_int().unwrap(), 3);
    assert_eq!(r.rows[0].get(2).as_int().unwrap(), 40);
}

#[test]
fn three_way_join_with_aggregation() {
    let e = engine();
    let s = e.open_session();
    s.execute("create table f (a int, b int)").unwrap();
    s.execute("create table g (b int, c int)").unwrap();
    s.execute("create table h (c int, w int)").unwrap();
    for i in 0..60 {
        s.execute(&format!("insert into f values ({}, {})", i % 6, i % 10))
            .unwrap();
        s.execute(&format!("insert into g values ({}, {})", i % 10, i % 4))
            .unwrap();
        s.execute(&format!("insert into h values ({}, {})", i % 4, i))
            .unwrap();
    }
    let r = s
        .execute(
            "select f.a, count(*) from f \
             join g on f.b = g.b join h on g.c = h.c \
             group by f.a order by f.a",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 6);
    // Every group has the same structure by symmetry: 10*6*15 joins / 6 groups.
    let n0 = r.rows[0].get(1).as_int().unwrap();
    assert!(n0 > 0);
    for row in &r.rows {
        assert_eq!(row.get(1).as_int().unwrap(), n0);
    }
}

#[test]
fn errors_are_clean_and_engine_survives() {
    let e = engine();
    let s = e.open_session();
    assert!(matches!(s.execute("selec 1"), Err(Error::Parse(_))));
    assert!(matches!(
        s.execute("select * from ghosts"),
        Err(Error::Binder(_))
    ));
    s.execute("create table t (a int not null)").unwrap();
    assert!(matches!(
        s.execute("insert into t values (null)"),
        Err(Error::Constraint(_))
    ));
    assert!(matches!(
        s.execute("select 1/0 from t"),
        Err(Error::Execution(_)) | Ok(_) // empty table: division never runs
    ));
    s.execute("insert into t values (1)").unwrap();
    assert!(matches!(
        s.execute("select 1/0 from t"),
        Err(Error::Execution(_))
    ));
    // And the engine still works.
    let r = s.execute("select count(*) from t").unwrap();
    assert_eq!(r.rows[0].get(0).as_int().unwrap(), 1);
}

#[test]
fn probe_join_checks_predicates_over_both_sides() {
    let e = engine();
    let s = e.open_session();
    s.execute("create table part (id int not null primary key, qty int)")
        .unwrap();
    s.execute(
        "create table bin (id int not null, slot int not null, cap int, primary key (id, slot))",
    )
    .unwrap();
    for batch in 0..40 {
        let ids = batch * 100..(batch + 1) * 100;
        let parts: Vec<String> = ids.clone().map(|id| format!("({id}, {id})")).collect();
        let bins: Vec<String> = ids.map(|id| format!("({id}, 0, {id} + 1)")).collect();
        s.execute(&format!("insert into part values {}", parts.join(", ")))
            .unwrap();
        s.execute(&format!("insert into bin values {}", bins.join(", ")))
            .unwrap();
    }
    for t in ["part", "bin"] {
        s.execute(&format!("create statistics on {t}")).unwrap();
        s.execute(&format!("modify {t} to btree")).unwrap();
    }
    // One outer row probing a keyed inner table: the index nested-loop join
    // wins, and it owns the predicate neither side can check alone.
    let join = "select p.id from part p join bin b on p.id = b.id where p.id = 7";
    let plan = s.execute(&format!("explain {join} and p.qty > b.cap"));
    let plan = format!("{:?}", plan.unwrap().rows);
    assert!(plan.contains("ProbeJoin into bin"), "{plan}");
    let r = s.execute(&format!("{join} and p.qty > b.cap")).unwrap();
    assert_eq!(ints(&r, 0), Vec::<i64>::new());
    let r = s.execute(&format!("{join} and p.qty < b.cap")).unwrap();
    assert_eq!(ints(&r, 0), vec![7]);
}
