//! UPDATE and DELETE find their rows through the access path the optimizer
//! chose for them — the one a `SELECT` with the same WHERE takes — and the
//! answer never depends on which path that is.
//!
//! The differential oracle runs a fixed set of predicates (equality, range
//! and `between` on the primary key, on an indexed column and on a plain
//! column; constant conjuncts; mixtures) on a heap table, a B-Tree table
//! and a B-Tree table with a secondary index, each with and without
//! statistics. For every case `update t set v = v where P` and `delete from
//! t where P` affect exactly `select count(*) from t where P` rows, the
//! DELETE leaves exactly the complement, and both name the access path the
//! SELECT names. Across the cases every path — `SeqScan`, `PkLookup` and
//! `IndexScan` — serves a write.
//!
//! Beside it: an UPDATE planned as an index range increments each matching
//! row once; an UPDATE and a DELETE over a key range of a B-Tree table
//! probe its clustered tree and read only the range's rows, using no
//! index; a prepared UPDATE planned as a `PkLookup` is planned again
//! once `modify t to heap` removes that path; what-if estimates, `EXPLAIN
//! ANALYZE` and `ima$indexes` report the path a write took.

use std::collections::BTreeSet;
use std::sync::Arc;

use ingot::core::estimate;
use ingot::prelude::*;

/// Rows in `t`. With a 200-byte pad each, the heap spans enough pages that
/// a handful of random fetches beats reading it all.
const ROWS: i64 = 1000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Heap,
    BTree,
    BTreeIndexed,
}

/// `t (id, v, w, pad)`: `id` the primary key, `v` a permutation of the ids
/// with a NULL every 97th row (indexed as `t_v` in `BTreeIndexed`), `w`
/// cycling through ten values, never indexed.
fn engine(shape: Shape, stats: bool) -> (Arc<Engine>, Session) {
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let s = engine.open_session();
    s.execute("create table t (id int not null primary key, v int, w int, pad text)")
        .unwrap();
    let insert = s.prepare("insert into t values ($1, $2, $3, $4)").unwrap();
    let pad = Value::Str("x".repeat(200));
    for i in 0..ROWS {
        let v = match i % 97 {
            0 => Value::Null,
            _ => Value::Int(i * 7 % ROWS),
        };
        insert
            .execute(&[Value::Int(i), v, Value::Int(i % 10), pad.clone()])
            .unwrap();
    }
    drop(insert);
    if shape != Shape::Heap {
        s.execute("modify t to btree").unwrap();
    }
    if shape == Shape::BTreeIndexed {
        s.execute("create index t_v on t (v)").unwrap();
    }
    if stats {
        s.execute("create statistics on t").unwrap();
    }
    (engine, s)
}

const PREDICATES: &[&str] = &[
    "id = 17",
    "id = 5000",
    "id < 40",
    "id >= 990",
    "id between 100 and 120",
    "id > 10 and id <= 14",
    "v = 21",
    "v = 3",
    "v < 4",
    "v between 1 and 5",
    "v >= 995",
    "v is null",
    "w = 3",
    "w between 2 and 3",
    "w < 1",
    "1 = 0",
    "1 = 1",
    "v = 21 and 1 = 0",
    "1 = 1 and id = 17",
    "id < 200 and v = 21",
    "v between 1 and 5 and w = 3",
    "id = 17 and v = 119",
    "id = 3 or v = 21",
];

fn ints(rows: &[Row]) -> Vec<i64> {
    rows.iter().map(|r| r.get(0).as_int().unwrap()).collect()
}

/// The one value `sql` answers.
fn scalar(s: &Session, sql: &str) -> i64 {
    s.execute(sql).unwrap().rows[0].get(0).as_int().unwrap()
}

/// The access node `EXPLAIN` prints for `sql`: its last line, which for a
/// one-table statement is the base-table access.
fn access_line(s: &Session, sql: &str) -> String {
    let rows = s.execute(&format!("explain {sql}")).unwrap().rows;
    let last = rows.last().unwrap().get(0).as_str().unwrap();
    last.trim().to_owned()
}

fn op(line: &str) -> &str {
    line.split_whitespace().next().unwrap()
}

#[test]
fn writes_find_exactly_the_rows_their_select_finds() {
    let all: Vec<i64> = (0..ROWS).collect();
    let mut paths = BTreeSet::new();
    for shape in [Shape::Heap, Shape::BTree, Shape::BTreeIndexed] {
        for stats in [false, true] {
            let (_engine, s) = engine(shape, stats);
            for p in PREDICATES {
                let case = format!("{shape:?}, statistics {stats}: {p}");
                let matching = ints(
                    &s.execute(&format!("select id from t where {p}"))
                        .unwrap()
                        .rows,
                );
                let n = matching.len() as u64;
                assert_eq!(
                    scalar(&s, &format!("select count(*) from t where {p}")) as u64,
                    n,
                    "{case}"
                );

                let select = access_line(&s, &format!("select * from t where {p}"));
                let update = format!("update t set v = v where {p}");
                let delete = format!("delete from t where {p}");
                assert_eq!(access_line(&s, &update), select, "{case}");
                assert_eq!(access_line(&s, &delete), select, "{case}");
                paths.insert(op(&select).to_owned());

                assert_eq!(s.execute(&update).unwrap().affected, n, "{case}");
                s.begin().unwrap();
                assert_eq!(s.execute(&delete).unwrap().affected, n, "{case}");
                let survivors = ints(&s.execute("select id from t order by id").unwrap().rows);
                let complement: Vec<i64> = all
                    .iter()
                    .copied()
                    .filter(|id| !matching.contains(id))
                    .collect();
                assert_eq!(survivors, complement, "{case}");
                s.rollback().unwrap();
                assert_eq!(scalar(&s, "select count(*) from t"), ROWS, "{case}");
            }
        }
    }
    let want: BTreeSet<String> = ["IndexScan", "PkLookup", "SeqScan"]
        .map(String::from)
        .into();
    assert_eq!(paths, want);
}

#[test]
fn an_index_range_update_increments_each_row_once() {
    let (_engine, s) = engine(Shape::BTreeIndexed, true);
    let sql = "update t set v = v + 1 where v between 1 and 5";
    let path = access_line(&s, sql);
    assert!(path.starts_with("IndexScan on t via t_v range"), "{path}");
    let snapshot = |s: &Session| -> Vec<(i64, Option<i64>)> {
        let rows = s.execute("select id, v from t order by id").unwrap().rows;
        rows.iter()
            .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int()))
            .collect()
    };
    let before = snapshot(&s);
    let hit = |v: Option<i64>| v.is_some_and(|v| (1..=5).contains(&v));
    let matching = before.iter().filter(|(_, v)| hit(*v)).count() as u64;
    assert_eq!(matching, 5);
    assert_eq!(s.execute(sql).unwrap().affected, matching);
    let want: Vec<_> = before
        .iter()
        .map(|&(id, v)| (id, if hit(v) { v.map(|v| v + 1) } else { v }))
        .collect();
    assert_eq!(snapshot(&s), want);
}

#[test]
fn a_prepared_update_is_planned_again_when_its_path_goes() {
    let (_engine, s) = engine(Shape::BTree, true);
    let path = access_line(&s, "update t set w = w + 1 where id = 17");
    assert!(path.starts_with("PkLookup on t"), "{path}");
    let bump = s.prepare("update t set w = w + 1 where id = $1").unwrap();
    assert_eq!(bump.execute(&[Value::Int(17)]).unwrap().affected, 1);
    s.execute("modify t to heap").unwrap();
    let path = access_line(&s, "update t set w = w + 1 where id = 17");
    assert!(path.starts_with("SeqScan on t"), "{path}");
    assert_eq!(bump.execute(&[Value::Int(17)]).unwrap().affected, 1);
    assert_eq!(scalar(&s, "select w from t where id = 17"), 17 % 10 + 2);
}

#[test]
fn what_if_estimates_price_a_delete_through_a_virtual_index() {
    let (engine, _s) = engine(Shape::Heap, true);
    let sql = "delete from t where v = 3";
    let mut what_if = engine.what_if();
    let before = estimate(&what_if, sql).unwrap();
    assert_eq!(
        (before.used_indexes.as_slice(), before.uses_virtual),
        (&[][..], false)
    );
    let v = what_if.add_virtual_index("t", &["v"]).unwrap();
    let after = estimate(&what_if, sql).unwrap();
    assert_eq!(after.used_indexes, vec![v]);
    assert!(after.uses_virtual);
    assert!(
        after.est.cheaper_than(&before.est),
        "{before:?} vs {after:?}"
    );
    let mut lines = after.plan.lines();
    assert_eq!(lines.next(), Some("Delete from t"), "{}", after.plan);
    let access = lines.next().unwrap_or_default();
    assert!(
        access.starts_with("  IndexScan on t via $virtual_t_"),
        "{}",
        after.plan
    );
    assert_eq!(lines.next(), None, "{}", after.plan);
}

#[test]
fn explain_analyze_shows_a_writes_access_path_under_it() {
    let (_engine, s) = engine(Shape::BTree, false);
    let rows = s
        .execute("explain analyze delete from t where id = 5")
        .unwrap()
        .rows;
    let text: Vec<&str> = rows.iter().map(|r| r.get(0).as_str().unwrap()).collect();
    assert!(
        text[0].starts_with("Delete on t  (est rows=1, act rows=1,"),
        "{text:#?}"
    );
    assert!(
        text[1].starts_with("  PkLookup on t  (est rows=1, act rows=1, tuples=1,"),
        "{text:#?}"
    );
    assert!(
        text[2].starts_with("Execution: 1 tuple(s) processed, 1 row(s) affected"),
        "{text:#?}"
    );
}

#[test]
fn index_frequency_counts_the_writes_that_probe_it() {
    let (_engine, s) = engine(Shape::BTreeIndexed, true);
    let frequency = |s: &Session| {
        let rows = s
            .execute("select frequency from ima$indexes where index_name = 't_v'")
            .unwrap()
            .rows;
        rows.first().map_or(0, |r| r.get(0).as_int().unwrap())
    };
    let path = access_line(&s, "delete from t where v = 7");
    assert!(path.starts_with("IndexScan on t via t_v eq(1)"), "{path}");
    let before = frequency(&s);
    const N: i64 = 6;
    for k in 0..N {
        let affected = s
            .execute(&format!("delete from t where v = {}", 7 * k + 7))
            .unwrap()
            .affected;
        assert_eq!(affected, 1);
    }
    assert_eq!(frequency(&s), before + N);
}

/// The number that follows `label` in `line`.
fn number_after(line: &str, label: &str) -> u64 {
    let at = line
        .find(label)
        .unwrap_or_else(|| panic!("no {label} in {line}"))
        + label.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

#[test]
fn writes_through_a_clustered_range_read_only_their_rows() {
    let (engine, s) = engine(Shape::BTreeIndexed, true);
    let frequencies = |s: &Session| {
        let rows = s.execute("select index_name, frequency from ima$indexes");
        rows.unwrap().rows
    };
    let range = "id between 100 and 104";
    let n = scalar(&s, &format!("select count(*) from t where {range}")) as u64;
    assert_eq!(n, 5);
    for write in [
        format!("update t set w = w + 1 where {range}"),
        format!("delete from t where {range}"),
    ] {
        let before = frequencies(&s);
        let rows = s.execute(&format!("explain analyze {write}")).unwrap().rows;
        let text: Vec<&str> = rows.iter().map(|r| r.get(0).as_str().unwrap()).collect();
        assert_eq!(number_after(text[2], "processed, "), n, "{text:#?}");
        // The access span read the range's entries, not the table.
        assert_eq!(number_after(text[1], "tuples="), n, "{text:#?}");
        assert!(text[1].starts_with("  PkLookup on t range"), "{text:#?}");
        let est = estimate(&engine.what_if(), &write).unwrap();
        assert_eq!(est.used_indexes, []);
        assert_eq!(frequencies(&s), before, "{write}");
    }
    assert_eq!(
        scalar(&s, &format!("select count(*) from t where {range}")),
        0
    );
    assert_eq!(scalar(&s, "select count(*) from t"), ROWS - 5);
}
