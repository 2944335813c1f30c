//! The observers' allocation budget: once a statement and the objects it
//! references have been seen, watching it allocates nothing. A prepared
//! statement runs on the default configuration and on an engine with every
//! observer off, and the heap allocations per statement are compared.
//!
//! One test function on purpose: the counter is process-wide, and a second
//! test on another harness thread would be counted too.

mod counting_alloc;

use counting_alloc::allocations;
use ingot::prelude::*;

const WARM_UP: i64 = 1_000;
const MEASURED: i64 = 10_000;
const ROWS: i64 = 500;

/// The value bound to `$1` on the `i`-th execution.
type Param = fn(i64) -> [Value; 1];

/// Allocations per statement of `sql` bound to `param(i)`, after a warm-up.
fn allocations_per_statement(config: EngineConfig, sql: &str, param: Param) -> f64 {
    let engine = Engine::builder().config(config).build().unwrap();
    let s = engine.open_session();
    s.execute("create table item (id int not null primary key, qty int)")
        .unwrap();
    for id in 0..ROWS {
        s.execute(&format!("insert into item values ({id}, {id})"))
            .unwrap();
    }
    s.execute("modify item to btree").unwrap();
    s.execute("create table log (id int not null primary key)")
        .unwrap();
    let prepared = s.prepare(sql).unwrap();
    for i in 0..WARM_UP {
        prepared.execute(&param(i)).unwrap();
    }
    let before = allocations();
    for i in WARM_UP..WARM_UP + MEASURED {
        prepared.execute(&param(i)).unwrap();
    }
    (allocations() - before) as f64 / MEASURED as f64
}

/// What the observers add per statement: default configuration minus bare.
fn observers_allocate(sql: &str, param: Param) -> f64 {
    let bare = EngineConfig::original().with_wait_events_enabled(false);
    let on = allocations_per_statement(EngineConfig::default(), sql, param);
    let off = allocations_per_statement(bare, sql, param);
    println!("{sql}: {on:.3} allocations per statement watched, {off:.3} bare");
    on - off
}

#[test]
fn observers_allocate_nothing_per_cached_statement() {
    // The slack covers the ASH sampler's rows, one tick per 100 ms. Before
    // the sensor path stopped copying, the observers added 8.0 allocations
    // to the select and 5.0 to the insert.
    for (sql, param) in [
        (
            "select qty from item where id = $1",
            (|i| [Value::Int(i % ROWS)]) as Param,
        ),
        ("insert into log values ($1)", |i| [Value::Int(i)]),
    ] {
        let added = observers_allocate(sql, param);
        assert!(
            added <= 0.05,
            "{sql}: {added:.3} allocations per statement for the observers"
        );
    }
}
