//! The ad-hoc statement's budget, as counts: what a never-seen two-table
//! join text costs in heap allocations on its way through the plan-cache
//! miss path — the whole statement on a session, and parse, bind and
//! optimize each called directly.
//!
//! One test function on purpose: the allocation counter is process-wide,
//! and a second test on another harness thread would be counted too.

mod counting_alloc;

use std::sync::Arc;

use counting_alloc::allocations;
use ingot::planner::{optimize, Binder, OptimizerOptions};
use ingot::prelude::*;
use ingot::sql::parse_statement;
use ingot::workload::{nref_schema_ddl, simple_join_statement};

const WARM_UP: u64 = 1_000;
const MEASURED: u64 = 10_000;

/// A keyed `protein` ⋈ `organism` pair with one organism per protein, bulk
/// loaded the way `load_nref` loads.
fn nref_pair(config: EngineConfig) -> (Arc<Engine>, NrefConfig) {
    let engine = Engine::builder().config(config).build().unwrap();
    let nref = NrefConfig {
        proteins: WARM_UP + MEASURED,
        ..NrefConfig::default()
    };
    let s = engine.open_session();
    for ddl in &nref_schema_ddl()[..2] {
        s.execute(ddl).unwrap();
    }
    {
        let catalog = engine.catalog().read();
        let protein = catalog.resolve_table("protein").unwrap();
        let organism = catalog.resolve_table("organism").unwrap();
        for i in 0..nref.proteins {
            let id = Value::Str(NrefConfig::nref_id(i));
            let n = i as i64;
            let row = vec![
                id.clone(),
                Value::Str(format!("protein {i}")),
                Value::Int(20 + n % 80),
                Value::Float(2_000.0 + n as f64),
                Value::Str("ACDEFGHIKLMNPQRSTVWY".into()),
            ];
            catalog.insert_row(protein, &Row::new(row)).unwrap();
            let row = vec![
                id,
                Value::Int(n % 30),
                Value::Int(n % 5),
                Value::Str(format!("organism {}", n % 30)),
            ];
            catalog.insert_row(organism, &Row::new(row)).unwrap();
        }
    }
    // A tuned database, like the paper's testbed: statistics collected,
    // keyed primary structures.
    for table in ["protein", "organism"] {
        s.execute(&format!("create statistics on {table}")).unwrap();
        s.execute(&format!("modify {table} to btree")).unwrap();
    }
    (engine, nref)
}

/// Allocations per statement of `MEASURED` join texts, none sent before.
fn allocations_per_statement(engine: &Arc<Engine>, nref: &NrefConfig) -> f64 {
    let s = engine.open_session();
    let texts: Vec<String> = (0..WARM_UP + MEASURED)
        .map(|i| simple_join_statement(nref, i))
        .collect();
    let (warm_up, measured) = texts.split_at(WARM_UP as usize);
    for sql in warm_up {
        s.execute(sql).unwrap();
    }
    let before = allocations();
    for sql in measured {
        let r = s.execute(sql).unwrap();
        assert_eq!((r.rows.len(), r.actual_cost.cpu), (1, 3.0));
    }
    let per_statement = (allocations() - before) as f64 / MEASURED as f64;
    assert_eq!(engine.plan_cache_stats().hits, 0, "every text is new");
    per_statement
}

/// Allocations per call of parse, bind and optimize on the same texts.
fn allocations_per_stage(engine: &Arc<Engine>, nref: &NrefConfig) -> [f64; 3] {
    let catalog = engine.catalog().read();
    let mut spent = [0u64; 3];
    for i in 0..MEASURED {
        let sql = simple_join_statement(nref, i);
        let t0 = allocations();
        let stmt = parse_statement(&sql).unwrap();
        let t1 = allocations();
        let (bound, artifacts) = Binder::new(&catalog).bind(&stmt).unwrap();
        let t2 = allocations();
        let planned = optimize(&catalog, &bound, OptimizerOptions::default()).unwrap();
        let t3 = allocations();
        spent[0] += t1 - t0;
        spent[1] += t2 - t1;
        spent[2] += t3 - t2;
        drop((stmt, bound, artifacts, planned));
    }
    spent.map(|n| n as f64 / MEASURED as f64)
}

#[test]
fn an_unseen_join_text_stays_within_its_allocation_budget() {
    let bare = EngineConfig::original().with_wait_events_enabled(false);
    let (engine, nref) = nref_pair(EngineConfig::default());
    let watched = allocations_per_statement(&engine, &nref);
    let [parse, bind, optimize] = allocations_per_stage(&engine, &nref);
    let (engine, nref) = nref_pair(bare);
    let unwatched = allocations_per_statement(&engine, &nref);
    println!(
        "allocations per unseen join text: {watched:.1} watched, {unwatched:.1} bare; \
         parse {parse:.1}, bind {bind:.1}, optimize {optimize:.1}"
    );
    // Before the miss path stopped building what it throws away: 302 watched
    // and 292 bare; parse 62, bind 56, optimize 136.
    assert!(watched <= 150.0, "statement: {watched:.1}");
    assert!(parse <= 30.0, "parse_statement: {parse:.1}");
    assert!(bind <= 30.0, "Binder::bind: {bind:.1}");
    assert!(optimize <= 50.0, "optimize: {optimize:.1}");
    // The observers allocate one statement cell per new text: literal
    // variants share their shape's footprint, and a text that is its
    // template files the template's `Arc`.
    assert!(
        watched - unwatched <= 2.0,
        "observers: {:.1}",
        watched - unwatched
    );
}
