//! The scan's budget, as counts: a range aggregate over a heap allocates
//! per statement, never per page or per row. The scan walks each record
//! into one cell buffer it reuses and builds survivors into one reused row,
//! so a statement over a heap four times larger allocates exactly as often.
//! That holds over a pool that holds the heap and over one the heap
//! outgrows, where every page is a miss: a run of missed pages is read
//! straight into the scan's buffer, not into a page of the pool.
//!
//! One test function on purpose: the allocation counter is process-wide,
//! and a second test on another harness thread would be counted too.

mod counting_alloc;

use std::sync::Arc;

use counting_alloc::allocations;
use ingot::prelude::*;

const WARM_UP: i64 = 100;
const MEASURED: i64 = 400;

/// A `protein`-shaped row: two strings before the tested `len`, a float and
/// a sequence after it.
fn protein(i: i64) -> Row {
    let len = 24 + i * 7 % 49;
    Row::new(vec![
        Value::Str(format!("NF{i:08}")),
        Value::Str(format!("protein {i}")),
        Value::Int(len),
        Value::Float(len as f64 * 110.4),
        Value::Str("ACDEFGHIKLMNPQRSTVWY".repeat(3)),
    ])
}

/// Grow `protein` to at least `pages` heap pages, then checkpoint the pages
/// clean and drop them from the pool.
fn load_to(engine: &Engine, next: &mut i64, pages: u64) {
    let catalog = engine.catalog().read();
    let table = catalog.resolve_table("protein").unwrap();
    let heap_pages = || {
        let entry = catalog.table_by_name("protein").unwrap();
        entry.heap.stats().total_pages()
    };
    while heap_pages() < pages {
        catalog.insert_row(table, &protein(*next)).unwrap();
        *next += 1;
    }
    drop(catalog);
    engine.checkpoint().unwrap();
    engine.catalog().read().pool().clear().unwrap();
}

/// Allocations per prepared `count(*), sum(len) … between` on a warm pool,
/// and the rows the statements scanned in all.
fn allocations_per_scan(engine: &Arc<Engine>) -> (f64, i64) {
    let s = engine.open_session();
    let scan = s
        .prepare("select count(*), sum(len) from protein where len between $1 and $2")
        .unwrap();
    let run = |i: i64| {
        let lo = 24 + i % 39;
        scan.execute(&[Value::Int(lo), Value::Int(lo + 10)])
            .unwrap()
    };
    for i in 0..WARM_UP {
        run(i);
    }
    let before = allocations();
    let mut counted = 0;
    for i in 0..MEASURED {
        let result = run(i);
        let Some(Value::Int(n)) = result.rows.first().and_then(|r| r.values().first()) else {
            panic!("count(*) is an int: {result:?}");
        };
        counted += n;
    }
    let per_statement = (allocations() - before) as f64 / MEASURED as f64;
    (per_statement, counted)
}

#[test]
fn a_range_aggregate_allocates_per_statement_not_per_row() {
    // The default pool holds both heaps; an 8-page pool holds neither.
    for pool_pages in [2_048, 8] {
        let bare = EngineConfig::original()
            .with_wait_events_enabled(false)
            .with_buffer_pool_pages(pool_pages);
        let engine = Engine::builder().config(bare).build().unwrap();
        engine
            .open_session()
            .execute(
                "create table protein (nref_id text not null, name text, len int, \
                 mol_weight float, sequence text)",
            )
            .unwrap();
        let mut next = 0;
        load_to(&engine, &mut next, 16);
        let (small, small_rows) = allocations_per_scan(&engine);
        load_to(&engine, &mut next, 64);
        let (large, large_rows) = allocations_per_scan(&engine);
        println!(
            "pool of {pool_pages} pages: {small:.2} allocations per statement over 16 \
             pages, {large:.2} over 64 ({small_rows} and {large_rows} rows counted)"
        );
        assert!(
            large_rows > 3 * small_rows,
            "the larger heap has more survivors"
        );
        assert_eq!(
            small, large,
            "a scan allocates per page or per row (pool of {pool_pages} pages)"
        );
    }
}
