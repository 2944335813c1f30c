//! A heap scan reads a heap larger than the buffer pool in runs, straight
//! into its own buffer, and installs none of those pages: the pool keeps
//! what other statements use, and the answers are those of a pool that
//! holds the whole heap, dirty and uncommitted pages included.

use std::sync::Arc;

use ingot::common::WaitEvent;
use ingot::prelude::*;

/// Pages the scanned heap grows to: eight times the smallest pool.
const HEAP_PAGES: u64 = 64;

fn row(i: i64) -> Row {
    Row::new(vec![
        Value::Int(i),
        Value::Int(len_of(i)),
        Value::Str(format!("padding for protein {i:06} ").repeat(4)),
    ])
}

fn len_of(i: i64) -> i64 {
    24 + i * 7 % 49
}

fn engine(pool_pages: usize) -> Arc<Engine> {
    let config = EngineConfig::monitoring().with_buffer_pool_pages(pool_pages);
    Engine::builder().config(config).build().unwrap()
}

/// Create `protein` as a heap and load it to `HEAP_PAGES` pages; returns
/// the rows loaded. The pages are checkpointed clean and dropped from the
/// pool, so the next read of each is a physical one.
fn load(engine: &Arc<Engine>) -> i64 {
    engine
        .open_session()
        .execute("create table protein (id int not null, len int, pad text)")
        .unwrap();
    let catalog = engine.catalog().read();
    let table = catalog.resolve_table("protein").unwrap();
    let pages = || {
        catalog
            .table_by_name("protein")
            .unwrap()
            .heap
            .stats()
            .total_pages()
    };
    let mut n = 0;
    while pages() < HEAP_PAGES {
        catalog.insert_row(table, &row(n)).unwrap();
        n += 1;
    }
    drop(catalog);
    engine.checkpoint().unwrap();
    engine.catalog().read().pool().clear().unwrap();
    n
}

fn ints(result: &StatementResult) -> Vec<Option<i64>> {
    let row = result.rows.first().expect("one row");
    row.values().iter().map(Value::as_int).collect()
}

#[test]
fn a_scan_larger_than_the_pool_leaves_a_warm_lookup_resident() {
    let engine = engine(8);
    let s = engine.open_session();
    s.execute("create table point (id int not null primary key, v int)")
        .unwrap();
    s.execute("insert into point values (1, 42)").unwrap();
    load(&engine);
    let lookup = s.prepare("select v from point where id = $1").unwrap();
    let look = || {
        let r = lookup.execute(&[Value::Int(1)]).unwrap();
        assert_eq!(ints(&r), vec![Some(42)]);
    };
    look();
    look();

    let reads = || {
        let totals = s.wait_totals();
        let read = totals.iter().find(|t| t.event == WaitEvent::BufferRead);
        read.map_or(0, |t| t.count)
    };
    let (before, read_calls) = (engine.buffer_stats(), reads());
    let r = s.execute("select count(*) from protein").unwrap();
    assert!(ints(&r)[0].unwrap() > 0);
    let scanned = engine.buffer_stats();
    assert_eq!(
        scanned.misses - before.misses,
        HEAP_PAGES,
        "the scan reads its heap from disk"
    );
    assert_eq!(reads() - read_calls, HEAP_PAGES / 8, "in runs of eight");
    assert_eq!(scanned.evictions, before.evictions, "and evicts nothing");

    look();
    let after = engine.buffer_stats();
    assert_eq!(after.misses, scanned.misses, "the lookup still hits");
    assert!(after.hits > scanned.hits);
}

/// `count(*), sum(len)` over `len between lo and hi`, as one session sees it.
fn answers(s: &Session) -> Vec<Vec<Option<i64>>> {
    let q = s
        .prepare("select count(*), sum(len) from protein where len between $1 and $2")
        .unwrap();
    [(24, 30), (40, 72), (0, 2_000), (1_000, 2_000), (-1, 0)]
        .iter()
        .map(|&(lo, hi)| ints(&q.execute(&[Value::Int(lo), Value::Int(hi)]).unwrap()))
        .collect()
}

/// What `answers` reads off committed rows `0..n`, with `bumped` (ids below
/// it) moved up by 1 000.
fn oracle(n: i64, bumped: i64) -> Vec<Vec<Option<i64>>> {
    let lens: Vec<i64> = (0..n)
        .map(|i| len_of(i) + if i < bumped { 1_000 } else { 0 })
        .collect();
    [(24, 30), (40, 72), (0, 2_000), (1_000, 2_000), (-1, 0)]
        .iter()
        .map(|&(lo, hi)| {
            let hit: Vec<i64> = lens
                .iter()
                .copied()
                .filter(|l| (lo..=hi).contains(l))
                .collect();
            let sum = (!hit.is_empty()).then(|| hit.iter().sum());
            vec![Some(hit.len() as i64), sum]
        })
        .collect()
}

#[test]
fn pools_smaller_and_larger_than_the_heap_answer_alike() {
    let mut seen = Vec::new();
    for pool_pages in [8, 4_096] {
        let engine = engine(pool_pages);
        let n = load(&engine);
        // A committed update: dirty pages at both ends of the heap.
        let s = engine.open_session();
        s.execute("update protein set len = len + 1000 where id < 40")
            .unwrap();
        // Another session holds dirty, uncommitted rows all over it.
        let writer = engine.open_session();
        writer.begin().unwrap();
        writer
            .execute("update protein set len = 0 where id >= 1000 and id < 1100")
            .unwrap();
        writer
            .execute("delete from protein where id >= 2000 and id < 2050")
            .unwrap();
        writer
            .execute("insert into protein values (-1, 25, 'uncommitted')")
            .unwrap();
        let reader = answers(&engine.open_session());
        assert_eq!(reader, oracle(n, 40), "pool of {pool_pages} pages");
        let own = answers(&writer);
        writer.rollback().unwrap();
        assert_eq!(answers(&s), oracle(n, 40), "after the rollback");
        seen.push((reader, own));
    }
    assert_eq!(
        seen[0], seen[1],
        "the writer's own view differs with the pool"
    );
}
