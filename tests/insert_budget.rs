//! The keyed-insert budget, as counts: what one more row in a B-Tree costs
//! in heap allocations and in pages a checkpoint must write.
//!
//! One test function on purpose: the allocation counter is process-wide,
//! and a second test on another harness thread would be counted too.

mod counting_alloc;

use std::sync::Arc;

use counting_alloc::allocations;
use ingot::prelude::*;
use ingot::storage::{BTreeFile, BufferPool, DiskModel};

/// Keys whose entries come back to the room their deletion left, so none of
/// the measured inserts can split (a split allocates: a page, a separator).
/// The parent commit allocated 506 times per call here.
fn tree_insert_allocates_nothing() {
    let pool = Arc::new(BufferPool::new(
        Box::new(MemoryBackend::new()),
        DiskModel::new(SimClock::new()),
        512,
    ));
    let tree = BTreeFile::create(pool).unwrap();
    let key = |i: u64| (i * 7).to_be_bytes();
    for i in 0..20_000 {
        tree.insert(&key(i), &i.to_le_bytes()).unwrap();
    }
    assert!(tree.height() >= 2);
    let pages = tree.pages();
    // Two rounds: the first settles the pool's LRU queue at this page count.
    for round in 0..2 {
        let victims = (0..20_000u64).filter(|i| i % 40 == round);
        for i in victims.clone() {
            assert!(tree.delete(&key(i)).unwrap().is_some());
        }
        let before = allocations();
        for i in victims {
            assert!(tree.insert(&key(i), &i.to_le_bytes()).unwrap().is_none());
        }
        let allocated = allocations() - before;
        println!("round {round}: {allocated} allocations for 500 BTreeFile::insert calls");
        if round == 1 {
            assert_eq!(allocated, 0, "an insert with room in the leaf allocates");
        }
    }
    assert_eq!(tree.pages(), pages, "no measured insert split");
}

fn bare_engine() -> Arc<Engine> {
    let bare = EngineConfig::original().with_wait_events_enabled(false);
    Engine::builder().config(bare).build().unwrap()
}

/// Allocations of one prepared auto-commit insert into a B-Tree table, with
/// every observer off.
fn keyed_insert_allocations() -> f64 {
    const WARM_UP: i64 = 5_000;
    const MEASURED: i64 = 10_000;
    let engine = bare_engine();
    let s = engine.open_session();
    s.execute("create table log (id int not null primary key, qty int)")
        .unwrap();
    s.execute("modify log to btree").unwrap();
    let insert = s.prepare("insert into log values ($1, $2)").unwrap();
    // Scattered keys, so inserts land all over the tree, not on its edge.
    let row = |i: i64| [Value::Int(i * 7_919 % 1_000_003), Value::Int(i)];
    for i in 0..WARM_UP {
        insert.execute(&row(i)).unwrap();
    }
    let before = allocations();
    for i in WARM_UP..WARM_UP + MEASURED {
        insert.execute(&row(i)).unwrap();
    }
    (allocations() - before) as f64 / MEASURED as f64
}

/// Pages written by the checkpoint that follows a few inserts into one leaf.
fn checkpoint_writes_after_inserts() -> u64 {
    let engine = bare_engine();
    let s = engine.open_session();
    s.execute("create table log (id int not null primary key, qty int)")
        .unwrap();
    s.execute("modify log to btree").unwrap();
    let insert = s.prepare("insert into log values ($1, $2)").unwrap();
    for i in 0..5_000 {
        insert
            .execute(&[Value::Int(i * 10), Value::Int(i)])
            .unwrap();
    }
    let tree_pages = |engine: &Engine| {
        let catalog = engine.catalog().read();
        let entry = catalog.table_by_name("log").unwrap();
        let primary = entry.primary.as_ref().unwrap();
        assert!(primary.height() >= 2, "the tree has internal pages");
        (primary.pages(), entry.heap.stats().total_pages())
    };
    engine.checkpoint().unwrap();
    let pages = tree_pages(&engine);
    let before = engine.io_stats().writes;
    // Eight neighbours in the middle of the key space: one leaf, one heap
    // page (the heap's tail).
    for i in 0..8 {
        insert
            .execute(&[Value::Int(25_001 + i), Value::Int(i)])
            .unwrap();
    }
    assert_eq!(tree_pages(&engine), pages, "no split, no new heap page");
    engine.checkpoint().unwrap();
    engine.io_stats().writes - before
}

#[test]
fn a_keyed_insert_edits_one_leaf_and_allocates_a_third() {
    tree_insert_allocates_nothing();

    // Decoding and re-encoding every node on the path cost 625.6
    // allocations per statement on this very loop; editing the page in
    // place, 22.0. Encoding WAL frames straight into the log's reused tail
    // (no payload and frame `Vec` per record) brought it to 15.05.
    let per_insert = keyed_insert_allocations();
    println!("{per_insert:.1} allocations per prepared keyed insert");
    assert!(per_insert <= 15.1, "{per_insert:.2} allocations per insert");

    // Leaf, tree meta page, heap page. The parent rewrote the root on every
    // insert as well (4).
    assert_eq!(checkpoint_writes_after_inserts(), 3);
}
