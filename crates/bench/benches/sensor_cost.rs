//! Micro-benchmarks of the monitoring primitives: the §V-A claim is that
//! "each call to a monitoring function takes about one or two microseconds"
//! and adds 30–70 µs per statement. These benches measure our equivalents.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use ingot_common::TableId;
use ingot_common::{fnv1a64, Cost, EngineConfig, MonotonicClock, StmtHash};
use ingot_core::monitor::{Footprint, Monitor, RingBuffer, TableRef};

fn bench_hashing(c: &mut Criterion) {
    let text = "select p.nref_id, sequence, ordinal from protein p \
                join organism o on p.nref_id = o.nref_id where p.nref_id = 'NF00012345'";
    c.bench_function("fnv1a64_statement_text", |b| {
        b.iter(|| fnv1a64(black_box(text.as_bytes())))
    });
    c.bench_function("stmt_hash", |b| b.iter(|| StmtHash::of(black_box(text))));
}

fn bench_ring(c: &mut Criterion) {
    c.bench_function("ring_push_wrapping", |b| {
        let mut ring = RingBuffer::new(1000);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            ring.push(black_box(i));
        })
    });
}

fn bench_sensor_pipeline(c: &mut Criterion) {
    let clock = MonotonicClock::new();
    let monitor = Monitor::new(&EngineConfig::default(), clock);
    let text = "select p.nref_id from protein p where p.nref_id = 'NF00000001'";
    // Interned once per template, as the engine does when it plans one.
    let footprint = Arc::new(Footprint {
        tables: vec![TableRef {
            id: TableId(1),
            name: "protein".into(),
            storage: "HEAP",
            data_pages: 100.into(),
            overflow_pages: 10.into(),
            rows: 10_000.into(),
        }],
        ..Footprint::default()
    });
    c.bench_function("full_sensor_pipeline_per_statement", |b| {
        b.iter(|| {
            let text = black_box(text);
            let mut s = monitor.begin_statement(StmtHash::of(text), text, clock.now_nanos());
            s.parsed(Arc::clone(&footprint));
            s.optimized(Cost::new(100.0, 3.0), 1_000, 3);
            s.executed(1, 0);
            monitor.record(s, clock.now_nanos(), 0);
        })
    });
    c.bench_function("begin_statement_only", |b| {
        b.iter(|| {
            let text = black_box(text);
            let s = monitor.begin_statement(StmtHash::of(text), text, clock.now_nanos());
            black_box(&s);
        })
    });
}

criterion_group!(benches, bench_hashing, bench_ring, bench_sensor_pipeline);
criterion_main!(benches);
