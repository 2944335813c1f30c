//! Ablation: the paper's central design choice is sensors *inside* the DBMS
//! core versus "an additional watchdog on top of the system" with its
//! "communication overhead". This bench compares our inline sensor path with
//! a watchdog-style design that ships the same per-statement record over a
//! channel to a separate consumer thread.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use crossbeam::channel;
use ingot_common::{Cost, EngineConfig, MonotonicClock, StmtHash, TableId};
use ingot_core::monitor::{Footprint, Monitor, TableRef};

const TEXT: &str = "select p.nref_id from protein p where p.nref_id = 'NF00000001'";

fn table_ref() -> TableRef {
    TableRef {
        id: TableId(1),
        name: "protein".into(),
        storage: "HEAP",
        data_pages: 100.into(),
        overflow_pages: 10.into(),
        rows: 10_000.into(),
    }
}

/// The record a watchdog design would ship per statement.
#[allow(dead_code)]
struct WatchdogRecord {
    text: String,
    tables: Vec<TableRef>,
    est: Cost,
    exec_cpu: u64,
    exec_io: u64,
    wallclock_ns: u64,
}

fn bench_inline_sensors(c: &mut Criterion) {
    let clock = MonotonicClock::new();
    let monitor = Monitor::new(&EngineConfig::default(), clock);
    let footprint = Arc::new(Footprint {
        tables: vec![table_ref()],
        ..Footprint::default()
    });
    c.bench_function("ablation_inline_sensors", |b| {
        b.iter(|| {
            let text = black_box(TEXT);
            let mut s = monitor.begin_statement(StmtHash::of(text), text, clock.now_nanos());
            s.parsed(Arc::clone(&footprint));
            s.optimized(Cost::new(100.0, 3.0), 1_000, 3);
            s.executed(1, 0);
            monitor.record(s, clock.now_nanos(), 0);
        })
    });
}

fn bench_watchdog_channel(c: &mut Criterion) {
    // Consumer thread mimicking a watchdog that aggregates records.
    let (tx, rx) = channel::bounded::<WatchdogRecord>(4096);
    let consumer = std::thread::spawn(move || {
        let mut total_ns = 0u64;
        for rec in rx {
            total_ns = total_ns.wrapping_add(rec.wallclock_ns);
        }
        total_ns
    });
    let clock = MonotonicClock::new();
    c.bench_function("ablation_watchdog_channel", |b| {
        b.iter(|| {
            let t0 = clock.now_nanos();
            let rec = WatchdogRecord {
                text: TEXT.to_owned(),
                tables: vec![table_ref()],
                est: Cost::new(100.0, 3.0),
                exec_cpu: 1,
                exec_io: 0,
                wallclock_ns: clock.now_nanos() - t0,
            };
            tx.send(black_box(rec)).unwrap();
        })
    });
    drop(tx);
    let _ = consumer.join();
}

criterion_group!(benches, bench_inline_sensors, bench_watchdog_channel);
criterion_main!(benches);
