//! Figure 8 — "Locks Diagram".
//!
//! Drives a contended multi-session workload (explicit transactions updating
//! two tables in opposite orders), samples the locking system through the
//! statistics sensor, and renders the analyzer's locks diagram: locks in use
//! over time with lock-wait (`W`) and deadlock (`D`) indicators.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ingot_analyzer::{report::build_locks_diagram, WorkloadView};
use ingot_bench::{header, pace, Scale};
use ingot_common::EngineConfig;
use ingot_core::Engine;

fn main() {
    let scale = Scale::from_env();
    header(
        "Figure 8",
        "Locks Diagram (locks, waits, deadlocks over time)",
        &scale,
    );

    let config = EngineConfig {
        lock_timeout_ms: 500,
        ..EngineConfig::monitoring()
    };
    let engine = Engine::builder().config(config).build().unwrap();
    {
        let s = engine.open_session();
        s.execute("create table acc_a (id int not null primary key, v int)")
            .unwrap();
        s.execute("create table acc_b (id int not null primary key, v int)")
            .unwrap();
        for i in 0..50 {
            s.execute(&format!("insert into acc_a values ({i}, 0)"))
                .unwrap();
            s.execute(&format!("insert into acc_b values ({i}, 0)"))
                .unwrap();
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let n_workers = 4;
    let mut handles = Vec::new();
    for w in 0..n_workers {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let session = engine.open_session();
            let (first, second) = if w % 2 == 0 {
                ("acc_a", "acc_b")
            } else {
                ("acc_b", "acc_a")
            };
            let mut i = 0u64;
            let mut deadlocks = 0u64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                let id = i % 50;
                if session.begin().is_err() {
                    continue;
                }
                let a = session.execute(&format!("update {first} set v = v + 1 where id = {id}"));
                pace(Duration::from_millis(2));
                let b = session.execute(&format!("update {second} set v = v + 1 where id = {id}"));
                match (a, b) {
                    (Ok(_), Ok(_)) => {
                        let _ = session.commit();
                    }
                    _ => {
                        deadlocks += 1;
                        // The deadlock victim's transaction was aborted by
                        // the engine; a leftover open txn is rolled back.
                        let _ = session.rollback();
                        pace(Duration::from_millis(1));
                    }
                }
            }
            deadlocks
        }));
    }

    // Sample the statistics sensor every 50 ms for ~3 s, advancing the
    // simulated clock so the diagram has a time axis.
    let samples = 40;
    for _ in 0..samples {
        pace(Duration::from_millis(50));
        engine.sim_clock().advance_secs(30); // one "daemon interval" per tick
        engine.sample_statistics();
    }
    stop.store(true, Ordering::Relaxed);
    let mut victim_count = 0u64;
    for h in handles {
        victim_count += h.join().expect("worker");
    }

    let view = WorkloadView::from_monitor(engine.monitor().expect("monitor"));
    let diagram = build_locks_diagram(&view);
    println!("\n{}", diagram.render());

    let locks = engine.locks().stats();
    println!("lock-manager totals:");
    println!("  granted: {}", locks.granted_total);
    println!("  waits:   {}", locks.waits_total);
    println!(
        "  deadlocks detected: {} (worker-observed victims: {victim_count})",
        locks.deadlocks_total
    );
    println!(
        "\npaper shape: lock usage fluctuates with load; wait and deadlock markers \
         point the DBA at contention windows"
    );
    assert!(locks.waits_total > 0, "contention must produce waits");
}
