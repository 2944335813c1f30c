//! The storage daemon in action: background polling into a file-backed
//! workload database, retention, growth accounting, and active alerting.
//!
//! Run with: `cargo run --example alerting_daemon`

// Real-time pacing: sleeps coordinate contending sessions and wait out
// daemon intervals — the sanctioned exception to the workspace sleep ban.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use std::time::Duration;

use ingot::prelude::*;

fn main() -> Result<()> {
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let session = engine.open_session();
    session.execute("create table events (id int not null, kind text, payload text)")?;

    // A file-backed workload DB: daemon appends are real disk writes.
    let dir = std::env::temp_dir().join(format!("ingot-alerting-{}", std::process::id()));
    let wldb = Arc::new(WorkloadDb::file_backed(&dir, engine.sim_clock().clone())?);

    let daemon = StorageDaemon::new(
        Arc::clone(&engine),
        Arc::clone(&wldb),
        DaemonConfig {
            interval: Duration::from_millis(100), // paper default: 30 s
            ..Default::default()
        },
    );
    // The paper's example trigger: "reaching the maximum number of users".
    daemon.add_rule(AlertRule::max_sessions(2));
    daemon.add_rule(AlertRule::deadlocks());
    daemon.add_rule(AlertRule::cache_hit_ratio_below(0.5));
    let handle = daemon.spawn()?;

    // Generate load; open extra sessions to trip the alert rule.
    println!("generating load with extra sessions…");
    let extra: Vec<_> = (0..3).map(|_| engine.open_session()).collect();
    for i in 0..500 {
        session.execute(&format!(
            "insert into events values ({i}, 'kind{}', 'payload-{i}')",
            i % 5
        ))?;
    }
    session.execute("select kind, count(*) from events group by kind")?;
    std::thread::sleep(Duration::from_millis(400));
    drop(extra);

    // What did the daemon collect?
    let d = handle.daemon();
    println!("\ndaemon polled {} times", d.poll_count());
    for alert in d.take_alerts() {
        println!("ALERT [{}] {}", alert.rule, alert.message);
    }

    let wl = d.wldb();
    println!("\nworkload DB contents:");
    for shape in &ingot::core::COPIED_TABLES {
        let table = shape.wl;
        println!("  {table:<22} {:>6} rows", wl.row_count(table)?);
    }
    let g = wl.growth();
    println!(
        "\ngrowth: {} rows, {:.1} KiB appended",
        g.rows_appended(),
        g.bytes_appended() as f64 / 1024.0
    );

    // Long-term data is plain SQL away.
    let rows = wl
        .query("select query_text, frequency from wl_statements order by frequency desc limit 3")?;
    println!("\ntop statements in the workload DB:");
    for row in rows {
        println!("  {}x  {}", row.get(1), row.get(0));
    }

    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
