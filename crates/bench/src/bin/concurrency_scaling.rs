//! Concurrency scaling — throughput vs. number of sessions.
//!
//! Runs 1/2/4/8 closed-loop client sessions against one shared engine for
//! each of three statement mixes (read-only, 90-10 mixed, write-heavy on
//! disjoint tables), reports aggregate statements/second and the speedup
//! over a single session, and writes the numbers as JSON to
//! `results/concurrency_scaling.json`.
//!
//! This is the proof-of-scaling experiment for the snapshot-catalog
//! architecture: statement execution takes no engine-wide lock, so sessions
//! overlap up to the compatibility of their table locks.
//!
//! Each simulated client executes statements with a fixed *think time*
//! between them (the classic closed-loop model). Aggregate throughput then
//! scales with the number of sessions exactly as far as the engine lets the
//! sessions overlap: an engine-wide statement lock caps the curve at 1×,
//! table-granular locking over catalog snapshots keeps it climbing. Think
//! time (rather than CPU-bound spinning) is what makes the scaling
//! observable on small machines — a single core cannot parallelise compute,
//! but it can overlap waiting.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ingot_bench::{best_of, header, pace, write_results, Field, Fields, Scale};
use ingot_common::EngineConfig;
use ingot_core::Engine;

/// Session counts measured, in order.
const SESSION_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Rows in each table.
const TABLE_ROWS: u64 = 256;

/// The three statement mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Point selects on one shared table (S locks — fully compatible).
    ReadOnly,
    /// 90 % point selects, 10 % updates, all on one shared table (the
    /// updates take X table locks and briefly serialise).
    Mixed9010,
    /// Updates only, each session on its own table (disjoint X locks — the
    /// case an engine-wide lock would serialise for no reason).
    WriteHeavy,
}

impl Workload {
    /// All mixes, in report order.
    const ALL: [Workload; 3] = [
        Workload::ReadOnly,
        Workload::Mixed9010,
        Workload::WriteHeavy,
    ];

    /// Identifier used in reports and JSON.
    fn label(self) -> &'static str {
        match self {
            Workload::ReadOnly => "read_only",
            Workload::Mixed9010 => "mixed_90_10",
            Workload::WriteHeavy => "write_heavy",
        }
    }
}

/// Build the engine for one statement mix: one shared keyed table (`acct`)
/// plus one keyed table per potential session (`acct_w0` …), all with
/// statistics so point statements plan to primary-key lookups.
fn build_engine() -> Arc<Engine> {
    let engine = Engine::builder()
        .config(EngineConfig {
            lock_timeout_ms: 10_000,
            ..EngineConfig::monitoring()
        })
        .build()
        .unwrap();
    let s = engine.open_session();
    let mut tables = vec!["acct".to_string()];
    tables.extend((0..SESSION_COUNTS[SESSION_COUNTS.len() - 1]).map(|i| format!("acct_w{i}")));
    for t in &tables {
        s.execute(&format!(
            "create table {t} (id int not null primary key, v int)"
        ))
        .expect("create");
        for id in 0..TABLE_ROWS {
            s.execute(&format!("insert into {t} values ({id}, 0)"))
                .expect("insert");
        }
        s.execute(&format!("create statistics on {t}"))
            .expect("stats");
        s.execute(&format!("modify {t} to btree")).expect("modify");
    }
    engine
}

/// The `i`-th statement of session `session` under `workload`.
fn statement(workload: Workload, session: usize, i: u64) -> String {
    // Per-session stride through the key space, decorrelated across sessions.
    let key = (session as u64 * 31 + i * 7) % TABLE_ROWS;
    match workload {
        Workload::ReadOnly => format!("select v from acct where id = {key}"),
        Workload::Mixed9010 => {
            if i.is_multiple_of(10) {
                format!("update acct set v = v + 1 where id = {key}")
            } else {
                format!("select v from acct where id = {key}")
            }
        }
        Workload::WriteHeavy => {
            format!("update acct_w{session} set v = v + 1 where id = {key}")
        }
    }
}

/// Run `sessions` concurrent closed-loop clients, each executing
/// `per_session` statements with `think` sleep between them. Returns the
/// wall-clock duration from the synchronised start to the last client's
/// finish. Panics on any statement error (the workload is conflict-free by
/// construction; with a 10 s lock timeout nothing should fail).
fn run_batch(
    engine: &Arc<Engine>,
    workload: Workload,
    sessions: usize,
    per_session: u64,
    think: Duration,
) -> Duration {
    let barrier = Arc::new(Barrier::new(sessions + 1));
    let mut handles = Vec::with_capacity(sessions);
    for sid in 0..sessions {
        let engine = Arc::clone(engine);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let s = engine.open_session();
            barrier.wait();
            for i in 0..per_session {
                s.execute(&statement(workload, sid, i))
                    .unwrap_or_else(|e| panic!("session {sid} stmt {i}: {e}"));
                if !think.is_zero() {
                    pace(think);
                }
            }
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("client session");
    }
    t0.elapsed()
}

struct Cell {
    workload: &'static str,
    sessions: usize,
    total_statements: u64,
    elapsed_ms: f64,
    stmts_per_sec: f64,
    speedup_vs_1: f64,
}

impl Cell {
    fn fields(&self) -> Fields {
        vec![
            ("workload", Field::Text(self.workload)),
            ("sessions", Field::Int(self.sessions as u64)),
            ("total_statements", Field::Int(self.total_statements)),
            ("elapsed_ms", Field::Num(self.elapsed_ms)),
            ("stmts_per_sec", Field::Num(self.stmts_per_sec)),
            ("speedup_vs_1", Field::Num(self.speedup_vs_1)),
        ]
    }
}

fn main() {
    let scale = Scale::from_env();
    header(
        "Concurrency scaling",
        "closed-loop sessions vs. aggregate throughput",
        &scale,
    );

    // Closed-loop client model: each statement is followed by a think-time
    // sleep, so aggregate throughput can scale with sessions as far as the
    // engine lets them overlap (even on a single core).
    let think = Duration::from_millis(1);
    let per_session = (scale.n_simple / 40).max(100);

    let mut cells: Vec<Cell> = Vec::new();
    for workload in Workload::ALL {
        let engine = build_engine();
        println!(
            "\n{:<12} {:>8} {:>12} {:>14} {:>12}",
            workload.label(),
            "sessions",
            "elapsed_ms",
            "stmts/sec",
            "speedup"
        );
        let mut base_tput = 0.0;
        for sessions in SESSION_COUNTS {
            let (elapsed, ()) = best_of(scale.repeats, || {
                (
                    run_batch(&engine, workload, sessions, per_session, think),
                    (),
                )
            });
            let total = per_session * sessions as u64;
            let tput = total as f64 / elapsed.as_secs_f64();
            if sessions == 1 {
                base_tput = tput;
            }
            let speedup = tput / base_tput;
            println!(
                "{:<12} {:>8} {:>12.1} {:>14.0} {:>11.2}x",
                "",
                sessions,
                elapsed.as_secs_f64() * 1e3,
                tput,
                speedup
            );
            cells.push(Cell {
                workload: workload.label(),
                sessions,
                total_statements: total,
                elapsed_ms: elapsed.as_secs_f64() * 1e3,
                stmts_per_sec: tput,
                speedup_vs_1: speedup,
            });
        }
    }

    write_results(
        "concurrency_scaling.json",
        "concurrency_scaling",
        &scale,
        &[
            ("statements_per_session", Field::Int(per_session)),
            ("think_time_ms", Field::Num(think.as_secs_f64() * 1e3)),
            ("model", Field::Text("closed-loop clients with think time")),
        ],
        &cells.iter().map(Cell::fields).collect::<Vec<_>>(),
    );

    let mixed8 = cells
        .iter()
        .find(|c| c.workload == "mixed_90_10" && c.sessions == 8)
        .expect("mixed 8-session cell");
    assert!(
        mixed8.speedup_vs_1 >= 2.0,
        "8-session mixed throughput must be at least 2x a single session \
         (got {:.2}x)",
        mixed8.speedup_vs_1
    );
}
