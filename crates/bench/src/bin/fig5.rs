//! Figure 5 — "Share of Monitoring".
//!
//! Per-statement share of time spent in monitoring code, measured by the
//! monitor's own self-timing (no external profiler):
//!
//! * first five queries of the 50-test: the share is negligible because each
//!   query runs full scans, joins and sorts for (milli)seconds;
//! * the 1m-test: the very first statement is slow (cold caches), the second
//!   is already much faster, and by the 1 000th the constant monitoring time
//!   dominates the tiny execution time — the paper reports ~90 % at
//!   statement 1 000 and ~98 % at 100 000.
//!
//! A row of the 1m-test past the first is the median share, with its
//! quartiles, over a [`WINDOW`] of statements ending at #k: one point
//! select is a few microseconds, so one record's share swings with a
//! single preemption. The first row stays one record: it is the cold one.

use ingot_bench::{build_instance, header, quartiles, Scale, Setup};
use ingot_core::monitor::WorkloadRecord;
use ingot_workload::{analytic_queries, point_select_statement};

/// The statements a 1m-test row summarises: the last `WINDOW` up to #k,
/// never reaching back to the cold #1.
const WINDOW: u64 = 100;

fn main() {
    let scale = Scale::from_env();
    header("Figure 5", "Share of Monitoring per statement", &scale);
    let instance = build_instance(Setup::Monitoring, &scale);
    let session = instance.engine.open_session();
    let monitor = instance.engine.monitor().expect("monitoring setup");

    // Part 1: the first five analytic queries.
    println!("\n50-test, first five queries:");
    println!(
        "{:<4} {:>14} {:>14} {:>8}",
        "q", "wallclock", "monitoring", "share"
    );
    for (i, q) in analytic_queries(&scale.nref).iter().take(5).enumerate() {
        session.execute(q).expect("query");
        let w = monitor.workload();
        let rec = w.last().expect("recorded");
        println!(
            "Q{:<3} {:>11.3} ms {:>11.3} µs {:>7.2} %",
            i + 1,
            rec.wallclock_ns as f64 / 1e6,
            rec.monitor_ns as f64 / 1e3,
            100.0 * rec.monitor_ns as f64 / rec.wallclock_ns.max(1) as f64
        );
    }

    // Part 2: the 1m test at exponentially spaced statement counts.
    println!("\n1m-test, share at statement #k (median [q1–q3] over the window):");
    println!(
        "{:<10} {:>7} {:>14} {:>14} {:>26}",
        "statement", "window", "wallclock", "monitoring", "share"
    );
    let checkpoints: Vec<u64> = [1u64, 2, 10, 100, 1_000, 10_000, 100_000, 1_000_000]
        .into_iter()
        .filter(|&c| c <= scale.n_point)
        .collect();
    let mut executed = 0u64;
    for &cp in &checkpoints {
        while executed < cp {
            let stmt = point_select_statement(&scale.nref, executed);
            session.execute(&stmt).expect("point select");
            executed += 1;
        }
        let w = monitor.workload();
        let n = WINDOW.min(cp - 1).max(1) as usize;
        let window = &w[w.len() - n..];
        let stat =
            |f: fn(&WorkloadRecord) -> f64| quartiles(&window.iter().map(f).collect::<Vec<_>>());
        let wall = stat(|r| r.wallclock_ns as f64)[1];
        let mon = stat(|r| r.monitor_ns as f64)[1];
        let [q1, share, q3] = stat(|r| 100.0 * r.monitor_ns as f64 / r.wallclock_ns.max(1) as f64);
        println!(
            "{:<10} {:>7} {:>11.3} µs {:>11.3} µs {:>7.2} % [{:5.2}–{:5.2}]",
            format!("#{cp}"),
            n,
            wall / 1e3,
            mon / 1e3,
            share,
            q1,
            q3
        );
    }
    println!(
        "\npaper shape: 50-test share ≪ 1 %; 1m share grows from ≪1 % (first, cold) \
         to ~90 % by #1000 and ~98 % by #100000"
    );
}
