//! Figure 4 — "System Performance".
//!
//! Relative runtime of the three test workloads (`50` expensive analytic
//! queries, `50k` simple joins, `1m` point selects) on the three setups
//! (Original / Monitoring / Daemon), normalised to Original = 100 %.
//!
//! Paper's finding: overhead ≤ ~1 % for the 50 and 50k tests, ~11 %
//! (monitoring) and ~17 % (daemon) for the 1m test, because the constant
//! per-statement sensor cost dominates only when statements are sub-second.
//!
//! All three instances are built up front and measured in [`CYCLES`]
//! paired cycles: in each cycle every setup runs each test once, back to
//! back, in an order that rotates per cycle (O·M·D, M·D·O, D·O·M, …), so a
//! slow spell of a shared machine hits the runs it is compared with and no
//! setup always runs first. Each cell is the median over the cycles of
//! that cycle's ratio to Original, with its quartiles. Also prints the
//! §V-A in-text numbers: per-sensor-call cost and workload-DB growth.

use std::time::Instant;

use ingot_bench::{build_instance, header, quartiles, run_statements, Instance, Scale, Setup};
use ingot_workload::{analytic_queries, point_select_statements, simple_join_statements};

/// Paired cycles, at every scale.
const CYCLES: usize = 10;

/// The three tests with the paper's Monitoring and Daemon values.
const TESTS: [(&str, &str, &str); 3] = [
    ("50", "≤ 101", "≤ 101"),
    ("50k", "≤ 101", "≤ 101"),
    ("1m", "≈ 111", "≈ 117"),
];

fn main() {
    let scale = Scale::from_env();
    header(
        "Figure 4",
        "System Performance (Original / Monitoring / Daemon)",
        &scale,
    );

    eprintln!("-- preparing all three instances…");
    let instances: Vec<Instance> = Setup::ALL
        .into_iter()
        .map(|s| build_instance(s, &scale))
        .collect();
    let sessions: Vec<_> = instances.iter().map(|i| i.engine.open_session()).collect();
    let daemon_start = Instant::now();

    let queries = analytic_queries(&scale.nref);
    let run = |si: usize, ti: usize| {
        let session = &sessions[si];
        match ti {
            0 => run_statements(session, &queries),
            1 => run_statements(session, simple_join_statements(&scale.nref, scale.n_simple)),
            _ => run_statements(session, point_select_statements(&scale.nref, scale.n_point)),
        }
        .as_secs_f64()
    };
    // secs[test][setup][cycle]
    let mut secs = vec![vec![Vec::new(); 3]; TESTS.len()];
    for cycle in 0..CYCLES {
        for (ti, per_setup) in secs.iter_mut().enumerate() {
            for k in 0..3 {
                let si = (cycle + k) % 3;
                per_setup[si].push(run(si, ti));
            }
        }
        eprintln!(
            "   cycle {cycle}: {}",
            TESTS
                .iter()
                .zip(&secs)
                .map(|((name, ..), t)| format!(
                    "{name}={:.3}/{:.3}/{:.3}s",
                    t[0][cycle], t[1][cycle], t[2][cycle]
                ))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    // §V-A in-text numbers from the Monitoring instance.
    if let Some(m) = instances[1].engine.monitor() {
        let calls = m.sensor_calls().max(1);
        let stmts = m.statements_recorded().max(1);
        println!("\n§V-A sensor-cost analysis (Monitoring instance):");
        println!(
            "  sensor calls: {calls}, total monitoring time: {:.1} ms",
            m.self_time_ns() as f64 / 1e6
        );
        println!(
            "  per sensor call: {:.2} µs   (paper: ~1–2 µs)",
            m.self_time_ns() as f64 / calls as f64 / 1e3
        );
        println!(
            "  per statement:  {:.2} µs   (paper: 30–70 µs)",
            m.self_time_ns() as f64 / stmts as f64 / 1e3
        );
    }
    if let Some(handle) = &instances[2].daemon {
        let wldb = handle.daemon().wldb();
        let g = wldb.growth();
        let elapsed_h = daemon_start.elapsed().as_secs_f64() / 3600.0;
        let mib = g.bytes_appended() as f64 / (1024.0 * 1024.0);
        let rate = mib / elapsed_h.max(1e-9);
        println!("\n§V-A workload-DB growth (Daemon instance):");
        println!(
            "  rows appended: {}, payload: {:.2} MiB, polls: {}",
            g.rows_appended(),
            mib,
            handle.daemon().poll_count()
        );
        println!(
            "  growth rate at this statement rate: {rate:.1} MiB/h; \
             7-day projection: {:.2} GiB",
            rate * 24.0 * 7.0 / 1024.0
        );
        println!(
            "  (paper, at its 33-statement/s logging cap: ~28 MB/hour, \
             ~4.7 GB over seven days; our statement rate is far higher, so \
             the rate scales accordingly)"
        );
    }

    println!(
        "\nFigure 4 — relative runtime (Original = 100 %), median [q1–q3] of \
         {CYCLES} paired cycles:\n"
    );
    println!(
        "{:<6} {:>10}   {:<36} Daemon",
        "test", "Original", "Monitoring"
    );
    for ((name, paper_m, paper_d), t) in TESTS.iter().zip(&secs) {
        let cell = |si: usize, paper: &str| {
            let ratios: Vec<f64> = t[si].iter().zip(&t[0]).map(|(x, o)| x / o).collect();
            let [q1, med, q3] = quartiles(&ratios).map(|r| 100.0 * r);
            format!("{med:5.1} % [{q1:5.1}–{q3:5.1}] paper {paper} %")
        };
        println!(
            "{:<6} {:>9.3}s   {:<36} {}",
            name,
            quartiles(&t[0])[1],
            cell(1, paper_m),
            cell(2, paper_d)
        );
    }
    println!(
        "\nOriginal: median seconds per run. A cell is the median of the \
         per-cycle ratios to Original, not a ratio of medians."
    );
}
