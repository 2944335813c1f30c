//! Figure 7 — "Analyser Results".
//!
//! Compares three configurations on the 50-query workload:
//!
//! * **Unoptimised** — freshly loaded NREF database, default heap storage;
//! * **Manually** — the reference index set + `MODIFY … TO BTREE` on all six
//!   tables + statistics everywhere (the paper's DBA baseline: 33 indexes,
//!   DB grows 33 → 65 GB, runtime drops to ~60 %);
//! * **Analyser** — whatever the analyzer recommends from the recorded
//!   workload (paper: 12 indexes, DB grows to 53 GB only, runtime ~62 %).
//!
//! Reports both wall-clock and *modelled* time (simulated disk latency +
//! tuple CPU), plus database size and index count.

use std::time::Duration;

use ingot_analyzer::{Analyzer, Recommendation, WorkloadView};
use ingot_bench::{build_instance_with, header, pages_to_mib, run_statements, Scale, Setup};
use ingot_core::{Engine, Session};
use ingot_workload::{analytic_queries, nref_schema_ddl, reference_indexes};

struct Outcome {
    wall: Duration,
    modelled_ms: f64,
    phys_reads: u64,
    pages: u64,
    indexes: usize,
}

/// Modelled CPU time to process one tuple, in nanoseconds (the disk side of
/// the model is priced by `ingot_storage`'s disk model).
const CPU_TUPLE_NS: f64 = 200.0;

/// Run the 50 queries measuring wall time, modelled time (simulated disk
/// latency + tuple CPU) and physical page reads. The buffer pool is dropped
/// first so the run starts cold, like the paper's larger-than-memory
/// database.
fn measure(engine: &std::sync::Arc<Engine>, session: &Session, queries: &[String]) -> Outcome {
    // Warm-up pass + best-of-2 for wall-clock stability; modelled time and
    // physical reads come from the final cold-started pass.
    for q in queries.iter().take(5) {
        session.execute(q).expect("warmup");
    }
    engine.catalog().read().pool().clear().expect("clear pool");
    let sim0 = engine.sim_clock().now_nanos();
    let io0 = engine.io_stats();
    let t0 = std::time::Instant::now();
    let mut cpu_tuples = 0f64;
    for q in queries {
        let r = session.execute(q).expect("query");
        cpu_tuples += r.actual_cost.cpu;
    }
    let wall = t0.elapsed();
    let io_ns = engine.sim_clock().now_nanos() - sim0;
    let phys_reads = engine.io_stats().delta_since(&io0).reads();
    let catalog = engine.catalog().read();
    let indexes = catalog.indexes().count();
    Outcome {
        wall,
        modelled_ms: (io_ns as f64 + cpu_tuples * CPU_TUPLE_NS) / 1e6,
        phys_reads,
        pages: catalog.total_data_pages(),
        indexes,
    }
}

fn main() {
    let scale = Scale::from_env();
    header(
        "Figure 7",
        "Analyser Results (Unoptimised / Manually / Analyser)",
        &scale,
    );
    let queries = analytic_queries(&scale.nref);

    // --- Unoptimised -----------------------------------------------------------
    eprintln!("-- Unoptimised instance…");
    let unopt = build_instance_with(Setup::Original, &scale, false);
    let s = unopt.engine.open_session();
    let base = measure(&unopt.engine, &s, &queries);
    drop(s);

    // --- Manual optimization ----------------------------------------------------
    eprintln!("-- Manually optimized instance…");
    let manual = build_instance_with(Setup::Original, &scale, false);
    let s = manual.engine.open_session();
    let table_names: Vec<&str> = nref_schema_ddl()
        .iter()
        .map(|ddl| ddl.split_whitespace().nth(2).expect("table name"))
        .collect();
    let t0 = std::time::Instant::now();
    for t in &table_names {
        s.execute(&format!("create statistics on {t}")).unwrap();
        s.execute(&format!("modify {t} to btree")).unwrap();
    }
    let _ = run_statements(&s, reference_indexes());
    eprintln!("   manual tuning applied in {:?}", t0.elapsed());
    let man = measure(&manual.engine, &s, &queries);
    drop(s);

    // --- Analyzer recommendations -----------------------------------------------
    eprintln!("-- Analyzer-tuned instance…");
    let auto = build_instance_with(Setup::Monitoring, &scale, false);
    let s = auto.engine.open_session();
    // Record the workload once on the untuned database.
    let _ = run_statements(&s, &queries);
    let view = WorkloadView::from_monitor(auto.engine.monitor().expect("monitor"));
    let analyzer = Analyzer::default();
    let t0 = std::time::Instant::now();
    let report = analyzer.analyze(&auto.engine, &view).expect("analysis");
    eprintln!(
        "   analysis took {:?}, {} recommendations",
        t0.elapsed(),
        report.recommendations.len()
    );
    analyzer.apply(&s, &report.recommendations).expect("apply");
    let ana = measure(&auto.engine, &s, &queries);
    let ana_index_count = report
        .recommendations
        .iter()
        .filter(|r| matches!(r, Recommendation::CreateIndex { .. }))
        .count();
    drop(s);

    // --- The figure -------------------------------------------------------------
    println!("\nFigure 7 — workload runtime and database size:\n");
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>11} {:>12} {:>9}",
        "setup", "wall", "wall %", "modelled %", "phys reads", "size MiB", "indexes"
    );
    let row = |name: &str, o: &Outcome| {
        println!(
            "{:<14} {:>9.2}s {:>11.1} % {:>11.1} % {:>11} {:>12.1} {:>9}",
            name,
            o.wall.as_secs_f64(),
            100.0 * o.wall.as_secs_f64() / base.wall.as_secs_f64(),
            100.0 * o.modelled_ms / base.modelled_ms.max(1e-9),
            o.phys_reads,
            pages_to_mib(o.pages),
            o.indexes
        );
    };
    row("Unoptimised", &base);
    row("Manually", &man);
    row("Analyser", &ana);
    println!(
        "\nanalyzer recommended {ana_index_count} secondary indexes vs {} in the manual \
         reference set",
        reference_indexes().len()
    );
    println!(
        "paper shape: manual → ~60 % runtime at 65 GB (33 indexes); analyzer → ~62 % \
         runtime at 53 GB (12 indexes) — comparable speed-up at roughly half the index storage"
    );
}
