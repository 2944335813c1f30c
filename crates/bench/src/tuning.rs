//! The §V-B tuning experiments behind Figs 6 and 7, computed here and
//! printed by the `fig6` and `fig7` binaries. Apart from the analysis wall
//! time their numbers are deterministic at a given scale — modelled time,
//! physical reads, sizes and recommendation counts follow from the data,
//! the workload and the simulated disk alone — so `tests/figures_golden.rs`
//! pins them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ingot_analyzer::report::{build_cost_diagram, CostDiagramEntry};
use ingot_analyzer::{advisor, AnalysisReport, Analyzer, Recommendation, WorkloadView};
use ingot_common::Cost;
use ingot_core::Engine;
use ingot_workload::{analytic_queries, nref_schema_ddl, reference_indexes};

use crate::{build_instance_with, run_statements, Scale, Setup};

/// Fig 6: the analyzer's report on the 50-query workload recorded on the
/// untuned (default-heap) database, with §V-B's counts.
pub struct CostDiagramRun {
    /// The analyzer's output, cost diagram included.
    pub report: AnalysisReport,
    /// Wall time of the analysis.
    pub analysis_time: Duration,
    /// Statements whose estimate the recommended virtual indexes improve:
    /// those of the report's diagram or, when none of them improves, those
    /// of a diagram over every query.
    pub improved: Vec<CostDiagramEntry>,
    /// Statements whose estimate diverges significantly from their actual
    /// cost (the paper's 31).
    pub flagged: usize,
    /// `CollectStatistics` recommendations.
    pub statistics: usize,
    /// `ModifyToBTree` recommendations (the paper's 6 tables).
    pub btree: usize,
    /// `CreateIndex` recommendations (the paper's 12).
    pub indexes: usize,
}

/// Record the 50 analytic queries on an untuned monitoring instance and
/// analyze them.
pub fn cost_diagram(scale: &Scale) -> CostDiagramRun {
    let instance = build_instance_with(Setup::Monitoring, scale, false);
    let session = instance.engine.open_session();
    run_statements(&session, analytic_queries(&scale.nref));

    let view = WorkloadView::from_monitor(instance.engine.monitor().expect("monitor"));
    let analyzer = Analyzer::default();
    let t0 = Instant::now();
    let report = analyzer.analyze(&instance.engine, &view).expect("analysis");
    let analysis_time = t0.elapsed();

    let improves = |e: &CostDiagramEntry| e.estimated_with_virtual < e.estimated * 0.99;
    let mut improved: Vec<_> = report
        .cost_diagram
        .entries
        .iter()
        .filter(|e| improves(e))
        .cloned()
        .collect();
    if improved.is_empty() {
        let what_if = instance.engine.what_if();
        let chosen = advisor::recommend_indexes(&analyzer.config.advisor, &what_if, &view)
            .expect("advisor")
            .chosen_candidates;
        improved = build_cost_diagram(&what_if, &view, &chosen, 50)
            .expect("diagram")
            .entries
            .into_iter()
            .filter(improves)
            .collect();
    }

    let config = &analyzer.config;
    let flagged = view
        .statements
        .iter()
        .filter(|s| {
            let n = s.executions as f64;
            s.is_query()
                && s.executions > 0
                && s.actual.total() >= config.min_actual_total
                && Cost::relative_error(
                    &Cost::new(s.est.cpu / n, s.est.io / n),
                    &Cost::new(s.actual.cpu / n, s.actual.io / n),
                ) > config.cost_error_threshold
        })
        .count();
    let count = |kind: fn(&Recommendation) -> bool| {
        report.recommendations.iter().filter(|r| kind(r)).count()
    };
    CostDiagramRun {
        analysis_time,
        improved,
        flagged,
        statistics: count(|r| matches!(r, Recommendation::CollectStatistics { .. })),
        btree: count(|r| matches!(r, Recommendation::ModifyToBTree { .. })),
        indexes: count(|r| matches!(r, Recommendation::CreateIndex { .. })),
        report,
    }
}

/// One Fig 7 configuration after tuning: the 50 queries run cold. Its
/// runtime is modelled, not timed: one cold pass per setup is too short
/// and too noisy a wall-clock run to compare setups by.
pub struct TuningOutcome {
    /// Unoptimised, Manually or Analyser.
    pub setup: &'static str,
    /// Modelled time: simulated disk latency plus [`CPU_TUPLE_NS`] per
    /// tuple processed.
    pub modelled_ms: f64,
    /// Pages read from the (simulated) disk.
    pub phys_reads: u64,
    /// Data pages of every table and index.
    pub pages: u64,
    /// Secondary indexes in the catalog.
    pub indexes: usize,
}

/// Modelled CPU time to process one tuple, in nanoseconds (the disk side of
/// the model is priced by `ingot_storage`'s disk model).
pub const CPU_TUPLE_NS: f64 = 200.0;

/// Fig 7: the 50-query workload on the freshly loaded database
/// (Unoptimised), after the manual reference tuning — statistics, B-Tree
/// on all six tables and the reference index set (Manually) — and after
/// applying what the analyzer recommends from the recorded workload
/// (Analyser).
pub fn analyser_results(scale: &Scale) -> [TuningOutcome; 3] {
    let queries = analytic_queries(&scale.nref);

    let unopt = build_instance_with(Setup::Original, scale, false);
    let base = measure("Unoptimised", &unopt.engine, &queries);

    let manual = build_instance_with(Setup::Original, scale, false);
    let s = manual.engine.open_session();
    for ddl in nref_schema_ddl() {
        let t = ddl.split_whitespace().nth(2).expect("table name");
        s.execute(&format!("create statistics on {t}")).unwrap();
        s.execute(&format!("modify {t} to btree")).unwrap();
    }
    run_statements(&s, reference_indexes());
    let man = measure("Manually", &manual.engine, &queries);

    let auto = build_instance_with(Setup::Monitoring, scale, false);
    let s = auto.engine.open_session();
    run_statements(&s, &queries);
    let view = WorkloadView::from_monitor(auto.engine.monitor().expect("monitor"));
    let analyzer = Analyzer::default();
    let report = analyzer.analyze(&auto.engine, &view).expect("analysis");
    analyzer.apply(&s, &report.recommendations).expect("apply");
    let ana = measure("Analyser", &auto.engine, &queries);

    [base, man, ana]
}

/// Run the queries once cold, after a five-query warm-up: the buffer pool
/// is dropped first, like the paper's larger-than-memory database.
fn measure(setup: &'static str, engine: &Arc<Engine>, queries: &[String]) -> TuningOutcome {
    let session = engine.open_session();
    run_statements(&session, queries.iter().take(5));
    engine.catalog().read().pool().clear().expect("clear pool");
    let sim0 = engine.sim_clock().now_nanos();
    let io0 = engine.io_stats();
    let mut cpu_tuples = 0f64;
    for q in queries {
        cpu_tuples += session.execute(q).expect("query").actual_cost.cpu;
    }
    let io_ns = engine.sim_clock().now_nanos() - sim0;
    let phys_reads = engine.io_stats().delta_since(&io0).reads();
    let catalog = engine.catalog().read();
    TuningOutcome {
        setup,
        modelled_ms: (io_ns as f64 + cpu_tuples * CPU_TUPLE_NS) / 1e6,
        phys_reads,
        pages: catalog.total_data_pages(),
        indexes: catalog.indexes().count(),
    }
}
