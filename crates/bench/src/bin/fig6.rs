//! Figure 6 — "Cost Diagram".
//!
//! Runs the 50-query analytic workload under monitoring, feeds the recorded
//! data to the analyzer, and prints the per-statement cost diagram of the
//! ten most expensive statements: actual cost vs. optimizer estimate vs.
//! estimate with the recommended *virtual* indexes. Statements whose
//! estimate diverges from the actual cost (the paper's Q2/Q4/Q7) get the
//! "collect statistics" recommendation; §V-B's counts are printed too.

use ingot_analyzer::{Analyzer, Recommendation, WorkloadView};
use ingot_bench::{build_instance_with, header, run_statements, Scale, Setup};
use ingot_workload::analytic_queries;

fn main() {
    let scale = Scale::from_env();
    header(
        "Figure 6",
        "Cost Diagram (actual / estimated / estimated+virtual)",
        &scale,
    );
    let instance = build_instance_with(Setup::Monitoring, &scale, false);
    let session = instance.engine.open_session();

    let queries = analytic_queries(&scale.nref);
    eprintln!("-- recording the 50-query workload…");
    let elapsed = run_statements(&session, &queries);
    eprintln!("   done in {elapsed:?}");

    let view = WorkloadView::from_monitor(instance.engine.monitor().expect("monitor"));
    let analyzer = Analyzer::default();
    let t0 = std::time::Instant::now();
    let report = analyzer.analyze(&instance.engine, &view).expect("analysis");
    let analysis_time = t0.elapsed();

    println!("\n{}", report.cost_diagram.render());

    // Companion view: the statements the what-if indexes improve most (the
    // paper notes "only a few statements seem to benefit from the
    // recommended changes" — these are the few).
    let mut improved: Vec<_> = report
        .cost_diagram
        .entries
        .iter()
        .filter(|e| e.estimated_with_virtual < e.estimated * 0.99)
        .collect();
    let all_entries;
    if improved.is_empty() {
        // Rebuild a wider diagram over every query to find the winners.
        let view_all = view.clone();
        let what_if = instance.engine.what_if();
        let chosen = ingot_analyzer::advisor::recommend_indexes(
            &analyzer.config.advisor,
            &what_if,
            &view_all,
        )
        .expect("advisor")
        .chosen_candidates;
        all_entries = ingot_analyzer::report::build_cost_diagram(&what_if, &view_all, &chosen, 50)
            .expect("diagram");
        improved = all_entries
            .entries
            .iter()
            .filter(|e| e.estimated_with_virtual < e.estimated * 0.99)
            .collect();
    }
    println!(
        "statements improved by the recommended (virtual) indexes: {}",
        improved.len()
    );
    for e in improved.iter().take(5) {
        println!(
            "  e {:>12.0} → v {:>12.0}  {}",
            e.estimated,
            e.estimated_with_virtual,
            &e.text[..e.text.len().min(70)]
        );
    }
    println!();

    // §V-B counts.
    let stats_recs = report
        .recommendations
        .iter()
        .filter(|r| matches!(r, Recommendation::CollectStatistics { .. }))
        .count();
    let btree_recs = report
        .recommendations
        .iter()
        .filter(|r| matches!(r, Recommendation::ModifyToBTree { .. }))
        .count();
    let index_recs = report
        .recommendations
        .iter()
        .filter(|r| matches!(r, Recommendation::CreateIndex { .. }))
        .count();
    let diverging = view
        .statements
        .iter()
        .filter(|s| {
            s.is_query()
                && s.executions > 0
                && s.actual.total() >= analyzer.config.min_actual_total
                && ingot_common::Cost::relative_error(
                    &ingot_common::Cost::new(
                        s.est.cpu / s.executions as f64,
                        s.est.io / s.executions as f64,
                    ),
                    &ingot_common::Cost::new(
                        s.actual.cpu / s.executions as f64,
                        s.actual.io / s.executions as f64,
                    ),
                ) > analyzer.config.cost_error_threshold
        })
        .count();

    println!("§V-B analysis summary:");
    println!("  analysis wall time: {analysis_time:?}   (paper: ~40 s on 2009 hardware)");
    println!("  statements with significant est/actual divergence: {diverging}   (paper: 31)");
    println!("  statistics recommendations: {stats_recs}");
    println!("  modify-to-BTree recommendations: {btree_recs}   (paper: 6 tables)");
    println!("  secondary-index recommendations: {index_recs}   (paper: 12)");
    println!("\nRecommendations:");
    for r in &report.recommendations {
        println!("  - {}", r.describe());
    }
}
