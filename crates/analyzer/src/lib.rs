#![forbid(unsafe_code)]
//! The analyzer (§IV-C of the paper).
//!
//! Scans the collected monitoring data and recommends changes to the
//! physical database design. The result "is a mixture of plain reports and
//! rules-based recommendations":
//!
//! * *"Actual and estimated costs of a statement differ significantly"* →
//!   collect statistics (missing or outdated histograms mislead the
//!   optimizer);
//! * *"One or more attributes of a table have no statistics"* → create
//!   histograms;
//! * *"A table with a fixed amount of main data pages has already more than
//!   10 % overflow pages"* → restructure / `MODIFY … TO BTREE`;
//! * an **index advisor** that "feeds the Ingres optimizer with a number of
//!   hypothetical, or virtual indexes, exploiting its decision about which
//!   indexes will actually be used to find an optimal index set for the
//!   workload" — requirement ii): all cost-based decisions go through the
//!   engine's own cost model.

pub mod advisor;
pub mod report;
pub mod rules;
pub mod trend;
pub mod view;

pub use advisor::{AdvisorConfig, IndexCandidate};
pub use report::{AnalysisReport, CostDiagram, CostDiagramEntry, LocksDiagram};
pub use rules::Recommendation;
pub use trend::{predict_statistics_metric, predict_table_growth, Prediction, Trend};
pub use view::{AshAgg, AttrAgg, StatPoint, StmtAgg, TableAgg, WaitAgg, WorkloadView};

use std::sync::Arc;

use ingot_common::Result;
use ingot_core::{Engine, Session};

/// Analyzer thresholds.
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Relative estimated-vs-actual error above which statistics are
    /// recommended.
    pub cost_error_threshold: f64,
    /// Ignore statements whose total actual cost is below this (noise).
    pub min_actual_total: f64,
    /// Overflow-page ratio above which `MODIFY TO BTREE` is recommended
    /// (paper: "more than 10 % overflow pages").
    pub overflow_threshold: f64,
    /// Fraction of a wait profile one event must exceed before the
    /// wait-profile rules treat it as dominant.
    pub wait_dominance_threshold: f64,
    /// Minimum ASH samples a statement needs before its profile is judged
    /// (fewer samples are noise).
    pub wait_min_samples: u64,
    /// Index-advisor settings.
    pub advisor: AdvisorConfig,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            cost_error_threshold: 0.5,
            min_actual_total: 100.0,
            overflow_threshold: 0.1,
            wait_dominance_threshold: 0.5,
            wait_min_samples: 10,
            advisor: AdvisorConfig::default(),
        }
    }
}

/// The analyzer.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    /// Thresholds.
    pub config: AnalyzerConfig,
}

impl Analyzer {
    /// An analyzer with custom thresholds.
    pub fn new(config: AnalyzerConfig) -> Self {
        Analyzer { config }
    }

    /// Analyze a workload view against `engine` (whose optimizer performs
    /// all what-if costing, on a private copy of its schema) and produce
    /// recommendations plus the report diagrams of Figs 6 and 8. The live
    /// engine is left as it was: no schema is published, no cached plan
    /// dropped.
    pub fn analyze(&self, engine: &Arc<Engine>, view: &WorkloadView) -> Result<AnalysisReport> {
        let mut recommendations = Vec::new();

        // Rule 1 + 2: statistics rules.
        recommendations.extend(rules::statistics_rules(&self.config, view));
        // Rule 3: overflow pages.
        recommendations.extend(rules::overflow_rule(&self.config, view));
        // Rule 4: BufferRead-dominated wait profiles.
        let wait_recs = rules::wait_profile_rules(&self.config, view);
        for rec in wait_recs {
            // Rule 3 may already restructure the same table; keep one.
            let duplicate = matches!(&rec, Recommendation::RestructureForReads { table, .. }
                if recommendations.iter().any(|r| matches!(r,
                    Recommendation::ModifyToBTree { table: t, .. } if t == table)));
            if !duplicate {
                recommendations.push(rec);
            }
        }
        // The what-if advisor needs trustworthy cardinalities: freshen
        // statistics on every referenced table that lacks them — in a
        // private copy of the schema, as the paper's analyzer "tests possible
        // new indexes on the DBMS" during its analysis. The live catalog is
        // never changed; the statistics recommendation above is how the
        // change actually lands.
        let snapshot = engine.what_if();
        let mut fresh = snapshot.clone();
        let now = engine.sim_clock().now_secs();
        for t in &view.tables {
            if fresh.table(t.id).is_ok_and(|e| e.stats.is_none()) {
                fresh.collect_statistics(t.id, now)?;
            }
        }
        let advisor_out = advisor::recommend_indexes(&self.config.advisor, &fresh, view)?;

        // Fig 6: cost diagram of the most expensive statements. Its third
        // bar adds the advisor's chosen indexes to the unfreshened snapshot,
        // so all three bars share one basis with the recorded estimates.
        let cost_diagram =
            report::build_cost_diagram(&snapshot, view, &advisor_out.chosen_candidates, 10)?;
        recommendations.extend(advisor_out.recommendations);
        // Fig 8: locks diagram from the statistics samples.
        let locks_diagram = report::build_locks_diagram(view);

        Ok(AnalysisReport {
            recommendations,
            cost_diagram,
            locks_diagram,
        })
    }

    /// Apply a set of recommendations through a SQL session, in a safe
    /// order: statistics first, then storage-structure changes, then
    /// indexes. Returns the executed statements.
    pub fn apply(&self, session: &Session, recs: &[Recommendation]) -> Result<Vec<String>> {
        let mut sorted: Vec<&Recommendation> = recs.iter().collect();
        sorted.sort_by_key(|r| match r {
            Recommendation::CollectStatistics { .. } => 0,
            Recommendation::ModifyToBTree { .. } => 1,
            Recommendation::RestructureForReads { .. } => 1,
            Recommendation::CreateIndex { .. } => 2,
        });
        let mut executed = Vec::new();
        for rec in sorted {
            let sql = rec.to_sql();
            session.execute(&sql)?;
            executed.push(sql);
        }
        Ok(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_common::EngineConfig;

    /// End-to-end: run a skewed workload, analyze, check that all three rule
    /// families fire, apply, and verify the workload gets cheaper.
    #[test]
    fn full_analysis_loop() {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let s = engine.open_session();
        s.execute("create table protein (nref_id int not null primary key, name text, len int)")
            .unwrap();
        for i in 0..3000 {
            s.execute(&format!(
                "insert into protein values ({i}, 'p{i}', {})",
                i % 40
            ))
            .unwrap();
        }
        // A repeated selective query the advisor should index.
        for i in 0..25 {
            s.execute(&format!(
                "select name from protein where nref_id = {}",
                i * 7
            ))
            .unwrap();
        }
        let view = WorkloadView::from_monitor(engine.monitor().unwrap());
        let analyzer = Analyzer::default();
        let report = analyzer.analyze(&engine, &view).unwrap();

        let has_stats_rec = report
            .recommendations
            .iter()
            .any(|r| matches!(r, Recommendation::CollectStatistics { .. }));
        let has_btree_rec = report
            .recommendations
            .iter()
            .any(|r| matches!(r, Recommendation::ModifyToBTree { .. }));
        let has_index_rec = report
            .recommendations
            .iter()
            .any(|r| matches!(r, Recommendation::CreateIndex { .. }));
        assert!(has_stats_rec, "recs: {:?}", report.recommendations);
        assert!(has_btree_rec, "recs: {:?}", report.recommendations);
        assert!(has_index_rec, "recs: {:?}", report.recommendations);

        // Applying must succeed and speed up the repeated point query.
        let before = s
            .execute("select name from protein where nref_id = 7")
            .unwrap();
        analyzer.apply(&s, &report.recommendations).unwrap();
        let after = s
            .execute("select name from protein where nref_id = 7")
            .unwrap();
        assert!(
            after.actual_cost.cpu < before.actual_cost.cpu / 10.0,
            "keyed access should process far fewer tuples: {} vs {}",
            after.actual_cost.cpu,
            before.actual_cost.cpu
        );
    }
}
