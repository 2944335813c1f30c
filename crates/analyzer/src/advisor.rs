//! The index advisor.
//!
//! Implements the paper's what-if loop: candidate indexes derived from the
//! recorded attribute references are registered as *virtual* indexes in a
//! private copy of the schema ([`WhatIf`]), and the engine's own optimizer
//! decides whether a plan would use them — "this fact
//! allows us to feed the Ingres optimizer with a number of hypothetical, or
//! virtual indexes, exploiting its decision about which indexes will
//! actually be used to find an optimal index set for the workload". Greedy
//! selection keeps the candidate with the largest frequency-weighted
//! estimated saving until no candidate clears the benefit threshold.

use std::collections::HashMap;

use ingot_catalog::WhatIf;
use ingot_common::{IndexId, Result, TableId};
use ingot_core::estimate;

use crate::rules::Recommendation;
use crate::view::WorkloadView;

/// Advisor settings.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Maximum indexes to recommend.
    pub max_indexes: usize,
    /// Minimum frequency-weighted benefit (total cost units) a candidate
    /// must deliver to be recommended.
    pub min_benefit: f64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            max_indexes: 16,
            min_benefit: 500.0,
        }
    }
}

/// A candidate (or chosen) index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexCandidate {
    /// Target table.
    pub table: TableId,
    /// Target table name.
    pub table_name: String,
    /// Column names (advisor currently proposes single-column indexes, like
    /// the paper's prototype).
    pub column_names: Vec<String>,
}

/// Advisor result: recommendations plus the raw chosen candidates (the
/// report layer registers them again to draw Fig 6's third bar).
#[derive(Debug, Clone, Default)]
pub struct AdvisorOutput {
    /// `CreateIndex` recommendations.
    pub recommendations: Vec<Recommendation>,
    /// The chosen candidates.
    pub chosen_candidates: Vec<IndexCandidate>,
}

/// Run the advisor over the recorded workload, costing against copies of
/// `what_if`.
pub fn recommend_indexes(
    config: &AdvisorConfig,
    what_if: &WhatIf,
    view: &WorkloadView,
) -> Result<AdvisorOutput> {
    // Queries with their execution weights.
    let queries: Vec<(&str, u64)> = view
        .statements
        .iter()
        .filter(|s| s.is_query())
        .map(|s| (s.text.as_str(), s.executions))
        .collect();
    if queries.is_empty() {
        return Ok(AdvisorOutput::default());
    }

    // Candidate generation from referenced attributes.
    let mut candidates = generate_candidates(what_if, view);

    // Baseline cost of each query with only the real indexes.
    let mut current_cost: HashMap<&str, f64> = HashMap::with_capacity(queries.len());
    for (text, _) in &queries {
        if let Ok(est) = estimate(what_if, text) {
            current_cost.insert(text, est.est.total());
        }
    }

    // The copy with the chosen set registered; each candidate is costed on
    // a clone of it, registered last.
    let mut with_chosen = what_if.clone();
    let mut chosen: Vec<IndexCandidate> = Vec::new();
    let mut recommendations = Vec::new();

    while chosen.len() < config.max_indexes && !candidates.is_empty() {
        let mut best: Option<(usize, f64, usize)> = None; // (cand idx, benefit, helped)
        for (ci, cand) in candidates.iter().enumerate() {
            let mut trial = with_chosen.clone();
            let cand_id = register(&mut trial, cand)?;
            let mut benefit = 0.0;
            let mut helped = 0usize;
            for (text, weight) in &queries {
                let Some(&base) = current_cost.get(text) else {
                    continue;
                };
                let Ok(est) = estimate(&trial, text) else {
                    continue;
                };
                // Only count queries whose chosen plan actually uses the
                // candidate — the optimizer's decision, not ours.
                if est.used_indexes.contains(&cand_id) {
                    let saving = (base - est.est.total()).max(0.0);
                    if saving > 0.0 {
                        benefit += saving * *weight as f64;
                        helped += 1;
                    }
                }
            }
            if best.is_none_or(|(_, b, _)| benefit > b) {
                best = Some((ci, benefit, helped));
            }
        }
        let Some((ci, benefit, helped)) = best else {
            break;
        };
        if benefit < config.min_benefit {
            break;
        }
        let cand = candidates.remove(ci);
        recommendations.push(Recommendation::CreateIndex {
            table: cand.table_name.clone(),
            columns: cand.column_names.clone(),
            benefit,
            statements_helped: helped,
        });
        register(&mut with_chosen, &cand)?;
        chosen.push(cand);
        // Re-baseline costs with the chosen set registered, so the next
        // round measures *marginal* benefit.
        for (text, _) in &queries {
            if let Ok(est) = estimate(&with_chosen, text) {
                current_cost.insert(text, est.est.total());
            }
        }
    }

    Ok(AdvisorOutput {
        recommendations,
        chosen_candidates: chosen,
    })
}

/// Register a candidate as a virtual index in `what_if`.
pub fn register(what_if: &mut WhatIf, cand: &IndexCandidate) -> Result<IndexId> {
    let cols: Vec<&str> = cand.column_names.iter().map(String::as_str).collect();
    what_if.add_virtual_index(&cand.table_name, &cols)
}

fn generate_candidates(catalog: &WhatIf, view: &WorkloadView) -> Vec<IndexCandidate> {
    let mut out = Vec::new();
    for attr in &view.attributes {
        let Ok(entry) = catalog.table(attr.table) else {
            continue;
        };
        // Skip the clustered key of a BTree table — keyed access exists.
        if entry.meta.storage == ingot_catalog::StorageStructure::BTree
            && entry.meta.primary_key == [attr.column]
        {
            continue;
        }
        // Skip columns already leading an existing index.
        let covered = catalog
            .indexes_of(attr.table)
            .iter()
            .any(|idx| idx.meta.columns.first() == Some(&attr.column));
        if covered {
            continue;
        }
        let cand = IndexCandidate {
            table: attr.table,
            table_name: entry.meta.name.to_string(),
            column_names: vec![attr.name.clone()],
        };
        if !out.contains(&cand) {
            out.push(cand);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::view::WorkloadView;
    use ingot_common::EngineConfig;
    use ingot_core::Engine;

    #[test]
    fn advisor_recommends_selective_index_and_skips_useless_one() {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let s = engine.open_session();
        s.execute("create table protein (nref_id int not null, name text, grp int)")
            .unwrap();
        for i in 0..4000 {
            s.execute(&format!(
                "insert into protein values ({i}, 'p{i}', {})",
                i % 2
            ))
            .unwrap();
        }
        s.execute("create statistics on protein").unwrap();
        // Selective predicate on nref_id (4000 distinct) — index-worthy.
        for i in 0..10 {
            s.execute(&format!("select name from protein where nref_id = {i}"))
                .unwrap();
        }
        // Unselective predicate on grp (2 distinct) — not index-worthy.
        s.execute("select name from protein where grp = 1").unwrap();

        let view = WorkloadView::from_monitor(engine.monitor().unwrap());
        let live = engine.catalog().read();
        let out = recommend_indexes(&AdvisorConfig::default(), &engine.what_if(), &view).unwrap();
        assert_eq!(out.chosen_candidates.len(), 1, "{:?}", out.recommendations);
        assert_eq!(out.chosen_candidates[0].column_names, vec!["nref_id"]);
        let Recommendation::CreateIndex {
            statements_helped,
            benefit,
            ..
        } = &out.recommendations[0]
        else {
            panic!()
        };
        assert_eq!(*statements_helped, 10);
        assert!(*benefit > 0.0);
        // The candidates were costed in a copy: the live schema is the
        // snapshot it was, with no index at all.
        assert!(Arc::ptr_eq(&live, &engine.catalog().read()));
        assert_eq!(live.indexes().count(), 0);
    }

    #[test]
    fn advisor_skips_already_indexed_columns() {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let s = engine.open_session();
        s.execute("create table t (a int not null, b int)").unwrap();
        for i in 0..3000 {
            s.execute(&format!("insert into t values ({i}, {i})"))
                .unwrap();
        }
        s.execute("create statistics on t").unwrap();
        s.execute("create index t_a on t (a)").unwrap();
        for i in 0..5 {
            s.execute(&format!("select b from t where a = {i}"))
                .unwrap();
        }
        let view = WorkloadView::from_monitor(engine.monitor().unwrap());
        let out = recommend_indexes(&AdvisorConfig::default(), &engine.what_if(), &view).unwrap();
        assert!(
            out.chosen_candidates
                .iter()
                .all(|c| c.column_names != vec!["a"]),
            "existing index must not be re-recommended: {:?}",
            out.recommendations
        );
    }

    #[test]
    fn empty_workload_yields_nothing() {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let view = WorkloadView::default();
        let out = recommend_indexes(&AdvisorConfig::default(), &engine.what_if(), &view).unwrap();
        assert!(out.recommendations.is_empty());
    }
}
