//! Integration tests of the analyzer against a real recorded workload on
//! the NREF-like database — the §V-B experiment, test-sized.

use ingot::prelude::*;
use ingot::workload::{analytic_queries, reference_indexes};

fn tuned_engine() -> (std::sync::Arc<Engine>, NrefConfig) {
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let nref = NrefConfig {
        proteins: 1500,
        taxa: 40,
        ..NrefConfig::default()
    };
    load_nref(&engine, &nref).unwrap();
    (engine, nref)
}

#[test]
fn analyzer_covers_all_three_rule_families_on_nref() {
    let (engine, nref) = tuned_engine();
    let session = engine.open_session();
    for q in analytic_queries(&nref) {
        session.execute(&q).unwrap();
    }
    let view = WorkloadView::from_monitor(engine.monitor().unwrap());
    let report = Analyzer::default().analyze(&engine, &view).unwrap();

    let stats = report
        .recommendations
        .iter()
        .filter(|r| matches!(r, Recommendation::CollectStatistics { .. }))
        .count();
    let btree = report
        .recommendations
        .iter()
        .filter(|r| matches!(r, Recommendation::ModifyToBTree { .. }))
        .count();
    let index = report
        .recommendations
        .iter()
        .filter(|r| matches!(r, Recommendation::CreateIndex { .. }))
        .count();
    assert!(stats >= 1, "statistics rules must fire without histograms");
    // Five of the six tables overflow their default heap extent; tiny
    // `taxonomy` (40 rows) fits and must NOT be flagged — the rule is about
    // overflow, not blanket conversion.
    assert!(
        btree >= 5,
        "overflowing heap tables must be flagged, got {btree}"
    );
    assert!(
        btree < 6 || stats > 0,
        "taxonomy at this scale fits its extent"
    );
    assert!(index >= 1, "the join workload must justify indexes");
    // The cost diagram covers the ten most expensive statements.
    assert_eq!(report.cost_diagram.entries.len(), 10);
    for e in &report.cost_diagram.entries {
        assert!(e.actual > 0.0);
        assert!(e.estimated >= 0.0);
    }
}

#[test]
fn applying_recommendations_reduces_physical_io() {
    // The paper's win is disk-bound: the 30 GB database dwarfs the 4 GB of
    // RAM, so every query effectively starts cold. Reproduce that regime by
    // dropping the buffer pool before each statement and counting physical
    // page reads per query.
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let nref = NrefConfig {
        proteins: 1500,
        taxa: 40,
        ..NrefConfig::default()
    };
    load_nref(&engine, &nref).unwrap();
    let session = engine.open_session();
    let queries = analytic_queries(&nref);
    let cold_reads = |sql: &str| {
        engine.catalog().read().pool().clear().unwrap();
        let before = engine.io_stats();
        session.execute(sql).unwrap();
        engine.io_stats().delta_since(&before).reads()
    };
    let before: Vec<u64> = queries.iter().map(|q| cold_reads(q)).collect();

    let view = WorkloadView::from_monitor(engine.monitor().unwrap());
    let analyzer = Analyzer::default();
    let report = analyzer.analyze(&engine, &view).unwrap();
    analyzer.apply(&session, &report.recommendations).unwrap();
    let after: Vec<u64> = queries.iter().map(|q| cold_reads(q)).collect();

    let total_before: u64 = before.iter().sum();
    let total_after: u64 = after.iter().sum();
    assert!(
        (total_after as f64) < total_before as f64 * 0.85,
        "tuning must cut cold-cache physical reads: {total_before} → {total_after}"
    );
    // The selective lookups (accession / pk-range shapes) improve hugely;
    // at least a fifth of the workload should read under half its former
    // pages — the Fig 6 pattern ("only a few statements seem to benefit",
    // but those benefit a lot).
    let improved = before
        .iter()
        .zip(&after)
        .filter(|(b, a)| (**a as f64) < **b as f64 * 0.5)
        .count();
    assert!(
        improved >= 10,
        "expected ≥10 strongly improved queries, got {improved}"
    );
}

#[test]
fn analyzer_index_set_is_smaller_than_reference_set() {
    // The Fig 7 claim: "the recommended index set was only half as big as
    // the reference index set" at comparable speed-up.
    let (engine, nref) = tuned_engine();
    let session = engine.open_session();
    for q in analytic_queries(&nref) {
        session.execute(&q).unwrap();
    }
    let view = WorkloadView::from_monitor(engine.monitor().unwrap());
    let report = Analyzer::default().analyze(&engine, &view).unwrap();
    let recommended = report
        .recommendations
        .iter()
        .filter(|r| matches!(r, Recommendation::CreateIndex { .. }))
        .count();
    assert!(
        recommended * 2 <= reference_indexes().len(),
        "{recommended} recommended vs {} reference",
        reference_indexes().len()
    );
}

#[test]
fn whatif_costing_never_materialises_virtual_indexes() {
    let (engine, nref) = tuned_engine();
    let session = engine.open_session();
    for q in analytic_queries(&nref).iter().take(10) {
        session.execute(q).unwrap();
    }
    let pages_before = engine.total_data_pages();
    let catalog = engine.catalog().read();
    let view = WorkloadView::from_monitor(engine.monitor().unwrap());
    let _ = Analyzer::default().analyze(&engine, &view).unwrap();
    assert_eq!(
        engine.total_data_pages(),
        pages_before,
        "what-if analysis must not allocate index pages"
    );
    // Candidates and temporary statistics live in a private copy: the
    // published schema is the snapshot it was, with no virtual index…
    assert!(std::sync::Arc::ptr_eq(&catalog, &engine.catalog().read()));
    assert_eq!(
        catalog.indexes().filter(|i| i.meta.is_virtual).count(),
        0,
        "no virtual debris"
    );
    // …and no statistics (statistics land only via apply()).
    for t in catalog.tables() {
        assert!(
            t.stats.is_none(),
            "analysis must not leave statistics behind on '{}'",
            t.meta.name
        );
    }
}

#[test]
fn recommendations_apply_through_sql_in_safe_order() {
    let (engine, nref) = tuned_engine();
    let session = engine.open_session();
    for q in analytic_queries(&nref).iter().take(20) {
        session.execute(q).unwrap();
    }
    let view = WorkloadView::from_monitor(engine.monitor().unwrap());
    let analyzer = Analyzer::default();
    let report = analyzer.analyze(&engine, &view).unwrap();
    let executed = analyzer.apply(&session, &report.recommendations).unwrap();
    assert_eq!(executed.len(), report.recommendations.len());
    // Statistics first, indexes last.
    let first_index = executed.iter().position(|s| s.starts_with("create index"));
    let last_stats = executed
        .iter()
        .rposition(|s| s.starts_with("create statistics"));
    if let (Some(fi), Some(ls)) = (first_index, last_stats) {
        assert!(
            ls < fi,
            "statistics must precede index creation: {executed:?}"
        );
    }
    // The engine is healthy afterwards.
    let r = session.execute("select count(*) from protein").unwrap();
    assert_eq!(r.rows[0].get(0).as_int().unwrap(), 1500);
}

/// `tuned_engine` with the 50 analytic queries recorded, and the queries.
fn recorded_engine() -> (std::sync::Arc<Engine>, Vec<String>) {
    let (engine, nref) = tuned_engine();
    let queries = analytic_queries(&nref);
    let session = engine.open_session();
    for q in &queries {
        session.execute(q).unwrap();
    }
    (engine, queries)
}

#[test]
fn analysing_leaves_the_live_engine_untouched() {
    let (engine, queries) = recorded_engine();
    let view = WorkloadView::from_monitor(engine.monitor().unwrap());
    let intern_locks = || engine.monitor().unwrap().health().intern_locks;
    let snapshot = engine.catalog().read();
    let (cache, interned) = (engine.plan_cache_stats(), intern_locks());
    assert_eq!(cache.entries, queries.len() as u64);

    Analyzer::default().analyze(&engine, &view).unwrap();
    let session = engine.open_session();
    for q in &queries {
        session.execute(q).unwrap();
    }
    let after = engine.plan_cache_stats();
    let seen = (
        engine.catalog().read().epoch() - snapshot.epoch(),
        after.invalidations - cache.invalidations,
        after.hits - cache.hits,
        after.misses - cache.misses,
        intern_locks() - interned,
    );
    // (epochs advanced, plans invalidated, re-run hits, re-run misses,
    // footprints interned again)
    assert_eq!(seen, (0, 0, queries.len() as u64, 0, 0));
    assert!(std::sync::Arc::ptr_eq(&snapshot, &engine.catalog().read()));
}

#[test]
fn concurrent_analyzers_report_alike() {
    let (engine, _) = recorded_engine();
    let view = WorkloadView::from_monitor(engine.monitor().unwrap());
    let analyze = || format!("{:?}", Analyzer::default().analyze(&engine, &view));
    // Both passes start together, so each runs while the other costs.
    let start = std::sync::Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let racing = || {
            start.wait();
            analyze()
        };
        let a = s.spawn(racing);
        let b = s.spawn(racing);
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a, b);
    assert_eq!(a, analyze(), "a lone analyzer reports the same");
}
