//! The rule engine: local, pre-defined rules mapped to recommendations
//! (level two of the paper's three analysis levels).

use std::collections::{BTreeMap, HashMap};

use ingot_common::{Cost, TableId};

use crate::view::WorkloadView;
use crate::AnalyzerConfig;

/// A recommended change to the physical database design.
#[derive(Debug, Clone, PartialEq)]
pub enum Recommendation {
    /// Collect statistics (histograms) on a table or specific columns.
    CollectStatistics {
        /// Target table.
        table: String,
        /// Specific columns; empty = whole table.
        columns: Vec<String>,
        /// Why the rule fired.
        reason: String,
    },
    /// Convert a heap table with excessive overflow pages to B-Tree.
    ModifyToBTree {
        /// Target table.
        table: String,
        /// Observed overflow ratio.
        overflow_ratio: f64,
    },
    /// Create a secondary index.
    CreateIndex {
        /// Target table.
        table: String,
        /// Indexed columns.
        columns: Vec<String>,
        /// Estimated workload benefit (optimizer cost units saved).
        benefit: f64,
        /// How many distinct statements the optimizer would route through
        /// the index ("an index that was recommended for many statements is
        /// more useful").
        statements_helped: usize,
    },
    /// Restructure a heap table to B-Tree because a statement's ASH wait
    /// profile is dominated by physical buffer reads (keyed access would
    /// touch far fewer pages than the scan does).
    RestructureForReads {
        /// Target table.
        table: String,
        /// The statement template whose profile fired the rule.
        template: String,
        /// Fraction of the template's ASH samples spent in `BufferRead`.
        buffer_read_pct: f64,
    },
}

impl Recommendation {
    /// The SQL statement that implements this recommendation.
    pub fn to_sql(&self) -> String {
        match self {
            Recommendation::CollectStatistics { table, columns, .. } => {
                if columns.is_empty() {
                    format!("create statistics on {table}")
                } else {
                    format!("create statistics on {table} ({})", columns.join(", "))
                }
            }
            Recommendation::ModifyToBTree { table, .. } => format!("modify {table} to btree"),
            Recommendation::CreateIndex { table, columns, .. } => format!(
                "create index idx_{table}_{} on {table} ({})",
                columns.join("_"),
                columns.join(", ")
            ),
            Recommendation::RestructureForReads { table, .. } => {
                format!("modify {table} to btree")
            }
        }
    }

    /// One-line human-readable description, in the paper's report style.
    pub fn describe(&self) -> String {
        match self {
            Recommendation::CollectStatistics {
                table,
                columns,
                reason,
            } => {
                if columns.is_empty() {
                    format!("Collect statistics on '{table}': {reason}")
                } else {
                    format!(
                        "Create histograms on '{table}' ({}): {reason}",
                        columns.join(", ")
                    )
                }
            }
            Recommendation::ModifyToBTree {
                table,
                overflow_ratio,
            } => format!(
                "Table '{table}' has {:.0} % overflow pages: modify to storage structure B-Tree",
                overflow_ratio * 100.0
            ),
            Recommendation::CreateIndex {
                table,
                columns,
                benefit,
                statements_helped,
            } => format!(
                "Create index on '{table}' ({}) — helps {statements_helped} statement(s), \
                 estimated saving {benefit:.0} cost units",
                columns.join(", ")
            ),
            Recommendation::RestructureForReads {
                table,
                template,
                buffer_read_pct,
            } => format!(
                "Statement '{template}' spends {:.0} % of its sampled time in BufferRead \
                 waits: modify '{table}' to B-Tree (or index it) so access is keyed",
                buffer_read_pct * 100.0
            ),
        }
    }
}

/// Rules 1 & 2: cost-discrepancy and missing-histogram detection.
pub fn statistics_rules(config: &AnalyzerConfig, view: &WorkloadView) -> Vec<Recommendation> {
    let mut out = Vec::new();
    let names: HashMap<TableId, &str> = view
        .tables
        .iter()
        .map(|t| (t.id, t.name.as_str()))
        .collect();

    // Rule 1: per table, count statements whose estimate diverges.
    let mut diverging: BTreeMap<TableId, usize> = BTreeMap::new();
    for s in &view.statements {
        if s.actual.total() < config.min_actual_total {
            continue;
        }
        let per_exec_actual = Cost::new(
            s.actual.cpu / s.executions.max(1) as f64,
            s.actual.io / s.executions.max(1) as f64,
        );
        let per_exec_est = Cost::new(
            s.est.cpu / s.executions.max(1) as f64,
            s.est.io / s.executions.max(1) as f64,
        );
        if Cost::relative_error(&per_exec_est, &per_exec_actual) > config.cost_error_threshold {
            for t in &s.tables {
                *diverging.entry(*t).or_default() += 1;
            }
        }
    }
    for (table, count) in diverging {
        let Some(name) = names.get(&table) else {
            continue;
        };
        out.push(Recommendation::CollectStatistics {
            table: (*name).to_owned(),
            columns: Vec::new(),
            reason: format!(
                "actual and estimated costs differ significantly for {count} statement(s); \
                 statistics may be missing or outdated"
            ),
        });
    }

    // Rule 2: referenced attributes without histograms, grouped per table.
    let mut missing: BTreeMap<TableId, Vec<String>> = BTreeMap::new();
    for a in &view.attributes {
        if !a.has_histogram {
            missing.entry(a.table).or_default().push(a.name.clone());
        }
    }
    for (table, columns) in missing {
        // Skip if rule 1 already recommends whole-table statistics.
        let Some(name) = names.get(&table) else {
            continue;
        };
        if out.iter().any(|r| {
            matches!(r, Recommendation::CollectStatistics { table: t, columns, .. }
                if t == name && columns.is_empty())
        }) {
            continue;
        }
        out.push(Recommendation::CollectStatistics {
            table: (*name).to_owned(),
            columns,
            reason: "referenced attributes have no statistics; histograms should be created"
                .to_owned(),
        });
    }
    out
}

/// Rule 4: the wait-profile rule over the ASH aggregates. A statement whose
/// ASH profile is dominated by `BufferRead` is losing its time to physical
/// page reads; its heap tables should be restructured to B-Tree (keyed
/// access instead of scans).
pub fn wait_profile_rules(config: &AnalyzerConfig, view: &WorkloadView) -> Vec<Recommendation> {
    let mut out = Vec::new();

    // Rule 4: per-template BufferRead dominance.
    let names: HashMap<TableId, &str> = view
        .tables
        .iter()
        .map(|t| (t.id, t.name.as_str()))
        .collect();
    let mut profile: BTreeMap<&str, (u64, u64, &str)> = BTreeMap::new();
    for a in &view.ash {
        let entry = profile
            .entry(a.hash.as_str())
            .or_insert((0, 0, a.template.as_str()));
        entry.0 += a.samples;
        if a.event == "BufferRead" {
            entry.1 += a.samples;
        }
    }
    let mut restructured: Vec<String> = Vec::new();
    for (hash, (total, buffer_read, template)) in profile {
        if total < config.wait_min_samples {
            continue;
        }
        let pct = buffer_read as f64 / total as f64;
        if pct < config.wait_dominance_threshold {
            continue;
        }
        // The dominated statement's heap tables are the restructure targets.
        let Some(stmt) = view.statements.iter().find(|s| s.hash == hash) else {
            continue;
        };
        for id in &stmt.tables {
            let Some(name) = names.get(id) else { continue };
            let is_heap = view
                .tables
                .iter()
                .any(|t| t.id == *id && t.storage == "HEAP");
            if !is_heap || restructured.iter().any(|t| t == name) {
                continue;
            }
            restructured.push((*name).to_owned());
            out.push(Recommendation::RestructureForReads {
                table: (*name).to_owned(),
                template: template.to_owned(),
                buffer_read_pct: pct,
            });
        }
    }

    out
}

/// Rule 3: heap tables with more than the threshold of overflow pages.
pub fn overflow_rule(config: &AnalyzerConfig, view: &WorkloadView) -> Vec<Recommendation> {
    view.tables
        .iter()
        .filter(|t| t.storage == "HEAP" && t.overflow_ratio() > config.overflow_threshold)
        .map(|t| Recommendation::ModifyToBTree {
            table: t.name.clone(),
            overflow_ratio: t.overflow_ratio(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{AshAgg, AttrAgg, StmtAgg, TableAgg};

    fn table(id: u32, name: &str, storage: &str, data: u64, overflow: u64) -> TableAgg {
        TableAgg {
            id: TableId(id),
            name: name.into(),
            frequency: 1,
            storage: storage.into(),
            data_pages: data,
            overflow_pages: overflow,
            rows: 100,
        }
    }

    #[test]
    fn overflow_rule_thresholds() {
        let cfg = AnalyzerConfig::default();
        let view = WorkloadView {
            tables: vec![
                table(1, "hot", "HEAP", 10, 5),    // 50 % → fires
                table(2, "cold", "HEAP", 10, 0),   // 0 % → no
                table(3, "tree", "BTREE", 10, 90), // already BTREE → no
            ],
            ..Default::default()
        };
        let recs = overflow_rule(&cfg, &view);
        assert_eq!(recs.len(), 1);
        assert!(matches!(&recs[0], Recommendation::ModifyToBTree { table, .. } if table == "hot"));
        assert_eq!(recs[0].to_sql(), "modify hot to btree");
    }

    #[test]
    fn cost_discrepancy_fires_and_respects_noise_floor() {
        let cfg = AnalyzerConfig::default();
        let stmt = |est: f64, actual: f64| StmtAgg {
            hash: "h".into(),
            text: "select …".into(),
            executions: 1,
            actual: Cost::cpu(actual),
            est: Cost::cpu(est),
            wallclock_ns: 0,
            tables: vec![TableId(1)],
        };
        let view = WorkloadView {
            statements: vec![stmt(10.0, 10_000.0)],
            tables: vec![table(1, "protein", "HEAP", 10, 0)],
            ..Default::default()
        };
        let recs = statistics_rules(&cfg, &view);
        assert!(recs.iter().any(
            |r| matches!(r, Recommendation::CollectStatistics { table, .. } if table == "protein")
        ));
        // Below the noise floor: no firing.
        let quiet = WorkloadView {
            statements: vec![stmt(1.0, 50.0)],
            tables: vec![table(1, "protein", "HEAP", 10, 0)],
            ..Default::default()
        };
        assert!(statistics_rules(&cfg, &quiet).is_empty());
    }

    fn ash(hash: &str, template: &str, event: &str, samples: u64) -> AshAgg {
        AshAgg {
            hash: hash.into(),
            template: template.into(),
            event: event.into(),
            samples,
        }
    }

    #[test]
    fn buffer_read_dominance_restructures_heap_tables() {
        let cfg = AnalyzerConfig::default();
        let view = WorkloadView {
            statements: vec![StmtAgg {
                hash: "h1".into(),
                text: "select * from protein where len = 3".into(),
                executions: 20,
                actual: Cost::cpu(1_000.0),
                est: Cost::cpu(1_000.0),
                wallclock_ns: 0,
                tables: vec![TableId(1)],
            }],
            tables: vec![table(1, "protein", "HEAP", 10, 0)],
            ash: vec![
                ash(
                    "h1",
                    "select * from protein where len = ?",
                    "BufferRead",
                    30,
                ),
                ash("h1", "select * from protein where len = ?", "OnCpu", 10),
            ],
            ..Default::default()
        };
        let recs = wait_profile_rules(&cfg, &view);
        assert_eq!(recs.len(), 1, "recs: {recs:?}");
        let Recommendation::RestructureForReads {
            table,
            buffer_read_pct,
            ..
        } = &recs[0]
        else {
            panic!("expected RestructureForReads, got {recs:?}");
        };
        assert_eq!(table, "protein");
        assert!((buffer_read_pct - 0.75).abs() < 1e-9);
        assert_eq!(recs[0].to_sql(), "modify protein to btree");
        assert!(recs[0].describe().contains("75 %"));

        // Below the dominance threshold or the sample floor: silent.
        let mut quiet = view.clone();
        quiet.ash = vec![ash("h1", "q", "BufferRead", 4), ash("h1", "q", "OnCpu", 36)];
        assert!(wait_profile_rules(&cfg, &quiet).is_empty());
        quiet.ash = vec![ash("h1", "q", "BufferRead", 5)];
        assert!(
            wait_profile_rules(&cfg, &quiet).is_empty(),
            "too few samples"
        );
    }

    #[test]
    fn missing_histogram_rule_groups_columns() {
        let cfg = AnalyzerConfig::default();
        let view = WorkloadView {
            tables: vec![table(1, "protein", "HEAP", 10, 0)],
            attributes: vec![
                AttrAgg {
                    table: TableId(1),
                    table_name: "protein".into(),
                    column: 0,
                    name: "nref_id".into(),
                    frequency: 5,
                    has_histogram: false,
                },
                AttrAgg {
                    table: TableId(1),
                    table_name: "protein".into(),
                    column: 2,
                    name: "len".into(),
                    frequency: 2,
                    has_histogram: true,
                },
            ],
            ..Default::default()
        };
        let recs = statistics_rules(&cfg, &view);
        assert_eq!(recs.len(), 1);
        let Recommendation::CollectStatistics { columns, .. } = &recs[0] else {
            panic!()
        };
        assert_eq!(columns, &vec!["nref_id".to_owned()]);
        assert_eq!(recs[0].to_sql(), "create statistics on protein (nref_id)");
    }
}
