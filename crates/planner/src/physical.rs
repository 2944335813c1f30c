//! Physical plans.

use std::fmt;
use std::sync::Arc;

use ingot_common::{ColumnSet, Cost, IndexId, Result, TableId, Value};

use crate::expr::{AggSpec, PhysExpr};

/// Which entries of a B-Tree a probe reads.
///
/// Probe keys are row-free expressions — literals in ad-hoc plans, possibly
/// [`PhysExpr::Param`] markers in cached plan templates. The executor
/// evaluates them against an empty row after parameter substitution, so a
/// prepared point query keeps its keyed access path across executions.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeSpec {
    /// Equality on a prefix of the tree's key columns.
    Eq(Vec<PhysExpr>),
    /// Range on the first key column (inclusive bounds).
    Range {
        /// Lower bound.
        lo: Option<PhysExpr>,
        /// Upper bound.
        hi: Option<PhysExpr>,
    },
}

/// The B-Tree a probe descends to reach a table's rows. Each entry holds a
/// row id: in the primary tree the head of the row's version chain, in a
/// secondary index one exact version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeSource {
    /// The table's clustered primary tree (BTree storage), keyed by the
    /// primary key.
    PrimaryTree,
    /// A secondary index, keyed by its columns.
    Index(IndexId, Arc<str>),
}

impl ProbeSource {
    /// The secondary index probed; `None` for the primary tree, which the
    /// index-usage sensors do not count.
    pub(crate) fn index(&self) -> Option<&IndexId> {
        match self {
            ProbeSource::PrimaryTree => None,
            ProbeSource::Index(id, _) => Some(id),
        }
    }
}

/// A plan operator with its children.
#[derive(Debug, Clone)]
pub enum PhysPlan {
    /// One empty row (`SELECT` without `FROM`).
    DualScan,
    /// Provider-backed (IMA) virtual-table scan: rows come from memory.
    VirtualScan {
        /// The virtual table.
        table: TableId,
        /// For display; the catalog's own name, shared.
        table_name: Arc<str>,
        /// Row width.
        width: usize,
        /// Pushed-down predicate.
        filter: Option<PhysExpr>,
    },
    /// Full table scan (sequential I/O over main + overflow pages).
    SeqScan {
        /// Scanned table.
        table: TableId,
        /// For display.
        table_name: Arc<str>,
        /// Width of the emitted rows.
        width: usize,
        /// Pushed-down predicate over the table's own layout.
        filter: Option<PhysExpr>,
        /// Columns the filter or any ancestor reads; the rest are emitted
        /// as `Null` placeholders (see `optimizer::prune_columns`).
        needed: ColumnSet,
    },
    /// A probe of one of the table's B-Trees followed by heap fetches. Shown
    /// as `PkLookup` through the clustered primary tree, `IndexScan` through
    /// a secondary index.
    IndexScan {
        /// Base table.
        table: TableId,
        /// For display.
        table_name: Arc<str>,
        /// The probed tree.
        source: ProbeSource,
        /// Row width.
        width: usize,
        /// Probe specification.
        probe: ProbeSpec,
        /// Residual predicate over the table's own layout.
        filter: Option<PhysExpr>,
        /// Columns read, as for [`PhysPlan::SeqScan`].
        needed: ColumnSet,
    },
    /// Index nested-loop join: for each outer row, probe the inner table
    /// through its clustered primary tree or a secondary index on the join
    /// column — Ingres' "indexes added to the list of joining tables".
    ProbeJoin {
        /// Outer input.
        left: Box<PlanNode>,
        /// Inner table.
        table: TableId,
        /// For display.
        table_name: Arc<str>,
        /// Inner row width.
        width: usize,
        /// Offset of the join key in the outer row.
        left_key: usize,
        /// The probe structure.
        source: ProbeSource,
        /// Residual predicate over the concatenated layout (outer ‖ inner).
        filter: Option<PhysExpr>,
        /// Inner-table columns read, as for [`PhysPlan::SeqScan`].
        needed: ColumnSet,
    },
    /// Nested-loop join (inner side re-scanned per outer row).
    NestedLoopJoin {
        /// Outer input.
        left: Box<PlanNode>,
        /// Inner input.
        right: Box<PlanNode>,
        /// Join predicate over the concatenated layout.
        on: Option<PhysExpr>,
    },
    /// Hash join on equi-key columns.
    HashJoin {
        /// Build side.
        left: Box<PlanNode>,
        /// Probe side.
        right: Box<PlanNode>,
        /// Key offsets into the left row.
        left_keys: Vec<usize>,
        /// Key offsets into the right row.
        right_keys: Vec<usize>,
        /// Residual predicate over the concatenated layout.
        filter: Option<PhysExpr>,
    },
    /// Standalone filter.
    Filter {
        /// Input.
        input: Box<PlanNode>,
        /// Predicate.
        pred: PhysExpr,
    },
    /// Projection.
    Project {
        /// Input.
        input: Box<PlanNode>,
        /// Output expressions over the input layout.
        exprs: Vec<PhysExpr>,
    },
    /// Hash aggregation. Output layout: group keys then aggregate values.
    Aggregate {
        /// Input.
        input: Box<PlanNode>,
        /// Group keys over the input layout.
        group_by: Vec<PhysExpr>,
        /// Aggregates over the input layout.
        aggs: Vec<AggSpec>,
        /// HAVING over the output layout.
        having: Option<PhysExpr>,
    },
    /// Full sort.
    Sort {
        /// Input.
        input: Box<PlanNode>,
        /// `(input offset, descending)` keys.
        keys: Vec<(usize, bool)>,
    },
    /// Order-preserving duplicate elimination over whole rows.
    Distinct {
        /// Input.
        input: Box<PlanNode>,
    },
    /// LIMIT/OFFSET.
    Limit {
        /// Input.
        input: Box<PlanNode>,
        /// Maximum rows (`None` = unlimited, used for pure OFFSET).
        limit: Option<u64>,
        /// Rows to skip.
        offset: u64,
    },
}

/// ` [k/n cols]` when a base-table access reads only `k` of its `n` columns;
/// empty when it reads them all, so unpruned nodes render as they always did.
fn cols_read(needed: ColumnSet, width: usize) -> String {
    let k = needed.count(width);
    if k < width {
        format!(" [{k}/{width} cols]")
    } else {
        String::new()
    }
}

/// A plan node annotated with the optimizer's estimates.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// The operator.
    pub op: PhysPlan,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated cumulative cost (this operator + children).
    pub est_cost: Cost,
}

impl PlanNode {
    /// Number of columns this node emits.
    pub fn width(&self) -> usize {
        match &self.op {
            PhysPlan::DualScan => 0,
            PhysPlan::SeqScan { width, .. }
            | PhysPlan::VirtualScan { width, .. }
            | PhysPlan::IndexScan { width, .. } => *width,
            PhysPlan::NestedLoopJoin { left, right, .. }
            | PhysPlan::HashJoin { left, right, .. } => left.width() + right.width(),
            PhysPlan::ProbeJoin { left, width, .. } => left.width() + width,
            PhysPlan::Filter { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Distinct { input }
            | PhysPlan::Limit { input, .. } => input.width(),
            PhysPlan::Project { exprs, .. } => exprs.len(),
            PhysPlan::Aggregate { group_by, aggs, .. } => group_by.len() + aggs.len(),
        }
    }

    /// Stable operator name, e.g. `"HashJoin"` — the identity tracing spans
    /// and `EXPLAIN ANALYZE` label plan nodes with.
    pub fn op_name(&self) -> &'static str {
        match &self.op {
            PhysPlan::DualScan => "Dual",
            PhysPlan::VirtualScan { .. } => "VirtualScan",
            PhysPlan::SeqScan { .. } => "SeqScan",
            PhysPlan::IndexScan {
                source: ProbeSource::PrimaryTree,
                ..
            } => "PkLookup",
            PhysPlan::IndexScan { .. } => "IndexScan",
            PhysPlan::ProbeJoin { .. } => "ProbeJoin",
            PhysPlan::NestedLoopJoin { .. } => "NestedLoopJoin",
            PhysPlan::HashJoin { .. } => "HashJoin",
            PhysPlan::Filter { .. } => "Filter",
            PhysPlan::Project { .. } => "Project",
            PhysPlan::Aggregate { .. } => "Aggregate",
            PhysPlan::Sort { .. } => "Sort",
            PhysPlan::Distinct { .. } => "Distinct",
            PhysPlan::Limit { .. } => "Limit",
        }
    }

    /// Operator-specific detail suffix (leading space included when
    /// non-empty), e.g. `" on protein via protein_pk eq(1)"`. Shared by the
    /// `EXPLAIN` renderer and the tracing span labels.
    pub fn op_detail(&self) -> String {
        match &self.op {
            PhysPlan::DualScan
            | PhysPlan::NestedLoopJoin { .. }
            | PhysPlan::Filter { .. }
            | PhysPlan::Distinct { .. } => String::new(),
            PhysPlan::VirtualScan { table_name, .. } => format!(" on {table_name}"),
            PhysPlan::SeqScan {
                table_name,
                width,
                filter,
                needed,
                ..
            } => format!(
                " on {table_name}{}{}",
                if filter.is_some() { " [filtered]" } else { "" },
                cols_read(*needed, *width)
            ),
            PhysPlan::IndexScan {
                table_name,
                source,
                width,
                probe,
                needed,
                ..
            } => {
                let via = match source {
                    ProbeSource::PrimaryTree => String::new(),
                    ProbeSource::Index(_, name) => format!(" via {name}"),
                };
                let p = match (source, probe) {
                    (ProbeSource::PrimaryTree, ProbeSpec::Eq(_)) => String::new(),
                    (_, ProbeSpec::Eq(v)) => format!(" eq({})", v.len()),
                    (_, ProbeSpec::Range { .. }) => " range".to_owned(),
                };
                format!(" on {table_name}{via}{p}{}", cols_read(*needed, *width))
            }
            PhysPlan::ProbeJoin {
                table_name,
                width,
                source,
                needed,
                ..
            } => {
                let via = match source {
                    ProbeSource::PrimaryTree => "primary tree".to_owned(),
                    ProbeSource::Index(_, name) => format!("index {name}"),
                };
                format!(" into {table_name} via {via}{}", cols_read(*needed, *width))
            }
            PhysPlan::HashJoin { left_keys, .. } => format!(" on {} key(s)", left_keys.len()),
            PhysPlan::Project { exprs, .. } => format!(" [{} col(s)]", exprs.len()),
            PhysPlan::Aggregate { group_by, aggs, .. } => {
                format!(" [{} key(s), {} agg(s)]", group_by.len(), aggs.len())
            }
            PhysPlan::Sort { keys, .. } => format!(" [{} key(s)]", keys.len()),
            PhysPlan::Limit { limit, offset, .. } => format!(" [{limit:?} offset {offset}]"),
        }
    }

    fn fmt_rec(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        writeln!(
            f,
            "{pad}{}{}  (rows≈{:.0}, {})",
            self.op_name(),
            self.op_detail(),
            self.est_rows,
            self.est_cost
        )?;
        match &self.op {
            PhysPlan::DualScan
            | PhysPlan::VirtualScan { .. }
            | PhysPlan::SeqScan { .. }
            | PhysPlan::IndexScan { .. } => {}
            PhysPlan::ProbeJoin { left, .. } => {
                left.fmt_rec(f, indent + 1)?;
            }
            PhysPlan::NestedLoopJoin { left, right, .. }
            | PhysPlan::HashJoin { left, right, .. } => {
                left.fmt_rec(f, indent + 1)?;
                right.fmt_rec(f, indent + 1)?;
            }
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Aggregate { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Distinct { input }
            | PhysPlan::Limit { input, .. } => {
                input.fmt_rec(f, indent + 1)?;
            }
        }
        Ok(())
    }

    /// Collect the indexes the plan uses (for the optimizer sensor).
    pub fn collect_indexes(&self, out: &mut Vec<IndexId>) {
        match &self.op {
            PhysPlan::IndexScan { source, .. } => add_index(source, out),
            PhysPlan::NestedLoopJoin { left, right, .. }
            | PhysPlan::HashJoin { left, right, .. } => {
                left.collect_indexes(out);
                right.collect_indexes(out);
            }
            PhysPlan::ProbeJoin { left, source, .. } => {
                add_index(source, out);
                left.collect_indexes(out);
            }
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Aggregate { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Distinct { input }
            | PhysPlan::Limit { input, .. } => input.collect_indexes(out),
            _ => {}
        }
    }

    /// Clone the tree with every [`PhysExpr::Param`] replaced by its bound
    /// value — how a cached plan template becomes executable. Estimates are
    /// carried over unchanged: the template was costed with generic parameter
    /// selectivities, and re-costing is exactly what the plan cache avoids.
    pub fn substitute_params(&self, params: &[Value]) -> Result<PlanNode> {
        let sub = |e: &PhysExpr| e.substitute(params);
        let sub_opt = |e: &Option<PhysExpr>| -> Result<Option<PhysExpr>> {
            e.as_ref().map(|e| e.substitute(params)).transpose()
        };
        let op = match &self.op {
            PhysPlan::DualScan => PhysPlan::DualScan,
            PhysPlan::VirtualScan {
                table,
                table_name,
                width,
                filter,
            } => PhysPlan::VirtualScan {
                table: *table,
                table_name: table_name.clone(),
                width: *width,
                filter: sub_opt(filter)?,
            },
            PhysPlan::SeqScan {
                table,
                table_name,
                width,
                filter,
                needed,
            } => PhysPlan::SeqScan {
                table: *table,
                table_name: table_name.clone(),
                width: *width,
                filter: sub_opt(filter)?,
                needed: *needed,
            },
            PhysPlan::IndexScan {
                table,
                table_name,
                source,
                width,
                probe,
                filter,
                needed,
            } => PhysPlan::IndexScan {
                table: *table,
                table_name: table_name.clone(),
                source: source.clone(),
                width: *width,
                probe: match probe {
                    ProbeSpec::Eq(keys) => {
                        ProbeSpec::Eq(keys.iter().map(sub).collect::<Result<_>>()?)
                    }
                    ProbeSpec::Range { lo, hi } => ProbeSpec::Range {
                        lo: sub_opt(lo)?,
                        hi: sub_opt(hi)?,
                    },
                },
                filter: sub_opt(filter)?,
                needed: *needed,
            },
            PhysPlan::ProbeJoin {
                left,
                table,
                table_name,
                width,
                left_key,
                source,
                filter,
                needed,
            } => PhysPlan::ProbeJoin {
                left: Box::new(left.substitute_params(params)?),
                table: *table,
                table_name: table_name.clone(),
                width: *width,
                left_key: *left_key,
                source: source.clone(),
                filter: sub_opt(filter)?,
                needed: *needed,
            },
            PhysPlan::NestedLoopJoin { left, right, on } => PhysPlan::NestedLoopJoin {
                left: Box::new(left.substitute_params(params)?),
                right: Box::new(right.substitute_params(params)?),
                on: sub_opt(on)?,
            },
            PhysPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                filter,
            } => PhysPlan::HashJoin {
                left: Box::new(left.substitute_params(params)?),
                right: Box::new(right.substitute_params(params)?),
                left_keys: left_keys.clone(),
                right_keys: right_keys.clone(),
                filter: sub_opt(filter)?,
            },
            PhysPlan::Filter { input, pred } => PhysPlan::Filter {
                input: Box::new(input.substitute_params(params)?),
                pred: pred.substitute(params)?,
            },
            PhysPlan::Project { input, exprs } => PhysPlan::Project {
                input: Box::new(input.substitute_params(params)?),
                exprs: exprs.iter().map(sub).collect::<Result<_>>()?,
            },
            PhysPlan::Aggregate {
                input,
                group_by,
                aggs,
                having,
            } => PhysPlan::Aggregate {
                input: Box::new(input.substitute_params(params)?),
                group_by: group_by.iter().map(sub).collect::<Result<_>>()?,
                aggs: aggs
                    .iter()
                    .map(|a| {
                        Ok(AggSpec {
                            func: a.func,
                            input: a.input.as_ref().map(|e| e.substitute(params)).transpose()?,
                            distinct: a.distinct,
                        })
                    })
                    .collect::<Result<_>>()?,
                having: sub_opt(having)?,
            },
            PhysPlan::Sort { input, keys } => PhysPlan::Sort {
                input: Box::new(input.substitute_params(params)?),
                keys: keys.clone(),
            },
            PhysPlan::Distinct { input } => PhysPlan::Distinct {
                input: Box::new(input.substitute_params(params)?),
            },
            PhysPlan::Limit {
                input,
                limit,
                offset,
            } => PhysPlan::Limit {
                input: Box::new(input.substitute_params(params)?),
                limit: *limit,
                offset: *offset,
            },
        };
        Ok(PlanNode {
            op,
            est_rows: self.est_rows,
            est_cost: self.est_cost,
        })
    }
}

/// Note the secondary index `source` probes, once.
fn add_index(source: &ProbeSource, out: &mut Vec<IndexId>) {
    if let Some(id) = source.index() {
        if !out.contains(id) {
            out.push(*id);
        }
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_rec(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf() -> PlanNode {
        PlanNode {
            op: PhysPlan::SeqScan {
                table: TableId(1),
                table_name: "protein".into(),
                width: 3,
                filter: None,
                needed: ColumnSet::all(),
            },
            est_rows: 100.0,
            est_cost: Cost::new(100.0, 10.0),
        }
    }

    #[test]
    fn width_computation() {
        let l = leaf();
        assert_eq!(l.width(), 3);
        let join = PlanNode {
            op: PhysPlan::HashJoin {
                left: Box::new(leaf()),
                right: Box::new(leaf()),
                left_keys: vec![0],
                right_keys: vec![0],
                filter: None,
            },
            est_rows: 100.0,
            est_cost: Cost::ZERO,
        };
        assert_eq!(join.width(), 6);
        let proj = PlanNode {
            op: PhysPlan::Project {
                input: Box::new(join),
                exprs: vec![PhysExpr::Col(0), PhysExpr::Col(5)],
            },
            est_rows: 100.0,
            est_cost: Cost::ZERO,
        };
        assert_eq!(proj.width(), 2);
    }

    #[test]
    fn display_renders_tree() {
        let join = PlanNode {
            op: PhysPlan::NestedLoopJoin {
                left: Box::new(leaf()),
                right: Box::new(leaf()),
                on: None,
            },
            est_rows: 10000.0,
            est_cost: Cost::new(1.0, 2.0),
        };
        let s = join.to_string();
        assert!(s.contains("NestedLoopJoin"));
        assert!(s.contains("SeqScan on protein"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn probe_nodes_are_named_by_their_tree() {
        let probe = |source, probe| PlanNode {
            op: PhysPlan::IndexScan {
                table: TableId(1),
                table_name: "t".into(),
                source,
                width: 2,
                probe,
                filter: None,
                needed: ColumnSet::all(),
            },
            est_rows: 1.0,
            est_cost: Cost::ZERO,
        };
        let eq = || ProbeSpec::Eq(vec![PhysExpr::Literal(Value::Int(1))]);
        let range = || ProbeSpec::Range { lo: None, hi: None };
        let index = || ProbeSource::Index(IndexId(7), "i".into());
        for (node, want) in [
            (probe(ProbeSource::PrimaryTree, eq()), "PkLookup on t"),
            (
                probe(ProbeSource::PrimaryTree, range()),
                "PkLookup on t range",
            ),
            (probe(index(), eq()), "IndexScan on t via i eq(1)"),
            (probe(index(), range()), "IndexScan on t via i range"),
        ] {
            assert_eq!(format!("{}{}", node.op_name(), node.op_detail()), want);
        }
        // The primary tree is no index to the usage sensors.
        let mut out = Vec::new();
        probe(ProbeSource::PrimaryTree, eq()).collect_indexes(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn collect_indexes_dedups() {
        let scan = PlanNode {
            op: PhysPlan::IndexScan {
                table: TableId(1),
                table_name: "t".into(),
                source: ProbeSource::Index(IndexId(7), "i".into()),
                width: 1,
                probe: ProbeSpec::Eq(vec![PhysExpr::Literal(Value::Int(1))]),
                filter: None,
                needed: ColumnSet::all(),
            },
            est_rows: 1.0,
            est_cost: Cost::ZERO,
        };
        let join = PlanNode {
            op: PhysPlan::NestedLoopJoin {
                left: Box::new(scan.clone()),
                right: Box::new(scan),
                on: None,
            },
            est_rows: 1.0,
            est_cost: Cost::ZERO,
        };
        let mut out = Vec::new();
        join.collect_indexes(&mut out);
        assert_eq!(out, vec![IndexId(7)]);
    }

    #[test]
    fn substitute_params_patches_probe_keys_and_filters() {
        let templ = PlanNode {
            op: PhysPlan::Filter {
                input: Box::new(PlanNode {
                    op: PhysPlan::IndexScan {
                        table: TableId(1),
                        table_name: "t".into(),
                        source: ProbeSource::PrimaryTree,
                        width: 2,
                        probe: ProbeSpec::Range {
                            lo: Some(PhysExpr::Param(0)),
                            hi: None,
                        },
                        filter: None,
                        needed: ColumnSet::all(),
                    },
                    est_rows: 1.0,
                    est_cost: Cost::new(1.0, 1.0),
                }),
                pred: PhysExpr::Binary {
                    op: ingot_sql::BinOp::Gt,
                    left: Box::new(PhysExpr::Col(1)),
                    right: Box::new(PhysExpr::Param(1)),
                },
            },
            est_rows: 1.0,
            est_cost: Cost::new(2.0, 1.0),
        };
        let bound = templ
            .substitute_params(&[Value::Int(42), Value::Int(7)])
            .unwrap();
        match &bound.op {
            PhysPlan::Filter { input, pred } => {
                match &input.op {
                    PhysPlan::IndexScan { probe, .. } => {
                        let lo = Some(PhysExpr::Literal(Value::Int(42)));
                        assert_eq!(probe, &ProbeSpec::Range { lo, hi: None });
                    }
                    other => panic!("unexpected input op {other:?}"),
                }
                match pred {
                    PhysExpr::Binary { right, .. } => {
                        assert_eq!(**right, PhysExpr::Literal(Value::Int(7)));
                    }
                    other => panic!("unexpected pred {other:?}"),
                }
            }
            other => panic!("unexpected op {other:?}"),
        }
        // Estimates survive substitution untouched.
        assert_eq!(bound.est_cost, templ.est_cost);
        // Missing values surface as an error, never a silent NULL.
        assert!(templ.substitute_params(&[Value::Int(1)]).is_err());
    }
}
