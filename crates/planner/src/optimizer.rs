//! Plan selection: access paths, join ordering, and the what-if mode.
//!
//! Join ordering is exhaustive left-deep dynamic programming over table
//! subsets (the NREF workloads join at most a handful of tables). Access
//! paths compete on the cost model of [`crate::cost`]; when
//! [`OptimizerOptions::include_virtual`] is set, hypothetical indexes
//! registered in the catalog compete too — the resulting plan then reports
//! `uses_virtual` and cannot be executed, but its estimated cost is exactly
//! what the paper's analyzer uses to value an index recommendation.

use std::collections::HashMap;

use ingot_catalog::{Catalog, IndexEntry, TableEntry};
use ingot_common::{ColumnSet, Cost, Error, IndexId, Result, TableId, Value};
use ingot_sql::BinOp;

use crate::binder::{table_offset, BoundSelect, BoundStatement, BoundTable, Conjunct, InsertRows};
use crate::cost::{
    column_ndv, conjunct_selectivity, equi_join_cardinality, index_probe_cost, pk_lookup_cost,
    seq_scan_cost, table_cardinality,
};
use crate::expr::PhysExpr;
use crate::physical::{PhysPlan, PlanNode, ProbeSpec};

/// Optimizer switches.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizerOptions {
    /// What-if mode: let virtual (hypothetical) indexes compete for access
    /// paths. Plans that pick one are not executable.
    pub include_virtual: bool,
}

/// A fully planned query.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The plan tree.
    pub root: PlanNode,
    /// Names of the visible output columns.
    pub output_names: Vec<String>,
    /// Indexes the plan probes (the "used indexes" sensor value).
    pub used_indexes: Vec<IndexId>,
    /// True when a virtual index was chosen (what-if mode only).
    pub uses_virtual: bool,
    /// Estimated total cost (root's cumulative cost).
    pub est: Cost,
}

/// A planned statement of any kind.
// Variant sizes diverge because `PlannedQuery` carries the full operator
// tree inline, but statements are planned once and then shared through the
// plan cache behind an `Arc`, so the by-value size never hits a hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PlannedStatement {
    /// SELECT.
    Query(PlannedQuery),
    /// INSERT (rows pre-evaluated unless parameterised).
    Insert {
        /// Target table.
        table: TableId,
        /// Rows to insert.
        rows: InsertRows,
        /// Estimated cost.
        est: Cost,
    },
    /// UPDATE.
    Update {
        /// Target table.
        table: TableId,
        /// Assignments `(column, expression over the table layout)`.
        sets: Vec<(usize, PhysExpr)>,
        /// Row filter over the table layout.
        filter: Option<PhysExpr>,
        /// Estimated cost.
        est: Cost,
    },
    /// DELETE.
    Delete {
        /// Target table.
        table: TableId,
        /// Row filter over the table layout.
        filter: Option<PhysExpr>,
        /// Estimated cost.
        est: Cost,
    },
}

impl PlannedStatement {
    /// The estimated cost of the statement.
    pub fn estimated_cost(&self) -> Cost {
        match self {
            PlannedStatement::Query(q) => q.est,
            PlannedStatement::Insert { est, .. }
            | PlannedStatement::Update { est, .. }
            | PlannedStatement::Delete { est, .. } => *est,
        }
    }

    /// Indexes used (queries only).
    pub fn used_indexes(&self) -> &[IndexId] {
        match self {
            PlannedStatement::Query(q) => &q.used_indexes,
            _ => &[],
        }
    }

    /// Clone the statement with every parameter marker replaced by its bound
    /// value. This is the execute-time half of a prepared statement: the
    /// cached template stays untouched, the returned copy is executable.
    pub fn substitute_params(&self, params: &[Value]) -> Result<PlannedStatement> {
        let sub_opt = |e: &Option<PhysExpr>| -> Result<Option<PhysExpr>> {
            e.as_ref().map(|e| e.substitute(params)).transpose()
        };
        Ok(match self {
            PlannedStatement::Query(q) => PlannedStatement::Query(PlannedQuery {
                root: q.root.substitute_params(params)?,
                output_names: q.output_names.clone(),
                used_indexes: q.used_indexes.clone(),
                uses_virtual: q.uses_virtual,
                est: q.est,
            }),
            PlannedStatement::Insert { table, rows, est } => PlannedStatement::Insert {
                table: *table,
                rows: match rows {
                    InsertRows::Const(r) => InsertRows::Const(r.clone()),
                    InsertRows::Dynamic(r) => InsertRows::Dynamic(
                        r.iter()
                            .map(|row| {
                                row.iter()
                                    .map(|e| e.substitute(params))
                                    .collect::<Result<_>>()
                            })
                            .collect::<Result<_>>()?,
                    ),
                },
                est: *est,
            },
            PlannedStatement::Update {
                table,
                sets,
                filter,
                est,
            } => PlannedStatement::Update {
                table: *table,
                sets: sets
                    .iter()
                    .map(|(c, e)| Ok((*c, e.substitute(params)?)))
                    .collect::<Result<_>>()?,
                filter: sub_opt(filter)?,
                est: *est,
            },
            PlannedStatement::Delete { table, filter, est } => PlannedStatement::Delete {
                table: *table,
                filter: sub_opt(filter)?,
                est: *est,
            },
        })
    }
}

/// Plan a bound statement.
pub fn optimize(
    catalog: &Catalog,
    stmt: &BoundStatement,
    opts: OptimizerOptions,
) -> Result<PlannedStatement> {
    match stmt {
        BoundStatement::Select(s) => {
            Ok(PlannedStatement::Query(optimize_select(catalog, s, opts)?))
        }
        BoundStatement::Insert { table, rows } => Ok(PlannedStatement::Insert {
            table: *table,
            rows: rows.clone(),
            est: Cost::new(rows.len() as f64, rows.len() as f64 / 40.0 + 1.0),
        }),
        BoundStatement::Update {
            table,
            sets,
            filter,
        } => {
            let entry = catalog.table(*table)?;
            Ok(PlannedStatement::Update {
                table: *table,
                sets: sets.clone(),
                filter: filter.clone(),
                est: seq_scan_cost(entry),
            })
        }
        BoundStatement::Delete { table, filter } => {
            let entry = catalog.table(*table)?;
            Ok(PlannedStatement::Delete {
                table: *table,
                filter: filter.clone(),
                est: seq_scan_cost(entry),
            })
        }
    }
}

/// Plan a bound SELECT.
pub fn optimize_select(
    catalog: &Catalog,
    s: &BoundSelect,
    opts: OptimizerOptions,
) -> Result<PlannedQuery> {
    let mut node;
    let mut global_map: HashMap<usize, usize> = HashMap::new();

    if s.tables.is_empty() {
        node = PlanNode {
            op: PhysPlan::DualScan,
            est_rows: 1.0,
            est_cost: Cost::ZERO,
        };
        for c in &s.conjuncts {
            node = wrap_filter(node, c.expr.clone(), 1.0);
        }
    } else {
        // 1. Access-path selection per table.
        let mut rels = Vec::with_capacity(s.tables.len());
        for (i, bt) in s.tables.iter().enumerate() {
            rels.push(choose_access_path(catalog, s, i, bt, opts)?);
        }
        // 2. Left-deep DP join ordering.
        let (plan, map) = join_order(catalog, s, rels, opts)?;
        node = plan;
        global_map = map;
    }

    let remap =
        |e: &PhysExpr| -> PhysExpr { e.remap(&|off| *global_map.get(&off).unwrap_or(&off)) };

    // 3. Aggregation.
    if s.is_aggregate() {
        let group_by: Vec<PhysExpr> = s.group_by.iter().map(&remap).collect();
        let aggs: Vec<_> = s
            .aggregates
            .iter()
            .map(|a| crate::expr::AggSpec {
                func: a.func,
                input: a.input.as_ref().map(&remap),
                distinct: a.distinct,
            })
            .collect();
        let in_rows = node.est_rows;
        let out_rows = if group_by.is_empty() {
            1.0
        } else {
            (in_rows / 10.0).max(1.0)
        };
        let est_cost = node.est_cost + Cost::cpu(in_rows);
        node = PlanNode {
            op: PhysPlan::Aggregate {
                input: Box::new(node),
                group_by,
                aggs,
                having: s.having.clone(),
            },
            est_rows: out_rows,
            est_cost,
        };
        // Projections are already over the aggregate output layout.
        node = wrap_project(node, s.projections.iter().map(|(e, _)| e.clone()).collect());
    } else {
        node = wrap_project(node, s.projections.iter().map(|(e, _)| remap(e)).collect());
    }

    // 4. Sort (over the projection output, including hidden columns).
    if !s.order_by.is_empty() {
        let n = node.est_rows.max(2.0);
        let est_cost = node.est_cost + Cost::cpu(n * n.log2());
        node = PlanNode {
            est_rows: node.est_rows,
            op: PhysPlan::Sort {
                input: Box::new(node),
                keys: s.order_by.clone(),
            },
            est_cost,
        };
    }

    // 5. Strip hidden sort columns.
    let visible = s.projections.len() - s.hidden_sort_cols;
    if s.hidden_sort_cols > 0 {
        node = wrap_project(node, (0..visible).map(PhysExpr::Col).collect());
    }

    // 6. DISTINCT.
    if s.distinct {
        let est_cost = node.est_cost + Cost::cpu(node.est_rows);
        node = PlanNode {
            est_rows: (node.est_rows * 0.9).max(1.0),
            op: PhysPlan::Distinct {
                input: Box::new(node),
            },
            est_cost,
        };
    }

    // 7. LIMIT / OFFSET.
    if s.limit.is_some() || s.offset.is_some() {
        let limit = s.limit;
        let offset = s.offset.unwrap_or(0);
        let est_rows = match limit {
            Some(l) => node.est_rows.min(l as f64),
            None => node.est_rows,
        };
        node = PlanNode {
            est_rows,
            est_cost: node.est_cost,
            op: PhysPlan::Limit {
                input: Box::new(node),
                limit,
                offset,
            },
        };
    }

    // 8. Column pruning. Runs after costing and touches no estimate.
    prune_columns(&mut node, ColumnSet::all());

    let mut used_indexes = Vec::new();
    node.collect_indexes(&mut used_indexes);
    let uses_virtual = used_indexes.iter().any(|id| {
        catalog
            .index(*id)
            .map(|e| e.meta.is_virtual)
            .unwrap_or(false)
    });
    Ok(PlannedQuery {
        output_names: s
            .projections
            .iter()
            .take(visible)
            .map(|(_, n)| n.clone())
            .collect(),
        est: node.est_cost,
        root: node,
        used_indexes,
        uses_virtual,
    })
}

/// Give every base-table access node below `node` its `needed` set: the
/// columns its own filter reads plus the columns any ancestor reads from it.
/// `required` is what the parent reads of `node`'s output layout — all of it
/// at the root. Pruned positions are emitted as `Null`, never removed, so no
/// expression offset moves.
fn prune_columns(node: &mut PlanNode, required: ColumnSet) {
    fn add(set: &mut ColumnSet, e: &PhysExpr) {
        e.for_each_column(&mut |c| set.insert(c));
    }
    let mut req = required;
    match &mut node.op {
        PhysPlan::DualScan | PhysPlan::VirtualScan { .. } => {}
        PhysPlan::SeqScan { filter, needed, .. }
        | PhysPlan::IndexScan { filter, needed, .. }
        | PhysPlan::PkLookup { filter, needed, .. } => {
            filter.iter().for_each(|f| add(&mut req, f));
            *needed = req;
        }
        PhysPlan::ProbeJoin {
            left,
            left_key,
            filter,
            needed,
            ..
        } => {
            filter.iter().for_each(|f| add(&mut req, f));
            let (mut outer, inner) = req.split_at(left.width());
            outer.insert(*left_key);
            *needed = inner;
            prune_columns(left, outer);
        }
        PhysPlan::NestedLoopJoin { left, right, on } => {
            on.iter().for_each(|f| add(&mut req, f));
            let (l, r) = req.split_at(left.width());
            prune_columns(left, l);
            prune_columns(right, r);
        }
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            filter,
        } => {
            filter.iter().for_each(|f| add(&mut req, f));
            let (mut l, mut r) = req.split_at(left.width());
            left_keys.iter().for_each(|&k| l.insert(k));
            right_keys.iter().for_each(|&k| r.insert(k));
            prune_columns(left, l);
            prune_columns(right, r);
        }
        PhysPlan::Filter { input, pred } => {
            add(&mut req, pred);
            prune_columns(input, req);
        }
        // A projection or aggregate evaluates all of its expressions, asked
        // for or not, and reads nothing else of its input.
        PhysPlan::Project { input, exprs } => {
            let mut req = ColumnSet::none();
            exprs.iter().for_each(|e| add(&mut req, e));
            prune_columns(input, req);
        }
        PhysPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let mut req = ColumnSet::none();
            let inputs = aggs.iter().filter_map(|a| a.input.as_ref());
            group_by.iter().chain(inputs).for_each(|e| add(&mut req, e));
            prune_columns(input, req);
        }
        // Both compare whole rows (Sort as its tie-break), so every input
        // column is read.
        PhysPlan::Sort { input, .. } | PhysPlan::Distinct { input } => {
            prune_columns(input, ColumnSet::all());
        }
        PhysPlan::Limit { input, .. } => prune_columns(input, req),
    }
}

fn wrap_filter(node: PlanNode, pred: PhysExpr, sel: f64) -> PlanNode {
    let est_cost = node.est_cost + Cost::cpu(node.est_rows);
    PlanNode {
        est_rows: (node.est_rows * sel).max(1.0),
        op: PhysPlan::Filter {
            input: Box::new(node),
            pred,
        },
        est_cost,
    }
}

fn wrap_project(node: PlanNode, exprs: Vec<PhysExpr>) -> PlanNode {
    let est_cost = node.est_cost + Cost::cpu(node.est_rows * 0.1);
    PlanNode {
        est_rows: node.est_rows,
        op: PhysPlan::Project {
            input: Box::new(node),
            exprs,
        },
        est_cost,
    }
}

/// A table with its chosen access path.
struct Rel {
    plan: PlanNode,
}

/// Extract `(local column, constant expression)` equalities from local
/// conjuncts. Literals and parameter markers both qualify — a prepared
/// `id = $1` earns the same keyed access path as `id = 42`; the marker is
/// substituted with its bound value before execution.
fn extract_eq(conjuncts: &[PhysExpr]) -> HashMap<usize, PhysExpr> {
    let mut out = HashMap::new();
    for c in conjuncts {
        if let PhysExpr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = c
        {
            match (&**left, &**right) {
                (PhysExpr::Col(c), v @ (PhysExpr::Literal(_) | PhysExpr::Param(_)))
                | (v @ (PhysExpr::Literal(_) | PhysExpr::Param(_)), PhysExpr::Col(c)) => {
                    // Prefer a literal over a parameter when both equate the
                    // same column: the literal sharpens selectivity via the
                    // histogram.
                    let e = out.entry(*c).or_insert_with(|| v.clone());
                    if matches!(e, PhysExpr::Param(_)) && matches!(v, PhysExpr::Literal(_)) {
                        *e = v.clone();
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Extract `[lo, hi]` range bounds on `col` from local conjuncts.
///
/// Literal bounds tighten each other. A parameter bound (value unknown at
/// plan time) only fills an otherwise-empty slot: the probe may then read a
/// superset of the matching entries, which stays correct because the scan's
/// residual filter re-checks every conjunct.
fn extract_range(conjuncts: &[PhysExpr], col: usize) -> (Option<PhysExpr>, Option<PhysExpr>) {
    let mut lo_lit: Option<Value> = None;
    let mut hi_lit: Option<Value> = None;
    let mut lo_param: Option<PhysExpr> = None;
    let mut hi_param: Option<PhysExpr> = None;
    let mut tighten_lo = |v: &Value| {
        if lo_lit.as_ref().is_none_or(|cur| v > cur) {
            lo_lit = Some(v.clone());
        }
    };
    let mut tighten_hi = |v: &Value| {
        if hi_lit.as_ref().is_none_or(|cur| v < cur) {
            hi_lit = Some(v.clone());
        }
    };
    for c in conjuncts {
        match c {
            PhysExpr::Binary { op, left, right } if op.is_comparison() => {
                let (c2, op, v) = match (&**left, &**right) {
                    (PhysExpr::Col(c2), v @ (PhysExpr::Literal(_) | PhysExpr::Param(_))) => {
                        (*c2, *op, v)
                    }
                    (v @ (PhysExpr::Literal(_) | PhysExpr::Param(_)), PhysExpr::Col(c2)) => (
                        *c2,
                        match op {
                            BinOp::Lt => BinOp::Gt,
                            BinOp::Le => BinOp::Ge,
                            BinOp::Gt => BinOp::Lt,
                            BinOp::Ge => BinOp::Le,
                            o => *o,
                        },
                        v,
                    ),
                    _ => continue,
                };
                if c2 != col {
                    continue;
                }
                match (op, v) {
                    (BinOp::Gt | BinOp::Ge, PhysExpr::Literal(v)) => tighten_lo(v),
                    (BinOp::Lt | BinOp::Le, PhysExpr::Literal(v)) => tighten_hi(v),
                    (BinOp::Gt | BinOp::Ge, p @ PhysExpr::Param(_)) => {
                        lo_param.get_or_insert_with(|| p.clone());
                    }
                    (BinOp::Lt | BinOp::Le, p @ PhysExpr::Param(_)) => {
                        hi_param.get_or_insert_with(|| p.clone());
                    }
                    _ => {}
                }
            }
            PhysExpr::Between {
                expr,
                lo: l,
                hi: h,
                negated: false,
            } => {
                let PhysExpr::Col(c2) = &**expr else { continue };
                if *c2 != col {
                    continue;
                }
                match &**l {
                    PhysExpr::Literal(v) => tighten_lo(v),
                    p @ PhysExpr::Param(_) => {
                        lo_param.get_or_insert_with(|| p.clone());
                    }
                    _ => {}
                }
                match &**h {
                    PhysExpr::Literal(v) => tighten_hi(v),
                    p @ PhysExpr::Param(_) => {
                        hi_param.get_or_insert_with(|| p.clone());
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    (
        lo_lit.map(PhysExpr::Literal).or(lo_param),
        hi_lit.map(PhysExpr::Literal).or(hi_param),
    )
}

fn choose_access_path(
    catalog: &Catalog,
    s: &BoundSelect,
    i: usize,
    bt: &BoundTable,
    opts: OptimizerOptions,
) -> Result<Rel> {
    let base = table_offset(&s.tables, i);
    let width = bt.schema.len();
    if bt.is_virtual {
        // IMA virtual table: memory-only scan, unknown but small cardinality.
        let local: Vec<PhysExpr> = s
            .conjuncts
            .iter()
            .filter(|c| c.tables == 1 << i || (c.tables == 0 && i == 0))
            .map(|c| c.expr.remap(&|off| off - base))
            .collect();
        let name = catalog
            .virtual_table(bt.table)
            .map(|d| d.name.clone())
            .unwrap_or_else(|| bt.alias.clone());
        return Ok(Rel {
            plan: PlanNode {
                op: PhysPlan::VirtualScan {
                    table: bt.table,
                    table_name: name,
                    width,
                    filter: combine(&local),
                },
                est_rows: 1000.0,
                est_cost: Cost::cpu(1000.0),
            },
        });
    }
    let entry = catalog.table(bt.table)?;
    // Single-table conjuncts, remapped to local offsets. Constant conjuncts
    // (mask 0) are attached to the first table.
    let local: Vec<PhysExpr> = s
        .conjuncts
        .iter()
        .filter(|c| c.tables == 1 << i || (c.tables == 0 && i == 0))
        .map(|c| c.expr.remap(&|off| off - base))
        .collect();
    let card = table_cardinality(entry);
    let sel: f64 = local
        .iter()
        .map(|e| conjunct_selectivity(entry, e))
        .product();
    let out_rows = (card * sel).max(1.0);
    let filter = combine(&local);

    // Candidate 1: sequential scan.
    let mut best = PlanNode {
        op: PhysPlan::SeqScan {
            table: bt.table,
            table_name: entry.meta.name.clone(),
            width,
            filter: filter.clone(),
            needed: ColumnSet::all(),
        },
        est_rows: out_rows,
        est_cost: seq_scan_cost(entry),
    };
    let mut best_virtual = false;

    let eqs = extract_eq(&local);

    // Candidate 2: clustered primary-key probe (full key or any leading
    // prefix of it — the tree serves both).
    if entry.primary.is_some() && !entry.meta.primary_key.is_empty() {
        let mut key: Vec<PhysExpr> = Vec::new();
        for c in &entry.meta.primary_key {
            match eqs.get(c) {
                Some(v) => key.push(v.clone()),
                None => break,
            }
        }
        if !key.is_empty() {
            let full = key.len() == entry.meta.primary_key.len();
            let (cost, rows) = if full {
                (pk_lookup_cost(entry), 1.0)
            } else {
                let prefix_sel: f64 = entry.meta.primary_key[..key.len()]
                    .iter()
                    .zip(&key)
                    .map(|(c, v)| {
                        let pred = PhysExpr::Binary {
                            op: BinOp::Eq,
                            left: Box::new(PhysExpr::Col(*c)),
                            right: Box::new(v.clone()),
                        };
                        conjunct_selectivity(entry, &pred)
                    })
                    .product();
                let matching = (card * prefix_sel).max(1.0);
                (index_probe_cost(entry, matching), matching)
            };
            if cost.cheaper_than(&best.est_cost) {
                best = PlanNode {
                    op: PhysPlan::PkLookup {
                        table: bt.table,
                        table_name: entry.meta.name.clone(),
                        width,
                        key,
                        filter: filter.clone(),
                        needed: ColumnSet::all(),
                    },
                    est_rows: (rows * sel).max(1.0).min(rows),
                    est_cost: cost,
                };
                best_virtual = false;
            }
        }
    }

    // Candidate 3: secondary-index probes.
    for idx in catalog.indexes_of(bt.table) {
        if idx.meta.is_virtual && !opts.include_virtual {
            continue;
        }
        let candidate = index_candidate(entry, idx, &local, &eqs, card, filter.clone(), width, bt);
        if let Some(cand) = candidate {
            let better = cand.est_cost.cheaper_than(&best.est_cost)
                // Tie-break: prefer a real index over a virtual one.
                || (cand.est_cost == best.est_cost && best_virtual && !idx.meta.is_virtual);
            if better {
                best_virtual = idx.meta.is_virtual;
                best = cand;
            }
        }
    }

    Ok(Rel { plan: best })
}

#[allow(clippy::too_many_arguments)]
fn index_candidate(
    entry: &TableEntry,
    idx: &IndexEntry,
    local: &[PhysExpr],
    eqs: &HashMap<usize, PhysExpr>,
    card: f64,
    filter: Option<PhysExpr>,
    width: usize,
    bt: &BoundTable,
) -> Option<PlanNode> {
    // Longest equality prefix over the index columns.
    let mut prefix: Vec<PhysExpr> = Vec::new();
    for col in &idx.meta.columns {
        match eqs.get(col) {
            Some(v) => prefix.push(v.clone()),
            None => break,
        }
    }
    let (probe, matching) = if !prefix.is_empty() {
        // Selectivity of the consumed equalities.
        let sel: f64 = idx.meta.columns[..prefix.len()]
            .iter()
            .zip(&prefix)
            .map(|(c, v)| {
                let pred = PhysExpr::Binary {
                    op: BinOp::Eq,
                    left: Box::new(PhysExpr::Col(*c)),
                    right: Box::new(v.clone()),
                };
                conjunct_selectivity(entry, &pred)
            })
            .product();
        (ProbeSpec::Eq(prefix), (card * sel).max(1.0))
    } else {
        // Range on the first index column.
        let first = idx.meta.columns[0];
        let (lo, hi) = extract_range(local, first);
        if lo.is_none() && hi.is_none() {
            return None;
        }
        let pred = PhysExpr::Between {
            expr: Box::new(PhysExpr::Col(first)),
            lo: Box::new(lo.clone().unwrap_or(PhysExpr::Literal(Value::Null))),
            hi: Box::new(hi.clone().unwrap_or(PhysExpr::Literal(Value::Null))),
            negated: false,
        };
        let sel = if lo.is_some() && hi.is_some() {
            conjunct_selectivity(entry, &pred)
        } else {
            crate::cost::DEFAULT_RANGE_SEL
        };
        (ProbeSpec::Range { lo, hi }, (card * sel).max(1.0))
    };
    let total_sel: f64 = local
        .iter()
        .map(|e| conjunct_selectivity(entry, e))
        .product();
    Some(PlanNode {
        op: PhysPlan::IndexScan {
            table: bt.table,
            table_name: entry.meta.name.clone(),
            index: idx.meta.id,
            index_name: idx.meta.name.clone(),
            width,
            probe,
            filter,
            needed: ColumnSet::all(),
        },
        est_rows: (card * total_sel).max(1.0),
        est_cost: index_probe_cost(entry, matching),
    })
}

fn combine(conjuncts: &[PhysExpr]) -> Option<PhysExpr> {
    let mut it = conjuncts.iter().cloned();
    let first = it.next()?;
    Some(it.fold(first, |acc, e| PhysExpr::Binary {
        op: BinOp::And,
        left: Box::new(acc),
        right: Box::new(e),
    }))
}

struct DpState {
    plan: PlanNode,
    /// global offset → offset in this state's layout.
    map: HashMap<usize, usize>,
}

/// Conjuncts applied once `mask` is covered (multi-table only).
fn applied(conjuncts: &[Conjunct], mask: u64) -> Vec<usize> {
    conjuncts
        .iter()
        .enumerate()
        .filter(|(_, c)| c.tables.count_ones() >= 2 && c.tables & !mask == 0)
        .map(|(i, _)| i)
        .collect()
}

fn join_order(
    catalog: &Catalog,
    s: &BoundSelect,
    rels: Vec<Rel>,
    opts: OptimizerOptions,
) -> Result<(PlanNode, HashMap<usize, usize>)> {
    let n = s.tables.len();
    if n > 16 {
        return Err(Error::plan(format!("too many joined tables ({n} > 16)")));
    }
    let full: u64 = if n == 64 { u64::MAX } else { (1 << n) - 1 };
    let mut best: HashMap<u64, DpState> = HashMap::new();

    for (i, rel) in rels.iter().enumerate() {
        let base = table_offset(&s.tables, i);
        let mut map = HashMap::new();
        for j in 0..s.tables[i].schema.len() {
            map.insert(base + j, j);
        }
        best.insert(
            1 << i,
            DpState {
                plan: rel.plan.clone(),
                map,
            },
        );
    }

    // Enumerate masks by population count.
    for size in 1..n {
        let masks: Vec<u64> = best
            .keys()
            .copied()
            .filter(|m| m.count_ones() as usize == size)
            .collect();
        for mask in masks {
            for j in 0..n {
                if mask & (1 << j) != 0 {
                    continue;
                }
                let new_mask = mask | (1 << j);
                let cand = {
                    let state = best.get(&mask).expect("state exists");
                    extend_state(catalog, s, &rels, state, mask, j, opts)?
                };
                let replace = match best.get(&new_mask) {
                    Some(existing) => cand.plan.est_cost.cheaper_than(&existing.plan.est_cost),
                    None => true,
                };
                if replace {
                    best.insert(new_mask, cand);
                }
            }
        }
    }

    let final_state = best
        .remove(&full)
        .ok_or_else(|| Error::plan("join enumeration failed"))?;
    Ok((final_state.plan, final_state.map))
}

#[allow(clippy::too_many_arguments)]
fn extend_state(
    catalog: &Catalog,
    s: &BoundSelect,
    rels: &[Rel],
    state: &DpState,
    mask: u64,
    j: usize,
    opts: OptimizerOptions,
) -> Result<DpState> {
    let new_mask = mask | (1 << j);
    let left_width = state.plan.width();
    let right = &rels[j].plan;
    let base_j = table_offset(&s.tables, j);

    // New layout map: left's entries + table j appended.
    let mut map = state.map.clone();
    for k in 0..s.tables[j].schema.len() {
        map.insert(base_j + k, left_width + k);
    }

    // Conjuncts that become applicable at this join.
    let before = applied(&s.conjuncts, mask);
    let now = applied(&s.conjuncts, new_mask);
    let fresh: Vec<&Conjunct> = now
        .iter()
        .filter(|i| !before.contains(i))
        .map(|&i| &s.conjuncts[i])
        .collect();

    // Partition into hash-join equi keys and residual predicates.
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual = Vec::new();
    let mut join_sel = 1.0f64;
    for c in &fresh {
        let mut consumed = false;
        if let PhysExpr::Binary {
            op: BinOp::Eq,
            left: cl,
            right: cr,
        } = &c.expr
        {
            if let (PhysExpr::Col(a), PhysExpr::Col(b)) = (&**cl, &**cr) {
                let (a, b) = (*a, *b);
                let a_side = side_of(s, a);
                let b_side = side_of(s, b);
                let (l_off, r_off) = if a_side == j && b_side != j {
                    (b, a)
                } else if b_side == j && a_side != j {
                    (a, b)
                } else {
                    (usize::MAX, usize::MAX)
                };
                if l_off != usize::MAX && state.map.contains_key(&l_off) {
                    left_keys.push(state.map[&l_off]);
                    right_keys.push(r_off - base_j);
                    // Join selectivity from NDVs.
                    let (lt, lc) = table_col_of(s, l_off);
                    let (rt, rc) = table_col_of(s, r_off);
                    let l_rows = state.plan.est_rows;
                    let r_rows = right.est_rows;
                    let l_ndv = catalog
                        .table(s.tables[lt].table)
                        .map(|e| column_ndv(e, lc))
                        .unwrap_or(100.0);
                    let r_ndv = catalog
                        .table(s.tables[rt].table)
                        .map(|e| column_ndv(e, rc))
                        .unwrap_or(100.0);
                    let out = equi_join_cardinality(l_rows, r_rows, l_ndv, r_ndv);
                    join_sel *= out / (l_rows * r_rows).max(1.0);
                    consumed = true;
                }
            }
        }
        if !consumed {
            residual.push(c.expr.remap(&|off| map[&off]));
            join_sel *= 0.5;
        }
    }

    let out_rows = (state.plan.est_rows * right.est_rows * join_sel).max(1.0);
    // Candidate: index nested-loop ("probe") join — valid when the first
    // equi-key column has a keyed structure on table j.
    let probe_candidate = if left_keys.is_empty() || s.tables[j].is_virtual {
        None
    } else {
        build_probe_join(
            catalog,
            s,
            state,
            j,
            &left_keys,
            &right_keys,
            out_rows,
            opts,
        )?
    };
    let plan = if !left_keys.is_empty() {
        let est_cost = state.plan.est_cost
            + right.est_cost
            + Cost::cpu(state.plan.est_rows + right.est_rows + out_rows);
        PlanNode {
            op: PhysPlan::HashJoin {
                left: Box::new(state.plan.clone()),
                right: Box::new(right.clone()),
                left_keys,
                right_keys,
                filter: combine(&residual),
            },
            est_rows: out_rows,
            est_cost,
        }
    } else {
        // Nested loop: the inner is re-evaluated per outer row.
        let rescans = state.plan.est_rows.max(1.0);
        let inner = Cost::new(right.est_cost.cpu * rescans, right.est_cost.io * rescans);
        let est_cost = state.plan.est_cost + inner + Cost::cpu(out_rows);
        PlanNode {
            op: PhysPlan::NestedLoopJoin {
                left: Box::new(state.plan.clone()),
                right: Box::new(right.clone()),
                on: combine(&residual),
            },
            est_rows: out_rows,
            est_cost,
        }
    };
    let plan = match probe_candidate {
        Some(p) if p.est_cost.cheaper_than(&plan.est_cost) => p,
        _ => plan,
    };
    Ok(DpState { plan, map })
}

/// Build the probe-join candidate for joining `state` with table `j` on the
/// first equi-key pair. Returns `None` when no keyed structure serves the
/// join column.
#[allow(clippy::too_many_arguments)]
fn build_probe_join(
    catalog: &Catalog,
    s: &BoundSelect,
    state: &DpState,
    j: usize,
    left_keys: &[usize],
    right_keys: &[usize],
    out_rows: f64,
    opts: OptimizerOptions,
) -> Result<Option<PlanNode>> {
    use crate::physical::ProbeSource;
    let entry = catalog.table(s.tables[j].table)?;
    let join_col = right_keys[0];
    // Locate a probe source: clustered tree or an index leading with the
    // join column.
    let mut source = None;
    if entry.primary.is_some() && entry.meta.primary_key.first() == Some(&join_col) {
        source = Some(ProbeSource::PrimaryTree);
    } else {
        for idx in catalog.indexes_of(s.tables[j].table) {
            if idx.meta.is_virtual && !opts.include_virtual {
                continue;
            }
            if idx.meta.columns.first() == Some(&join_col) {
                source = Some(ProbeSource::Index(idx.meta.id, idx.meta.name.clone()));
                break;
            }
        }
    }
    let Some(source) = source else {
        return Ok(None);
    };

    let left_width = state.plan.width();
    let base_j = table_offset(&s.tables, j);
    let width = s.tables[j].schema.len();
    // Residual filter: table j's own conjuncts + remaining equi pairs, over
    // the concatenated layout.
    let mut filter_parts: Vec<PhysExpr> = s
        .conjuncts
        .iter()
        .filter(|c| c.tables == 1 << j)
        .map(|c| c.expr.remap(&|off| left_width + (off - base_j)))
        .collect();
    for (l, r) in left_keys.iter().zip(right_keys.iter()).skip(1) {
        filter_parts.push(PhysExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(PhysExpr::Col(*l)),
            right: Box::new(PhysExpr::Col(left_width + *r)),
        });
    }

    // Cost: per outer row, one tree descent plus one heap fetch per match.
    let card_j = table_cardinality(entry);
    let matches_per_probe = (card_j / column_ndv(entry, join_col)).max(1.0);
    let height = (card_j.max(2.0).log(crate::cost::INDEX_ENTRIES_PER_LEAF))
        .ceil()
        .max(1.0);
    let probes = state.plan.est_rows.max(1.0);
    // Per-probe CPU: a tree descent walks ~height node pages linearly, which
    // costs real work even when allocation-free (≈ a handful of tuple units
    // per level), plus one unit per fetched match.
    let est_cost = state.plan.est_cost
        + Cost::new(
            probes * (8.0 * height + matches_per_probe),
            probes * (height * 0.2 + crate::cost::RANDOM_IO_WEIGHT * matches_per_probe),
        );
    Ok(Some(PlanNode {
        op: PhysPlan::ProbeJoin {
            left: Box::new(state.plan.clone()),
            table: s.tables[j].table,
            table_name: entry.meta.name.clone(),
            width,
            // `left_keys` already holds state-local offsets.
            left_key: left_keys[0],
            source,
            filter: combine(&filter_parts),
            needed: ColumnSet::all(),
        },
        est_rows: out_rows,
        est_cost,
    }))
}

/// Which FROM-table owns global offset `off`.
fn side_of(s: &BoundSelect, off: usize) -> usize {
    let mut acc = 0;
    for (i, t) in s.tables.iter().enumerate() {
        acc += t.schema.len();
        if off < acc {
            return i;
        }
    }
    s.tables.len() - 1
}

/// `(table index, local column)` of global offset `off`.
fn table_col_of(s: &BoundSelect, off: usize) -> (usize, usize) {
    let t = side_of(s, off);
    (t, off - table_offset(&s.tables, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use ingot_common::{Column, DataType, EngineConfig, Row, Schema, SimClock};
    use ingot_sql::parse_statement;
    use ingot_storage::StorageEngine;
    use std::sync::Arc;

    fn setup() -> Catalog {
        let cfg = EngineConfig::default();
        let storage = StorageEngine::in_memory(&cfg, SimClock::new());
        let mut c = Catalog::new(Arc::clone(storage.pool()), 4);
        let protein = c
            .create_table(
                "protein",
                Schema::new(vec![
                    Column::not_null("nref_id", DataType::Int),
                    Column::new("name", DataType::Str),
                    Column::new("len", DataType::Int),
                ]),
                vec![0],
            )
            .unwrap();
        let organism = c
            .create_table(
                "organism",
                Schema::new(vec![
                    Column::not_null("nref_id", DataType::Int),
                    Column::new("taxon_id", DataType::Int),
                ]),
                vec![0],
            )
            .unwrap();
        for i in 0..8000i64 {
            c.insert_row(
                protein,
                &Row::new(vec![
                    Value::Int(i),
                    Value::Str(format!("p{i}")),
                    Value::Int(i % 100),
                ]),
            )
            .unwrap();
            c.insert_row(organism, &Row::new(vec![Value::Int(i), Value::Int(i % 20)]))
                .unwrap();
        }
        c.collect_statistics(protein, &[], 0).unwrap();
        c.collect_statistics(organism, &[], 0).unwrap();
        c
    }

    fn plan(c: &Catalog, sql: &str, opts: OptimizerOptions) -> PlannedQuery {
        let (bound, _) = Binder::new(c).bind(&parse_statement(sql).unwrap()).unwrap();
        let BoundStatement::Select(s) = bound else {
            panic!()
        };
        optimize_select(c, &s, opts).unwrap()
    }

    #[test]
    fn selective_eq_uses_index_when_available() {
        let mut c = setup();
        let q_before = plan(
            &c,
            "select name from protein where nref_id = 42",
            OptimizerOptions::default(),
        );
        assert!(q_before.used_indexes.is_empty());
        let t = c.resolve_table("protein").unwrap();
        c.create_index("protein_id_idx", t, vec![0], false).unwrap();
        let q_after = plan(
            &c,
            "select name from protein where nref_id = 42",
            OptimizerOptions::default(),
        );
        assert_eq!(q_after.used_indexes.len(), 1);
        assert!(q_after.est.cheaper_than(&q_before.est));
    }

    #[test]
    fn unselective_predicate_keeps_seq_scan() {
        let mut c = setup();
        let t = c.resolve_table("protein").unwrap();
        c.create_index("protein_len_idx", t, vec![2], false)
            .unwrap();
        // len >= 0 matches everything: scan should win.
        let q = plan(
            &c,
            "select name from protein where len >= 0",
            OptimizerOptions::default(),
        );
        assert!(q.used_indexes.is_empty(), "plan: {}", q.root);
    }

    #[test]
    fn join_produces_hash_join() {
        let c = setup();
        let q = plan(
            &c,
            "select p.name, o.taxon_id from protein p join organism o on p.nref_id = o.nref_id",
            OptimizerOptions::default(),
        );
        let s = q.root.to_string();
        assert!(s.contains("HashJoin"), "plan: {s}");
        // FK join: output ≈ 8000 rows.
        assert!(q.root.est_rows > 2000.0 && q.root.est_rows < 30_000.0);
    }

    #[test]
    fn virtual_index_only_in_whatif_mode() {
        let mut c = setup();
        let t = c.resolve_table("protein").unwrap();
        c.add_virtual_index(t, vec![0]).unwrap();
        let normal = plan(
            &c,
            "select name from protein where nref_id = 42",
            OptimizerOptions::default(),
        );
        assert!(!normal.uses_virtual);
        assert!(normal.used_indexes.is_empty());
        let whatif = plan(
            &c,
            "select name from protein where nref_id = 42",
            OptimizerOptions {
                include_virtual: true,
            },
        );
        assert!(whatif.uses_virtual);
        assert_eq!(whatif.used_indexes.len(), 1);
        assert!(whatif.est.cheaper_than(&normal.est));
    }

    #[test]
    fn pk_lookup_on_btree_table() {
        let mut c = setup();
        let t = c.resolve_table("protein").unwrap();
        c.modify_storage(t, ingot_catalog::StorageStructure::BTree)
            .unwrap();
        let q = plan(
            &c,
            "select name from protein where nref_id = 42",
            OptimizerOptions::default(),
        );
        assert!(q.root.to_string().contains("PkLookup"), "plan: {}", q.root);
    }

    #[test]
    fn range_probe_on_index() {
        let mut c = setup();
        let t = c.resolve_table("protein").unwrap();
        c.create_index("protein_id_idx", t, vec![0], false).unwrap();
        let q = plan(
            &c,
            "select name from protein where nref_id between 10 and 12",
            OptimizerOptions::default(),
        );
        assert!(q.root.to_string().contains("IndexScan"), "plan: {}", q.root);
        // A wide range on a low-cardinality column must stay a scan: the
        // random heap fetches would dwarf the sequential page reads.
        let mut c2 = setup();
        let t2 = c2.resolve_table("protein").unwrap();
        c2.create_index("protein_len_idx", t2, vec![2], false)
            .unwrap();
        let q2 = plan(
            &c2,
            "select name from protein where len between 3 and 40",
            OptimizerOptions::default(),
        );
        assert!(q2.used_indexes.is_empty(), "plan: {}", q2.root);
    }

    #[test]
    fn three_way_join_orders_all_tables() {
        let mut c = setup();
        c.create_table(
            "taxonomy",
            Schema::new(vec![
                Column::not_null("taxon_id", DataType::Int),
                Column::new("lineage", DataType::Str),
            ]),
            vec![0],
        )
        .unwrap();
        let q = plan(
            &c,
            "select p.name from protein p \
             join organism o on p.nref_id = o.nref_id \
             join taxonomy t on o.taxon_id = t.taxon_id",
            OptimizerOptions::default(),
        );
        let s = q.root.to_string();
        assert!(s.contains("protein") && s.contains("organism") && s.contains("taxonomy"));
    }

    #[test]
    fn parameterised_point_query_keeps_keyed_access_path() {
        let mut c = setup();
        let t = c.resolve_table("protein").unwrap();
        c.create_index("protein_id_idx", t, vec![0], false).unwrap();
        // `nref_id = $1` must probe the index exactly like `nref_id = 42`.
        let q = plan(
            &c,
            "select name from protein where nref_id = $1",
            OptimizerOptions::default(),
        );
        assert_eq!(q.used_indexes.len(), 1, "plan: {}", q.root);
        // And the same through a clustered primary tree.
        let mut c2 = setup();
        let t2 = c2.resolve_table("protein").unwrap();
        c2.modify_storage(t2, ingot_catalog::StorageStructure::BTree)
            .unwrap();
        let q2 = plan(
            &c2,
            "select name from protein where nref_id = $1",
            OptimizerOptions::default(),
        );
        assert!(
            q2.root.to_string().contains("PkLookup"),
            "plan: {}",
            q2.root
        );
        // Substitution yields an executable tree with the same shape.
        let bound = q2.root.substitute_params(&[Value::Int(42)]).unwrap();
        assert!(bound.to_string().contains("PkLookup"));
    }

    #[test]
    fn extract_range_accepts_params_into_open_bounds() {
        let col_gt = |rhs: PhysExpr| PhysExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(PhysExpr::Col(0)),
            right: Box::new(rhs),
        };
        let col_lt = |rhs: PhysExpr| PhysExpr::Binary {
            op: BinOp::Lt,
            left: Box::new(PhysExpr::Col(0)),
            right: Box::new(rhs),
        };
        // Pure param bounds fill both slots.
        let (lo, hi) = extract_range(&[col_gt(PhysExpr::Param(0)), col_lt(PhysExpr::Param(1))], 0);
        assert_eq!(lo, Some(PhysExpr::Param(0)));
        assert_eq!(hi, Some(PhysExpr::Param(1)));
        // A literal bound wins the slot; the param conjunct stays in the
        // residual filter (the probe may over-read, never under-read).
        let (lo, hi) = extract_range(
            &[
                col_gt(PhysExpr::Param(0)),
                col_gt(PhysExpr::Literal(Value::Int(5))),
            ],
            0,
        );
        assert_eq!(lo, Some(PhysExpr::Literal(Value::Int(5))));
        assert_eq!(hi, None);
        // BETWEEN with param bounds contributes both slots.
        let between = PhysExpr::Between {
            expr: Box::new(PhysExpr::Col(0)),
            lo: Box::new(PhysExpr::Param(2)),
            hi: Box::new(PhysExpr::Param(3)),
            negated: false,
        };
        let (lo, hi) = extract_range(&[between], 0);
        assert_eq!(lo, Some(PhysExpr::Param(2)));
        assert_eq!(hi, Some(PhysExpr::Param(3)));
    }

    #[test]
    fn base_table_accesses_are_told_which_columns_are_read() {
        let c = setup();
        let shape = |sql: &str| plan(&c, sql, OptimizerOptions::default()).root.to_string();
        // Filter column ∪ projected column; the root asks for all it emits.
        let s = shape("select name from protein where len > 3");
        assert!(
            s.contains("SeqScan on protein [filtered] [2/3 cols]"),
            "{s}"
        );
        let s = shape("select * from protein");
        assert!(!s.contains("cols]"), "{s}");
        // An aggregate reads its keys and inputs only; COUNT(*) reads none.
        let s = shape("select count(*) from protein");
        assert!(s.contains("SeqScan on protein [0/3 cols]"), "{s}");
        // Join keys count as read on both sides.
        let s = shape(
            "select p.name from protein p join organism o on p.nref_id = o.nref_id \
             where o.taxon_id = 3",
        );
        assert!(s.contains("on protein [2/3 cols]"), "{s}");
        assert!(!s.contains("organism [filtered] ["), "{s}");
        // DISTINCT and ORDER BY compare the rows the projection built, not
        // the scan's: pruning below the projection stays.
        let s = shape("select distinct len from protein order by len");
        assert!(s.contains("SeqScan on protein [1/3 cols]"), "{s}");
        // Pruning touches no estimate.
        let q = plan(
            &c,
            "select name from protein where len > 3",
            OptimizerOptions::default(),
        );
        assert_eq!(q.est, q.root.est_cost);
    }

    #[test]
    fn aggregate_plan_shape() {
        let c = setup();
        let q = plan(
            &c,
            "select taxon_id, count(*) from organism group by taxon_id order by 2 desc limit 3",
            OptimizerOptions::default(),
        );
        let s = q.root.to_string();
        assert!(s.contains("Aggregate") && s.contains("Sort") && s.contains("Limit"));
        assert_eq!(q.output_names, vec!["taxon_id", "count"]);
    }
}
