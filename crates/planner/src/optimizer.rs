//! Plan selection: access paths and join ordering.
//!
//! Join ordering is exhaustive left-deep dynamic programming over table
//! subsets (the NREF workloads join at most a handful of tables). Access
//! paths compete on the cost model of [`crate::cost`]: a full scan, and a
//! probe of each keyed structure of the table — its clustered primary tree
//! (BTree storage), then every index — by an equality prefix of its key
//! or a range on its first column. Every index of the catalog competes:
//! planned against a what-if copy
//! ([`ingot_catalog::WhatIf`]), hypothetical indexes do too — the resulting
//! plan then reports `uses_virtual` and cannot be executed, but its
//! estimated cost is exactly what the paper's analyzer uses to value an
//! index recommendation. A published catalog holds no virtual index. An
//! UPDATE or DELETE is planned as the access path to its one table that a
//! SELECT with the same WHERE gets.

use std::sync::Arc;

use ingot_catalog::{Catalog, IndexEntry, TableEntry};
use ingot_common::{ColumnSet, Cost, Error, IndexId, Result, TableId, Value};
use ingot_sql::BinOp;

use crate::binder::{table_offset, BoundSelect, BoundStatement, BoundTable, Conjunct, InsertRows};
use crate::cost::{
    between_selectivity, column_ndv, comparison_selectivity, conjunct_selectivity,
    equi_join_cardinality, flip, index_probe_cost, pk_lookup_cost, seq_scan_cost,
    table_cardinality,
};
use crate::expr::PhysExpr;
use crate::physical::{PhysPlan, PlanNode, ProbeSource, ProbeSpec};

/// Optimizer switches: none. What-if costing needs no switch, since it
/// plans against a what-if copy. The type and [`optimize`]'s parameter
/// remain only because the benchmark crate links
/// `optimize(&catalog, &bound, OptimizerOptions::default())`; they go with
/// the next change to that crate (ROADMAP item 6(f)).
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizerOptions {}

/// A fully planned query.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The plan tree.
    pub root: PlanNode,
    /// Names of the visible output columns.
    pub output_names: Vec<String>,
    /// Indexes the plan probes (the "used indexes" sensor value).
    pub used_indexes: Vec<IndexId>,
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
        /// How the target rows are found: the access path a `SELECT` with
        /// the same WHERE takes, reading every column, its filter holding
        /// every conjunct. Its cost is the statement's estimate.
        access: PlanNode,
    },
    /// DELETE.
    Delete {
        /// Target table.
        table: TableId,
        /// How the target rows are found, as for `Update`.
        access: PlanNode,
    },
}

impl PlannedStatement {
    /// The estimated cost of the statement.
    pub fn estimated_cost(&self) -> Cost {
        match self {
            PlannedStatement::Query(q) => q.est,
            PlannedStatement::Insert { est, .. } => *est,
            PlannedStatement::Update { access, .. } | PlannedStatement::Delete { access, .. } => {
                access.est_cost
            }
        }
    }

    /// Indexes the chosen plan probes (the "used indexes" sensor value).
    pub fn used_indexes(&self) -> &[IndexId] {
        match self {
            PlannedStatement::Query(q) => &q.used_indexes,
            PlannedStatement::Update { access, .. } | PlannedStatement::Delete { access, .. } => {
                match &access.op {
                    PhysPlan::IndexScan { source, .. } => {
                        source.index().map_or(&[], std::slice::from_ref)
                    }
                    _ => &[],
                }
            }
            PlannedStatement::Insert { .. } => &[],
        }
    }

    /// True when the plan probes a virtual index, which only a what-if copy
    /// of `catalog` holds: such a plan is costed, never executed.
    pub fn uses_virtual(&self, catalog: &Catalog) -> bool {
        let is_virtual = |id: &IndexId| catalog.index(*id).is_ok_and(|e| e.meta.is_virtual);
        self.used_indexes().iter().any(is_virtual)
    }

    /// The plan as `EXPLAIN` and what-if estimates print it: a query's
    /// operator tree; an UPDATE or DELETE as one header line over the
    /// access path that finds its rows.
    pub fn explain(&self, catalog: &Catalog) -> Result<String> {
        let (header, access) = match self {
            PlannedStatement::Query(q) => return Ok(q.root.to_string()),
            PlannedStatement::Insert { table, rows, est } => {
                let name = &catalog.table(*table)?.meta.name;
                return Ok(format!(
                    "Insert into {name}  ({} row(s), est {est})\n",
                    rows.len()
                ));
            }
            PlannedStatement::Update {
                table,
                sets,
                access,
            } => {
                let name = &catalog.table(*table)?.meta.name;
                (format!("Update {name} [{} column(s)]", sets.len()), access)
            }
            PlannedStatement::Delete { table, access } => {
                let name = &catalog.table(*table)?.meta.name;
                (format!("Delete from {name}"), access)
            }
        };
        Ok(format!("{header}\n  {access}"))
    }

    /// Clone the statement with every parameter marker replaced by its bound
    /// value. This is the execute-time half of a prepared statement: the
    /// cached template stays untouched, the returned copy is executable.
    pub fn substitute_params(&self, params: &[Value]) -> Result<PlannedStatement> {
        Ok(match self {
            PlannedStatement::Query(q) => PlannedStatement::Query(PlannedQuery {
                root: q.root.substitute_params(params)?,
                output_names: q.output_names.clone(),
                used_indexes: q.used_indexes.clone(),
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
                access,
            } => PlannedStatement::Update {
                table: *table,
                sets: sets
                    .iter()
                    .map(|(c, e)| Ok((*c, e.substitute(params)?)))
                    .collect::<Result<_>>()?,
                access: access.substitute_params(params)?,
            },
            PlannedStatement::Delete { table, access } => PlannedStatement::Delete {
                table: *table,
                access: access.substitute_params(params)?,
            },
        })
    }
}

/// Plan a bound statement.
pub fn optimize(
    catalog: &Catalog,
    stmt: &BoundStatement,
    _: OptimizerOptions,
) -> Result<PlannedStatement> {
    match stmt {
        BoundStatement::Select(s) => Ok(PlannedStatement::Query(optimize_select(catalog, s)?)),
        BoundStatement::Insert { table, rows } => Ok(PlannedStatement::Insert {
            table: *table,
            rows: rows.clone(),
            est: Cost::new(rows.len() as f64, rows.len() as f64 / 40.0 + 1.0),
        }),
        BoundStatement::Update {
            target,
            sets,
            conjuncts,
        } => Ok(PlannedStatement::Update {
            table: target.table,
            sets: sets.clone(),
            access: choose_access_path(catalog, target, conjunct_exprs(conjuncts))?,
        }),
        BoundStatement::Delete { target, conjuncts } => Ok(PlannedStatement::Delete {
            table: target.table,
            access: choose_access_path(catalog, target, conjunct_exprs(conjuncts))?,
        }),
    }
}

/// A one-table statement's conjuncts, already over the table's own layout.
fn conjunct_exprs(conjuncts: &[Conjunct]) -> Vec<PhysExpr> {
    conjuncts.iter().map(|c| c.expr.clone()).collect()
}

/// Plan a bound SELECT.
pub fn optimize_select(catalog: &Catalog, s: &BoundSelect) -> Result<PlannedQuery> {
    let mut node;
    // Global (FROM-order) offset → offset in the join tree's output.
    let mut layout: Vec<usize> = Vec::new();

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
            let local = local_conjuncts(s, i, table_offset(&s.tables, i));
            rels.push(choose_access_path(catalog, bt, local)?);
        }
        // 2. Left-deep DP join ordering.
        (node, layout) = join_order(catalog, s, rels)?;
    }

    let remap = |e: &PhysExpr| e.remap(&|off| layout.get(off).copied().unwrap_or(off));

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
        PhysPlan::SeqScan { filter, needed, .. } | PhysPlan::IndexScan { filter, needed, .. } => {
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

/// Extract `(local column, constant expression)` equalities from local
/// conjuncts. Literals and parameter markers both qualify — a prepared
/// `id = $1` earns the same keyed access path as `id = 42`; the marker is
/// substituted with its bound value before execution. A handful of entries
/// at most, so a vector searched by column.
fn extract_eq(conjuncts: &[PhysExpr]) -> Vec<(usize, &PhysExpr)> {
    let mut out: Vec<(usize, &PhysExpr)> = Vec::new();
    for c in conjuncts {
        let PhysExpr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = c
        else {
            continue;
        };
        let (col, v) = match (&**left, &**right) {
            (PhysExpr::Col(c), v @ (PhysExpr::Literal(_) | PhysExpr::Param(_)))
            | (v @ (PhysExpr::Literal(_) | PhysExpr::Param(_)), PhysExpr::Col(c)) => (*c, v),
            _ => continue,
        };
        match out.iter_mut().find(|(c, _)| *c == col) {
            None => out.push((col, v)),
            // Prefer a literal over a parameter when both equate the same
            // column: the literal sharpens selectivity via the histogram.
            Some((_, e)) => {
                if matches!(e, PhysExpr::Param(_)) && matches!(v, PhysExpr::Literal(_)) {
                    *e = v;
                }
            }
        }
    }
    out
}

/// The constants equated with the longest prefix of `columns` that has one
/// each, in column order.
fn eq_prefix<'e>(
    eqs: &'e [(usize, &'e PhysExpr)],
    columns: &'e [usize],
) -> impl Iterator<Item = (usize, &'e PhysExpr)> {
    columns.iter().map_while(move |col| {
        let (_, v) = eqs.iter().find(|(c, _)| c == col)?;
        Some((*col, *v))
    })
}

/// Selectivity of equating each `(column, constant)` pair.
fn eq_selectivity<'e>(
    entry: &TableEntry,
    pairs: impl Iterator<Item = (usize, &'e PhysExpr)>,
) -> f64 {
    pairs
        .map(|(c, v)| comparison_selectivity(entry, c, BinOp::Eq, v))
        .product()
}

/// Extract `[lo, hi]` range bounds on `col` from local conjuncts.
///
/// Literal bounds tighten each other. A parameter bound (value unknown at
/// plan time) only fills an otherwise-empty slot: the probe may then read a
/// superset of the matching entries, which stays correct because the scan's
/// residual filter re-checks every conjunct.
fn extract_range(conjuncts: &[PhysExpr], col: usize) -> (Option<&PhysExpr>, Option<&PhysExpr>) {
    /// `[lo, hi]`, literal and parameter bounds apart.
    #[derive(Default)]
    struct Bounds<'a> {
        lit: [Option<&'a PhysExpr>; 2],
        param: [Option<&'a PhysExpr>; 2],
    }
    impl<'a> Bounds<'a> {
        fn offer(&mut self, hi: bool, e: &'a PhysExpr) {
            let slot = usize::from(hi);
            match e {
                PhysExpr::Literal(v) => {
                    let cur = self.lit[slot].and_then(PhysExpr::as_literal);
                    if cur.is_none_or(|cur| if hi { v < cur } else { v > cur }) {
                        self.lit[slot] = Some(e);
                    }
                }
                PhysExpr::Param(_) => {
                    self.param[slot].get_or_insert(e);
                }
                _ => {}
            }
        }
    }
    let mut bounds = Bounds::default();
    for c in conjuncts {
        match c {
            PhysExpr::Binary { op, left, right } if op.is_comparison() => {
                let (c2, op, v) = match (&**left, &**right) {
                    (PhysExpr::Col(c2), v) => (*c2, *op, v),
                    (v, PhysExpr::Col(c2)) => (*c2, flip(*op), v),
                    _ => continue,
                };
                if c2 != col {
                    continue;
                }
                match op {
                    BinOp::Gt | BinOp::Ge => bounds.offer(false, v),
                    BinOp::Lt | BinOp::Le => bounds.offer(true, v),
                    _ => {}
                }
            }
            PhysExpr::Between {
                expr,
                lo,
                hi,
                negated: false,
            } if **expr == PhysExpr::Col(col) => {
                bounds.offer(false, lo);
                bounds.offer(true, hi);
            }
            _ => {}
        }
    }
    let Bounds { lit, param } = bounds;
    (lit[0].or(param[0]), lit[1].or(param[1]))
}

/// Table `i`'s own conjuncts, remapped to its local offsets. Constant
/// conjuncts (mask 0) are attached to the first table.
fn local_conjuncts(s: &BoundSelect, i: usize, base: usize) -> Vec<PhysExpr> {
    s.conjuncts
        .iter()
        .filter(|c| c.tables == 1 << i || (c.tables == 0 && i == 0))
        .map(|c| c.expr.remap(&|off| off - base))
        .collect()
}

/// A B-Tree a probe can descend on one table: its clustered primary tree or
/// one of its secondary indexes.
#[derive(Clone, Copy)]
enum Keyed<'a> {
    /// The clustered primary tree, keyed by these columns.
    Primary(&'a [usize]),
    /// A secondary index.
    Index(&'a IndexEntry),
}

impl<'a> Keyed<'a> {
    /// The table's keyed structures in the order they compete: the primary
    /// tree, then the indexes by id. The indexes are listed only when asked
    /// for.
    fn of(catalog: &'a Catalog, entry: &'a TableEntry) -> impl Iterator<Item = Keyed<'a>> {
        let primary = entry.primary.as_ref();
        let primary = primary.map(|_| Keyed::Primary(&entry.meta.primary_key));
        let indexes = std::iter::once_with(|| catalog.indexes_of(entry.meta.id));
        primary
            .into_iter()
            .chain(indexes.flatten().map(Keyed::Index))
    }

    fn columns(self) -> &'a [usize] {
        match self {
            Keyed::Primary(columns) => columns,
            Keyed::Index(idx) => &idx.meta.columns,
        }
    }

    fn is_virtual(self) -> bool {
        matches!(self, Keyed::Index(idx) if idx.meta.is_virtual)
    }

    fn source(self) -> ProbeSource {
        match self {
            Keyed::Primary(_) => ProbeSource::PrimaryTree,
            Keyed::Index(idx) => ProbeSource::Index(idx.meta.id, Arc::clone(&idx.meta.name)),
        }
    }
}

/// How a probe of a keyed structure bounds its key, before its keys are
/// copied out of the conjuncts.
#[derive(Clone, Copy)]
enum Probe<'a> {
    /// Equality on this many leading key columns.
    Eq(usize),
    /// `[lo, hi]` on the first key column.
    Range(Option<&'a PhysExpr>, Option<&'a PhysExpr>),
}

/// The winner's probe keys, copied out of the conjuncts they were found in.
fn probe_keys(eqs: &[(usize, &PhysExpr)], prefix: &[usize]) -> Vec<PhysExpr> {
    eq_prefix(eqs, prefix).map(|(_, v)| v.clone()).collect()
}

/// The cheapest way to read `bt` under its own conjuncts `local` (over the
/// table's layout), built as a plan node whose filter holds all of them.
///
/// A full scan competes with a probe of each keyed structure
/// ([`Keyed::of`]): the longest equality prefix over its key columns, else
/// a range on the first of them. A full primary key is priced as the point
/// lookup it is (one row); every other probe as an index probe over the
/// rows its key bounds.
fn choose_access_path(
    catalog: &Catalog,
    bt: &BoundTable,
    local: Vec<PhysExpr>,
) -> Result<PlanNode> {
    let width = bt.schema.len();
    if bt.is_virtual {
        // IMA virtual table: memory-only scan, unknown but small cardinality.
        let table_name = match catalog.virtual_table(bt.table) {
            Some(d) => Arc::clone(&d.name),
            None => bt.alias.as_str().into(),
        };
        return Ok(PlanNode {
            op: PhysPlan::VirtualScan {
                table: bt.table,
                table_name,
                width,
                filter: combine(local),
            },
            est_rows: 1000.0,
            est_cost: Cost::cpu(1000.0),
        });
    }
    let entry = catalog.table(bt.table)?;
    let card = table_cardinality(entry);
    let sel: f64 = local
        .iter()
        .map(|e| conjunct_selectivity(entry, e))
        .product();
    let out_rows = (card * sel).max(1.0);
    let eqs = extract_eq(&local);

    // The winner so far: its cost, rows and probe (`None`: the full scan).
    let mut best: (Cost, f64, Option<(Keyed, Probe)>) = (seq_scan_cost(entry), out_rows, None);
    for keyed in Keyed::of(catalog, entry) {
        let columns = keyed.columns();
        let prefix_len = eq_prefix(&eqs, columns).count();
        let (probe, probe_sel) = if prefix_len > 0 {
            let prefix = eq_prefix(&eqs, columns);
            (Probe::Eq(prefix_len), eq_selectivity(entry, prefix))
        } else {
            let first = columns[0];
            let (lo, hi) = extract_range(&local, first);
            let probe_sel = match (lo, hi) {
                (None, None) => continue,
                (Some(lo), Some(hi)) => between_selectivity(entry, first, lo, hi),
                _ => crate::cost::DEFAULT_RANGE_SEL,
            };
            (Probe::Range(lo, hi), probe_sel)
        };
        let matching = (card * probe_sel).max(1.0);
        let (cost, rows) = match (keyed, probe) {
            (Keyed::Primary(_), Probe::Eq(n)) if n == columns.len() => (pk_lookup_cost(entry), 1.0),
            // A clustered key prefix expects the rows it matches, narrowed
            // by the conjuncts.
            (Keyed::Primary(_), Probe::Eq(_)) => (
                index_probe_cost(entry, matching),
                (matching * sel).max(1.0).min(matching),
            ),
            _ => (index_probe_cost(entry, matching), out_rows),
        };
        let best_virtual = best.2.is_some_and(|(k, _)| k.is_virtual());
        let better = cost.cheaper_than(&best.0)
            // Tie-break: prefer a real index over a virtual one.
            || (cost == best.0 && best_virtual && !keyed.is_virtual());
        if better {
            best = (cost, rows, Some((keyed, probe)));
        }
    }

    // Build the winner. Its probe keys are copied out of the conjuncts; the
    // conjuncts themselves then move into the filter.
    let (est_cost, est_rows, probe) = best;
    let probe = probe.map(|(keyed, probe)| {
        let spec = match probe {
            Probe::Eq(n) => ProbeSpec::Eq(probe_keys(&eqs, &keyed.columns()[..n])),
            Probe::Range(lo, hi) => ProbeSpec::Range {
                lo: lo.cloned(),
                hi: hi.cloned(),
            },
        };
        (keyed.source(), spec)
    });
    let (table, table_name) = (bt.table, Arc::clone(&entry.meta.name));
    let (filter, needed) = (combine(local), ColumnSet::all());
    let op = match probe {
        None => PhysPlan::SeqScan {
            table,
            table_name,
            width,
            filter,
            needed,
        },
        Some((source, probe)) => PhysPlan::IndexScan {
            table,
            table_name,
            source,
            width,
            probe,
            filter,
            needed,
        },
    };
    Ok(PlanNode {
        op,
        est_rows,
        est_cost,
    })
}

fn combine(conjuncts: Vec<PhysExpr>) -> Option<PhysExpr> {
    conjuncts.into_iter().reduce(|acc, e| PhysExpr::Binary {
        op: BinOp::And,
        left: Box::new(acc),
        right: Box::new(e),
    })
}

/// How a join step reaches the table it adds.
#[derive(Clone, Copy)]
enum JoinMethod<'a> {
    Hash,
    NestedLoop,
    /// Index nested loop through one of the inner table's keyed structures.
    Probe(Keyed<'a>),
}

/// The cheapest known way to produce one subset of the FROM tables, as
/// numbers and a recipe. No plan node exists for a subset until the full
/// set's winner is known; then the one chain of recipes is built.
#[derive(Clone, Copy)]
struct DpState<'a> {
    cost: Cost,
    rows: f64,
    /// `None`: a single table's access path. Otherwise the subset this one
    /// extends, the table it adds and how.
    step: Option<(u64, usize, JoinMethod<'a>)>,
}

/// What the conjuncts that become applicable at one join step amount to:
/// equi-key offsets (left: in the outer layout, right: in the added table),
/// the conjuncts left over as residual predicates, and the selectivity of
/// them all. Reused across steps, so costing a step allocates nothing.
#[derive(Default)]
struct JoinKeys {
    left: Vec<usize>,
    right: Vec<usize>,
    residual: Vec<usize>,
    sel: f64,
}

/// Left-deep dynamic programming over table subsets.
struct JoinOrder<'a> {
    catalog: &'a Catalog,
    s: &'a BoundSelect,
    /// Per table: its chosen access path, until the build moves it out.
    rels: Vec<PlanNode>,
    /// Per table: where it starts in the global (FROM-order) layout.
    bases: Vec<usize>,
    /// Per global offset: the table that owns it.
    owner: Vec<usize>,
    /// Per subset mask: the best state found so far.
    best: Vec<Option<DpState<'a>>>,
}

fn join_order(
    catalog: &Catalog,
    s: &BoundSelect,
    rels: Vec<PlanNode>,
) -> Result<(PlanNode, Vec<usize>)> {
    let n = s.tables.len();
    if n > 16 {
        return Err(Error::plan(format!("too many joined tables ({n} > 16)")));
    }
    let full: u64 = (1 << n) - 1;
    let mut dp = JoinOrder {
        catalog,
        s,
        bases: (0..n).map(|i| table_offset(&s.tables, i)).collect(),
        owner: (0..n)
            .flat_map(|i| std::iter::repeat_n(i, s.tables[i].schema.len()))
            .collect(),
        best: vec![None; 1 << n],
        rels,
    };
    let mut keys = JoinKeys::default();
    for (i, rel) in dp.rels.iter().enumerate() {
        dp.best[1 << i] = Some(DpState {
            cost: rel.est_cost,
            rows: rel.est_rows,
            step: None,
        });
    }
    // Every strict subset of a mask is a smaller number, so by the time a
    // mask is extended its own state is final. Of equally cheap candidates
    // for one subset the first found stays: ascending outer mask, then
    // ascending added table.
    for mask in 1..full {
        for j in (0..n).filter(|j| mask & (1 << j) == 0) {
            let cand = dp.extend(mask, j, &mut keys)?;
            let slot = &mut dp.best[(mask | 1 << j) as usize];
            if (*slot).is_none_or(|existing| cand.cost.cheaper_than(&existing.cost)) {
                *slot = Some(cand);
            }
        }
    }
    let plan = dp.build(full, &mut keys)?;
    let layout = (0..dp.owner.len())
        .map(|off| dp.local_offset(full, off))
        .collect();
    Ok((plan, layout))
}

impl<'a> JoinOrder<'a> {
    fn state(&self, mask: u64) -> Result<DpState<'a>> {
        self.best[mask as usize].ok_or_else(|| Error::plan("join enumeration failed"))
    }

    /// Columns the tables of `mask` have between them.
    fn width(&self, mask: u64) -> usize {
        let tables = self.s.tables.iter().enumerate();
        tables
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, t)| t.schema.len())
            .sum()
    }

    /// Where global offset `off` sits in the output layout of `mask`'s best
    /// state: tables are laid out in the order the recipe chain joined them,
    /// so walk back to the step that added the owner.
    fn local_offset(&self, mut mask: u64, off: usize) -> usize {
        let t = self.owner[off];
        while let Some(Some((left, j, _))) = self.best[mask as usize].map(|st| st.step) {
            if j == t {
                return self.width(left) + off - self.bases[t];
            }
            mask = left;
        }
        off - self.bases[t]
    }

    /// Sort the conjuncts that become applicable when `j` joins `mask` into
    /// `keys`.
    fn join_keys(&self, mask: u64, j: usize, keys: &mut JoinKeys) -> Result<()> {
        let (s, new_mask) = (self.s, mask | 1 << j);
        let outer = self.state(mask)?;
        let right_rows = self.rels[j].est_rows;
        keys.left.clear();
        keys.right.clear();
        keys.residual.clear();
        keys.sel = 1.0;
        let fresh = s.conjuncts.iter().enumerate().filter(|(_, c)| {
            c.tables.count_ones() >= 2 && c.tables & !new_mask == 0 && c.tables & !mask != 0
        });
        for (ci, c) in fresh {
            // An equality between a column of `j` and one of the outer side
            // is a hash/probe key; anything else is a residual predicate.
            let pair = match &c.expr {
                PhysExpr::Binary {
                    op: BinOp::Eq,
                    left,
                    right,
                } => match (&**left, &**right) {
                    (PhysExpr::Col(a), PhysExpr::Col(b)) => {
                        match (self.owner[*a] == j, self.owner[*b] == j) {
                            (true, false) => Some((*b, *a)),
                            (false, true) => Some((*a, *b)),
                            _ => None,
                        }
                    }
                    _ => None,
                },
                _ => None,
            };
            let Some((l_off, r_off)) = pair else {
                keys.residual.push(ci);
                keys.sel *= 0.5;
                continue;
            };
            keys.left.push(self.local_offset(mask, l_off));
            keys.right.push(r_off - self.bases[j]);
            // Join selectivity from NDVs.
            let ndv = |off: usize| {
                let t = self.owner[off];
                self.catalog
                    .table(s.tables[t].table)
                    .map(|e| column_ndv(e, off - self.bases[t]))
                    .unwrap_or(100.0)
            };
            let out = equi_join_cardinality(outer.rows, right_rows, ndv(l_off), ndv(r_off));
            keys.sel *= out / (outer.rows * right_rows).max(1.0);
        }
        Ok(())
    }

    /// Cost joining table `j` to the best state of `mask`.
    fn extend(&self, mask: u64, j: usize, keys: &mut JoinKeys) -> Result<DpState<'a>> {
        self.join_keys(mask, j, keys)?;
        let outer = self.state(mask)?;
        let right = &self.rels[j];
        let out_rows = (outer.rows * right.est_rows * keys.sel).max(1.0);
        let (mut cost, mut method) = if keys.left.is_empty() {
            // Nested loop: the inner is re-evaluated per outer row.
            let rescans = outer.rows.max(1.0);
            let inner = Cost::new(right.est_cost.cpu * rescans, right.est_cost.io * rescans);
            (
                outer.cost + inner + Cost::cpu(out_rows),
                JoinMethod::NestedLoop,
            )
        } else {
            let cpu = Cost::cpu(outer.rows + right.est_rows + out_rows);
            (outer.cost + right.est_cost + cpu, JoinMethod::Hash)
        };
        // Candidate: index nested-loop ("probe") join — valid when the first
        // equi-key column has a keyed structure on table j.
        if let (Some(&join_col), false) = (keys.right.first(), self.s.tables[j].is_virtual) {
            if let Some((probe_cost, via)) = self.probe_join(outer, j, join_col)? {
                if probe_cost.cheaper_than(&cost) {
                    (cost, method) = (probe_cost, JoinMethod::Probe(via));
                }
            }
        }
        Ok(DpState {
            cost,
            rows: out_rows,
            step: Some((mask, j, method)),
        })
    }

    /// Cost probing table `j` once per row of `outer` on `join_col`: through
    /// the first of its keyed structures ([`Keyed::of`]) whose key leads with
    /// the join column. `None` when none does.
    fn probe_join(
        &self,
        outer: DpState<'a>,
        j: usize,
        join_col: usize,
    ) -> Result<Option<(Cost, Keyed<'a>)>> {
        let entry = self.catalog.table(self.s.tables[j].table)?;
        let serves = |keyed: &Keyed| keyed.columns().first() == Some(&join_col);
        let Some(via) = Keyed::of(self.catalog, entry).find(serves) else {
            return Ok(None);
        };
        // Cost: per outer row, one tree descent plus one heap fetch per match.
        let card_j = table_cardinality(entry);
        let matches_per_probe = (card_j / column_ndv(entry, join_col)).max(1.0);
        let height = (card_j.max(2.0).log(crate::cost::INDEX_ENTRIES_PER_LEAF))
            .ceil()
            .max(1.0);
        let probes = outer.rows.max(1.0);
        // Per-probe CPU: a tree descent walks ~height node pages linearly, which
        // costs real work even when allocation-free (≈ a handful of tuple units
        // per level), plus one unit per fetched match.
        let cost = outer.cost
            + Cost::new(
                probes * (8.0 * height + matches_per_probe),
                probes * (height * 0.2 + crate::cost::RANDOM_IO_WEIGHT * matches_per_probe),
            );
        Ok(Some((cost, via)))
    }

    /// Build the plan of `mask`'s best state: its recipe chain, innermost
    /// first. Every table's access path is used at most once, so it moves.
    fn build(&mut self, mask: u64, keys: &mut JoinKeys) -> Result<PlanNode> {
        let state = self.state(mask)?;
        let Some((left_mask, j, method)) = state.step else {
            let i = mask.trailing_zeros() as usize;
            return Ok(self.take_rel(i));
        };
        let left = Box::new(self.build(left_mask, keys)?);
        let left_width = self.width(left_mask);
        let base_j = self.bases[j];
        self.join_keys(left_mask, j, keys)?;
        let (left_keys, right_keys) = (
            std::mem::take(&mut keys.left),
            std::mem::take(&mut keys.right),
        );
        // The join's output layout: the outer side's, then table j.
        let place = |off: usize| {
            if self.owner[off] == j {
                left_width + off - base_j
            } else {
                self.local_offset(left_mask, off)
            }
        };
        let residual = keys.residual.iter();
        let mut filter: Vec<PhysExpr> = residual
            .map(|&ci| self.s.conjuncts[ci].expr.remap(&place))
            .collect();
        let op = match method {
            JoinMethod::Hash => PhysPlan::HashJoin {
                left,
                right: Box::new(self.take_rel(j)),
                left_keys,
                right_keys,
                filter: combine(filter),
            },
            JoinMethod::NestedLoop => PhysPlan::NestedLoopJoin {
                left,
                right: Box::new(self.take_rel(j)),
                on: combine(filter),
            },
            JoinMethod::Probe(via) => {
                // The probe replaces table j's access path, so its residual
                // filter re-checks table j's own conjuncts, then the equi
                // pairs the probe key does not cover, then the rest.
                let own = self.s.conjuncts.iter().filter(|c| c.tables == 1 << j);
                let mut parts: Vec<PhysExpr> = own.map(|c| c.expr.remap(&place)).collect();
                for (l, r) in left_keys.iter().zip(&right_keys).skip(1) {
                    parts.push(PhysExpr::Binary {
                        op: BinOp::Eq,
                        left: Box::new(PhysExpr::Col(*l)),
                        right: Box::new(PhysExpr::Col(left_width + *r)),
                    });
                }
                parts.append(&mut filter);
                let entry = self.catalog.table(self.s.tables[j].table)?;
                PhysPlan::ProbeJoin {
                    left,
                    table: entry.meta.id,
                    table_name: Arc::clone(&entry.meta.name),
                    width: self.s.tables[j].schema.len(),
                    // `left_keys` already holds outer-layout offsets.
                    left_key: left_keys[0],
                    source: via.source(),
                    filter: combine(parts),
                    needed: ColumnSet::all(),
                }
            }
        };
        Ok(PlanNode {
            op,
            est_rows: state.rows,
            est_cost: state.cost,
        })
    }

    fn take_rel(&mut self, i: usize) -> PlanNode {
        let spent = PlanNode {
            op: PhysPlan::DualScan,
            est_rows: 0.0,
            est_cost: Cost::ZERO,
        };
        std::mem::replace(&mut self.rels[i], spent)
    }
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

    fn plan(c: &Catalog, sql: &str) -> PlannedQuery {
        let (bound, _) = Binder::new(c).bind(&parse_statement(sql).unwrap()).unwrap();
        let BoundStatement::Select(s) = bound else {
            panic!()
        };
        optimize_select(c, &s).unwrap()
    }

    #[test]
    fn selective_eq_uses_index_when_available() {
        let mut c = setup();
        let q_before = plan(&c, "select name from protein where nref_id = 42");
        assert!(q_before.used_indexes.is_empty());
        let t = c.resolve_table("protein").unwrap();
        c.create_index("protein_id_idx", t, vec![0], false).unwrap();
        let q_after = plan(&c, "select name from protein where nref_id = 42");
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
        let q = plan(&c, "select name from protein where len >= 0");
        assert!(q.used_indexes.is_empty(), "plan: {}", q.root);
    }

    #[test]
    fn join_produces_hash_join() {
        let c = setup();
        let q = plan(
            &c,
            "select p.name, o.taxon_id from protein p join organism o on p.nref_id = o.nref_id",
        );
        let s = q.root.to_string();
        assert!(s.contains("HashJoin"), "plan: {s}");
        // FK join: output ≈ 8000 rows.
        assert!(q.root.est_rows > 2000.0 && q.root.est_rows < 30_000.0);
    }

    #[test]
    fn virtual_index_only_in_whatif_mode() {
        let c = setup();
        let mut what_if = ingot_catalog::WhatIf::new(&c);
        what_if.add_virtual_index("protein", &["nref_id"]).unwrap();
        let sql = "select name from protein where nref_id = 42";
        let normal = PlannedStatement::Query(plan(&c, sql));
        assert!(!normal.uses_virtual(&c));
        assert!(normal.used_indexes().is_empty());
        let whatif = PlannedStatement::Query(plan(&what_if, sql));
        assert!(whatif.uses_virtual(&what_if));
        assert_eq!(whatif.used_indexes().len(), 1);
        assert!(whatif
            .estimated_cost()
            .cheaper_than(&normal.estimated_cost()));
    }

    #[test]
    fn pk_lookup_on_btree_table() {
        let mut c = setup();
        let t = c.resolve_table("protein").unwrap();
        c.modify_storage(t, ingot_catalog::StorageStructure::BTree)
            .unwrap();
        let q = plan(&c, "select name from protein where nref_id = 42");
        assert!(q.root.to_string().contains("PkLookup"), "plan: {}", q.root);
    }

    #[test]
    fn key_range_on_btree_table_probes_the_primary_tree() {
        let mut c = setup();
        let t = c.resolve_table("protein").unwrap();
        c.modify_storage(t, ingot_catalog::StorageStructure::BTree)
            .unwrap();
        let sql = "select name from protein where nref_id between 10 and 12";
        let q = plan(&c, sql);
        let s = q.root.to_string();
        assert!(s.contains("PkLookup on protein range"), "plan: {s}");
        assert!(q.used_indexes.is_empty());
        // Priced as the index probe it is: the same estimate as an index on
        // the key column, which then loses the tie to the earlier candidate.
        c.create_index("protein_id_idx", t, vec![0], false).unwrap();
        let q2 = plan(&c, sql);
        assert_eq!((q2.est, q2.root.to_string()), (q.est, s));
        // A wide range still reads the heap.
        let q3 = plan(
            &c,
            "select name from protein where nref_id between 10 and 7000",
        );
        assert!(q3.root.to_string().contains("SeqScan"), "plan: {}", q3.root);
    }

    #[test]
    fn range_probe_on_index() {
        let mut c = setup();
        let t = c.resolve_table("protein").unwrap();
        c.create_index("protein_id_idx", t, vec![0], false).unwrap();
        let q = plan(
            &c,
            "select name from protein where nref_id between 10 and 12",
        );
        assert!(q.root.to_string().contains("IndexScan"), "plan: {}", q.root);
        // A wide range on a low-cardinality column must stay a scan: the
        // random heap fetches would dwarf the sequential page reads.
        let mut c2 = setup();
        let t2 = c2.resolve_table("protein").unwrap();
        c2.create_index("protein_len_idx", t2, vec![2], false)
            .unwrap();
        let q2 = plan(&c2, "select name from protein where len between 3 and 40");
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
        let q = plan(&c, "select name from protein where nref_id = $1");
        assert_eq!(q.used_indexes.len(), 1, "plan: {}", q.root);
        // And the same through a clustered primary tree.
        let mut c2 = setup();
        let t2 = c2.resolve_table("protein").unwrap();
        c2.modify_storage(t2, ingot_catalog::StorageStructure::BTree)
            .unwrap();
        let q2 = plan(&c2, "select name from protein where nref_id = $1");
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
        let conjuncts = [col_gt(PhysExpr::Param(0)), col_lt(PhysExpr::Param(1))];
        let (lo, hi) = extract_range(&conjuncts, 0);
        assert_eq!(lo, Some(&PhysExpr::Param(0)));
        assert_eq!(hi, Some(&PhysExpr::Param(1)));
        // A literal bound wins the slot; the param conjunct stays in the
        // residual filter (the probe may over-read, never under-read).
        let conjuncts = [
            col_gt(PhysExpr::Param(0)),
            col_gt(PhysExpr::Literal(Value::Int(5))),
        ];
        let (lo, hi) = extract_range(&conjuncts, 0);
        assert_eq!(lo, Some(&PhysExpr::Literal(Value::Int(5))));
        assert_eq!(hi, None);
        // BETWEEN with param bounds contributes both slots.
        let between = [PhysExpr::Between {
            expr: Box::new(PhysExpr::Col(0)),
            lo: Box::new(PhysExpr::Param(2)),
            hi: Box::new(PhysExpr::Param(3)),
            negated: false,
        }];
        let (lo, hi) = extract_range(&between, 0);
        assert_eq!(lo, Some(&PhysExpr::Param(2)));
        assert_eq!(hi, Some(&PhysExpr::Param(3)));
    }

    #[test]
    fn base_table_accesses_are_told_which_columns_are_read() {
        let c = setup();
        let shape = |sql: &str| plan(&c, sql).root.to_string();
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
        let q = plan(&c, "select name from protein where len > 3");
        assert_eq!(q.est, q.root.est_cost);
    }

    #[test]
    fn aggregate_plan_shape() {
        let c = setup();
        let q = plan(
            &c,
            "select taxon_id, count(*) from organism group by taxon_id order by 2 desc limit 3",
        );
        let s = q.root.to_string();
        assert!(s.contains("Aggregate") && s.contains("Sort") && s.contains("Limit"));
        assert_eq!(q.output_names, vec!["taxon_id", "count"]);
    }
}
