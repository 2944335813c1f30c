//! The binder: resolves names against the catalog and produces
//! offset-addressed expressions.
//!
//! Binding is where the paper's parse-stage sensors fire: everything the
//! monitor logs about a statement's *references* — tables, attributes,
//! histogram availability, candidate indexes — is a by-product of name
//! resolution and is returned as [`BindArtifacts`] so the engine can hand it
//! to the monitor without a second catalog pass.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use ingot_catalog::Catalog;
use ingot_common::{Error, IndexId, Result, Row, Schema, TableId, Value};
use ingot_sql::{Expr, OrderItem, SelectItem, SelectStmt, Statement};
use ingot_storage::{BTreeFile, HeapFile};

use crate::expr::{AggFunc, AggSpec, PhysExpr};

/// What the parse/bind sensors log (Fig 2: "Tables, Attributes, Histograms,
/// Available Indexes").
#[derive(Debug, Clone, Default)]
pub struct BindArtifacts {
    /// Referenced tables `(id, name)`; the name is the catalog's, shared.
    pub tables: Vec<(TableId, Arc<str>)>,
    /// Referenced attributes `(table, column position)`.
    pub attributes: Vec<(TableId, usize)>,
    /// Attributes among the referenced ones that have histograms.
    pub histograms: Vec<(TableId, usize)>,
    /// Indexes available on the referenced tables (including virtual ones
    /// during what-if runs).
    pub indexes: Vec<IndexId>,
    /// The same references in the form the monitor's sensors consume,
    /// interned by a monitored engine once the template is optimized (the
    /// binder leaves it empty). It lives as long as the plan does: a DDL
    /// publish or `CREATE STATISTICS` bumps the schema epoch, the cached
    /// plan is dropped, and re-planning interns it again, rewriting the
    /// names, storage tags and histogram flags the monitor keeps.
    pub footprint: Option<Arc<Footprint>>,
}

/// A planned template's reference footprint: the objects the binder
/// resolved plus the indexes the chosen plan uses, each with the monitor's
/// usage cell for it and, for a table or index, its storage handle. A
/// monitored engine interns it once per template; an execution counts
/// itself in each object's cell and stores the live numbers read off the
/// handles, and nothing is copied per statement. The handles are the ones
/// the plan's catalog snapshot resolved: a DDL publish bumps the schema
/// epoch and the template is planned and interned again.
#[derive(Debug, Default)]
pub struct Footprint {
    /// Referenced base tables.
    pub tables: Vec<TableRef>,
    /// Referenced attributes.
    pub attributes: Vec<AttributeRef>,
    /// Indexes the chosen plan uses.
    pub used_indexes: Vec<IndexRef>,
}

impl Footprint {
    /// The usage cell of every reference, in footprint order (an object
    /// referenced twice appears twice).
    pub fn usage_cells(&self) -> impl Iterator<Item = &Arc<UsageCell>> {
        let tables = self.tables.iter().map(|t| &t.usage);
        let attributes = self.attributes.iter().map(|a| &a.usage);
        tables
            .chain(attributes)
            .chain(self.used_indexes.iter().map(|i| &i.usage))
    }
}

/// The usage numbers of one monitored object (a table, an attribute or an
/// index), shared by every footprint that references it. The monitor
/// interns one per object the first time a planned template references it;
/// each recorded execution counts itself and stores the live numbers, and
/// the `ima$tables` / `ima$attributes` / `ima$indexes` providers read them.
#[derive(Debug, Default)]
pub struct UsageCell {
    /// Recorded statements that referenced the object.
    pub frequency: AtomicU64,
    /// Main data pages (a table) or pages (an index) at the latest
    /// reference.
    pub pages: AtomicU64,
    /// Overflow pages at the latest reference (tables only).
    pub overflow_pages: AtomicU64,
    /// Live rows at the latest reference (tables only).
    pub rows: AtomicU64,
}

/// One referenced table of a [`Footprint`].
pub struct TableRef {
    /// Table id.
    pub id: TableId,
    /// The table's usage cell.
    pub usage: Arc<UsageCell>,
    /// The table's row store, where its live numbers are read.
    pub heap: Arc<HeapFile>,
}

impl std::fmt::Debug for TableRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableRef")
            .field("id", &self.id)
            .field("usage", &self.usage)
            .finish_non_exhaustive()
    }
}

/// One referenced attribute of a [`Footprint`].
#[derive(Debug)]
pub struct AttributeRef {
    /// Owning table.
    pub table: TableId,
    /// Column position.
    pub column: usize,
    /// The attribute's usage cell.
    pub usage: Arc<UsageCell>,
}

/// One used index of a [`Footprint`].
pub struct IndexRef {
    /// Index id.
    pub id: IndexId,
    /// Owning table.
    pub table: TableId,
    /// The index's usage cell.
    pub usage: Arc<UsageCell>,
    /// The backing tree (`None` for a virtual index), where its page count
    /// is read.
    pub tree: Option<Arc<BTreeFile>>,
}

impl std::fmt::Debug for IndexRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexRef")
            .field("id", &self.id)
            .field("table", &self.table)
            .field("usage", &self.usage)
            .finish_non_exhaustive()
    }
}

/// One base table occurrence in `FROM` (aliases make occurrences distinct).
#[derive(Debug, Clone)]
pub struct BoundTable {
    /// The catalog table.
    pub table: TableId,
    /// Alias (or table name when unaliased).
    pub alias: String,
    /// The table's schema.
    pub schema: Schema,
    /// True for provider-backed (IMA) virtual tables.
    pub is_virtual: bool,
}

/// A WHERE/ON conjunct with the set of FROM-tables it references.
#[derive(Debug, Clone)]
pub struct Conjunct {
    /// The predicate, column offsets in the *global* layout (FROM order).
    pub expr: PhysExpr,
    /// Bitmask over `BoundSelect::tables` indexes.
    pub tables: u64,
}

/// A bound SELECT.
#[derive(Debug, Clone)]
pub struct BoundSelect {
    /// FROM tables in syntactic order.
    pub tables: Vec<BoundTable>,
    /// All conjuncts from WHERE and JOIN ON clauses.
    pub conjuncts: Vec<Conjunct>,
    /// Projections over the input layout: base layout for plain queries,
    /// `[group keys ‖ aggregates]` for aggregate queries.
    pub projections: Vec<(PhysExpr, String)>,
    /// Hidden trailing projections used only by ORDER BY.
    pub hidden_sort_cols: usize,
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Group-key expressions over the base layout (empty for plain queries).
    pub group_by: Vec<PhysExpr>,
    /// Aggregates over the base layout.
    pub aggregates: Vec<AggSpec>,
    /// HAVING over the aggregate output layout.
    pub having: Option<PhysExpr>,
    /// Sort keys as offsets into the projection output (visible + hidden).
    pub order_by: Vec<(usize, bool)>,
    /// LIMIT.
    pub limit: Option<u64>,
    /// OFFSET.
    pub offset: Option<u64>,
}

impl BoundSelect {
    /// True when the query aggregates (GROUP BY or aggregate functions).
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty() || !self.aggregates.is_empty()
    }
}

/// INSERT payload: constant rows are folded and constraint-checked at bind
/// time (errors surface before any lock is taken); rows containing parameter
/// markers stay as expressions and are evaluated + checked per execution.
#[derive(Debug, Clone)]
pub enum InsertRows {
    /// Fully-evaluated rows in schema order, already `check_row`-validated.
    Const(Vec<Row>),
    /// Schema-width expression rows awaiting parameter substitution.
    Dynamic(Vec<Vec<PhysExpr>>),
}

impl InsertRows {
    /// Number of rows to insert.
    pub fn len(&self) -> usize {
        match self {
            InsertRows::Const(r) => r.len(),
            InsertRows::Dynamic(r) => r.len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A bound statement.
#[derive(Debug, Clone)]
pub enum BoundStatement {
    /// SELECT.
    Select(BoundSelect),
    /// INSERT.
    Insert {
        /// Target table.
        table: TableId,
        /// Row payload (constant or parameterised).
        rows: InsertRows,
    },
    /// UPDATE; `sets` and `conjuncts` are over the table's own layout.
    Update {
        /// Target table.
        target: BoundTable,
        /// `(column position, new-value expression)`.
        sets: Vec<(usize, PhysExpr)>,
        /// The WHERE clause's conjuncts, bound as a one-table SELECT's.
        conjuncts: Vec<Conjunct>,
    },
    /// DELETE; `conjuncts` are over the table's own layout.
    Delete {
        /// Target table.
        target: BoundTable,
        /// The WHERE clause's conjuncts, bound as a one-table SELECT's.
        conjuncts: Vec<Conjunct>,
    },
}

/// Binds statements against a catalog snapshot.
pub struct Binder<'a> {
    catalog: &'a Catalog,
    artifacts: BindArtifacts,
}

impl<'a> Binder<'a> {
    /// A binder over `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        Binder {
            catalog,
            artifacts: BindArtifacts::default(),
        }
    }

    /// Bind a DML/query statement. DDL statements are handled directly by
    /// the engine and rejected here.
    pub fn bind(mut self, stmt: &Statement) -> Result<(BoundStatement, BindArtifacts)> {
        let bound = match stmt {
            Statement::Select(s) => BoundStatement::Select(self.bind_select(s)?),
            Statement::Insert {
                table,
                columns,
                rows,
            } => self.bind_insert(table, columns.as_deref(), rows)?,
            Statement::Update {
                table,
                sets,
                filter,
            } => self.bind_update(table, sets, filter.as_ref())?,
            Statement::Delete { table, filter } => self.bind_delete(table, filter.as_ref())?,
            other => {
                return Err(Error::binder(format!(
                    "statement is not bindable DML: {other:?}"
                )))
            }
        };
        Ok((bound, self.artifacts))
    }

    fn note_table(&mut self, id: TableId, name: &Arc<str>) {
        if !self.artifacts.tables.iter().any(|(t, _)| *t == id) {
            self.artifacts.tables.push((id, Arc::clone(name)));
            // All indexes on a referenced table are "available indexes".
            for idx in self.catalog.indexes_of(id) {
                if !self.artifacts.indexes.contains(&idx.meta.id) {
                    self.artifacts.indexes.push(idx.meta.id);
                }
            }
        }
    }

    fn note_attribute(&mut self, id: TableId, col: usize) {
        if !self.artifacts.attributes.contains(&(id, col)) {
            self.artifacts.attributes.push((id, col));
            if let Ok(entry) = self.catalog.table(id) {
                if entry.stats.as_ref().is_some_and(|s| s.has_histogram(col)) {
                    self.artifacts.histograms.push((id, col));
                }
            }
        }
    }

    // ---- SELECT ------------------------------------------------------------

    fn bind_select(&mut self, s: &SelectStmt) -> Result<BoundSelect> {
        // 1. Collect FROM tables (comma list + join chains, flattened).
        let mut tables: Vec<BoundTable> = Vec::new();
        for tref in &s.from {
            self.push_table(&mut tables, &tref.name, tref.alias.as_deref())?;
            for j in &tref.joins {
                self.push_table(&mut tables, &j.name, j.alias.as_deref())?;
            }
        }
        if tables.is_empty() {
            // SELECT without FROM: a single empty "dual" row.
            return self.bind_tableless_select(s);
        }

        // 2. Conjuncts from JOIN ON and WHERE.
        let join_preds = s.from.iter().flat_map(|t| &t.joins).map(|j| &j.on);
        let conjuncts = self.bind_where(join_preds.chain(&s.filter), &tables)?;

        // 3. Aggregate detection.
        let has_agg = !s.group_by.is_empty()
            || s.items.iter().any(|it| match it {
                SelectItem::Expr { expr, .. } => contains_aggregate(expr),
                _ => false,
            })
            || s.having.as_ref().is_some_and(contains_aggregate);

        let mut group_by = Vec::new();
        for g in &s.group_by {
            group_by.push(self.bind_expr(g, &tables)?);
        }

        let mut aggregates: Vec<AggSpec> = Vec::new();
        let mut agg_keys: Vec<&Expr> = Vec::new(); // AST of each registered agg

        // 4. Projections.
        let mut projections: Vec<(PhysExpr, String)> = Vec::new();
        // The AST behind each projection, for ORDER BY to match against.
        let mut proj_asts: Vec<Option<&Expr>> = Vec::new();
        let ordered = !s.order_by.is_empty();
        for item in &s.items {
            match item {
                SelectItem::Wildcard => {
                    if has_agg {
                        return Err(Error::binder("SELECT * is invalid with aggregation"));
                    }
                    let mut off = 0;
                    for t in &tables {
                        for (ci, col) in t.schema.columns().iter().enumerate() {
                            projections.push((PhysExpr::Col(off + ci), col.name.clone()));
                            self.note_attribute(t.table, ci);
                        }
                        off += t.schema.len();
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    if has_agg {
                        return Err(Error::binder("SELECT t.* is invalid with aggregation"));
                    }
                    let mut off = 0;
                    let mut found = false;
                    for t in &tables {
                        if t.alias == *q {
                            for (ci, col) in t.schema.columns().iter().enumerate() {
                                projections.push((PhysExpr::Col(off + ci), col.name.clone()));
                                self.note_attribute(t.table, ci);
                            }
                            found = true;
                        }
                        off += t.schema.len();
                    }
                    if !found {
                        return Err(Error::binder(format!("unknown qualifier '{q}'")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let phys = if has_agg {
                        self.bind_agg_expr(
                            expr,
                            &tables,
                            &s.group_by,
                            &group_by,
                            &mut aggregates,
                            &mut agg_keys,
                        )?
                    } else {
                        self.bind_expr(expr, &tables)?
                    };
                    let name = alias.clone().unwrap_or_else(|| display_name(expr));
                    projections.push((phys, name));
                    if ordered {
                        proj_asts.resize(projections.len() - 1, None);
                        proj_asts.push(Some(expr));
                    }
                }
            }
        }
        let visible = projections.len();

        // 5. HAVING (aggregate output layout).
        let having = match &s.having {
            Some(h) if has_agg => Some(self.bind_agg_expr(
                h,
                &tables,
                &s.group_by,
                &group_by,
                &mut aggregates,
                &mut agg_keys,
            )?),
            Some(_) => return Err(Error::binder("HAVING requires aggregation")),
            None => None,
        };

        // 6. ORDER BY: match against aliases / ordinals / projection ASTs;
        //    otherwise bind as a hidden projection column.
        let mut order_by: Vec<(usize, bool)> = Vec::new();
        let mut hidden = 0usize;
        for OrderItem { expr, desc } in &s.order_by {
            let pos = self.resolve_order_target(
                expr,
                &mut projections,
                visible,
                &proj_asts,
                &tables,
                has_agg,
                &s.group_by,
                &group_by,
                &mut aggregates,
                &mut agg_keys,
                &mut hidden,
            )?;
            order_by.push((pos, *desc));
        }

        Ok(BoundSelect {
            tables,
            conjuncts,
            projections,
            hidden_sort_cols: hidden,
            distinct: s.distinct,
            group_by,
            aggregates,
            having,
            order_by,
            limit: s.limit,
            offset: s.offset,
        })
    }

    fn bind_tableless_select(&mut self, s: &SelectStmt) -> Result<BoundSelect> {
        let mut projections = Vec::new();
        for item in &s.items {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(Error::binder("SELECT * requires a FROM clause"));
            };
            let phys = self.bind_expr(expr, &[])?;
            projections.push((phys, alias.clone().unwrap_or_else(|| display_name(expr))));
        }
        Ok(BoundSelect {
            tables: Vec::new(),
            conjuncts: match &s.filter {
                Some(f) => vec![Conjunct {
                    expr: self.bind_expr(f, &[])?,
                    tables: 0,
                }],
                None => Vec::new(),
            },
            projections,
            hidden_sort_cols: 0,
            distinct: s.distinct,
            group_by: Vec::new(),
            aggregates: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: s.limit,
            offset: s.offset,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve_order_target<'e>(
        &mut self,
        expr: &'e Expr,
        projections: &mut Vec<(PhysExpr, String)>,
        visible: usize,
        proj_asts: &[Option<&Expr>],
        tables: &[BoundTable],
        has_agg: bool,
        group_asts: &[Expr],
        group_by: &[PhysExpr],
        aggregates: &mut Vec<AggSpec>,
        agg_keys: &mut Vec<&'e Expr>,
        hidden: &mut usize,
    ) -> Result<usize> {
        // Ordinal: ORDER BY 2.
        if let Expr::Literal(Value::Int(n)) = expr {
            let n = *n;
            if n >= 1 && (n as usize) <= visible {
                return Ok(n as usize - 1);
            }
            return Err(Error::binder(format!("ORDER BY position {n} out of range")));
        }
        // Alias or textual match with a projection.
        if let Expr::Column { table: None, name } = expr {
            if let Some(pos) = projections.iter().position(|(_, a)| a == name) {
                return Ok(pos);
            }
        }
        if let Some(pos) = proj_asts.iter().position(|a| *a == Some(expr)) {
            return Ok(pos);
        }
        // Bind as a hidden column.
        let phys = if has_agg {
            self.bind_agg_expr(expr, tables, group_asts, group_by, aggregates, agg_keys)?
        } else {
            self.bind_expr(expr, tables)?
        };
        let pos = projections.len();
        projections.push((phys, format!("$sort{}", *hidden)));
        *hidden += 1;
        Ok(pos)
    }

    fn push_table(
        &mut self,
        tables: &mut Vec<BoundTable>,
        name: &str,
        alias: Option<&str>,
    ) -> Result<()> {
        let alias = alias.unwrap_or(name).to_ascii_lowercase();
        if tables.iter().any(|t| t.alias == alias) {
            return Err(Error::binder(format!("duplicate table alias '{alias}'")));
        }
        match self.catalog.resolve_relation(name)? {
            ingot_catalog::Relation::Base(entry) => {
                self.note_table(entry.meta.id, &entry.meta.name);
                tables.push(BoundTable {
                    table: entry.meta.id,
                    alias,
                    schema: entry.meta.schema.clone(),
                    is_virtual: false,
                });
            }
            ingot_catalog::Relation::Virtual(def) => {
                tables.push(BoundTable {
                    table: def.id,
                    alias,
                    schema: def.schema.clone(),
                    is_virtual: true,
                });
            }
        }
        Ok(())
    }

    /// Bind each AND-ed factor of `preds` as a conjunct of its own, then
    /// close them over equalities: `a.x = b.y AND a.x = 5` implies `b.y =
    /// 5`, which turns the inner side of a join into a keyed probe (Ingres'
    /// optimizer performs the same constant propagation).
    fn bind_where<'e>(
        &mut self,
        preds: impl IntoIterator<Item = &'e Expr>,
        tables: &[BoundTable],
    ) -> Result<Vec<Conjunct>> {
        let mut conjuncts = Vec::new();
        for pred in preds {
            self.bind_conjuncts(pred, tables, &mut conjuncts)?;
        }
        saturate_equalities(&mut conjuncts, tables);
        Ok(conjuncts)
    }

    /// Bind each AND-ed factor of `e` as a conjunct of its own.
    fn bind_conjuncts(
        &mut self,
        e: &Expr,
        tables: &[BoundTable],
        out: &mut Vec<Conjunct>,
    ) -> Result<()> {
        if let Expr::Binary {
            op: ingot_sql::BinOp::And,
            left,
            right,
        } = e
        {
            self.bind_conjuncts(left, tables, out)?;
            return self.bind_conjuncts(right, tables, out);
        }
        let expr = self.bind_expr(e, tables)?;
        let mut mask = 0u64;
        expr.for_each_column(&mut |c| mask |= 1 << table_of_offset(tables, c));
        out.push(Conjunct { expr, tables: mask });
        Ok(())
    }

    /// Resolve a column reference to `(table index, column index, offset)`.
    fn resolve_column(
        &mut self,
        qualifier: Option<&str>,
        name: &str,
        tables: &[BoundTable],
    ) -> Result<usize> {
        let mut hit: Option<usize> = None;
        let mut off = 0usize;
        for t in tables {
            if qualifier.is_none_or(|q| q == t.alias) {
                if let Some(ci) = t.schema.index_of(name) {
                    if hit.is_some() {
                        return Err(Error::binder(format!("ambiguous column '{name}'")));
                    }
                    hit = Some(off + ci);
                    self.note_attribute(t.table, ci);
                }
            }
            off += t.schema.len();
        }
        hit.ok_or_else(|| match qualifier {
            Some(q) => Error::binder(format!("unknown column '{q}.{name}'")),
            None => Error::binder(format!("unknown column '{name}'")),
        })
    }

    /// Bind an expression over the base (FROM-order) layout. Aggregates are
    /// rejected here.
    fn bind_expr(&mut self, e: &Expr, tables: &[BoundTable]) -> Result<PhysExpr> {
        Ok(match e {
            Expr::Literal(v) => PhysExpr::Literal(v.clone()),
            Expr::Param(i) => PhysExpr::Param(*i),
            Expr::Column { table, name } => {
                PhysExpr::Col(self.resolve_column(table.as_deref(), name, tables)?)
            }
            Expr::Binary { op, left, right } => PhysExpr::Binary {
                op: *op,
                left: Box::new(self.bind_expr(left, tables)?),
                right: Box::new(self.bind_expr(right, tables)?),
            },
            Expr::Unary { op, expr } => PhysExpr::Unary {
                op: *op,
                expr: Box::new(self.bind_expr(expr, tables)?),
            },
            Expr::IsNull { expr, negated } => PhysExpr::IsNull {
                expr: Box::new(self.bind_expr(expr, tables)?),
                negated: *negated,
            },
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => PhysExpr::Between {
                expr: Box::new(self.bind_expr(expr, tables)?),
                lo: Box::new(self.bind_expr(lo, tables)?),
                hi: Box::new(self.bind_expr(hi, tables)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => PhysExpr::InList {
                expr: Box::new(self.bind_expr(expr, tables)?),
                list: list
                    .iter()
                    .map(|x| self.bind_expr(x, tables))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => PhysExpr::Like {
                expr: Box::new(self.bind_expr(expr, tables)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::CountStar => return Err(Error::binder("aggregate not allowed in this context")),
            Expr::Call { func, args, .. } => {
                if agg_func(func).is_some() {
                    return Err(Error::binder(format!(
                        "aggregate {func}() not allowed in this context"
                    )));
                }
                PhysExpr::Call {
                    func: func.clone(),
                    args: args
                        .iter()
                        .map(|a| self.bind_expr(a, tables))
                        .collect::<Result<_>>()?,
                }
            }
        })
    }

    /// Bind an expression in aggregate context: output layout is
    /// `[group keys ‖ aggregate results]`.
    fn bind_agg_expr<'e>(
        &mut self,
        e: &'e Expr,
        tables: &[BoundTable],
        group_asts: &[Expr],
        group_by: &[PhysExpr],
        aggregates: &mut Vec<AggSpec>,
        agg_keys: &mut Vec<&'e Expr>,
    ) -> Result<PhysExpr> {
        // A group-key expression maps to its key slot.
        if let Some(gidx) = group_asts.iter().position(|g| g == e) {
            return Ok(PhysExpr::Col(gidx));
        }
        match e {
            Expr::CountStar => Ok(PhysExpr::Col(
                group_by.len() + register_agg(e, AggFunc::Count, None, false, aggregates, agg_keys),
            )),
            Expr::Call {
                func,
                args,
                distinct,
            } if agg_func(func).is_some() => {
                let f = agg_func(func).expect("checked");
                if args.len() != 1 {
                    return Err(Error::binder(format!("{func}() takes one argument")));
                }
                let input = self.bind_expr(&args[0], tables)?;
                Ok(PhysExpr::Col(
                    group_by.len()
                        + register_agg(e, f, Some(input), *distinct, aggregates, agg_keys),
                ))
            }
            Expr::Literal(v) => Ok(PhysExpr::Literal(v.clone())),
            Expr::Param(i) => Ok(PhysExpr::Param(*i)),
            Expr::Column { table, name } => {
                // Bare columns must be group keys (checked above by AST
                // equality; also accept qualified/unqualified mismatches by
                // comparing resolved offsets).
                let off = self.resolve_column(table.as_deref(), name, tables)?;
                if let Some(gidx) = group_by.iter().position(|g| g == &PhysExpr::Col(off)) {
                    return Ok(PhysExpr::Col(gidx));
                }
                Err(Error::binder(format!(
                    "column '{name}' must appear in GROUP BY or an aggregate"
                )))
            }
            Expr::Binary { op, left, right } => Ok(PhysExpr::Binary {
                op: *op,
                left: Box::new(
                    self.bind_agg_expr(left, tables, group_asts, group_by, aggregates, agg_keys)?,
                ),
                right: Box::new(
                    self.bind_agg_expr(right, tables, group_asts, group_by, aggregates, agg_keys)?,
                ),
            }),
            Expr::Unary { op, expr } => Ok(PhysExpr::Unary {
                op: *op,
                expr: Box::new(
                    self.bind_agg_expr(expr, tables, group_asts, group_by, aggregates, agg_keys)?,
                ),
            }),
            Expr::Call { func, args, .. } => Ok(PhysExpr::Call {
                func: func.clone(),
                args: args
                    .iter()
                    .map(|a| {
                        self.bind_agg_expr(a, tables, group_asts, group_by, aggregates, agg_keys)
                    })
                    .collect::<Result<_>>()?,
            }),
            other => Err(Error::binder(format!(
                "unsupported expression in aggregate context: {other:?}"
            ))),
        }
    }

    // ---- DML ------------------------------------------------------------------

    fn bind_insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        rows: &[Vec<Expr>],
    ) -> Result<BoundStatement> {
        let id = self.catalog.resolve_table(table)?;
        let entry = self.catalog.table(id)?;
        self.note_table(id, &entry.meta.name);
        let schema = entry.meta.schema.clone();
        // Map provided columns to schema positions.
        let positions: Vec<usize> = match columns {
            Some(cols) => cols
                .iter()
                .map(|c| {
                    let pos = schema
                        .index_of(c)
                        .ok_or_else(|| Error::binder(format!("unknown column '{c}'")))?;
                    self.note_attribute(id, pos);
                    Ok(pos)
                })
                .collect::<Result<_>>()?,
            None => (0..schema.len()).collect(),
        };
        // Bind every value expression first; a single parameter marker
        // anywhere switches the whole INSERT to the dynamic (per-execution
        // evaluated) path. Constant inserts keep the eager path so
        // constraint violations surface at bind time.
        let mut bound_rows: Vec<Vec<PhysExpr>> = Vec::with_capacity(rows.len());
        let mut dynamic = false;
        for exprs in rows {
            if exprs.len() != positions.len() {
                return Err(Error::binder(format!(
                    "INSERT provides {} values for {} columns",
                    exprs.len(),
                    positions.len()
                )));
            }
            let mut row = vec![PhysExpr::Literal(Value::Null); schema.len()];
            for (e, &pos) in exprs.iter().zip(&positions) {
                let phys = self.bind_expr(e, &[])?;
                dynamic |= phys.has_params();
                row[pos] = phys;
            }
            bound_rows.push(row);
        }
        let rows = if dynamic {
            InsertRows::Dynamic(bound_rows)
        } else {
            let empty = Row::default();
            let mut out = Vec::with_capacity(bound_rows.len());
            for exprs in &bound_rows {
                let vals: Vec<Value> = exprs
                    .iter()
                    .map(|e| e.eval(&empty))
                    .collect::<Result<_>>()?;
                out.push(schema.check_row(&Row::new(vals))?);
            }
            InsertRows::Const(out)
        };
        Ok(BoundStatement::Insert { table: id, rows })
    }

    /// Resolve the base table an UPDATE or DELETE writes.
    fn bind_target(&mut self, table: &str) -> Result<BoundTable> {
        let id = self.catalog.resolve_table(table)?;
        let entry = self.catalog.table(id)?;
        self.note_table(id, &entry.meta.name);
        Ok(BoundTable {
            table: id,
            alias: entry.meta.name.to_string(),
            schema: entry.meta.schema.clone(),
            is_virtual: false,
        })
    }

    fn bind_update(
        &mut self,
        table: &str,
        sets: &[(String, Expr)],
        filter: Option<&Expr>,
    ) -> Result<BoundStatement> {
        let target = self.bind_target(table)?;
        let tables = std::slice::from_ref(&target);
        let mut bound_sets = Vec::with_capacity(sets.len());
        for (col, e) in sets {
            let pos = target
                .schema
                .index_of(col)
                .ok_or_else(|| Error::binder(format!("unknown column '{col}'")))?;
            self.note_attribute(target.table, pos);
            bound_sets.push((pos, self.bind_expr(e, tables)?));
        }
        let conjuncts = self.bind_where(filter, tables)?;
        Ok(BoundStatement::Update {
            target,
            sets: bound_sets,
            conjuncts,
        })
    }

    fn bind_delete(&mut self, table: &str, filter: Option<&Expr>) -> Result<BoundStatement> {
        let target = self.bind_target(table)?;
        let conjuncts = self.bind_where(filter, std::slice::from_ref(&target))?;
        Ok(BoundStatement::Delete { target, conjuncts })
    }
}

/// Derive single-column equality conjuncts implied by column-equality
/// chains: equivalence classes over `Col = Col` conjuncts propagate every
/// `Col = literal` to all class members.
fn saturate_equalities(conjuncts: &mut Vec<Conjunct>, tables: &[BoundTable]) {
    use ingot_sql::BinOp;
    // Union-find over column offsets.
    let width: usize = tables.iter().map(|t| t.schema.len()).sum();
    let mut parent: Vec<usize> = (0..width).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    // Constants to propagate: literals and parameter markers alike — a
    // prepared `p.id = $1` seeds the same probe opportunities a literal
    // would.
    let mut constants: Vec<(usize, &PhysExpr)> = Vec::new();
    for c in conjuncts.iter() {
        if let PhysExpr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = &c.expr
        {
            match (&**left, &**right) {
                (PhysExpr::Col(a), PhysExpr::Col(b)) => {
                    let (ra, rb) = (find(&mut parent, *a), find(&mut parent, *b));
                    parent[ra] = rb;
                }
                (PhysExpr::Col(a), e @ (PhysExpr::Literal(_) | PhysExpr::Param(_)))
                | (e @ (PhysExpr::Literal(_) | PhysExpr::Param(_)), PhysExpr::Col(a)) => {
                    constants.push((*a, e));
                }
                _ => {}
            }
        }
    }
    let mut derived = Vec::new();
    for &(col, v) in &constants {
        let root = find(&mut parent, col);
        for other in 0..width {
            if other == col || find(&mut parent, other) != root || constants.contains(&(other, v)) {
                continue;
            }
            derived.push(Conjunct {
                expr: PhysExpr::Binary {
                    op: BinOp::Eq,
                    left: Box::new(PhysExpr::Col(other)),
                    right: Box::new(v.clone()),
                },
                tables: 1 << table_of_offset(tables, other),
            });
        }
    }
    conjuncts.extend(derived);
}

/// The table index that owns global offset `off`.
fn table_of_offset(tables: &[BoundTable], off: usize) -> usize {
    let mut acc = 0;
    for (i, t) in tables.iter().enumerate() {
        acc += t.schema.len();
        if off < acc {
            return i;
        }
    }
    tables.len().saturating_sub(1)
}

/// The offset at which table `idx` starts in the global layout.
pub fn table_offset(tables: &[BoundTable], idx: usize) -> usize {
    tables[..idx].iter().map(|t| t.schema.len()).sum()
}

fn register_agg<'e>(
    ast: &'e Expr,
    func: AggFunc,
    input: Option<PhysExpr>,
    distinct: bool,
    aggregates: &mut Vec<AggSpec>,
    agg_keys: &mut Vec<&'e Expr>,
) -> usize {
    if let Some(pos) = agg_keys.iter().position(|k| *k == ast) {
        return pos;
    }
    aggregates.push(AggSpec {
        func,
        input,
        distinct,
    });
    agg_keys.push(ast);
    aggregates.len() - 1
}

fn agg_func(name: &str) -> Option<AggFunc> {
    match name {
        "count" => Some(AggFunc::Count),
        "sum" => Some(AggFunc::Sum),
        "avg" => Some(AggFunc::Avg),
        "min" => Some(AggFunc::Min),
        "max" => Some(AggFunc::Max),
        _ => None,
    }
}

fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::CountStar => true,
        Expr::Call { func, args, .. } => {
            agg_func(func).is_some() || args.iter().any(contains_aggregate)
        }
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::Unary { expr, .. } => contains_aggregate(expr),
        Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::Between { expr, lo, hi, .. } => {
            contains_aggregate(expr) || contains_aggregate(lo) || contains_aggregate(hi)
        }
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::Like { expr, .. } => contains_aggregate(expr),
        _ => false,
    }
}

fn display_name(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::CountStar => "count".to_owned(),
        Expr::Call { func, .. } => func.clone(),
        _ => "expr".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_common::{Column, DataType, EngineConfig, SimClock};
    use ingot_sql::parse_statement;
    use ingot_storage::StorageEngine;
    use std::sync::Arc;

    fn test_catalog() -> Catalog {
        let cfg = EngineConfig::default();
        let storage = StorageEngine::in_memory(&cfg, SimClock::new());
        let mut c = Catalog::new(Arc::clone(storage.pool()), 4);
        let protein = c
            .create_table(
                "protein",
                Schema::new(vec![
                    Column::not_null("nref_id", DataType::Str),
                    Column::new("name", DataType::Str),
                    Column::new("len", DataType::Int),
                ]),
                vec![0],
            )
            .unwrap();
        c.create_table(
            "organism",
            Schema::new(vec![
                Column::not_null("nref_id", DataType::Str),
                Column::new("taxon_id", DataType::Int),
            ]),
            vec![0],
        )
        .unwrap();
        c.create_index("protein_len", protein, vec![2], false)
            .unwrap();
        c
    }

    fn bind(c: &Catalog, sql: &str) -> (BoundStatement, BindArtifacts) {
        Binder::new(c).bind(&parse_statement(sql).unwrap()).unwrap()
    }

    #[test]
    fn simple_select_binds_offsets() {
        let c = test_catalog();
        let (b, art) = bind(&c, "select len from protein where nref_id = 'NF1'");
        let BoundStatement::Select(s) = b else {
            panic!()
        };
        assert_eq!(s.projections[0].0, PhysExpr::Col(2));
        assert_eq!(s.conjuncts.len(), 1);
        assert_eq!(s.conjuncts[0].tables, 1);
        assert_eq!(art.tables.len(), 1);
        assert_eq!(art.indexes.len(), 1);
        // nref_id and len both referenced.
        assert_eq!(art.attributes.len(), 2);
    }

    #[test]
    fn join_offsets_cross_tables() {
        let c = test_catalog();
        let (b, art) = bind(
            &c,
            "select p.len, o.taxon_id from protein p join organism o on p.nref_id = o.nref_id",
        );
        let BoundStatement::Select(s) = b else {
            panic!()
        };
        assert_eq!(s.tables.len(), 2);
        // organism.taxon_id is global offset 3 + 1 = 4.
        assert_eq!(s.projections[1].0, PhysExpr::Col(4));
        // The ON conjunct references both tables: mask 0b11.
        assert_eq!(s.conjuncts[0].tables, 0b11);
        assert_eq!(art.tables.len(), 2);
    }

    #[test]
    fn ambiguous_and_unknown_columns() {
        let c = test_catalog();
        let err = Binder::new(&c)
            .bind(
                &parse_statement(
                    "select nref_id from protein p join organism o on p.nref_id = o.nref_id",
                )
                .unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Binder(m) if m.contains("ambiguous")));
        let err = Binder::new(&c)
            .bind(&parse_statement("select ghost from protein").unwrap())
            .unwrap_err();
        assert!(matches!(err, Error::Binder(_)));
    }

    #[test]
    fn aggregate_rewriting() {
        let c = test_catalog();
        let (b, _) = bind(
            &c,
            "select taxon_id, count(*) as n, avg(taxon_id) from organism \
             group by taxon_id having count(*) > 2 order by n desc",
        );
        let BoundStatement::Select(s) = b else {
            panic!()
        };
        assert!(s.is_aggregate());
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.aggregates.len(), 2); // count(*) deduplicated with having
                                           // Projections over [key, count, avg] layout.
        assert_eq!(s.projections[0].0, PhysExpr::Col(0));
        assert_eq!(s.projections[1].0, PhysExpr::Col(1));
        assert_eq!(s.projections[2].0, PhysExpr::Col(2));
        assert!(s.having.is_some());
        assert_eq!(s.order_by, vec![(1, true)]);
    }

    #[test]
    fn bare_column_outside_group_by_rejected() {
        let c = test_catalog();
        let err = Binder::new(&c)
            .bind(
                &parse_statement("select nref_id, count(*) from organism group by taxon_id")
                    .unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Binder(m) if m.contains("GROUP BY")));
    }

    #[test]
    fn order_by_hidden_column() {
        let c = test_catalog();
        let (b, _) = bind(&c, "select name from protein order by len desc");
        let BoundStatement::Select(s) = b else {
            panic!()
        };
        assert_eq!(s.hidden_sort_cols, 1);
        assert_eq!(s.projections.len(), 2);
        assert_eq!(s.order_by, vec![(1, true)]);
    }

    #[test]
    fn order_by_ordinal() {
        let c = test_catalog();
        let (b, _) = bind(&c, "select name, len from protein order by 2");
        let BoundStatement::Select(s) = b else {
            panic!()
        };
        assert_eq!(s.order_by, vec![(1, false)]);
        assert!(Binder::new(&c)
            .bind(&parse_statement("select name from protein order by 5").unwrap())
            .is_err());
    }

    #[test]
    fn insert_binding_coerces_and_checks() {
        let c = test_catalog();
        let (b, _) = bind(&c, "insert into protein (nref_id, len) values ('NF1', 10)");
        let BoundStatement::Insert {
            rows: InsertRows::Const(rows),
            ..
        } = b
        else {
            panic!()
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Str("NF1".into()));
        assert_eq!(rows[0].get(1), &Value::Null); // name defaulted
        assert_eq!(rows[0].get(2), &Value::Int(10));
        // NOT NULL violation.
        let err = Binder::new(&c)
            .bind(&parse_statement("insert into protein (name) values ('x')").unwrap())
            .unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
    }

    #[test]
    fn parameterised_insert_defers_evaluation() {
        let c = test_catalog();
        let (b, _) = bind(&c, "insert into protein (nref_id, len) values ($1, $2)");
        let BoundStatement::Insert {
            rows: InsertRows::Dynamic(rows),
            ..
        } = b
        else {
            panic!("expected dynamic rows")
        };
        // Schema-width expression row: [param, null-default, param].
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), 3);
        assert_eq!(rows[0][0], PhysExpr::Param(0));
        assert_eq!(rows[0][1], PhysExpr::Literal(Value::Null));
        assert_eq!(rows[0][2], PhysExpr::Param(1));
        // No constraint error at bind time even though $1 targets a NOT
        // NULL column — checking happens at execution with real values.
    }

    #[test]
    fn parameter_markers_bind_and_saturate() {
        let c = test_catalog();
        let (b, _) = bind(&c, "select len from protein where nref_id = $1");
        let BoundStatement::Select(s) = b else {
            panic!()
        };
        assert_eq!(
            s.conjuncts[0].expr,
            PhysExpr::Binary {
                op: ingot_sql::BinOp::Eq,
                left: Box::new(PhysExpr::Col(0)),
                right: Box::new(PhysExpr::Param(0)),
            }
        );
        // Param equality propagates across join equivalences like a literal.
        let (b, _) = bind(
            &c,
            "select p.len from protein p join organism o on p.nref_id = o.nref_id \
             where p.nref_id = $1",
        );
        let BoundStatement::Select(s) = b else {
            panic!()
        };
        let derived = s.conjuncts.iter().any(|cj| {
            cj.expr
                == PhysExpr::Binary {
                    op: ingot_sql::BinOp::Eq,
                    left: Box::new(PhysExpr::Col(3)),
                    right: Box::new(PhysExpr::Param(0)),
                }
        });
        assert!(derived, "expected o.nref_id = $1 to be derived");
    }

    #[test]
    fn update_delete_binding() {
        let c = test_catalog();
        let (b, _) = bind(&c, "update protein set len = len + 1 where nref_id = 'NF1'");
        let BoundStatement::Update {
            sets, conjuncts, ..
        } = b
        else {
            panic!()
        };
        assert_eq!(sets[0].0, 2);
        assert_eq!(conjuncts.len(), 1);
        // The WHERE clause splits into conjuncts as a SELECT's does, closed
        // over equalities the same way.
        let (b, _) = bind(
            &c,
            "delete from protein where name = nref_id and nref_id = 'NF1'",
        );
        let BoundStatement::Delete { conjuncts, .. } = b else {
            panic!()
        };
        assert_eq!(conjuncts.len(), 3);
        let (b, _) = bind(&c, "delete from protein");
        let BoundStatement::Delete { conjuncts, .. } = b else {
            panic!()
        };
        assert!(conjuncts.is_empty());
    }

    #[test]
    fn tableless_select() {
        let c = test_catalog();
        let (b, _) = bind(&c, "select 1 + 2 as three");
        let BoundStatement::Select(s) = b else {
            panic!()
        };
        assert!(s.tables.is_empty());
        assert_eq!(s.projections[0].1, "three");
    }

    #[test]
    fn histogram_artifact_tracking() {
        let mut c = test_catalog();
        let t = c.resolve_table("protein").unwrap();
        // Insert a row so statistics have data, then collect.
        c.insert_row(
            t,
            &Row::new(vec![Value::Str("NF1".into()), Value::Null, Value::Int(5)]),
        )
        .unwrap();
        c.collect_statistics(t, &[2], 0).unwrap();
        let (_, art) = bind(&c, "select len from protein where len > 3");
        assert!(art.histograms.contains(&(t, 2)));
    }
}
