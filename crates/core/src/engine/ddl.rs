//! Statements that change the schema or the session rather than read or
//! write rows: CREATE/DROP TABLE, CREATE/DROP INDEX, MODIFY, CREATE
//! STATISTICS, plus `SET` and plain `EXPLAIN`.

use ingot_catalog::StorageStructure;
use ingot_common::{Column, Error, Result, Row, Schema, Value};
use ingot_planner::{optimize, Binder, OptimizerOptions, PlannedStatement};
use ingot_sql::Statement;
use ingot_storage::WalRecord;
use ingot_txn::{LockMode, Resource};

use super::{Engine, Session, StatementResult};

impl Session {
    /// Run one schema change. Each one moves what the optimizer would
    /// choose, so once it succeeded every memoized plan is dropped. It is
    /// redone from the log on recovery, so its record is appended only
    /// once it *succeeded* (a failed statement must never replay) and is
    /// made durable before the statement is acknowledged; replay itself
    /// appends nothing.
    pub(super) fn run_ddl(&self, sql: &str, stmt: Statement) -> Result<StatementResult> {
        let engine = &*self.engine;
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|c| {
                            if c.not_null {
                                Column::not_null(c.name, c.ty)
                            } else {
                                Column::new(c.name, c.ty)
                            }
                        })
                        .collect(),
                );
                let pk = column_indexes(&schema, &primary_key)?;
                engine.catalog.write().create_table(&name, schema, pk)?;
            }
            Statement::DropTable { name } => {
                self.with_table_lock_by_name(&name, LockMode::Exclusive, |eng| {
                    eng.catalog.write().drop_table(&name)
                })?
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
            } => self.run_create_index(&name, &table, &columns, unique)?,
            Statement::DropIndex { name } => engine.catalog.write().drop_index(&name)?,
            Statement::Modify { table, to } => {
                let to: StorageStructure = to.parse()?;
                self.with_table_lock_by_name(&table, LockMode::Exclusive, |eng| {
                    let mut catalog = eng.catalog.write();
                    let id = catalog.resolve_table(&table)?;
                    catalog.modify_storage(id, to)
                })?
            }
            Statement::CreateStatistics { table, columns } => {
                let now_secs = engine.sim_clock.now_secs();
                // No table lock at all (PR 8): the histogram build scans the
                // table under a registered MVCC snapshot, so concurrent
                // writers proceed untouched and the collected counts are
                // still exact *for that snapshot*. DDL is fenced by the
                // catalog write guard the collection itself holds.
                self.in_txn(|txn, auto| {
                    let snap = self.statement_snapshot(txn, auto);
                    let mut catalog = engine.catalog.write();
                    let id = catalog.resolve_table(&table)?;
                    let cols = column_indexes(&catalog.table(id)?.meta.schema, &columns)?;
                    catalog.collect_statistics_snapshot(id, &cols, now_secs, &snap)
                })?
            }
            _ => return Err(Error::unsupported("not a schema change")),
        }
        if !engine.wal.is_replaying() {
            let lsn = engine.wal.append(&WalRecord::Ddl {
                sql: sql.to_owned(),
            })?;
            engine.wal.commit_barrier(lsn)?;
        }
        engine.plan_cache.invalidate_all();
        Ok(StatementResult::default())
    }

    /// `SET name = value`. `trace`/`tracing` flips runtime tracing; other
    /// knobs are accepted and ignored (compatibility with scripts). This is
    /// the target of both the SQL `SET` statement and the [`Connection`](ingot_common::Connection)
    /// trait's `set` verb, embedded or over the wire.
    pub fn set_option(&self, name: &str, value: &Value) -> Result<StatementResult> {
        if matches!(name.to_ascii_lowercase().as_str(), "trace" | "tracing") {
            let on = match value {
                Value::Bool(b) => *b,
                Value::Int(i) => *i != 0,
                Value::Str(s) => matches!(s.to_ascii_lowercase().as_str(), "on" | "true" | "1"),
                _ => return Err(Error::execution("SET trace expects a boolean")),
            };
            self.engine.set_tracing(on);
        }
        Ok(StatementResult::default())
    }

    /// `EXPLAIN <stmt>`: the chosen plan, rendered one line per row.
    pub(super) fn run_explain(&self, inner: &Statement) -> Result<StatementResult> {
        let engine = &*self.engine;
        let catalog = engine.catalog.read();
        let (bound, _) = Binder::new(&catalog).bind(inner)?;
        let planned = optimize(&catalog, &bound, OptimizerOptions::default())?;
        let text = match &planned {
            PlannedStatement::Query(q) => q.root.to_string(),
            PlannedStatement::Insert { table, rows, est } => {
                let name = catalog.table(*table).map(|e| e.meta.name.clone())?;
                format!(
                    "Insert into {name}  ({} row(s), est {est})
",
                    rows.len()
                )
            }
            PlannedStatement::Update {
                table,
                sets,
                filter,
                est,
            } => {
                let name = catalog.table(*table).map(|e| e.meta.name.clone())?;
                format!(
                    "Update {name} [{} column(s){}]  (est {est})
",
                    sets.len(),
                    if filter.is_some() { ", filtered" } else { "" }
                )
            }
            PlannedStatement::Delete { table, filter, est } => {
                let name = catalog.table(*table).map(|e| e.meta.name.clone())?;
                format!(
                    "Delete from {name}{}  (est {est})
",
                    if filter.is_some() { " [filtered]" } else { "" }
                )
            }
        };
        Ok(StatementResult {
            rows: text
                .lines()
                .map(|l| Row::new(vec![Value::Str(l.to_owned())]))
                .collect(),
            columns: vec!["query plan".to_owned()],
            est_cost: planned.estimated_cost(),
            ..Default::default()
        })
    }

    fn run_create_index(
        &self,
        name: &str,
        table: &str,
        columns: &[String],
        unique: bool,
    ) -> Result<()> {
        self.with_table_lock_by_name(table, LockMode::Exclusive, |eng| {
            let mut catalog = eng.catalog.write();
            let id = catalog.resolve_table(table)?;
            let cols = column_indexes(&catalog.table(id)?.meta.schema, columns)?;
            catalog.create_index(name, id, cols, unique)?;
            Ok(())
        })
    }

    /// Run a closure holding a logical lock on `table`, in the statement's
    /// transaction scope.
    ///
    /// Lock-order discipline: the table lock is acquired *before* the closure
    /// opens the catalog write guard, matching DML (table locks, then
    /// snapshot/guard). Nothing holding the DDL guard ever takes table locks.
    fn with_table_lock_by_name<T>(
        &self,
        table: &str,
        mode: LockMode,
        f: impl FnOnce(&Engine) -> Result<T>,
    ) -> Result<T> {
        let id = {
            let catalog = self.engine.catalog.read();
            // A yet-unknown table (CREATE) needs no lock.
            catalog.resolve_table(table).ok()
        };
        self.in_txn(|txn, _| {
            if let Some(id) = id {
                self.engine.locks.lock(txn, Resource::Table(id), mode)?;
            }
            f(&self.engine)
        })
    }
}

/// Resolve column `names` to their positions in `schema`.
pub(super) fn column_indexes<S: AsRef<str>>(schema: &Schema, names: &[S]) -> Result<Vec<usize>> {
    names
        .iter()
        .map(|c| {
            let c = c.as_ref();
            schema
                .index_of(c)
                .ok_or_else(|| Error::binder(format!("unknown column '{c}'")))
        })
        .collect()
}
