//! Statements that change the schema or the session rather than read or
//! write rows: CREATE/DROP TABLE, CREATE/DROP INDEX, MODIFY, CREATE
//! STATISTICS, plus `SET` and plain `EXPLAIN`.

use ingot_catalog::{Catalog, StorageStructure};
use ingot_common::{Column, Error, Result, Row, Schema, Value};
use ingot_planner::{optimize, Binder, OptimizerOptions};
use ingot_sql::Statement;
use ingot_storage::{Lsn, WalRecord};
use ingot_txn::{LockMode, Resource};

use super::{Engine, Session, StatementResult};

impl Session {
    /// Run one schema change. Each one moves what the optimizer would
    /// choose, so once it succeeded every memoized plan is dropped. It is
    /// redone from the log on recovery, so its record is appended only
    /// once it *succeeded* (a failed statement must never replay) and is
    /// made durable before the statement is acknowledged; replay itself
    /// appends nothing.
    ///
    /// It is logged under the write guard that applied it ([`change_schema`]),
    /// so in id order and in or after any checkpoint's schema dump, not
    /// both. Lock order is catalog → WAL everywhere; the WAL takes no
    /// catalog lock.
    pub(super) fn run_ddl(&self, sql: &str, stmt: Statement) -> Result<StatementResult> {
        let engine = &*self.engine;
        let lsn = match stmt {
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
                let pk = schema.indexes_of(&primary_key)?;
                change_schema(engine, sql, |c| c.create_table(&name, schema, pk).map(drop))?
            }
            Statement::DropTable { name } => {
                self.with_table_lock_by_name(&name, LockMode::Exclusive, |eng| {
                    change_schema(eng, sql, |c| c.drop_table(&name))
                })?
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
            } => self.with_table_lock_by_name(&table, LockMode::Exclusive, |eng| {
                change_schema(eng, sql, |c| {
                    let id = c.resolve_table(&table)?;
                    let cols = c.table(id)?.meta.schema.indexes_of(&columns)?;
                    c.create_index(&name, id, cols, unique).map(drop)
                })
            })?,
            Statement::DropIndex { name } => change_schema(engine, sql, |c| c.drop_index(&name))?,
            Statement::Modify { table, to } => {
                let to: StorageStructure = to.parse()?;
                self.with_table_lock_by_name(&table, LockMode::Exclusive, |eng| {
                    change_schema(eng, sql, |c| c.modify_storage(c.resolve_table(&table)?, to))
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
                    change_schema(engine, sql, |c| {
                        let id = c.resolve_table(&table)?;
                        let cols = c.table(id)?.meta.schema.indexes_of(&columns)?;
                        c.collect_statistics_snapshot(id, &cols, now_secs, &snap)
                    })
                })?
            }
            _ => return Err(Error::unsupported("not a schema change")),
        };
        if let Some(lsn) = lsn {
            engine.wal.commit_barrier(lsn)?;
        }
        engine.plan_cache.invalidate_all();
        Ok(StatementResult::default())
    }

    /// `SET name = value`. `trace`/`tracing` flips runtime tracing, the one
    /// setting a running engine can change; any other name is refused with
    /// [`Error::unsupported`]. This is the target of both the SQL `SET`
    /// statement and the [`Connection`](ingot_common::Connection) trait's
    /// `set` verb, embedded or over the wire.
    pub fn set_option(&self, name: &str, value: &Value) -> Result<StatementResult> {
        if !matches!(name.to_ascii_lowercase().as_str(), "trace" | "tracing") {
            return Err(Error::unsupported(format!(
                "SET {name}: unknown setting (only `trace` can be set on a running engine)"
            )));
        }
        let on = match value {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Str(s) => matches!(s.to_ascii_lowercase().as_str(), "on" | "true" | "1"),
            _ => return Err(Error::execution("SET trace expects a boolean")),
        };
        self.engine.set_tracing(on);
        Ok(StatementResult::default())
    }

    /// `EXPLAIN <stmt>`: the chosen plan, rendered one line per row.
    pub(super) fn run_explain(&self, inner: &Statement) -> Result<StatementResult> {
        let engine = &*self.engine;
        let catalog = engine.catalog.read();
        let (bound, _) = Binder::new(&catalog).bind(inner)?;
        let planned = optimize(&catalog, &bound, OptimizerOptions::default())?;
        let text = planned.explain(&catalog)?;
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

/// Apply `change` under the catalog write guard and, before the guard
/// drops, append the `Ddl` record of `sql` (see [`Session::run_ddl`]).
/// `None` during replay, which appends nothing.
fn change_schema(
    engine: &Engine,
    sql: &str,
    change: impl FnOnce(&mut Catalog) -> Result<()>,
) -> Result<Option<Lsn>> {
    let mut catalog = engine.catalog.write();
    change(&mut catalog)?;
    let ddl = WalRecord::Ddl { sql: sql.into() };
    (!engine.wal.is_replaying())
        .then(|| engine.wal.append(&ddl))
        .transpose()
}
