//! DML execution: INSERT, UPDATE, DELETE, plus the top-level statement
//! dispatcher.
//!
//! UPDATE and DELETE find their target rows through the access path the
//! optimizer planned for them — the `SeqScan` or `IndexScan` a `SELECT`
//! with the same WHERE takes — run by the same access loop that
//! serves queries (`crate::scan::access`). Every target is collected before
//! the first write, so no write feeds the scan that finds the rows.
//!
//! Writes are MVCC row-level (PR 8): target resolution reads the statement's
//! snapshot, then each target's version chain is locked at its *root* (a
//! row-exclusive lock — writers never lock the table exclusively) and the
//! write applies to the chain head. When the head moved past the snapshot,
//! [`ExecCtx::retarget`] decides between first-committer-wins abort (explicit
//! transactions) and re-evaluating the statement against the new head
//! (auto-commit, which preserves the no-lost-updates behaviour of the old
//! table-lock protocol).

use ingot_catalog::{Catalog, CheckedRow, TableEntry, VersionChange, WriteAs};
use ingot_common::mvcc::{is_txn_mark, mark_owner, TS_INF};
use ingot_common::{fnv1a64, Error, MonotonicClock, Result, Row, Snapshot, TableId, TxnId, Value};
use ingot_planner::{InsertRows, PhysExpr, PhysPlan, PlanNode, PlannedStatement};
use ingot_storage::RowId;
use ingot_trace::{OperatorSpan, SpanCollector};
use ingot_txn::{LockManager, LockMode, Resource};

use crate::exec::{in_span, run_query, QueryResult};
use crate::scan::access;

/// The outcome of executing any statement.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// Result rows (queries only).
    pub rows: Vec<Row>,
    /// Rows inserted/updated/deleted (DML only).
    pub affected: u64,
    /// Tuples processed (actual CPU cost proxy).
    pub tuples: u64,
}

/// Everything a statement needs to read, write and be observed consistently
/// under MVCC — the one context every execution path runs under.
#[derive(Clone, Copy)]
pub struct ExecCtx<'a> {
    /// The visibility snapshot: queries and DML target resolution read it.
    pub snap: Snapshot,
    /// How new versions are stamped (transaction marker or final timestamp).
    pub write: WriteAs,
    /// Row-lock manager plus the locking transaction. `None` runs unlocked —
    /// single-threaded callers only (WAL replay, bulk load, tests).
    pub locks: Option<(&'a LockManager, TxnId)>,
    /// When a target row's chain grew past the snapshot: `true` re-reads the
    /// head, re-evaluates the predicate and applies there (auto-commit
    /// semantics — no lost updates, no spurious aborts); `false` fails the
    /// statement with [`Error::WriteConflict`] (explicit transactions,
    /// first-committer-wins).
    pub retarget: bool,
    /// Receives every row mutation (the engine's WAL/undo recorder).
    pub observer: &'a dyn DmlObserver,
    /// Span collection: with a clock, [`execute`] returns operator spans
    /// timed on it; with `None` no collector is built and no span allocated.
    pub trace: Option<MonotonicClock>,
}

impl ExecCtx<'static> {
    /// Unlocked, latest-snapshot, committed-at-0, unobserved, untraced
    /// context: the behaviour of the pre-MVCC direct write path.
    /// Single-threaded callers only.
    pub fn direct() -> Self {
        ExecCtx {
            snap: Snapshot::latest(),
            write: WriteAs::Committed(0),
            locks: None,
            retarget: false,
            observer: &NoopObserver,
            trace: None,
        }
    }
}

/// Row-mutation callback, invoked after each successful catalog mutation.
///
/// The engine uses this to write WAL records and undo entries without the
/// executor knowing about either. An `Err` from a callback aborts the
/// statement mid-way; the engine's transaction machinery is responsible for
/// undoing the versions already applied (each callback receives the
/// [`VersionChange`]s *before* its fallible part runs, so the undo list is
/// always complete).
pub trait DmlObserver {
    /// `row` — the schema-coerced image, as stored — was inserted into
    /// `table` at `rid`.
    fn on_insert(
        &self,
        table: TableId,
        rid: RowId,
        row: &Row,
        change: &VersionChange,
    ) -> Result<()>;
    /// The row `old` at `rid` was delete-marked in `table`.
    fn on_delete(
        &self,
        table: TableId,
        rid: RowId,
        old: &Row,
        change: &VersionChange,
    ) -> Result<()>;
    /// `old` at `old_rid` was superseded by `new` at `new_rid` (two changes
    /// when the update moved the primary key: delete-mark + fresh insert).
    fn on_update(
        &self,
        table: TableId,
        old_rid: RowId,
        new_rid: RowId,
        old: &Row,
        new: &Row,
        changes: &[VersionChange],
    ) -> Result<()>;
}

/// Observer that records nothing (query paths, replay, tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl DmlObserver for NoopObserver {
    fn on_insert(
        &self,
        _table: TableId,
        _rid: RowId,
        _row: &Row,
        _change: &VersionChange,
    ) -> Result<()> {
        Ok(())
    }
    fn on_delete(
        &self,
        _table: TableId,
        _rid: RowId,
        _old: &Row,
        _change: &VersionChange,
    ) -> Result<()> {
        Ok(())
    }
    fn on_update(
        &self,
        _table: TableId,
        _old_rid: RowId,
        _new_rid: RowId,
        _old: &Row,
        _new: &Row,
        _changes: &[VersionChange],
    ) -> Result<()> {
        Ok(())
    }
}

/// Execute a planned statement under `ctx`: queries read the context's
/// snapshot (lock-free), DML locks row chains, stamps versions per the
/// context's write mode and reports each mutation to its observer.
///
/// With `ctx.trace` set, queries return a full per-operator span tree and
/// writing DML one span covering the whole statement, above the span of the
/// access path that found an UPDATE's or DELETE's rows; otherwise the span
/// vector is empty.
pub fn execute(
    catalog: &Catalog,
    planned: &PlannedStatement,
    ctx: &ExecCtx<'_>,
) -> Result<(ExecOutcome, Vec<OperatorSpan>)> {
    let (op, table, est_rows, est_cost) = match planned {
        PlannedStatement::Query(q) => {
            let (QueryResult { rows, tuples }, spans) =
                run_query(catalog, &q.root, &ctx.snap, ctx.trace)?;
            let outcome = ExecOutcome {
                rows,
                affected: 0,
                tuples,
            };
            return Ok((outcome, spans));
        }
        PlannedStatement::Insert { table, rows, est } => ("Insert", table, rows.len() as f64, est),
        PlannedStatement::Update { table, access, .. } => {
            ("Update", table, access.est_rows, &access.est_cost)
        }
        PlannedStatement::Delete { table, access } => {
            ("Delete", table, access.est_rows, &access.est_cost)
        }
    };
    let Some(mut collector) = ctx.trace.map(SpanCollector::new) else {
        return Ok((execute_dml(catalog, planned, ctx, None)?, Vec::new()));
    };
    let detail = match catalog.table(*table) {
        Ok(entry) => format!(" on {}", entry.meta.name),
        Err(_) => String::new(),
    };
    let io_before = catalog.pool().io_stats().total();
    let frame = collector.enter(op, detail, est_rows, est_cost.total());
    let outcome = execute_dml(catalog, planned, ctx, Some(&mut collector))?;
    let pages = catalog.pool().io_stats().total().saturating_sub(io_before);
    collector.exit(frame, outcome.affected, outcome.tuples, pages);
    Ok((outcome, collector.finish()))
}

/// The writing statements: INSERT, UPDATE, DELETE. `trace` receives the
/// span of the access path that finds an UPDATE's or DELETE's rows.
fn execute_dml(
    catalog: &Catalog,
    planned: &PlannedStatement,
    ctx: &ExecCtx<'_>,
    trace: Option<&mut SpanCollector>,
) -> Result<ExecOutcome> {
    let (table, access, sets) = match planned {
        PlannedStatement::Query(_) => {
            return Err(Error::execution("execute_dml given a query plan"))
        }
        PlannedStatement::Insert { table, rows, .. } => {
            let mut n = 0u64;
            match rows {
                InsertRows::Const(rows) => {
                    for row in rows {
                        insert_one(catalog, *table, row, ctx)?;
                        n += 1;
                    }
                }
                // Parameterised templates: values were unknown at bind time,
                // so evaluate and constraint-check each row here.
                InsertRows::Dynamic(exprs) => {
                    let empty = Row::default();
                    for row_exprs in exprs {
                        let values: Vec<Value> = row_exprs
                            .iter()
                            .map(|e| e.eval(&empty))
                            .collect::<Result<_>>()?;
                        insert_one(catalog, *table, &Row::new(values), ctx)?;
                        n += 1;
                    }
                }
            }
            return Ok(ExecOutcome {
                rows: Vec::new(),
                affected: n,
                tuples: n,
            });
        }
        PlannedStatement::Update {
            table,
            sets,
            access,
        } => (*table, access, Some(sets)),
        PlannedStatement::Delete { table, access } => (*table, access, None),
    };
    let entry = catalog.table(table)?;
    let mut tuples = 0u64;
    let targets = targets(catalog, access, &ctx.snap, &mut tuples, trace)?;
    let mut affected = 0u64;
    for (rid, row) in targets {
        let Some((head, head_row)) = resolve_for_write(entry, table, rid, row, access, ctx)? else {
            continue;
        };
        match sets {
            Some(sets) => update_one(catalog, entry, head, head_row, sets, ctx)?,
            None => {
                let change = catalog.delete_row_v(table, head, ctx.write)?;
                ctx.observer.on_delete(table, head, &head_row, &change)?;
            }
        }
        affected += 1;
    }
    Ok(ExecOutcome {
        rows: Vec::new(),
        affected,
        tuples,
    })
}

/// Supersede the chain head `head` (holding `head_row`) of `entry` by the
/// row `sets` makes of it.
fn update_one(
    catalog: &Catalog,
    entry: &TableEntry,
    head: RowId,
    head_row: Row,
    sets: &[(usize, PhysExpr)],
    ctx: &ExecCtx<'_>,
) -> Result<()> {
    let table = entry.meta.id;
    let mut new_row = head_row.clone();
    for (col, expr) in sets {
        new_row.set(*col, expr.eval(&head_row)?);
    }
    lock_constraint_keys(catalog, table, &entry.check_row(&new_row)?, ctx)?;
    let changes = catalog.update_row_v(table, head, &new_row, ctx.write)?;
    let new_rid = changes
        .iter()
        .rev()
        .find_map(|c| match c {
            VersionChange::Update { new, .. } | VersionChange::Insert { new, .. } => Some(*new),
            VersionChange::Delete { .. } => None,
        })
        .unwrap_or(head);
    ctx.observer
        .on_update(table, head, new_rid, &head_row, &new_row, &changes)
}

/// The `(RowId, Row)` targets of an UPDATE or DELETE: every row its planned
/// `access` path finds under `snap`, in that node's span when tracing. All
/// are collected before the first write, so no write feeds the scan. The
/// row ids are *visible version* ids; [`resolve_for_write`] maps them to
/// chain heads under the row lock.
fn targets(
    catalog: &Catalog,
    access_path: &PlanNode,
    snap: &Snapshot,
    tuples: &mut u64,
    trace: Option<&mut SpanCollector>,
) -> Result<Vec<(RowId, Row)>> {
    let mut out = Vec::new();
    in_span(
        catalog,
        access_path,
        tuples,
        trace,
        |tuples, _| {
            access(catalog, access_path, snap, tuples, |rid, row| {
                out.push((rid, std::mem::take(row)));
                Ok(())
            })
        },
        |&n| n,
    )?;
    Ok(out)
}

/// Insert one row through the full MVCC write path: the schema check (once:
/// the checked row and its encoded key serve every later step),
/// constraint-key row locks, a versioned catalog insert, and the observer
/// callback. Shared by the INSERT statement path and the engine's
/// parse-free bulk-load entry.
pub fn insert_one(
    catalog: &Catalog,
    table: TableId,
    row: &Row,
    ctx: &ExecCtx<'_>,
) -> Result<RowId> {
    let checked = catalog.table(table)?.check_row(row)?;
    lock_constraint_keys(catalog, table, &checked, ctx)?;
    let change = catalog.insert_checked_v(table, &checked, ctx.write)?;
    let VersionChange::Insert { new, .. } = &change else {
        return Err(Error::execution("insert produced a non-insert change"));
    };
    ctx.observer
        .on_insert(table, *new, checked.row(), &change)?;
    Ok(*new)
}

/// Serialise check-then-act constraint enforcement across writers: take a
/// row-exclusive lock on a hash of each key the statement is about to claim
/// (the primary key, and every unique secondary index value). Two inserts
/// racing on the same key collide on the lock instead of both passing the
/// duplicate check. Hash collisions with real chain-root lock keys only
/// over-serialise; they cannot break correctness.
fn lock_constraint_keys(
    catalog: &Catalog,
    table: TableId,
    checked: &CheckedRow,
    ctx: &ExecCtx<'_>,
) -> Result<()> {
    let Some((mgr, txn)) = ctx.locks else {
        return Ok(());
    };
    let row = checked.row();
    if let Some(key) = checked.pk_key() {
        mgr.lock(txn, Resource::Row(table, fnv1a64(key)), LockMode::Exclusive)?;
    }
    for idx in catalog.indexes_of(table) {
        if idx.meta.unique {
            let vals: Vec<Value> = idx
                .meta
                .columns
                .iter()
                .map(|&c| row.get(c).clone())
                .collect();
            let mut buf = idx.meta.id.raw().to_le_bytes().to_vec();
            buf.extend_from_slice(&ingot_storage::encode_key(&vals));
            mgr.lock(
                txn,
                Resource::Row(table, fnv1a64(&buf)),
                LockMode::Exclusive,
            )?;
        }
    }
    Ok(())
}

/// Lock a target's chain root and re-resolve the write position at the
/// chain head. Returns `None` when the target should be skipped (vanished
/// or no longer matching under retargeting), the head `(RowId, Row)` to
/// supersede otherwise. A retargeted head is re-checked against the filter
/// of the `access` node that found the target, which holds every conjunct
/// of the statement's WHERE.
fn resolve_for_write(
    entry: &TableEntry,
    table: TableId,
    visible: RowId,
    visible_row: Row,
    access: &PlanNode,
    ctx: &ExecCtx<'_>,
) -> Result<Option<(RowId, Row)>> {
    let meta = entry.heap.meta(visible)?;
    if let Some((mgr, txn)) = ctx.locks {
        mgr.lock(
            txn,
            Resource::Row(table, meta.root_for(visible)),
            LockMode::Exclusive,
        )?;
    }
    // The row lock serialises writers on this chain, so the head is stable
    // from here until our own write lands. The pre-lock `meta` may be stale
    // (a writer can supersede `visible` while we wait for the lock), so the
    // chain walk re-reads it under the lock.
    let mut head = visible;
    let mut hmeta = entry.heap.meta(visible)?;
    while hmeta.next != TS_INF {
        head = RowId::unpack(hmeta.next);
        hmeta = entry.heap.meta(head)?;
    }
    if hmeta.end != TS_INF {
        // Delete-marked (or committed-dead) head: the row vanished after our
        // snapshot. Own deletes were already invisible at target resolution.
        let own_mark = matches!(ctx.write, WriteAs::Txn(t)
            if is_txn_mark(hmeta.end) && mark_owner(hmeta.end) == t);
        if ctx.retarget || own_mark {
            return Ok(None);
        }
        return Err(Error::write_conflict(format!(
            "row in '{}' was deleted after this snapshot",
            entry.meta.name
        )));
    }
    if head == visible {
        return Ok(Some((head, visible_row)));
    }
    // The chain grew past our snapshot: first committer wins for explicit
    // transactions; auto-commit retargets onto the new head.
    if !ctx.retarget {
        return Err(Error::write_conflict(format!(
            "row in '{}' was changed after this snapshot",
            entry.meta.name
        )));
    }
    let (_, head_row) = entry.heap.get_version(head)?;
    let (PhysPlan::SeqScan { filter, .. } | PhysPlan::IndexScan { filter, .. }) = &access.op else {
        return Err(Error::execution(
            "a write's rows come from a base-table access",
        ));
    };
    match filter {
        Some(f) if !f.eval_predicate(&head_row)? => Ok(None),
        _ => Ok(Some((head, head_row))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_catalog::StorageStructure;
    use ingot_common::{Column, DataType, EngineConfig, Schema, SimClock};
    use ingot_planner::{optimize, Binder, OptimizerOptions};
    use ingot_sql::parse_statement;
    use ingot_storage::StorageEngine;
    use std::sync::Arc;

    fn setup() -> Catalog {
        let cfg = EngineConfig::default();
        let storage = StorageEngine::in_memory(&cfg, SimClock::new());
        let mut c = Catalog::new(Arc::clone(storage.pool()), 4);
        c.create_table(
            "t",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
            vec![0],
        )
        .unwrap();
        c
    }

    fn plan(c: &Catalog, sql: &str) -> PlannedStatement {
        let (bound, _) = Binder::new(c).bind(&parse_statement(sql).unwrap()).unwrap();
        optimize(c, &bound, OptimizerOptions::default()).unwrap()
    }

    fn exec(c: &mut Catalog, sql: &str) -> ExecOutcome {
        let planned = plan(c, sql);
        execute(c, &planned, &ExecCtx::direct()).unwrap().0
    }

    #[test]
    fn insert_update_delete_roundtrip() {
        let mut c = setup();
        let out = exec(&mut c, "insert into t values (1, 10), (2, 20), (3, 30)");
        assert_eq!(out.affected, 3);
        let out = exec(&mut c, "update t set v = v + 5 where id = 2");
        assert_eq!(out.affected, 1);
        let r = exec(&mut c, "select v from t where id = 2");
        assert_eq!(r.rows[0].get(0), &Value::Int(25));
        // Traced, the same write reports its span above its access path's
        // and no other difference in outcome.
        let traced = ExecCtx {
            trace: Some(MonotonicClock::new()),
            ..ExecCtx::direct()
        };
        let (out, spans) = execute(&c, &plan(&c, "delete from t where v > 20"), &traced).unwrap();
        assert_eq!(out.affected, 2); // 25 and 30
        let shape: Vec<_> = spans
            .iter()
            .map(|s| (s.op.as_str(), s.parent, s.rows_out, s.tuples))
            .collect();
        assert_eq!(shape, [("Delete", None, 2, 0), ("SeqScan", Some(0), 2, 3)]);
        let r = exec(&mut c, "select count(*) from t");
        assert_eq!(r.rows[0].get(0), &Value::Int(1));
    }

    #[test]
    fn update_via_pk_lookup_scans_one_row() {
        let mut c = setup();
        for i in 0..500 {
            exec(&mut c, &format!("insert into t values ({i}, {})", i * 2));
        }
        let t = c.resolve_table("t").unwrap();
        c.modify_storage(t, StorageStructure::BTree).unwrap();
        let out = exec(&mut c, "update t set v = 0 where id = 250");
        assert_eq!(out.affected, 1);
        assert_eq!(out.tuples, 1, "pk path must not scan the table");
    }

    #[test]
    fn delete_via_secondary_index() {
        let mut c = setup();
        let t = c.resolve_table("t").unwrap();
        // Enough heap pages that ten random fetches beat reading them all.
        for i in 0..6000 {
            c.insert_row(t, &Row::new(vec![Value::Int(i), Value::Int(i % 600)]))
                .unwrap();
        }
        let t_v = c.create_index("t_v", t, vec![1], false).unwrap();
        // With statistics the optimizer prices `v = 3` at ten rows, and
        // probes the index.
        c.collect_statistics(t, &[], 0).unwrap();
        let planned = plan(&c, "delete from t where v = 3");
        let PlannedStatement::Delete { access, .. } = &planned else {
            panic!("{planned:?}")
        };
        assert_eq!(access.op_name(), "IndexScan");
        assert_eq!(planned.used_indexes(), [t_v]);
        let out = exec(&mut c, "delete from t where v = 3");
        assert_eq!(out.affected, 10);
        assert!(out.tuples <= 10, "index path must not scan the table");
        let r = exec(&mut c, "select count(*) from t where v = 3");
        assert_eq!(r.rows[0].get(0), &Value::Int(0));
    }

    #[test]
    fn update_that_moves_pk() {
        let mut c = setup();
        exec(&mut c, "insert into t values (1, 10)");
        let t = c.resolve_table("t").unwrap();
        c.modify_storage(t, StorageStructure::BTree).unwrap();
        let out = exec(&mut c, "update t set id = 99 where id = 1");
        assert_eq!(out.affected, 1);
        let r = exec(&mut c, "select v from t where id = 99");
        assert_eq!(r.rows.len(), 1);
        let r = exec(&mut c, "select v from t where id = 1");
        assert!(r.rows.is_empty());
    }

    #[test]
    fn txn_writes_are_private_until_stamped() {
        let mut c = setup();
        exec(&mut c, "insert into t values (1, 10)");
        let txn = TxnId(3);
        let ctx = ExecCtx {
            snap: Snapshot { ts: 5, txn },
            write: WriteAs::Txn(txn),
            ..ExecCtx::direct()
        };
        let planned = plan(&c, "update t set v = 99 where id = 1");
        let out = execute(&c, &planned, &ctx).unwrap().0;
        assert_eq!(out.affected, 1);

        // A foreign snapshot still reads the original value...
        let select = plan(&c, "select v from t where id = 1");
        let foreign = ExecCtx {
            snap: Snapshot {
                ts: 5,
                txn: TxnId(8),
            },
            ..ExecCtx::direct()
        };
        let r = execute(&c, &select, &foreign).unwrap().0;
        assert_eq!(r.rows[0].get(0), &Value::Int(10));
        // ...while the writer sees its own uncommitted version.
        let own = ExecCtx {
            snap: Snapshot { ts: 5, txn },
            ..ExecCtx::direct()
        };
        let r = execute(&c, &select, &own).unwrap().0;
        assert_eq!(r.rows[0].get(0), &Value::Int(99));
    }

    #[test]
    fn stale_snapshot_write_conflicts_without_retarget() {
        let mut c = setup();
        exec(&mut c, "insert into t values (1, 10)");
        // A commits an update at ts 4.
        let upd = plan(&c, "update t set v = 20 where id = 1");
        let a = ExecCtx {
            snap: Snapshot::latest(),
            write: WriteAs::Committed(4),
            ..ExecCtx::direct()
        };
        execute(&c, &upd, &a).unwrap();
        // B, whose snapshot predates A's commit, must lose.
        let upd_b = plan(&c, "update t set v = 30 where id = 1");
        let b = ExecCtx {
            snap: Snapshot {
                ts: 3,
                txn: TxnId(7),
            },
            write: WriteAs::Txn(TxnId(7)),
            ..ExecCtx::direct()
        };
        let err = execute(&c, &upd_b, &b).unwrap_err();
        assert!(matches!(err, Error::WriteConflict(_)), "got {err:?}");
        // With retargeting (auto-commit) the same statement lands on the
        // new head instead.
        let b_auto = ExecCtx {
            retarget: true,
            ..b
        };
        let out = execute(&c, &upd_b, &b_auto).unwrap().0;
        assert_eq!(out.affected, 1);
    }
}
