//! The statement path: a [`Session`] runs every statement through
//! `execute_with_params → execute_inner → run_fresh / run_planned`, feeding
//! the monitor's sensors, the tracer and the ASH slot on the way. The whole
//! tail stays in this one module so it is compiled as one unit.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ingot_common::waits::{bind_session, WaitTotal};
use ingot_common::{
    Connection, Cost, Error, PreparedStatement, Result, Row, SessionId, Snapshot, StmtHash,
    TableId, TxnId, Value,
};
use ingot_executor::{dml::insert_one, execute};
use ingot_planner::{
    optimize, template_key, Binder, BoundStatement, CachedPlan, OptimizerOptions, PlannedStatement,
};
use ingot_sql::{param_count, parse_statement, Statement};
use ingot_storage::RowId;
use ingot_trace::{render_operator_tree, OperatorSpan, Stage, TraceBuilder};
use ingot_txn::{AbortCause, LockMode, Resource};
use parking_lot::Mutex;

use super::commit::WalDmlObserver;
use super::{Engine, StatementResult};
use crate::ash::ActiveSession;
use crate::monitor::{KeptCell, StatementSensor};

impl Engine {
    /// Open a session.
    pub fn open_session(self: &Arc<Self>) -> Session {
        let id = self.sessions.open();
        let ash = self.ash.as_ref().map(|s| s.register_session(id.raw()));
        Session {
            id,
            engine: Arc::clone(self),
            txn: Mutex::new(None),
            snap: Mutex::new(None),
            ash,
        }
    }
}

/// The two per-statement observers every step of the statement path feeds:
/// the monitor's sensor record and, while runtime tracing is on, the stage /
/// operator span builder. Either may be absent; the helpers are no-ops then.
struct Probes<'a> {
    /// The statement's `ima$statements` key (0 when the monitor is off).
    hash: StmtHash,
    sensor: Option<StatementSensor<'a>>,
    trace: Option<TraceBuilder>,
}

impl Probes<'_> {
    /// Charge monitoring bookkeeping time to the statement's `monitor_ns`.
    fn add_self_time(&mut self, ns: u64) {
        if let Some(s) = self.sensor.as_mut() {
            s.add_self_time(ns);
        }
    }

    /// Record a completed pipeline stage.
    fn stage(&mut self, stage: Stage, elapsed_ns: u64) {
        if let Some(tb) = self.trace.as_mut() {
            tb.stage(stage, elapsed_ns);
        }
    }
}

/// What [`Session::run_planned`] does differently per path: the two facts
/// about where its plan came from.
#[derive(Default)]
struct PlanOrigin {
    /// `(opt_ns, opt_io)` when the plan was just optimized. `None` for a plan
    /// probed out of the cache: the optimizer cost this statement nothing,
    /// and the schema epoch is re-verified under the execution snapshot.
    optimized: Option<(u64, u64)>,
    /// `EXPLAIN ANALYZE`: operator spans are collected whether or not
    /// tracing is on and rendered as the result, with the waits accrued
    /// since these session totals (taken before planning).
    analyze: Option<Vec<WaitTotal>>,
}

/// A statement's identity, computed once per text (by [`Session::prepare`]
/// for a handle, at [`Session::execute`] for plain text) and handed to every
/// party that keys on it: monitor sensor, ASH slot, tracer and plan cache.
struct StmtIdentity {
    /// Hash of the raw text — the key of `ima$statements`. Only observers
    /// read it, so the bare engine does not compute it: a handle hashes at
    /// prepare, plain text inside the statement's begin region (`None`).
    hash: Option<StmtHash>,
    /// Whitespace-normalized text — the plan-cache key and the ASH template.
    template: Arc<str>,
    /// A monitored handle's statement cell, kept after its first execution
    /// so the next ones record without the monitor lock.
    kept: Option<KeptCell>,
}

/// A connection to the engine. Statements auto-commit unless an explicit
/// transaction is open via [`Session::begin`].
pub struct Session {
    pub(super) engine: Arc<Engine>,
    id: SessionId,
    txn: Mutex<Option<TxnId>>,
    /// The open explicit transaction's read snapshot, taken lazily at its
    /// first statement and held for the whole transaction (snapshot
    /// isolation). Auto-commit statements take a fresh snapshot each and
    /// never store it here.
    snap: Mutex<Option<Snapshot>>,
    /// This session's ASH slot (wait sink + current-statement cell);
    /// `None` when the wait subsystem is off.
    ash: Option<Arc<ActiveSession>>,
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some(txn) = self.txn.lock().take() {
            // An open transaction dropped without commit aborts: its data
            // changes are reversed and its locks release.
            self.engine.abort_txn_with(txn, AbortCause::User);
        }
        if let (Some(sampler), Some(slot)) = (&self.engine.ash, &self.ash) {
            sampler.deregister_session(slot.session_id());
        }
        self.engine.sessions.close();
    }
}

impl Session {
    /// This session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The engine behind the session.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Cumulative wait totals charged to this session, one row per
    /// [`ingot_common::WaitEvent`]. Empty when the wait subsystem is off.
    pub fn wait_totals(&self) -> Vec<WaitTotal> {
        self.ash
            .as_ref()
            .map(|s| s.waits().counters().snapshot())
            .unwrap_or_default()
    }

    /// This session's ASH slot (wait sink + current-statement cell), `None`
    /// when the wait subsystem is off. The server publishes each wire
    /// connection's slot into `ima$connections` so the fleet view shows the
    /// live wait event per peer.
    pub fn ash_slot(&self) -> Option<&Arc<ActiveSession>> {
        self.ash.as_ref()
    }

    /// Is an explicit transaction currently open on this session?
    pub fn in_transaction(&self) -> bool {
        self.txn.lock().is_some()
    }

    /// Open an explicit transaction (locks held until commit/rollback).
    pub fn begin(&self) -> Result<()> {
        let mut txn = self.txn.lock();
        if txn.is_some() {
            return Err(Error::execution("transaction already open"));
        }
        *txn = Some(self.engine.txns.begin());
        Ok(())
    }

    /// Commit the open transaction. The WAL `Commit` record reaches the
    /// configured durability barrier *before* any lock is released or the
    /// commit acknowledged; on a barrier failure the transaction is rolled
    /// back instead and the error returned — an un-durable commit is never
    /// acknowledged.
    pub fn commit(&self) -> Result<()> {
        let txn = self
            .txn
            .lock()
            .take()
            .ok_or_else(|| Error::execution("no open transaction"))?;
        *self.snap.lock() = None;
        self.engine.commit_txn(txn)
    }

    /// Roll back the open transaction: its data changes are reversed
    /// (logical undo, newest first), an `Abort` record is logged and its
    /// locks release.
    pub fn rollback(&self) -> Result<()> {
        let txn = self
            .txn
            .lock()
            .take()
            .ok_or_else(|| Error::execution("no open transaction"))?;
        *self.snap.lock() = None;
        self.engine.abort_txn_with(txn, AbortCause::User);
        Ok(())
    }

    /// Execute one SQL statement. This is the prepared path with zero
    /// parameters: the same plan-cache probe, sensors and locking as
    /// [`Prepared::execute`], so repeated texts skip parse/bind/optimize.
    pub fn execute(&self, sql: &str) -> Result<StatementResult> {
        let id = StmtIdentity {
            hash: None,
            template: template_key(sql),
            kept: None,
        };
        self.execute_with_params(sql, &id, &[])
    }

    /// Validate `sql` once and return a reusable handle that executes it
    /// with bound parameter values (`$1`… or `?` markers).
    pub fn prepare(&self, sql: &str) -> Result<Prepared<'_>> {
        let stmt = parse_statement(sql)?;
        let monitored = self.engine.monitor.is_some();
        Ok(Prepared {
            session: self,
            text: sql.to_owned(),
            identity: StmtIdentity {
                hash: monitored.then(|| StmtHash::of(sql)),
                template: template_key(sql),
                kept: monitored.then(KeptCell::default),
            },
            param_count: param_count(&stmt),
        })
    }

    /// Insert one already-typed row into `table`, bypassing SQL but using
    /// the same locking, WAL and undo path as `INSERT`. The storage daemon's
    /// workload-DB writer batches thousands of rows per poll through this —
    /// one parse-free call each inside a single explicit transaction, so the
    /// whole batch rides one durability barrier at commit.
    pub fn insert_direct(&self, table: &str, row: &Row) -> Result<RowId> {
        let engine = &*self.engine;
        let id = engine.catalog.read().resolve_table(table)?;
        self.in_txn(|txn, auto| {
            // Table-shared lock = DDL fence only; the insert itself takes
            // row-level constraint-key locks inside `insert_one`.
            engine
                .locks
                .lock(txn, Resource::Table(id), LockMode::Shared)?;
            let catalog = engine.catalog.read();
            let observer = WalDmlObserver {
                engine,
                catalog: &catalog,
                txn,
            };
            insert_one(
                &catalog,
                id,
                row,
                &observer.exec_ctx(Snapshot::latest(), auto, None),
            )
        })
    }

    fn execute_with_params(
        &self,
        sql: &str,
        id: &StmtIdentity,
        params: &[Value],
    ) -> Result<StatementResult> {
        let engine = &*self.engine;
        // The statement's own start stamp; it also opens the observers'
        // begin region.
        let start_ns = engine.wall.now_nanos();
        let hash = match (id.hash, &engine.monitor) {
            (Some(hash), _) => hash,
            (None, Some(_)) => StmtHash::of(sql),
            (None, None) => StmtHash(0),
        };
        let mut probes = Probes {
            hash,
            // Query-interface sensor: wall-clock start + text hash.
            sensor: engine.monitor.as_ref().map(|m| {
                let mut sensor = m.begin_statement(hash, sql, start_ns);
                if let Some(kept) = &id.kept {
                    sensor.keep_cell_in(kept);
                }
                sensor
            }),
            // Structured tracing: one atomic load when disabled, a
            // stage/span builder when enabled.
            trace: engine
                .tracer
                .as_ref()
                .filter(|t| t.enabled())
                .map(|_| TraceBuilder::new(engine.wall)),
        };

        // Wait-event accounting: publish this statement to the session's
        // ASH slot, give the cooperative sampler its tick, and bind the
        // session's wait sink to this thread so guards anywhere down the
        // stack (locks, WAL, buffer pool, retry) charge it.
        let mut wait_before = 0u64;
        let _wait_binding = self.ash.as_ref().map(|slot| {
            wait_before = slot.waits().total_ns();
            slot.begin_statement(hash, &id.template, start_ns);
            if let Some(sampler) = &engine.ash {
                sampler.sample_if_due(start_ns);
            }
            bind_session(Arc::clone(slot.waits()))
        });
        if let Some(s) = probes.sensor.as_mut() {
            s.add_self_time(engine.wall.now_nanos() - start_ns);
        }

        let io_before = engine.io_stats();
        let outcome = self.execute_inner(sql, id, params, &mut probes);
        let io_pages = engine.io_stats().delta_since(&io_before).total();
        let executed = engine.statements_executed.fetch_add(1, Ordering::Relaxed) + 1;
        // The statement's own end stamp. Everything below is observer work,
        // charged to `monitor_ns` as one region that `Monitor::record`
        // closes with its single clock read.
        let end_ns = engine.wall.now_nanos();

        if let Some(slot) = &self.ash {
            if let Some(sampler) = &engine.ash {
                sampler.sample_if_due(end_ns);
            }
            slot.end_statement();
        }

        let outcome = match outcome {
            Ok(mut result) => {
                result.actual_cost.io = io_pages as f64;
                result.wallclock_ns = end_ns - start_ns;
                if let Some(slot) = &self.ash {
                    result.wait_ns = slot.waits().total_ns().saturating_sub(wait_before);
                }
                // Hand the finished trace to the tracer before the monitor
                // records: the tracer's bookkeeping falls inside the record
                // region, so it lands in this statement's monitor_ns (Fig 5
                // stays honest).
                if let (Some(tracer), Some(tb)) = (&engine.tracer, probes.trace.take()) {
                    tracer.record_statement(tb.finish(hash, result.wallclock_ns));
                }
                if let (Some(monitor), Some(mut s)) = (&engine.monitor, probes.sensor.take()) {
                    s.executed(result.actual_cost.cpu as u64, io_pages);
                    monitor.record(s, end_ns, engine.sim_clock.now_secs());
                }
                Ok(result)
            }
            Err(e) => {
                // Failed statements are not recorded (the paper logs executed
                // statements); a deadlock victim's or first-committer-wins
                // loser's transaction is aborted, classified by cause.
                if matches!(e, Error::Deadlock { .. } | Error::WriteConflict(_)) {
                    if let Some(txn) = self.txn.lock().take() {
                        *self.snap.lock() = None;
                        self.engine.abort_txn_with(txn, AbortCause::from_error(&e));
                    }
                }
                Err(e)
            }
        };
        // Periodic statistics sampling from within the engine, every 64th
        // statement by this statement's own count, failed or not.
        if executed.is_multiple_of(64) {
            engine.sample_statistics();
        }
        outcome
    }

    fn execute_inner(
        &self,
        sql: &str,
        id: &StmtIdentity,
        params: &[Value],
        probes: &mut Probes,
    ) -> Result<StatementResult> {
        let engine = &*self.engine;
        // Plan-cache probe *before* parsing: a hit executes the memoized
        // template without touching parser, binder or optimizer. The bare
        // engine probes too, so this is statement time, not monitor_ns.
        if engine.plan_cache.capacity() > 0 {
            let epoch = engine.catalog.read().epoch();
            if let Some(cached) = engine.plan_cache.probe(&id.template, epoch) {
                return self.run_planned(sql, id, cached, params, PlanOrigin::default(), probes);
            }
        }
        let parse_t0 = self.engine.wall.now_nanos();
        let stmt = parse_statement(sql)?;
        probes.stage(Stage::Parse, self.engine.wall.now_nanos() - parse_t0);
        // Every declared marker needs a bound value (the textual path binds
        // none, so a raw `$1` fails up front instead of deep in execution).
        let expected = param_count(&stmt);
        if expected != params.len() {
            return Err(Error::param_arity(expected, params.len()));
        }
        match stmt {
            Statement::Explain {
                analyze: false,
                inner,
            } => self.run_explain(&inner),
            Statement::Explain {
                analyze: true,
                inner,
            } => self.run_explain_analyze(sql, id, &inner, params, probes),
            Statement::Set { name, value } => self.set_option(&name, &value),
            dml @ (Statement::Select(_)
            | Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. }) => self.run_fresh(sql, id, &dml, params, probes),
            ddl => self.run_ddl(sql, ddl),
        }
    }

    /// Run `f` in the statement's transaction: the open explicit one, or a
    /// fresh auto-commit one that this scope owns from begin to finish. The
    /// auto-commit transaction commits when `f` succeeds — through the WAL
    /// durability barrier, so a commit that cannot be acknowledged replaces
    /// the result with its error — and aborts, classified by `f`'s error,
    /// when it fails. `f` is told whether the scope is auto-commit.
    pub(super) fn in_txn<T>(&self, f: impl FnOnce(TxnId, bool) -> Result<T>) -> Result<T> {
        let (txn, auto) = match *self.txn.lock() {
            Some(t) => (t, false),
            None => (self.engine.txns.begin(), true),
        };
        let out = f(txn, auto);
        if auto {
            match &out {
                Ok(_) => self.engine.commit_txn(txn)?,
                Err(e) => self.engine.abort_txn_with(txn, AbortCause::from_error(e)),
            }
        }
        out
    }

    /// The snapshot a statement of `txn` reads under: auto-commit statements
    /// take a fresh one, an explicit transaction takes one at its first
    /// statement and keeps it (snapshot isolation). Registered snapshots pin
    /// the version-chain GC watermark until the transaction retires.
    pub(super) fn statement_snapshot(&self, txn: TxnId, auto: bool) -> Snapshot {
        if auto {
            return self.engine.txns.snapshot(txn);
        }
        let mut snap = self.snap.lock();
        *snap.get_or_insert_with(|| self.engine.txns.snapshot(txn))
    }

    /// Bind and optimize a statement under the catalog read lock, stamping
    /// the Bind/Optimize stage spans. Returns the plan in its cacheable form
    /// (template, bind artifacts, lock footprint, the schema epoch of the
    /// snapshot it was optimized under) plus what the optimizer cost:
    /// planning time and the pages read on its behalf (catalog statistics,
    /// what-if probes into virtual indexes — the statement's `opt_io`).
    fn bind_and_optimize(
        &self,
        stmt: &Statement,
        param_count: usize,
        probes: &mut Probes,
    ) -> Result<(Arc<CachedPlan>, (u64, u64))> {
        let engine = &*self.engine;
        let catalog = engine.catalog.read();

        let bind_t0 = engine.wall.now_nanos();
        let (bound, mut artifacts) = Binder::new(&catalog).bind(stmt)?;
        probes.stage(Stage::Bind, engine.wall.now_nanos() - bind_t0);

        let io_before = engine.io_stats().total();
        let t0 = engine.wall.now_nanos();
        let planned = optimize(&catalog, &bound, OptimizerOptions::default())?;
        let opt_end = engine.wall.now_nanos();
        let opt_ns = opt_end - t0;
        let opt_io = engine.io_stats().total().saturating_sub(io_before);
        probes.stage(Stage::Optimize, opt_ns);
        if let Some(monitor) = &engine.monitor {
            // Monitor work, charged to the statement's monitor_ns: once
            // per template, the footprint and its objects' usage cells.
            let footprint = monitor.intern_footprint(&catalog, &artifacts, planned.used_indexes());
            artifacts.footprint = Some(footprint);
            probes.add_self_time(engine.wall.now_nanos() - opt_end);
        }
        let plan = CachedPlan {
            planned,
            artifacts,
            lock_spec: lock_spec(&bound),
            epoch: catalog.epoch(),
            param_count,
        };
        Ok((Arc::new(plan), (opt_ns, opt_io)))
    }

    /// Plan-cache miss: bind, optimize and memoize the template, then run it
    /// through the shared tail.
    fn run_fresh(
        &self,
        sql: &str,
        id: &StmtIdentity,
        stmt: &Statement,
        params: &[Value],
        probes: &mut Probes,
    ) -> Result<StatementResult> {
        let engine = &*self.engine;
        let (plan, optimized) = self.bind_and_optimize(stmt, params.len(), probes)?;
        // Memoize the optimized template *before* parameter substitution so
        // the cached plan stays reusable for any future binding. Everything
        // reaching run_fresh is cacheable: DDL, SET and EXPLAIN dispatch
        // elsewhere, and execution plans never use virtual indexes.
        engine
            .plan_cache
            .insert(Arc::clone(&id.template), Arc::clone(&plan));
        let origin = PlanOrigin {
            optimized: Some(optimized),
            analyze: None,
        };
        self.run_planned(sql, id, plan, params, origin, probes)
    }

    /// `EXPLAIN ANALYZE <stmt>`: plan the inner statement (never memoized)
    /// and run it through the shared tail, which collects operator spans
    /// regardless of runtime tracing and renders them in place of the
    /// statement's own rows.
    fn run_explain_analyze(
        &self,
        sql: &str,
        id: &StmtIdentity,
        inner: &Statement,
        params: &[Value],
        probes: &mut Probes,
    ) -> Result<StatementResult> {
        if matches!(inner, Statement::Explain { .. }) {
            return Err(Error::parse("EXPLAIN cannot be nested"));
        }
        // Wait baseline: everything this statement loses from here on —
        // lock acquisition included — shows up in the "Waits:" line.
        let waits_before = self.wait_totals();
        let (plan, optimized) = self.bind_and_optimize(inner, params.len(), probes)?;
        let origin = PlanOrigin {
            optimized: Some(optimized),
            analyze: Some(waits_before),
        };
        self.run_planned(sql, id, plan, params, origin, probes)
    }

    /// The one tail every planned statement runs through — cache hit, miss
    /// or `EXPLAIN ANALYZE`: substitute the bound values, lock the recorded
    /// footprint, snapshot the catalog, execute, stamp `Stage::Execute`,
    /// finish the auto-commit transaction and hand the plan to the
    /// monitor's parse/optimize sensors.
    ///
    /// The catalog snapshot is taken *after* lock acquisition: the schema of
    /// every locked table is stable (DDL takes the same table locks), so the
    /// statement sees current indexes and structure without ever holding an
    /// engine-wide lock. A cached plan re-verifies its schema epoch under
    /// that snapshot; on a mismatch (DDL raced in between probe and locks)
    /// it falls back to the full parse path — a stale plan never executes.
    fn run_planned(
        &self,
        sql: &str,
        id: &StmtIdentity,
        plan: Arc<CachedPlan>,
        params: &[Value],
        origin: PlanOrigin,
        probes: &mut Probes,
    ) -> Result<StatementResult> {
        let engine = &*self.engine;
        if params.len() != plan.param_count {
            return Err(Error::param_arity(plan.param_count, params.len()));
        }
        let substituted;
        let planned = if params.is_empty() {
            &plan.planned
        } else {
            substituted = plan.planned.substitute_params(params)?;
            &substituted
        };

        let executed = self.in_txn(|txn, auto| {
            self.acquire_locks(txn, &plan.lock_spec)?;
            let catalog = engine.catalog.read();
            if origin.optimized.is_none() && catalog.epoch() != plan.epoch {
                // The schema moved after the probe; nothing ran yet, so end
                // the scope (releasing the speculative locks of an
                // auto-commit statement) and replan fresh below. The next
                // probe of this template drops the stale entry.
                return Ok(None);
            }

            // DML versions are marked with `txn` and observed by its WAL/undo
            // recorder; EXPLAIN ANALYZE executes DML for real, so its
            // mutations are observed like any other statement's.
            let observer = WalDmlObserver {
                engine,
                catalog: &catalog,
                txn,
            };
            let ctx = observer.exec_ctx(
                self.statement_snapshot(txn, auto),
                auto,
                (origin.analyze.is_some() || probes.trace.is_some()).then_some(engine.wall),
            );
            let exec_t0 = engine.wall.now_nanos();
            let exec_result = execute(&catalog, planned, &ctx);
            let exec_ns = engine.wall.now_nanos() - exec_t0;
            drop(catalog);
            probes.stage(Stage::Execute, exec_ns);
            exec_result.map(|r| Some((r, exec_ns)))
        })?;
        let Some(((outcome, spans), exec_ns)) = executed else {
            let stmt = parse_statement(sql)?;
            return self.run_fresh(sql, id, &stmt, params, probes);
        };

        let mut result = StatementResult {
            rows: outcome.rows,
            affected: outcome.affected,
            est_cost: planned.estimated_cost(),
            actual_cost: Cost::cpu(outcome.tuples as f64),
            ..Default::default()
        };
        if let Some(waits_before) = origin.analyze {
            let text = self.render_analysis(
                &spans,
                outcome.tuples,
                outcome.affected,
                exec_ns,
                &waits_before,
            );
            result.rows = text
                .lines()
                .map(|l| Row::new(vec![Value::Str(l.to_owned())]))
                .collect();
            result.columns = vec!["query plan".to_owned()];
            // With tracing on, the spans ride the statement trace recorded
            // by `execute_with_params`; otherwise merge them into the
            // aggregates directly (keyed by the *outer* statement text, so
            // they join against `ima$statements`).
            if let (None, Some(tracer)) = (&probes.trace, &engine.tracer) {
                let dt = tracer.record_operators(probes.hash, &spans);
                probes.add_self_time(dt);
            }
        } else if let PlannedStatement::Query(q) = planned {
            result.columns = q.output_names.clone();
        }
        if let Some(tb) = probes.trace.as_mut() {
            tb.set_ops(spans);
        }
        // Parse and optimizer sensors, once the statement is done with its
        // plan: the plan itself, moved rather than shared (its interned
        // footprint names what the statement referenced), and the estimate;
        // a cache hit spent nothing in the optimizer. A few unstamped
        // stores, no clock read.
        if let Some(s) = probes.sensor.as_mut() {
            let (opt_ns, opt_io) = origin.optimized.unwrap_or((0, 0));
            s.optimized(result.est_cost, opt_ns, opt_io);
            s.parsed(plan);
        }
        Ok(result)
    }

    /// The `EXPLAIN ANALYZE` text: the annotated operator tree, the
    /// execution summary and — when the wait subsystem is on and the
    /// statement lost any time — the per-event wait breakdown.
    fn render_analysis(
        &self,
        spans: &[OperatorSpan],
        tuples: u64,
        affected: u64,
        exec_ns: u64,
        waits_before: &[WaitTotal],
    ) -> String {
        let mut text = render_operator_tree(spans);
        text.push_str(&format!(
            "Execution: {} tuple(s) processed, {} row(s) affected, {:.3} ms\n",
            tuples,
            affected,
            exec_ns as f64 / 1e6
        ));
        let mut parts = Vec::new();
        let mut total_ns = 0u64;
        for (b, a) in waits_before.iter().zip(self.wait_totals()) {
            let dns = a.total_ns.saturating_sub(b.total_ns);
            if dns > 0 {
                total_ns = total_ns.saturating_add(dns);
                parts.push(format!("{} {:.3} ms", a.event, dns as f64 / 1e6));
            }
        }
        if total_ns > 0 {
            text.push_str(&format!(
                "Waits: {:.3} ms total ({})\n",
                total_ns as f64 / 1e6,
                parts.join(", ")
            ));
        }
        text
    }

    fn acquire_locks(&self, txn: TxnId, spec: &[(TableId, bool)]) -> Result<()> {
        for (table, exclusive) in spec {
            let mode = if *exclusive {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            self.engine.locks.lock(txn, Resource::Table(*table), mode)?;
        }
        Ok(())
    }
}

/// The table-lock footprint of a bound statement, `(table, exclusive)`.
/// Stored verbatim in cached plans so a hit locks exactly what a fresh plan
/// would.
///
/// Under row-level MVCC (PR 8) this footprint is deliberately thin: queries
/// take *no* locks at all (they read a registered snapshot), and DML takes
/// only a table-**shared** lock on its one target — a DDL fence, compatible
/// with every other reader and writer. Actual write-write isolation comes
/// from the row-exclusive chain-root locks the executor takes per target
/// row; table exclusive locks remain the preserve of DDL
/// ([`Session::with_table_lock_by_name`]).
fn lock_spec(bound: &BoundStatement) -> Vec<(TableId, bool)> {
    match bound {
        BoundStatement::Select(_) => Vec::new(),
        BoundStatement::Insert { table, .. }
        | BoundStatement::Update { table, .. }
        | BoundStatement::Delete { table, .. } => vec![(*table, false)],
    }
}

/// A prepared statement: the text is validated once by [`Session::prepare`],
/// then executed any number of times with different parameter bindings. The
/// optimized plan lives in the engine-wide plan cache, so repeated
/// executions (from this handle or any session running the same template)
/// skip parse/bind/optimize entirely.
///
/// ```
/// # use ingot_common::{EngineConfig, Value};
/// # use ingot_core::Engine;
/// # let engine = Engine::builder().config(EngineConfig::monitoring()).build().unwrap();
/// # let session = engine.open_session();
/// # session.execute("create table t (a int not null primary key, b int)").unwrap();
/// let insert = session.prepare("insert into t values ($1, $2)").unwrap();
/// for i in 0..10 {
///     insert.execute(&[Value::Int(i), Value::Int(i * 2)]).unwrap();
/// }
/// let point = session.prepare("select b from t where a = $1").unwrap();
/// let row = point.execute(&[Value::Int(7)]).unwrap();
/// assert_eq!(row.rows[0].get(0), &Value::Int(14));
/// ```
pub struct Prepared<'a> {
    session: &'a Session,
    text: String,
    identity: StmtIdentity,
    param_count: usize,
}

impl Prepared<'_> {
    /// The statement text this handle was prepared from.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Number of parameter markers the statement declares.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Execute with `params` bound positionally (`$1` ↔ `params[0]`). The
    /// value count must match [`param_count`](Self::param_count) exactly.
    pub fn execute(&self, params: &[Value]) -> Result<StatementResult> {
        if params.len() != self.param_count {
            return Err(Error::param_arity(self.param_count, params.len()));
        }
        self.session
            .execute_with_params(&self.text, &self.identity, params)
    }
}

// The embedded half of the unified surface: a `Session` *is* a
// `Connection`, so shells, examples and bench harnesses written against
// `&dyn Connection` run in-process without an adapter. (The remote half is
// `ingot_client::ClientConnection`.)
impl Connection for Session {
    fn execute(&self, sql: &str) -> Result<StatementResult> {
        Session::execute(self, sql)
    }

    fn prepare(&self, sql: &str) -> Result<Box<dyn PreparedStatement + '_>> {
        Ok(Box::new(Session::prepare(self, sql)?))
    }

    fn set(&self, name: &str, value: &Value) -> Result<()> {
        self.set_option(name, value).map(|_| ())
    }

    fn begin(&self) -> Result<()> {
        Session::begin(self)
    }

    fn commit(&self) -> Result<()> {
        Session::commit(self)
    }

    fn rollback(&self) -> Result<()> {
        Session::rollback(self)
    }
}

impl PreparedStatement for Prepared<'_> {
    fn param_count(&self) -> usize {
        Prepared::param_count(self)
    }

    fn execute(&self, params: &[Value]) -> Result<StatementResult> {
        Prepared::execute(self, params)
    }
}

#[cfg(test)]
mod tests {
    use ingot_common::{EngineConfig, Row, Value, WalFsyncMode};
    use ingot_storage::{FaultEffect, FaultOp, FaultPlan};

    use crate::Engine;

    /// A failed auto-commit statement leaves no lock and no live
    /// transaction behind.
    fn assert_released(e: &Engine) {
        assert_eq!(e.locks().stats().held, 0);
        assert_eq!(e.txns().active_count(), 0);
    }

    #[test]
    fn auto_commit_insert_direct_fails_with_its_commit_barrier() {
        let e = Engine::builder()
            .config(EngineConfig::monitoring().with_wal_fsync_mode(WalFsyncMode::Always))
            .build()
            .unwrap();
        let s = e.open_session();
        s.execute("create table t (a int not null primary key)")
            .unwrap();
        e.wal().set_fault_plan(FaultPlan::new().with_rule(
            FaultOp::WalFsync,
            1,
            u64::MAX,
            FaultEffect::Permanent,
        ));
        let err = s
            .insert_direct("t", &Row::new(vec![Value::Int(1)]))
            .unwrap_err();
        assert!(err.to_string().contains("wal_fsync"), "{err}");
        assert_released(&e);
        e.wal().set_fault_plan(FaultPlan::new());
        let r = s.execute("select count(*) from t").unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Int(0), "the row was undone");
    }

    #[test]
    fn auto_commit_drop_table_times_out_behind_an_open_transaction() {
        let e = Engine::builder()
            .config(EngineConfig {
                lock_timeout_ms: 50,
                ..EngineConfig::monitoring()
            })
            .build()
            .unwrap();
        let holder = e.open_session();
        let dropper = e.open_session();
        holder.execute("create table t (a int)").unwrap();
        holder.begin().unwrap();
        holder.execute("insert into t values (1)").unwrap();
        let held = e.locks().stats().held;
        let err = dropper.execute("drop table t").unwrap_err();
        assert!(err.to_string().contains("lock timeout"), "{err}");
        // Only the holder's locks and transaction remain.
        assert_eq!(e.locks().stats().held, held);
        assert_eq!(e.txns().active_count(), 1);
        holder.commit().unwrap();
        assert_released(&e);
        let r = dropper.execute("select count(*) from t").unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Int(1), "t was not dropped");
    }
}
