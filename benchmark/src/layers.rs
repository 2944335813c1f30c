//! `trace` mode: the per-layer budget, measured from outside.
//!
//! The window is split in three. First, cycles of an untraced and a traced
//! `on` slice: in a traced slice every statement is a root span and every
//! sixteenth is replayed stage by stage through the layers' public functions
//! (spans), while the counters every layer keeps are read as deltas around
//! the untraced slices (counts). Then `off`/`full` cycles, `full` being `on`
//! with the engine's own tracing switched on as well. Last, a handful of
//! fixed-count probes of things no statement of the workload isolates:
//! heartbeat round trips, explicit-transaction begin/commit, the WAL on a
//! scratch log, one daemon poll, IMA queries, recovery.
//!
//! A layer that a workload never enters reports 0 for it.

use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

use ingot_common::wire::{self, Request, Response, MAX_FRAME_BYTES};
use ingot_common::{Connection, EngineConfig, Row, Snapshot, TxnId, Value, WaitEvent};
use ingot_core::Engine;
use ingot_daemon::{DaemonConfig, StorageDaemon, WorkloadDb};
use ingot_executor::execute_plan_snapshot;
use ingot_planner::{
    normalize_template, optimize, Binder, CachedPlan, OptimizerOptions, PlanCache, PlannedStatement,
};
use ingot_sql::parse_statement;
use ingot_storage::{Wal, WalRecord, PAGE_SIZE};

use crate::harness::{
    fresh_run_dir, merge_latencies, target_dir, with_setup, Harness, LaneSpec, Options, ON, SLICE,
};
use crate::measure::{check_inserts, interleaved_window, warm_up, CacheCounts, Outcome};
use crate::spans::{median_self_us, write_jsonl, Recorder, Span};
use crate::stats::{self, median, Slice};
use crate::workloads::{
    taxonomy_row_bytes, Client, Conn, Kind, Op, OpGen, Step, PROBE_LANE, REPLAY_LANE,
};
use crate::Fail;

/// Every `REPLAY_EVERY`-th traced statement is replayed stage by stage.
const REPLAY_EVERY: u64 = 16;
/// Shares of the window: spanned cycles, then `off`/`full` cycles.
const SPANNED_SHARE: f64 = 0.5;
const FULL_SHARE: f64 = 0.375;

/// What a lane's tracer hands back when the lane finishes.
pub struct TracedEnd {
    pub spans: Vec<Span>,
    /// `StatementResult.wallclock_ns` of traced statements.
    pub wallclock_ns: Vec<f64>,
    /// `StatementResult.actual_cost.cpu` (tuples) of traced statements.
    pub tuples: Vec<f64>,
    /// Frame sizes of replayed requests and responses, prefix included.
    pub req_bytes: Vec<f64>,
    pub resp_bytes: Vec<f64>,
    /// Rows the replays inserted into `taxonomy`.
    pub extra_inserts: i64,
    /// Why a replay stopped short, if one did: its spans are incomplete.
    pub replay_error: Option<String>,
}

/// A lane's span recorder and stage-by-stage replayer.
pub struct LaneTracer<'a> {
    kind: Kind,
    lane: u64,
    engine: &'a Arc<Engine>,
    /// In-process twin of a wire client: the same statement on a session of
    /// the same engine.
    twin: Option<Client<'a>>,
    /// A plan cache of the tracer's own, so that probing it neither warms
    /// nor ages the engine's.
    cache: PlanCache,
    pair: (UnixStream, UnixStream),
    rec: Recorder,
    counter: u64,
    end: TracedEnd,
}

impl<'a> LaneTracer<'a> {
    pub fn new(spec: &LaneSpec<'a>, twin: Option<&'a Conn>) -> Result<LaneTracer<'a>, Fail> {
        let kind = spec.kind;
        let engine = &spec.arm.engine;
        let twin = match twin {
            Some(conn) => Some(Client::new(
                kind,
                conn.as_dyn(),
                // Replayed inserts need keys of their own; one replay lane
                // per wire lane.
                OpGen::new(kind, spec.opts.seed, REPLAY_LANE + spec.lane, &spec.sizes),
                &spec.sizes,
                spec.oracle.clone(),
            )?),
            None => None,
        };
        let cache = PlanCache::new(EngineConfig::default().plan_cache_capacity);
        if let Some(sql) = kind.prepared_sql() {
            // The prepared workloads hit: seed the private cache with the
            // optimized template, as the first real execution did.
            let catalog = engine.catalog().read();
            let stmt = parse_statement(sql)?;
            let (bound, artifacts) = Binder::new(&catalog).bind(&stmt)?;
            let planned = optimize(&catalog, &bound, OptimizerOptions::default())?;
            cache.insert(
                normalize_template(sql),
                CachedPlan {
                    planned,
                    artifacts,
                    lock_spec: Vec::new(),
                    epoch: catalog.epoch(),
                    param_count: Client::params(sample_op(kind)).len(),
                },
            );
        }
        Ok(LaneTracer {
            kind,
            lane: spec.lane as u64,
            engine,
            twin,
            cache,
            pair: UnixStream::pair()?,
            rec: Recorder::new(spec.epoch),
            counter: 0,
            end: TracedEnd {
                spans: Vec::new(),
                wallclock_ns: Vec::new(),
                tuples: Vec::new(),
                req_bytes: Vec::new(),
                resp_bytes: Vec::new(),
                extra_inserts: 0,
                replay_error: None,
            },
        })
    }

    pub fn finish(mut self) -> TracedEnd {
        self.end.spans = std::mem::take(&mut self.rec.spans);
        self.end
    }

    /// The next statement of `client`'s stream as a root span; every
    /// sixteenth also replayed under it.
    pub fn step(&mut self, client: &mut Client<'_>) -> Step {
        let (op, step) = client.step();
        self.counter += 1;
        let stmt = (self.lane << 40) | self.counter;
        let ended = step.started + std::time::Duration::from_nanos(step.latency_ns);
        let root = self
            .rec
            .push(root_name(self.kind), None, stmt, step.started, ended);
        if let Ok(r) = &step.outcome {
            self.end.wallclock_ns.push(r.wallclock_ns as f64);
            self.end.tuples.push(r.actual_cost.cpu);
            if self.counter.is_multiple_of(REPLAY_EVERY) {
                // The statement itself has been answered and checked; a
                // replay that fails loses spans, which the run reports.
                if let Err(e) = self.replay(client, op, r, root, stmt) {
                    self.end.replay_error.get_or_insert(e.to_string());
                }
            }
        }
        step
    }

    fn replay(
        &mut self,
        client: &Client<'_>,
        op: Op,
        result: &ingot_common::StatementResult,
        root: u32,
        stmt: u64,
    ) -> Result<(), Fail> {
        let text = client.text(op);
        if !self.kind.wire() {
            return self.engine_stages(op, &text, root, stmt);
        }
        // client → wire → server → session → wire → client, one call each.
        let request = Request::ExecutePrepared {
            id: 1,
            params: Client::params(op),
        };
        let (_, (opcode, body)) = self
            .rec
            .span("wire.encode_req", Some(root), stmt, || request.to_frame());
        self.end.req_bytes.push((5 + body.len()) as f64);
        let (a, b) = (&mut self.pair.0, &mut self.pair.1);
        let (_, arrived) = self.rec.span("wire.frame_io.req", Some(root), stmt, || {
            wire::write_frame(a, opcode, &body)?;
            wire::read_frame(b, MAX_FRAME_BYTES)
        });
        let (opcode, body) = arrived?.ok_or_else(|| Fail::new("socket pair closed"))?;
        let (_, decoded) = self.rec.span("wire.decode_req", Some(root), stmt, || {
            Request::decode(opcode, &body)
        });
        decoded?;

        // The same statement in-process. Inserts need a key of their own.
        let twin = self.twin.as_mut().expect("wire lanes carry a twin");
        let twin_op = match op {
            Op::Insert { .. } => twin.gen.next_op(),
            other => other,
        };
        let twin_step = twin.run(twin_op);
        let ended = twin_step.started + std::time::Duration::from_nanos(twin_step.latency_ns);
        let session = self.rec.push(
            "core.session_stmt",
            Some(root),
            stmt,
            twin_step.started,
            ended,
        );
        twin_step.outcome?;
        if matches!(op, Op::Insert { .. }) {
            self.end.extra_inserts += 1;
        }
        self.engine_stages(twin_op, &text, session, stmt)?;

        let response = Response::Rows(result.clone());
        let (_, (opcode, body)) = self
            .rec
            .span("wire.encode_resp", Some(root), stmt, || response.to_frame());
        self.end.resp_bytes.push((5 + body.len()) as f64);
        let (a, b) = (&mut self.pair.0, &mut self.pair.1);
        let (_, arrived) = self.rec.span("wire.frame_io.resp", Some(root), stmt, || {
            wire::write_frame(b, opcode, &body)?;
            wire::read_frame(a, MAX_FRAME_BYTES)
        });
        let (opcode, body) = arrived?.ok_or_else(|| Fail::new("socket pair closed"))?;
        let (_, decoded) = self.rec.span("wire.decode_resp", Some(root), stmt, || {
            Response::decode(opcode, &body)
        });
        decoded?;
        Ok(())
    }

    /// The stages a session statement goes through, each called directly:
    /// plan-cache probe (and bind of the values on a hit), on a miss parse,
    /// bind + optimize and cache insert, then the executor on the plan.
    /// Inserts stop before the executor: their execution is the commit path,
    /// which the transaction probes time.
    fn engine_stages(&mut self, op: Op, text: &str, parent: u32, stmt: u64) -> Result<(), Fail> {
        let catalog = self.engine.catalog().read();
        let params = Client::params(op);
        let template = normalize_template(text);
        let cache = &self.cache;
        let (_, hit) = self
            .rec
            .span("planner.cache_probe", Some(parent), stmt, || {
                cache
                    .probe(&template, catalog.epoch())
                    .map(|c| c.planned.substitute_params(&params))
            });
        let planned = match hit {
            Some(planned) => planned?,
            None => {
                let (_, ast) = self
                    .rec
                    .span("sql.parse", Some(parent), stmt, || parse_statement(text));
                let ast = ast?;
                let (_, planned) =
                    self.rec
                        .span("planner.bind_optimize", Some(parent), stmt, || {
                            let (bound, artifacts) = Binder::new(&catalog).bind(&ast)?;
                            optimize(&catalog, &bound, OptimizerOptions::default())
                                .map(|p| (p, artifacts))
                        });
                let (planned, artifacts) = planned?;
                let entry = CachedPlan {
                    planned: planned.clone(),
                    artifacts,
                    lock_spec: Vec::new(),
                    epoch: catalog.epoch(),
                    param_count: 0,
                };
                self.rec
                    .span("planner.cache_insert", Some(parent), stmt, || {
                        cache.insert(template, entry)
                    });
                planned
            }
        };
        if let PlannedStatement::Query(q) = &planned {
            let (_, rows) = self.rec.span("executor.execute", Some(parent), stmt, || {
                execute_plan_snapshot(&catalog, &q.root, &Snapshot::latest())
            });
            rows?;
        }
        Ok(())
    }
}

fn root_name(kind: Kind) -> &'static str {
    if kind.wire() {
        "client.rtt_stmt"
    } else {
        "core.session_stmt"
    }
}

/// Any op of the workload, for counting its parameters.
fn sample_op(kind: Kind) -> Op {
    match kind {
        Kind::PointEmbedded | Kind::PointWire => Op::Point { key: 0 },
        Kind::JoinAdhoc => Op::Join { key: 0 },
        Kind::ScanCold => Op::Scan { lo: 0 },
        Kind::InsertWire => Op::Insert { id: 0, rank: 0 },
    }
}

// ---------------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------------

/// One reading of every counter the layers keep, as a flat vector so that
/// deltas and sums are one loop.
#[derive(Clone)]
struct Counters([f64; Counters::LEN]);

impl Default for Counters {
    fn default() -> Self {
        Counters([0.0; Counters::LEN])
    }
}

impl Counters {
    const ENGINE_STMTS: usize = 0;
    const MONITOR_SELF_NS: usize = 1;
    const SENSOR_CALLS: usize = 2;
    const RECORDED: usize = 3;
    const PLAN_HITS: usize = 4;
    const PLAN_MISSES: usize = 5;
    const PLAN_EVICTIONS: usize = 6;
    const BUF_HITS: usize = 7;
    const BUF_MISSES: usize = 8;
    const BUF_EVICTIONS: usize = 9;
    const MODEL_IO_NS: usize = 10;
    const WAL_BYTES: usize = 11;
    const WAL_FSYNCS: usize = 12;
    const WAL_GROUPS: usize = 13;
    const WAL_GROUPED: usize = 14;
    const ABORTS: usize = 15;
    const FRAMES: usize = 16;
    const WIRE_BYTES: usize = 17;
    const ERRORS_SENT: usize = 18;
    const WAIT_FSYNC_NS: usize = 19;
    const WAIT_DALLY_NS: usize = 20;
    const WAIT_PUBLISH_NS: usize = 21;
    const WAIT_LOCK_NS: usize = 22;
    const WAIT_BUFFER_NS: usize = 23;
    const WAIT_ALL_NS: usize = 24;
    const LEN: usize = 25;

    fn read(h: &Harness<'_>) -> Counters {
        use std::sync::atomic::Ordering::Relaxed;
        let arm = &h.arms[ON];
        let e = &arm.engine;
        let mut c = Counters::default();
        c.0[Self::ENGINE_STMTS] = e.statements_executed() as f64;
        if let Some(m) = e.monitor() {
            c.0[Self::MONITOR_SELF_NS] = m.self_time_ns() as f64;
            c.0[Self::SENSOR_CALLS] = m.sensor_calls() as f64;
            c.0[Self::RECORDED] = m.statements_recorded() as f64;
        }
        let p = e.plan_cache_stats();
        c.0[Self::PLAN_HITS] = p.hits as f64;
        c.0[Self::PLAN_MISSES] = p.misses as f64;
        c.0[Self::PLAN_EVICTIONS] = p.evictions as f64;
        let b = e.buffer_stats();
        c.0[Self::BUF_HITS] = b.hits as f64;
        c.0[Self::BUF_MISSES] = b.misses as f64;
        c.0[Self::BUF_EVICTIONS] = b.evictions as f64;
        c.0[Self::MODEL_IO_NS] = e.io_stats().sim_latency_ns as f64;
        let w = e.wal_stats();
        c.0[Self::WAL_BYTES] = w.bytes_written as f64;
        c.0[Self::WAL_FSYNCS] = w.fsyncs as f64;
        c.0[Self::WAL_GROUPS] = w.groups as f64;
        c.0[Self::WAL_GROUPED] = w.grouped_commits as f64;
        c.0[Self::ABORTS] = e.txns().aborted_count() as f64;
        if let Some(s) = arm.server_stats() {
            c.0[Self::FRAMES] = (s.frames_in.load(Relaxed) + s.frames_out.load(Relaxed)) as f64;
            c.0[Self::WIRE_BYTES] = (s.bytes_in.load(Relaxed) + s.bytes_out.load(Relaxed)) as f64;
            c.0[Self::ERRORS_SENT] = s.errors_sent.load(Relaxed) as f64;
        }
        if let Some(reg) = e.wait_registry() {
            for t in reg.snapshot() {
                let ns = t.total_ns as f64;
                c.0[Self::WAIT_ALL_NS] += ns;
                let slot = match t.event {
                    WaitEvent::WalFsync => Self::WAIT_FSYNC_NS,
                    WaitEvent::GroupCommitDally => Self::WAIT_DALLY_NS,
                    WaitEvent::CommitPublish => Self::WAIT_PUBLISH_NS,
                    WaitEvent::LockWaitS | WaitEvent::LockWaitX => Self::WAIT_LOCK_NS,
                    WaitEvent::BufferRead => Self::WAIT_BUFFER_NS,
                    _ => continue,
                };
                c.0[slot] += ns;
            }
        }
        c
    }

    /// `self += later - earlier`.
    fn add_delta(&mut self, earlier: &Counters, later: &Counters) {
        for ((acc, a), b) in self.0.iter_mut().zip(&earlier.0).zip(&later.0) {
            *acc += b - a;
        }
    }

    /// Counter `i` per engine statement.
    fn per_stmt(&self, i: usize) -> f64 {
        self.0[i] / self.0[Self::ENGINE_STMTS].max(1.0)
    }

    fn share(&self, part: usize, rest: usize) -> f64 {
        stats::share(self.0[part], self.0[rest])
    }
}

// ---------------------------------------------------------------------------
// Probes.
// ---------------------------------------------------------------------------

fn time_us<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_nanos() as f64 / 1e3, r)
}

/// Heartbeat round trips on a connection of its own: socket and dispatch,
/// no engine. 0 for the embedded workloads.
fn probe_ping_us(h: &Harness<'_>, n: usize) -> Result<f64, Fail> {
    let Conn::Wire(conn) = h.arms[ON].connect("bench-ping")? else {
        return Ok(0.0);
    };
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let (t, pong) = time_us(|| conn.heartbeat());
        pong?;
        us.push(t);
    }
    conn.close()?;
    Ok(median(&us))
}

/// A read statement cheap enough to sit inside a probe transaction.
fn probe_read(kind: Kind) -> (&'static str, Vec<Value>) {
    match kind {
        Kind::InsertWire => (
            "select rank_level from taxonomy where taxon_id = $1",
            vec![Value::Int(-1)],
        ),
        Kind::ScanCold => (
            crate::workloads::SCAN_SQL,
            Client::params(Op::Scan { lo: 30 }),
        ),
        _ => (
            crate::workloads::POINT_SQL,
            Client::params(Op::Point { key: 0 }),
        ),
    }
}

/// `(begin + commit of a read-only explicit transaction, commit of a
/// one-row explicit transaction)`, median microseconds each, plus the rows
/// the second probe inserted.
fn probe_txn_us(h: &Harness<'_>, n: usize) -> Result<(f64, f64, i64), Fail> {
    let session = h.arms[ON].engine.open_session();
    let (sql, params) = probe_read(h.kind);
    let read = session.prepare(sql)?;
    let mut read_only = Vec::with_capacity(n);
    for _ in 0..n {
        let (t_begin, begun) = time_us(|| session.begin());
        begun?;
        read.execute(&params)?;
        let (t_commit, done) = time_us(|| session.commit());
        done?;
        read_only.push(t_begin + t_commit);
    }
    let mut gen = OpGen::new(Kind::InsertWire, 0, PROBE_LANE, &h.sizes);
    let mut write = Vec::with_capacity(n);
    for _ in 0..n {
        let row = Row::new(Client::params(gen.next_op()));
        session.begin()?;
        session.insert_direct("taxonomy", &row)?;
        // validate → reserve → WAL commit record → barrier → publish
        let (t_commit, done) = time_us(|| session.commit());
        done?;
        write.push(t_commit);
    }
    Ok((median(&read_only), median(&write), n as i64))
}

/// `Wal::append` and `Wal::commit_barrier` on a scratch log in the run
/// directory, default policy: this sandbox's fsync, nothing else.
fn probe_wal_us(h: &Harness<'_>, n: usize) -> Result<(f64, f64), Fail> {
    let dir = h.dir.join("scratch-wal");
    std::fs::create_dir_all(&dir)?;
    let wal = Wal::open_in_dir(&dir, &EngineConfig::default())?;
    let record = WalRecord::Insert {
        txn: TxnId(1),
        table: "taxonomy".into(),
        row: vec![0x5a; 96],
    };
    let (mut append, mut barrier) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let (t, lsn) = time_us(|| wal.append(&record));
        append.push(t);
        let lsn = lsn?;
        let (t, durable) = time_us(|| wal.commit_barrier(lsn));
        durable?;
        barrier.push(t);
    }
    Ok((median(&append), median(&barrier)))
}

/// `select count(*)` over `ima$statements` and `ima$workload`, median
/// milliseconds for the pair: what reading the monitor back costs.
fn probe_ima_ms(h: &Harness<'_>, n: usize) -> Result<f64, Fail> {
    let session = h.arms[ON].engine.open_session();
    let mut ms = Vec::with_capacity(n);
    for _ in 0..n {
        let (t, r) = time_us(|| {
            session.query("select count(*) from ima$statements")?;
            session.query("select count(*) from ima$workload")
        });
        r?;
        ms.push(t / 1e3);
    }
    Ok(median(&ms))
}

/// One `StorageDaemon::poll_once` into a file-backed workload DB:
/// `(milliseconds, workload-DB bytes per thousand statements recorded)`.
fn probe_daemon(h: &Harness<'_>) -> Result<(f64, f64), Fail> {
    let engine = &h.arms[ON].engine;
    let wldb = Arc::new(WorkloadDb::file_backed(
        h.dir.join("wldb"),
        engine.sim_clock().clone(),
    )?);
    let before = wldb.total_pages();
    let daemon = StorageDaemon::new(
        Arc::clone(engine),
        Arc::clone(&wldb),
        DaemonConfig::default(),
    );
    let (us, polled) = time_us(|| daemon.poll_once());
    polled?;
    let bytes = (wldb.total_pages() - before) as f64 * PAGE_SIZE as f64;
    let recorded = engine.monitor().map_or(0, |m| m.statements_recorded());
    Ok((us / 1e3, bytes / (recorded.max(1) as f64 / 1e3)))
}

/// Bytes in the files of `dir`, not descending.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// The traced run.
// ---------------------------------------------------------------------------

/// What the body of the traced run gathers while the lanes are live.
#[derive(Default)]
struct Gathered {
    /// `(traced, untraced)` slice pairs.
    span_cycles: Vec<(Slice, Slice)>,
    counts: Counters,
    /// `(full, off)` slice pairs.
    full_cycles: Vec<(Slice, Slice)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    ping_us: f64,
    txn_read_us: f64,
    txn_write_us: f64,
    probe_inserts: i64,
    wal_append_us: f64,
    wal_barrier_us: f64,
    ima_ms: f64,
    daemon_ms: f64,
    wldb_bytes_per_kstmt: f64,
    rss_growth_b_per_stmt: f64,
}

/// What the traced run checks and sizes once the lanes have finished.
struct Closing {
    insert_notes: Vec<String>,
    recovery_secs: f64,
    /// Bytes of row data loaded and inserted into the `on` arm.
    user_bytes: u64,
    /// Bytes the `on` arm keeps for them.
    stored_bytes: u64,
}

fn gather(h: &Harness<'_>, opts: &Options) -> Result<Gathered, Fail> {
    let span_cycles_n = opts.cycles(SPANNED_SHARE);
    let full_cycles_n = opts.cycles(FULL_SHARE);
    warm_up(h, opts, span_cycles_n)?;
    let mut g = Gathered::default();
    let mut on_stmts = 0;
    for c in 0..span_cycles_n {
        let mut pair = [None, None];
        for traced in if c % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        } {
            let report = if traced {
                h.traced_slice(ON, SLICE)?
            } else {
                let before = Counters::read(h);
                let r = h.slice(ON, SLICE, true)?;
                g.counts.add_delta(&before, &Counters::read(h));
                on_stmts += r.slice.stmts;
                r
            };
            g.attempted += report.slice.stmts;
            g.failed += report.failed;
            g.notes.extend(report.first_error);
            pair[usize::from(!traced)] = Some(report.slice);
        }
        if let [Some(traced), Some(untraced)] = pair {
            g.span_cycles.push((traced, untraced));
        }
    }
    // The premises are judged on the untraced slices only: the replays in
    // between run statements of their own on the same engine.
    g.notes.truncate(5);
    let caches = CacheCounts {
        buffer_hits: g.counts.0[Counters::BUF_HITS] as u64,
        buffer_misses: g.counts.0[Counters::BUF_MISSES] as u64,
        plan_hits: g.counts.0[Counters::PLAN_HITS] as u64,
        plan_misses: g.counts.0[Counters::PLAN_MISSES] as u64,
    };
    g.notes
        .extend(caches.violations(h.kind, &h.sizes, on_stmts));

    // `full` = `on` plus the engine's own tracing, flipped at run time on the
    // same instance; paired against `off` exactly as `mon_cost_ratio` is.
    let engine = &h.arms[ON].engine;
    let rss_before = stats::rss_bytes();
    engine.set_tracing(true);
    // Not recorded: a `full` statement is not an `on` statement, and the
    // run's latencies are `on`'s.
    let window = interleaved_window(h, full_cycles_n, false);
    engine.set_tracing(false);
    let window = window?;
    // What the process grew by per statement while the harness kept nothing:
    // no span, no latency sample. On a time-boxed run growth scales with the
    // box's speed, so it is a rate here and not part of `peak_rss_mb`.
    g.rss_growth_b_per_stmt = (stats::rss_bytes() - rss_before) / window.attempted.max(1) as f64;
    g.attempted += window.attempted;
    g.failed += window.failed;
    g.notes.extend(window.notes);
    g.full_cycles = window.cycles;

    let quick = if opts.quick { 10 } else { 1 };
    g.ping_us = probe_ping_us(h, 2000 / quick)?;
    let txn_n = if h.kind == Kind::ScanCold { 20 } else { 200 };
    (g.txn_read_us, g.txn_write_us, g.probe_inserts) = probe_txn_us(h, txn_n / quick)?;
    (g.wal_append_us, g.wal_barrier_us) = probe_wal_us(h, 200 / quick)?;
    g.ima_ms = probe_ima_ms(h, 5)?;
    (g.daemon_ms, g.wldb_bytes_per_kstmt) = probe_daemon(h)?;
    Ok(g)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Run `kind` once, traced: every per-layer metric of the contract.
pub fn trace_workload(kind: Kind, opts: &Options) -> Result<Outcome, Fail> {
    let dir = fresh_run_dir(kind)?;
    let run = with_setup(
        kind,
        opts,
        &dir,
        |h| gather(h, opts),
        |h, g, ends| {
            let on = &h.arms[ON];
            // Replays and probes inserted rows of their own into the `on`
            // arm; the closing oracle has to expect them.
            let replayed: i64 = ends[ON]
                .iter()
                .filter_map(|l| l.traced.as_ref())
                .map(|t| t.extra_inserts)
                .sum();
            let (insert_notes, recovery_secs) = check_inserts(h, ends, replayed + g.probe_inserts);
            let acked: i64 = ends[ON].iter().map(|l| l.acked).sum();
            let inserted =
                g.probe_inserts + replayed + if kind == Kind::InsertWire { acked } else { 0 };
            Ok(Closing {
                insert_notes,
                recovery_secs,
                user_bytes: on.loaded_bytes + inserted as u64 * taxonomy_row_bytes(),
                // Files on disk where there are files; pages and log bytes
                // the engine holds in memory where there are none.
                stored_bytes: match &on.data_dir {
                    Some(d) => dir_bytes(d),
                    None => {
                        on.engine.total_data_pages() * PAGE_SIZE as u64
                            + on.engine.wal_stats().bytes_written
                    }
                },
            })
        },
    )?;
    let g = run.body;
    let closing = run.closing;

    let traced: Vec<&TracedEnd> = run.ends[ON]
        .iter()
        .filter_map(|l| l.traced.as_ref())
        .collect();
    let lanes: Vec<&[Span]> = traced.iter().map(|t| t.spans.as_slice()).collect();
    write_jsonl(
        &target_dir()?
            .join("trace")
            .join(format!("{}.jsonl", kind.name())),
        &lanes,
    )?;
    let all_spans: Vec<Span> = {
        // Parent indices are per lane; shift them as the lanes are joined.
        let mut out = Vec::new();
        for spans in &lanes {
            let base = out.len() as u32;
            out.extend(spans.iter().cloned().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        out
    };
    let replayed = |stmt: u64| (stmt & ((1 << 40) - 1)).is_multiple_of(REPLAY_EVERY);
    let self_us: BTreeMap<&str, f64> = median_self_us(&all_spans, replayed);
    let span = |name: &str| self_us.get(name).copied().unwrap_or(0.0);
    // Full duration (not self time) of the replayed spans of one name.
    let dur_us = |name: &str| {
        let d: Vec<f64> = all_spans
            .iter()
            .filter(|s| s.name == name && replayed(s.stmt))
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };

    // Caller-observed latencies of every `on` slice of the run, raw: their
    // median is the figure `run` reports as p50_us.
    let latencies = merge_latencies(&run.ends[ON], false);
    let p50 = stats::p50_us(&latencies);
    let (rtt_stmt, session_stmt) = if kind.wire() {
        (p50, dur_us("core.session_stmt"))
    } else {
        (0.0, p50)
    };
    let root = root_name(kind);
    let root_total = dur_us(root);
    let attributed: f64 = self_us
        .iter()
        .filter(|(name, _)| **name != root)
        .map(|(_, us)| us)
        .sum();
    let c = &g.counts;
    let wire_only = |v: f64| if kind.wire() { v } else { 0.0 };
    let cat = |v: Vec<&Vec<f64>>| v.into_iter().flatten().copied().collect::<Vec<f64>>();
    let mut notes = g.notes;
    notes.extend(closing.insert_notes);
    if traced.iter().all(|t| t.spans.is_empty()) {
        notes.push("the traced slices recorded no span".into());
    }
    notes.extend(
        traced
            .iter()
            .filter_map(|t| t.replay_error.as_ref())
            .map(|e| format!("a replay failed: {e}")),
    );
    let metrics = vec![
        ("p99_us", stats::block_median_p99_us(&latencies)),
        ("wire.encode_req_us", span("wire.encode_req")),
        ("wire.decode_req_us", span("wire.decode_req")),
        ("wire.encode_resp_us", span("wire.encode_resp")),
        ("wire.decode_resp_us", span("wire.decode_resp")),
        (
            "wire.frame_io_us",
            span("wire.frame_io.req") + span("wire.frame_io.resp"),
        ),
        (
            "wire.req_bytes",
            mean(&cat(traced.iter().map(|t| &t.req_bytes).collect())),
        ),
        (
            "wire.resp_bytes",
            mean(&cat(traced.iter().map(|t| &t.resp_bytes).collect())),
        ),
        ("client.rtt_stmt_us", rtt_stmt),
        ("client.rtt_ping_us", g.ping_us),
        ("server.overhead_us", wire_only(rtt_stmt - session_stmt)),
        (
            "server.wire_gap_ratio",
            wire_only(rtt_stmt / session_stmt.max(f64::MIN_POSITIVE)),
        ),
        ("server.frames_per_stmt", c.per_stmt(Counters::FRAMES)),
        ("server.bytes_per_stmt", c.per_stmt(Counters::WIRE_BYTES)),
        ("server.errors_sent", c.0[Counters::ERRORS_SENT]),
        ("core.session_stmt_us", session_stmt),
        (
            "core.engine_wallclock_us",
            median(&cat(traced.iter().map(|t| &t.wallclock_ns).collect())) / 1e3,
        ),
        (
            "core.plan_cache_hit_ratio",
            c.share(Counters::PLAN_HITS, Counters::PLAN_MISSES),
        ),
        (
            "core.plan_cache_evictions_per_stmt",
            c.per_stmt(Counters::PLAN_EVICTIONS),
        ),
        (
            "core.monitor_self_us_per_stmt",
            c.0[Counters::MONITOR_SELF_NS] / c.0[Counters::RECORDED].max(1.0) / 1e3,
        ),
        (
            "core.sensor_calls_per_stmt",
            c.0[Counters::SENSOR_CALLS] / c.0[Counters::RECORDED].max(1.0),
        ),
        (
            "core.wait_us_per_stmt",
            c.per_stmt(Counters::WAIT_ALL_NS) / 1e3,
        ),
        ("core.ima_query_ms", g.ima_ms),
        ("sql.parse_us", span("sql.parse")),
        ("planner.bind_optimize_us", span("planner.bind_optimize")),
        (
            "planner.cache_probe_us",
            span("planner.cache_probe") + span("planner.cache_insert"),
        ),
        ("executor.execute_us", span("executor.execute")),
        (
            "executor.tuples_per_stmt",
            median(&cat(traced.iter().map(|t| &t.tuples).collect())),
        ),
        ("txn.begin_commit_us", g.txn_read_us),
        ("txn.commit_write_us", g.txn_write_us),
        ("txn.aborts", c.0[Counters::ABORTS]),
        (
            "waits.wal_fsync_us_per_stmt",
            c.per_stmt(Counters::WAIT_FSYNC_NS) / 1e3,
        ),
        (
            "waits.group_commit_dally_us_per_stmt",
            c.per_stmt(Counters::WAIT_DALLY_NS) / 1e3,
        ),
        (
            "waits.commit_publish_us_per_stmt",
            c.per_stmt(Counters::WAIT_PUBLISH_NS) / 1e3,
        ),
        (
            "waits.lock_us_per_stmt",
            c.per_stmt(Counters::WAIT_LOCK_NS) / 1e3,
        ),
        (
            "waits.buffer_read_us_per_stmt",
            c.per_stmt(Counters::WAIT_BUFFER_NS) / 1e3,
        ),
        (
            "storage.pages_read_per_stmt",
            c.per_stmt(Counters::BUF_MISSES),
        ),
        (
            "storage.buffer_hit_ratio",
            c.share(Counters::BUF_HITS, Counters::BUF_MISSES),
        ),
        (
            "storage.evictions_per_stmt",
            c.per_stmt(Counters::BUF_EVICTIONS),
        ),
        (
            "storage.model_io_ms_per_stmt",
            c.per_stmt(Counters::MODEL_IO_NS) / 1e6,
        ),
        (
            "storage.wal_bytes_per_stmt",
            c.per_stmt(Counters::WAL_BYTES),
        ),
        (
            "storage.wal_fsyncs_per_stmt",
            c.per_stmt(Counters::WAL_FSYNCS),
        ),
        (
            "storage.group_size_mean",
            c.0[Counters::WAL_GROUPED] / c.0[Counters::WAL_GROUPS].max(1.0),
        ),
        ("storage.wal_append_us", g.wal_append_us),
        ("storage.wal_barrier_us", g.wal_barrier_us),
        (
            "storage.disk_bytes_per_user_byte",
            closing.stored_bytes as f64 / closing.user_bytes.max(1) as f64,
        ),
        ("storage.recovery_s", closing.recovery_secs),
        (
            "trace.full_cost_ratio",
            stats::paired_cost_ratio(&g.full_cycles),
        ),
        ("daemon.poll_ms", g.daemon_ms),
        ("daemon.wldb_bytes_per_kstmt", g.wldb_bytes_per_kstmt),
        (
            "harness.span_overhead_ratio",
            stats::paired_cost_ratio(&g.span_cycles),
        ),
        ("harness.rss_growth_b_per_stmt", g.rss_growth_b_per_stmt),
        (
            "harness.unattributed_share",
            1.0 - attributed / root_total.max(f64::MIN_POSITIVE),
        ),
    ];
    std::fs::remove_dir_all(&dir)?;
    Ok(Outcome {
        kind,
        correct: g.failed == 0 && notes.is_empty(),
        attempted: g.attempted,
        failed: g.failed,
        samples: latencies.len(),
        blocks: stats::p99_blocks(latencies.len()),
        metrics,
        notes,
    })
}
