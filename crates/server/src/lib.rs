#![deny(unsafe_code)]
//! `ingot-server`: the engine served over a Unix/TCP socket.
//!
//! The paper's integrated-monitoring loop assumes a long-lived server that
//! many clients share; this crate is that daemon. One process embeds one
//! [`Engine`], accepts wire connections (length-prefixed binary frames, see
//! `ingot_common::wire`), and multiplexes each connection onto its own
//! engine [`Session`](ingot_core::Session) — so every wire client rides the
//! shared plan cache, the MVCC snapshots, the WAL group commit and the full
//! `ima$…` monitoring surface exactly as an embedded caller would.
//!
//! Lifecycle:
//!
//! * **Bind** ([`Server::bind`]) — stale-socket recovery is bind-race safe:
//!   connect-probe before unlink, re-probe instead of re-unlink on a
//!   post-unlink `AddrInUse` (see [`socket::bind`]).
//! * **Serve** ([`Server::run`]) — per-connection handler threads; a reaper
//!   thread drives ASH sampling, heartbeat expiry (orphaned connections are
//!   killed and their open transaction aborts, charged to
//!   `ima$transactions`), and the idle auto-shutdown clock.
//! * **Drain** — on SIGTERM ([`signal`]) or [`StopHandle::request_stop`]:
//!   stop accepting, let in-flight statements and open transactions finish
//!   up to [`ServerConfig::drain_deadline_ms`], then abort idle-in-txn
//!   stragglers. Acknowledged commits are durable before the ack leaves the
//!   server, so a drain never loses one.
//!
//! The fleet is observable as the `ima$connections` virtual table (peer,
//! state, current statement, wait event, idle time, transaction age) and its
//! traffic as the one-row `ima$server` table ([`ServerStats`]), both
//! attached through the engine's swappable provider slots so an in-process
//! restart serves fresh rows.

pub mod registry;
pub mod signal;
pub mod socket;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ingot_common::wire::{
    self, FrameReader, FrameWriter, Request, Response, WireError, PROTOCOL_VERSION,
};
use ingot_common::{Error, Result, StatementResult};
use ingot_core::{ima, ConnectionRow, Engine, Prepared};
use ingot_trace::{MetricsSnapshot, ServerStats};
use parking_lot::{Condvar, Mutex};

use registry::{ConnRegistry, ConnShared, ConnState};
use socket::{Listener, SocketSpec, Stream};

/// Handler read-timeout: how often a blocked connection checks its kill /
/// drain flags.
const READ_POLL_MS: u64 = 200;

/// Accept-loop and reaper tick.
const TICK_MS: u64 = 20;

/// Extra grace after the drain deadline for killed handlers to unwind.
const KILL_GRACE_MS: u64 = 2_000;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub socket: SocketSpec,
    /// A connection with no traffic for this long (and no statement in
    /// flight) is treated as orphaned and reaped. Clients idle longer than
    /// this must send `Heartbeat` frames.
    pub heartbeat_timeout_ms: u64,
    /// Exit after the fleet has been empty this long; 0 disables.
    pub idle_shutdown_ms: u64,
    /// Graceful-drain budget: how long open transactions may keep running
    /// after a stop request before they are aborted.
    pub drain_deadline_ms: u64,
    /// Per-frame size ceiling.
    pub max_frame_bytes: u32,
    /// Honour the `Shutdown` verb from TCP peers. Unix-socket peers may
    /// always stop the server (filesystem permissions already gate them);
    /// over TCP the verb is refused unless this opts in — otherwise any
    /// client that can reach the port could terminate the shared process.
    pub allow_remote_shutdown: bool,
}

impl ServerConfig {
    /// Defaults for `socket`: 5 s heartbeat timeout, no idle shutdown,
    /// 1 s drain deadline.
    pub fn new(socket: SocketSpec) -> Self {
        ServerConfig {
            socket,
            heartbeat_timeout_ms: 5_000,
            idle_shutdown_ms: 0,
            drain_deadline_ms: 1_000,
            max_frame_bytes: wire::MAX_FRAME_BYTES,
            allow_remote_shutdown: false,
        }
    }
}

/// Why [`Server::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// A stop was requested (signal, `Shutdown` verb or [`StopHandle`]) and
    /// the fleet drained.
    Drained,
    /// The fleet stayed empty past [`ServerConfig::idle_shutdown_ms`].
    IdleShutdown,
}

/// Condvar-based pacing (the workspace bans `std::thread::sleep`): waits
/// are interruptible, so a stop request shortens every pending pause.
struct Pacer {
    m: Mutex<()>,
    cv: Condvar,
}

impl Pacer {
    fn new() -> Self {
        Pacer {
            m: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn pause(&self, ms: u64) {
        let mut g = self.m.lock();
        let _ = self.cv.wait_for(&mut g, Duration::from_millis(ms));
    }

    fn notify(&self) {
        self.cv.notify_all();
    }
}

/// Everything the handler and reaper threads share.
struct ServerCtx {
    engine: Arc<Engine>,
    registry: Arc<ConnRegistry>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    pacer: Arc<Pacer>,
    max_frame: u32,
    allow_remote_shutdown: bool,
}

/// Requests a running server to drain and exit; cloneable, cheap, safe to
/// use from any thread (tests stand in for SIGTERM with this).
#[derive(Clone)]
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    pacer: Arc<Pacer>,
}

impl StopHandle {
    /// Trigger the same graceful drain a SIGTERM would.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.pacer.notify();
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    config: ServerConfig,
    listener: Listener,
    ctx: Arc<ServerCtx>,
}

impl Server {
    /// Bind `config.socket` (with stale-socket recovery) and attach the
    /// `ima$connections` and `ima$server` providers to `engine`. The server
    /// does not accept until [`run`](Self::run).
    pub fn bind(engine: Arc<Engine>, config: ServerConfig) -> Result<Server> {
        let listener = socket::bind(&config.socket)?;
        let registry = Arc::new(ConnRegistry::new(*engine.wall_clock()));
        let stats = Arc::new(ServerStats::new());
        // An unmonitored engine (the Original setup) lists no fleet and no
        // server row.
        if engine.monitor().is_some() {
            let fleet = Arc::clone(&registry);
            engine.attach(move || fleet.connections())?;
            let traffic = Arc::clone(&stats);
            engine.attach(move || vec![Arc::clone(&traffic)])?;
        }
        let ctx = Arc::new(ServerCtx {
            engine,
            registry,
            stats,
            stop: Arc::new(AtomicBool::new(false)),
            draining: Arc::new(AtomicBool::new(false)),
            pacer: Arc::new(Pacer::new()),
            max_frame: config.max_frame_bytes,
            allow_remote_shutdown: config.allow_remote_shutdown,
        });
        Ok(Server {
            config,
            listener,
            ctx,
        })
    }

    /// The wire-traffic counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.ctx.stats
    }

    /// The embedded engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.ctx.engine
    }

    /// The spec actually bound (a `tcp:…:0` request resolves to the
    /// kernel-assigned port).
    pub fn local_spec(&self) -> SocketSpec {
        self.listener.local_spec()
    }

    /// A handle that triggers graceful drain from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            stop: Arc::clone(&self.ctx.stop),
            pacer: Arc::clone(&self.ctx.pacer),
        }
    }

    /// Engine metrics followed by this server's `ima$server` row.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.ctx.engine.metrics_snapshot();
        ima::export(&mut snap, vec![Arc::clone(&self.ctx.stats)]);
        snap
    }

    fn stop_requested(&self) -> bool {
        self.ctx.stop.load(Ordering::Relaxed) || signal::term_requested()
    }

    /// Accept and serve until a stop request or idle shutdown, then drain.
    ///
    /// Drain sequence: close the listener (new connects are refused and the
    /// Unix socket file unlinked — a later starter's connect-probe gets
    /// "refused" and recovers), mark the fleet draining (handlers say
    /// `Goodbye` to idle connections and let in-flight statements and open
    /// transactions finish), and after
    /// [`drain_deadline_ms`](ServerConfig::drain_deadline_ms) abort
    /// idle-in-txn stragglers by force-closing them — Session teardown rolls
    /// the transaction back, charged to `ima$transactions`. A best-effort
    /// checkpoint then shrinks the restart's WAL replay.
    pub fn run(self) -> Result<RunOutcome> {
        self.listener.set_nonblocking()?;
        let handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let reaper_done = Arc::new(AtomicBool::new(false));
        let reaper = {
            let ctx = Arc::clone(&self.ctx);
            let done = Arc::clone(&reaper_done);
            let heartbeat_ns = self.config.heartbeat_timeout_ms.saturating_mul(1_000_000);
            std::thread::spawn(move || reaper_loop(&ctx, &done, heartbeat_ns))
        };

        let via_unix = matches!(self.listener, Listener::Unix(..));
        let outcome = loop {
            if self.stop_requested() {
                break RunOutcome::Drained;
            }
            if self.config.idle_shutdown_ms > 0
                && self.ctx.registry.idle_ns()
                    >= self.config.idle_shutdown_ms.saturating_mul(1_000_000)
            {
                break RunOutcome::IdleShutdown;
            }
            match self.listener.accept() {
                Ok(Some((stream, peer))) => {
                    self.ctx
                        .stats
                        .connections_opened
                        .fetch_add(1, Ordering::Relaxed);
                    match stream.try_clone() {
                        Ok(clone) => {
                            let shared = self.ctx.registry.register(peer, via_unix, clone);
                            let ctx = Arc::clone(&self.ctx);
                            handles.lock().push(std::thread::spawn(move || {
                                serve_conn(&ctx, &shared, stream);
                            }));
                        }
                        Err(_) => drop(stream),
                    }
                }
                Ok(None) => self.ctx.pacer.pause(TICK_MS),
                // Transient accept failures (EMFILE pressure, aborted
                // connects) must not take the whole server down.
                Err(_) => self.ctx.pacer.pause(TICK_MS),
            }
        };

        // --- drain ---
        self.ctx.draining.store(true, Ordering::Relaxed);
        self.listener.close();
        self.ctx.pacer.notify();
        let clock = *self.ctx.registry.clock();
        let deadline = clock.now_nanos() + self.config.drain_deadline_ms.saturating_mul(1_000_000);
        while !self.ctx.registry.is_empty() && clock.now_nanos() < deadline {
            self.ctx.pacer.pause(10);
        }
        for conn in self.ctx.registry.snapshot() {
            conn.kill_now();
        }
        let grace = deadline + KILL_GRACE_MS * 1_000_000;
        while !self.ctx.registry.is_empty() && clock.now_nanos() < grace {
            self.ctx.pacer.pause(10);
        }
        reaper_done.store(true, Ordering::Relaxed);
        self.ctx.pacer.notify();
        let _ = reaper.join();
        for h in handles.lock().drain(..) {
            let _ = h.join();
        }
        let _ = self.ctx.engine.checkpoint();
        self.ctx.engine.detach::<ConnectionRow>();
        self.ctx.engine.detach::<Arc<ServerStats>>();
        Ok(outcome)
    }
}

/// ASH sampling, heartbeat expiry and nothing else — the reaper never
/// touches the statement path.
fn reaper_loop(ctx: &ServerCtx, done: &AtomicBool, heartbeat_ns: u64) {
    while !done.load(Ordering::Relaxed) {
        ctx.pacer.pause(TICK_MS);
        let now = ctx.registry.clock().now_nanos();
        if let Some(sampler) = ctx.engine.ash_sampler() {
            sampler.sample_if_due(now);
        }
        for conn in ctx.registry.snapshot() {
            // A connection mid-statement is alive even when silent: the
            // client is waiting for our response, not heartbeating.
            if conn.state() == ConnState::Active {
                continue;
            }
            let last = conn.last_activity_ns.load(Ordering::Relaxed);
            if now.saturating_sub(last) > heartbeat_ns && !conn.kill.load(Ordering::Relaxed) {
                conn.kill_now();
                ctx.stats.connections_reaped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A connection's frame buffers: one persistent read buffer and one reused
/// encode buffer (`wire::FrameReader` / `wire::FrameWriter`).
struct ConnIo {
    reader: FrameReader,
    out: FrameWriter,
}

/// Full connection lifecycle: handshake, serve, teardown. Teardown always
/// runs — dropping the engine [`Session`] aborts an open transaction
/// (charged to `ima$transactions`) and releases its locks, which is exactly
/// the orphan-reap path.
fn serve_conn(ctx: &Arc<ServerCtx>, shared: &Arc<ConnShared>, mut stream: Stream) {
    let mut io = ConnIo {
        reader: FrameReader::new(ctx.max_frame),
        out: FrameWriter::new(ctx.max_frame),
    };
    let _ = handshake_and_serve(ctx, shared, &mut io, &mut stream);
    shared.stream.lock().take();
    ctx.registry.deregister(shared.conn_id);
    ctx.stats.connections_closed.fetch_add(1, Ordering::Relaxed);
}

/// Read and decode one request, treating poll timeouts as flag-check
/// ticks. `Ok(None)` means the connection is over (EOF, kill, or drain
/// while idle). A frame that does not decode is answered with its error
/// before the error is returned.
fn read_or_tick(
    ctx: &ServerCtx,
    shared: &ConnShared,
    io: &mut ConnIo,
    stream: &mut Stream,
    in_txn: impl Fn() -> bool,
) -> Result<Option<Request>> {
    loop {
        if shared.kill.load(Ordering::Relaxed) {
            return Ok(None);
        }
        if ctx.draining.load(Ordering::Relaxed) || ctx.stop.load(Ordering::Relaxed) {
            shared.set_state(ConnState::Draining);
            if !in_txn() {
                // Idle and not mid-transaction: say goodbye and leave. A
                // connection inside a transaction keeps serving until it
                // commits/rolls back or the drain deadline kills it.
                let _ = send(ctx, io, stream, &Response::Goodbye);
                return Ok(None);
            }
        }
        let (op, body) = match io.reader.next_frame(stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(None),
            // Read timeout with no byte of the next frame buffered: loop to
            // re-check flags. A peer that stalls *mid-frame* past
            // READ_POLL_MS surfaces as `Error::Protocol` instead and is
            // dropped — the reader never reports a retryable error once the
            // stream position is inside a frame.
            Err(Error::TransientIo(_)) => continue,
            Err(e) => return Err(e),
        };
        ctx.stats.frames_in.fetch_add(1, Ordering::Relaxed);
        ctx.stats
            .bytes_in
            .fetch_add(body.len() as u64, Ordering::Relaxed);
        shared.touch(ctx.registry.clock().now_nanos());
        return match Request::decode(op, body) {
            Ok(req) => Ok(Some(req)),
            Err(e) => {
                let _ = send(ctx, io, stream, &Response::Err(WireError::from_error(&e)));
                Err(e)
            }
        };
    }
}

fn send(ctx: &ServerCtx, io: &mut ConnIo, stream: &mut Stream, resp: &Response) -> Result<()> {
    let mut body_len = io.out.encode_response(resp);
    let mut is_err = matches!(resp, Response::Err(_));
    // A response that does not fit under the frame cap (a giant result set,
    // typically) must not reach the wire: the peer would reject the length
    // prefix as stream corruption and the connection would die. Replace it
    // with a clean, small error frame instead.
    let cap = ctx.max_frame.min(wire::MAX_FRAME_BYTES);
    if 1 + body_len as u64 > u64::from(cap) {
        let e = Error::execution(format!(
            "response of {} bytes exceeds the {cap}-byte frame cap; narrow the \
             result set (e.g. with LIMIT)",
            1 + body_len,
        ));
        body_len = io
            .out
            .encode_response(&Response::Err(WireError::from_error(&e)));
        is_err = true;
    }
    if is_err {
        ctx.stats.errors_sent.fetch_add(1, Ordering::Relaxed);
    }
    ctx.stats.frames_out.fetch_add(1, Ordering::Relaxed);
    ctx.stats
        .bytes_out
        .fetch_add(body_len as u64, Ordering::Relaxed);
    io.out.send(stream)
}

/// Execute one statement on behalf of the wire client, showing its text in
/// the fleet view while it runs (the caller has already set `active`).
fn run_statement(
    ctx: &ServerCtx,
    shared: &ConnShared,
    sql: Arc<str>,
    exec: impl FnOnce() -> Result<StatementResult>,
) -> Response {
    *shared.current_sql.lock() = Some(sql);
    ctx.stats.statements_served.fetch_add(1, Ordering::Relaxed);
    let result = exec();
    *shared.current_sql.lock() = None;
    match result {
        Ok(r) => Response::Rows(r),
        Err(e) => Response::Err(WireError::from_error(&e)),
    }
}

fn ok_or_err(result: Result<()>) -> Response {
    match result {
        Ok(()) => Response::Ok,
        Err(e) => Response::Err(WireError::from_error(&e)),
    }
}

fn handshake_and_serve(
    ctx: &Arc<ServerCtx>,
    shared: &Arc<ConnShared>,
    io: &mut ConnIo,
    stream: &mut Stream,
) -> Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(READ_POLL_MS)))?;

    // --- handshake: the first frame must be Hello with our exact version.
    let Some(hello) = read_or_tick(ctx, shared, io, stream, || false)? else {
        return Ok(());
    };
    let Request::Hello { version, client } = hello else {
        let e = Error::protocol("first frame must be hello");
        let _ = send(ctx, io, stream, &Response::Err(WireError::from_error(&e)));
        return Err(e);
    };
    if version != PROTOCOL_VERSION {
        let e = Error::protocol(format!(
            "protocol version mismatch: client speaks {version}, server speaks \
             {PROTOCOL_VERSION}"
        ));
        let _ = send(ctx, io, stream, &Response::Err(WireError::from_error(&e)));
        return Err(e);
    }
    let _ = shared.client.set(client);

    let session = ctx.engine.open_session();
    shared
        .session_id
        .store(session.id().raw(), Ordering::Relaxed);
    if let Some(slot) = session.ash_slot() {
        let _ = shared.ash.set(Arc::clone(slot));
    }
    shared.set_state(ConnState::Idle);
    shared.touch(ctx.registry.clock().now_nanos());
    send(
        ctx,
        io,
        stream,
        &Response::HelloOk {
            version: PROTOCOL_VERSION,
            session_id: session.id().raw(),
        },
    )?;

    // --- serve. Prepared handles borrow `session`, so the map lives in
    // this same frame (declared after the session: dropped first). Each
    // keeps its text as the `Arc` the fleet view shows while it runs.
    let mut prepared: HashMap<u64, (Prepared<'_>, Arc<str>)> = HashMap::new();
    let mut next_handle: u64 = 1;

    loop {
        let Some(req) = read_or_tick(ctx, shared, io, stream, || session.in_transaction())? else {
            return Ok(());
        };
        // Every verb — not just statements — runs as `active`, so the reaper
        // never mistakes a commit (or begin/rollback/set) stalled past the
        // heartbeat timeout for an orphan and kills it mid-verb.
        shared.set_state(ConnState::Active);
        let resp = match req {
            Request::Hello { .. } => {
                Response::Err(WireError::from_error(&Error::protocol("duplicate hello")))
            }
            Request::Prepare { sql } => match session.prepare(&sql) {
                Ok(p) => {
                    let id = next_handle;
                    next_handle += 1;
                    let param_count = p.param_count() as u64;
                    let text = Arc::from(p.text());
                    prepared.insert(id, (p, text));
                    Response::PreparedOk { id, param_count }
                }
                Err(e) => Response::Err(WireError::from_error(&e)),
            },
            Request::ExecutePrepared { id, params } => match prepared.get(&id) {
                Some((p, text)) => {
                    run_statement(ctx, shared, Arc::clone(text), || p.execute(&params))
                }
                None => Response::Err(WireError::from_error(&Error::execution(format!(
                    "unknown prepared handle {id}"
                )))),
            },
            Request::Execute { sql, params } => {
                let text = Arc::from(sql.as_str());
                if params.is_empty() {
                    run_statement(ctx, shared, text, || session.execute(&sql))
                } else {
                    run_statement(ctx, shared, text, || {
                        session.prepare(&sql)?.execute(&params)
                    })
                }
            }
            Request::Query { sql } => run_statement(ctx, shared, Arc::from(sql.as_str()), || {
                session.execute(&sql)
            }),
            Request::Set { name, value } => {
                ok_or_err(session.set_option(&name, &value).map(|_| ()))
            }
            Request::Begin => ok_or_err(session.begin()),
            Request::Commit => ok_or_err(session.commit()),
            Request::Rollback => ok_or_err(session.rollback()),
            Request::ClosePrepared { id } => {
                prepared.remove(&id);
                Response::Ok
            }
            Request::Heartbeat => {
                ctx.stats.heartbeats.fetch_add(1, Ordering::Relaxed);
                Response::Pong
            }
            Request::Close => {
                let _ = send(ctx, io, stream, &Response::Goodbye);
                return Ok(());
            }
            Request::Shutdown => {
                if shared.via_unix || ctx.allow_remote_shutdown {
                    let _ = send(ctx, io, stream, &Response::Goodbye);
                    ctx.stop.store(true, Ordering::Relaxed);
                    ctx.pacer.notify();
                    return Ok(());
                }
                // Any client that can reach a TCP port must not be able to
                // terminate the shared server; refuse but keep serving.
                Response::Err(WireError::from_error(&Error::execution(
                    "shutdown refused: only unix-socket peers may stop this \
                     server (start it with --allow-remote-shutdown to permit \
                     tcp clients)",
                )))
            }
        };
        // Fleet-view bookkeeping: transaction age + idle state. The verb may
        // have run longer than the heartbeat budget, so re-stamp activity
        // *after* it finishes — the flip back to idle below must never expose
        // a pre-execution timestamp to the reaper.
        let now = ctx.registry.clock().now_nanos();
        shared.touch(now);
        let in_txn = session.in_transaction();
        if in_txn {
            let _ =
                shared
                    .txn_since_ns
                    .compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
        } else {
            shared.txn_since_ns.store(0, Ordering::Relaxed);
        }
        shared.set_state(if ctx.draining.load(Ordering::Relaxed) {
            ConnState::Draining
        } else if in_txn {
            ConnState::IdleInTxn
        } else {
            ConnState::Idle
        });
        send(ctx, io, stream, &resp)?;
    }
}

/// One-call convenience used by the daemon binary and tests: build an
/// engine per `opts`, bind, install nothing (signals are the binary's
/// concern), and return the bound server.
pub fn serve_engine(engine: Arc<Engine>, config: ServerConfig) -> Result<Server> {
    Server::bind(engine, config)
}
