#![forbid(unsafe_code)]
//! `ingot-client`: the wire half of the unified [`Connection`] surface.
//!
//! [`ClientConnection`] speaks the `ingot_common::wire` protocol to an
//! `ingot-server` over a Unix or TCP socket and implements the same
//! [`Connection`] / [`PreparedStatement`] traits as the in-process
//! `ingot_core::Session` — shells, examples and bench harnesses written
//! against `&dyn Connection` run unmodified over either transport.
//!
//! Errors round-trip losslessly: a remote `WriteConflict` arrives as
//! [`ingot_common::Error::WriteConflict`] with `is_transient()` intact, so
//! client-side retry loops behave exactly as embedded ones.
//!
//! The server reaps connections silent for longer than its heartbeat
//! budget (5 s by default), so every `ClientConnection` runs a background
//! heartbeat thread that pings whenever the connection has been idle for
//! [`HEARTBEAT_INTERVAL_MS`] — a user pausing at a shell prompt, or an app
//! holding a pooled connection, never gets reaped while the process is
//! alive. [`ClientConnection::connect_with`] can tune or disable it.
//!
//! [`connect_or_spawn`] adds the auto-spawn convenience: if nothing is
//! accepting on the socket, it launches the `ingot-server` binary and
//! retries with backoff — combined with the server's idle auto-shutdown,
//! the daemon becomes an on-demand resident process.

use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ingot_common::net::{connect as net_connect, SocketSpec, Stream};
use ingot_common::wire::{
    FrameReader, FrameWriter, Request, Response, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use ingot_common::{
    Connection, Error, MonotonicClock, PreparedStatement, Result, StatementResult, Value,
};
use parking_lot::{Condvar, Mutex};

/// Default automatic heartbeat cadence: ping after this much idle time.
/// Well under the server's default 5 s `heartbeat_timeout_ms`; a server
/// configured tighter than this needs [`ClientConnection::connect_with`].
pub const HEARTBEAT_INTERVAL_MS: u64 = 1_000;

/// Heartbeat-thread park granularity: short ticks keep `Drop`'s join
/// prompt without busy-waiting.
const HEARTBEAT_TICK_MS: u64 = 200;

/// The connection's stream with its read buffer and reused encode buffer.
struct Wire {
    stream: Stream,
    reader: FrameReader,
    out: FrameWriter,
}

impl Wire {
    fn new(stream: Stream) -> Self {
        Wire {
            stream,
            reader: FrameReader::new(MAX_FRAME_BYTES),
            out: FrameWriter::new(MAX_FRAME_BYTES),
        }
    }

    /// Send `req`, read its response.
    fn roundtrip(&mut self, req: &Request) -> Result<Response> {
        self.out.send_request(&mut self.stream, req)?;
        match self.reader.next_frame(&mut self.stream)? {
            Some((op, body)) => Response::decode(op, body),
            None => Err(Error::protocol("server closed the connection")),
        }
    }
}

/// State shared between the caller and the background heartbeat thread.
struct ConnInner {
    wire: Mutex<Wire>,
    /// OS-handle clone for out-of-band shutdown: lets `Drop` unblock a
    /// heartbeat round-trip stuck on a dead server without needing the
    /// stream mutex that round-trip is holding.
    oob: Option<Stream>,
    closed: AtomicBool,
    /// When the last round-trip completed, nanoseconds on `clock`; the
    /// heartbeat thread only pings a connection idle past its interval.
    last_traffic_ns: AtomicU64,
    clock: MonotonicClock,
    hb_mutex: Mutex<()>,
    hb_cv: Condvar,
}

impl ConnInner {
    fn touch(&self) {
        self.last_traffic_ns
            .store(self.clock.now_nanos(), Ordering::Relaxed);
    }

    /// Mark the connection closed and wake the heartbeat thread; returns
    /// whether it was closed already. The flag changes under `hb_mutex`,
    /// which the heartbeat thread holds from its last look at the flag into
    /// its wait, so the wake-up cannot fall between the two.
    fn mark_closed(&self) -> bool {
        let was_closed = {
            let _hb = self.hb_mutex.lock();
            self.closed.swap(true, Ordering::Relaxed)
        };
        self.hb_cv.notify_all();
        was_closed
    }

    /// One request/response exchange. The mutex spans the whole exchange,
    /// so caller and heartbeat round-trips never interleave on the stream.
    fn roundtrip(&self, req: &Request) -> Result<Response> {
        let resp = self.wire.lock().roundtrip(req)?;
        self.touch();
        Ok(resp)
    }
}

/// Keeps an idle connection alive: pings once the connection has been
/// quiet for a full interval, exits on close or on the first wire error
/// (a dead server is the next caller's error to surface, not ours).
fn heartbeat_loop(inner: &ConnInner, interval_ns: u64) {
    loop {
        if inner.closed.load(Ordering::Relaxed) {
            return;
        }
        let idle = inner
            .clock
            .now_nanos()
            .saturating_sub(inner.last_traffic_ns.load(Ordering::Relaxed));
        if idle < interval_ns {
            let wait_ms = ((interval_ns - idle) / 1_000_000 + 1).min(HEARTBEAT_TICK_MS);
            let mut g = inner.hb_mutex.lock();
            // Under the mutex `mark_closed` stores the flag under.
            if inner.closed.load(Ordering::Relaxed) {
                return;
            }
            let _ = inner.hb_cv.wait_for(&mut g, Duration::from_millis(wait_ms));
            continue;
        }
        let ping = || -> Result<()> {
            let mut wire = inner.wire.lock();
            // Closed while we waited for the stream: nothing to do.
            if inner.closed.load(Ordering::Relaxed) {
                return Ok(());
            }
            match wire.roundtrip(&Request::Heartbeat)? {
                Response::Pong => Ok(()),
                Response::Err(w) => Err(w.into_error()),
                other => Err(Error::protocol(format!("expected pong, got {other:?}"))),
            }
        };
        match ping() {
            Ok(()) => inner.touch(),
            Err(_) => return,
        }
    }
}

/// A live wire connection to an `ingot-server`.
///
/// Thread-safe: the single underlying stream is serialized by a mutex, so
/// one `ClientConnection` is one server session with one outstanding
/// request at a time (open more connections for parallelism — that is what
/// the fleet bench does). A background thread heartbeats the connection
/// whenever it sits idle, so the server's orphan reaper only ever fires on
/// clients whose *process* vanished.
pub struct ClientConnection {
    inner: Arc<ConnInner>,
    session_id: u64,
    heartbeater: Option<std::thread::JoinHandle<()>>,
}

impl ClientConnection {
    /// Connect and handshake with the default client label.
    pub fn connect(spec: &SocketSpec) -> Result<ClientConnection> {
        Self::connect_with_name(spec, "ingot-client")
    }

    /// Connect and handshake, identifying as `name` in `ima$connections`.
    pub fn connect_with_name(spec: &SocketSpec, name: &str) -> Result<ClientConnection> {
        Self::connect_with(spec, name, HEARTBEAT_INTERVAL_MS)
    }

    /// Connect with an explicit automatic-heartbeat interval in
    /// milliseconds. Pass a value comfortably under the server's
    /// `heartbeat_timeout_ms`; `0` disables automatic heartbeats entirely —
    /// the caller then owns liveness via [`heartbeat`](Self::heartbeat)
    /// (tests use this to impersonate a vanished client).
    pub fn connect_with(
        spec: &SocketSpec,
        name: &str,
        heartbeat_interval_ms: u64,
    ) -> Result<ClientConnection> {
        let mut wire = Wire::new(net_connect(spec)?);
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            client: name.to_string(),
        };
        match wire.roundtrip(&hello)? {
            Response::HelloOk { session_id, .. } => {
                let oob = wire.stream.try_clone().ok();
                let clock = MonotonicClock::new();
                let inner = Arc::new(ConnInner {
                    wire: Mutex::new(wire),
                    oob,
                    closed: AtomicBool::new(false),
                    last_traffic_ns: AtomicU64::new(clock.now_nanos()),
                    clock,
                    hb_mutex: Mutex::new(()),
                    hb_cv: Condvar::new(),
                });
                let heartbeater = (heartbeat_interval_ms > 0).then(|| {
                    let inner = Arc::clone(&inner);
                    let interval_ns = heartbeat_interval_ms.saturating_mul(1_000_000);
                    std::thread::spawn(move || heartbeat_loop(&inner, interval_ns))
                });
                Ok(ClientConnection {
                    inner,
                    session_id,
                    heartbeater,
                })
            }
            Response::Err(w) => Err(w.into_error()),
            other => Err(Error::protocol(format!("expected hello_ok, got {other:?}"))),
        }
    }

    /// The engine session id serving this connection (joins against
    /// `ima$connections.session` and the ASH tables).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Explicit liveness ping; resets the server's orphan-reaper deadline.
    /// The background heartbeat thread already does this for idle
    /// connections — call it yourself only with heartbeats disabled.
    pub fn heartbeat(&self) -> Result<()> {
        match self.inner.roundtrip(&Request::Heartbeat)? {
            Response::Pong => Ok(()),
            Response::Err(w) => Err(w.into_error()),
            other => Err(Error::protocol(format!("expected pong, got {other:?}"))),
        }
    }

    /// Ask the server process to drain and exit (admin verb). Unix-socket
    /// peers are always honoured; over TCP the server refuses unless it was
    /// started with `--allow-remote-shutdown`, and this connection stays
    /// usable after the refusal.
    pub fn shutdown_server(&self) -> Result<()> {
        match self.inner.roundtrip(&Request::Shutdown)? {
            Response::Goodbye => {
                self.inner.mark_closed();
                Ok(())
            }
            Response::Err(w) => Err(w.into_error()),
            other => Err(Error::protocol(format!("expected goodbye, got {other:?}"))),
        }
    }

    /// Orderly close. Dropping the connection does this best-effort.
    pub fn close(self) -> Result<()> {
        self.inner.mark_closed();
        match self.inner.roundtrip(&Request::Close)? {
            Response::Goodbye => Ok(()),
            Response::Err(w) => Err(w.into_error()),
            other => Err(Error::protocol(format!("expected goodbye, got {other:?}"))),
        }
    }

    fn statement(&self, req: &Request) -> Result<StatementResult> {
        match self.inner.roundtrip(req)? {
            Response::Rows(r) => Ok(r),
            Response::Ok => Ok(StatementResult::default()),
            Response::Err(w) => Err(w.into_error()),
            Response::Goodbye => Err(Error::protocol("server is draining")),
            other => Err(Error::protocol(format!("unexpected response {other:?}"))),
        }
    }

    fn unit(&self, req: &Request) -> Result<()> {
        match self.inner.roundtrip(req)? {
            Response::Ok => Ok(()),
            Response::Err(w) => Err(w.into_error()),
            Response::Goodbye => Err(Error::protocol("server is draining")),
            other => Err(Error::protocol(format!("unexpected response {other:?}"))),
        }
    }
}

impl Drop for ClientConnection {
    fn drop(&mut self) {
        if !self.inner.mark_closed() {
            // Best-effort orderly close; the server also copes with a bare
            // EOF (and its reaper with neither). Never wait behind a
            // heartbeat round-trip that may itself be stuck on a dead
            // server — fall back to an out-of-band shutdown instead.
            match self.inner.wire.try_lock() {
                Some(mut wire) => {
                    let Wire { stream, out, .. } = &mut *wire;
                    let _ = out.send_request(stream, &Request::Close);
                    stream.shutdown();
                }
                None => {
                    if let Some(s) = &self.inner.oob {
                        s.shutdown();
                    }
                }
            }
        }
        if let Some(t) = self.heartbeater.take() {
            let _ = t.join();
        }
    }
}

/// A server-side prepared handle (the statement lives in the server's plan
/// cache; only parameter values cross the wire per execution).
pub struct ClientPrepared<'a> {
    conn: &'a ClientConnection,
    id: u64,
    param_count: usize,
}

impl PreparedStatement for ClientPrepared<'_> {
    fn param_count(&self) -> usize {
        self.param_count
    }

    fn execute(&self, params: &[Value]) -> Result<StatementResult> {
        self.conn.statement(&Request::ExecutePrepared {
            id: self.id,
            params: params.to_vec(),
        })
    }
}

impl Drop for ClientPrepared<'_> {
    fn drop(&mut self) {
        if !self.conn.inner.closed.load(Ordering::Relaxed) {
            let _ = self
                .conn
                .inner
                .roundtrip(&Request::ClosePrepared { id: self.id });
        }
    }
}

impl Connection for ClientConnection {
    fn execute(&self, sql: &str) -> Result<StatementResult> {
        self.statement(&Request::Execute {
            sql: sql.to_string(),
            params: Vec::new(),
        })
    }

    fn query(&self, sql: &str) -> Result<StatementResult> {
        self.statement(&Request::Query {
            sql: sql.to_string(),
        })
    }

    fn prepare(&self, sql: &str) -> Result<Box<dyn PreparedStatement + '_>> {
        match self.inner.roundtrip(&Request::Prepare {
            sql: sql.to_string(),
        })? {
            Response::PreparedOk { id, param_count } => Ok(Box::new(ClientPrepared {
                conn: self,
                id,
                param_count: param_count as usize,
            })),
            Response::Err(w) => Err(w.into_error()),
            other => Err(Error::protocol(format!(
                "expected prepared_ok, got {other:?}"
            ))),
        }
    }

    fn set(&self, name: &str, value: &Value) -> Result<()> {
        self.unit(&Request::Set {
            name: name.to_string(),
            value: value.clone(),
        })
    }

    fn begin(&self) -> Result<()> {
        self.unit(&Request::Begin)
    }

    fn commit(&self) -> Result<()> {
        self.unit(&Request::Commit)
    }

    fn rollback(&self) -> Result<()> {
        self.unit(&Request::Rollback)
    }
}

/// How [`connect_or_spawn`] launches a server when none is listening.
#[derive(Debug, Clone, Default)]
pub struct SpawnOptions {
    /// Server binary. Defaults to `$INGOT_SERVER_BIN`, falling back to
    /// `ingot-server` on `PATH`.
    pub server_bin: Option<std::path::PathBuf>,
    /// `--data DIR` for the spawned server (file-backed storage).
    pub data_dir: Option<std::path::PathBuf>,
    /// `--idle-shutdown-ms` for the spawned server (on-demand daemons
    /// usually want this so an abandoned server exits by itself).
    pub idle_shutdown_ms: Option<u64>,
    /// Extra argv appended verbatim.
    pub extra_args: Vec<String>,
    /// Total connect-retry budget in milliseconds (default 5000).
    pub connect_timeout_ms: Option<u64>,
}

impl SpawnOptions {
    fn bin(&self) -> std::path::PathBuf {
        self.server_bin
            .clone()
            .or_else(|| std::env::var_os("INGOT_SERVER_BIN").map(Into::into))
            .unwrap_or_else(|| "ingot-server".into())
    }
}

/// Connect to `spec`; if nothing is accepting, spawn an `ingot-server`
/// there and retry with backoff until it comes up (or the budget runs out).
///
/// Spawn happens at most once; the retry loop also covers the case where a
/// *different* client's freshly spawned server is still binding, so
/// concurrent auto-spawns converge on one server (the loser's bind fails
/// against the winner's live socket and its spawned process exits).
pub fn connect_or_spawn(spec: &SocketSpec, opts: &SpawnOptions) -> Result<ClientConnection> {
    match ClientConnection::connect(spec) {
        Ok(c) => return Ok(c),
        Err(Error::Protocol(m)) => return Err(Error::Protocol(m)),
        Err(_) => {}
    }
    let mut cmd = Command::new(opts.bin());
    cmd.arg("--socket")
        .arg(spec.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(dir) = &opts.data_dir {
        cmd.arg("--data").arg(dir);
    }
    if let Some(ms) = opts.idle_shutdown_ms {
        cmd.arg("--idle-shutdown-ms").arg(ms.to_string());
    }
    cmd.args(&opts.extra_args);
    cmd.spawn()
        .map_err(|e| Error::daemon(format!("spawning {:?} failed: {e}", opts.bin())))?;
    let clock = MonotonicClock::new();
    let budget_ns = opts
        .connect_timeout_ms
        .unwrap_or(5_000)
        .saturating_mul(1_000_000);
    let mut backoff_ms = 5u64;
    let mut last_err = None;
    while clock.now_nanos() < budget_ns {
        match ClientConnection::connect(spec) {
            Ok(c) => return Ok(c),
            Err(Error::Protocol(m)) => return Err(Error::Protocol(m)),
            Err(e) => last_err = Some(e),
        }
        // Waiting out a cold server start; there is no event to block on
        // (the socket file appears whenever the child finishes binding), so
        // a plain backoff sleep is the honest tool here.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(Duration::from_millis(backoff_ms));
        backoff_ms = (backoff_ms * 2).min(200);
    }
    Err(last_err
        .unwrap_or_else(|| Error::daemon(format!("server on {spec} did not come up in time"))))
}
