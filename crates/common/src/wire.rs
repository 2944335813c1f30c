//! The Ingot wire protocol: length-prefixed binary frames.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! frame  = len:u32  opcode:u8  body          (len = 1 + body length)
//! string = len:u32  utf8-bytes
//! value  = tag:u8   payload                  (0=null, 1=int i64, 2=float
//!                                             f64-bits, 3=str string,
//!                                             4=bool u8)
//! ```
//!
//! Requests carry opcodes `0x01`‥`0x0d`, responses `0x81`‥`0x87`. The very
//! first frame on a connection must be [`Request::Hello`]; the server
//! answers [`Response::HelloOk`] with its own [`PROTOCOL_VERSION`] so a
//! mismatched client can report both sides. Every [`crate::Error`] variant
//! maps to a stable numeric code (see [`WIRE_CODE_TABLE`]) with a
//! `retryable` flag mirroring [`crate::Error::is_transient`], and the
//! mapping round-trips losslessly — a remote caller can match on error
//! kinds exactly like an embedded one.
//!
//! **Compatibility discipline.** The frame layout is pinned by the ledger
//! file `crates/common/wire_layout.txt`: its frames section (everything
//! after the `---` line) must equal [`layout_descriptor`] byte-for-byte,
//! and each ledger header line records `version N hash <fnv1a64>` of that
//! section. Changing any encoding changes the descriptor, which forces a
//! new ledger entry *and* a [`PROTOCOL_VERSION`] bump — enforced by the
//! `wire_layout_ledger_is_current` test here and by ingot-verify check 13
//! (`wire-compat`).

use std::io::{Read, Write};

use crate::conn::StatementResult;
use crate::cost::Cost;
use crate::error::{Error, Result};
use crate::row::Row;
use crate::value::Value;

/// Version sent in `Hello` / `HelloOk`. Bump on **any** frame-layout or
/// opcode change, together with a new `wire_layout.txt` ledger entry.
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard ceiling on one frame's length prefix; larger prefixes are treated
/// as stream corruption rather than honoured with an allocation.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Error <-> wire code mapping.
// ---------------------------------------------------------------------------

/// One row of the error-code mapping: `variant` is the `Error` variant
/// name, `code` its stable wire code (append-only: codes are never reused
/// or renumbered), `retryable` the transported
/// [`is_transient`](Error::is_transient) classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCodeEntry {
    /// `Error` variant name, e.g. `"WriteConflict"`.
    pub variant: &'static str,
    /// Stable numeric code carried in `Response::Err`.
    pub code: u16,
    /// Whether a capped backoff-and-retry loop is expected to clear it.
    pub retryable: bool,
}

/// The closed error-code table. Append new variants at the end with fresh
/// codes; ingot-verify check 13 cross-checks this table against the `Error`
/// enum (every variant mapped, no code claimed twice).
pub const WIRE_CODE_TABLE: &[WireCodeEntry] = &[
    WireCodeEntry {
        variant: "Parse",
        code: 1,
        retryable: false,
    },
    WireCodeEntry {
        variant: "Binder",
        code: 2,
        retryable: false,
    },
    WireCodeEntry {
        variant: "Type",
        code: 3,
        retryable: false,
    },
    WireCodeEntry {
        variant: "Catalog",
        code: 4,
        retryable: false,
    },
    WireCodeEntry {
        variant: "Storage",
        code: 5,
        retryable: false,
    },
    WireCodeEntry {
        variant: "Plan",
        code: 6,
        retryable: false,
    },
    WireCodeEntry {
        variant: "Execution",
        code: 7,
        retryable: false,
    },
    WireCodeEntry {
        variant: "Deadlock",
        code: 8,
        retryable: true,
    },
    WireCodeEntry {
        variant: "LockTimeout",
        code: 9,
        retryable: true,
    },
    WireCodeEntry {
        variant: "Constraint",
        code: 10,
        retryable: false,
    },
    WireCodeEntry {
        variant: "WriteConflict",
        code: 11,
        retryable: true,
    },
    WireCodeEntry {
        variant: "Monitor",
        code: 12,
        retryable: false,
    },
    WireCodeEntry {
        variant: "Daemon",
        code: 13,
        retryable: false,
    },
    WireCodeEntry {
        variant: "Io",
        code: 14,
        retryable: false,
    },
    WireCodeEntry {
        variant: "TransientIo",
        code: 15,
        retryable: true,
    },
    WireCodeEntry {
        variant: "PlanCacheInvalidated",
        code: 16,
        retryable: true,
    },
    WireCodeEntry {
        variant: "ParamArity",
        code: 17,
        retryable: false,
    },
    WireCodeEntry {
        variant: "Unsupported",
        code: 18,
        retryable: false,
    },
    WireCodeEntry {
        variant: "Protocol",
        code: 19,
        retryable: false,
    },
];

/// The variant name of `e` — the key into [`WIRE_CODE_TABLE`].
pub fn variant_name(e: &Error) -> &'static str {
    match e {
        Error::Parse(_) => "Parse",
        Error::Binder(_) => "Binder",
        Error::Type(_) => "Type",
        Error::Catalog(_) => "Catalog",
        Error::Storage(_) => "Storage",
        Error::Plan(_) => "Plan",
        Error::Execution(_) => "Execution",
        Error::Deadlock { .. } => "Deadlock",
        Error::LockTimeout(_) => "LockTimeout",
        Error::Constraint(_) => "Constraint",
        Error::WriteConflict(_) => "WriteConflict",
        Error::Monitor(_) => "Monitor",
        Error::Daemon(_) => "Daemon",
        Error::Io(_) => "Io",
        Error::TransientIo(_) => "TransientIo",
        Error::PlanCacheInvalidated(_) => "PlanCacheInvalidated",
        Error::ParamArity { .. } => "ParamArity",
        Error::Unsupported(_) => "Unsupported",
        Error::Protocol(_) => "Protocol",
    }
}

fn entry_for(e: &Error) -> &'static WireCodeEntry {
    let name = variant_name(e);
    WIRE_CODE_TABLE
        .iter()
        .find(|entry| entry.variant == name)
        .unwrap_or(&WIRE_CODE_TABLE[0]) // unreachable: table_covers_every_variant pins coverage
}

/// An [`Error`] in transport form: stable code + retryability + the
/// variant's payload (`aux1`/`aux2` carry `Deadlock::victim` and the
/// `ParamArity` counts; `message` carries the string payload of every
/// other variant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Code from [`WIRE_CODE_TABLE`].
    pub code: u16,
    /// Transported [`Error::is_transient`] classification.
    pub retryable: bool,
    /// First numeric payload (`Deadlock.victim`, `ParamArity.expected`).
    pub aux1: u64,
    /// Second numeric payload (`ParamArity.got`).
    pub aux2: u64,
    /// String payload of message-bearing variants.
    pub message: String,
}

impl WireError {
    /// Encode `e` for transport. Lossless: [`Self::into_error`] restores
    /// the exact variant and payload.
    pub fn from_error(e: &Error) -> WireError {
        let entry = entry_for(e);
        let (aux1, aux2, message) = match e {
            Error::Deadlock { victim } => (*victim, 0, String::new()),
            Error::ParamArity { expected, got } => (*expected as u64, *got as u64, String::new()),
            Error::Parse(m)
            | Error::Binder(m)
            | Error::Type(m)
            | Error::Catalog(m)
            | Error::Storage(m)
            | Error::Plan(m)
            | Error::Execution(m)
            | Error::LockTimeout(m)
            | Error::Constraint(m)
            | Error::WriteConflict(m)
            | Error::Monitor(m)
            | Error::Daemon(m)
            | Error::Io(m)
            | Error::TransientIo(m)
            | Error::PlanCacheInvalidated(m)
            | Error::Unsupported(m)
            | Error::Protocol(m) => (0, 0, m.clone()),
        };
        WireError {
            code: entry.code,
            retryable: entry.retryable,
            aux1,
            aux2,
            message,
        }
    }

    /// Decode back into the exact [`Error`] that was encoded. An unknown
    /// code (newer peer) degrades to [`Error::Protocol`] naming the code.
    pub fn into_error(self) -> Error {
        let WireError {
            code,
            aux1,
            aux2,
            message,
            ..
        } = self;
        match code {
            1 => Error::Parse(message),
            2 => Error::Binder(message),
            3 => Error::Type(message),
            4 => Error::Catalog(message),
            5 => Error::Storage(message),
            6 => Error::Plan(message),
            7 => Error::Execution(message),
            8 => Error::Deadlock { victim: aux1 },
            9 => Error::LockTimeout(message),
            10 => Error::Constraint(message),
            11 => Error::WriteConflict(message),
            12 => Error::Monitor(message),
            13 => Error::Daemon(message),
            14 => Error::Io(message),
            15 => Error::TransientIo(message),
            16 => Error::PlanCacheInvalidated(message),
            17 => Error::ParamArity {
                expected: aux1 as usize,
                got: aux2 as usize,
            },
            18 => Error::Unsupported(message),
            19 => Error::Protocol(message),
            other => Error::Protocol(format!("unknown wire error code {other}: {message}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Body encoding primitives.
// ---------------------------------------------------------------------------

/// Appending body writer over a caller's buffer (helpers keep encode arms
/// flat).
struct Body<'a>(&'a mut Vec<u8>);

impl Body<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::Float(f) => {
                self.u8(2);
                self.f64(*f);
            }
            Value::Str(s) => {
                self.u8(3);
                self.string(s);
            }
            Value::Bool(b) => {
                self.u8(4);
                self.u8(u8::from(*b));
            }
        }
    }
    fn values(&mut self, vs: &[Value]) {
        self.u32(vs.len() as u32);
        for v in vs {
            self.value(v);
        }
    }
    fn result(&mut self, r: &StatementResult) {
        self.u32(r.columns.len() as u32);
        for c in &r.columns {
            self.string(c);
        }
        self.u32(r.rows.len() as u32);
        for row in &r.rows {
            self.values(row.values());
        }
        self.u64(r.affected);
        self.f64(r.est_cost.cpu);
        self.f64(r.est_cost.io);
        self.f64(r.actual_cost.cpu);
        self.f64(r.actual_cost.io);
        self.u64(r.wallclock_ns);
        self.u64(r.wait_ns);
    }
    fn error(&mut self, e: &WireError) {
        self.u16(e.code);
        self.u8(u8::from(e.retryable));
        self.u64(e.aux1);
        self.u64(e.aux2);
        self.string(&e.message);
    }
}

/// Most elements a decoder reserves for up front on a count read from the
/// frame; a longer list grows as its elements actually decode.
const PREALLOC_MAX: usize = 1024;

/// Bounds-checked body reader; truncation surfaces as [`Error::Protocol`].
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Error::protocol("truncated frame body"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::protocol("non-UTF-8 string"))
    }
    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(self.f64()?),
            3 => Value::Str(self.string()?),
            4 => Value::Bool(self.u8()? != 0),
            tag => return Err(Error::protocol(format!("unknown value tag {tag}"))),
        })
    }
    fn values(&mut self) -> Result<Vec<Value>> {
        let n = self.u32()? as usize;
        // Guard length against the remaining bytes (1 byte/value minimum)
        // so a corrupt count fails fast, and pre-allocate at most
        // `PREALLOC_MAX`: a `Value` is ~24× its smallest encoding, so a
        // claimed count sized from the bytes alone would still let a hostile
        // frame ask for far more memory than it carries.
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(Error::protocol("value count exceeds frame"));
        }
        let mut out = Vec::with_capacity(n.min(PREALLOC_MAX));
        for _ in 0..n {
            out.push(self.value()?);
        }
        Ok(out)
    }
    fn result(&mut self) -> Result<StatementResult> {
        let ncols = self.u32()? as usize;
        if ncols > self.buf.len().saturating_sub(self.pos) {
            return Err(Error::protocol("column count exceeds frame"));
        }
        let mut columns = Vec::with_capacity(ncols.min(PREALLOC_MAX));
        for _ in 0..ncols {
            columns.push(self.string()?);
        }
        let nrows = self.u32()? as usize;
        if nrows > self.buf.len().saturating_sub(self.pos) {
            return Err(Error::protocol("row count exceeds frame"));
        }
        let mut rows = Vec::with_capacity(nrows.min(PREALLOC_MAX));
        for _ in 0..nrows {
            rows.push(Row::new(self.values()?));
        }
        Ok(StatementResult {
            rows,
            columns,
            affected: self.u64()?,
            est_cost: Cost {
                cpu: self.f64()?,
                io: self.f64()?,
            },
            actual_cost: Cost {
                cpu: self.f64()?,
                io: self.f64()?,
            },
            wallclock_ns: self.u64()?,
            wait_ns: self.u64()?,
        })
    }
    fn error(&mut self) -> Result<WireError> {
        Ok(WireError {
            code: self.u16()?,
            retryable: self.u8()? != 0,
            aux1: self.u64()?,
            aux2: self.u64()?,
            message: self.string()?,
        })
    }
    fn finish(self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::protocol("trailing bytes after frame body"))
        }
    }
}

// ---------------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------------

/// Client → server verbs.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: must be the first frame on a connection.
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        version: u16,
        /// Free-form client identification (shown in `ima$connections`).
        client: String,
    },
    /// Validate `sql` and create a server-side prepared handle.
    Prepare {
        /// Statement text with `$1`…/`?` markers.
        sql: String,
    },
    /// Execute prepared handle `id` with bound `params`.
    ExecutePrepared {
        /// Handle from `Response::PreparedOk`.
        id: u64,
        /// Positional parameter values.
        params: Vec<Value>,
    },
    /// One-shot execute (DDL, DML or query), optionally parameterised.
    Execute {
        /// Statement text.
        sql: String,
        /// Positional parameter values (empty for plain statements).
        params: Vec<Value>,
    },
    /// One-shot read-intent execute.
    Query {
        /// Statement text.
        sql: String,
    },
    /// `SET name = value`.
    Set {
        /// Knob name.
        name: String,
        /// Knob value.
        value: Value,
    },
    /// Open an explicit transaction.
    Begin,
    /// Commit the open transaction (acknowledged only after durability).
    Commit,
    /// Roll back the open transaction.
    Rollback,
    /// Drop prepared handle `id`.
    ClosePrepared {
        /// Handle from `Response::PreparedOk`.
        id: u64,
    },
    /// Liveness ping; resets the server's orphan-reaper deadline.
    Heartbeat,
    /// Orderly connection close.
    Close,
    /// Ask the server process to drain and exit (admin verb).
    Shutdown,
}

/// Server → client answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// Server's [`PROTOCOL_VERSION`].
        version: u16,
        /// Engine session id serving this connection.
        session_id: u64,
    },
    /// Prepared handle created.
    PreparedOk {
        /// Handle for `Request::ExecutePrepared`.
        id: u64,
        /// Parameter markers the statement declares.
        param_count: u64,
    },
    /// Statement finished; full [`StatementResult`].
    Rows(StatementResult),
    /// Verb finished with no result payload.
    Ok,
    /// Heartbeat answer.
    Pong,
    /// Statement or verb failed.
    Err(WireError),
    /// Server is closing this connection (drain, close ack, shutdown ack).
    Goodbye,
}

impl Request {
    /// Encode as `(opcode, body)`.
    pub fn to_frame(&self) -> (u8, Vec<u8>) {
        let mut body = Vec::new();
        let op = self.encode_body(&mut Body(&mut body));
        (op, body)
    }

    /// Append the body to `b` and return the opcode.
    fn encode_body(&self, b: &mut Body<'_>) -> u8 {
        match self {
            Request::Hello { version, client } => {
                b.u16(*version);
                b.string(client);
                0x01
            }
            Request::Prepare { sql } => {
                b.string(sql);
                0x02
            }
            Request::ExecutePrepared { id, params } => {
                b.u64(*id);
                b.values(params);
                0x03
            }
            Request::Execute { sql, params } => {
                b.string(sql);
                b.values(params);
                0x04
            }
            Request::Query { sql } => {
                b.string(sql);
                0x05
            }
            Request::Set { name, value } => {
                b.string(name);
                b.value(value);
                0x06
            }
            Request::Begin => 0x07,
            Request::Commit => 0x08,
            Request::Rollback => 0x09,
            Request::ClosePrepared { id } => {
                b.u64(*id);
                0x0a
            }
            Request::Heartbeat => 0x0b,
            Request::Close => 0x0c,
            Request::Shutdown => 0x0d,
        }
    }

    /// Decode from `(opcode, body)`.
    pub fn decode(opcode: u8, body: &[u8]) -> Result<Request> {
        let mut c = Cursor::new(body);
        let req = match opcode {
            0x01 => Request::Hello {
                version: c.u16()?,
                client: c.string()?,
            },
            0x02 => Request::Prepare { sql: c.string()? },
            0x03 => Request::ExecutePrepared {
                id: c.u64()?,
                params: c.values()?,
            },
            0x04 => Request::Execute {
                sql: c.string()?,
                params: c.values()?,
            },
            0x05 => Request::Query { sql: c.string()? },
            0x06 => Request::Set {
                name: c.string()?,
                value: c.value()?,
            },
            0x07 => Request::Begin,
            0x08 => Request::Commit,
            0x09 => Request::Rollback,
            0x0a => Request::ClosePrepared { id: c.u64()? },
            0x0b => Request::Heartbeat,
            0x0c => Request::Close,
            0x0d => Request::Shutdown,
            other => {
                return Err(Error::protocol(format!(
                    "unknown request opcode {other:#04x}"
                )))
            }
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode as `(opcode, body)`.
    pub fn to_frame(&self) -> (u8, Vec<u8>) {
        let mut body = Vec::new();
        let op = self.encode_body(&mut Body(&mut body));
        (op, body)
    }

    /// Append the body to `b` and return the opcode.
    fn encode_body(&self, b: &mut Body<'_>) -> u8 {
        match self {
            Response::HelloOk {
                version,
                session_id,
            } => {
                b.u16(*version);
                b.u64(*session_id);
                0x81
            }
            Response::PreparedOk { id, param_count } => {
                b.u64(*id);
                b.u64(*param_count);
                0x82
            }
            Response::Rows(r) => {
                b.result(r);
                0x83
            }
            Response::Ok => 0x84,
            Response::Pong => 0x85,
            Response::Err(e) => {
                b.error(e);
                0x86
            }
            Response::Goodbye => 0x87,
        }
    }

    /// Decode from `(opcode, body)`.
    pub fn decode(opcode: u8, body: &[u8]) -> Result<Response> {
        let mut c = Cursor::new(body);
        let resp = match opcode {
            0x81 => Response::HelloOk {
                version: c.u16()?,
                session_id: c.u64()?,
            },
            0x82 => Response::PreparedOk {
                id: c.u64()?,
                param_count: c.u64()?,
            },
            0x83 => Response::Rows(c.result()?),
            0x84 => Response::Ok,
            0x85 => Response::Pong,
            0x86 => Response::Err(c.error()?),
            0x87 => Response::Goodbye,
            other => {
                return Err(Error::protocol(format!(
                    "unknown response opcode {other:#04x}"
                )))
            }
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Stream I/O.
// ---------------------------------------------------------------------------

fn io_err(e: std::io::Error) -> Error {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            Error::transient_io(format!("socket timeout: {e}"))
        }
        _ => Error::Io(e.to_string()),
    }
}

/// Frame header: the `len:u32le` prefix and the opcode.
const HEADER: usize = 5;

/// A connection's read and encode buffers start at this size…
const BUF_START: usize = 8 * 1024;

/// …and drop back to it once a frame that grew them past this is done with,
/// so a connection that once carried a large result does not keep the memory.
const BUF_KEEP: usize = 64 * 1024;

/// `len` (opcode + body bytes) as the `u32` prefix, or the refusal when it
/// is over `max_bytes`.
fn frame_len(len: u64, max_bytes: u32) -> Result<u32> {
    if len > u64::from(max_bytes) {
        return Err(Error::protocol(format!(
            "frame of {len} bytes exceeds the {max_bytes}-byte cap"
        )));
    }
    Ok(len as u32)
}

/// Write one `(opcode, body)` frame.
///
/// A body that would not fit under [`MAX_FRAME_BYTES`] is refused *here*,
/// before any byte hits the stream: the peer's reader would reject the
/// oversized length prefix as corruption and kill the connection, and a
/// body of 4 GiB or more would silently truncate the `u32` prefix and
/// desync the stream. Refusing keeps the connection alive for the caller
/// to report a clean error instead.
pub fn write_frame(w: &mut impl Write, opcode: u8, body: &[u8]) -> Result<()> {
    let len = frame_len(1 + body.len() as u64, MAX_FRAME_BYTES)?;
    let mut frame = Vec::with_capacity(HEADER + body.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.push(opcode);
    frame.extend_from_slice(body);
    w.write_all(&frame).map_err(io_err)?;
    w.flush().map_err(io_err)
}

/// A failed read inside a frame reader. A timeout is retryable only at a
/// frame boundary: once any byte of the frame has been consumed, those bytes
/// are gone from the stream, and a retry would resume parsing from a
/// desynchronised offset — so a mid-frame timeout is a protocol error that
/// drops the peer, like any other truncation.
fn read_err(e: std::io::Error, mid_frame: bool) -> Error {
    match io_err(e) {
        Error::TransientIo(_) if mid_frame => Error::protocol("read timed out mid frame"),
        other => other,
    }
}

/// Read one frame. `Ok(None)` is a clean end-of-stream (the peer closed at
/// a frame boundary). A timeout before the frame's first byte surfaces as
/// retryable [`Error::TransientIo`] — nothing was consumed, so the caller
/// may simply call again; a timeout after it, mid-frame truncation and an
/// oversized prefix are all non-retryable [`Error::Protocol`].
///
/// Stateless: a one-frame [`FrameReader`] whose buffer starts at the header
/// and grows to exactly the frame, so it never consumes a byte past it.
pub fn read_frame(r: &mut impl Read, max_bytes: u32) -> Result<Option<(u8, Vec<u8>)>> {
    let mut one = FrameReader::with_size(HEADER, max_bytes);
    Ok(one.next_frame(r)?.map(|(op, body)| (op, body.to_vec())))
}

/// A connection's read side: one persistent buffer that each `read` fills
/// with whatever the stream holds, so a frame that arrives whole costs one
/// syscall and frames sent back to back are parsed without another.
///
/// Contract (the same as [`read_frame`]): `Ok(None)` only on end-of-stream
/// at a frame boundary; [`Error::TransientIo`] only when no byte of the next
/// frame is buffered, after which the next call carries on intact;
/// [`Error::Protocol`] on a timeout or end-of-stream mid frame and on a
/// length prefix of 0 or over the cap — checked before the buffer grows.
#[derive(Debug)]
pub struct FrameReader {
    /// Storage; `buf.len()` is the capacity reads may fill.
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    max_bytes: u32,
}

impl FrameReader {
    /// A reader for frames of at most `max_bytes`, buffer at 8 KiB.
    pub fn new(max_bytes: u32) -> Self {
        Self::with_size(BUF_START, max_bytes)
    }

    fn with_size(size: usize, max_bytes: u32) -> Self {
        FrameReader {
            buf: vec![0; size],
            start: 0,
            end: 0,
            max_bytes,
        }
    }

    /// The next `(opcode, body)`, the body borrowed from the buffer until
    /// the next call.
    pub fn next_frame(&mut self, r: &mut impl Read) -> Result<Option<(u8, &[u8])>> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > BUF_KEEP {
                self.buf.truncate(BUF_START);
                self.buf.shrink_to_fit();
            }
        }
        loop {
            let held = &self.buf[self.start..self.end];
            // Bytes of the current frame needed in the buffer: its prefix,
            // then the whole frame once the prefix is known.
            let need = match held.get(..4) {
                Some(p) => {
                    let len = u32::from_le_bytes([p[0], p[1], p[2], p[3]]);
                    if len == 0 || len > self.max_bytes {
                        return Err(Error::protocol(format!("invalid frame length {len}")));
                    }
                    4 + len as usize
                }
                None => 4,
            };
            if held.len() >= need {
                let at = self.start;
                self.start += need;
                return Ok(Some((self.buf[at + 4], &self.buf[at + HEADER..at + need])));
            }
            if self.start + need > self.buf.len() {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
                if need > self.buf.len() {
                    self.buf.resize(need, 0);
                }
            }
            let mid_frame = self.end > self.start;
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if mid_frame => return Err(Error::protocol("connection closed mid frame")),
                Ok(0) => return Ok(None),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(read_err(e, mid_frame)),
            }
        }
    }
}

/// A connection's write side: one reused buffer in which a frame is
/// encoded — header reserved, body encoded behind it, length and opcode
/// patched in — and sent with one `write_all`.
#[derive(Debug)]
pub struct FrameWriter {
    /// The pending frame, header included (empty once sent).
    buf: Vec<u8>,
    max_bytes: u32,
}

impl FrameWriter {
    /// A writer refusing frames over `max_bytes` (at most
    /// [`MAX_FRAME_BYTES`]), buffer at 8 KiB.
    pub fn new(max_bytes: u32) -> Self {
        FrameWriter {
            buf: Vec::with_capacity(BUF_START),
            max_bytes: max_bytes.min(MAX_FRAME_BYTES),
        }
    }

    /// Encode `req` as the pending frame; returns its body length.
    pub fn encode_request(&mut self, req: &Request) -> usize {
        self.encode(|b| req.encode_body(b))
    }

    /// Encode `resp` as the pending frame; returns its body length.
    pub fn encode_response(&mut self, resp: &Response) -> usize {
        self.encode(|b| resp.encode_body(b))
    }

    fn encode(&mut self, body: impl FnOnce(&mut Body<'_>) -> u8) -> usize {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; HEADER]);
        let op = body(&mut Body(&mut self.buf));
        self.buf[4] = op;
        let len = self.buf.len() - 4;
        let prefix = u32::try_from(len).unwrap_or(u32::MAX);
        self.buf[..4].copy_from_slice(&prefix.to_le_bytes());
        len - 1
    }

    /// Write the pending frame. One over the cap is refused before any byte
    /// hits the stream (see [`write_frame`]) and dropped.
    pub fn send(&mut self, w: &mut impl Write) -> Result<()> {
        let sent =
            frame_len(self.buf.len().saturating_sub(4) as u64, self.max_bytes).and_then(|_| {
                w.write_all(&self.buf)
                    .and_then(|()| w.flush())
                    .map_err(io_err)
            });
        self.buf.clear();
        if self.buf.capacity() > BUF_KEEP {
            self.buf.shrink_to(BUF_START);
        }
        sent
    }

    /// Encode and send `req`.
    pub fn send_request(&mut self, w: &mut impl Write, req: &Request) -> Result<()> {
        self.encode_request(req);
        self.send(w)
    }
}

// ---------------------------------------------------------------------------
// Layout ledger.
// ---------------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn frame_hex(opcode: u8, body: &[u8]) -> String {
    let len = 1u32 + body.len() as u32;
    let mut all = Vec::with_capacity(5 + body.len());
    all.extend_from_slice(&len.to_le_bytes());
    all.push(opcode);
    all.extend_from_slice(body);
    hex(&all)
}

/// The canonical frame-layout descriptor: the grammar plus golden hex dumps
/// of representative frames, rendered from the **live** encoder. This text
/// is what `crates/common/wire_layout.txt` pins — any encoding change
/// changes it, forcing a ledger entry + version bump.
pub fn layout_descriptor() -> String {
    let mut out = String::new();
    out.push_str("frame  = len:u32le opcode:u8 body (len = 1 + body)\n");
    out.push_str("string = len:u32le utf8\n");
    out.push_str(
        "value  = tag:u8 [0=null 1=int:i64le 2=float:f64bits-le 3=str:string 4=bool:u8]\n",
    );
    out.push_str(
        "result = ncols:u32le col:string* nrows:u32le row:(values)* affected:u64le \
                  est_cpu:f64 est_io:f64 act_cpu:f64 act_io:f64 wallclock_ns:u64le wait_ns:u64le\n",
    );
    out.push_str("error  = code:u16le retryable:u8 aux1:u64le aux2:u64le message:string\n");
    let golden: Vec<(&str, u8, Vec<u8>)> = {
        let reqs: Vec<(&str, Request)> = vec![
            (
                "hello",
                Request::Hello {
                    version: PROTOCOL_VERSION,
                    client: "golden".into(),
                },
            ),
            (
                "prepare",
                Request::Prepare {
                    sql: "select v from t where id = $1".into(),
                },
            ),
            (
                "execute_prepared",
                Request::ExecutePrepared {
                    id: 7,
                    params: vec![Value::Int(42)],
                },
            ),
            (
                "set",
                Request::Set {
                    name: "trace".into(),
                    value: Value::Bool(true),
                },
            ),
            ("commit", Request::Commit),
        ];
        let resps: Vec<(&str, Response)> = vec![
            (
                "hello_ok",
                Response::HelloOk {
                    version: PROTOCOL_VERSION,
                    session_id: 3,
                },
            ),
            (
                "rows",
                Response::Rows(StatementResult {
                    rows: vec![Row::new(vec![
                        Value::Int(1),
                        Value::Str("a".into()),
                        Value::Null,
                    ])],
                    columns: vec!["id".into(), "name".into(), "x".into()],
                    affected: 0,
                    est_cost: Cost { cpu: 1.5, io: 2.0 },
                    actual_cost: Cost { cpu: 3.0, io: 1.0 },
                    wallclock_ns: 1000,
                    wait_ns: 10,
                }),
            ),
            (
                "err_deadlock",
                Response::Err(WireError::from_error(&Error::Deadlock { victim: 7 })),
            ),
        ];
        reqs.iter()
            .map(|(n, r)| {
                let (op, body) = r.to_frame();
                (*n, op, body)
            })
            .chain(resps.iter().map(|(n, r)| {
                let (op, body) = r.to_frame();
                (*n, op, body)
            }))
            .collect()
    };
    for (name, op, body) in golden {
        out.push_str(&format!("{name} = {}\n", frame_hex(op, &body)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fnv1a64;
    use proptest::prelude::*;

    fn roundtrip_req(req: Request) {
        let (op, body) = req.to_frame();
        assert_eq!(Request::decode(op, &body).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let (op, body) = resp.to_frame();
        assert_eq!(Response::decode(op, &body).unwrap(), resp);
    }

    #[test]
    fn request_frames_round_trip() {
        roundtrip_req(Request::Hello {
            version: PROTOCOL_VERSION,
            client: "t".into(),
        });
        roundtrip_req(Request::Prepare {
            sql: "select 1".into(),
        });
        roundtrip_req(Request::ExecutePrepared {
            id: 9,
            params: vec![Value::Null, Value::Bool(false), Value::Float(2.5)],
        });
        roundtrip_req(Request::Execute {
            sql: "insert into t values ($1)".into(),
            params: vec![Value::Int(-3)],
        });
        roundtrip_req(Request::Query {
            sql: "select * from ima$connections".into(),
        });
        roundtrip_req(Request::Set {
            name: "trace".into(),
            value: Value::Str("on".into()),
        });
        for r in [
            Request::Begin,
            Request::Commit,
            Request::Rollback,
            Request::ClosePrepared { id: 1 },
            Request::Heartbeat,
            Request::Close,
            Request::Shutdown,
        ] {
            roundtrip_req(r);
        }
    }

    #[test]
    fn response_frames_round_trip() {
        roundtrip_resp(Response::HelloOk {
            version: 1,
            session_id: 77,
        });
        roundtrip_resp(Response::PreparedOk {
            id: 2,
            param_count: 3,
        });
        roundtrip_resp(Response::Rows(StatementResult {
            rows: vec![Row::new(vec![Value::Int(5)])],
            columns: vec!["c".into()],
            affected: 1,
            est_cost: Cost { cpu: 0.5, io: 0.0 },
            actual_cost: Cost { cpu: 1.0, io: 2.0 },
            wallclock_ns: 42,
            wait_ns: 7,
        }));
        for r in [Response::Ok, Response::Pong, Response::Goodbye] {
            roundtrip_resp(r);
        }
        roundtrip_resp(Response::Err(WireError::from_error(&Error::param_arity(
            3, 1,
        ))));
    }

    /// `req` as the bytes of one whole frame.
    fn frame_of(req: &Request) -> Vec<u8> {
        let mut bytes = Vec::new();
        FrameWriter::new(MAX_FRAME_BYTES)
            .send_request(&mut bytes, req)
            .unwrap();
        bytes
    }

    #[test]
    fn stream_io_round_trips_and_reports_eof() {
        let mut buf = frame_of(&Request::Heartbeat);
        let mut out = FrameWriter::new(MAX_FRAME_BYTES);
        out.encode_response(&Response::Pong);
        out.send(&mut buf).unwrap();
        let mut r = &buf[..];
        let (op, body) = read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(Request::decode(op, &body).unwrap(), Request::Heartbeat);
        let (op, body) = read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(Response::decode(op, &body).unwrap(), Response::Pong);
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
        // Mid-frame truncation is corruption, not EOF.
        let mut cut = &buf[..3];
        assert!(matches!(
            read_frame(&mut cut, MAX_FRAME_BYTES),
            Err(Error::Protocol(_))
        ));
        // Oversized length prefix is rejected before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.push(0x01);
        let mut r = &huge[..];
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME_BYTES),
            Err(Error::Protocol(_))
        ));
    }

    /// Yields the scripted chunks in order, then times out forever — a
    /// socket with a read timeout whose peer stalled.
    struct Stalling(std::collections::VecDeque<Vec<u8>>);

    impl Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(chunk) = self.0.pop_front() else {
                return Err(std::io::ErrorKind::WouldBlock.into());
            };
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn read_timeout_is_retryable_only_at_a_frame_boundary() {
        let frame = frame_of(&Request::Heartbeat);
        // Nothing consumed yet: a tick, the caller may retry.
        let mut idle = Stalling([].into());
        assert!(matches!(
            read_frame(&mut idle, MAX_FRAME_BYTES),
            Err(Error::TransientIo(_))
        ));
        // Two length bytes consumed, then a stall: a retry would start
        // parsing at byte 2, so the error must not be retryable.
        let mut mid_prefix = Stalling([frame[..2].to_vec()].into());
        assert!(matches!(
            read_frame(&mut mid_prefix, MAX_FRAME_BYTES),
            Err(Error::Protocol(_))
        ));
        // Likewise with the whole prefix read and the body outstanding.
        let mut mid_body = Stalling([frame[..4].to_vec()].into());
        assert!(matches!(
            read_frame(&mut mid_body, MAX_FRAME_BYTES),
            Err(Error::Protocol(_))
        ));
        // A frame that arrives in pieces without a stall still parses.
        let pieces = [&frame[..2], &frame[2..4], &frame[4..]].map(<[u8]>::to_vec);
        let mut pieces = Stalling(pieces.into());
        let (op, body) = read_frame(&mut pieces, MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(Request::decode(op, &body).unwrap(), Request::Heartbeat);
    }

    #[test]
    fn oversized_body_is_refused_before_any_byte_is_written() {
        let body = vec![0u8; MAX_FRAME_BYTES as usize];
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, 0x83, &body),
            Err(Error::Protocol(_))
        ));
        assert!(sink.is_empty(), "nothing may hit the stream on refusal");
        // One byte under the cap (body + opcode == cap) still goes out.
        let body = vec![0u8; MAX_FRAME_BYTES as usize - 1];
        write_frame(&mut sink, 0x83, &body).unwrap();
        let mut r = &sink[..];
        let (op, read_back) = read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(op, 0x83);
        assert_eq!(read_back.len(), body.len());
    }

    /// Hands out `bytes` in reads of the scripted sizes (cycled), each cut
    /// to the caller's buffer.
    struct Chunked<'a> {
        bytes: &'a [u8],
        sizes: &'a [usize],
        turn: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let want = self.sizes[self.turn % self.sizes.len()];
            self.turn += 1;
            let n = want.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Yields the scripted reads in order — `None` is a read timeout — each
    /// cut to the caller's buffer with the rest kept for the next read; once
    /// the script is spent, EOF.
    struct Scripted(std::collections::VecDeque<Option<Vec<u8>>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(std::io::ErrorKind::WouldBlock.into()),
                Some(Some(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(Some(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn owned(frame: Option<(u8, &[u8])>) -> Option<(u8, Vec<u8>)> {
        frame.map(|(op, body)| (op, body.to_vec()))
    }

    #[test]
    fn reader_times_out_retryably_only_with_nothing_buffered() {
        let ping = frame_of(&Request::Heartbeat);
        let prepare = frame_of(&Request::Prepare {
            sql: "select v from t where id = $1".into(),
        });
        // A whole frame, a stall, the next frame: the stall is a tick and
        // the frame after it arrives intact.
        let mut stream = Scripted([Some(ping.clone()), None, Some(prepare.clone())].into());
        let mut reader = FrameReader::new(MAX_FRAME_BYTES);
        let (op, body) = reader.next_frame(&mut stream).unwrap().unwrap();
        assert_eq!(Request::decode(op, body).unwrap(), Request::Heartbeat);
        assert!(matches!(
            reader.next_frame(&mut stream),
            Err(Error::TransientIo(_))
        ));
        let (op, body) = reader.next_frame(&mut stream).unwrap().unwrap();
        assert!(matches!(
            Request::decode(op, body),
            Ok(Request::Prepare { .. })
        ));
        assert!(reader.next_frame(&mut stream).unwrap().is_none());

        // A frame and part of the next read together, then a stall: the
        // buffered part makes the stall mid-frame, whether it cut the
        // prefix or the body.
        for cut in [2, 4, prepare.len() - 1] {
            let mut both = ping.clone();
            both.extend_from_slice(&prepare[..cut]);
            let mut stream = Scripted([Some(both), None].into());
            let mut reader = FrameReader::new(MAX_FRAME_BYTES);
            assert!(reader.next_frame(&mut stream).unwrap().is_some());
            assert!(
                matches!(reader.next_frame(&mut stream), Err(Error::Protocol(_))),
                "cut at {cut}"
            );
            // End-of-stream there is corruption too, not a clean EOF.
            let mut both = ping.clone();
            both.extend_from_slice(&prepare[..cut]);
            let mut stream = Scripted([Some(both)].into());
            let mut reader = FrameReader::new(MAX_FRAME_BYTES);
            assert!(reader.next_frame(&mut stream).unwrap().is_some());
            assert!(matches!(
                reader.next_frame(&mut stream),
                Err(Error::Protocol(_))
            ));
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_before_the_buffer_grows() {
        for (max, len) in [(MAX_FRAME_BYTES, u32::MAX), (1024, 1025), (1024, 0)] {
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.push(0x01);
            let mut reader = FrameReader::new(max);
            let before = reader.buf.len();
            assert!(matches!(
                reader.next_frame(&mut &bytes[..]),
                Err(Error::Protocol(_))
            ));
            assert_eq!(reader.buf.len(), before, "prefix {len} under cap {max}");
            assert_eq!(reader.buf.capacity(), before);
        }
    }

    #[test]
    fn buffers_drop_back_after_a_large_frame() {
        let big = Response::Rows(StatementResult {
            rows: vec![Row::new(vec![Value::Str("x".repeat(1 << 20))])],
            columns: vec!["pad".into()],
            ..StatementResult::default()
        });
        let mut out = FrameWriter::new(MAX_FRAME_BYTES);
        let mut bytes = Vec::new();
        assert!(out.encode_response(&big) > 1 << 20);
        assert!(out.buf.capacity() > 1 << 20);
        out.send(&mut bytes).unwrap();
        assert!(out.buf.capacity() <= BUF_KEEP, "{}", out.buf.capacity());
        out.encode_response(&Response::Pong);
        out.send(&mut bytes).unwrap();

        let mut reader = FrameReader::new(MAX_FRAME_BYTES);
        let mut stream = &bytes[..];
        let (op, body) = reader.next_frame(&mut stream).unwrap().unwrap();
        assert_eq!(Response::decode(op, body).unwrap(), big);
        assert!(reader.buf.len() > 1 << 20);
        let (op, body) = reader.next_frame(&mut stream).unwrap().unwrap();
        assert_eq!(Response::decode(op, body).unwrap(), Response::Pong);
        assert!(
            reader.buf.capacity() <= BUF_KEEP,
            "{}",
            reader.buf.capacity()
        );
    }

    #[test]
    fn writer_refuses_an_over_cap_frame_before_any_byte() {
        let mut out = FrameWriter::new(64);
        let mut sink = Vec::new();
        let body_len = out.encode_request(&Request::Query {
            sql: "x".repeat(64),
        });
        assert_eq!(body_len, 4 + 64);
        assert!(matches!(out.send(&mut sink), Err(Error::Protocol(_))));
        assert!(sink.is_empty(), "nothing may hit the stream on refusal");
        // The refused frame is dropped; the next one goes out alone.
        out.send_request(&mut sink, &Request::Commit).unwrap();
        assert_eq!(
            read_frame(&mut &sink[..], 64).unwrap(),
            Some((0x08, vec![]))
        );
    }

    /// Valid frames of every shape the decoders walk: strings, values,
    /// counts, rows, errors.
    fn sample_frames() -> Vec<(u8, Vec<u8>)> {
        let reqs = [
            Request::Hello {
                version: PROTOCOL_VERSION,
                client: "fuzz".into(),
            },
            Request::ExecutePrepared {
                id: 3,
                params: vec![
                    Value::Int(-1),
                    Value::Str("abc".into()),
                    Value::Float(0.5),
                    Value::Bool(true),
                    Value::Null,
                ],
            },
            Request::Set {
                name: "trace".into(),
                value: Value::Str("on".into()),
            },
        ];
        let resps = [
            Response::Rows(StatementResult {
                rows: vec![
                    Row::new(vec![Value::Int(1), Value::Str("a".into())]),
                    Row::new(vec![Value::Null, Value::Float(2.0)]),
                ],
                columns: vec!["id".into(), "v".into()],
                affected: 2,
                ..StatementResult::default()
            }),
            Response::Err(WireError::from_error(&Error::param_arity(2, 1))),
        ];
        reqs.iter()
            .map(Request::to_frame)
            .chain(resps.iter().map(Response::to_frame))
            .collect()
    }

    #[test]
    fn table_covers_every_variant_with_unique_codes() {
        let every: Vec<Error> = vec![
            Error::parse("m"),
            Error::binder("m"),
            Error::type_error("m"),
            Error::catalog("m"),
            Error::storage("m"),
            Error::plan("m"),
            Error::execution("m"),
            Error::Deadlock { victim: 1 },
            Error::LockTimeout("m".into()),
            Error::constraint("m"),
            Error::write_conflict("m"),
            Error::monitor("m"),
            Error::daemon("m"),
            Error::Io("m".into()),
            Error::transient_io("m"),
            Error::plan_cache_invalidated("m"),
            Error::param_arity(2, 1),
            Error::unsupported("m"),
            Error::protocol("m"),
        ];
        assert_eq!(every.len(), WIRE_CODE_TABLE.len());
        let mut codes: Vec<u16> = Vec::new();
        for e in &every {
            let entry = entry_for(e);
            assert_eq!(entry.variant, variant_name(e));
            assert_eq!(
                entry.retryable,
                e.is_transient(),
                "{:?}: table retryable flag must mirror is_transient()",
                e
            );
            codes.push(entry.code);
        }
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), every.len(), "codes must be unique");
    }

    #[test]
    fn unknown_code_degrades_to_protocol_error() {
        let e = WireError {
            code: 9999,
            retryable: false,
            aux1: 0,
            aux2: 0,
            message: "future variant".into(),
        };
        assert!(matches!(e.into_error(), Error::Protocol(_)));
    }

    proptest! {
        /// Lossless error round-trip, with the retryable flag mirroring
        /// `is_transient` for every payload.
        #[test]
        fn error_round_trip(case in 0usize..19, msg in ".{0,40}", a in 0u64..1_000_000, b in 0u64..64) {
            let m = msg.clone();
            let e = match case {
                0 => Error::Parse(m),
                1 => Error::Binder(m),
                2 => Error::Type(m),
                3 => Error::Catalog(m),
                4 => Error::Storage(m),
                5 => Error::Plan(m),
                6 => Error::Execution(m),
                7 => Error::Deadlock { victim: a },
                8 => Error::LockTimeout(m),
                9 => Error::Constraint(m),
                10 => Error::WriteConflict(m),
                11 => Error::Monitor(m),
                12 => Error::Daemon(m),
                13 => Error::Io(m),
                14 => Error::TransientIo(m),
                15 => Error::PlanCacheInvalidated(m),
                16 => Error::ParamArity { expected: a as usize, got: b as usize },
                17 => Error::Unsupported(m),
                _ => Error::Protocol(m),
            };
            let wire = WireError::from_error(&e);
            prop_assert_eq!(wire.retryable, e.is_transient());
            // Through the byte codec as well, not just the struct.
            let resp = Response::Err(wire);
            let (op, body) = resp.to_frame();
            let decoded = match Response::decode(op, &body).unwrap() {
                Response::Err(w) => w.into_error(),
                other => panic!("expected Err, got {other:?}"),
            };
            prop_assert_eq!(decoded, e);
        }

        /// Value / params codec round-trip over arbitrary payloads.
        #[test]
        fn params_round_trip(ints in proptest::collection::vec(-1_000_000i64..1_000_000, 0..8), s in ".{0,24}", f in -1e12f64..1e12) {
            let mut params: Vec<Value> = ints.into_iter().map(Value::Int).collect();
            params.push(Value::Str(s));
            params.push(Value::Float(f));
            params.push(Value::Null);
            params.push(Value::Bool(true));
            let req = Request::Execute { sql: "select $1".into(), params };
            let (op, body) = req.to_frame();
            prop_assert_eq!(Request::decode(op, &body).unwrap(), req);
        }

        /// Frames written back to back and read back through any chunking —
        /// one byte per `read` up to several frames per `read` — come out
        /// exactly as written, and as `read_frame` reads them.
        #[test]
        fn any_chunking_yields_the_frames_written(
            frames in proptest::collection::vec((any::<u8>(), proptest::collection::vec(any::<u8>(), 0..600)), 0..12),
            sizes in proptest::collection::vec(1usize..4000, 1..8),
            big_at in 0usize..16,
        ) {
            let mut frames = frames;
            // Now and then a frame past the reader's starting buffer.
            if let Some(frame) = frames.get_mut(big_at) {
                frame.1 = vec![0xab; 20_000];
            }
            let mut bytes = Vec::new();
            for (op, body) in &frames {
                write_frame(&mut bytes, *op, body).unwrap();
            }
            let mut reader = FrameReader::new(MAX_FRAME_BYTES);
            let mut stream = Chunked { bytes: &bytes, sizes: &sizes, turn: 0 };
            let mut stateless = Chunked { bytes: &bytes, sizes: &sizes, turn: 0 };
            for (op, body) in &frames {
                let got = owned(reader.next_frame(&mut stream).unwrap());
                prop_assert_eq!(got.as_ref(), Some(&(*op, body.clone())));
                prop_assert_eq!(read_frame(&mut stateless, MAX_FRAME_BYTES).unwrap(), got);
            }
            prop_assert!(reader.next_frame(&mut stream).unwrap().is_none());
            prop_assert!(read_frame(&mut stateless, MAX_FRAME_BYTES).unwrap().is_none());
        }

        /// Decoding arbitrary `(opcode, bytes)` and valid frames with bytes
        /// flipped returns `Ok` or `Err`, never panics.
        #[test]
        fn decode_never_panics(
            op in any::<u8>(),
            noise in proptest::collection::vec(any::<u8>(), 0..64),
            which in 0usize..5,
            flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        ) {
            let _ = Request::decode(op, &noise);
            let _ = Response::decode(op, &noise);
            let (op, mut body) = sample_frames().swap_remove(which);
            for (at, x) in flips {
                if !body.is_empty() {
                    let at = at % body.len();
                    body[at] ^= x | 1;
                }
            }
            let _ = Request::decode(op, &body);
            let _ = Response::decode(op, &body);
        }
    }

    /// The checked-in ledger must pin the live encoder: its frames section
    /// equals `layout_descriptor()` and its newest header line records that
    /// section's fnv1a64 at the current PROTOCOL_VERSION. On a deliberate
    /// layout change: bump PROTOCOL_VERSION, regenerate the section, append
    /// `version N hash H` — this test prints both on mismatch.
    #[test]
    fn wire_layout_ledger_is_current() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("wire_layout.txt");
        let text = std::fs::read_to_string(&path).expect("wire_layout.txt must exist");
        let (header, section) = text
            .split_once("---\n")
            .expect("ledger needs a `---` separator");
        let descriptor = layout_descriptor();
        let hash = fnv1a64(descriptor.as_bytes());
        assert_eq!(
            section, descriptor,
            "wire_layout.txt frames section is stale; regenerate it from \
             layout_descriptor() and append `version {} hash {:016x}`",
            PROTOCOL_VERSION, hash
        );
        let last = header
            .lines()
            .rfind(|l| l.starts_with("version "))
            .expect("ledger needs at least one `version N hash H` line");
        let mut parts = last.split_whitespace();
        let (_, version, _, recorded) = (
            parts.next(),
            parts.next().and_then(|v| v.parse::<u16>().ok()),
            parts.next(),
            parts.next(),
        );
        assert_eq!(
            version,
            Some(PROTOCOL_VERSION),
            "newest ledger entry must match PROTOCOL_VERSION"
        );
        assert_eq!(
            recorded,
            Some(format!("{hash:016x}").as_str()),
            "newest ledger entry must record the section hash {hash:016x}"
        );
    }
}
