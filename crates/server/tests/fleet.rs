//! In-process fleet tests: many wire clients multiplexed onto one server,
//! observable through `ima$connections`, with a graceful drain that loses
//! no acknowledged commit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use ingot_client::ClientConnection;
use ingot_common::wire::{self, FrameReader, FrameWriter, Request, Response};
use ingot_common::{Connection, EngineConfig, SocketSpec, Value};
use ingot_core::Engine;
use ingot_server::{RunOutcome, Server, ServerConfig, StopHandle};
use parking_lot::{Condvar, Mutex};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ingot-fleet-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// Interruptible pause (the workspace bans `std::thread::sleep`).
fn pace(ms: u64) {
    let m = Mutex::new(());
    let cv = Condvar::new();
    let mut g = m.lock();
    let _ = cv.wait_for(&mut g, Duration::from_millis(ms));
}

fn connect_retry(spec: &SocketSpec, name: &str) -> ClientConnection {
    for _ in 0..5_000 {
        match ClientConnection::connect_with_name(spec, name) {
            Ok(c) => return c,
            Err(_) => pace(2),
        }
    }
    panic!("server never came up on {spec}");
}

struct Running {
    stop: StopHandle,
    join: std::thread::JoinHandle<ingot_common::Result<RunOutcome>>,
}

fn start(engine: &Arc<Engine>, config: ServerConfig) -> Running {
    let server = Server::bind(Arc::clone(engine), config).expect("bind");
    let stop = server.stop_handle();
    let join = std::thread::spawn(move || server.run());
    Running { stop, join }
}

#[test]
fn fleet_of_64_wire_clients_drains_without_losing_acked_commits() {
    const WORKERS: usize = 64;
    const ROWS_PER_WORKER: i64 = 8;

    let data = temp_dir("data");
    let sock = temp_dir("sock").join("srv.sock");
    let spec = SocketSpec::Unix(sock);

    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .path(data.clone())
        .build()
        .unwrap();
    let mut cfg = ServerConfig::new(spec.clone());
    cfg.heartbeat_timeout_ms = 60_000;
    cfg.drain_deadline_ms = 5_000;
    let running = start(&engine, cfg);

    let admin = connect_retry(&spec, "admin");
    admin
        .execute("create table kv (id int not null primary key, v int)")
        .expect("create table over the wire");

    // 64 concurrent wire clients: each prepares once (shared plan cache),
    // inserts its slice, reads one row back, then parks at the barrier so
    // the whole fleet is provably alive at the same instant.
    let barrier = Arc::new(Barrier::new(WORKERS + 1));
    let release = Arc::new(Barrier::new(WORKERS + 1));
    let acked = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();
    for w in 0..WORKERS {
        let spec = spec.clone();
        let barrier = Arc::clone(&barrier);
        let release = Arc::clone(&release);
        let acked = Arc::clone(&acked);
        workers.push(std::thread::spawn(move || {
            let conn = connect_retry(&spec, &format!("worker-{w}"));
            {
                let ins = conn.prepare("insert into kv values ($1, $2)").unwrap();
                let sel = conn.prepare("select v from kv where id = $1").unwrap();
                for j in 0..ROWS_PER_WORKER {
                    let id = (w as i64) * ROWS_PER_WORKER + j;
                    ins.execute(&[Value::Int(id), Value::Int(id * 10)])
                        .expect("insert acked");
                    acked.fetch_add(1, Ordering::Relaxed);
                    let r = sel.execute(&[Value::Int(id)]).expect("point select");
                    assert_eq!(r.rows[0].get(0).as_int(), Some(id * 10));
                }
            }
            barrier.wait();
            // Main inspects ima$connections while everyone holds here.
            release.wait();
            drop(conn);
        }));
    }
    barrier.wait();

    // The whole fleet is connected: the virtual table must report every
    // wire client (64 workers + this admin connection) as live sessions.
    let r = admin
        .query("select session, client, state from ima$connections")
        .expect("fleet view");
    assert!(
        r.rows.len() > WORKERS,
        "ima$connections reports {} rows, want >= {}",
        r.rows.len(),
        WORKERS + 1
    );
    let workers_seen = r
        .rows
        .iter()
        .filter(|row| matches!(row.get(1), Value::Str(c) if c.starts_with("worker-")))
        .count();
    assert_eq!(workers_seen, WORKERS, "every worker identifies itself");

    release.wait();
    for w in workers {
        w.join().unwrap();
    }
    let total_acked = acked.load(Ordering::Relaxed);
    assert_eq!(total_acked, (WORKERS as u64) * (ROWS_PER_WORKER as u64));

    // Graceful drain: same path a SIGTERM takes.
    running.stop.request_stop();
    let outcome = running.join.join().unwrap().expect("run");
    assert_eq!(outcome, RunOutcome::Drained);
    engine.detach::<ingot_core::ConnectionRow>();
    drop(admin);
    drop(engine);

    // Restart from disk: every acknowledged commit must have survived.
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .path(data)
        .build()
        .unwrap();
    let session = engine.open_session();
    let r = session.execute("select count(*) from kv").unwrap();
    assert_eq!(
        r.rows[0].get(0).as_int(),
        Some(total_acked as i64),
        "acked commits lost across drain + restart"
    );
}

#[test]
fn orphan_is_reaped_its_txn_aborted_and_its_locks_released() {
    let sock = temp_dir("reap").join("srv.sock");
    let spec = SocketSpec::Unix(sock);
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let mut cfg = ServerConfig::new(spec.clone());
    cfg.heartbeat_timeout_ms = 300;
    let running = start(&engine, cfg);

    let admin = connect_retry(&spec, "admin");
    admin
        .execute("create table kv (id int not null primary key, v int)")
        .unwrap();
    admin.execute("insert into kv values (1, 10)").unwrap();
    let aborted_before = aborted_total(&admin);

    // The victim opens a transaction, takes the row lock… and goes silent
    // (heartbeats disabled + mem::forget skips the Drop close — from the
    // server's side this is a vanished client, not an orderly disconnect).
    let victim = ClientConnection::connect_with(&spec, "victim", 0).expect("victim connects");
    victim.begin().unwrap();
    victim.execute("update kv set v = 20 where id = 1").unwrap();
    std::mem::forget(victim);

    // Heartbeat expiry (300 ms) must kill the orphan; Session teardown
    // rolls its transaction back and releases the row lock, after which
    // this update stops conflicting.
    let mut released = false;
    for _ in 0..200 {
        match admin.execute("update kv set v = 30 where id = 1") {
            Ok(_) => {
                released = true;
                break;
            }
            Err(_) => pace(20),
        }
    }
    assert!(released, "orphan's row lock was never released");
    let r = admin.query("select v from kv where id = 1").unwrap();
    assert_eq!(
        r.rows[0].get(0).as_int(),
        Some(30),
        "the orphan's uncommitted update must be rolled back, not committed"
    );
    assert!(
        aborted_total(&admin) > aborted_before,
        "the reaped orphan's abort must be charged to ima$transactions"
    );

    running.stop.request_stop();
    assert_eq!(running.join.join().unwrap().unwrap(), RunOutcome::Drained);
}

fn aborted_total(conn: &ClientConnection) -> i64 {
    let r = conn
        .query("select value from ima$transactions where metric = 'aborted_total'")
        .unwrap();
    r.rows[0].get(0).as_int().unwrap()
}

#[test]
fn version_mismatch_is_rejected_with_a_protocol_error() {
    let sock = temp_dir("ver").join("srv.sock");
    let spec = SocketSpec::Unix(sock);
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let running = start(&engine, ServerConfig::new(spec.clone()));

    // Raw wire: a Hello from the future must be answered with a protocol
    // error naming both versions, and the connection closed.
    let mut stream = loop {
        match ingot_common::net::connect(&spec) {
            Ok(s) => break s,
            Err(_) => pace(2),
        }
    };
    FrameWriter::new(wire::MAX_FRAME_BYTES)
        .send_request(
            &mut stream,
            &Request::Hello {
                version: 9_999,
                client: "time-traveller".into(),
            },
        )
        .unwrap();
    let (op, body) = wire::read_frame(&mut stream, wire::MAX_FRAME_BYTES)
        .unwrap()
        .expect("server must answer the bad hello");
    match Response::decode(op, &body).unwrap() {
        Response::Err(w) => {
            let e = w.into_error();
            assert!(
                e.to_string().contains("version mismatch"),
                "unexpected error: {e}"
            );
            assert!(!e.is_transient(), "a version mismatch never retries");
        }
        other => panic!("expected an error response, got {other:?}"),
    }

    running.stop.request_stop();
    assert_eq!(running.join.join().unwrap().unwrap(), RunOutcome::Drained);
}

#[test]
fn two_requests_in_one_write_get_both_responses_in_order() {
    let sock = temp_dir("pipe").join("srv.sock");
    let spec = SocketSpec::Unix(sock);
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let running = start(&engine, ServerConfig::new(spec.clone()));

    let mut stream = loop {
        match ingot_common::net::connect(&spec) {
            Ok(s) => break s,
            Err(_) => pace(2),
        }
    };
    let mut out = FrameWriter::new(wire::MAX_FRAME_BYTES);
    let mut reader = FrameReader::new(wire::MAX_FRAME_BYTES);
    let mut roundtrip = |stream: &mut ingot_common::net::Stream, reqs: &[Request]| {
        // Every request's frame in one buffer, sent with one write.
        let mut bytes = Vec::new();
        for req in reqs {
            out.send_request(&mut bytes, req).unwrap();
        }
        std::io::Write::write_all(stream, &bytes).unwrap();
        reqs.iter()
            .map(|_| {
                let (op, body) = reader.next_frame(stream).unwrap().expect("a response");
                Response::decode(op, body).unwrap()
            })
            .collect::<Vec<_>>()
    };
    let hello = Request::Hello {
        version: wire::PROTOCOL_VERSION,
        client: "pipeliner".into(),
    };
    assert!(matches!(
        roundtrip(&mut stream, &[hello])[..],
        [Response::HelloOk { .. }]
    ));
    let both = roundtrip(
        &mut stream,
        &[
            Request::Query {
                sql: "select client from ima$connections".into(),
            },
            Request::Heartbeat,
        ],
    );
    match &both[..] {
        [Response::Rows(r), Response::Pong] => {
            assert_eq!(r.rows[0].get(0), &Value::Str("pipeliner".into()));
        }
        other => panic!("expected rows then pong, got {other:?}"),
    }
    let _ = roundtrip(&mut stream, &[Request::Close]);

    running.stop.request_stop();
    assert_eq!(running.join.join().unwrap().unwrap(), RunOutcome::Drained);
}

#[test]
fn statement_blocked_mid_run_shows_active_with_its_prepared_text() {
    let sock = temp_dir("busy").join("srv.sock");
    let spec = SocketSpec::Unix(sock);
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let running = start(&engine, ServerConfig::new(spec.clone()));

    let holder = connect_retry(&spec, "holder");
    holder
        .execute("create table kv (id int not null primary key, v int)")
        .unwrap();
    holder.execute("insert into kv values (1, 10)").unwrap();
    holder.begin().unwrap();
    holder.execute("update kv set v = 20 where id = 1").unwrap();

    // `blocked` waits on the holder's row lock inside a prepared update.
    const TEXT: &str = "update kv set v = $1 where id = 1";
    let blocked = connect_retry(&spec, "blocked");
    let waiter = std::thread::spawn(move || {
        {
            let upd = blocked.prepare(TEXT).unwrap();
            let _ = upd.execute(&[Value::Int(30)]);
        }
        blocked
    });
    let admin = connect_retry(&spec, "admin");
    let mut seen = None;
    for _ in 0..500 {
        let r = admin
            .query("select state, statement from ima$connections where client = 'blocked'")
            .unwrap();
        if let Some(row) = r.rows.first() {
            if row.get(0) == &Value::Str("active".into()) {
                seen = Some(row.get(1).clone());
                break;
            }
        }
        pace(2);
    }
    assert_eq!(
        seen,
        Some(Value::Str(TEXT.into())),
        "a statement waiting on a lock shows as active with its prepared text"
    );
    holder.commit().unwrap();
    let blocked = waiter.join().unwrap();
    let r = admin
        .query("select state, statement from ima$connections where client = 'blocked'")
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Str("idle".into()));
    assert_eq!(r.rows[0].get(1), &Value::Null);

    drop((blocked, holder, admin));
    running.stop.request_stop();
    assert_eq!(running.join.join().unwrap().unwrap(), RunOutcome::Drained);
}

#[test]
fn shutdown_verb_drains_the_server() {
    let sock = temp_dir("shut").join("srv.sock");
    let spec = SocketSpec::Unix(sock);
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let running = start(&engine, ServerConfig::new(spec.clone()));

    let conn = connect_retry(&spec, "admin");
    conn.execute("create table t (id int not null primary key)")
        .unwrap();
    conn.shutdown_server().expect("shutdown verb");
    assert_eq!(running.join.join().unwrap().unwrap(), RunOutcome::Drained);
}

#[test]
fn idle_client_outlives_the_heartbeat_timeout_via_auto_heartbeats() {
    let sock = temp_dir("hb").join("srv.sock");
    let spec = SocketSpec::Unix(sock);
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let mut cfg = ServerConfig::new(spec.clone());
    cfg.heartbeat_timeout_ms = 300;
    let running = start(&engine, cfg);

    // Pings every 100 ms while idle: pausing well past the 300 ms server
    // budget (a user thinking at a shell prompt) must not get us reaped.
    let chatty = ClientConnection::connect_with(&spec, "chatty", 100).expect("connect");
    chatty
        .execute("create table t (id int not null primary key)")
        .unwrap();
    // A muted twin really does get reaped — proving the pause below is
    // long enough that only the heartbeats keep `chatty` alive.
    let muted = ClientConnection::connect_with(&spec, "muted", 0).expect("connect");
    muted.execute("insert into t values (1)").unwrap();

    pace(1_000);
    chatty
        .execute("insert into t values (2)")
        .expect("an idle-but-heartbeating client must survive the reaper");
    assert!(
        muted.execute("insert into t values (3)").is_err(),
        "a silent client must still be reaped"
    );

    drop(muted);
    running.stop.request_stop();
    assert_eq!(running.join.join().unwrap().unwrap(), RunOutcome::Drained);
    drop(chatty);
}

#[test]
fn verb_running_past_the_heartbeat_budget_is_not_reaped() {
    let sock = temp_dir("slow").join("srv.sock");
    let spec = SocketSpec::Unix(sock);
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let mut cfg = ServerConfig::new(spec.clone());
    cfg.heartbeat_timeout_ms = 300;
    let running = start(&engine, cfg);

    // The holder idles in-txn for 600 ms while it pins the row lock, so it
    // heartbeats every 100 ms to stay clear of the 300 ms reaper budget.
    let holder = ClientConnection::connect_with(&spec, "holder", 100).expect("connect");
    holder
        .execute("create table kv (id int not null primary key, v int)")
        .unwrap();
    holder.execute("insert into kv values (1, 10)").unwrap();
    holder.begin().unwrap();
    holder.execute("update kv set v = 20 where id = 1").unwrap();

    // With heartbeats off, `blocked` stays alive across the 600 ms lock
    // wait only because (a) the verb runs as `active` and (b) its activity
    // stamp is refreshed when the verb *finishes* — a stale pre-execution
    // timestamp would get it reaped the moment it flipped back to idle.
    let blocked = ClientConnection::connect_with(&spec, "blocked", 0).expect("connect");
    let waiter = std::thread::spawn(move || {
        // Outcome (write-conflict vs success) is irrelevant; only that the
        // connection survives a verb stalled far past the budget matters.
        let _ = blocked.execute("update kv set v = 30 where id = 1");
        blocked
    });
    pace(600);
    holder.commit().unwrap();
    let blocked = waiter.join().unwrap();
    // Less than the 300 ms budget since the verb completed: still alive.
    pace(150);
    blocked
        .query("select count(*) from kv")
        .expect("connection reaped although its long verb just finished");

    running.stop.request_stop();
    assert_eq!(running.join.join().unwrap().unwrap(), RunOutcome::Drained);
}

#[test]
fn shutdown_over_tcp_is_refused_unless_opted_in() {
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let cfg = ServerConfig::new(SocketSpec::Tcp("127.0.0.1:0".into()));
    let server = Server::bind(Arc::clone(&engine), cfg).expect("bind tcp");
    let spec = server.local_spec();
    let stop = server.stop_handle();
    let join = std::thread::spawn(move || server.run());

    let conn = connect_retry(&spec, "tcp-peer");
    let err = conn
        .shutdown_server()
        .expect_err("tcp peers must not stop the server by default");
    assert!(err.to_string().contains("refused"), "{err}");
    // The refusal is an error response, not a connection kill.
    conn.execute("create table t (id int not null primary key)")
        .expect("connection stays usable after a refused shutdown");
    drop(conn);
    stop.request_stop();
    assert_eq!(join.join().unwrap().unwrap(), RunOutcome::Drained);
    engine.detach::<ingot_core::ConnectionRow>();

    // Opting in restores the old behaviour for trusted networks.
    let mut cfg = ServerConfig::new(SocketSpec::Tcp("127.0.0.1:0".into()));
    cfg.allow_remote_shutdown = true;
    let server = Server::bind(Arc::clone(&engine), cfg).expect("bind tcp");
    let spec = server.local_spec();
    let join = std::thread::spawn(move || server.run());
    let conn = connect_retry(&spec, "tcp-admin");
    conn.shutdown_server().expect("opted-in shutdown works");
    assert_eq!(join.join().unwrap().unwrap(), RunOutcome::Drained);
}

#[test]
fn oversized_result_set_yields_a_clean_error_not_a_dead_connection() {
    let sock = temp_dir("cap").join("srv.sock");
    let spec = SocketSpec::Unix(sock);
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let mut cfg = ServerConfig::new(spec.clone());
    cfg.max_frame_bytes = 4_096;
    let running = start(&engine, cfg);

    let conn = connect_retry(&spec, "bulk");
    conn.execute("create table big (id int not null primary key, pad text)")
        .unwrap();
    let pad = "x".repeat(200);
    for i in 0..40 {
        conn.execute(&format!("insert into big values ({i}, '{pad}')"))
            .unwrap();
    }
    // ~8 KiB of rows against a 4 KiB frame cap: the server must answer
    // with a clean error frame, never emit the oversized one.
    let err = conn
        .query("select * from big")
        .expect_err("result set larger than the frame cap must error");
    assert!(err.to_string().contains("frame cap"), "{err}");
    // …and the stream is still in sync afterwards.
    let r = conn.query("select count(*) from big").unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(40));

    drop(conn);
    running.stop.request_stop();
    assert_eq!(running.join.join().unwrap().unwrap(), RunOutcome::Drained);
}

#[test]
fn in_process_restart_serves_fresh_ima_connections_rows() {
    // The provider slot swap: after the first server stops and a second one
    // binds the same engine, ima$connections must serve the *new* fleet.
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();

    let sock1 = temp_dir("swap1").join("srv.sock");
    let spec1 = SocketSpec::Unix(sock1);
    let running = start(&engine, ServerConfig::new(spec1.clone()));
    let conn = connect_retry(&spec1, "first-fleet");
    let r = conn.query("select client from ima$connections").unwrap();
    assert_eq!(r.rows.len(), 1);
    drop(conn);
    running.stop.request_stop();
    running.join.join().unwrap().unwrap();

    let sock2 = temp_dir("swap2").join("srv.sock");
    let spec2 = SocketSpec::Unix(sock2);
    let running = start(&engine, ServerConfig::new(spec2.clone()));
    let conn = connect_retry(&spec2, "second-fleet");
    let r = conn.query("select client from ima$connections").unwrap();
    assert_eq!(r.rows.len(), 1, "stale first-fleet rows must be gone");
    assert_eq!(r.rows[0].get(0), &Value::Str("second-fleet".into()));
    drop(conn);
    running.stop.request_stop();
    running.join.join().unwrap().unwrap();
}

#[test]
fn ima_server_counts_the_statements_served_over_the_wire() {
    const N: i64 = 6;
    let sock = temp_dir("served").join("srv.sock");
    let spec = SocketSpec::Unix(sock);
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let running = start(&engine, ServerConfig::new(spec.clone()));
    let conn = connect_retry(&spec, "counted");
    conn.execute("create table t (a int)").unwrap();
    for i in 1..N {
        conn.execute(&format!("insert into t values ({i})"))
            .unwrap();
    }
    let r = conn
        .query("select statements_served, frames_in, connections_opened from ima$server")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let served = r.rows[0].get(0).as_int().unwrap();
    assert!(
        served >= N,
        "statements_served = {served} after {N} statements"
    );
    assert!(r.rows[0].get(1).as_int().unwrap() >= N);
    assert!(r.rows[0].get(2).as_int().unwrap() >= 1);
    drop(conn);
    running.stop.request_stop();
    running.join.join().unwrap().unwrap();

    // Drained: the table stays registered but serves no row.
    let r = engine
        .open_session()
        .execute("select count(*) from ima$server")
        .unwrap();
    assert_eq!(r.rows[0].get(0).as_int(), Some(0));
}

#[test]
fn drain_goodbye_is_counted_like_every_other_frame() {
    let sock = temp_dir("goodbye").join("srv.sock");
    let spec = SocketSpec::Unix(sock);
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let server = Server::bind(Arc::clone(&engine), ServerConfig::new(spec.clone())).unwrap();
    let stats = Arc::clone(server.stats());
    let stop = server.stop_handle();
    let join = std::thread::spawn(move || server.run());

    // One idle raw client: hello, then nothing until the drain says goodbye.
    let mut stream = loop {
        match ingot_common::net::connect(&spec) {
            Ok(s) => break s,
            Err(_) => pace(2),
        }
    };
    FrameWriter::new(wire::MAX_FRAME_BYTES)
        .send_request(
            &mut stream,
            &Request::Hello {
                version: wire::PROTOCOL_VERSION,
                client: "idle".into(),
            },
        )
        .unwrap();
    let mut frames = Vec::new();
    let (op, body) = wire::read_frame(&mut stream, wire::MAX_FRAME_BYTES)
        .unwrap()
        .expect("hello answered");
    assert!(matches!(
        Response::decode(op, &body).unwrap(),
        Response::HelloOk { .. }
    ));
    frames.push(body.len() as u64);
    stop.request_stop();
    while let Some((op, body)) = wire::read_frame(&mut stream, wire::MAX_FRAME_BYTES).unwrap() {
        assert!(matches!(
            Response::decode(op, &body).unwrap(),
            Response::Goodbye
        ));
        frames.push(body.len() as u64);
    }
    assert_eq!(join.join().unwrap().unwrap(), RunOutcome::Drained);

    assert_eq!(frames.len(), 2, "hello-ok, then the drain's goodbye");
    assert_eq!(
        stats.frames_out.load(Ordering::Relaxed),
        frames.len() as u64
    );
    assert_eq!(
        stats.bytes_out.load(Ordering::Relaxed),
        frames.iter().sum::<u64>()
    );
}
