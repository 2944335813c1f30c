//! Server fleet scaling — wire-client throughput vs. connection count.
//!
//! Binds an in-process `ingot-server` on a unix socket and drives it with
//! 1/8/64/256/1000 closed-loop wire clients, one OS thread per client, for
//! a point-select and an insert mix. Each client connects once, prepares
//! its statement once (the shared plan cache makes the second prepare of a
//! template free), then issues statements back-to-back; a cell measures
//! the barrier-to-join wall time of the whole fleet. Results go to
//! `results/server_fleet.json`.
//!
//! This is the proof-of-multiplexing experiment for the server: session
//! state lives in the handler threads and the statement path takes no
//! server-wide lock, so aggregate throughput must hold (not collapse) as
//! the fleet grows three orders of magnitude past the core count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ingot_bench::{best_of, header, pace, write_results, Field, Fields, Scale, ScratchDir};
use ingot_client::ClientConnection;
use ingot_common::{Connection, EngineConfig, SocketSpec, Value};
use ingot_core::Engine;
use ingot_server::{Server, ServerConfig};

/// Fleet sizes measured, in order.
const CONN_COUNTS: [usize; 5] = [1, 8, 64, 256, 1000];

/// Rows preloaded for the point-select mix.
const PRELOAD_ROWS: i64 = 1024;

/// The two statement mixes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mix {
    /// Prepared point selects over the preloaded rows.
    PointSelect,
    /// Prepared single-row inserts of globally unique keys.
    Insert,
}

impl Mix {
    const ALL: [Mix; 2] = [Mix::PointSelect, Mix::Insert];

    fn label(self) -> &'static str {
        match self {
            Mix::PointSelect => "point_select",
            Mix::Insert => "insert",
        }
    }
}

struct Cell {
    mix: &'static str,
    connections: usize,
    total_statements: u64,
    elapsed_ms: f64,
    stmts_per_sec: f64,
    tput_vs_1: f64,
}

impl Cell {
    fn fields(&self) -> Fields {
        vec![
            ("mix", Field::Text(self.mix)),
            ("connections", Field::Int(self.connections as u64)),
            ("total_statements", Field::Int(self.total_statements)),
            ("elapsed_ms", Field::Num(self.elapsed_ms)),
            ("stmts_per_sec", Field::Num(self.stmts_per_sec)),
            ("tput_vs_1_conn", Field::Num(self.tput_vs_1)),
        ]
    }
}

fn connect_retry(spec: &SocketSpec, name: &str) -> ClientConnection {
    for _ in 0..5_000 {
        match ClientConnection::connect_with_name(spec, name) {
            Ok(c) => return c,
            Err(_) => pace(Duration::from_millis(2)),
        }
    }
    panic!("server never came up on {spec}");
}

fn main() {
    let scale = Scale::from_env();
    header(
        "Server fleet",
        "closed-loop wire clients vs. aggregate throughput",
        &scale,
    );

    // Keep total statement volume roughly constant across fleet sizes so a
    // 1000-connection cell finishes in the same ballpark as a 1-connection
    // cell; the variable is the multiplexing, not the work.
    let total_target = scale.n_simple.max(1_000);

    let mut cells: Vec<Cell> = Vec::new();
    for mix in Mix::ALL {
        println!(
            "\n{:<12} {:>12} {:>12} {:>14} {:>12}",
            mix.label(),
            "connections",
            "elapsed_ms",
            "stmts/sec",
            "vs_1_conn"
        );
        let mut base_tput = 0.0;
        for conns in CONN_COUNTS {
            let per_conn = (total_target / conns as u64).max(4);
            let total = per_conn * conns as u64;
            let (elapsed, ()) = best_of(scale.repeats, || (run_cell(mix, conns, per_conn), ()));
            let tput = total as f64 / elapsed.as_secs_f64();
            if conns == 1 {
                base_tput = tput;
            }
            let ratio = tput / base_tput;
            println!(
                "{:<12} {:>12} {:>12.1} {:>14.0} {:>11.2}x",
                "",
                conns,
                elapsed.as_secs_f64() * 1e3,
                tput,
                ratio
            );
            cells.push(Cell {
                mix: mix.label(),
                connections: conns,
                total_statements: total,
                elapsed_ms: elapsed.as_secs_f64() * 1e3,
                stmts_per_sec: tput,
                tput_vs_1: ratio,
            });
        }
    }

    write_results(
        "server_fleet.json",
        "server_fleet",
        &scale,
        &[
            ("total_statement_target", Field::Int(total_target)),
            ("preload_rows", Field::Int(PRELOAD_ROWS as u64)),
            (
                "model",
                Field::Text(
                    "closed-loop wire clients over a unix socket, \
                     one thread per connection",
                ),
            ),
        ],
        &cells.iter().map(Cell::fields).collect::<Vec<_>>(),
    );

    // The multiplexing claim: a 64-connection fleet must not collapse below
    // half of single-connection throughput (thread-per-connection with a
    // per-statement engine lock would).
    for mix in Mix::ALL {
        let c64 = cells
            .iter()
            .find(|c| c.mix == mix.label() && c.connections == 64)
            .expect("64-connection cell");
        assert!(
            c64.tput_vs_1 >= 0.5,
            "{}: 64-connection throughput collapsed to {:.2}x of 1 connection",
            mix.label(),
            c64.tput_vs_1
        );
    }
}

/// One measured cell: fresh engine + server, `conns` wire clients each
/// issuing `per_conn` prepared statements. Returns the barrier-to-join
/// wall time of the statement phase (connection setup is not measured).
fn run_cell(mix: Mix, conns: usize, per_conn: u64) -> Duration {
    let dir = ScratchDir::new("fleet");
    let spec = SocketSpec::Unix(dir.path().join("srv.sock"));

    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .path(dir.path().join("data"))
        .build()
        .expect("build engine");
    let mut cfg = ServerConfig::new(spec.clone());
    cfg.heartbeat_timeout_ms = 600_000; // the bench fleet never idles long
    cfg.drain_deadline_ms = 10_000;
    let server = Server::bind(Arc::clone(&engine), cfg).expect("bind server");
    let stop = server.stop_handle();
    let server_join = std::thread::spawn(move || server.run());

    let admin = connect_retry(&spec, "bench-admin");
    admin
        .execute("create table kv (id int not null primary key, v int)")
        .expect("create table");
    if mix == Mix::PointSelect {
        let ins = admin
            .prepare("insert into kv values ($1, $2)")
            .expect("prepare preload");
        for id in 0..PRELOAD_ROWS {
            ins.execute(&[Value::Int(id), Value::Int(id * 10)])
                .expect("preload row");
        }
    }

    // Insert keys must stay unique across the whole fleet.
    let next_key = Arc::new(AtomicU64::new(PRELOAD_ROWS as u64 + 1));
    let start = Arc::new(Barrier::new(conns + 1));
    let done = Arc::new(Barrier::new(conns + 1));
    let mut workers = Vec::with_capacity(conns);
    for w in 0..conns {
        let spec = spec.clone();
        let start = Arc::clone(&start);
        let done = Arc::clone(&done);
        let next_key = Arc::clone(&next_key);
        workers.push(std::thread::spawn(move || {
            let conn = connect_retry(&spec, &format!("fleet-{w}"));
            let sql = match mix {
                Mix::PointSelect => "select v from kv where id = $1",
                Mix::Insert => "insert into kv values ($1, $2)",
            };
            let stmt = conn.prepare(sql).expect("prepare");
            start.wait();
            for j in 0..per_conn {
                match mix {
                    Mix::PointSelect => {
                        let id = ((w as u64 * per_conn + j) % PRELOAD_ROWS as u64) as i64;
                        let r = stmt.execute(&[Value::Int(id)]).expect("point select");
                        assert_eq!(r.rows[0].get(0).as_int(), Some(id * 10));
                    }
                    Mix::Insert => {
                        let id = next_key.fetch_add(1, Ordering::Relaxed) as i64;
                        stmt.execute(&[Value::Int(id), Value::Int(id)])
                            .expect("insert");
                    }
                }
            }
            done.wait();
        }));
    }

    start.wait();
    let t0 = Instant::now();
    done.wait();
    let elapsed = t0.elapsed();
    for w in workers {
        w.join().expect("worker");
    }

    drop(admin);
    stop.request_stop();
    server_join
        .join()
        .expect("server thread")
        .expect("server run");
    engine.attach::<ingot_core::ConnectionRow>(Vec::new);
    elapsed
}
