//! What every `ima$` table looks like from SQL, pinned: the column name,
//! type and nullability of all twenty-one tables against
//! `tests/golden/ima_schemas.txt`, the tables each configuration registers
//! (in registration order, with a storage daemon and a wire server
//! attached), and that every row a provider serves fits its table's schema.
//!
//! On a schema mismatch the text this build produced is left in
//! `$CARGO_TARGET_TMPDIR/ima_schemas.actual.txt` to diff against the golden.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ingot::catalog::VirtualTableDef;
use ingot::common::StmtHash;
use ingot::prelude::*;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/ima_schemas.txt"
);

/// Under full monitoring, in registration order.
const MONITORED: &[&str] = &[
    "ima$statements",
    "ima$workload",
    "ima$references",
    "ima$tables",
    "ima$indexes",
    "ima$attributes",
    "ima$statistics",
    "ima$monitor_health",
    "ima$locks",
    "ima$sessions",
    "ima$transactions",
    "ima$plan_cache",
    "ima$wal",
    "ima$wait_events",
    "ima$active_sessions",
    "ima$ash",
    "ima$operator_stats",
    "ima$latency_histograms",
];

/// Present only when the wait subsystem is on.
const WAIT_TABLES: &[&str] = &["ima$wait_events", "ima$active_sessions", "ima$ash"];

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh directory for one server socket.
fn socket_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ingot-ima-tables-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An engine of `config` with a storage daemon attached, then a server
/// bound over a Unix socket in `dir`.
fn attached(config: EngineConfig, dir: &std::path::Path) -> (Arc<Engine>, StorageDaemon, Server) {
    let engine = Engine::builder().config(config).build().unwrap();
    let wldb = Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
    let daemon = StorageDaemon::new(Arc::clone(&engine), wldb, DaemonConfig::default());
    let spec = SocketSpec::Unix(dir.join("srv.sock"));
    let server = Server::bind(Arc::clone(&engine), ServerConfig::new(spec)).unwrap();
    (engine, daemon, server)
}

/// Every virtual table of `engine`, in registration (table-id) order.
fn virtual_tables(engine: &Engine) -> Vec<VirtualTableDef> {
    let catalog = engine.catalog().read();
    let mut tables: Vec<VirtualTableDef> = catalog.virtual_tables().cloned().collect();
    tables.sort_by_key(|t| t.id);
    tables
}

fn names(engine: &Engine) -> Vec<String> {
    virtual_tables(engine)
        .iter()
        .map(|t| t.name.to_string())
        .collect()
}

#[test]
fn ima_schemas_match_the_golden() {
    let dir = socket_dir();
    let (engine, _daemon, _server) = attached(EngineConfig::monitoring(), &dir);
    let mut actual = String::new();
    for table in virtual_tables(&engine) {
        writeln!(actual, "{}", table.name).unwrap();
        for c in table.schema.columns() {
            let null = if c.nullable { "" } else { " not null" };
            writeln!(actual, "  {} {}{null}", c.name, c.ty).unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    let golden = std::fs::read_to_string(GOLDEN).unwrap();
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ima_schemas.actual.txt");
        std::fs::write(&path, &actual).unwrap();
        panic!(
            "ima$ schemas differ from {GOLDEN}; this build's are in {}",
            path.display()
        );
    }
    assert_eq!(actual.lines().filter(|l| l.starts_with("ima$")).count(), 21);
}

#[test]
fn registered_tables_follow_the_configuration() {
    let attached_names = |config: EngineConfig| {
        let dir = socket_dir();
        let (engine, _daemon, _server) = attached(config, &dir);
        let names = names(&engine);
        std::fs::remove_dir_all(&dir).ok();
        names
    };

    let mut full: Vec<&str> = MONITORED.to_vec();
    full.extend(["ima$daemon_health", "ima$connections", "ima$server"]);
    assert_eq!(attached_names(EngineConfig::monitoring()), full);

    let no_waits: Vec<&str> = full
        .iter()
        .copied()
        .filter(|name| !WAIT_TABLES.contains(name))
        .collect();
    let config = EngineConfig {
        wait_events_enabled: false,
        ..EngineConfig::monitoring()
    };
    assert_eq!(attached_names(config), no_waits);

    // The Original setup carries no sensor, so no engine observer, no
    // connection fleet and no server row; the daemon's own health is still
    // listed.
    assert_eq!(
        attached_names(EngineConfig::original()),
        ["ima$daemon_health"]
    );
}

#[test]
fn provider_rows_fit_their_schemas() {
    let dir = socket_dir();
    let (engine, daemon, server) = attached(EngineConfig::monitoring(), &dir);
    let spec = SocketSpec::Unix(dir.join("srv.sock"));
    let stop = server.stop_handle();
    let running = std::thread::spawn(move || server.run());

    let s = engine.open_session();
    s.execute("create table t (a int not null primary key, b int, c text)")
        .unwrap();
    s.execute("create index t_b on t (b)").unwrap();
    let rows: Vec<String> = (0..2000)
        .map(|i| format!("({i}, {i}, 'row {i}')"))
        .collect();
    s.execute(&format!("insert into t values {}", rows.join(", ")))
        .unwrap();
    s.execute("create statistics on t").unwrap();
    engine.set_tracing(true);
    s.execute("select a, c from t where b = 55").unwrap();
    s.execute("select b, count(*) from t group by b").unwrap();
    engine.sample_statistics();

    // A held row lock and table lock, and a live snapshot.
    let holder = engine.open_session();
    holder.begin().unwrap();
    holder
        .execute("update t set c = 'held' where a = 3")
        .unwrap();

    // A session mid-statement, sampled.
    let sampler = engine.ash_sampler().unwrap();
    let slot = sampler.register_session(99);
    slot.begin_statement(StmtHash::of("select 1"), &"select 1".into(), 0);
    sampler.sample_now(2);

    let mut client = None;
    for _ in 0..5_000 {
        match ClientConnection::connect_with_name(&spec, "ima-tables") {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::yield_now(),
        }
    }
    let client = client.expect("server never came up");
    client.execute("select count(*) from t").unwrap();
    daemon.poll_once().unwrap();

    let tables = virtual_tables(&engine);
    assert_eq!(tables.len(), 21);
    for table in &tables {
        let rows = (table.provider)();
        assert!(!rows.is_empty(), "{} served no row", table.name);
        let columns = table.schema.columns();
        for row in &rows {
            assert_eq!(row.len(), columns.len(), "{} row {row:?}", table.name);
            for (value, column) in row.values().iter().zip(columns) {
                match value.data_type() {
                    None => assert!(
                        column.nullable,
                        "{}.{} is NOT NULL but served NULL",
                        table.name, column.name
                    ),
                    Some(ty) => assert_eq!(ty, column.ty, "{}.{}", table.name, column.name),
                }
            }
        }
    }

    holder.rollback().unwrap();
    drop(client);
    stop.request_stop();
    running.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
