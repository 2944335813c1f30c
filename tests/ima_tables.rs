//! What every `ima$` table looks like from SQL, pinned: the column name,
//! type and nullability of all twenty-one tables against
//! `tests/golden/ima_schemas.txt`, the tables each configuration registers
//! (in registration order, with a storage daemon and a wire server
//! attached), that attaching them moves no id and no cached plan, and that
//! every row a provider serves fits its table's schema.
//!
//! On a schema mismatch the text this build produced is left in
//! `$CARGO_TARGET_TMPDIR/ima_schemas.actual.txt` to diff against the golden.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ingot::catalog::VirtualTableDef;
use ingot::common::{StmtHash, TableId};
use ingot::core::IMA_TABLE_NAMES;
use ingot::prelude::*;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/ima_schemas.txt"
);

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

/// A storage daemon attached to `engine`, then a server bound over a Unix
/// socket in `dir`.
fn attach(engine: &Arc<Engine>, dir: &std::path::Path) -> (StorageDaemon, Server) {
    let wldb = Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
    let daemon = StorageDaemon::new(Arc::clone(engine), wldb, DaemonConfig::default());
    let spec = SocketSpec::Unix(dir.join("srv.sock"));
    let server = Server::bind(Arc::clone(engine), ServerConfig::new(spec)).unwrap();
    (daemon, server)
}

/// An engine of `config` with a storage daemon and a server attached.
fn attached(config: EngineConfig, dir: &std::path::Path) -> (Arc<Engine>, StorageDaemon, Server) {
    let engine = Engine::builder().config(config).build().unwrap();
    let (daemon, server) = attach(&engine, dir);
    (engine, daemon, server)
}

/// Every virtual table of `engine`, in registration order: virtual ids
/// count down from `u32::MAX`.
fn virtual_tables(engine: &Engine) -> Vec<VirtualTableDef> {
    let catalog = engine.catalog().read();
    let mut tables: Vec<VirtualTableDef> = catalog.virtual_tables().cloned().collect();
    tables.sort_by_key(|t| std::cmp::Reverse(t.id));
    tables
}

/// The three configurations: full monitoring, monitoring without the wait
/// subsystem, and the unmonitored Original setup.
fn configurations() -> [EngineConfig; 3] {
    [
        EngineConfig::monitoring(),
        EngineConfig {
            wait_events_enabled: false,
            ..EngineConfig::monitoring()
        },
        EngineConfig::original(),
    ]
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

    let [full, no_waits, original] = configurations();
    assert_eq!(attached_names(full), IMA_TABLE_NAMES);

    let without_waits: Vec<&str> = IMA_TABLE_NAMES
        .iter()
        .copied()
        .filter(|name| !WAIT_TABLES.contains(name))
        .collect();
    assert_eq!(attached_names(no_waits), without_waits);

    // The Original setup carries no sensor, so no engine observer, no
    // connection fleet and no server row; the daemon's own health is still
    // listed.
    assert_eq!(attached_names(original), ["ima$daemon_health"]);
}

#[test]
fn ids_do_not_depend_on_what_attached_first() {
    // A base table's id, and every virtual table's name and id, in
    // registration order.
    let ids = |config: EngineConfig, attach_first: bool| {
        let dir = socket_dir();
        let engine = Engine::builder().config(config).build().unwrap();
        let create = || {
            engine
                .open_session()
                .execute("create table t (a int)")
                .unwrap()
        };
        if !attach_first {
            create();
        }
        let (_daemon, _server) = attach(&engine, &dir);
        if attach_first {
            create();
        }
        let t = engine.catalog().read().resolve_table("t").unwrap();
        let tables: Vec<(String, TableId)> = virtual_tables(&engine)
            .iter()
            .map(|v| (v.name.to_string(), v.id))
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        (t, tables)
    };
    for config in configurations() {
        let first = ids(config.clone(), true);
        assert_eq!(first.0, TableId(1));
        assert_eq!(ids(config, false), first);
    }
}

#[test]
fn attaching_leaves_cached_plans_alone() {
    let dir = socket_dir();
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let s = engine.open_session();
    s.execute("create table t (a int not null primary key)")
        .unwrap();
    let point = s.prepare("select a from t where a = $1").unwrap();
    point.execute(&[Value::Int(1)]).unwrap();
    let invalidations = || {
        let r = s
            .execute("select invalidations from ima$plan_cache")
            .unwrap();
        r.rows[0].get(0).as_int()
    };
    let (epoch, before) = (engine.catalog().read().epoch(), invalidations());
    let (_daemon, _server) = attach(&engine, &dir);
    point.execute(&[Value::Int(1)]).unwrap();
    assert_eq!(engine.catalog().read().epoch(), epoch);
    assert_eq!(invalidations(), before);
    std::fs::remove_dir_all(&dir).ok();
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
