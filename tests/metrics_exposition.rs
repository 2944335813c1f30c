//! The Prometheus exposition is valid and complete on every setup: the
//! Original, Monitoring and Tracing engines and a bound wire server.
//!
//! Every sample name is a legal Prometheus name; no two samples share a
//! name and label set; every numeric cell of every `ima$` record the
//! snapshot renders appears exactly once, as `ingot_<table>_<column>`
//! labelled by the row's text cells, read off the table's own provider;
//! and `flatten()` (the daemon's `wl_metrics` rows) is the rendered text
//! parsed back.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ingot::prelude::*;

/// One sample's identity: its name (with any histogram suffix) and its
/// label text as `flatten` writes it.
type Key = (String, String);

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn exercise(s: &Session) {
    s.execute("create table t (a int not null primary key, b int, c text)")
        .unwrap();
    for i in 0..20 {
        s.execute(&format!("insert into t values ({i}, {}, 'row {i}')", i % 4))
            .unwrap();
    }
    s.execute("select c from t where a = 7").unwrap();
    s.execute("select b, count(*) from t group by b").unwrap();
    s.begin().unwrap();
    s.execute("update t set c = 'gone' where a = 3").unwrap();
    s.rollback().unwrap();
}

fn engine(config: EngineConfig) -> Arc<Engine> {
    let engine = Engine::builder().config(config).build().unwrap();
    exercise(&engine.open_session());
    engine.sample_statistics();
    engine
}

/// The samples of a rendered exposition, each `(name, labels, value)`.
fn parse(text: &str) -> Vec<(String, String, f64)> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let (series, value) = line.rsplit_once(' ').expect(line);
            let (name, labels) = match series.split_once('{') {
                Some((name, rest)) => (name, rest.strip_suffix('}').expect(line)),
                None => (series, ""),
            };
            (name.into(), labels.into(), value.parse().expect(line))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// What the `ima$` providers of `engine` say `tables` render to: each
/// non-NULL numeric cell keyed by `ingot_<table>_<column>` and its row's
/// text cells, with its value. The per-snapshot `snapshot_ts` rows of
/// `ima$transactions` are not rendered.
fn from_providers(engine: &Engine, tables: &BTreeSet<String>) -> BTreeMap<Key, Vec<Value>> {
    let catalog = engine.catalog().read();
    let mut cells: BTreeMap<Key, Vec<Value>> = BTreeMap::new();
    for table in tables {
        let def = catalog
            .virtual_tables()
            .find(|t| &*t.name == table)
            .unwrap_or_else(|| panic!("{table} is not registered"));
        let short = table.strip_prefix("ima$").unwrap();
        let columns = def.schema.columns();
        for row in (def.provider)() {
            if table == "ima$transactions" && row.get(0).as_str() == Some("snapshot_ts") {
                continue;
            }
            let labels = columns
                .iter()
                .zip(row.values())
                .filter_map(|(c, v)| Some(format!("{}=\"{}\"", c.name, v.as_str()?)))
                .collect::<Vec<_>>()
                .join(",");
            for (c, v) in columns.iter().zip(row.values()) {
                if matches!(v, Value::Int(_) | Value::Float(_) | Value::Bool(_)) {
                    let key = (format!("ingot_{short}_{}", c.name), labels.clone());
                    cells.entry(key).or_default().push(v.clone());
                }
            }
        }
    }
    cells
}

fn numeric(v: &Value) -> f64 {
    match *v {
        Value::Int(n) => n as f64,
        Value::Float(f) => f,
        Value::Bool(b) => f64::from(u8::from(b)),
        _ => unreachable!("{v:?} is not numeric"),
    }
}

/// Check `snap` against the providers of `reference`, expecting exactly
/// `tables` rendered from records. With `same_engine` the snapshot was
/// taken from `reference` with nothing running in between, so each value
/// must match its cell too — except `ima$statistics`, rendered from a
/// live sample where the table serves its ring.
fn check(
    setup: &str,
    snap: &MetricsSnapshot,
    reference: &Engine,
    tables: &[&str],
    same_engine: bool,
) {
    let text = snap.render_prometheus();
    let samples = parse(&text);

    // Valid names, and every sample unique.
    let mut seen = BTreeSet::new();
    for (name, labels, _) in &samples {
        assert!(valid_name(name), "{setup}: bad sample name {name}");
        assert!(
            seen.insert((name.clone(), labels.clone())),
            "{setup}: {name}{{{labels}}} appears twice"
        );
    }

    // flatten() is the exposition parsed back.
    assert_eq!(snap.flatten(), samples, "{setup}");

    // Each record family names its table and column: which tables render?
    let mut rendered = BTreeSet::new();
    let mut of_records: BTreeMap<Key, f64> = BTreeMap::new();
    for fam in &snap.families {
        if fam.name == "ingot_statement_latency_ns" {
            assert!(text.contains("# TYPE ingot_statement_latency_ns histogram\n"));
            continue;
        }
        let (table, column) = fam.help.split_once('.').expect(&fam.help);
        let short = table.strip_prefix("ima$").expect(table);
        assert_eq!(fam.name, format!("ingot_{short}_{column}"), "{setup}");
        assert!(
            text.contains(&format!("# TYPE {} untyped\n", fam.name)),
            "{setup}: {}",
            fam.name
        );
        rendered.insert(table.to_owned());
        for s in &fam.samples {
            let labels = s
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect::<Vec<_>>()
                .join(",");
            of_records.insert((fam.name.clone(), labels), s.value);
        }
    }
    let expected_tables: BTreeSet<String> = tables.iter().map(|t| t.to_string()).collect();
    assert_eq!(rendered, expected_tables, "{setup}: rendered tables");

    // Every numeric cell exactly once: the rendered keys are the providers'.
    let cells = from_providers(reference, &expected_tables);
    let expected_keys: BTreeSet<&Key> = cells.keys().collect();
    let rendered_keys: BTreeSet<&Key> = of_records.keys().collect();
    assert_eq!(rendered_keys, expected_keys, "{setup}: sample set");
    if same_engine {
        for (key, values) in &cells {
            if key.0.starts_with("ingot_statistics_") {
                continue;
            }
            assert_eq!(values.len(), 1, "{setup}: {key:?} served twice");
            assert_eq!(of_records[key], numeric(&values[0]), "{setup}: {key:?}");
        }
    }
}

const ENGINE_TABLES: &[&str] = &[
    "ima$statistics",
    "ima$transactions",
    "ima$plan_cache",
    "ima$wal",
];

const MONITORED_TABLES: &[&str] = &[
    "ima$statistics",
    "ima$transactions",
    "ima$plan_cache",
    "ima$wal",
    "ima$wait_events",
    "ima$monitor_health",
];

#[test]
fn exposition_is_valid_and_complete_on_every_setup() {
    let monitored = engine(EngineConfig::monitoring());
    // An open snapshot: `ima$transactions` serves a `snapshot_ts` row for
    // it, which the exposition leaves out.
    let holder = monitored.open_session();
    holder.begin().unwrap();
    holder.execute("select count(*) from t").unwrap();
    assert!(!monitored.txns().active_snapshots().is_empty());
    check(
        "monitoring",
        &monitored.metrics_snapshot(),
        &monitored,
        MONITORED_TABLES,
        true,
    );
    holder.rollback().unwrap();

    let traced = engine(EngineConfig::tracing());
    let snap = traced.metrics_snapshot();
    assert!(snap
        .families
        .iter()
        .any(|f| f.name == "ingot_statement_latency_ns"));
    check("tracing", &snap, &traced, MONITORED_TABLES, true);

    // The Original engine registers no `ima$` table: its records are read
    // against a monitored engine's, which have the same rows and labels.
    let original = engine(EngineConfig::original());
    check(
        "original",
        &original.metrics_snapshot(),
        &monitored,
        ENGINE_TABLES,
        false,
    );

    // A bound server appends its `ima$server` row. It is not running, so
    // nothing moves between the snapshot and the provider reads.
    let dir = std::env::temp_dir().join(format!(
        "ingot-metrics-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let served = engine(EngineConfig::monitoring());
    let spec = SocketSpec::Unix(dir.join("srv.sock"));
    let server = Server::bind(Arc::clone(&served), ServerConfig::new(spec)).unwrap();
    server.stats().frames_in.fetch_add(3, Ordering::Relaxed);
    let mut with_server = MONITORED_TABLES.to_vec();
    with_server.push("ima$server");
    let snap = server.metrics_snapshot();
    check("server", &snap, &served, &with_server, true);
    assert!(snap
        .render_prometheus()
        .contains("\ningot_server_frames_in 3\n"));

    // Bound on an Original engine the server still renders its row.
    let bare = Server::bind(
        engine(EngineConfig::original()),
        ServerConfig::new(SocketSpec::Unix(dir.join("bare.sock"))),
    )
    .unwrap();
    let mut with_server = ENGINE_TABLES.to_vec();
    with_server.push("ima$server");
    check(
        "original server",
        &bare.metrics_snapshot(),
        &served,
        &with_server,
        false,
    );
    drop((server, bare));
    std::fs::remove_dir_all(&dir).ok();
}
