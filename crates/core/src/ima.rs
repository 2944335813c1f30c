//! The IMA layer: monitor ring buffers registered as virtual SQL tables.
//!
//! "Each class of IMA objects can be registered as a virtual table in an
//! Ingres database which then offers the data over any supported SQL
//! interface. Because IMA objects reside only in main memory, there is no
//! disk access required to store or read the data." (§IV-A)
//!
//! The providers below capture an `Arc<Monitor>`; scanning `ima$workload`
//! copies its lock-free ring, the other tables cost one snapshot under the
//! monitor lock, and none does I/O.

use std::sync::Arc;

use ingot_catalog::Catalog;
use ingot_common::waits::{WaitRegistry, WaitTotal};
use ingot_common::{Column, DataType, Result, Row, Schema, Value};
use ingot_planner::PlanCache;
use ingot_storage::Wal;
use ingot_trace::Tracer;
use ingot_txn::{AbortCause, LockManager, LockMode, Resource, TxnManager};

use crate::ash::{AshSample, AshSampler};
use crate::engine::SessionCounters;
use crate::monitor::records::{
    v_int, AttributeUsage, IndexUsage, Record, ReferenceRecord, StatSample, StatementInfo,
    TableUsage, WorkloadRecord,
};
use crate::monitor::Monitor;

/// Register `name` as a virtual table of `R` records: the record's schema
/// over whatever `rows` snapshots at scan time.
fn register<R: Record>(
    catalog: &mut Catalog,
    name: &str,
    rows: impl Fn() -> Vec<R> + Send + Sync + 'static,
) -> Result<()> {
    let provider = move || rows().into_iter().map(|r| Row::new(r.encode())).collect();
    catalog.register_virtual_table(name, R::schema(), Arc::new(provider))?;
    Ok(())
}

/// Register the seven Fig 3 `ima$…` virtual tables for `monitor` into
/// `catalog`.
pub fn register_ima_tables(catalog: &mut Catalog, monitor: &Arc<Monitor>) -> Result<()> {
    let m = Arc::clone(monitor);
    register(catalog, StatementInfo::IMA, move || m.statements())?;
    let m = Arc::clone(monitor);
    register(catalog, WorkloadRecord::IMA, move || m.workload())?;
    let m = Arc::clone(monitor);
    register(catalog, ReferenceRecord::IMA, move || m.references())?;
    let m = Arc::clone(monitor);
    register(catalog, TableUsage::IMA, move || m.tables())?;
    let m = Arc::clone(monitor);
    register(catalog, IndexUsage::IMA, move || m.indexes())?;
    let m = Arc::clone(monitor);
    register(catalog, AttributeUsage::IMA, move || m.attributes())?;
    let m = Arc::clone(monitor);
    register(catalog, StatSample::IMA, move || m.statistics())
}

/// Register `ima$monitor_health`: a single-row self-observation of the
/// observers themselves (the "who watches the watchers" table, mirroring
/// `ima$daemon_health` for the in-process side): the monitor's self-cost and
/// ring state, the tracer's trace ring, and — NULL when the wait subsystem
/// is off — the ASH sampler's tick and ring counters.
pub(crate) fn register_monitor_health_table(
    catalog: &mut Catalog,
    monitor: &Arc<Monitor>,
    tracer: &Arc<Tracer>,
    sampler: Option<&Arc<AshSampler>>,
) -> Result<()> {
    let m = Arc::clone(monitor);
    let t = Arc::clone(tracer);
    let ash = sampler.cloned();
    catalog.register_virtual_table(
        "ima$monitor_health",
        Schema::new(vec![
            Column::not_null("self_time_ns", DataType::Int),
            Column::new("sensor_calls", DataType::Int),
            Column::new("statements_recorded", DataType::Int),
            Column::new("statements_len", DataType::Int),
            Column::new("statements_capacity", DataType::Int),
            Column::new("statement_evictions", DataType::Int),
            Column::new("workload_len", DataType::Int),
            Column::new("workload_capacity", DataType::Int),
            Column::new("workload_wrapped", DataType::Int),
            Column::new("references_len", DataType::Int),
            Column::new("references_capacity", DataType::Int),
            Column::new("references_wrapped", DataType::Int),
            Column::new("statistics_len", DataType::Int),
            Column::new("statistics_capacity", DataType::Int),
            Column::new("statistics_wrapped", DataType::Int),
            Column::new("ash_samples_taken", DataType::Int),
            Column::new("ash_wrapped", DataType::Int),
            Column::new("trace_wrapped", DataType::Int),
            Column::new("workload_lapped", DataType::Int),
            Column::new("first_sight_locks", DataType::Int),
        ]),
        Arc::new(move || {
            let h = m.health();
            vec![Row::new(vec![
                v_int(h.self_time_ns),
                v_int(h.sensor_calls),
                v_int(h.statements_recorded),
                v_int(h.statements_len as u64),
                v_int(h.statements_capacity as u64),
                v_int(h.statement_evictions),
                v_int(h.workload_len as u64),
                v_int(h.workload_capacity as u64),
                v_int(h.workload_total.saturating_sub(h.workload_len as u64)),
                v_int(h.references_len as u64),
                v_int(h.references_capacity as u64),
                v_int(h.references_total.saturating_sub(h.references_len as u64)),
                v_int(h.statistics_len as u64),
                v_int(h.statistics_capacity as u64),
                v_int(h.statistics_total.saturating_sub(h.statistics_len as u64)),
                ash.as_ref()
                    .map_or(Value::Null, |a| v_int(a.samples_taken())),
                // The ring never shrinks, so it holds min(total, capacity).
                ash.as_ref().map_or(Value::Null, |a| {
                    v_int(a.total_recorded().saturating_sub(a.ring_capacity() as u64))
                }),
                v_int(t.traces_wrapped()),
                v_int(h.workload_lapped),
                v_int(h.first_sight_locks),
            ])]
        }),
    )?;
    Ok(())
}

/// Register the tracing exports: `ima$operator_stats` (per-statement,
/// per-plan-operator aggregates from the span layer) and
/// `ima$latency_histograms` (log2-bucketed wall-clock latency per statement
/// hash, with cumulative counts so quantiles are derivable in SQL).
pub(crate) fn register_trace_tables(catalog: &mut Catalog, tracer: &Arc<Tracer>) -> Result<()> {
    let t = Arc::clone(tracer);
    catalog.register_virtual_table(
        "ima$operator_stats",
        Schema::new(vec![
            Column::not_null("hash", DataType::Str),
            Column::new("op_id", DataType::Int),
            Column::new("parent_id", DataType::Int),
            Column::new("depth", DataType::Int),
            Column::new("op", DataType::Str),
            Column::new("detail", DataType::Str),
            Column::new("executions", DataType::Int),
            Column::new("rows_in", DataType::Int),
            Column::new("rows_out", DataType::Int),
            Column::new("tuples", DataType::Int),
            Column::new("pages", DataType::Int),
            Column::new("elapsed_ns", DataType::Int),
            Column::new("est_rows", DataType::Float),
            Column::new("est_cost", DataType::Float),
        ]),
        Arc::new(move || {
            t.operator_stats()
                .into_iter()
                .map(|(hash, o)| {
                    Row::new(vec![
                        Value::Str(hash.to_string()),
                        v_int(u64::from(o.op_id)),
                        Value::Int(o.parent.map_or(-1, i64::from)),
                        v_int(u64::from(o.depth)),
                        Value::Str(o.op),
                        Value::Str(o.detail),
                        v_int(o.executions),
                        v_int(o.rows_in),
                        v_int(o.rows_out),
                        v_int(o.tuples),
                        v_int(o.pages),
                        v_int(o.elapsed_ns),
                        Value::Float(o.est_rows),
                        Value::Float(o.est_cost),
                    ])
                })
                .collect()
        }),
    )?;

    let t = Arc::clone(tracer);
    catalog.register_virtual_table(
        "ima$latency_histograms",
        Schema::new(vec![
            Column::not_null("hash", DataType::Str),
            Column::new("bucket", DataType::Int),
            Column::new("lo_ns", DataType::Int),
            Column::new("hi_ns", DataType::Int),
            Column::new("count", DataType::Int),
            Column::new("cum_count", DataType::Int),
        ]),
        Arc::new(move || {
            let mut rows = Vec::new();
            for (hash, hist) in t.histograms() {
                for (bucket, lo, hi, count, cum) in hist.rows() {
                    rows.push(Row::new(vec![
                        Value::Str(hash.to_string()),
                        v_int(bucket as u64),
                        v_int(lo),
                        v_int(hi),
                        v_int(count),
                        v_int(cum),
                    ]));
                }
            }
            rows
        }),
    )?;
    Ok(())
}

/// Register `ima$plan_cache`: a single-row counter snapshot of the shared
/// plan cache (hit/miss/eviction/invalidation totals plus live entry count
/// and capacity), so cache effectiveness is observable over plain SQL like
/// every other IMA object.
pub(crate) fn register_plan_cache_table(
    catalog: &mut Catalog,
    cache: &Arc<PlanCache>,
) -> Result<()> {
    let c = Arc::clone(cache);
    catalog.register_virtual_table(
        "ima$plan_cache",
        Schema::new(vec![
            Column::not_null("hits", DataType::Int),
            Column::new("misses", DataType::Int),
            Column::new("evictions", DataType::Int),
            Column::new("invalidations", DataType::Int),
            Column::new("entries", DataType::Int),
            Column::new("capacity", DataType::Int),
        ]),
        Arc::new(move || {
            let s = c.stats();
            vec![Row::new(vec![
                v_int(s.hits),
                v_int(s.misses),
                v_int(s.evictions),
                v_int(s.invalidations),
                v_int(s.entries),
                v_int(s.capacity),
            ])]
        }),
    )?;
    Ok(())
}

/// Register `ima$wal`: a single-row snapshot of the write-ahead log — LSN
/// watermarks (appended / durable / truncation low-water), append and fsync
/// totals, group-commit batching effectiveness, and the salvage/replay
/// tallies of the last crash recovery. Reads atomics plus one short-lived
/// internal mutex; querying it never touches the log file.
pub fn register_wal_table(catalog: &mut Catalog, wal: &Arc<Wal>) -> Result<()> {
    let w = Arc::clone(wal);
    catalog.register_virtual_table(
        "ima$wal",
        Schema::new(vec![
            Column::not_null("fsync_mode", DataType::Str),
            Column::new("current_lsn", DataType::Int),
            Column::new("durable_lsn", DataType::Int),
            Column::new("low_water_lsn", DataType::Int),
            Column::new("appends", DataType::Int),
            Column::new("bytes_written", DataType::Int),
            Column::new("fsyncs", DataType::Int),
            Column::new("truncations", DataType::Int),
            Column::new("groups", DataType::Int),
            Column::new("grouped_commits", DataType::Int),
            Column::new("max_group", DataType::Int),
            Column::new("recovered_records", DataType::Int),
            Column::new("replayed_records", DataType::Int),
            Column::new("replayed_txns", DataType::Int),
            Column::new("discarded_bytes", DataType::Int),
        ]),
        Arc::new(move || {
            let s = w.stats();
            vec![Row::new(vec![
                Value::Str(w.mode().to_string()),
                v_int(s.current_lsn),
                v_int(s.durable_lsn),
                v_int(s.low_water_lsn),
                v_int(s.appends),
                v_int(s.bytes_written),
                v_int(s.fsyncs),
                v_int(s.truncations),
                v_int(s.groups),
                v_int(s.grouped_commits),
                v_int(s.max_group),
                v_int(s.recovered_records),
                v_int(s.replayed_records),
                v_int(s.replayed_txns),
                v_int(s.discarded_bytes),
            ])]
        }),
    )?;
    Ok(())
}

/// Register the concurrency exports: `ima$locks` (one row per granted or
/// queued lock request, live from the lock manager), `ima$sessions` (a
/// single row of session/transaction/lock counters) and `ima$transactions`
/// (the MVCC authority: commit sequence, active snapshots, abort taxonomy,
/// first-committer-wins validation failures and version-chain GC counters).
/// All read atomics or a short-lived internal mutex — a query over them
/// never takes table locks, so lock contention itself is observable *during*
/// the contention, which is the paper's lock-monitoring scenario.
pub(crate) fn register_concurrency_tables(
    catalog: &mut Catalog,
    locks: &Arc<LockManager>,
    txns: &Arc<TxnManager>,
    sessions: &Arc<SessionCounters>,
) -> Result<()> {
    // ima$locks
    let l = Arc::clone(locks);
    catalog.register_virtual_table(
        "ima$locks",
        Schema::new(vec![
            Column::not_null("txn", DataType::Int),
            Column::not_null("table_id", DataType::Int),
            Column::new("row_id", DataType::Int),
            Column::new("mode", DataType::Str),
            Column::new("state", DataType::Str),
        ]),
        Arc::new(move || {
            l.snapshot_locks()
                .into_iter()
                .map(|i| {
                    let (table, row) = match i.resource {
                        Resource::Table(t) => (t, Value::Null),
                        Resource::Row(t, r) => (t, Value::Int(r as i64)),
                    };
                    Row::new(vec![
                        Value::Int(i.txn.raw() as i64),
                        v_int(u64::from(table.raw())),
                        row,
                        Value::Str(
                            match i.mode {
                                LockMode::Shared => "S",
                                LockMode::Exclusive => "X",
                            }
                            .to_owned(),
                        ),
                        Value::Str(if i.granted { "granted" } else { "waiting" }.to_owned()),
                    ])
                })
                .collect()
        }),
    )?;

    // ima$sessions
    let l = Arc::clone(locks);
    let t = Arc::clone(txns);
    let s = Arc::clone(sessions);
    catalog.register_virtual_table(
        "ima$sessions",
        Schema::new(vec![
            Column::not_null("current_sessions", DataType::Int),
            Column::new("peak_sessions", DataType::Int),
            Column::new("active_txns", DataType::Int),
            Column::new("locks_held", DataType::Int),
            Column::new("lock_waiting", DataType::Int),
            Column::new("lock_waits_total", DataType::Int),
            Column::new("deadlocks_total", DataType::Int),
            Column::new("locks_granted_total", DataType::Int),
        ]),
        Arc::new(move || {
            let ls = l.stats();
            vec![Row::new(vec![
                v_int(s.current()),
                v_int(s.peak()),
                v_int(t.active_count()),
                v_int(ls.held),
                v_int(ls.waiting),
                v_int(ls.waits_total),
                v_int(ls.deadlocks_total),
                v_int(ls.granted_total),
            ])]
        }),
    )?;

    // ima$transactions: metric/value rows, plus one `snapshot_ts` row per
    // active snapshot (its `txn` column names the holder). Chain-shape rows
    // (`chain_*`) refresh on each GC sweep.
    let t = Arc::clone(txns);
    catalog.register_virtual_table(
        "ima$transactions",
        Schema::new(vec![
            Column::not_null("metric", DataType::Str),
            Column::new("txn", DataType::Int),
            Column::new("value", DataType::Int),
        ]),
        Arc::new(move || {
            let mut rows = Vec::new();
            let mut push = |metric: &str, v: u64| {
                rows.push(Row::new(vec![
                    Value::Str(metric.to_owned()),
                    Value::Null,
                    v_int(v),
                ]));
            };
            push("commit_seq", t.read_ts());
            push("active_txns", t.active_count());
            let mut snaps = t.active_snapshots();
            push("active_snapshots", snaps.len() as u64);
            push("gc_watermark", t.gc_watermark());
            push("committed_total", t.committed_count());
            push("aborted_total", t.aborted_count());
            for cause in AbortCause::ALL {
                push(
                    &format!("aborts_{}", cause.name()),
                    t.aborts_by_cause(cause),
                );
            }
            push("validation_failures", t.validation_failures());
            push("undo_failures", t.undo_failures());
            push("gc_runs", t.gc_runs());
            push("gc_versions_removed", t.gc_versions_removed());
            push("gc_last_watermark", t.gc_last_watermark());
            let (versions, chains, longest) = t.chain_shape();
            push("chain_versions", versions);
            push("chain_count", chains);
            push("chain_longest", longest);
            snaps.sort_unstable();
            for (txn, ts) in snaps {
                rows.push(Row::new(vec![
                    Value::Str("snapshot_ts".to_owned()),
                    v_int(txn),
                    v_int(ts),
                ]));
            }
            rows
        }),
    )?;
    Ok(())
}

/// Register the wait-event + ASH virtual tables: `ima$wait_events`
/// (cumulative counts/ns per event, always all taxonomy rows),
/// `ima$active_sessions` (live: every session currently mid-statement with
/// its wait state computed at read time) and `ima$ash` (the bounded sample
/// history ring).
pub(crate) fn register_wait_tables(
    catalog: &mut Catalog,
    registry: &Arc<WaitRegistry>,
    sampler: &Arc<AshSampler>,
) -> Result<()> {
    let r = Arc::clone(registry);
    register(catalog, WaitTotal::IMA, move || r.snapshot())?;
    let s = Arc::clone(sampler);
    register(catalog, "ima$active_sessions", move || s.active_snapshot())?;
    let s = Arc::clone(sampler);
    register(catalog, AshSample::IMA, move || s.history())
}

/// Name of the storage-daemon health table (registered only while a daemon
/// is attached to the engine — see [`register_daemon_health_table`]).
pub const IMA_DAEMON_HEALTH: &str = "ima$daemon_health";

/// Register `ima$daemon_health` backed by `provider` (one row per snapshot
/// of the daemon's health-state machine). The schema is defined here so all
/// IMA shapes live in one place; the storage daemon supplies the provider
/// because the counters are its own. Provider rows must match:
/// `state` (text), `polls`, `failed_polls`, `consecutive_failures`,
/// `retries`, `buffered_snapshots`, `recovered_snapshots`,
/// `dropped_snapshots` (int), `degraded_since_secs` (int, -1 when healthy)
/// and `last_error` (text).
pub fn register_daemon_health_table(
    catalog: &mut Catalog,
    provider: ingot_catalog::VirtualProvider,
) -> Result<()> {
    catalog.register_virtual_table(IMA_DAEMON_HEALTH, daemon_health_schema(), provider)?;
    Ok(())
}

/// The `ima$daemon_health` row shape.
pub fn daemon_health_schema() -> Schema {
    Schema::new(vec![
        Column::not_null("state", DataType::Str),
        Column::new("polls", DataType::Int),
        Column::new("failed_polls", DataType::Int),
        Column::new("consecutive_failures", DataType::Int),
        Column::new("retries", DataType::Int),
        Column::new("buffered_snapshots", DataType::Int),
        Column::new("recovered_snapshots", DataType::Int),
        Column::new("dropped_snapshots", DataType::Int),
        Column::new("degraded_since_secs", DataType::Int),
        Column::new("last_error", DataType::Str),
    ])
}

/// Name of the wire-connection fleet table (registered on the first
/// [`Engine::attach_connections_provider`][crate::Engine::attach_connections_provider]
/// — i.e. only once a server starts serving this engine over a socket).
pub const IMA_CONNECTIONS: &str = "ima$connections";

/// Register `ima$connections` backed by `provider` (one row per live wire
/// connection). The schema is defined here so all IMA shapes live in one
/// place; `ingot-server` supplies the provider because the registry is its
/// own. Provider rows must match: `session` (int), `peer` (text), `client`
/// (text), `state` (text: `idle` / `active` / `idle_in_txn` / `draining`),
/// `statement` (text, null when idle), `wait_event` (text, null when not
/// waiting), `idle_ms` (int), `txn_age_ms` (int, -1 outside a transaction).
pub(crate) fn register_connections_table(
    catalog: &mut Catalog,
    provider: ingot_catalog::VirtualProvider,
) -> Result<()> {
    catalog.register_virtual_table(IMA_CONNECTIONS, connections_schema(), provider)?;
    Ok(())
}

/// The `ima$connections` row shape.
pub fn connections_schema() -> Schema {
    Schema::new(vec![
        Column::not_null("session", DataType::Int),
        Column::not_null("peer", DataType::Str),
        Column::new("client", DataType::Str),
        Column::not_null("state", DataType::Str),
        Column::new("statement", DataType::Str),
        Column::new("wait_event", DataType::Str),
        Column::new("idle_ms", DataType::Int),
        Column::new("txn_age_ms", DataType::Int),
    ])
}

/// One [`Record`]'s names and schema as plain data, for code that walks
/// every copied table without naming the record types.
pub struct TableShape {
    /// The live `ima$…` table.
    pub ima: &'static str,
    /// Its `wl_…` copy in the workload database: the same columns plus `ts`.
    pub wl: &'static str,
    /// The columns both share.
    pub schema: fn() -> Schema,
}

const fn shape<R: Record>() -> TableShape {
    TableShape {
        ima: R::IMA,
        wl: R::WL,
        schema: R::schema,
    }
}

/// The tables the storage daemon copies into the workload database.
pub const COPIED_TABLES: [TableShape; 9] = [
    shape::<StatementInfo>(),
    shape::<WorkloadRecord>(),
    shape::<ReferenceRecord>(),
    shape::<TableUsage>(),
    shape::<IndexUsage>(),
    shape::<AttributeUsage>(),
    shape::<StatSample>(),
    shape::<WaitTotal>(),
    shape::<AshSample>(),
];

/// The names of all IMA virtual tables, in registration order, under the
/// *full* monitoring configuration (`monitor_enabled` plus
/// `wait_events_enabled`). This is the superset used for documentation and
/// completeness checks; an engine with waits disabled skips the three wait
/// tables — use [`ima_table_names`] for the set a given configuration
/// actually registers. (`ima$daemon_health` is registered separately, only
/// while a storage daemon is attached, and `ima$connections` only once a
/// server attaches a fleet provider.)
pub const IMA_TABLE_NAMES: &[&str] = &[
    "ima$statements",
    "ima$workload",
    "ima$references",
    "ima$tables",
    "ima$indexes",
    "ima$attributes",
    "ima$statistics",
    "ima$monitor_health",
    "ima$plan_cache",
    "ima$locks",
    "ima$sessions",
    "ima$transactions",
    "ima$wait_events",
    "ima$active_sessions",
    "ima$ash",
    "ima$wal",
    "ima$operator_stats",
    "ima$latency_histograms",
];

/// The wait-subsystem subset of [`IMA_TABLE_NAMES`] — present only when
/// `wait_events_enabled` is on (see [`register_wait_tables`]).
pub const IMA_WAIT_TABLE_NAMES: &[&str] = &["ima$wait_events", "ima$active_sessions", "ima$ash"];

/// The IMA tables an engine built from `config` actually registers, in
/// registration order: empty when monitoring is off, and without the
/// [`IMA_WAIT_TABLE_NAMES`] subset when `wait_events_enabled` is off.
pub fn ima_table_names(config: &ingot_common::EngineConfig) -> Vec<&'static str> {
    if !config.monitor_enabled {
        return Vec::new();
    }
    IMA_TABLE_NAMES
        .iter()
        .copied()
        .filter(|name| config.wait_events_enabled || !IMA_WAIT_TABLE_NAMES.contains(name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_common::EngineConfig;

    #[test]
    fn table_names_follow_config() {
        let full = EngineConfig::monitoring();
        assert_eq!(ima_table_names(&full), IMA_TABLE_NAMES);

        let no_waits = EngineConfig {
            wait_events_enabled: false,
            ..EngineConfig::monitoring()
        };
        let names = ima_table_names(&no_waits);
        assert_eq!(
            names.len(),
            IMA_TABLE_NAMES.len() - IMA_WAIT_TABLE_NAMES.len()
        );
        for wait_table in IMA_WAIT_TABLE_NAMES {
            assert!(IMA_TABLE_NAMES.contains(wait_table));
            assert!(!names.contains(wait_table));
        }

        assert!(ima_table_names(&EngineConfig::original()).is_empty());
    }

    /// `decode` inverts `encode`, and every value is of its column's type.
    fn round_trip<R: Record + Clone>(records: Vec<R>) {
        assert!(!records.is_empty(), "{} needs a row to test", R::IMA);
        for record in records {
            let row = record.encode();
            let types: Vec<_> = row.iter().map(|v| v.data_type()).collect();
            let declared: Vec<_> = R::COLUMNS.iter().map(|&(_, ty)| Some(ty)).collect();
            assert_eq!(types, declared, "{}", R::IMA);
            let mut cells = row.iter();
            let back = R::decode(&mut cells).expect(R::IMA);
            assert!(cells.next().is_none(), "{} decode left a cell", R::IMA);
            assert_eq!(back.encode(), row, "{}", R::IMA);
        }
    }

    #[test]
    fn records_round_trip_through_their_definition() {
        let engine = crate::Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let s = engine.open_session();
        s.execute("create table t (a int, b int)").unwrap();
        s.execute("create index t_b on t (b)").unwrap();
        let rows: Vec<String> = (0..2000).map(|i| format!("({i}, {i})")).collect();
        s.execute(&format!("insert into t values {}", rows.join(", ")))
            .unwrap();
        s.execute("create statistics on t").unwrap();
        s.execute("select a from t where b = 55").unwrap();
        engine.sample_statistics();
        let sampler = engine.ash_sampler().unwrap();
        let slot = sampler.register_session(99);
        slot.begin_statement(ingot_common::StmtHash::of("q"), &"q".into(), 0);
        sampler.sample_now(2);

        let m = engine.monitor().unwrap();
        round_trip(m.statements());
        round_trip(m.workload());
        round_trip(m.references());
        round_trip(m.tables());
        round_trip(m.indexes());
        round_trip(m.attributes());
        round_trip(m.statistics());
        round_trip(engine.wait_registry().unwrap().snapshot());
        round_trip(sampler.history());
    }
}
