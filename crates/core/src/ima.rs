//! The IMA layer: monitor ring buffers registered as virtual SQL tables.
//!
//! "Each class of IMA objects can be registered as a virtual table in an
//! Ingres database which then offers the data over any supported SQL
//! interface. Because IMA objects reside only in main memory, there is no
//! disk access required to store or read the data." (§IV-A)
//!
//! Every table is a [`Record`], its columns listed once beside the source
//! they read: the nine the storage daemon copies are defined with their
//! records in `monitor::records` and `ash.rs` (`ima$active_sessions` serves
//! `ima$ash`'s record live), the other eleven below. The engine builder
//! serves eighteen over the subsystems it wires; [`Engine::attach`][crate::Engine::attach]
//! serves the three filled outside the engine. Scanning `ima$workload` copies
//! its lock-free ring, the monitor's other tables cost one snapshot under
//! its lock, and none does I/O.
//!
//! The same records are the engine's only other way out: [`export`] renders
//! them as Prometheus families for `Engine::metrics_snapshot`, so a counter
//! is named once, as a column.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ingot_catalog::{Catalog, VirtualProvider};
use ingot_common::waits::WaitTotal;
use ingot_common::{Result, Row, Schema, StmtHash, Value, WalFsyncMode};
use ingot_planner::PlanCacheStats;
use ingot_storage::WalStats;
use ingot_trace::{MetricKind, MetricsSnapshot, OperatorStats, Sample, ServerStats, Tracer};
use ingot_txn::{LockInfo, LockMode, LockStats, Resource};

use crate::ash::{AshSample, AshSampler};
use crate::monitor::records::{
    record, v_int, AttributeUsage, Copied, IndexUsage, Record, ReferenceRecord, StatSample,
    StatementInfo, TableUsage, WorkloadRecord,
};
use crate::monitor::{Monitor, MonitorHealth};

/// `rows` as a catalog row source: each record encoded at scan time.
pub(crate) fn provider<R: Record>(
    rows: impl Fn() -> Vec<R> + Send + Sync + 'static,
) -> VirtualProvider {
    Arc::new(move || rows().into_iter().map(|r| Row::new(r.encode())).collect())
}

/// Register `R::IMA` as a virtual table: the record's schema over the
/// records `rows` reads off `source` at scan time.
pub(crate) fn serve<S: Send + Sync + 'static, R: Record>(
    catalog: &mut Catalog,
    source: &Arc<S>,
    rows: impl Fn(&S) -> Vec<R> + Send + Sync + 'static,
) -> Result<()> {
    let source = Arc::clone(source);
    catalog.register_virtual_table(R::IMA, R::schema(), provider(move || rows(&source)))?;
    Ok(())
}

/// Append `rows` to `snap` as Prometheus families, one per numeric column
/// that holds a value: `ingot_<table>_<column>`, its `# HELP` the
/// `ima$<table>.<column>` that reads it in SQL. The record does not say
/// whether a column counts or gauges, so every family is untyped. A row's
/// text cells label its samples; a `Bool` samples as 0 or 1.
pub fn export<R: Record>(snap: &mut MetricsSnapshot, rows: Vec<R>) {
    let mut columns: Vec<Vec<Sample>> = vec![Vec::new(); R::COLUMNS.len()];
    for cells in rows.into_iter().map(R::encode) {
        let labels: Vec<(String, String)> = R::COLUMNS
            .iter()
            .zip(&cells)
            .filter_map(|(&(name, ..), cell)| Some((name.to_owned(), cell.as_str()?.to_owned())))
            .collect();
        for (samples, cell) in columns.iter_mut().zip(&cells) {
            let value = match *cell {
                Value::Int(n) => n as f64,
                Value::Float(f) => f,
                Value::Bool(b) => f64::from(u8::from(b)),
                Value::Null | Value::Str(_) => continue,
            };
            samples.push(Sample::labelled(labels.clone(), value));
        }
    }
    let table = R::IMA.trim_start_matches("ima$");
    for (&(column, ..), samples) in R::COLUMNS.iter().zip(columns) {
        if !samples.is_empty() {
            let help = format!("{}.{column}", R::IMA);
            let name = format!("ingot_{table}_{column}");
            snap.push(&name, &help, MetricKind::Untyped, samples);
        }
    }
}

/// The observers watched by `ima$monitor_health`: the monitor's health, the
/// ASH sampler when the wait subsystem is on, and the tracer.
type ObserverHealth = (MonitorHealth, Option<Arc<AshSampler>>, Arc<Tracer>);

/// The one `ima$monitor_health` row of an engine's observers.
pub(crate) fn observer_health(
    monitor: &Monitor,
    ash: &Option<Arc<AshSampler>>,
    tracer: &Arc<Tracer>,
) -> ObserverHealth {
    (monitor.health(), ash.clone(), Arc::clone(tracer))
}

// A single-row self-observation of the observers themselves (the "who
// watches the watchers" table, mirroring `ima$daemon_health` for the
// in-process side): the monitor's self-cost and ring state, the tracer's
// trace ring, and — NULL when the wait subsystem is off — the ASH
// sampler's tick and ring counters.
record!(ObserverHealth, "ima$monitor_health", |(h, ash, t)| {
    "self_time_ns": Int = v_int(h.self_time_ns),
    "sensor_calls": Int = v_int(h.sensor_calls),
    "statements_recorded": Int = v_int(h.statements_recorded),
    "statements_len": Int = v_int(h.statements_len as u64),
    "statements_capacity": Int = v_int(h.statements_capacity as u64),
    "statement_evictions": Int = v_int(h.statement_evictions),
    "workload_len": Int = v_int(h.workload_len as u64),
    "workload_capacity": Int = v_int(h.workload_capacity as u64),
    "workload_wrapped": Int = v_int(h.workload_total.saturating_sub(h.workload_len as u64)),
    "references_len": Int = v_int(h.references_len as u64),
    "references_capacity": Int = v_int(h.references_capacity as u64),
    "references_wrapped": Int = v_int(h.references_total.saturating_sub(h.references_len as u64)),
    "statistics_len": Int = v_int(h.statistics_len as u64),
    "statistics_capacity": Int = v_int(h.statistics_capacity as u64),
    "statistics_wrapped": Int = v_int(h.statistics_total.saturating_sub(h.statistics_len as u64)),
    "ash_samples_taken": Int = ash.as_ref().map_or(Value::Null, |a| v_int(a.samples_taken())),
    // The ring never shrinks, so it holds min(total, capacity).
    "ash_wrapped": Int = ash.as_ref().map_or(Value::Null, |a| {
        v_int(a.total_recorded().saturating_sub(a.ring_capacity() as u64))
    }),
    "trace_wrapped": Int = v_int(t.traces_wrapped()),
    "trace_enabled": Bool = t.enabled(),
    "trace_self_time_ns": Int = v_int(t.self_time_ns()),
    "statements_traced": Int = v_int(t.statements_traced()),
    "workload_lapped": Int = v_int(h.workload_lapped),
    "first_sight_locks": Int = v_int(h.first_sight_locks),
});

// One row per granted or queued lock request, live from the lock manager.
record!(LockInfo, "ima$locks", |i| {
    "txn": Int = v_int(i.txn.raw()),
    "table_id": Int not_null = match i.resource {
        Resource::Table(t) | Resource::Row(t, _) => v_int(t.raw().into()),
    },
    "row_id": Int = match i.resource {
        Resource::Table(_) => Value::Null,
        Resource::Row(_, row) => v_int(row),
    },
    "mode": Str = match i.mode {
        LockMode::Shared => "S",
        LockMode::Exclusive => "X",
    },
    "state": Str = if i.granted { "granted" } else { "waiting" },
});

/// Current and peak sessions, active transactions, then the lock counters.
type SessionCounts = (u64, u64, u64, LockStats);

record!(SessionCounts, "ima$sessions", |(current, peak, active, l)| {
    "current_sessions": Int = v_int(current),
    "peak_sessions": Int = v_int(peak),
    "active_txns": Int = v_int(active),
    "locks_held": Int = v_int(l.held),
    "lock_waiting": Int = v_int(l.waiting),
    "lock_waits_total": Int = v_int(l.waits_total),
    "deadlocks_total": Int = v_int(l.deadlocks_total),
    "locks_granted_total": Int = v_int(l.granted_total),
});

/// A metric of the MVCC authority, the transaction holding a `snapshot_ts`
/// row (`None` on the others), and the value.
type TxnMetric = (String, Option<u64>, u64);

record!(TxnMetric, "ima$transactions", |(metric, txn, value)| {
    "metric": Str = metric,
    "txn": Int = txn.map_or(Value::Null, v_int),
    "value": Int = v_int(value),
});

record!(PlanCacheStats, "ima$plan_cache", |s| {
    "hits": Int = v_int(s.hits),
    "misses": Int = v_int(s.misses),
    "evictions": Int = v_int(s.evictions),
    "invalidations": Int = v_int(s.invalidations),
    "entries": Int = v_int(s.entries),
    "capacity": Int = v_int(s.capacity),
});

// LSN watermarks, append and fsync totals, group-commit batching, and the
// salvage/replay tallies of the last crash recovery.
record!((WalFsyncMode, WalStats), "ima$wal", |(mode, s)| {
    "fsync_mode": Str = mode.to_string(),
    "current_lsn": Int = v_int(s.current_lsn),
    "durable_lsn": Int = v_int(s.durable_lsn),
    "low_water_lsn": Int = v_int(s.low_water_lsn),
    "appends": Int = v_int(s.appends),
    "bytes_written": Int = v_int(s.bytes_written),
    "fsyncs": Int = v_int(s.fsyncs),
    "truncations": Int = v_int(s.truncations),
    "groups": Int = v_int(s.groups),
    "grouped_commits": Int = v_int(s.grouped_commits),
    "max_group": Int = v_int(s.max_group),
    "recovered_records": Int = v_int(s.recovered_records),
    "replayed_records": Int = v_int(s.replayed_records),
    "replayed_txns": Int = v_int(s.replayed_txns),
    "discarded_bytes": Int = v_int(s.discarded_bytes),
});

// Per-statement, per-plan-operator aggregates from the span layer.
record!((StmtHash, OperatorStats), "ima$operator_stats", |(hash, o)| {
    "hash": Str = hash.to_string(),
    "op_id": Int = v_int(o.op_id.into()),
    "parent_id": Int = o.parent.map_or(-1, i64::from),
    "depth": Int = v_int(o.depth.into()),
    "op": Str = o.op,
    "detail": Str = o.detail,
    "executions": Int = v_int(o.executions),
    "rows_in": Int = v_int(o.rows_in),
    "rows_out": Int = v_int(o.rows_out),
    "tuples": Int = v_int(o.tuples),
    "pages": Int = v_int(o.pages),
    "elapsed_ns": Int = v_int(o.elapsed_ns),
    "est_rows": Float = o.est_rows,
    "est_cost": Float = o.est_cost,
});

/// A statement hash and one non-empty log2 bucket of its wall-clock latency
/// histogram, as `LatencyHistogram::rows` gives it: `(bucket, lo_ns, hi_ns,
/// count, cum_count)`, the cumulative count so quantiles are derivable in SQL.
type LatencyBucket = (StmtHash, (usize, u64, u64, u64, u64));

record!(LatencyBucket, "ima$latency_histograms", |(hash, (bucket, lo, hi, count, cum))| {
    "hash": Str = hash.to_string(),
    "bucket": Int = v_int(bucket as u64),
    "lo_ns": Int = v_int(lo),
    "hi_ns": Int = v_int(hi),
    "count": Int = v_int(count),
    "cum_count": Int = v_int(cum),
});

/// `ima$transactions`: the metric rows, then one `snapshot_ts` row per
/// active snapshot. Chain-shape rows (`chain_*`) refresh on each GC sweep.
pub(crate) fn transaction_metrics(t: &ingot_txn::TxnManager) -> Vec<TxnMetric> {
    let mut rows = Vec::new();
    let mut push = |metric: &str, v: u64| rows.push((metric.to_owned(), None, v));
    push("commit_seq", t.read_ts());
    push("active_txns", t.active_count());
    let mut snaps = t.active_snapshots();
    push("active_snapshots", snaps.len() as u64);
    push("gc_watermark", t.gc_watermark());
    push("committed_total", t.committed_count());
    push("aborted_total", t.aborted_count());
    for cause in ingot_txn::AbortCause::ALL {
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
    rows.extend(
        snaps
            .into_iter()
            .map(|(txn, ts)| ("snapshot_ts".to_owned(), Some(txn), ts)),
    );
    rows
}

/// `ima$latency_histograms`: every non-empty bucket of every statement's
/// latency histogram.
pub(crate) fn latency_buckets(t: &Tracer) -> Vec<LatencyBucket> {
    t.histograms()
        .into_iter()
        .flat_map(|(hash, hist)| hist.rows().into_iter().map(move |b| (hash, b)))
        .collect()
}

/// Name of the storage-daemon health table, served while a daemon is
/// attached ([`Engine::attach`][crate::Engine::attach]).
pub const IMA_DAEMON_HEALTH: &str = "ima$daemon_health";

/// One `ima$daemon_health` row: a storage daemon's health-state machine
/// and counters, filled in by the daemon that owns them.
#[derive(Debug, Clone)]
pub struct DaemonHealthRow {
    /// `healthy`, `degraded` or `quarantined`.
    pub state: &'static str,
    pub polls: u64,
    pub failed_polls: u64,
    pub consecutive_failures: u64,
    pub retries: u64,
    pub buffered_snapshots: u64,
    pub recovered_snapshots: u64,
    pub dropped_snapshots: u64,
    /// Sim-clock seconds when the daemon left Healthy; -1 while healthy.
    pub degraded_since_secs: i64,
    /// The most recent error, empty when none.
    pub last_error: String,
}

record!(DaemonHealthRow, IMA_DAEMON_HEALTH, |h| {
    "state": Str = h.state,
    "polls": Int = v_int(h.polls),
    "failed_polls": Int = v_int(h.failed_polls),
    "consecutive_failures": Int = v_int(h.consecutive_failures),
    "retries": Int = v_int(h.retries),
    "buffered_snapshots": Int = v_int(h.buffered_snapshots),
    "recovered_snapshots": Int = v_int(h.recovered_snapshots),
    "dropped_snapshots": Int = v_int(h.dropped_snapshots),
    "degraded_since_secs": Int = h.degraded_since_secs,
    "last_error": Str = h.last_error,
});

/// Name of the wire-connection fleet table, served while a server on a
/// monitored engine is attached ([`Engine::attach`][crate::Engine::attach]).
pub const IMA_CONNECTIONS: &str = "ima$connections";

/// One `ima$connections` row: a live wire connection, filled in by the
/// server whose registry holds it.
#[derive(Debug, Clone)]
pub struct ConnectionRow {
    /// The engine session (0 until the handshake opens it).
    pub session: u64,
    /// Transport peer label.
    pub peer: String,
    /// The client's self-identification, empty before `hello`.
    pub client: String,
    /// `handshake`, `idle`, `active`, `idle_in_txn` or `draining`.
    pub state: &'static str,
    /// The statement executing, `None` when idle.
    pub statement: Option<String>,
    /// The wait event the session is inside, `None` when not waiting.
    pub wait_event: Option<&'static str>,
    /// Milliseconds since the peer's last frame.
    pub idle_ms: u64,
    /// Age of the open explicit transaction; -1 outside one.
    pub txn_age_ms: i64,
}

record!(ConnectionRow, IMA_CONNECTIONS, |c| {
    "session": Int = v_int(c.session),
    "peer": Str not_null = c.peer,
    "client": Str = c.client,
    "state": Str not_null = c.state,
    "statement": Str = c.statement.map_or(Value::Null, Value::Str),
    "wait_event": Str = c.wait_event.map_or(Value::Null, Value::from),
    "idle_ms": Int = v_int(c.idle_ms),
    "txn_age_ms": Int = c.txn_age_ms,
});

/// Name of the wire-server counter table, served while a server on a
/// monitored engine is attached ([`Engine::attach`][crate::Engine::attach]).
pub const IMA_SERVER: &str = "ima$server";

fn load(counter: &AtomicU64) -> Value {
    v_int(counter.load(Ordering::Relaxed))
}

// One row: a wire server's traffic since it started, read off the counters
// its connection handlers charge.
record!(Arc<ServerStats>, IMA_SERVER, |s| {
    "connections_opened": Int = load(&s.connections_opened),
    "connections_closed": Int = load(&s.connections_closed),
    "connections_reaped": Int = load(&s.connections_reaped),
    "frames_in": Int = load(&s.frames_in),
    "frames_out": Int = load(&s.frames_out),
    "bytes_in": Int = load(&s.bytes_in),
    "bytes_out": Int = load(&s.bytes_out),
    "statements_served": Int = load(&s.statements_served),
    "errors_sent": Int = load(&s.errors_sent),
    "heartbeats": Int = load(&s.heartbeats),
});

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

const fn shape<R: Copied>() -> TableShape {
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

/// The names of the IMA virtual tables an engine registers, in
/// registration order, under the *full* monitoring configuration
/// (`monitor_enabled` plus `wait_events_enabled`; with waits off it skips
/// `ima$wait_events`, `ima$active_sessions` and `ima$ash`). The three tables
/// filled outside the engine, [`IMA_DAEMON_HEALTH`], [`IMA_CONNECTIONS`] and
/// [`IMA_SERVER`], join on their first [`Engine::attach`][crate::Engine::attach].
pub const IMA_TABLE_NAMES: &[&str] = &[
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

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_common::EngineConfig;

    /// `decode` inverts `encode`, and every value is of its column's type.
    fn round_trip<R: Copied + Clone>(records: Vec<R>) {
        assert!(!records.is_empty(), "{} needs a row to test", R::IMA);
        for record in records {
            let row = record.encode();
            let types: Vec<_> = row.iter().map(|v| v.data_type()).collect();
            let declared: Vec<_> = R::COLUMNS.iter().map(|&(_, ty, _)| Some(ty)).collect();
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
