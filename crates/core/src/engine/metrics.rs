//! The Prometheus view of the engine: one [`MetricsSnapshot`] assembled
//! from every subsystem's counters.

use ingot_trace::{MetricKind, MetricsSnapshot, Sample};
use ingot_txn::AbortCause;

use super::Engine;

/// One sample carrying the single label `key="value"`.
fn labelled(key: &str, value: &str, v: f64) -> Sample {
    Sample::labelled(vec![(key.into(), value.into())], v)
}

impl Engine {
    /// Assemble a point-in-time [`MetricsSnapshot`] of the engine: execution
    /// counters, buffer-pool and I/O totals, lock-manager state, monitor and
    /// tracer self-cost, and the per-statement latency histograms as proper
    /// Prometheus histograms. The shell renders it with `\metrics`; the
    /// storage daemon flattens it into the workload DB.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.push(
            "ingot_statements_executed_total",
            "Statements executed since engine start.",
            MetricKind::Counter,
            vec![Sample::plain(self.statements_executed() as f64)],
        );
        snap.push(
            "ingot_sessions",
            "Open sessions (current) and high-water mark (peak).",
            MetricKind::Gauge,
            vec![
                labelled("state", "current", self.sessions.current() as f64),
                labelled("state", "peak", self.sessions.peak() as f64),
            ],
        );
        let buf = self.buffer_stats();
        snap.push(
            "ingot_buffer_pool_requests_total",
            "Buffer-pool page requests by outcome.",
            MetricKind::Counter,
            vec![
                labelled("outcome", "hit", buf.hits as f64),
                labelled("outcome", "miss", buf.misses as f64),
            ],
        );
        let io = self.io_stats();
        snap.push(
            "ingot_disk_pages_total",
            "Physical page transfers by kind.",
            MetricKind::Counter,
            vec![
                labelled("kind", "seq_read", io.seq_reads as f64),
                labelled("kind", "rand_read", io.rand_reads as f64),
                labelled("kind", "write", io.writes as f64),
            ],
        );
        let locks = self.locks.stats();
        snap.push(
            "ingot_locks_held",
            "Locks currently granted.",
            MetricKind::Gauge,
            vec![Sample::plain(locks.held as f64)],
        );
        snap.push(
            "ingot_lock_waits_total",
            "Lock requests that had to wait.",
            MetricKind::Counter,
            vec![Sample::plain(locks.waits_total as f64)],
        );
        snap.push(
            "ingot_deadlocks_total",
            "Deadlocks detected.",
            MetricKind::Counter,
            vec![Sample::plain(locks.deadlocks_total as f64)],
        );
        snap.push(
            "ingot_txn_commit_seq",
            "Highest published MVCC commit timestamp.",
            MetricKind::Gauge,
            vec![Sample::plain(self.txns.read_ts() as f64)],
        );
        snap.push(
            "ingot_txn_active_snapshots",
            "Registered read snapshots (each pins the GC watermark).",
            MetricKind::Gauge,
            vec![Sample::plain(self.txns.active_snapshots().len() as f64)],
        );
        snap.push(
            "ingot_txn_aborts_total",
            "Transactions aborted, by cause.",
            MetricKind::Counter,
            AbortCause::ALL
                .iter()
                .map(|&c| labelled("cause", c.name(), self.txns.aborts_by_cause(c) as f64))
                .collect(),
        );
        snap.push(
            "ingot_mvcc_validation_failures_total",
            "First-committer-wins validation failures at commit.",
            MetricKind::Counter,
            vec![Sample::plain(self.txns.validation_failures() as f64)],
        );
        snap.push(
            "ingot_mvcc_gc_total",
            "Version-chain garbage collection: sweeps run and versions reclaimed.",
            MetricKind::Counter,
            vec![
                labelled("kind", "runs", self.txns.gc_runs() as f64),
                labelled(
                    "kind",
                    "versions_removed",
                    self.txns.gc_versions_removed() as f64,
                ),
            ],
        );
        snap.push(
            "ingot_mvcc_gc_watermark",
            "Oldest-active-snapshot watermark of the most recent GC sweep.",
            MetricKind::Gauge,
            vec![Sample::plain(self.txns.gc_last_watermark() as f64)],
        );
        let pc = self.plan_cache.stats();
        snap.push(
            "ingot_plan_cache_events_total",
            "Plan-cache probe and maintenance events by kind.",
            MetricKind::Counter,
            vec![
                labelled("event", "hit", pc.hits as f64),
                labelled("event", "miss", pc.misses as f64),
                labelled("event", "eviction", pc.evictions as f64),
                labelled("event", "invalidation", pc.invalidations as f64),
            ],
        );
        snap.push(
            "ingot_plan_cache_entries",
            "Cached plan templates (live) and configured capacity.",
            MetricKind::Gauge,
            vec![
                labelled("kind", "live", pc.entries as f64),
                labelled("kind", "capacity", pc.capacity as f64),
            ],
        );
        let wal = self.wal.stats();
        snap.push(
            "ingot_wal_appends_total",
            "WAL records appended.",
            MetricKind::Counter,
            vec![Sample::plain(wal.appends as f64)],
        );
        snap.push(
            "ingot_wal_fsyncs_total",
            "WAL durability barriers completed.",
            MetricKind::Counter,
            vec![Sample::plain(wal.fsyncs as f64)],
        );
        snap.push(
            "ingot_wal_group_commit_total",
            "Group-commit leader fsyncs and the commits they acknowledged.",
            MetricKind::Counter,
            vec![
                labelled("kind", "groups", wal.groups as f64),
                labelled("kind", "commits", wal.grouped_commits as f64),
            ],
        );
        snap.push(
            "ingot_wal_lsn",
            "WAL log sequence numbers: highest appended vs highest durable.",
            MetricKind::Gauge,
            vec![
                labelled("kind", "current", wal.current_lsn as f64),
                labelled("kind", "durable", wal.durable_lsn as f64),
            ],
        );
        if let Some(registry) = &self.waits {
            let totals = registry.snapshot();
            snap.push(
                "ingot_wait_event_ns_total",
                "Nanoseconds lost per wait event.",
                MetricKind::Counter,
                totals
                    .iter()
                    .map(|t| labelled("event", t.event.name(), t.total_ns as f64))
                    .collect(),
            );
            snap.push(
                "ingot_wait_event_count_total",
                "Completed waits per wait event.",
                MetricKind::Counter,
                totals
                    .iter()
                    .map(|t| labelled("event", t.event.name(), t.count as f64))
                    .collect(),
            );
        }
        if let Some(sampler) = &self.ash {
            snap.push(
                "ingot_ash_samples_total",
                "Active Session History samples taken.",
                MetricKind::Counter,
                vec![Sample::plain(sampler.samples_taken() as f64)],
            );
        }
        if let Some(m) = &self.monitor {
            snap.push(
                "ingot_monitor_self_time_ns_total",
                "Nanoseconds spent inside monitoring code.",
                MetricKind::Counter,
                vec![Sample::plain(m.self_time_ns() as f64)],
            );
            snap.push(
                "ingot_monitor_sensor_calls_total",
                "Monitor sensor invocations.",
                MetricKind::Counter,
                vec![Sample::plain(m.sensor_calls() as f64)],
            );
            snap.push(
                "ingot_monitor_statements_recorded_total",
                "Statements recorded by the monitor.",
                MetricKind::Counter,
                vec![Sample::plain(m.statements_recorded() as f64)],
            );
            let h = m.health();
            snap.push(
                "ingot_monitor_workload_lapped_total",
                "Workload-ring slots a reader skipped because a later lap overwrote them.",
                MetricKind::Counter,
                vec![Sample::plain(h.workload_lapped as f64)],
            );
            snap.push(
                "ingot_monitor_first_sight_locks_total",
                "Statements the monitor recorded under its lock (first sight, text path, re-entry).",
                MetricKind::Counter,
                vec![Sample::plain(h.first_sight_locks as f64)],
            );
        }
        if let Some(t) = &self.tracer {
            snap.push(
                "ingot_trace_enabled",
                "1 when runtime tracing is on.",
                MetricKind::Gauge,
                vec![Sample::plain(if t.enabled() { 1.0 } else { 0.0 })],
            );
            snap.push(
                "ingot_trace_self_time_ns_total",
                "Nanoseconds spent inside tracer bookkeeping.",
                MetricKind::Counter,
                vec![Sample::plain(t.self_time_ns() as f64)],
            );
            snap.push(
                "ingot_trace_statements_total",
                "Statements traced.",
                MetricKind::Counter,
                vec![Sample::plain(t.statements_traced() as f64)],
            );
            let mut samples = Vec::new();
            for (hash, hist) in t.histograms() {
                let label = hash.to_string();
                for (_, _, hi, _, cum) in hist.rows() {
                    samples.push(Sample {
                        suffix: "_bucket",
                        labels: vec![
                            ("hash".into(), label.clone()),
                            ("le".into(), hi.to_string()),
                        ],
                        value: cum as f64,
                    });
                }
                samples.push(Sample {
                    suffix: "_bucket",
                    labels: vec![("hash".into(), label.clone()), ("le".into(), "+Inf".into())],
                    value: hist.total() as f64,
                });
                samples.push(Sample {
                    suffix: "_sum",
                    labels: vec![("hash".into(), label.clone())],
                    value: hist.sum_ns() as f64,
                });
                samples.push(Sample {
                    suffix: "_count",
                    labels: vec![("hash".into(), label)],
                    value: hist.total() as f64,
                });
            }
            if !samples.is_empty() {
                snap.push(
                    "ingot_statement_latency_ns",
                    "Statement wall-clock latency by statement hash.",
                    MetricKind::Histogram,
                    samples,
                );
            }
        }
        snap
    }
}
