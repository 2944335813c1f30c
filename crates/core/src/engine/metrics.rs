//! The Prometheus view of the engine: the `ima$` records of its counters,
//! each rendered by [`export`], and the statement latency histograms.

use ingot_trace::{MetricKind, MetricsSnapshot, Sample};

use super::Engine;
use crate::ima::{export, observer_health, transaction_metrics};

impl Engine {
    /// Assemble a point-in-time [`MetricsSnapshot`] of the engine: a live
    /// `ima$statistics` sample (sessions, locks, buffer pool, I/O,
    /// statements executed), the `ima$transactions` metric rows,
    /// `ima$plan_cache`, `ima$wal`, `ima$wait_events` when waits are on and
    /// `ima$monitor_health` when monitored, one family
    /// `ingot_<table>_<column>` per numeric column; then the per-statement
    /// latency histograms as proper Prometheus histograms. The shell
    /// renders it with `\metrics`; the storage daemon files the same
    /// records' rows in the workload DB itself.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        export(
            &mut snap,
            vec![self.gather_statistics(self.wall.now_nanos())],
        );
        // One `snapshot_ts` row per active snapshot would repeat a label set.
        let mut txns = transaction_metrics(&self.txns);
        txns.retain(|(_, txn, _)| txn.is_none());
        export(&mut snap, txns);
        export(&mut snap, vec![self.plan_cache.stats()]);
        export(&mut snap, vec![(self.wal.mode(), self.wal.stats())]);
        if let Some(registry) = &self.waits {
            export(&mut snap, registry.snapshot());
        }
        if let (Some(m), Some(t)) = (&self.monitor, &self.tracer) {
            export(&mut snap, vec![observer_health(m, &self.ash, t)]);
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
