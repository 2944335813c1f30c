#![forbid(unsafe_code)]
//! Structured tracing for the Ingot DBMS.
//!
//! The paper's monitor (§IV-A, Fig 3) records statement-level aggregates —
//! estimated vs. actual cost, optimizer time, wall-clock. That is enough for
//! the analyzer's rules but blind to *where inside a plan* time and I/O go.
//! This crate adds the missing layer:
//!
//! * **Stage spans** ([`Stage`], [`StageSpan`]) — parse → bind → optimize →
//!   execute → result timings per statement.
//! * **Operator spans** ([`OperatorSpan`], [`SpanCollector`]) — one span per
//!   physical plan node with rows-in/rows-out, exclusive tuple work, pages
//!   read and elapsed time; the executor fills them in during an
//!   instrumented run.
//! * **Latency histograms** ([`LatencyHistogram`]) — log₂-bucketed
//!   wall-clock distributions per statement hash, p50/p95/p99 derivable.
//! * **Aggregation** ([`Tracer`]) — per-hash operator statistics and
//!   histograms plus a ring of recent [`StatementTrace`]s, exported through
//!   the `ima$operator_stats` and `ima$latency_histograms` virtual tables.
//! * **Metrics export** ([`MetricsSnapshot`]) — Prometheus-text-format
//!   rendering for the shell's `\metrics`. The engine fills it from its
//!   `ima$` records, one family
//!   `ingot_<table>_<column>` per numeric column; [`ServerStats`] is the
//!   wire server's `ima$server` row.
//!
//! Tracing is feature-gated at runtime: when the flag is off the statement
//! path pays one atomic load and nothing else. When on, the tracer's own
//! bookkeeping time is reported back to the engine and charged to
//! `monitor_ns`, keeping the paper's Fig 5 overhead accounting honest.
//!
//! * **Wait events** ([`WaitEvent`], [`WaitGuard`], [`WaitRegistry`]) — the
//!   closed taxonomy of time *lost* (lock queues, fsync barriers, buffer
//!   I/O, daemon catch-up) feeding `ima$wait_events` and the ASH sampler. The
//!   types live in `ingot_common::waits` because the instrumented wait
//!   paths sit below this crate in the dependency graph; they are
//!   re-exported here so observability consumers have one import surface.

pub mod histogram;
pub mod metrics;
pub mod server_stats;
pub mod span;
pub mod tracer;

pub use histogram::{bucket_bounds, bucket_index, LatencyHistogram};
pub use metrics::{MetricFamily, MetricKind, MetricsSnapshot, Sample};
pub use server_stats::ServerStats;
pub use span::{
    render_operator_tree, OperatorSpan, SpanCollector, SpanFrame, Stage, StageSpan, StatementTrace,
};
pub use tracer::{OperatorStats, TraceBuilder, TraceConfig, Tracer};

pub use ingot_common::waits::{
    bind_session, SessionBinding, SessionWaits, WaitCounters, WaitEvent, WaitGuard, WaitRegistry,
    WaitRegistryHandle, WaitTotal, WAIT_EVENT_COUNT,
};
