//! The tracer: per-statement trace collection and aggregation.
//!
//! [`Tracer`] is the long-lived sink the engine feeds. It keeps, per
//! statement hash, a [`LatencyHistogram`] of wall-clock times and aggregated
//! per-operator statistics (merged across executions of the same plan), plus
//! a ring buffer of the most recent complete [`StatementTrace`]s. Like the
//! monitor it measures its own bookkeeping time — the engine charges the
//! returned nanoseconds to `monitor_ns` so the paper's Fig 5 overhead
//! accounting stays honest.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ingot_common::{MonotonicClock, RingBuffer, StmtHash};
use parking_lot::Mutex;

use crate::histogram::LatencyHistogram;
use crate::span::{OperatorSpan, Stage, StageSpan, StatementTrace};

/// Runtime configuration of the tracer. The engine sets only `enabled`
/// (from `EngineConfig::trace_enabled`); the capacities are the defaults
/// below everywhere outside this crate's eviction tests.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Start enabled?
    pub enabled: bool,
    /// Distinct statement hashes to keep aggregates for.
    pub statement_capacity: usize,
    /// Ring-buffer capacity of recent statement traces.
    pub trace_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            statement_capacity: 512,
            trace_capacity: 1024,
        }
    }
}

/// Aggregated statistics for one operator position (`op_id`) of one
/// statement's plan, merged across executions.
#[derive(Debug, Clone)]
pub struct OperatorStats {
    pub op_id: u32,
    pub parent: Option<u32>,
    pub depth: u32,
    pub op: String,
    pub detail: String,
    /// Executions merged into this entry.
    pub executions: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub tuples: u64,
    pub pages: u64,
    pub elapsed_ns: u64,
    /// Estimates from the most recent execution (plans re-optimize, so the
    /// latest estimate is the comparable one).
    pub est_rows: f64,
    pub est_cost: f64,
}

#[derive(Debug, Default)]
struct StmtStats {
    histogram: LatencyHistogram,
    ops: Vec<OperatorStats>,
}

struct TracerState {
    /// Most recent complete traces, oldest evicted first.
    traces: RingBuffer<StatementTrace>,
    /// Per-hash aggregates.
    stats: HashMap<StmtHash, StmtStats>,
    /// Insertion order of hashes, for capacity eviction.
    order: VecDeque<StmtHash>,
    /// Hashes evicted from `stats` because capacity was reached.
    evictions: u64,
}

/// Long-lived trace sink. Cheap when disabled: the engine checks
/// [`enabled`](Self::enabled) (one atomic load) before building any spans.
pub struct Tracer {
    clock: MonotonicClock,
    enabled: AtomicBool,
    statement_capacity: usize,
    state: Mutex<TracerState>,
    self_time_ns: AtomicU64,
    statements_traced: AtomicU64,
}

impl Tracer {
    pub fn new(clock: MonotonicClock, config: &TraceConfig) -> Self {
        Tracer {
            clock,
            enabled: AtomicBool::new(config.enabled),
            statement_capacity: config.statement_capacity.max(1),
            state: Mutex::new(TracerState {
                traces: RingBuffer::new(config.trace_capacity.max(1)),
                stats: HashMap::new(),
                order: VecDeque::new(),
                evictions: 0,
            }),
            self_time_ns: AtomicU64::new(0),
            statements_traced: AtomicU64::new(0),
        }
    }

    /// Is runtime tracing on? One relaxed atomic load — the only cost the
    /// statement path pays when tracing is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip runtime tracing (`SET trace = on|off`).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds the tracer has spent on its own bookkeeping.
    pub fn self_time_ns(&self) -> u64 {
        self.self_time_ns.load(Ordering::Relaxed)
    }

    /// Statements whose traces were recorded.
    pub fn statements_traced(&self) -> u64 {
        self.statements_traced.load(Ordering::Relaxed)
    }

    fn stats_entry<'a>(&self, state: &'a mut TracerState, hash: StmtHash) -> &'a mut StmtStats {
        if !state.stats.contains_key(&hash) {
            while state.order.len() >= self.statement_capacity {
                if let Some(old) = state.order.pop_front() {
                    state.stats.remove(&old);
                    state.evictions += 1;
                }
            }
            state.order.push_back(hash);
            state.stats.insert(hash, StmtStats::default());
        }
        state.stats.get_mut(&hash).unwrap()
    }

    fn merge_ops(entry: &mut StmtStats, ops: &[OperatorSpan]) {
        // If the plan shape changed (different operator at the same
        // position, or different node count), restart the aggregate — mixing
        // rows across plans would be meaningless.
        let same_shape = entry.ops.len() == ops.len()
            && entry
                .ops
                .iter()
                .zip(ops)
                .all(|(a, b)| a.op_id == b.op_id && a.op == b.op && a.parent == b.parent);
        if !same_shape {
            entry.ops = ops
                .iter()
                .map(|s| OperatorStats {
                    op_id: s.op_id,
                    parent: s.parent,
                    depth: s.depth,
                    op: s.op.clone(),
                    detail: s.detail.clone(),
                    executions: 0,
                    rows_in: 0,
                    rows_out: 0,
                    tuples: 0,
                    pages: 0,
                    elapsed_ns: 0,
                    est_rows: s.est_rows,
                    est_cost: s.est_cost,
                })
                .collect();
        }
        for (agg, s) in entry.ops.iter_mut().zip(ops) {
            agg.executions += 1;
            agg.rows_in += s.rows_in;
            agg.rows_out += s.rows_out;
            agg.tuples += s.tuples;
            agg.pages += s.pages;
            agg.elapsed_ns += s.elapsed_ns;
            agg.est_rows = s.est_rows;
            agg.est_cost = s.est_cost;
            agg.detail = s.detail.clone();
        }
    }

    /// Record a complete statement trace: merge its operator spans into the
    /// per-hash aggregate, record the wall-clock latency, and push the trace
    /// onto the recent-traces ring. Returns the tracer's own bookkeeping
    /// time in nanoseconds (charge it to `monitor_ns`).
    pub fn record_statement(&self, trace: StatementTrace) -> u64 {
        let t0 = self.clock.now_nanos();
        {
            let mut state = self.state.lock();
            let entry = self.stats_entry(&mut state, trace.hash);
            Self::merge_ops(entry, &trace.ops);
            entry.histogram.record(trace.wallclock_ns);
            state.traces.push(trace);
        }
        self.statements_traced.fetch_add(1, Ordering::Relaxed);
        let dt = self.clock.now_nanos().saturating_sub(t0);
        self.self_time_ns.fetch_add(dt, Ordering::Relaxed);
        dt
    }

    /// Merge operator spans for `hash` without recording a latency sample or
    /// a recent trace — used by `EXPLAIN ANALYZE` when runtime tracing is
    /// off, so the instrumented run still lands in `ima$operator_stats`.
    /// Returns bookkeeping nanoseconds.
    pub fn record_operators(&self, hash: StmtHash, ops: &[OperatorSpan]) -> u64 {
        let t0 = self.clock.now_nanos();
        {
            let mut state = self.state.lock();
            let entry = self.stats_entry(&mut state, hash);
            Self::merge_ops(entry, ops);
        }
        let dt = self.clock.now_nanos().saturating_sub(t0);
        self.self_time_ns.fetch_add(dt, Ordering::Relaxed);
        dt
    }

    /// Aggregated operator statistics, `(hash, stats)` per operator row,
    /// ordered by hash then pre-order position.
    pub fn operator_stats(&self) -> Vec<(StmtHash, OperatorStats)> {
        let state = self.state.lock();
        let mut hashes: Vec<StmtHash> = state.stats.keys().copied().collect();
        hashes.sort();
        let mut out = Vec::new();
        for h in hashes {
            for op in &state.stats[&h].ops {
                out.push((h, op.clone()));
            }
        }
        out
    }

    /// Per-hash latency histograms (cloned snapshots), sorted by hash.
    pub fn histograms(&self) -> Vec<(StmtHash, LatencyHistogram)> {
        let state = self.state.lock();
        let mut out: Vec<(StmtHash, LatencyHistogram)> = state
            .stats
            .iter()
            .filter(|(_, s)| s.histogram.total() > 0)
            .map(|(h, s)| (*h, s.histogram.clone()))
            .collect();
        out.sort_by_key(|(h, _)| *h);
        out
    }

    /// The most recent complete statement traces, oldest first.
    pub fn recent_traces(&self) -> Vec<StatementTrace> {
        let state = self.state.lock();
        state.traces.iter().cloned().collect()
    }

    /// Statement traces the recent-traces ring has dropped to stay bounded.
    pub fn traces_wrapped(&self) -> u64 {
        let state = self.state.lock();
        state
            .traces
            .total_pushed()
            .saturating_sub(state.traces.len() as u64)
    }

    /// Hashes currently aggregated / capacity / evictions so far.
    pub fn occupancy(&self) -> (usize, usize, u64) {
        let state = self.state.lock();
        (state.stats.len(), self.statement_capacity, state.evictions)
    }
}

/// Accumulates the spans of one in-flight statement; the engine creates one
/// per statement when tracing is enabled and hands the finished
/// [`StatementTrace`] to [`Tracer::record_statement`].
#[derive(Debug)]
pub struct TraceBuilder {
    clock: MonotonicClock,
    start_ns: u64,
    stages: Vec<StageSpan>,
    ops: Vec<OperatorSpan>,
}

impl TraceBuilder {
    pub fn new(clock: MonotonicClock) -> Self {
        let start_ns = clock.now_nanos();
        TraceBuilder {
            clock,
            start_ns,
            stages: Vec::with_capacity(5),
            ops: Vec::new(),
        }
    }

    /// Record a completed pipeline stage.
    pub fn stage(&mut self, stage: Stage, elapsed_ns: u64) {
        self.stages.push(StageSpan { stage, elapsed_ns });
    }

    /// Attach the executor's operator spans.
    pub fn set_ops(&mut self, ops: Vec<OperatorSpan>) {
        self.ops = ops;
    }

    /// Nanoseconds since this builder was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_nanos().saturating_sub(self.start_ns)
    }

    /// Finalise into a [`StatementTrace`]. The `Result` stage is derived as
    /// the wall-clock remainder not covered by the recorded stages.
    pub fn finish(mut self, hash: StmtHash, wallclock_ns: u64) -> StatementTrace {
        let covered: u64 = self.stages.iter().map(|s| s.elapsed_ns).sum();
        self.stages.push(StageSpan {
            stage: Stage::Result,
            elapsed_ns: wallclock_ns.saturating_sub(covered),
        });
        StatementTrace {
            hash,
            wallclock_ns,
            stages: self.stages,
            ops: self.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op_id: u32, parent: Option<u32>, op: &str, rows_out: u64, tuples: u64) -> OperatorSpan {
        OperatorSpan {
            op_id,
            parent,
            depth: if parent.is_some() { 1 } else { 0 },
            op: op.to_string(),
            detail: String::new(),
            est_rows: 1.0,
            est_cost: 1.0,
            rows_in: 0,
            rows_out,
            tuples,
            pages: 1,
            elapsed_ns: 10,
        }
    }

    fn trace_of(hash: StmtHash, wall: u64, ops: Vec<OperatorSpan>) -> StatementTrace {
        StatementTrace {
            hash,
            wallclock_ns: wall,
            stages: vec![StageSpan {
                stage: Stage::Execute,
                elapsed_ns: wall,
            }],
            ops,
        }
    }

    #[test]
    fn aggregates_across_executions() {
        let t = Tracer::new(MonotonicClock::new(), &TraceConfig::default());
        let h = StmtHash::of("select 1");
        let ops = vec![
            span(0, None, "Project", 1, 1),
            span(1, Some(0), "Dual", 1, 0),
        ];
        t.record_statement(trace_of(h, 1_000, ops.clone()));
        t.record_statement(trace_of(h, 2_000, ops));
        let stats = t.operator_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].1.executions, 2);
        assert_eq!(stats[0].1.rows_out, 2);
        let hists = t.histograms();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].1.total(), 2);
        assert_eq!(t.statements_traced(), 2);
        assert!(t.self_time_ns() > 0);
    }

    #[test]
    fn plan_change_resets_aggregate() {
        let t = Tracer::new(MonotonicClock::new(), &TraceConfig::default());
        let h = StmtHash::of("select 1");
        t.record_statement(trace_of(h, 100, vec![span(0, None, "SeqScan", 5, 5)]));
        t.record_statement(trace_of(h, 100, vec![span(0, None, "IndexScan", 1, 1)]));
        let stats = t.operator_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1.op, "IndexScan");
        assert_eq!(stats[0].1.executions, 1);
        assert_eq!(stats[0].1.rows_out, 1);
        // Histogram keeps both samples — latency is plan-independent.
        assert_eq!(t.histograms()[0].1.total(), 2);
    }

    #[test]
    fn capacity_evicts_oldest_hash() {
        let cfg = TraceConfig {
            enabled: true,
            statement_capacity: 2,
            trace_capacity: 2,
        };
        let t = Tracer::new(MonotonicClock::new(), &cfg);
        for i in 0..3 {
            let h = StmtHash::of(&format!("q{i}"));
            t.record_statement(trace_of(h, 100, vec![span(0, None, "Dual", 1, 0)]));
        }
        let (len, cap, evictions) = t.occupancy();
        assert_eq!(len, 2);
        assert_eq!(cap, 2);
        assert_eq!(evictions, 1);
        assert_eq!(t.recent_traces().len(), 2);
        assert_eq!(t.traces_wrapped(), 1);
        let hists = t.histograms();
        assert!(!hists.iter().any(|(h, _)| *h == StmtHash::of("q0")));
    }

    #[test]
    fn record_operators_skips_histogram() {
        let t = Tracer::new(MonotonicClock::new(), &TraceConfig::default());
        let h = StmtHash::of("explain analyze select 1");
        t.record_operators(h, &[span(0, None, "Dual", 1, 0)]);
        assert_eq!(t.operator_stats().len(), 1);
        assert!(t.histograms().is_empty());
        assert_eq!(t.statements_traced(), 0);
    }

    #[test]
    fn builder_derives_result_stage() {
        let clock = MonotonicClock::new();
        let mut b = TraceBuilder::new(clock);
        b.stage(Stage::Parse, 100);
        b.stage(Stage::Execute, 300);
        let tr = b.finish(StmtHash::of("x"), 1_000);
        assert_eq!(tr.stages.len(), 3);
        let result = tr.stages.last().unwrap();
        assert_eq!(result.stage, Stage::Result);
        assert_eq!(result.elapsed_ns, 600);
    }
}
