//! `run` mode: the end-to-end metrics of one workload, from a window of
//! interleaved `off`/`on` slices. No spans, no replay — tracing is a
//! separate run so that it cannot bend these numbers.

use crate::harness::{
    fresh_run_dir, merge_latencies, with_setup, Harness, LaneEnd, Options, OFF, ON, SLICE,
};
use crate::stats::{self, Slice};
use crate::workloads::{recover_copy, taxonomy_count, Kind, Sizes};
use crate::Fail;

/// Everything one run of one workload produced.
pub struct Outcome {
    pub kind: Kind,
    /// Every answer was right, every premise held, nothing failed.
    pub correct: bool,
    /// Statements issued inside the measured window, both arms.
    pub attempted: u64,
    /// Of those, how many errored or returned a wrong answer.
    pub failed: u64,
    /// `on`-arm latency samples behind `p50_us` (and `p99_us` when traced).
    pub samples: usize,
    /// Blocks behind the traced run's `p99_us`; 0 when it is not reported.
    pub blocks: usize,
    pub metrics: Vec<(&'static str, f64)>,
    /// What went wrong, for the human reading the output.
    pub notes: Vec<String>,
}

/// The measured window of one arm pair.
pub struct Window {
    /// `(on, off)` slices, cycle by cycle.
    pub cycles: Vec<(Slice, Slice)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// Untimed warm-up of both arms — plan cache, buffer pool and every lazy
/// allocation settled — which also tells the lanes how many latency samples
/// a window of `cycles` cycles will bring.
pub fn warm_up(h: &Harness<'_>, opts: &Options, cycles: usize) -> Result<(), Fail> {
    for arm in [OFF, ON] {
        let warm = h.slice(arm, opts.warmup(), false)?;
        let per_lane = warm.slice.stmts as f64 / h.kind.lanes() as f64;
        let expect = per_lane / opts.warmup().as_secs_f64() * SLICE.as_secs_f64() * cycles as f64;
        h.reserve(arm, (expect * 1.5) as usize + 1024);
    }
    Ok(())
}

/// Run `cycles` cycles of two slices with the arm order flipped every cycle
/// (`off,on,on,off,…`), so that drift and a neighbour's burst hit both arms
/// alike. The first slice of each returned pair is the `ON` arm's.
/// `record` keeps the `on` arm's latencies.
pub fn interleaved_window(h: &Harness<'_>, cycles: usize, record: bool) -> Result<Window, Fail> {
    let mut window = Window {
        cycles: Vec::with_capacity(cycles),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    for c in 0..cycles {
        let order = if c % 2 == 0 { [OFF, ON] } else { [ON, OFF] };
        let mut pair = [None, None];
        for arm in order {
            let r = h.slice(arm, SLICE, record)?;
            window.attempted += r.slice.stmts;
            window.failed += r.failed;
            if let Some(e) = r.first_error {
                if window.notes.len() < 5 {
                    window.notes.push(e);
                }
            }
            pair[arm] = Some(r.slice);
        }
        if let [Some(on), Some(off)] = pair {
            window.cycles.push((on, off));
        }
    }
    Ok(window)
}

/// The `on` engine's buffer-pool and plan-cache counters: two readings
/// bracket a window, and their difference is judged against the workload's
/// premise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    pub buffer_hits: u64,
    pub buffer_misses: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
}

impl CacheCounts {
    pub fn read(h: &Harness<'_>) -> CacheCounts {
        let engine = &h.arms[ON].engine;
        let b = engine.buffer_stats();
        let p = engine.plan_cache_stats();
        CacheCounts {
            buffer_hits: b.hits,
            buffer_misses: b.misses,
            plan_hits: p.hits,
            plan_misses: p.misses,
        }
    }

    pub fn since(&self, earlier: &CacheCounts) -> CacheCounts {
        CacheCounts {
            buffer_hits: self.buffer_hits - earlier.buffer_hits,
            buffer_misses: self.buffer_misses - earlier.buffer_misses,
            plan_hits: self.plan_hits - earlier.plan_hits,
            plan_misses: self.plan_misses - earlier.plan_misses,
        }
    }

    /// One line per premise these counts, accrued over `stmts` statements of
    /// the `on` arm, break.
    pub fn violations(&self, kind: Kind, sizes: &Sizes, stmts: u64) -> Vec<String> {
        let mut out = Vec::new();
        let buffer = stats::share(self.buffer_hits as f64, self.buffer_misses as f64);
        if let Some(least) = kind.buffer_hit_premise() {
            if buffer < least {
                out.push(format!(
                    "premise broken: buffer hit ratio {buffer:.4} below {least}"
                ));
            }
        }
        if let Some(least) = sizes.scan_reads_premise() {
            let reads = self.buffer_misses as f64 / stmts.max(1) as f64;
            if reads < least {
                out.push(format!(
                    "premise broken: {reads:.1} page reads per statement, the heap has {least}"
                ));
            }
        }
        let plan = stats::share(self.plan_hits as f64, self.plan_misses as f64);
        let (lo, hi) = kind.plan_hit_premise();
        if !(lo..=hi).contains(&plan) {
            out.push(format!(
                "premise broken: plan-cache hit ratio {plan:.4} outside [{lo}, {hi}]"
            ));
        }
        out
    }
}

/// The closing oracle of the file-backed workloads (nothing to check on the
/// others): on each arm,
/// `count(*)` of `taxonomy` equals what was preloaded plus every insert that
/// was acknowledged (`extra` of them by the traced run's replays and probes,
/// on the `on` arm) — live, and again in a crash copy of the arm's
/// directory. Returns the violations and the slower recovery in seconds.
pub fn check_inserts(h: &Harness<'_>, ends: &[Vec<LaneEnd>; 2], extra: i64) -> (Vec<String>, f64) {
    let mut notes = Vec::new();
    let mut recovery_secs = 0.0f64;
    if !h.kind.file_backed() {
        return (notes, recovery_secs);
    }
    for (arm, lanes) in h.arms.iter().zip(ends) {
        let mut want = if arm.on { extra } else { 0 };
        if h.kind == Kind::InsertWire {
            want += h.sizes.preload as i64 + lanes.iter().map(|l| l.acked).sum::<i64>();
        }
        match taxonomy_count(&arm.engine) {
            Ok(n) if n == want => {}
            Ok(n) => notes.push(format!("{}: count(*) = {n}, acked {want}", arm.label())),
            Err(e) => notes.push(format!("{}: count(*) failed: {e}", arm.label())),
        }
        let Some(dir) = &arm.data_dir else { continue };
        match recover_copy(dir) {
            Ok((n, secs)) => {
                recovery_secs = recovery_secs.max(secs);
                if n != want {
                    notes.push(format!(
                        "{}: {n} rows after recovery, acked {want}",
                        arm.label()
                    ));
                }
            }
            Err(e) => notes.push(format!("{}: recovery failed: {e}", arm.label())),
        }
    }
    (notes, recovery_secs)
}

/// Run `kind` once: set up (several times, for `setup_s`), warm up, measure,
/// check, tear down.
pub fn run_workload(kind: Kind, opts: &Options) -> Result<Outcome, Fail> {
    let dir = fresh_run_dir(kind)?;
    let mut setup_secs = Vec::new();
    while opts.another_spare_setup(&setup_secs) {
        let spare = with_setup(kind, opts, &dir, |_| Ok(()), |_, _, _| Ok(()))?;
        setup_secs.push(spare.setup_secs);
        std::fs::remove_dir_all(&dir)?;
        std::fs::create_dir_all(&dir)?;
    }
    let run = with_setup(
        kind,
        opts,
        &dir,
        |h| {
            // Nothing time-triggered runs inside the window: no daemon, no
            // checkpoint, no GC. The WAL keeps its default policy (group
            // commit, real fsync, 100 µs window).
            // Read here, not at exit: on a time-boxed run whatever grows per
            // statement grows with the box's speed, warm-up included. Every
            // set-up done, both arms loaded, servers up, lanes connected.
            let peak_rss = stats::peak_rss_mib();
            let cycles = opts.cycles(1.0);
            warm_up(h, opts, cycles)?;
            let warm = CacheCounts::read(h);
            let window = interleaved_window(h, cycles, true)?;
            let on_stmts = window.cycles.iter().map(|c| c.0.stmts).sum();
            let broken = CacheCounts::read(h)
                .since(&warm)
                .violations(kind, &h.sizes, on_stmts);
            Ok((window, broken, peak_rss))
        },
        |h, _, ends| Ok(check_inserts(h, ends, 0).0),
    )?;
    setup_secs.push(run.setup_secs);
    let (window, broken_premises, peak_rss) = run.body;
    let ends = run.ends;
    let insert_notes = run.closing;

    let on_latencies = merge_latencies(&ends[ON], true);
    let on_slices: Vec<Slice> = window.cycles.iter().map(|c| c.0).collect();
    let mut notes = window.notes;
    notes.extend(broken_premises);
    notes.extend(insert_notes);
    std::fs::remove_dir_all(&dir)?;
    let metrics = vec![
        ("stmt_per_s", stats::slice_median_throughput(&on_slices)),
        ("p50_us", stats::p50_us(&on_latencies)),
        ("cpu_us_per_stmt", stats::cpu_us_per_stmt(&on_slices)),
        ("mon_cost_ratio", stats::paired_cost_ratio(&window.cycles)),
        ("setup_s", stats::median(&setup_secs)),
        ("peak_rss_mb", peak_rss),
    ];
    Ok(Outcome {
        kind,
        correct: window.failed == 0 && notes.is_empty(),
        attempted: window.attempted,
        failed: window.failed,
        samples: on_latencies.len(),
        blocks: 0,
        metrics,
        notes,
    })
}
