//! Shared harness for the experiment binaries: `fig4` … `fig8` regenerate
//! the figures of the paper's evaluation (§V), with the deterministic
//! §V-B experiments behind Figs 6 and 7 in [`tuning`]; `wal_commit` checks
//! the group-commit claim and records it under `results/` through
//! [`write_results`].
//!
//! Scale is controlled by the `INGOT_SCALE` environment variable:
//! `small` (default; seconds per figure), `medium`, or `large` (closest to
//! the paper's regime, minutes per figure). Absolute numbers differ from the
//! paper's 2009 hardware — EXPERIMENTS.md records both and compares shapes.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ingot_common::{EngineConfig, SimClock};
use ingot_core::{Engine, Session};
use ingot_daemon::{DaemonConfig, StorageDaemon, WorkloadDb};
use ingot_workload::{load_nref, NrefConfig};

pub mod tuning;

/// Experiment sizing.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Label printed in reports.
    pub name: &'static str,
    /// NREF scale.
    pub nref: NrefConfig,
    /// Statement count of the "50k" simple-join test.
    pub n_simple: u64,
    /// Statement count of the "1m" point-select test.
    pub n_point: u64,
    /// Buffer-pool pages (kept below the data size, as in the paper).
    pub buffer_pages: usize,
    /// Repetitions of each `wal_commit` cell, of which [`best_of`] keeps
    /// the fastest.
    pub repeats: u32,
}

impl Scale {
    /// Resolve from `INGOT_SCALE` (small | medium | large).
    pub fn from_env() -> Scale {
        match std::env::var("INGOT_SCALE").as_deref() {
            Ok("large") => Scale {
                name: "large",
                nref: NrefConfig::scaled(10.0), // 100 k proteins
                n_simple: 50_000,
                n_point: 1_000_000,
                buffer_pages: 4096,
                repeats: 3,
            },
            Ok("medium") => Scale {
                name: "medium",
                nref: NrefConfig::scaled(2.0), // 20 k proteins
                n_simple: 20_000,
                n_point: 200_000,
                buffer_pages: 2048,
                repeats: 3,
            },
            _ => Scale {
                name: "small",
                nref: NrefConfig::scaled(0.5), // 5 k proteins
                n_simple: 5_000,
                n_point: 50_000,
                buffer_pages: 1024,
                repeats: 2,
            },
        }
    }
}

/// The three instances of the paper's §V-A evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup {
    /// Untouched engine, no sensors compiled in.
    Original,
    /// Sensors active, no daemon.
    Monitoring,
    /// Sensors active + storage daemon writing the workload DB.
    Daemon,
}

impl Setup {
    /// All three, in paper order.
    pub const ALL: [Setup; 3] = [Setup::Original, Setup::Monitoring, Setup::Daemon];
}

/// A prepared instance: engine with NREF loaded, plus the daemon when the
/// setup demands one. Fields drop in order, so the daemon stops before its
/// workload DB's directory goes.
pub struct Instance {
    /// The engine.
    pub engine: Arc<Engine>,
    /// Running daemon (Daemon setup only). Held for its lifetime.
    pub daemon: Option<ingot_daemon::DaemonHandle>,
    /// Directory of the workload DB.
    _workdir: Option<ScratchDir>,
}

/// Build an instance of `setup` at `scale` with the NREF data loaded and
/// keyed primary structures (BTREE) on all six tables — the paper's §V-A
/// monitoring testbed is "created and filled … using only primary keys and
/// no other indexes", and its sub-second point selects require keyed access.
pub fn build_instance(setup: Setup, scale: &Scale) -> Instance {
    build_instance_with(setup, scale, true)
}

/// Build an instance, choosing whether tables get keyed (BTREE) primary
/// structures or stay on default heap (the §V-B tuning experiments start
/// from "the default storage structure heap").
pub fn build_instance_with(setup: Setup, scale: &Scale, keyed: bool) -> Instance {
    let config = match setup {
        Setup::Original => EngineConfig::original(),
        _ => EngineConfig::monitoring(),
    }
    .with_buffer_pool_pages(scale.buffer_pages);
    let clock = SimClock::new();
    let engine = Engine::builder()
        .config(config)
        .clock(clock.clone())
        .build()
        .expect("in-memory engine");
    load_nref(&engine, &scale.nref).expect("NREF load");
    if keyed {
        // The §V-A monitoring testbed is a *tuned* database (keyed primary
        // structures, statistics collected): those experiments measure
        // sensor overhead on fast statements, not planning quality. The
        // §V-B tuning experiments (fig6/fig7) pass `keyed = false` and
        // start from the untuned default-heap state instead.
        let session = engine.open_session();
        for ddl in ingot_workload::nref_schema_ddl() {
            let table = ddl.split_whitespace().nth(2).expect("table name");
            session
                .execute(&format!("create statistics on {table}"))
                .expect("create statistics");
            session
                .execute(&format!("modify {table} to btree"))
                .expect("modify to btree");
        }
    }

    let (daemon, workdir) = if setup == Setup::Daemon {
        let dir = ScratchDir::new("wldb");
        let wldb = Arc::new(WorkloadDb::file_backed(dir.path(), clock).expect("workload DB"));
        let daemon = StorageDaemon::new(
            Arc::clone(&engine),
            wldb,
            DaemonConfig {
                // The paper polls every 30 s during minutes-long runs;
                // scaled to our seconds-long runs so every test overlaps
                // several polls and the daemon's cost amortizes instead of
                // hitting one repetition as a spike.
                interval: Duration::from_millis(500),
                ..Default::default()
            },
        );
        (
            Some(daemon.spawn().expect("spawn daemon thread")),
            Some(dir),
        )
    } else {
        (None, None)
    };
    Instance {
        engine,
        daemon,
        _workdir: workdir,
    }
}

/// Run a set of statements, returning the wall-clock duration.
pub fn run_statements<I, S>(session: &Session, statements: I) -> Duration
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let t0 = Instant::now();
    for stmt in statements {
        session
            .execute(stmt.as_ref())
            .unwrap_or_else(|e| panic!("statement failed: {e}: {}", stmt.as_ref()));
    }
    t0.elapsed()
}

/// The fastest of `repeats` runs of `f` ("repeated three times to minimize
/// local anomalies"), with the counters that run returned beside its wall
/// time. The first of equally fast runs wins.
pub fn best_of<T>(repeats: u32, mut f: impl FnMut() -> (Duration, T)) -> (Duration, T) {
    (0..repeats.max(1))
        .map(|_| f())
        .min_by_key(|(elapsed, _)| *elapsed)
        .expect("≥1 repeat")
}

/// The quartiles `[q1, median, q3]` of `xs`, each interpolated linearly
/// between the two nearest order statistics.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of nothing");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let at = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (sorted[at.floor() as usize], sorted[at.ceil() as usize]);
        lo + (hi - lo) * at.fract()
    })
}

/// Wait `d` — client think time, sampling cadence, connect backoff. The
/// workspace bans `std::thread::sleep` outside pacing; this is the bench's
/// one pacing site.
pub fn pace(d: Duration) {
    // Bench pacing: the pause models a client or a sampler, not a sync point.
    #[allow(clippy::disallowed_methods)]
    std::thread::sleep(d);
}

/// A fresh directory under the system temp dir, removed with everything in
/// it on drop. Declare it before the engine that writes into it, so that
/// the engine drops first.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// `<tmp>/ingot-bench-<tag>-<pid>-<n>`, created empty.
    pub fn new(tag: &str) -> ScratchDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ingot-bench-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One value in a results file.
#[derive(Debug, Clone, Copy)]
pub enum Field {
    /// A count or a setting, printed as is.
    Int(u64),
    /// A measurement, printed with three decimals.
    Num(f64),
    /// A label.
    Text(&'static str),
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Int(n) => write!(f, "{n}"),
            Field::Num(x) => write!(f, "{x:.3}"),
            // Debug quoting escapes `"` and `\` as JSON does.
            Field::Text(s) => write!(f, "{s:?}"),
        }
    }
}

/// One measured cell of a results file, as `(key, value)` pairs in order.
pub type Fields = Vec<(&'static str, Field)>;

/// The JSON document of `bench` (the workspace has no serde): the run's
/// scale and repeats, then `params`, then one line per cell.
pub fn render_results(
    bench: &str,
    scale: &Scale,
    params: &[(&str, Field)],
    cells: &[Fields],
) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"scale\": \"{}\",\n  \"repeats\": {},\n",
        scale.name, scale.repeats
    );
    for (key, value) in params {
        out += &format!("  \"{key}\": {value},\n");
    }
    out += "  \"results\": [\n";
    for (i, cell) in cells.iter().enumerate() {
        let fields: Vec<String> = cell.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let comma = if i + 1 == cells.len() { "" } else { "," };
        out += &format!("    {{{}}}{comma}\n", fields.join(", "));
    }
    out + "  ]\n}\n"
}

/// Write [`render_results`] to `results/<file>` at the workspace root.
pub fn write_results(
    file: &str,
    bench: &str,
    scale: &Scale,
    params: &[(&str, Field)],
    cells: &[Fields],
) {
    let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, render_results(bench, scale, params, cells)).expect("write results JSON");
    println!("\nwrote {path}");
}

/// Pages → mebibytes.
pub fn pages_to_mib(pages: u64) -> f64 {
    pages as f64 * ingot_storage::PAGE_SIZE as f64 / (1024.0 * 1024.0)
}

/// Print a standard experiment header.
pub fn header(fig: &str, title: &str, scale: &Scale) {
    println!("==========================================================");
    println!("{fig}: {title}");
    println!(
        "scale={} (proteins={}, simple={}, point={}, buffer={}p)",
        scale.name, scale.nref.proteins, scale.n_simple, scale.n_point, scale.buffer_pages
    );
    println!("==========================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_file_layout_is_pinned() {
        let scale = Scale {
            name: "small",
            nref: NrefConfig::scaled(0.5),
            n_simple: 5_000,
            n_point: 50_000,
            buffer_pages: 1024,
            repeats: 2,
        };
        let cells: Vec<Fields> = [(1, 0.5), (8, 2.0 / 3.0)]
            .into_iter()
            .map(|(n, x)| vec![("writers", Field::Int(n)), ("speedup", Field::Num(x))])
            .collect();
        let json = render_results(
            "demo",
            &scale,
            &[
                ("sync_delay_us", Field::Int(500)),
                ("model", Field::Text("a \"b\"")),
            ],
            &cells,
        );
        assert_eq!(
            json,
            r#"{
  "bench": "demo",
  "scale": "small",
  "repeats": 2,
  "sync_delay_us": 500,
  "model": "a \"b\"",
  "results": [
    {"writers": 1, "speedup": 0.500},
    {"writers": 8, "speedup": 0.667}
  ]
}
"#
        );
    }

    #[test]
    fn best_of_keeps_the_first_fastest_run_with_its_counters() {
        let times = [30, 10, 20, 10];
        let mut i = 0;
        let best = best_of(4, || {
            i += 1;
            (Duration::from_millis(times[i - 1]), i)
        });
        assert_eq!(best, (Duration::from_millis(10), 2));
        assert_eq!(best_of(0, || (Duration::ZERO, "once")).1, "once");
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.75, 2.5, 3.25]);
    }

    #[test]
    fn scratch_dir_is_fresh_and_removed_on_drop() {
        let (a, b) = (ScratchDir::new("t"), ScratchDir::new("t"));
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"x").unwrap();
        let path = a.path().to_path_buf();
        drop(a);
        assert!(!path.exists());
        assert!(b.path().is_dir());
    }
}
