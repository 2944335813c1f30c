//! The workload view: a normalised aggregation of collected monitoring data,
//! buildable from the live monitor (short-term) or the workload database
//! (long-term trend analysis).

use std::collections::{BTreeMap, HashMap};

use ingot_common::waits::WaitTotal;
use ingot_common::{Cost, Error, Result, TableId};
use ingot_core::monitor::{
    AttributeUsage, RefObject, ReferenceRecord, StatSample, StatementInfo, TableUsage,
    WorkloadRecord,
};
use ingot_core::{AshSample, Engine, Monitor, ReadBack};
use ingot_daemon::WorkloadDb;

/// Per-statement aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct StmtAgg {
    /// Statement hash (hex).
    pub hash: String,
    /// Statement text.
    pub text: String,
    /// Recorded executions.
    pub executions: u64,
    /// Summed actual cost (CPU tuples, IO pages).
    pub actual: Cost,
    /// Summed estimated cost.
    pub est: Cost,
    /// Summed wall-clock, nanoseconds.
    pub wallclock_ns: u64,
    /// Tables the statement references.
    pub tables: Vec<TableId>,
}

impl StmtAgg {
    /// True for statements the advisor/what-if machinery can re-plan.
    pub fn is_query(&self) -> bool {
        self.text
            .trim_start()
            .to_ascii_lowercase()
            .starts_with("select")
    }
}

/// Per-table aggregate (latest snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct TableAgg {
    /// Table id.
    pub id: TableId,
    /// Name.
    pub name: String,
    /// Reference frequency, summed across engine lives.
    pub frequency: u64,
    /// Storage structure tag.
    pub storage: String,
    /// Main data pages.
    pub data_pages: u64,
    /// Overflow pages.
    pub overflow_pages: u64,
    /// Rows.
    pub rows: u64,
}

impl TableAgg {
    /// Overflow ratio relative to main pages.
    pub fn overflow_ratio(&self) -> f64 {
        if self.data_pages == 0 {
            0.0
        } else {
            self.overflow_pages as f64 / self.data_pages as f64
        }
    }
}

/// Per-attribute aggregate (latest snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct AttrAgg {
    /// Owning table.
    pub table: TableId,
    /// Owning table's name.
    pub table_name: String,
    /// Column position.
    pub column: usize,
    /// Column name.
    pub name: String,
    /// Reference frequency, summed across engine lives.
    pub frequency: u64,
    /// Histogram present at last reference.
    pub has_histogram: bool,
}

/// One statistics point (locks diagram input).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatPoint {
    /// Simulated seconds.
    pub at_secs: u64,
    /// Locks currently held.
    pub locks_held: u64,
    /// Transactions blocked.
    pub lock_waiting: u64,
    /// Cumulative waits.
    pub lock_waits_total: u64,
    /// Cumulative deadlocks.
    pub deadlocks_total: u64,
}

/// Cumulative time lost to one wait event (system-wide, every engine life).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WaitAgg {
    /// Wait-event name (`LockWaitX`, `WalFsync`, …).
    pub event: String,
    /// Completed waits.
    pub count: u64,
    /// Total nanoseconds charged.
    pub total_ns: u64,
}

/// ASH samples grouped by (statement, event): one template's wait profile,
/// one row per event observed while the template was running.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AshAgg {
    /// Statement hash (hex) — joins to [`StmtAgg::hash`].
    pub hash: String,
    /// Statement template.
    pub template: String,
    /// Wait-event name, or `OnCpu`.
    pub event: String,
    /// Samples observed in this state.
    pub samples: u64,
}

/// The normalised workload view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadView {
    /// Statement aggregates, most expensive (total actual) first.
    pub statements: Vec<StmtAgg>,
    /// Table usage.
    pub tables: Vec<TableAgg>,
    /// Attribute usage.
    pub attributes: Vec<AttrAgg>,
    /// Statistics time series (ascending time).
    pub statistics: Vec<StatPoint>,
    /// System-wide wait-event totals (empty when the wait subsystem is off).
    pub waits: Vec<WaitAgg>,
    /// Per-(statement, event) ASH sample counts — the wait profiles the
    /// wait-profile rules read.
    pub ash: Vec<AshAgg>,
}

/// The monitoring records a view aggregates, oldest first: snapshots of the
/// live rings, or every `wl_` row the daemon has filed.
#[derive(Default)]
struct Source {
    statements: Vec<StatementInfo>,
    workload: Vec<WorkloadRecord>,
    references: Vec<ReferenceRecord>,
    tables: Vec<TableUsage>,
    attributes: Vec<AttributeUsage>,
    statistics: Vec<StatSample>,
    waits: Vec<WaitTotal>,
    ash: Vec<AshSample>,
}

impl Source {
    fn live(monitor: &Monitor) -> Source {
        Source {
            statements: monitor.statements(),
            workload: monitor.workload(),
            references: monitor.references(),
            tables: monitor.tables(),
            attributes: monitor.attributes(),
            statistics: monitor.statistics(),
            // The monitor's rings do not carry wait data; `from_engine`
            // adds the wait registry's and the ASH sampler's.
            ..Source::default()
        }
    }
}

/// Every row of `R`'s workload-DB table in filing order, read back through
/// the definition that wrote it, with the boot identity filed beside it.
fn filed<R: ReadBack>(db: &WorkloadDb) -> Result<Vec<(u64, R)>> {
    db.query(&format!("select * from {} order by ts", R::WL))?
        .iter()
        .map(|row| {
            let mut cells = row.values().iter();
            R::decode(&mut cells)
                .and_then(|record| Some((cells.next()?.as_int()? as u64, record)))
                .ok_or_else(|| Error::daemon(format!("{} row is not a {} row", R::WL, R::IMA)))
        })
        .collect()
}

/// [`filed`] without the boot identities.
fn records<R: ReadBack>(db: &WorkloadDb) -> Result<Vec<R>> {
    Ok(filed(db)?.into_iter().map(|(_, record)| record).collect())
}

/// The cumulative snapshots of `R` filed over several lives of the engine,
/// as one life: per `key`, the newest row, with `add` folding into it the
/// newest row of every earlier life — the counters restarted at zero.
fn across_lives<R: ReadBack, K: Ord>(
    db: &WorkloadDb,
    key: impl Fn(&R) -> K,
    add: impl Fn(&mut R, &R),
) -> Result<Vec<R>> {
    let mut lives: BTreeMap<K, Vec<(u64, R)>> = BTreeMap::new();
    for (boot, row) in filed(db)? {
        let newest = lives.entry(key(&row)).or_default();
        newest.retain(|&(b, _)| b != boot);
        newest.push((boot, row));
    }
    let fold = |mut newest: Vec<(u64, R)>| {
        let (_, mut row) = newest.pop()?;
        for (_, earlier) in &newest {
            add(&mut row, earlier);
        }
        Some(row)
    };
    Ok(lives.into_values().filter_map(fold).collect())
}

impl WorkloadView {
    /// Build from the live monitor's ring buffers.
    pub fn from_monitor(monitor: &Monitor) -> WorkloadView {
        WorkloadView::build(Source::live(monitor))
    }

    /// Build from a live engine: the monitor view plus the wait-event and
    /// ASH aggregates the monitor alone cannot provide. Engines without
    /// monitoring yield an empty view; engines without the wait subsystem
    /// yield empty wait profiles.
    pub fn from_engine(engine: &Engine) -> WorkloadView {
        let mut source = engine
            .monitor()
            .map(|m| Source::live(m))
            .unwrap_or_default();
        if let Some(registry) = engine.wait_registry() {
            source.waits = registry.snapshot();
        }
        if let Some(sampler) = engine.ash_sampler() {
            source.ash = sampler.history();
        }
        WorkloadView::build(source)
    }

    /// Build from the persistent workload database (standard SQL reads, as
    /// the paper intends external analyzers to do).
    pub fn from_workload_db(db: &WorkloadDb) -> Result<WorkloadView> {
        Ok(WorkloadView::build(Source {
            statements: records(db)?,
            workload: records(db)?,
            references: records(db)?,
            tables: across_lives(db, |t: &TableUsage| t.id, |t, e| t.frequency += e.frequency)?,
            attributes: across_lives(
                db,
                |a: &AttributeUsage| (a.table, a.column),
                |a, e| a.frequency += e.frequency,
            )?,
            statistics: records(db)?,
            waits: across_lives(
                db,
                |t: &WaitTotal| t.event.index(),
                |t, e| (t.count, t.total_ns) = (t.count + e.count, t.total_ns + e.total_ns),
            )?,
            ash: records(db)?,
        }))
    }

    /// The one aggregation. Snapshot-style records (tables, attributes, wait
    /// totals) repeat per poll in the workload DB; the newest wins.
    fn build(source: Source) -> WorkloadView {
        let mut agg: HashMap<_, StmtAgg> = HashMap::with_capacity(source.statements.len());
        for s in source.statements {
            agg.entry(s.hash).or_insert_with(|| StmtAgg {
                hash: s.hash.to_string(),
                text: s.text,
                executions: 0,
                actual: Cost::ZERO,
                est: Cost::ZERO,
                wallclock_ns: 0,
                tables: Vec::new(),
            });
        }
        for w in &source.workload {
            if let Some(a) = agg.get_mut(&w.hash) {
                a.executions += 1;
                a.actual += Cost::new(w.exec_cpu as f64, w.exec_io as f64);
                a.est += w.est;
                a.wallclock_ns += w.wallclock_ns;
            }
        }
        for r in &source.references {
            if r.object == RefObject::Table {
                if let Some(a) = agg.get_mut(&r.hash) {
                    if !a.tables.contains(&r.table) {
                        a.tables.push(r.table);
                    }
                }
            }
        }
        let mut statements: Vec<StmtAgg> = agg.into_values().filter(|a| a.executions > 0).collect();
        statements.sort_by(|a, b| {
            b.actual
                .total()
                .total_cmp(&a.actual.total())
                .then_with(|| a.hash.cmp(&b.hash))
        });

        let mut tables = BTreeMap::new();
        for t in source.tables {
            let agg = TableAgg {
                id: t.id,
                name: t.name,
                frequency: t.frequency,
                storage: t.storage,
                data_pages: t.data_pages,
                overflow_pages: t.overflow_pages,
                rows: t.rows,
            };
            tables.insert(t.id, agg);
        }
        let mut attributes = BTreeMap::new();
        for a in source.attributes {
            let agg = AttrAgg {
                table: a.table,
                table_name: tables
                    .get(&a.table)
                    .map_or_else(String::new, |t| t.name.clone()),
                column: a.column,
                name: a.name,
                frequency: a.frequency,
                has_histogram: a.has_histogram,
            };
            attributes.insert((a.table, a.column), agg);
        }
        let statistics = source.statistics.iter().map(|s| StatPoint {
            at_secs: s.at_sim_secs,
            locks_held: s.locks_held,
            lock_waiting: s.lock_waiting,
            lock_waits_total: s.lock_waits_total,
            deadlocks_total: s.deadlocks_total,
        });
        // Wait totals are cumulative, so per event the newest row carries
        // the whole story.
        let waits: BTreeMap<usize, WaitTotal> = source
            .waits
            .into_iter()
            .map(|t| (t.event.index(), t))
            .collect();
        let waits = waits
            .into_values()
            .filter(|t| t.count > 0)
            .map(|t| WaitAgg {
                event: t.event.name().to_owned(),
                count: t.count,
                total_ns: t.total_ns,
            });

        WorkloadView {
            statements,
            tables: tables.into_values().collect(),
            attributes: attributes.into_values().collect(),
            statistics: statistics.collect(),
            waits: waits.collect(),
            ash: fold_ash(source.ash),
        }
    }
}

/// Group samples by `(statement, event)` into [`AshAgg`] rows, sorted
/// busiest profile first.
fn fold_ash(samples: Vec<AshSample>) -> Vec<AshAgg> {
    let mut agg: HashMap<_, AshAgg> = HashMap::new();
    for s in samples {
        let entry = agg.entry((s.hash, s.event)).or_insert_with(|| AshAgg {
            hash: s.hash.to_string(),
            template: s.template.to_string(),
            event: s.event.to_owned(),
            samples: 0,
        });
        entry.samples += 1;
    }
    let mut out: Vec<AshAgg> = agg.into_values().collect();
    out.sort_by(|a, b| {
        b.samples
            .cmp(&a.samples)
            .then_with(|| a.hash.cmp(&b.hash).then_with(|| a.event.cmp(&b.event)))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_common::EngineConfig;
    use ingot_core::Engine;

    fn engine_with_workload() -> std::sync::Arc<Engine> {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let s = engine.open_session();
        s.execute("create table t (a int, b int)").unwrap();
        for i in 0..100 {
            s.execute(&format!("insert into t values ({i}, {})", i % 5))
                .unwrap();
        }
        s.execute("select * from t where b = 3").unwrap();
        s.execute("select * from t where b = 3").unwrap();
        engine
    }

    #[test]
    fn monitor_view_aggregates_executions() {
        let engine = engine_with_workload();
        let view = WorkloadView::from_monitor(engine.monitor().unwrap());
        let sel = view
            .statements
            .iter()
            .find(|s| s.is_query())
            .expect("select present");
        assert_eq!(sel.executions, 2);
        assert!(sel.actual.total() > 0.0);
        assert_eq!(sel.tables.len(), 1);
        assert_eq!(view.tables.len(), 1);
        assert!(view.attributes.len() >= 2);
    }

    #[test]
    fn wldb_view_matches_monitor_view() {
        let engine = Engine::builder()
            .config(EngineConfig {
                lock_timeout_ms: 5_000,
                ..EngineConfig::monitoring()
            })
            .build()
            .unwrap();
        let db = std::sync::Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
        let daemon = ingot_daemon::StorageDaemon::new(
            std::sync::Arc::clone(&engine),
            std::sync::Arc::clone(&db),
            ingot_daemon::DaemonConfig::default(),
        );
        let s = engine.open_session();
        s.execute("create table t (a int, b int)").unwrap();
        s.execute("create index t_b on t (b)").unwrap();
        for chunk in 0..4 {
            let rows: Vec<String> = (chunk * 500..(chunk + 1) * 500)
                .map(|i| format!("({i}, {i})"))
                .collect();
            s.execute(&format!("insert into t values {}", rows.join(", ")))
                .unwrap();
        }
        s.execute("create statistics on t").unwrap();
        s.execute("select a from t where b = 55").unwrap();
        daemon.poll_once().unwrap();

        // A second interval, so every snapshot table holds an older and a
        // newer row per object: more of the same statements, and a writer
        // that blocks on a row lock until the ASH sampler has seen it wait.
        engine.sim_clock().advance_secs(30);
        s.execute("select a from t where b = 55").unwrap();
        s.begin().unwrap();
        s.execute("update t set a = 0 where b = 7").unwrap();
        let blocked = std::thread::spawn({
            let engine = std::sync::Arc::clone(&engine);
            move || {
                let s = engine.open_session();
                s.execute("update t set a = 1 where b = 7").unwrap();
            }
        });
        while engine.locks().stats().waiting == 0 {
            std::thread::yield_now();
        }
        let sampler = engine.ash_sampler().unwrap();
        sampler.sample_now(engine.wall_clock().now_nanos());
        s.commit().unwrap();
        blocked.join().unwrap();
        daemon.poll_once().unwrap();

        let live = WorkloadView::from_engine(&engine);
        assert!(!live.tables.is_empty() && !live.attributes.is_empty());
        assert!(live.statistics.len() >= 2, "one sample per poll");
        assert!(live.waits.iter().any(|w| w.event.starts_with("LockWait")));
        assert!(live.ash.iter().any(|a| a.event.starts_with("LockWait")));
        assert_eq!(engine.monitor().unwrap().indexes().len(), 1, "t_b was used");
        assert_eq!(WorkloadView::from_workload_db(&db).unwrap(), live);
    }
}
