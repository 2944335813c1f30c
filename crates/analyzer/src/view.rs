//! The workload view: a normalised aggregation of collected monitoring data,
//! buildable from the live monitor (short-term) or the workload database
//! (long-term trend analysis).

use std::collections::HashMap;

use ingot_common::{Cost, Result, TableId};
use ingot_core::{Engine, Monitor};
use ingot_daemon::WorkloadDb;

/// Per-statement aggregate.
#[derive(Debug, Clone)]
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

    /// Mean actual total cost per execution.
    pub fn avg_actual_total(&self) -> f64 {
        self.actual.total() / self.executions.max(1) as f64
    }
}

/// Per-table aggregate (latest snapshot).
#[derive(Debug, Clone)]
pub struct TableAgg {
    /// Table id.
    pub id: TableId,
    /// Name.
    pub name: String,
    /// Reference frequency.
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
#[derive(Debug, Clone)]
pub struct AttrAgg {
    /// Owning table.
    pub table: TableId,
    /// Owning table's name.
    pub table_name: String,
    /// Column position.
    pub column: usize,
    /// Column name.
    pub name: String,
    /// Reference frequency.
    pub frequency: u64,
    /// Histogram present at last reference.
    pub has_histogram: bool,
}

/// One statistics point (locks diagram input).
#[derive(Debug, Clone, Default)]
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

/// Cumulative time lost to one wait event (system-wide).
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default)]
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

impl WorkloadView {
    /// Build from the live monitor's ring buffers.
    pub fn from_monitor(monitor: &Monitor) -> WorkloadView {
        let stmts = monitor.statements();
        let workload = monitor.workload();
        let refs = monitor.references();

        let mut agg: HashMap<String, StmtAgg> = HashMap::with_capacity(stmts.len());
        for s in &stmts {
            agg.insert(
                s.hash.to_string(),
                StmtAgg {
                    hash: s.hash.to_string(),
                    text: s.text.clone(),
                    executions: 0,
                    actual: Cost::ZERO,
                    est: Cost::ZERO,
                    wallclock_ns: 0,
                    tables: Vec::new(),
                },
            );
        }
        for w in &workload {
            if let Some(a) = agg.get_mut(&w.hash.to_string()) {
                a.executions += 1;
                a.actual += Cost::new(w.exec_cpu as f64, w.exec_io as f64);
                a.est += w.est;
                a.wallclock_ns += w.wallclock_ns;
            }
        }
        for r in &refs {
            if r.object == ingot_core::monitor::RefObject::Table {
                if let Some(a) = agg.get_mut(&r.hash.to_string()) {
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
                .partial_cmp(&a.actual.total())
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let tables = monitor
            .tables()
            .into_iter()
            .map(|t| TableAgg {
                id: t.id,
                name: t.name,
                frequency: t.frequency,
                storage: t.storage,
                data_pages: t.data_pages,
                overflow_pages: t.overflow_pages,
                rows: t.rows,
            })
            .collect();
        let table_names: HashMap<TableId, String> = monitor
            .tables()
            .into_iter()
            .map(|t| (t.id, t.name))
            .collect();
        let attributes = monitor
            .attributes()
            .into_iter()
            .map(|a| AttrAgg {
                table: a.table,
                table_name: table_names.get(&a.table).cloned().unwrap_or_default(),
                column: a.column,
                name: a.name,
                frequency: a.frequency,
                has_histogram: a.has_histogram,
            })
            .collect();
        let statistics = monitor
            .statistics()
            .into_iter()
            .map(|s| StatPoint {
                at_secs: s.at_sim_secs,
                locks_held: s.locks_held,
                lock_waiting: s.lock_waiting,
                lock_waits_total: s.lock_waits_total,
                deadlocks_total: s.deadlocks_total,
            })
            .collect();
        WorkloadView {
            statements,
            tables,
            attributes,
            statistics,
            // The monitor's rings do not carry wait data; `from_engine`
            // fills these from the wait registry and the ASH sampler.
            waits: Vec::new(),
            ash: Vec::new(),
        }
    }

    /// Build from a live engine: the monitor view plus the wait-event and
    /// ASH aggregates the monitor alone cannot provide. Engines without
    /// monitoring yield an empty view; engines without the wait subsystem
    /// yield empty wait profiles.
    pub fn from_engine(engine: &Engine) -> WorkloadView {
        let mut view = engine
            .monitor()
            .map(|m| WorkloadView::from_monitor(m))
            .unwrap_or_default();
        if let Some(registry) = engine.wait_registry() {
            view.waits = registry
                .counters()
                .snapshot()
                .iter()
                .filter(|t| t.count > 0)
                .map(|t| WaitAgg {
                    event: t.event.name().to_owned(),
                    count: t.count,
                    total_ns: t.total_ns,
                })
                .collect();
        }
        if let Some(sampler) = engine.ash_sampler() {
            view.ash = fold_ash(sampler.history().into_iter().map(|s| {
                (
                    s.hash.to_string(),
                    s.template.to_string(),
                    s.event.to_owned(),
                )
            }));
        }
        view
    }

    /// Build from the persistent workload database (standard SQL reads, as
    /// the paper intends external analyzers to do).
    pub fn from_workload_db(db: &WorkloadDb) -> Result<WorkloadView> {
        // Statements: latest frequency per hash + text.
        let mut agg: HashMap<String, StmtAgg> = HashMap::new();
        for row in db.query("select hash, query_text from wl_statements")? {
            let hash = row.get(0).as_str().unwrap_or_default().to_owned();
            let text = row.get(1).as_str().unwrap_or_default().to_owned();
            agg.entry(hash.clone()).or_insert(StmtAgg {
                hash,
                text: String::new(),
                executions: 0,
                actual: Cost::ZERO,
                est: Cost::ZERO,
                wallclock_ns: 0,
                tables: Vec::new(),
            });
            // Rows arrive in append order; the last text wins (identical
            // anyway — the hash pins the text).
            if let Some(a) = agg.get_mut(row.get(0).as_str().unwrap_or_default()) {
                a.text = text;
            }
        }
        for row in db.query(
            "select hash, exec_cpu, exec_dio, est_cpu, est_dio, wallclock_ns from wl_workload",
        )? {
            let hash = row.get(0).as_str().unwrap_or_default();
            if let Some(a) = agg.get_mut(hash) {
                a.executions += 1;
                a.actual += Cost::new(
                    row.get(1).as_f64().unwrap_or(0.0),
                    row.get(2).as_f64().unwrap_or(0.0),
                );
                a.est += Cost::new(
                    row.get(3).as_f64().unwrap_or(0.0),
                    row.get(4).as_f64().unwrap_or(0.0),
                );
                a.wallclock_ns += row.get(5).as_int().unwrap_or(0) as u64;
            }
        }
        for row in
            db.query("select hash, table_id from wl_references where object_type = 'table'")?
        {
            let hash = row.get(0).as_str().unwrap_or_default();
            let table = TableId(row.get(1).as_int().unwrap_or(0) as u32);
            if let Some(a) = agg.get_mut(hash) {
                if !a.tables.contains(&table) {
                    a.tables.push(table);
                }
            }
        }
        let mut statements: Vec<StmtAgg> = agg.into_values().filter(|a| a.executions > 0).collect();
        statements.sort_by(|a, b| {
            b.actual
                .total()
                .partial_cmp(&a.actual.total())
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        // Tables / attributes: latest snapshot per object.
        let mut tables: HashMap<TableId, TableAgg> = HashMap::new();
        for row in db.query(
            "select table_id, table_name, frequency, storage, data_pages, overflow_pages, \
             row_count, ts from wl_tables order by ts",
        )? {
            let id = TableId(row.get(0).as_int().unwrap_or(0) as u32);
            tables.insert(
                id,
                TableAgg {
                    id,
                    name: row.get(1).as_str().unwrap_or_default().to_owned(),
                    frequency: row.get(2).as_int().unwrap_or(0) as u64,
                    storage: row.get(3).as_str().unwrap_or_default().to_owned(),
                    data_pages: row.get(4).as_int().unwrap_or(0) as u64,
                    overflow_pages: row.get(5).as_int().unwrap_or(0) as u64,
                    rows: row.get(6).as_int().unwrap_or(0) as u64,
                },
            );
        }
        let table_names: HashMap<TableId, String> =
            tables.values().map(|t| (t.id, t.name.clone())).collect();
        let mut attributes: HashMap<(TableId, usize), AttrAgg> = HashMap::new();
        for row in db.query(
            "select table_id, attr_id, attr_name, frequency, has_histogram, ts \
             from wl_attributes order by ts",
        )? {
            let table = TableId(row.get(0).as_int().unwrap_or(0) as u32);
            let column = row.get(1).as_int().unwrap_or(0) as usize;
            attributes.insert(
                (table, column),
                AttrAgg {
                    table,
                    table_name: table_names.get(&table).cloned().unwrap_or_default(),
                    column,
                    name: row.get(2).as_str().unwrap_or_default().to_owned(),
                    frequency: row.get(3).as_int().unwrap_or(0) as u64,
                    has_histogram: row.get(4).as_bool().unwrap_or(false),
                },
            );
        }
        let statistics = db
            .query(
                "select at_secs, locks_held, lock_waiting, lock_waits_total, deadlocks_total \
                 from wl_statistics order by at_ns",
            )?
            .into_iter()
            .map(|row| StatPoint {
                at_secs: row.get(0).as_int().unwrap_or(0) as u64,
                locks_held: row.get(1).as_int().unwrap_or(0) as u64,
                lock_waiting: row.get(2).as_int().unwrap_or(0) as u64,
                lock_waits_total: row.get(3).as_int().unwrap_or(0) as u64,
                deadlocks_total: row.get(4).as_int().unwrap_or(0) as u64,
            })
            .collect();

        // Wait totals: the rows are cumulative snapshots, so per event the
        // newest row carries the whole story.
        let mut waits: HashMap<String, WaitAgg> = HashMap::new();
        for row in db.query("select event, count, total_ns from wl_waits order by ts")? {
            let event = row.get(0).as_str().unwrap_or_default().to_owned();
            waits.insert(
                event.clone(),
                WaitAgg {
                    event,
                    count: row.get(1).as_int().unwrap_or(0) as u64,
                    total_ns: row.get(2).as_int().unwrap_or(0) as u64,
                },
            );
        }
        let mut waits: Vec<WaitAgg> = waits.into_values().filter(|w| w.count > 0).collect();
        waits.sort_by(|a, b| a.event.cmp(&b.event));

        let ash = fold_ash(
            db.query("select hash, statement, event from wl_ash")?
                .into_iter()
                .map(|row| {
                    (
                        row.get(0).as_str().unwrap_or_default().to_owned(),
                        row.get(1).as_str().unwrap_or_default().to_owned(),
                        row.get(2).as_str().unwrap_or_default().to_owned(),
                    )
                }),
        );

        let mut tables: Vec<TableAgg> = tables.into_values().collect();
        tables.sort_by_key(|t| t.id);
        let mut attributes: Vec<AttrAgg> = attributes.into_values().collect();
        attributes.sort_by_key(|a| (a.table, a.column));
        Ok(WorkloadView {
            statements,
            tables,
            attributes,
            statistics,
            waits,
            ash,
        })
    }
}

/// Group `(hash, template, event)` sample triples into [`AshAgg`] rows,
/// sorted busiest profile first.
fn fold_ash(samples: impl Iterator<Item = (String, String, String)>) -> Vec<AshAgg> {
    let mut agg: HashMap<(String, String), AshAgg> = HashMap::new();
    for (hash, template, event) in samples {
        let entry = agg
            .entry((hash.clone(), event.clone()))
            .or_insert_with(|| AshAgg {
                hash,
                template,
                event,
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
        let engine = engine_with_workload();
        let db = ingot_daemon::WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap();
        db.append_from(engine.monitor().unwrap(), 10).unwrap();
        let mv = WorkloadView::from_monitor(engine.monitor().unwrap());
        let dv = WorkloadView::from_workload_db(&db).unwrap();
        assert_eq!(mv.statements.len(), dv.statements.len());
        let m_sel = mv.statements.iter().find(|s| s.is_query()).unwrap();
        let d_sel = dv.statements.iter().find(|s| s.is_query()).unwrap();
        assert_eq!(m_sel.executions, d_sel.executions);
        assert_eq!(m_sel.tables, d_sel.tables);
        assert_eq!(mv.tables.len(), dv.tables.len());
        assert_eq!(mv.tables[0].rows, dv.tables[0].rows);
    }
}
