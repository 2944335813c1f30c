#![forbid(unsafe_code)]
//! The storage daemon (§IV-B of the paper).
//!
//! "Data storage is performed by a lightweight daemon running in the
//! background. The tool periodically wakes up and queries the IMA database
//! to get the newest data … and then appends the collected data to the
//! workload database."
//!
//! * Poll interval defaults to 30 s ("collecting up to 1000 statements
//!   within an interval of 30 seconds has proven to be enough").
//! * The workload database is a normal Ingot database with the same schema
//!   as the IMA tables plus snapshot timestamps, held in **real files** so
//!   the daemon's appends genuinely hit the disk.
//! * Entries are retained for seven days by default ("to allow recording
//!   the workload of a typical work week").
//! * An active alerting mechanism evaluates DBA-defined rules on every poll
//!   ("informs the DBA in case of a defined database event such as reaching
//!   the maximum number of users on the system").
//! * The daemon is **self-healing**: workload-DB failures run through a
//!   `Healthy → Degraded → Quarantined` state machine ([`health`]) with
//!   retry/backoff, a bounded catch-up buffer for missed snapshots, and
//!   self-alerts through the same [`alert::AlertState`] DBA rules use. Its
//!   counters are queryable as the `ima$daemon_health` virtual table.

pub mod alert;
pub mod growth;
pub mod health;
pub mod wldb;

pub use alert::{Alert, AlertRule};
pub use growth::GrowthStats;
pub use health::{DaemonHealth, HealthState};
pub use wldb::WorkloadDb;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ingot_common::waits::{WaitEvent, WaitGuard};
use ingot_common::{Error, Result, RetryPolicy};
use ingot_core::{Engine, Monitor};
use parking_lot::Mutex;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Wake-up interval. Paper default: 30 s.
    pub interval: Duration,
    /// Retention window in *simulated* seconds. Paper default: 7 days.
    pub retention_secs: u64,
    /// Flush the workload DB to disk after every poll (the paper's "writes
    /// to disk every few minutes" corresponds to flushing every N polls).
    pub polls_per_flush: u32,
    /// Backoff policy for transient workload-DB failures within one poll
    /// (waits advance the simulated clock, not the wall clock).
    pub retry: RetryPolicy,
    /// How many missed snapshots the daemon buffers while Degraded. When
    /// the buffer overflows the *oldest* timestamp is dropped (and counted
    /// in `ima$daemon_health.dropped_snapshots`).
    pub catchup_window: usize,
    /// Consecutive failed polls before the daemon quarantines itself.
    /// Permanent (non-transient) errors quarantine immediately.
    pub quarantine_after: u32,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            interval: Duration::from_secs(30),
            retention_secs: 7 * 24 * 3600,
            polls_per_flush: 4,
            retry: RetryPolicy::default(),
            catchup_window: 16,
            quarantine_after: 8,
        }
    }
}

/// Rule name under which the daemon raises alerts about itself.
pub const DAEMON_HEALTH_RULE: &str = "daemon_health";

/// The storage daemon: owns the workload DB and polls a monitored engine.
pub struct StorageDaemon {
    engine: Arc<Engine>,
    wldb: Arc<WorkloadDb>,
    config: DaemonConfig,
    alerts: Arc<alert::AlertState>,
    health: Arc<DaemonHealth>,
    /// Timestamps of snapshots that failed to append, oldest first,
    /// replayed in order once the workload DB heals.
    pending: Mutex<VecDeque<u64>>,
    last_purge_secs: AtomicU64,
}

impl StorageDaemon {
    /// Create a daemon for `engine`, writing into `wldb`. Attaches its
    /// health counters as the engine's `ima$daemon_health` table, so the
    /// daemon's own health is queryable over SQL like any other IMA data;
    /// a later daemon on the same engine takes the table over.
    pub fn new(engine: Arc<Engine>, wldb: Arc<WorkloadDb>, config: DaemonConfig) -> Self {
        let health = Arc::new(DaemonHealth::default());
        let h = Arc::clone(&health);
        // The catalog refuses only a name already taken, and `attach` checks
        // that under the same write guard: there is no error to handle.
        let _ = engine.attach(move || vec![h.snapshot()]);
        StorageDaemon {
            engine,
            wldb,
            config,
            alerts: Arc::new(alert::AlertState::default()),
            health,
            pending: Mutex::new(VecDeque::new()),
            last_purge_secs: AtomicU64::new(0),
        }
    }

    /// The daemon's health counters (also exposed as `ima$daemon_health`).
    pub fn health(&self) -> &Arc<DaemonHealth> {
        &self.health
    }

    /// The workload database.
    pub fn wldb(&self) -> &Arc<WorkloadDb> {
        &self.wldb
    }

    /// Register an alerting rule (the paper's trigger mechanism: "the DBA
    /// can easily set up his own alerts").
    pub fn add_rule(&self, rule: AlertRule) {
        self.alerts.add_rule(rule);
    }

    /// Alerts fired so far (drains the queue).
    pub fn take_alerts(&self) -> Vec<Alert> {
        self.alerts.take()
    }

    /// Number of polls performed.
    pub fn poll_count(&self) -> u64 {
        self.health.polls()
    }

    /// One synchronous poll: sample statistics, pull new monitor data into
    /// the workload DB, purge expired rows, evaluate alert rules, and
    /// (periodically) flush to disk. Deterministic — tests and experiment
    /// harnesses call this directly; [`StorageDaemon::spawn`] calls it on a
    /// timer.
    ///
    /// Failures run through the health-state machine: transient errors are
    /// retried with backoff inside the poll, then (still failing) degrade
    /// the daemon and buffer the snapshot timestamp for catch-up; permanent
    /// errors — or [`DaemonConfig::quarantine_after`] consecutive failures —
    /// quarantine it. Alert rules are evaluated on *every* poll regardless,
    /// so monitoring degrades gracefully instead of stopping.
    pub fn poll_once(&self) -> Result<()> {
        let polls = self.health.record_poll();
        // Statistics sensor fires on the daemon's schedule.
        self.engine.sample_statistics();
        // The ASH sampler is cooperative: the daemon is one of its tick
        // sources, so an engine idle between statements still gets sampled
        // on the poll cadence.
        if let Some(sampler) = self.engine.ash_sampler() {
            sampler.sample_if_due(self.engine.wall_clock().now_nanos());
        }
        // Version-chain GC rides the poll cadence, best-effort: a busy engine
        // (quiesce timeout) just means the chains wait for the next poll.
        let _ = self.engine.mvcc_gc();
        let Some(monitor) = self.engine.monitor() else {
            return Ok(());
        };
        let now_secs = self.engine.sim_clock().now_secs();

        let quarantined = self.health.state() == HealthState::Quarantined;
        let mut outcome = if quarantined {
            self.health.record_dropped(1);
            Err(Error::daemon(
                "storage daemon quarantined; snapshot dropped",
            ))
        } else {
            self.try_append(monitor, now_secs)
        };

        match &outcome {
            Ok(()) => {
                if let Err(e) = self.housekeep(polls, now_secs) {
                    self.note_failure(&e, now_secs);
                    outcome = Err(e);
                }
            }
            Err(e) => {
                if !quarantined {
                    // The current snapshot did not land; queue it so the
                    // next successful poll replays it.
                    self.buffer_snapshot(now_secs);
                }
                self.note_failure(e, now_secs);
            }
        }

        // Active alerting keeps working even while storage is down.
        if let Some(sample) = monitor.statistics().last() {
            self.alerts.evaluate(sample, now_secs);
        }
        outcome
    }

    /// Replay buffered snapshots oldest-first, then append the current one,
    /// each wrapped in the retry/backoff policy. On success the daemon is
    /// healthy again (with a recovery self-alert if it wasn't).
    fn try_append(&self, monitor: &Monitor, now_secs: u64) -> Result<()> {
        {
            // Replaying buffered snapshots is time the daemon spends catching
            // up instead of monitoring; charge it as DaemonCatchup so a DBA
            // can see recovery cost in `ima$wait_events`. No-op when the
            // buffer is empty or the wait subsystem is off.
            let _catchup = if self.pending.lock().is_empty() {
                WaitGuard::disabled()
            } else {
                WaitGuard::begin(self.engine.wait_registry(), WaitEvent::DaemonCatchup)
            };
            loop {
                let Some(ts) = self.pending.lock().front().copied() else {
                    break;
                };
                self.append_with_retry(monitor, ts)?;
                self.pending.lock().pop_front();
                self.health.record_recovered(1);
                self.health.set_buffered(self.pending.lock().len() as u64);
            }
        }
        self.append_with_retry(monitor, now_secs)?;
        if self.health.state() != HealthState::Healthy {
            self.health.set_state(HealthState::Healthy, now_secs);
            self.alerts.raise(
                DAEMON_HEALTH_RULE,
                "storage daemon recovered; buffered snapshots replayed",
                now_secs,
            );
        }
        Ok(())
    }

    fn append_with_retry(&self, monitor: &Monitor, ts: u64) -> Result<()> {
        let mut attempts = 0u64;
        let result = self
            .config
            .retry
            .run_sim(self.engine.sim_clock(), |attempt| {
                attempts = u64::from(attempt);
                self.wldb.append_from(monitor, ts)
            });
        self.health.record_retries(attempts.saturating_sub(1));
        result
    }

    /// Retention purge (at most once per simulated hour), the engine-level
    /// metrics snapshot, and the periodic durable flush — run only after a
    /// successful append.
    fn housekeep(&self, polls: u64, now_secs: u64) -> Result<()> {
        // Engine gauges/counters/histograms land next to the Fig 3 rows so
        // time-series queries can correlate them with the workload.
        self.wldb
            .append_metrics(&self.engine.metrics_snapshot(), now_secs)?;
        // Wait-event counters and new ASH samples ride the same cadence.
        self.wldb.append_waits(&self.engine, now_secs)?;
        let last = self.last_purge_secs.load(Ordering::Relaxed);
        if now_secs.saturating_sub(last) >= 3600 {
            self.last_purge_secs.store(now_secs, Ordering::Relaxed);
            self.wldb
                .purge_older_than(now_secs.saturating_sub(self.config.retention_secs))?;
        }
        if polls.is_multiple_of(u64::from(self.config.polls_per_flush.max(1))) {
            let mut attempts = 0u64;
            let result = self
                .config
                .retry
                .run_sim(self.engine.sim_clock(), |attempt| {
                    attempts = u64::from(attempt);
                    self.wldb.flush()
                });
            self.health.record_retries(attempts.saturating_sub(1));
            result?;
        }
        Ok(())
    }

    /// Queue a missed snapshot timestamp, dropping the oldest entries past
    /// the catch-up window.
    fn buffer_snapshot(&self, ts: u64) {
        let mut pending = self.pending.lock();
        if pending.back().copied() != Some(ts) {
            pending.push_back(ts);
        }
        let window = self.config.catchup_window.max(1);
        while pending.len() > window {
            pending.pop_front();
            self.health.record_dropped(1);
        }
        self.health.set_buffered(pending.len() as u64);
    }

    /// Record a failed poll and drive the state machine: permanent errors
    /// quarantine immediately, transient ones degrade and eventually
    /// quarantine after `quarantine_after` consecutive failures. Each
    /// transition raises a self-alert on the DBA alert channel.
    fn note_failure(&self, error: &Error, now_secs: u64) {
        let consecutive = self.health.record_failure(error);
        let threshold = u64::from(self.config.quarantine_after.max(1));
        if !error.is_transient() || consecutive >= threshold {
            if self.health.state() != HealthState::Quarantined {
                self.health.set_state(HealthState::Quarantined, now_secs);
                self.alerts.raise(
                    DAEMON_HEALTH_RULE,
                    format!(
                        "storage daemon quarantined after {consecutive} consecutive failure(s): {error}"
                    ),
                    now_secs,
                );
            }
        } else if self.health.state() == HealthState::Healthy {
            self.health.set_state(HealthState::Degraded, now_secs);
            self.alerts.raise(
                DAEMON_HEALTH_RULE,
                format!("storage daemon degraded (buffering snapshots): {error}"),
                now_secs,
            );
        }
    }

    /// Start the background thread. Returns a handle that stops and joins
    /// the daemon on drop (or via [`DaemonHandle::stop`]); errs if the OS
    /// refuses to spawn the thread.
    pub fn spawn(self) -> Result<DaemonHandle> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let interval = self.config.interval;
        let daemon = Arc::new(self);
        let daemon2 = Arc::clone(&daemon);
        let handle = std::thread::Builder::new()
            .name("ingot-daemon".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    // A failed poll must not kill the daemon: the health
                    // machine has recorded it (and alerted); the next
                    // interval retries or stays quarantined.
                    let _ = daemon2.poll_once();
                    // Sleep in small slices so stop() is responsive.
                    let mut remaining = interval;
                    let slice = Duration::from_millis(10);
                    while remaining > Duration::ZERO && !stop2.load(Ordering::Relaxed) {
                        let nap = remaining.min(slice);
                        // Daemon pacing is the one sanctioned sleeper: the
                        // monitor wakes on a wall-clock interval by design.
                        #[allow(clippy::disallowed_methods)]
                        std::thread::sleep(nap);
                        remaining = remaining.saturating_sub(nap);
                    }
                }
            })
            .map_err(|e| Error::daemon(format!("failed to spawn daemon thread: {e}")))?;
        Ok(DaemonHandle {
            daemon,
            stop,
            handle: Some(handle),
        })
    }
}

/// Handle to a running daemon thread.
pub struct DaemonHandle {
    daemon: Arc<StorageDaemon>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The daemon (for reading alerts, the workload DB, poll counts).
    pub fn daemon(&self) -> &Arc<StorageDaemon> {
        &self.daemon
    }

    /// Stop and join the background thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests wait out real daemon intervals
mod tests {
    use super::*;
    use ingot_common::EngineConfig;

    fn setup() -> (Arc<Engine>, Arc<WorkloadDb>) {
        let engine = Engine::builder()
            .config(EngineConfig::monitoring())
            .build()
            .unwrap();
        let wldb = Arc::new(WorkloadDb::in_memory(engine.sim_clock().clone()).unwrap());
        (engine, wldb)
    }

    #[test]
    fn poll_copies_monitor_data() {
        let (engine, wldb) = setup();
        let s = engine.open_session();
        s.execute("create table t (a int)").unwrap();
        s.execute("insert into t values (1)").unwrap();
        s.execute("select * from t").unwrap();
        let daemon = StorageDaemon::new(
            Arc::clone(&engine),
            Arc::clone(&wldb),
            DaemonConfig::default(),
        );
        daemon.poll_once().unwrap();
        assert_eq!(wldb.row_count("wl_statements").unwrap(), 3);
        assert_eq!(wldb.row_count("wl_workload").unwrap(), 3);
        assert!(wldb.row_count("wl_statistics").unwrap() >= 1);
        // A second poll with no new work appends nothing to the workload.
        daemon.poll_once().unwrap();
        assert_eq!(wldb.row_count("wl_workload").unwrap(), 3);
    }

    #[test]
    fn daemon_health_serves_the_latest_daemon() {
        let (engine, wldb) = setup();
        let first = StorageDaemon::new(
            Arc::clone(&engine),
            Arc::clone(&wldb),
            DaemonConfig::default(),
        );
        first.health().set_state(HealthState::Quarantined, 0);
        drop(first);
        let second = StorageDaemon::new(Arc::clone(&engine), wldb, DaemonConfig::default());
        second.poll_once().unwrap();
        let rows = engine
            .open_session()
            .execute("select state, polls from ima$daemon_health")
            .unwrap()
            .rows;
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0).as_str(), Some("healthy"));
        assert_eq!(rows[0].get(1).as_int(), Some(1));
    }

    #[test]
    fn background_thread_polls_and_stops() {
        let (engine, wldb) = setup();
        let s = engine.open_session();
        s.execute("create table t (a int)").unwrap();
        let daemon = StorageDaemon::new(
            Arc::clone(&engine),
            Arc::clone(&wldb),
            DaemonConfig {
                interval: Duration::from_millis(20),
                ..Default::default()
            },
        );
        let handle = daemon.spawn().unwrap();
        std::thread::sleep(Duration::from_millis(120));
        let polls = handle.daemon().poll_count();
        assert!(polls >= 3, "expected several polls, got {polls}");
        handle.stop();
    }

    #[test]
    fn retention_purges_old_rows() {
        let (engine, wldb) = setup();
        let s = engine.open_session();
        s.execute("create table t (a int)").unwrap();
        s.execute("select * from t").unwrap();
        let daemon = StorageDaemon::new(
            Arc::clone(&engine),
            Arc::clone(&wldb),
            DaemonConfig {
                retention_secs: 7 * 24 * 3600,
                ..Default::default()
            },
        );
        daemon.poll_once().unwrap();
        let before = wldb.row_count("wl_workload").unwrap();
        assert!(before > 0);
        // Fast-forward nine simulated days and poll again.
        engine.sim_clock().advance_secs(9 * 24 * 3600);
        daemon.poll_once().unwrap();
        assert_eq!(wldb.row_count("wl_workload").unwrap(), 0);
    }

    #[test]
    fn poll_appends_metrics_snapshots() {
        let (engine, wldb) = setup();
        let s = engine.open_session();
        s.execute("create table t (a int)").unwrap();
        s.execute("insert into t values (1)").unwrap();
        let daemon = StorageDaemon::new(
            Arc::clone(&engine),
            Arc::clone(&wldb),
            DaemonConfig::default(),
        );
        daemon.poll_once().unwrap();
        let n = wldb.row_count("wl_metrics").unwrap();
        assert!(n > 0, "expected metrics rows after a poll");
        let rows = wldb
            .query(
                "select value from wl_metrics \
                 where name = 'ingot_statistics_statements_executed'",
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].get(0).as_f64().unwrap() >= 2.0);
        // Each poll appends a fresh snapshot (time series, not upsert).
        daemon.poll_once().unwrap();
        assert!(wldb.row_count("wl_metrics").unwrap() > n);
    }

    #[test]
    fn alerts_fire_on_threshold() {
        let (engine, wldb) = setup();
        let s = engine.open_session();
        s.execute("create table t (a int)").unwrap();
        let daemon = StorageDaemon::new(Arc::clone(&engine), wldb, DaemonConfig::default());
        daemon.add_rule(AlertRule::max_sessions(1));
        let _s2 = engine.open_session();
        let _s3 = engine.open_session();
        daemon.poll_once().unwrap();
        let alerts = daemon.take_alerts();
        assert_eq!(alerts.len(), 1, "alerts: {alerts:?}");
        assert!(alerts[0].message.contains("sessions"));
        // Rules only re-fire after the condition clears.
        daemon.poll_once().unwrap();
        assert!(daemon.take_alerts().is_empty());
    }
}
