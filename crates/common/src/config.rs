//! Engine configuration.

use std::fmt;
use std::str::FromStr;

use crate::error::{Error, Result};

/// How commits reach the disk through the write-ahead log.
///
/// `Always` fsyncs the WAL once per commit; `Group` batches concurrent
/// committers behind a single fsync (leader/follower, bounded by
/// [`EngineConfig::group_commit_window_us`]); `Off` skips the durability
/// barrier entirely — **test-only**: an acknowledged commit may be lost on
/// crash, exactly the gap the WAL exists to close.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WalFsyncMode {
    /// One fsync per commit (strongest latency isolation, slowest).
    Always,
    /// Leader/follower group commit: one fsync covers every commit that
    /// entered the window (the default).
    #[default]
    Group,
    /// No durability barrier. Test-only: commits are acknowledged before
    /// they are durable.
    Off,
}

impl fmt::Display for WalFsyncMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalFsyncMode::Always => write!(f, "always"),
            WalFsyncMode::Group => write!(f, "group"),
            WalFsyncMode::Off => write!(f, "off"),
        }
    }
}

impl FromStr for WalFsyncMode {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        match s.to_ascii_lowercase().as_str() {
            "always" => Ok(WalFsyncMode::Always),
            "group" => Ok(WalFsyncMode::Group),
            "off" => Ok(WalFsyncMode::Off),
            other => Err(Error::parse(format!(
                "unknown wal_fsync_mode '{other}' (expected always | group | off)"
            ))),
        }
    }
}

/// Tunable knobs of an engine instance.
///
/// The defaults mirror the paper's prototype: monitoring buffers hold 1 000
/// statements before wrapping; the storage daemon (configured separately in
/// `ingot-daemon`) polls every 30 s; heap tables allocate a fixed number of
/// main pages and overflow beyond them.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Buffer-pool capacity in pages. Kept deliberately small relative to
    /// generated data so the "database significantly larger than main
    /// memory" regime of the paper's evaluation is reproduced.
    pub buffer_pool_pages: usize,
    /// Whether the monitoring sensors are compiled in ("Monitoring" /
    /// "Daemon" setups) or absent ("Original" setup).
    pub monitor_enabled: bool,
    /// Ring-buffer capacity of the `statements` IMA table (paper default:
    /// "up to 1000 different statements until the buffer wraps around").
    pub monitor_statement_capacity: usize,
    /// Whether the structured tracing layer (stage + per-operator spans,
    /// latency histograms) starts enabled. Tracing requires monitoring; the
    /// flag can also be flipped at runtime (`SET trace = true` or
    /// `Engine::set_tracing`). Off by default so the statement path costs
    /// exactly what the "Monitoring" setup costs.
    pub trace_enabled: bool,
    /// Main-page extent initially allocated to a HEAP table; inserts beyond
    /// its capacity go to overflow pages (the paper's ">10 % overflow pages"
    /// rule keys off this).
    pub heap_main_pages: usize,
    /// Lock-wait timeout in milliseconds before giving up (deadlocks are
    /// detected eagerly; this bounds pathological waits).
    pub lock_timeout_ms: u64,
    /// Capacity (entries) of the shared plan cache keyed on statement
    /// templates. `0` disables plan caching entirely: every execution
    /// re-parses and re-optimizes, as the engine did before the cache.
    pub plan_cache_capacity: usize,
    /// How commits reach disk through the write-ahead log (see
    /// [`WalFsyncMode`]); `Off` is test-only.
    pub wal_fsync_mode: WalFsyncMode,
    /// Upper bound, in microseconds, on how long a group-commit leader
    /// dallies for followers to join its fsync batch. Must be non-zero when
    /// `wal_fsync_mode` is `Group` (enforced by `Engine::builder()`).
    pub group_commit_window_us: u64,
    /// Simulated latency of one WAL fsync, in microseconds, spun on the
    /// wall clock before the real fsync is issued. `0` (the default) keeps
    /// tests fast; benches set it to a device-realistic value so group
    /// commit amortises a *visible* cost, like the disk model's read latencies.
    pub wal_sync_delay_us: u64,
    /// Whether the wait-event subsystem (RAII wait guards on lock queues,
    /// WAL barriers, buffer I/O, retry backoff) and the ASH sampler are
    /// wired in. Requires `monitor_enabled`; flipping it off isolates the
    /// subsystem's cost.
    pub wait_events_enabled: bool,
    /// Active Session History sampling interval in milliseconds. The
    /// sampler is cooperative — it fires from statement begin/end and the
    /// daemon's poll, never from a dedicated thread — so this is the
    /// *minimum* spacing between samples. Must be non-zero when the wait
    /// subsystem is on (enforced by `Engine::builder()`).
    pub ash_sample_interval_ms: u64,
    /// Capacity (samples) of the ASH history ring behind `ima$ash`. Must be
    /// non-zero when the wait subsystem is on (enforced by
    /// `Engine::builder()`).
    pub ash_ring_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            buffer_pool_pages: 2048,
            monitor_enabled: true,
            monitor_statement_capacity: 1000,
            trace_enabled: false,
            heap_main_pages: 8,
            lock_timeout_ms: 5_000,
            plan_cache_capacity: 256,
            wal_fsync_mode: WalFsyncMode::Group,
            group_commit_window_us: 100,
            wal_sync_delay_us: 0,
            wait_events_enabled: true,
            ash_sample_interval_ms: 100,
            ash_ring_capacity: 4096,
        }
    }
}

impl EngineConfig {
    /// The paper's "Original" setup: the untouched engine, no sensors.
    pub fn original() -> Self {
        EngineConfig {
            monitor_enabled: false,
            ..Self::default()
        }
    }

    /// The paper's "Monitoring" setup: sensors compiled in.
    pub fn monitoring() -> Self {
        Self::default()
    }

    /// The "Monitoring" setup with the structured tracing layer enabled
    /// from the start (stage spans, per-operator spans, latency histograms).
    pub fn tracing() -> Self {
        EngineConfig {
            trace_enabled: true,
            ..Self::default()
        }
    }

    /// Builder-style override of the buffer-pool size.
    pub fn with_buffer_pool_pages(mut self, pages: usize) -> Self {
        self.buffer_pool_pages = pages;
        self
    }

    /// Builder-style override of the statement ring-buffer capacity.
    pub fn with_statement_capacity(mut self, cap: usize) -> Self {
        self.monitor_statement_capacity = cap;
        self
    }

    /// Builder-style override of heap main-page extent.
    pub fn with_heap_main_pages(mut self, pages: usize) -> Self {
        self.heap_main_pages = pages;
        self
    }

    /// Builder-style override of the runtime tracing flag.
    pub fn with_tracing(mut self, enabled: bool) -> Self {
        self.trace_enabled = enabled;
        self
    }

    /// Builder-style override of the plan-cache capacity (0 disables).
    pub fn with_plan_cache_capacity(mut self, entries: usize) -> Self {
        self.plan_cache_capacity = entries;
        self
    }

    /// Builder-style override of the WAL fsync mode.
    pub fn with_wal_fsync_mode(mut self, mode: WalFsyncMode) -> Self {
        self.wal_fsync_mode = mode;
        self
    }

    /// Builder-style override of the group-commit window (microseconds).
    pub fn with_group_commit_window_us(mut self, us: u64) -> Self {
        self.group_commit_window_us = us;
        self
    }

    /// Builder-style override of the simulated WAL fsync latency
    /// (microseconds); bench-oriented.
    pub fn with_wal_sync_delay_us(mut self, us: u64) -> Self {
        self.wal_sync_delay_us = us;
        self
    }

    /// Builder-style override of the wait-event + ASH subsystem flag.
    pub fn with_wait_events_enabled(mut self, enabled: bool) -> Self {
        self.wait_events_enabled = enabled;
        self
    }

    /// Builder-style override of the ASH sampling interval (milliseconds).
    pub fn with_ash_sample_interval_ms(mut self, ms: u64) -> Self {
        self.ash_sample_interval_ms = ms;
        self
    }

    /// Builder-style override of the ASH history-ring capacity (samples).
    pub fn with_ash_ring_capacity(mut self, samples: usize) -> Self {
        self.ash_ring_capacity = samples;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_differ_only_in_monitoring() {
        let orig = EngineConfig::original();
        let mon = EngineConfig::monitoring();
        assert!(!orig.monitor_enabled);
        assert!(mon.monitor_enabled);
        assert_eq!(orig.buffer_pool_pages, mon.buffer_pool_pages);
    }

    #[test]
    fn builder_overrides() {
        let c = EngineConfig::default()
            .with_buffer_pool_pages(16)
            .with_statement_capacity(10)
            .with_heap_main_pages(2);
        assert_eq!(c.buffer_pool_pages, 16);
        assert_eq!(c.monitor_statement_capacity, 10);
        assert_eq!(c.heap_main_pages, 2);
    }

    #[test]
    fn wal_fsync_mode_parse_display_roundtrip() {
        for mode in [WalFsyncMode::Always, WalFsyncMode::Group, WalFsyncMode::Off] {
            assert_eq!(mode.to_string().parse::<WalFsyncMode>().unwrap(), mode);
        }
        assert!("sometimes".parse::<WalFsyncMode>().is_err());
        assert_eq!(EngineConfig::default().wal_fsync_mode, WalFsyncMode::Group);
        assert!(EngineConfig::default().group_commit_window_us > 0);
    }

    #[test]
    fn wal_builder_overrides() {
        let c = EngineConfig::default()
            .with_wal_fsync_mode(WalFsyncMode::Always)
            .with_group_commit_window_us(250)
            .with_wal_sync_delay_us(50);
        assert_eq!(c.wal_fsync_mode, WalFsyncMode::Always);
        assert_eq!(c.group_commit_window_us, 250);
        assert_eq!(c.wal_sync_delay_us, 50);
    }
}
