//! Active Session History: periodic sampling of what every session is doing.
//!
//! Cumulative wait counters (`ima$wait_events`) say how much time the system
//! as a whole lost per event; they cannot say *which statements* were losing
//! it, or when. Oracle's answer — adopted here — is the Active Session
//! History: sample every active session on a fixed interval, recording the
//! statement template it is running and the wait event it is inside (or "on
//! CPU"), into a bounded ring. The ring approximates the full timeline at
//! 1/interval resolution for a fraction of the cost of tracing everything,
//! and grouping samples by `(template, event)` reconstructs each template's
//! wait profile — exactly the evidence the analyzer's wait-profile rules
//! need.
//!
//! The sampler is **cooperative**: [`AshSampler::sample_if_due`] is invoked
//! from statement begin/end and from the storage daemon's poll, never from a
//! dedicated thread. A successful compare-exchange on the last-sample
//! timestamp elects exactly one caller to take the sample, so concurrent
//! statements race benignly. Idle engines simply stop sampling — an empty
//! timeline costs nothing, which is also what keeps the subsystem inside the
//! paper's ~2 % overhead envelope.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ingot_common::waits::{SessionWaits, WaitEvent, WaitRegistry, WaitRegistryHandle};
use ingot_common::{DataType, MonotonicClock, RingBuffer, StmtHash, Value};
use parking_lot::Mutex;

use crate::monitor::records::{filed_text, hash, int, record, text, v_int, Cells, Record};

/// What a session is currently executing (live state read by the sampler).
#[derive(Debug, Clone)]
pub struct CurrentStatement {
    /// Statement hash (of the raw text, matching `ima$statements`).
    pub hash: StmtHash,
    /// Whitespace-normalized template (matching the plan cache key), shared
    /// with the statement's identity rather than copied per execution.
    pub template: Arc<str>,
    /// When execution began, wall-clock nanoseconds.
    pub start_ns: u64,
}

/// Per-session slot in the sampler's registry: the session's wait-accounting
/// sink plus its current statement, published at statement begin and cleared
/// at statement end.
#[derive(Debug)]
pub struct ActiveSession {
    waits: Arc<SessionWaits>,
    current: Mutex<Option<CurrentStatement>>,
}

impl ActiveSession {
    fn new(session_id: u64, registry: Option<Arc<WaitRegistry>>) -> Self {
        ActiveSession {
            waits: Arc::new(SessionWaits::new(session_id, registry)),
            current: Mutex::new(None),
        }
    }

    /// The session this slot belongs to.
    pub fn session_id(&self) -> u64 {
        self.waits.session_id()
    }

    /// The session's wait-accounting sink (bound to the executing thread
    /// for the duration of each statement).
    pub fn waits(&self) -> &Arc<SessionWaits> {
        &self.waits
    }

    /// Publish the statement this session is now executing.
    pub fn begin_statement(&self, hash: StmtHash, template: Arc<str>, start_ns: u64) {
        *self.current.lock() = Some(CurrentStatement {
            hash,
            template,
            start_ns,
        });
    }

    /// Clear the current statement (execution finished).
    pub fn end_statement(&self) {
        *self.current.lock() = None;
    }

    /// The statement currently executing, if any.
    pub fn current_statement(&self) -> Option<CurrentStatement> {
        self.current.lock().clone()
    }
}

/// One ASH sample: a session observed mid-statement at an instant.
#[derive(Debug, Clone)]
pub struct AshSample {
    /// When the sample was taken, wall-clock nanoseconds.
    pub at_ns: u64,
    /// The sampled session.
    pub session_id: u64,
    /// Hash of the running statement.
    pub hash: StmtHash,
    /// Template of the running statement.
    pub template: Arc<str>,
    /// How long the statement had been running at sample time.
    pub elapsed_ns: u64,
    /// Name of the wait event the session was inside, or [`ON_CPU`].
    pub event: &'static str,
}

/// The event name recorded when a sampled session is not inside any wait.
pub const ON_CPU: &str = "OnCpu";

// `ima$active_sessions` serves the same shape live.
record!(AshSample, "ima$ash", "wl_ash", |s, c| {
    "at_ns": Int = v_int(s.at_ns) => at_ns: int(c)?,
    "session": Int = v_int(s.session_id) => session_id: int(c)?,
    "hash": Str = s.hash.to_string() => hash: hash(c)?,
    "statement": Str = s.template.to_string() => template: text(c)?.into(),
    "elapsed_ns": Int = v_int(s.elapsed_ns) => elapsed_ns: int(c)?,
    "event": Str = s.event => event: event_name(text(c)?)?,
});

/// The `&'static` spelling of a stored event name.
fn event_name(name: &str) -> Option<&'static str> {
    if name == ON_CPU {
        return Some(ON_CPU);
    }
    WaitEvent::from_name(name).map(WaitEvent::name)
}

/// The cooperative ASH sampler: a registry of live sessions plus the
/// bounded sample ring behind `ima$ash`.
#[derive(Debug)]
pub struct AshSampler {
    clock: MonotonicClock,
    interval_ns: u64,
    last_sample_ns: AtomicU64,
    samples_taken: AtomicU64,
    /// The registry the registered sessions' waits are charged to as well.
    waits: WaitRegistryHandle,
    sessions: Mutex<HashMap<u64, Arc<ActiveSession>>>,
    ring: Mutex<RingBuffer<AshSample>>,
}

impl AshSampler {
    /// A sampler on `clock` taking at most one sample per `interval_ns`
    /// into a ring of `ring_capacity` samples.
    pub fn new(clock: MonotonicClock, interval_ns: u64, ring_capacity: usize) -> Self {
        AshSampler {
            clock,
            interval_ns: interval_ns.max(1),
            last_sample_ns: AtomicU64::new(0),
            samples_taken: AtomicU64::new(0),
            waits: WaitRegistryHandle::new(),
            sessions: Mutex::new(HashMap::new()),
            ring: Mutex::new(RingBuffer::new(ring_capacity)),
        }
    }

    /// Charge the waits of sessions registered from now on to `registry`
    /// too. Called once by the engine during wiring.
    pub fn set_wait_registry(&self, registry: Arc<WaitRegistry>) {
        self.waits.set(registry);
    }

    /// The configured minimum spacing between samples, nanoseconds.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Samples taken since construction (monotonic; the ring may have
    /// dropped older ones).
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken.load(Ordering::Relaxed)
    }

    /// Total samples ever pushed into the history ring.
    pub fn total_recorded(&self) -> u64 {
        self.ring.lock().total_pushed()
    }

    /// Register `session_id` and return its slot. Called by
    /// `Engine::open_session`.
    pub fn register_session(&self, session_id: u64) -> Arc<ActiveSession> {
        let slot = Arc::new(ActiveSession::new(session_id, self.waits.get().cloned()));
        self.sessions.lock().insert(session_id, Arc::clone(&slot));
        slot
    }

    /// Drop `session_id`'s slot. Called by `Session::drop`.
    pub fn deregister_session(&self, session_id: u64) {
        self.sessions.lock().remove(&session_id);
    }

    /// Live view of every session currently executing a statement — the
    /// rows of `ima$active_sessions`, computed at read time.
    pub fn active_snapshot(&self) -> Vec<AshSample> {
        let now = self.clock.now_nanos();
        self.snapshot_at(now)
    }

    /// Take a sample now if at least one interval has elapsed since the
    /// last. Exactly one concurrent caller wins the election; the rest (and
    /// too-early callers) return `false` without touching the ring.
    pub fn sample_if_due(&self, now_ns: u64) -> bool {
        let last = self.last_sample_ns.load(Ordering::Relaxed);
        if now_ns.saturating_sub(last) < self.interval_ns {
            return false;
        }
        if self
            .last_sample_ns
            .compare_exchange(last, now_ns, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return false; // another caller won this tick
        }
        self.sample_now(now_ns);
        true
    }

    /// Unconditionally take one sample at `now_ns` (tests, forced flushes).
    pub fn sample_now(&self, now_ns: u64) {
        let rows = self.snapshot_at(now_ns);
        if rows.is_empty() {
            // An all-idle instant still counts as a sample (the cadence
            // proptest keys off samples_taken), it just records no rows.
            self.samples_taken.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut ring = self.ring.lock();
        for row in rows {
            ring.push(row);
        }
        drop(ring);
        self.samples_taken.fetch_add(1, Ordering::Relaxed);
    }

    /// The history ring, oldest first — the rows of `ima$ash`.
    pub fn history(&self) -> Vec<AshSample> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Timestamp of the newest history row (0 while the ring is empty) — a
    /// high-water mark for incremental consumers that avoids cloning the
    /// ring just to learn nothing changed.
    pub fn latest_recorded_ns(&self) -> u64 {
        self.ring.lock().iter().last().map_or(0, |s| s.at_ns)
    }

    /// History-ring capacity.
    pub fn ring_capacity(&self) -> usize {
        self.ring.lock().capacity()
    }

    fn snapshot_at(&self, now_ns: u64) -> Vec<AshSample> {
        let sessions = self.sessions.lock();
        let mut rows: Vec<AshSample> = sessions
            .values()
            .filter_map(|slot| {
                let current = slot.current_statement()?;
                let event = slot
                    .waits()
                    .current_wait()
                    .map(|(e, _)| e.name())
                    .unwrap_or(ON_CPU);
                Some(AshSample {
                    at_ns: now_ns,
                    session_id: slot.session_id(),
                    hash: current.hash,
                    template: match filed_text(&current.template) {
                        cut if cut.len() < current.template.len() => cut.into(),
                        _ => current.template,
                    },
                    elapsed_ns: now_ns.saturating_sub(current.start_ns),
                    event,
                })
            })
            .collect();
        rows.sort_by_key(|r| r.session_id);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler(interval_ns: u64, cap: usize) -> AshSampler {
        AshSampler::new(MonotonicClock::new(), interval_ns, cap)
    }

    #[test]
    fn idle_engine_samples_no_rows() {
        let s = sampler(10, 16);
        assert!(s.sample_if_due(100));
        assert_eq!(s.samples_taken(), 1);
        assert!(s.history().is_empty());
    }

    #[test]
    fn active_statement_is_sampled_with_wait_state() {
        let s = sampler(10, 16);
        s.set_wait_registry(Arc::new(WaitRegistry::new()));
        let slot = s.register_session(5);
        slot.begin_statement(StmtHash::of("select 1"), "select 1".into(), 1_000);
        s.sample_now(3_000);
        let h = s.history();
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].session_id, 5);
        assert_eq!(h[0].event, ON_CPU);
        assert_eq!(h[0].elapsed_ns, 2_000);
        assert_eq!(&*h[0].template, "select 1");
        // Mid-wait the sample records the event name.
        let bound = ingot_common::waits::bind_session(Arc::clone(slot.waits()));
        let guard = ingot_common::waits::WaitGuard::begin(None, WaitEvent::LockWaitX);
        s.sample_now(4_000);
        drop(guard);
        drop(bound);
        let h = s.history();
        assert_eq!(h.len(), 2);
        assert_eq!(h[1].event, "LockWaitX");
        slot.end_statement();
        s.sample_now(5_000);
        assert_eq!(s.history().len(), 2, "idle sessions record no rows");
    }

    #[test]
    fn cadence_is_rate_limited_and_election_is_single_winner() {
        let s = sampler(100, 1024);
        let slot = s.register_session(1);
        slot.begin_statement(StmtHash::of("q"), "q".into(), 0);
        let mut taken = 0;
        for now in 0..1_000 {
            if s.sample_if_due(now) {
                taken += 1;
            }
        }
        // last_sample starts at 0, so the first due tick is now=100, then
        // 200 … 900: 9 samples from 1000 1ns-spaced calls.
        assert_eq!(taken, 9);
        assert_eq!(s.samples_taken(), 9);
    }

    #[test]
    fn ring_stays_bounded() {
        let s = sampler(1, 8);
        let slot = s.register_session(2);
        slot.begin_statement(StmtHash::of("q"), "q".into(), 0);
        for now in 1..100 {
            s.sample_now(now);
        }
        assert_eq!(s.history().len(), 8);
        assert_eq!(s.ring_capacity(), 8);
        assert_eq!(s.total_recorded(), 99);
    }

    #[test]
    fn deregister_removes_slot() {
        let s = sampler(1, 8);
        let slot = s.register_session(3);
        slot.begin_statement(StmtHash::of("q"), "q".into(), 0);
        s.deregister_session(3);
        s.sample_now(10);
        assert!(s.history().is_empty());
    }
}
