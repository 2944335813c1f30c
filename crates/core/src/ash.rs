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
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use ingot_common::waits::{SessionWaits, WaitEvent, WaitRegistry, WaitRegistryHandle};
use ingot_common::{MonotonicClock, RingBuffer, StmtHash};
use parking_lot::Mutex;

use crate::monitor::records::{filed_text, hash, int, record, text, v_int};

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
///
/// Only the session's own thread writes the slot, with plain stores: a
/// state word that moves at every begin and end (odd while a statement is
/// published), the statement's hash and start. The template sits behind the
/// slot's own mutex, paired with its hash, and is swapped only when the hash
/// changes, so a repeated statement publishes and clears without a lock or
/// an `Arc` refcount. The sampler reads state, fields, template and state
/// again, and retries when the state moved in between.
#[derive(Debug)]
pub struct ActiveSession {
    waits: Arc<SessionWaits>,
    /// 0 before the first publish; then odd while a statement runs, even
    /// when idle.
    state: AtomicU64,
    hash: AtomicU64,
    start_ns: AtomicU64,
    template: Mutex<(StmtHash, Arc<str>)>,
}

/// Times a reader re-copies a slot that moved under it before skipping it.
const SLOT_READ_ATTEMPTS: usize = 4;

impl ActiveSession {
    fn new(session_id: u64, registry: Option<Arc<WaitRegistry>>) -> Self {
        ActiveSession {
            waits: Arc::new(SessionWaits::new(session_id, registry)),
            state: AtomicU64::new(0),
            hash: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            template: Mutex::new((StmtHash(0), Arc::from(""))),
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

    /// Publish the statement this session is now executing; `template` is
    /// cloned only when the hash differs from the previous statement's.
    /// Called by the session's own thread only.
    pub fn begin_statement(&self, hash: StmtHash, template: &Arc<str>, start_ns: u64) {
        let state = self.state.load(Ordering::Relaxed);
        if state == 0 || self.hash.load(Ordering::Relaxed) != hash.0 {
            *self.template.lock() = (hash, Arc::clone(template));
        }
        // Orders the previous state store before the field stores: a reader
        // that copies any of them sees the state move past its first read.
        fence(Ordering::Release);
        self.hash.store(hash.0, Ordering::Relaxed);
        self.start_ns.store(start_ns, Ordering::Relaxed);
        // Odd, and moved even if the previous statement was never cleared.
        let published = if state & 1 == 1 { state + 2 } else { state + 1 };
        self.state.store(published, Ordering::Release);
    }

    /// Clear the current statement (execution finished).
    pub fn end_statement(&self) {
        let state = self.state.load(Ordering::Relaxed);
        if state & 1 == 1 {
            self.state.store(state + 1, Ordering::Release);
        }
    }

    /// The statement currently executing, if any. `None` too when the
    /// session moved on while being read, several times in a row.
    pub fn current_statement(&self) -> Option<CurrentStatement> {
        for _ in 0..SLOT_READ_ATTEMPTS {
            let state = self.state.load(Ordering::Acquire);
            if state & 1 == 0 {
                return None;
            }
            let hash = StmtHash(self.hash.load(Ordering::Relaxed));
            let start_ns = self.start_ns.load(Ordering::Relaxed);
            let (paired, template) = {
                let t = self.template.lock();
                (t.0, Arc::clone(&t.1))
            };
            fence(Ordering::Acquire);
            if paired == hash && self.state.load(Ordering::Relaxed) == state {
                return Some(CurrentStatement {
                    hash,
                    template,
                    start_ns,
                });
            }
        }
        None
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
        slot.begin_statement(StmtHash::of("select 1"), &"select 1".into(), 1_000);
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
        slot.begin_statement(StmtHash::of("q"), &"q".into(), 0);
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
        slot.begin_statement(StmtHash::of("q"), &"q".into(), 0);
        for now in 1..100 {
            s.sample_now(now);
        }
        assert_eq!(s.history().len(), 8);
        assert_eq!(s.ring_capacity(), 8);
        assert_eq!(s.total_recorded(), 99);
    }

    #[test]
    fn a_repeated_statement_publishes_without_touching_its_template() {
        let s = sampler(1, 8);
        let slot = s.register_session(4);
        let first: Arc<str> = "select 1".into();
        let again: Arc<str> = "select 1".into();
        slot.begin_statement(StmtHash::of("select 1"), &first, 10);
        slot.end_statement();
        slot.begin_statement(StmtHash::of("select 1"), &again, 20);
        assert_eq!(Arc::strong_count(&again), 1, "no clone for a seen hash");
        let current = slot.current_statement().unwrap();
        assert!(Arc::ptr_eq(&current.template, &first));
        assert_eq!(current.start_ns, 20);
        // A new hash swaps the template in.
        let other: Arc<str> = "select 2".into();
        slot.begin_statement(StmtHash::of("select 2"), &other, 30);
        assert!(Arc::ptr_eq(
            &slot.current_statement().unwrap().template,
            &other
        ));
        slot.end_statement();
        assert!(slot.current_statement().is_none());
    }

    #[test]
    fn a_reader_never_pairs_a_hash_with_another_statements_template() {
        let s = sampler(1, 8);
        let slot = s.register_session(6);
        let statements: Vec<(StmtHash, Arc<str>)> = ["select 1", "select 2", "select 3"]
            .into_iter()
            .map(|t| (StmtHash::of(t), Arc::from(t)))
            .collect();
        std::thread::scope(|scope| {
            let (slot, statements) = (&slot, &statements);
            scope.spawn(move || {
                for i in 0..20_000u64 {
                    let (hash, template) = &statements[(i % 3) as usize];
                    slot.begin_statement(*hash, template, i);
                    slot.end_statement();
                }
            });
            for _ in 0..20_000 {
                if let Some(c) = slot.current_statement() {
                    assert_eq!(c.hash, StmtHash::of(&c.template), "{c:?}");
                }
            }
        });
    }

    #[test]
    fn deregister_removes_slot() {
        let s = sampler(1, 8);
        let slot = s.register_session(3);
        slot.begin_statement(StmtHash::of("q"), &"q".into(), 0);
        s.deregister_session(3);
        s.sample_now(10);
        assert!(s.history().is_empty());
    }
}
