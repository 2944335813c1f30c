//! The wait-event taxonomy and its accounting plumbing.
//!
//! The monitor's sensors (ingot-core) measure where a statement's time is
//! *spent* — parse, optimize, execute. This module measures where time is
//! *lost*: blocked on a lock queue, dallying behind a group-commit leader,
//! waiting for a page to come off the disk. Each loss site charges a closed
//! [`WaitEvent`] through an RAII [`WaitGuard`], which attributes the
//! nanoseconds twice:
//!
//! * **globally**, to the engine's [`WaitRegistry`] (cumulative counters per
//!   event — the `ima$wait_events` source), and
//! * **per session**, to the [`SessionWaits`] bound to the executing thread
//!   (the ASH sampler reads the session's *current* wait from here).
//!
//! The module lives in `ingot-common` (not `ingot-trace`) because the
//! instrumented wait paths sit *below* the trace crate in the dependency
//! graph: `ingot-txn` and `ingot-storage` depend only on `ingot-common`.
//! `ingot-trace` re-exports everything here so observability consumers keep
//! a single import surface.
//!
//! Attribution uses an ambient thread-local binding ([`bind_session`]):
//! the engine binds the executing session's [`SessionWaits`] (which knows
//! the engine's registry) for the duration of one statement, and any guard
//! created further down the stack — the lock manager, the WAL, the buffer
//! pool — charges that session without threading handles through every
//! call signature. Code without an engine (unit tests, loom
//! models) simply constructs managers with no registry: every guard then
//! collapses to a no-op.
//!
//! Construction of wait guards is policed by `ingot-verify` (check 7): only
//! the instrumented modules may begin a wait, so the taxonomy stays closed.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::clock::MonotonicClock;

/// Number of wait-event kinds (array sizing for [`WaitCounters`]).
pub const WAIT_EVENT_COUNT: usize = 11;

/// The closed taxonomy of places a session can lose time.
///
/// "On CPU" is deliberately *not* a variant: a session that is not inside a
/// wait guard is on CPU by definition, and the ASH sampler records that as
/// the absence of a wait event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitEvent {
    /// Blocked acquiring a shared (read) lock.
    LockWaitS,
    /// Blocked acquiring an exclusive (write) lock.
    LockWaitX,
    /// Waiting on a WAL fsync durability barrier (the physical sync itself).
    WalFsync,
    /// Group commit: the leader dallying its window for followers to join
    /// the batch.
    GroupCommitDally,
    /// Buffer-pool miss: waiting for one read call to the disk backend, for
    /// a `fetch` miss's page or a scan's run of missing pages.
    BufferRead,
    /// Buffer pool at capacity: waiting for the eviction sweep (including
    /// dirty-page write-back) to free a frame.
    BufferEvict,
    /// The storage daemon replaying its catch-up buffer after an outage.
    DaemonCatchup,
    /// MVCC point lookup walking a version chain backwards from the head to
    /// find the version visible to an older snapshot. Long walks mean the
    /// GC watermark is lagging (a long-running snapshot pins old versions).
    VersionChainWalk,
    /// Parked on the transaction gate: a `begin` blocked while a checkpoint
    /// quiesce holds the gate closed, or the quiescer itself draining
    /// active transactions.
    TxnQuiesce,
    /// A committer waiting in the publish queue for every earlier commit
    /// timestamp to publish, so `commit_seq` advances without gaps.
    CommitPublish,
    /// Group commit: a follower parked behind a leader's fsync already in
    /// flight, until a barrier covers its LSN.
    GroupCommitFollow,
}

impl WaitEvent {
    /// Every event, in stable `index()` order.
    pub const ALL: [WaitEvent; WAIT_EVENT_COUNT] = [
        WaitEvent::LockWaitS,
        WaitEvent::LockWaitX,
        WaitEvent::WalFsync,
        WaitEvent::GroupCommitDally,
        WaitEvent::BufferRead,
        WaitEvent::BufferEvict,
        WaitEvent::DaemonCatchup,
        WaitEvent::VersionChainWalk,
        WaitEvent::TxnQuiesce,
        WaitEvent::CommitPublish,
        WaitEvent::GroupCommitFollow,
    ];

    /// Stable dense index (counter-array slot).
    pub fn index(self) -> usize {
        match self {
            WaitEvent::LockWaitS => 0,
            WaitEvent::LockWaitX => 1,
            WaitEvent::WalFsync => 2,
            WaitEvent::GroupCommitDally => 3,
            WaitEvent::BufferRead => 4,
            WaitEvent::BufferEvict => 5,
            WaitEvent::DaemonCatchup => 6,
            WaitEvent::VersionChainWalk => 7,
            WaitEvent::TxnQuiesce => 8,
            WaitEvent::CommitPublish => 9,
            WaitEvent::GroupCommitFollow => 10,
        }
    }

    /// Inverse of [`index`](Self::index).
    pub fn from_index(i: usize) -> Option<WaitEvent> {
        Self::ALL.get(i).copied()
    }

    /// Canonical name (used by IMA tables, metrics labels and the workload
    /// DB — parse back with [`from_name`](Self::from_name)).
    pub fn name(self) -> &'static str {
        match self {
            WaitEvent::LockWaitS => "LockWaitS",
            WaitEvent::LockWaitX => "LockWaitX",
            WaitEvent::WalFsync => "WalFsync",
            WaitEvent::GroupCommitDally => "GroupCommitDally",
            WaitEvent::BufferRead => "BufferRead",
            WaitEvent::BufferEvict => "BufferEvict",
            WaitEvent::DaemonCatchup => "DaemonCatchup",
            WaitEvent::VersionChainWalk => "VersionChainWalk",
            WaitEvent::TxnQuiesce => "TxnQuiesce",
            WaitEvent::CommitPublish => "CommitPublish",
            WaitEvent::GroupCommitFollow => "GroupCommitFollow",
        }
    }

    /// Parse a canonical name back into the event.
    pub fn from_name(name: &str) -> Option<WaitEvent> {
        Self::ALL.iter().copied().find(|e| e.name() == name)
    }
}

impl fmt::Display for WaitEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cumulative totals for one event (a [`WaitCounters`] snapshot row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTotal {
    /// The event.
    pub event: WaitEvent,
    /// How many waits completed.
    pub count: u64,
    /// Total nanoseconds lost to this event.
    pub total_ns: u64,
}

/// Lock-free per-event counters: one `(count, nanos)` pair per
/// [`WaitEvent`], charged with relaxed atomics so the hot paths never
/// serialize on the accounting.
#[derive(Debug, Default)]
pub struct WaitCounters {
    counts: [AtomicU64; WAIT_EVENT_COUNT],
    nanos: [AtomicU64; WAIT_EVENT_COUNT],
}

impl WaitCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge one completed wait of `ns` nanoseconds to `event`.
    pub fn charge(&self, event: WaitEvent, ns: u64) {
        let i = event.index();
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.nanos[i].fetch_add(ns, Ordering::Relaxed);
    }

    /// Completed waits for `event`.
    pub fn count(&self, event: WaitEvent) -> u64 {
        self.counts[event.index()].load(Ordering::Relaxed)
    }

    /// Nanoseconds lost to `event`.
    pub fn nanos(&self, event: WaitEvent) -> u64 {
        self.nanos[event.index()].load(Ordering::Relaxed)
    }

    /// Nanoseconds lost across every event.
    pub fn total_ns(&self) -> u64 {
        self.nanos
            .iter()
            .map(|n| n.load(Ordering::Relaxed))
            .fold(0u64, u64::saturating_add)
    }

    /// A row per event (zeros included, so consumers always see the full
    /// taxonomy).
    pub fn snapshot(&self) -> Vec<WaitTotal> {
        WaitEvent::ALL
            .iter()
            .map(|&event| WaitTotal {
                event,
                count: self.count(event),
                total_ns: self.nanos(event),
            })
            .collect()
    }
}

/// Engine-global wait accounting: the cumulative [`WaitCounters`] and the
/// clock waits are timed on. One registry per engine instance —
/// deliberately *not* a process global, so concurrently running engines
/// (tests spin up dozens) never cross-contaminate each other's profiles.
#[derive(Debug, Default)]
pub struct WaitRegistry {
    clock: MonotonicClock,
    counters: WaitCounters,
}

impl WaitRegistry {
    /// A registry with its own clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry timing waits on `clock` (the engine passes its wall clock
    /// so wait timestamps align with sensor timestamps).
    pub fn with_clock(clock: MonotonicClock) -> Self {
        WaitRegistry {
            clock,
            counters: WaitCounters::new(),
        }
    }

    /// The clock waits are measured on.
    pub fn clock(&self) -> MonotonicClock {
        self.clock
    }

    /// The global cumulative counters.
    pub fn counters(&self) -> &WaitCounters {
        &self.counters
    }

    /// Cumulative totals per event (always all [`WAIT_EVENT_COUNT`] rows).
    pub fn snapshot(&self) -> Vec<WaitTotal> {
        self.counters.snapshot()
    }

    /// Charge a completed wait of known duration (no guard). The session
    /// bound to the calling thread, if any, is charged too.
    pub fn charge(&self, event: WaitEvent, ns: u64) {
        let session = AMBIENT.with(|a| a.borrow().clone());
        self.commit_wait(event, ns, session.as_deref());
    }

    fn commit_wait(&self, event: WaitEvent, duration_ns: u64, session: Option<&SessionWaits>) {
        self.counters.charge(event, duration_ns);
        if let Some(waits) = session {
            waits.record(event, duration_ns);
        }
    }
}

/// Per-session wait accounting: cumulative counters and the session's
/// *current* wait state — the field the ASH sampler reads from another
/// thread, hence the atomics. It also names the session
/// and the engine registry its waits are charged to as well, so one handle
/// is all [`bind_session`] installs.
#[derive(Debug)]
pub struct SessionWaits {
    session_id: u64,
    registry: Option<Arc<WaitRegistry>>,
    counters: WaitCounters,
    /// Nanoseconds lost across every event: the statement path reads it
    /// before and after a statement instead of summing the per-event array.
    total_ns: AtomicU64,
    /// `0` = on CPU; otherwise `event.index() + 1`.
    current: AtomicUsize,
    /// When the current wait began (registry-clock nanoseconds).
    current_since_ns: AtomicU64,
}

impl SessionWaits {
    /// Accounting for session `session_id`. Guards begun while it is bound
    /// charge `registry` too; without one only guards handed a registry of
    /// their own measure.
    pub fn new(session_id: u64, registry: Option<Arc<WaitRegistry>>) -> Self {
        SessionWaits {
            session_id,
            registry,
            counters: WaitCounters::new(),
            total_ns: AtomicU64::new(0),
            current: AtomicUsize::new(0),
            current_since_ns: AtomicU64::new(0),
        }
    }

    /// The session these waits belong to.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// This session's cumulative counters.
    pub fn counters(&self) -> &WaitCounters {
        &self.counters
    }

    /// Nanoseconds this session lost across every event so far.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// The wait the session is inside right now, with its start timestamp —
    /// `None` means on CPU. Safe to call from any thread (the ASH sampler).
    pub fn current_wait(&self) -> Option<(WaitEvent, u64)> {
        let cur = self.current.load(Ordering::Acquire);
        let event = WaitEvent::from_index(cur.checked_sub(1)?)?;
        Some((event, self.current_since_ns.load(Ordering::Relaxed)))
    }

    /// Mark `event` as the session's current wait, returning the previous
    /// current-wait state so the owning [`WaitGuard`] can [`restore`]
    /// (Self::restore) it on drop. Returning-and-restoring (rather than
    /// clearing to zero) keeps the ASH view correct if guards ever nest or
    /// a [`WaitRegistry::charge`] lands while an outer guard is active.
    fn enter(&self, event: WaitEvent, now_ns: u64) -> (usize, u64) {
        let prev = (
            self.current.load(Ordering::Acquire),
            self.current_since_ns.load(Ordering::Relaxed),
        );
        self.current_since_ns.store(now_ns, Ordering::Relaxed);
        self.current.store(event.index() + 1, Ordering::Release);
        prev
    }

    /// Restore a current-wait state previously returned by [`enter`]
    /// (Self::enter).
    fn restore(&self, prev: (usize, u64)) {
        self.current_since_ns.store(prev.1, Ordering::Relaxed);
        self.current.store(prev.0, Ordering::Release);
    }

    /// Charge one completed wait. Deliberately does *not* touch the
    /// current-wait state: a duration-only charge ([`WaitRegistry::charge`])
    /// may land while an outer [`WaitGuard`] is still active, and clearing
    /// `current` here would make the ASH sampler see the rest of that outer
    /// wait as on-CPU. The guard that set the state
    /// restores it on drop instead.
    fn record(&self, event: WaitEvent, duration_ns: u64) {
        self.counters.charge(event, duration_ns);
        self.total_ns.fetch_add(duration_ns, Ordering::Relaxed);
    }
}

thread_local! {
    static AMBIENT: RefCell<Option<Arc<SessionWaits>>> = const { RefCell::new(None) };
}

/// RAII restore of the previous ambient binding (see [`bind_session`]).
pub struct SessionBinding {
    prev: Option<Arc<SessionWaits>>,
}

impl Drop for SessionBinding {
    fn drop(&mut self) {
        AMBIENT.with(|a| *a.borrow_mut() = self.prev.take());
    }
}

/// Bind `session` to the calling thread for the lifetime of the returned
/// guard. Every wait begun on this thread — however deep in the stack — is
/// then charged to it and to its registry. The engine installs this around
/// each statement execution (one reference-count round trip); nesting
/// restores the previous binding on drop.
pub fn bind_session(session: Arc<SessionWaits>) -> SessionBinding {
    SessionBinding {
        prev: AMBIENT.with(|a| a.borrow_mut().replace(session)),
    }
}

struct GuardInner {
    event: WaitEvent,
    start_ns: u64,
    registry: Arc<WaitRegistry>,
    session: Option<Arc<SessionWaits>>,
    /// The session's current-wait state when this guard began, restored on
    /// drop (meaningful only when `session` is `Some`).
    prev_wait: (usize, u64),
}

/// RAII wait measurement: created at the top of a wait path, charges the
/// elapsed nanoseconds to the registry (and the ambient session, when one is
/// bound) on drop. A guard with no registry — neither passed nor ambient —
/// is a no-op, which is how un-instrumented constructions (loom models,
/// plain unit tests) pay nothing.
///
/// Dropping restores the session's current-wait state to what it was when
/// the guard began, so an inner wait ending never erases an outer one from
/// the ASH view. Instrumented paths should still avoid *nesting* guards:
/// the cumulative counters charge each guard its full elapsed time, so
/// nested guards double-count the overlapping nanoseconds.
pub struct WaitGuard {
    inner: Option<GuardInner>,
}

impl WaitGuard {
    /// Begin timing `event`. `registry` is the instrumented component's
    /// injected handle; when `None`, the thread's ambient registry (bound by
    /// the engine around statement execution) is used instead.
    pub fn begin(registry: Option<&Arc<WaitRegistry>>, event: WaitEvent) -> WaitGuard {
        let session = AMBIENT.with(|a| a.borrow().clone());
        let registry = registry
            .or_else(|| session.as_ref().and_then(|s| s.registry.as_ref()))
            .cloned();
        let Some(registry) = registry else {
            return WaitGuard { inner: None };
        };
        let start_ns = registry.clock().now_nanos();
        let prev_wait = match &session {
            Some(waits) => waits.enter(event, start_ns),
            None => (0, 0),
        };
        WaitGuard {
            inner: Some(GuardInner {
                event,
                start_ns,
                registry,
                session,
                prev_wait,
            }),
        }
    }

    /// Begin timing `event` against the thread's ambient binding only.
    pub fn ambient(event: WaitEvent) -> WaitGuard {
        Self::begin(None, event)
    }

    /// A guard that charges nothing (explicit disabled path).
    pub fn disabled() -> WaitGuard {
        WaitGuard { inner: None }
    }

    /// Is this guard actually measuring?
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for WaitGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let now = inner.registry.clock().now_nanos();
            let duration = now.saturating_sub(inner.start_ns);
            inner
                .registry
                .commit_wait(inner.event, duration, inner.session.as_deref());
            if let Some(waits) = &inner.session {
                waits.restore(inner.prev_wait);
            }
        }
    }
}

/// A lazily-injected registry handle for components built before the engine
/// (lock manager, buffer pool, WAL): starts empty, set exactly once during
/// engine construction, read with one atomic-ish `get` on the wait paths.
#[derive(Debug, Default)]
pub struct WaitRegistryHandle {
    slot: OnceLock<Arc<WaitRegistry>>,
}

impl WaitRegistryHandle {
    /// An unset handle (all guards no-op until [`set`](Self::set)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the registry. Later calls are ignored — the first engine to
    /// wire a component wins, and components are never shared across engines.
    pub fn set(&self, registry: Arc<WaitRegistry>) {
        let _ = self.slot.set(registry);
    }

    /// The installed registry, if any.
    pub fn get(&self) -> Option<&Arc<WaitRegistry>> {
        self.slot.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_is_closed_and_stable() {
        assert_eq!(WaitEvent::ALL.len(), WAIT_EVENT_COUNT);
        for (i, e) in WaitEvent::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
            assert_eq!(WaitEvent::from_index(i), Some(*e));
            assert_eq!(WaitEvent::from_name(e.name()), Some(*e));
            assert_eq!(e.to_string(), e.name());
        }
        assert_eq!(WaitEvent::from_index(WAIT_EVENT_COUNT), None);
        assert_eq!(WaitEvent::from_name("NoSuchWait"), None);
        // The canonical names, pinned: IMA rows, wl_waits rows and metric
        // labels all carry these strings.
        let names: Vec<&str> = WaitEvent::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            [
                "LockWaitS",
                "LockWaitX",
                "WalFsync",
                "GroupCommitDally",
                "BufferRead",
                "BufferEvict",
                "DaemonCatchup",
                "VersionChainWalk",
                "TxnQuiesce",
                "CommitPublish",
                "GroupCommitFollow",
            ]
        );
    }

    #[test]
    fn counters_charge_and_snapshot() {
        let c = WaitCounters::new();
        c.charge(WaitEvent::WalFsync, 100);
        c.charge(WaitEvent::WalFsync, 50);
        c.charge(WaitEvent::BufferRead, 7);
        assert_eq!(c.count(WaitEvent::WalFsync), 2);
        assert_eq!(c.nanos(WaitEvent::WalFsync), 150);
        assert_eq!(c.total_ns(), 157);
        let snap = c.snapshot();
        assert_eq!(snap.len(), WAIT_EVENT_COUNT);
        assert!(snap
            .iter()
            .any(|t| t.event == WaitEvent::BufferRead && t.count == 1 && t.total_ns == 7));
        assert!(snap
            .iter()
            .any(|t| t.event == WaitEvent::LockWaitS && t.count == 0));
    }

    #[test]
    fn guard_charges_registry_and_bound_session() {
        let registry = Arc::new(WaitRegistry::new());
        let session = Arc::new(SessionWaits::new(7, Some(Arc::clone(&registry))));
        let bound = bind_session(Arc::clone(&session));
        {
            let guard = WaitGuard::begin(Some(&registry), WaitEvent::LockWaitX);
            assert!(guard.is_active());
            // Mid-wait, the session's current state is visible.
            let (event, _since) = session.current_wait().expect("waiting");
            assert_eq!(event, WaitEvent::LockWaitX);
        }
        drop(bound);
        assert_eq!(registry.counters().count(WaitEvent::LockWaitX), 1);
        assert_eq!(session.counters().count(WaitEvent::LockWaitX), 1);
        assert_eq!(
            session.total_ns(),
            session.counters().total_ns(),
            "the running total is the sum over events"
        );
        assert!(session.current_wait().is_none(), "back on CPU");
    }

    #[test]
    fn unbound_guard_is_a_noop() {
        let guard = WaitGuard::ambient(WaitEvent::DaemonCatchup);
        assert!(!guard.is_active());
        drop(guard);
        assert!(!WaitGuard::disabled().is_active());
    }

    #[test]
    fn registry_handle_sets_once() {
        let handle = WaitRegistryHandle::new();
        assert!(handle.get().is_none());
        let a = Arc::new(WaitRegistry::new());
        let b = Arc::new(WaitRegistry::new());
        handle.set(Arc::clone(&a));
        handle.set(b);
        assert!(Arc::ptr_eq(handle.get().expect("set"), &a));
    }

    #[test]
    fn charge_during_wait_keeps_current_state() {
        // A duration-only charge landing mid-wait (WaitRegistry::charge with
        // the session bound) must not clear the session's current-wait state
        // — the ASH sampler would otherwise see the rest of the outer wait as
        // on-CPU (regression: SessionWaits::record stored 0 into current).
        let registry = Arc::new(WaitRegistry::new());
        let session = Arc::new(SessionWaits::new(5, Some(Arc::clone(&registry))));
        let bound = bind_session(Arc::clone(&session));
        {
            let _outer = WaitGuard::begin(Some(&registry), WaitEvent::WalFsync);
            registry.charge(WaitEvent::DaemonCatchup, 1_000);
            let (event, _since) = session.current_wait().expect("still waiting");
            assert_eq!(event, WaitEvent::WalFsync);
        }
        assert!(session.current_wait().is_none(), "back on CPU");
        drop(bound);
        assert_eq!(session.counters().count(WaitEvent::DaemonCatchup), 1);
        assert_eq!(session.counters().count(WaitEvent::WalFsync), 1);
    }

    #[test]
    fn nested_guard_restores_outer_wait() {
        // Instrumented paths should not nest guards (the counters would
        // double-charge the overlap), but if they ever do, the inner guard's
        // drop restores the outer wait's state rather than clearing it.
        let registry = Arc::new(WaitRegistry::new());
        let session = Arc::new(SessionWaits::new(6, Some(Arc::clone(&registry))));
        let bound = bind_session(Arc::clone(&session));
        {
            let _outer = WaitGuard::begin(Some(&registry), WaitEvent::LockWaitX);
            let (_, outer_since) = session.current_wait().expect("outer waiting");
            {
                let _inner = WaitGuard::begin(Some(&registry), WaitEvent::BufferRead);
                let (event, _since) = session.current_wait().expect("inner waiting");
                assert_eq!(event, WaitEvent::BufferRead);
            }
            let (event, since) = session.current_wait().expect("outer restored");
            assert_eq!(event, WaitEvent::LockWaitX);
            assert_eq!(since, outer_since);
        }
        assert!(session.current_wait().is_none(), "back on CPU");
        drop(bound);
    }

    #[test]
    fn nested_bindings_restore() {
        let r1 = Arc::new(WaitRegistry::new());
        let s1 = Arc::new(SessionWaits::new(1, Some(Arc::clone(&r1))));
        let r2 = Arc::new(WaitRegistry::new());
        let s2 = Arc::new(SessionWaits::new(2, Some(Arc::clone(&r2))));
        // An ambient guard charges the registry of whichever session is
        // bound when it begins.
        let outer = bind_session(Arc::clone(&s1));
        {
            let _inner = bind_session(Arc::clone(&s2));
            drop(WaitGuard::ambient(WaitEvent::DaemonCatchup));
        }
        drop(WaitGuard::ambient(WaitEvent::BufferRead));
        drop(outer);
        assert_eq!(r2.counters().count(WaitEvent::DaemonCatchup), 1);
        assert_eq!(r2.counters().count(WaitEvent::BufferRead), 0);
        assert_eq!(r1.counters().count(WaitEvent::BufferRead), 1);
        assert_eq!(r1.counters().count(WaitEvent::DaemonCatchup), 0);
        assert_eq!(s2.counters().count(WaitEvent::DaemonCatchup), 1);
        assert_eq!(s1.counters().count(WaitEvent::BufferRead), 1);
    }
}
