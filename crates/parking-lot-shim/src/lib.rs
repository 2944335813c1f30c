#![forbid(unsafe_code)]
//! Offline vendored shim for the `parking_lot` crate.
//!
//! The Ingot build image has no network access and no cargo registry cache, so
//! the handful of external crates the workspace depends on are vendored as
//! minimal local shims (see DESIGN.md §10.4 on the offline image). This one
//! provides the subset of `parking_lot` that Ingot actually uses — `Mutex`,
//! `RwLock`, `Condvar` with `wait_for`, and their guard types — implemented
//! over `std::sync`.
//!
//! Semantic differences from the real crate that matter here:
//!
//! * **No poisoning.** `parking_lot` locks are not poisoned by panicking
//!   holders; this shim matches that by unwrapping `PoisonError` into the
//!   inner guard, so a panicked test thread does not cascade.
//! * **Guards are plain wrappers.** `MutexGuard` wraps an
//!   `Option<std::sync::MutexGuard>` so `Condvar::wait_for` can take the std
//!   guard out and put the re-acquired one back, preserving the
//!   `&mut MutexGuard` calling convention of the real API.
//!
//! Like the real crate, a notify with nobody waiting costs one atomic load
//! (std's futex `Condvar` makes a `FUTEX_WAKE` syscall on every notify); see
//! [`Condvar`] for the contract that makes skipping the wake safe.
//!
//! Fairness and performance characteristics of the real crate are *not*
//! reproduced; correctness-wise this is a strict std mutex, which is all the
//! engine's lock-order and liveness invariants assume.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::Duration;

/// A mutual-exclusion primitive (std-backed, non-poisoning).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so Condvar::wait_for can move the std guard out and back.
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a new mutex in an unlocked state.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the underlying data.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            guard: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Attempt to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard { guard: Some(guard) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                guard: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard
            .as_deref()
            .unwrap_or_else(|| unreachable!("guard taken"))
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard
            .as_deref_mut()
            .unwrap_or_else(|| unreachable!("guard taken"))
    }
}

/// Result of a timed wait on a [`Condvar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable (std-backed) whose notify skips the wake when
/// nobody waits.
///
/// `wait` / `wait_for` count the caller as a waiter while it still holds the
/// guard and stop counting it once the guard is back; `notify_one` /
/// `notify_all` return after one atomic load when the count is 0.
///
/// **Contract:** change the state a waiter waits on under the mutex it
/// checks that state under (the notify itself may follow the unlock). Then
/// either the change came first, so the waiter sees it and never waits, or
/// the waiter counted itself before releasing the mutex the notifier took
/// after it, so the notifier's load sees the count. A state changed outside
/// that mutex can lose its wake-up — with std's condvar too, between the
/// waiter's check and its wait.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads inside `wait` / `wait_for`. Changed only while the waiter
    /// holds its mutex, which orders it before a notifier's load.
    waiters: AtomicUsize,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    fn has_waiters(&self) -> bool {
        self.waiters.load(Ordering::SeqCst) != 0
    }

    /// Wake one waiting thread.
    pub fn notify_one(&self) {
        if self.has_waiters() {
            self.inner.notify_one();
        }
    }

    /// Wake all waiting threads.
    pub fn notify_all(&self) {
        if self.has_waiters() {
            self.inner.notify_all();
        }
    }

    /// Block until notified, releasing `guard` while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.guard.take().unwrap_or_else(|| unreachable!());
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let reacquired = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.guard = Some(reacquired);
    }

    /// Block until notified or `timeout` elapses, releasing `guard` while
    /// waiting. Returns whether the wait timed out.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let std_guard = guard.guard.take().unwrap_or_else(|| unreachable!());
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (reacquired, result) = match self.inner.wait_timeout(std_guard, timeout) {
            Ok((g, r)) => (g, r),
            Err(poisoned) => poisoned.into_inner(),
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.guard = Some(reacquired);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

/// A reader-writer lock (std-backed, non-poisoning).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Shared-access guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-access guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Create a new reader-writer lock in an unlocked state.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the underlying data.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            guard: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            guard: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(guard) => f.debug_struct("RwLock").field("data", &&*guard).finish(),
            Err(_) => f.debug_struct("RwLock").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn mutex_basic_lock_unlock() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let start = Instant::now();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0, "a timeout uncounts");
        drop(g);
        let _relocked = m.lock();
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            while !*g {
                let res = cv.wait_for(&mut g, Duration::from_secs(5));
                assert!(!res.timed_out(), "waiter should be woken, not time out");
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
        assert_eq!(
            pair.1.waiters.load(Ordering::SeqCst),
            0,
            "a wake-up uncounts"
        );
    }

    /// Threads take turns through untimed `wait`s, each turn handed on by a
    /// notify after the unlock. A single lost wake-up strands the workers;
    /// the test then fails at its deadline instead of hanging.
    #[test]
    fn condvar_ping_pong_loses_no_wakeup() {
        const ROUNDS: u64 = 10_000;
        const DEADLINE: Duration = Duration::from_secs(60);
        // `notify_one` with two threads only: with more it may wake a thread
        // whose turn it is not, which waits again.
        for (threads, one) in [(2u64, true), (3, false)] {
            let shared = Arc::new((Mutex::new(0u64), Condvar::new()));
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            for me in 0..threads {
                let (shared, done_tx) = (Arc::clone(&shared), done_tx.clone());
                std::thread::spawn(move || {
                    let (turn, cv) = &*shared;
                    loop {
                        let mut t = turn.lock();
                        while *t < ROUNDS && *t % threads != me {
                            cv.wait(&mut t);
                        }
                        let done = *t >= ROUNDS;
                        if !done {
                            *t += 1;
                        }
                        drop(t);
                        if one {
                            cv.notify_one();
                        } else {
                            cv.notify_all();
                        }
                        if done {
                            let _ = done_tx.send(());
                            return;
                        }
                    }
                });
            }
            let deadline = Instant::now() + DEADLINE;
            for _ in 0..threads {
                let left = deadline.saturating_duration_since(Instant::now());
                if done_rx.recv_timeout(left).is_err() {
                    panic!("lost wake-up: {threads} threads stalled before {ROUNDS} turns");
                }
            }
            assert_eq!(*shared.0.lock(), ROUNDS);
            assert_eq!(shared.1.waiters.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn poisoned_mutex_is_recovered() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the std mutex");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
