#![forbid(unsafe_code)]
//! A miniature, dependency-free stand-in for the [loom] model checker.
//!
//! The real loom crate is not vendorable in this offline workspace, so this
//! shim reproduces the *shape* of loom testing — `loom::model(|| …)` bodies
//! that exercise synchronisation primitives across many interleavings — with
//! **seeded schedule perturbation** instead of exhaustive state-space
//! exploration: every `model` iteration reseeds a global xorshift stream,
//! and each primitive operation consults it to inject `yield_now` calls and
//! microsecond stalls at the acquire/notify boundaries where interleavings
//! matter. This is the spirit of loom's bounded "random" strategy: far
//! weaker than exhaustive DPOR, far stronger than a single lucky schedule.
//!
//! API surface: `loom::model`, `loom::thread::{spawn, yield_now}`,
//! `loom::sync::{Arc, Mutex, Condvar, RwLock}` and
//! `loom::sync::atomic::{AtomicU64, fence, Ordering}`. The sync types mirror
//! **parking_lot's** API (not std's poisoning API), because that is what the
//! production code under test uses — `#[cfg(loom)]` swaps the import and
//! nothing else changes.
//!
//! [loom]: https://docs.rs/loom

pub mod rt {
    //! The seeded perturbation stream shared by every shim primitive.

    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    static STATE: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);

    /// Reseed the stream (start of a `model` iteration).
    pub fn reset(seed: u64) {
        STATE.store(seed | 1, Ordering::SeqCst);
    }

    fn next() -> u64 {
        // fetch_add of an odd constant makes every call site draw a distinct
        // value even under contention; the mix below decorrelates them.
        let s = STATE.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        let mut x = s ^ (s >> 33);
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 29;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^ (x >> 32)
    }

    /// Perturbation point: called before lock acquisition, after release,
    /// and around notifies. Sometimes yields the OS slice, occasionally
    /// stalls long enough for another thread to win a race window.
    #[allow(clippy::disallowed_methods)] // the stall *is* the perturbation
    pub fn maybe_yield() {
        let x = next();
        if x.is_multiple_of(4) {
            std::thread::yield_now();
        } else if x.is_multiple_of(61) {
            std::thread::sleep(Duration::from_micros(x % 50));
        }
    }
}

pub mod thread {
    //! `std::thread` with perturbed spawn/join edges.

    pub use std::thread::{yield_now, JoinHandle};

    /// Spawn with a perturbation point on both sides of the thread start,
    /// so the parent racing the child is itself part of the explored space.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        crate::rt::maybe_yield();
        std::thread::spawn(move || {
            crate::rt::maybe_yield();
            f()
        })
    }
}

pub mod sync {
    //! parking_lot-shaped sync primitives with perturbation points.

    pub use std::sync::Arc;

    use std::time::Duration;

    pub use parking_lot::{MutexGuard, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult};

    /// [`parking_lot::Mutex`] with schedule perturbation on `lock`.
    #[derive(Default)]
    pub struct Mutex<T>(parking_lot::Mutex<T>);

    impl<T> Mutex<T> {
        /// A new unlocked mutex.
        pub fn new(value: T) -> Self {
            Mutex(parking_lot::Mutex::new(value))
        }

        /// Acquire, with perturbation before and after the acquire edge.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            crate::rt::maybe_yield();
            let g = self.0.lock();
            crate::rt::maybe_yield();
            g
        }
    }

    /// [`parking_lot::Condvar`] with perturbation around wait/notify.
    #[derive(Default)]
    pub struct Condvar(parking_lot::Condvar);

    impl Condvar {
        /// A new condition variable.
        pub fn new() -> Self {
            Condvar(parking_lot::Condvar::new())
        }

        /// Wake every waiter (perturbed so the wake races re-acquisition).
        pub fn notify_all(&self) {
            crate::rt::maybe_yield();
            self.0.notify_all();
        }

        /// Wake one waiter.
        pub fn notify_one(&self) {
            crate::rt::maybe_yield();
            self.0.notify_one();
        }

        /// Timed wait; the guard is re-acquired before returning.
        pub fn wait_for<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            timeout: Duration,
        ) -> WaitTimeoutResult {
            crate::rt::maybe_yield();
            let r = self.0.wait_for(guard, timeout);
            crate::rt::maybe_yield();
            r
        }
    }

    /// [`parking_lot::RwLock`] with schedule perturbation on both modes.
    #[derive(Default)]
    pub struct RwLock<T>(parking_lot::RwLock<T>);

    impl<T> RwLock<T> {
        /// A new unlocked lock.
        pub fn new(value: T) -> Self {
            RwLock(parking_lot::RwLock::new(value))
        }

        /// Shared acquire.
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            crate::rt::maybe_yield();
            let g = self.0.read();
            crate::rt::maybe_yield();
            g
        }

        /// Exclusive acquire.
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            crate::rt::maybe_yield();
            let g = self.0.write();
            crate::rt::maybe_yield();
            g
        }
    }

    pub mod atomic {
        //! `std::sync::atomic` with a perturbation point on both sides of
        //! every operation, so a protocol built from plain atomics (a
        //! sequence-stamped slot, a claim counter) is interleaved at each
        //! step rather than only at lock edges.

        pub use std::sync::atomic::{fence, Ordering};

        /// [`std::sync::atomic::AtomicU64`] with schedule perturbation.
        #[derive(Debug, Default)]
        pub struct AtomicU64(std::sync::atomic::AtomicU64);

        /// Run one atomic operation between two perturbation points.
        fn perturbed<R>(op: impl FnOnce() -> R) -> R {
            crate::rt::maybe_yield();
            let r = op();
            crate::rt::maybe_yield();
            r
        }

        impl AtomicU64 {
            /// A new atomic holding `v`.
            pub const fn new(v: u64) -> Self {
                AtomicU64(std::sync::atomic::AtomicU64::new(v))
            }

            /// Load.
            pub fn load(&self, order: Ordering) -> u64 {
                perturbed(|| self.0.load(order))
            }

            /// Store.
            pub fn store(&self, v: u64, order: Ordering) {
                perturbed(|| self.0.store(v, order))
            }

            /// Add, returning the previous value.
            pub fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
                perturbed(|| self.0.fetch_add(v, order))
            }

            /// Compare-and-exchange.
            pub fn compare_exchange(
                &self,
                current: u64,
                new: u64,
                success: Ordering,
                failure: Ordering,
            ) -> Result<u64, u64> {
                perturbed(|| self.0.compare_exchange(current, new, success, failure))
            }

            /// Compare-and-exchange that may fail spuriously.
            pub fn compare_exchange_weak(
                &self,
                current: u64,
                new: u64,
                success: Ordering,
                failure: Ordering,
            ) -> Result<u64, u64> {
                perturbed(|| self.0.compare_exchange_weak(current, new, success, failure))
            }
        }
    }
}

/// Run `f` under many perturbed schedules (default 64; override with
/// `LOOM_ITERS`). Mirrors `loom::model`: panics/assert failures inside `f`
/// propagate and fail the test.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let iters: u64 = std::env::var("LOOM_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    for i in 0..iters {
        rt::reset(0x5DEE_CE66_D001 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        f();
    }
}

#[cfg(test)]
mod tests {
    use super::sync::{Arc, Condvar, Mutex, RwLock};
    use std::time::Duration;

    #[test]
    fn model_runs_many_iterations() {
        let count = Arc::new(Mutex::new(0u32));
        let c = Arc::clone(&count);
        super::model(move || {
            *c.lock() += 1;
        });
        assert_eq!(*count.lock(), 64);
    }

    #[test]
    fn mutex_counter_is_race_free() {
        super::model(|| {
            let m = Arc::new(Mutex::new(0u64));
            let hs: Vec<_> = (0..3)
                .map(|_| {
                    let m = Arc::clone(&m);
                    super::thread::spawn(move || {
                        for _ in 0..10 {
                            *m.lock() += 1;
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(*m.lock(), 30);
        });
    }

    #[test]
    fn atomic_counter_is_race_free() {
        use super::sync::atomic::{AtomicU64, Ordering};
        super::model(|| {
            let n = Arc::new(AtomicU64::new(0));
            let hs: Vec<_> = (0..3)
                .map(|_| {
                    let n = Arc::clone(&n);
                    super::thread::spawn(move || {
                        for _ in 0..10 {
                            n.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::Relaxed), 30);
            assert_eq!(
                n.compare_exchange(30, 31, Ordering::AcqRel, Ordering::Relaxed),
                Ok(30)
            );
        });
    }

    #[test]
    fn condvar_wait_for_times_out_and_wakes() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(1));
        assert!(r.timed_out());
    }

    #[test]
    fn rwlock_modes() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }
}
