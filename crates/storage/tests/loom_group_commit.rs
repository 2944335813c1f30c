#![cfg(loom)]
//! Model tests for the [`GroupCommit`] leader/follower coordinator under
//! perturbed schedules.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p ingot-storage --test
//! loom_group_commit`. Each body executes under `loom::model`, which re-runs
//! it across many seeded interleavings (see the loom-shim crate). The two
//! protocol invariants from DESIGN.md are checked directly:
//!
//! 1. **No early acknowledgement** — `wait_durable(lsn, …)` returns `Ok`
//!    only after a barrier whose durable watermark covers `lsn` has run.
//! 2. **No lost wakeups** — every committer terminates, even when a leader's
//!    barrier fails mid-batch; stranded followers self-elect.
//!
//! Both are checked again with committers in a closed loop, where each
//! leader gathers as many committers as the previous group peaked at, and
//! with committers that leave, so a leader gathers for followers that never
//! arrive.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use ingot_common::waits::{WaitEvent, WaitRegistry};
use ingot_common::MonotonicClock;
use ingot_storage::GroupCommit;
use loom::sync::Arc;
use loom::thread;

const WRITERS: u64 = 4;

/// A shared model of the log device: `appended` is the highest LSN handed
/// out, `synced` the highest LSN a completed barrier has covered.
struct Device {
    appended: AtomicU64,
    synced: AtomicU64,
    barriers: AtomicU64,
}

impl Device {
    fn new() -> Self {
        Device {
            appended: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            barriers: AtomicU64::new(0),
        }
    }

    /// The group barrier: everything appended so far becomes durable.
    fn sync_all(&self) -> u64 {
        self.barriers.fetch_add(1, Ordering::SeqCst);
        let high = self.appended.load(Ordering::SeqCst);
        self.synced.fetch_max(high, Ordering::SeqCst);
        self.synced.load(Ordering::SeqCst)
    }
}

/// Invariant 1: under any interleaving, a committer is acknowledged only
/// once the device's synced watermark covers its LSN — never on the strength
/// of a barrier that ran before its append.
#[test]
fn no_ack_before_covering_fsync() {
    loom::model(|| {
        let gc = Arc::new(GroupCommit::new(
            Duration::from_micros(50),
            MonotonicClock::new(),
        ));
        let dev = Arc::new(Device::new());
        let hs: Vec<_> = (0..WRITERS)
            .map(|_| {
                let gc = Arc::clone(&gc);
                let dev = Arc::clone(&dev);
                thread::spawn(move || {
                    let lsn = dev.appended.fetch_add(1, Ordering::SeqCst) + 1;
                    let durable = {
                        let dev = Arc::clone(&dev);
                        gc.wait_durable(lsn, move || Ok(dev.sync_all())).unwrap()
                    };
                    assert!(durable >= lsn, "ack for {lsn} with watermark {durable}");
                    assert!(
                        dev.synced.load(Ordering::SeqCst) >= lsn,
                        "commit {lsn} acknowledged before a covering barrier"
                    );
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let stats = gc.stats();
        assert!(stats.groups >= 1, "at least one batch must have run");
        assert!(
            stats.groups <= dev.barriers.load(Ordering::SeqCst),
            "counted more groups than barriers actually ran"
        );
        assert!(
            stats.max_group <= WRITERS,
            "a batch cannot hold more committers than exist"
        );
    });
}

/// Invariant 2: a leader whose barrier fails must not strand its followers —
/// they wake, observe the batch is over, self-elect, and complete. Every
/// thread terminates with a definite outcome; the failing leader's error
/// reaches only the failing leader.
#[test]
fn failed_leader_strands_no_followers() {
    loom::model(|| {
        let gc = Arc::new(GroupCommit::new(
            Duration::from_micros(50),
            MonotonicClock::new(),
        ));
        let dev = Arc::new(Device::new());
        let poisoned = Arc::new(AtomicBool::new(true));
        let hs: Vec<_> = (0..WRITERS)
            .map(|_| {
                let gc = Arc::clone(&gc);
                let dev = Arc::clone(&dev);
                let poisoned = Arc::clone(&poisoned);
                thread::spawn(move || {
                    let lsn = dev.appended.fetch_add(1, Ordering::SeqCst) + 1;
                    let res = {
                        let dev = Arc::clone(&dev);
                        let poisoned = Arc::clone(&poisoned);
                        gc.wait_durable(lsn, move || {
                            // The first barrier to run dies; later ones heal.
                            if poisoned.swap(false, Ordering::SeqCst) {
                                Err(ingot_common::Error::Io("injected barrier fault".into()))
                            } else {
                                Ok(dev.sync_all())
                            }
                        })
                    };
                    match &res {
                        Ok(durable) => {
                            assert!(*durable >= lsn);
                            assert!(
                                dev.synced.load(Ordering::SeqCst) >= lsn,
                                "commit {lsn} acknowledged before a covering barrier"
                            );
                        }
                        // Only the leader that ran the poisoned barrier may
                        // see the error — and it must not be acknowledged.
                        Err(e) => assert!(e.to_string().contains("injected barrier fault")),
                    }
                    res.is_ok()
                })
            })
            .collect();
        let outcomes: Vec<bool> = hs.into_iter().map(|h| h.join().unwrap()).collect();
        let failed = outcomes.iter().filter(|ok| !**ok).count();
        assert!(
            failed <= 1,
            "exactly one committer ran the poisoned barrier; {failed} failed"
        );
        assert!(
            outcomes.iter().filter(|ok| **ok).count() >= WRITERS as usize - 1,
            "followers must self-elect after a leader failure"
        );
    });
}

/// One commit: append, then wait on the coordinator with the device's
/// barrier. Asserts the acknowledgement is covered by a barrier that ran.
fn commit(gc: &GroupCommit, dev: &Arc<Device>) {
    let lsn = dev.appended.fetch_add(1, Ordering::SeqCst) + 1;
    let durable = {
        let dev = Arc::clone(dev);
        gc.wait_durable(lsn, move || Ok(dev.sync_all())).unwrap()
    };
    assert!(durable >= lsn, "ack for {lsn} with watermark {durable}");
    assert!(
        dev.synced.load(Ordering::SeqCst) >= lsn,
        "commit {lsn} acknowledged before a covering barrier"
    );
}

/// A coordinator that books its leader's gathering, so a model can tell
/// whether leaders gathered.
fn counted() -> (Arc<GroupCommit>, Arc<WaitRegistry>) {
    let gc = GroupCommit::new(Duration::from_micros(50), MonotonicClock::new());
    let waits = Arc::new(WaitRegistry::new());
    gc.set_wait_registry(Arc::clone(&waits));
    (Arc::new(gc), waits)
}

/// Invariant 1 with gathering leaders: committers loop, so after the first
/// group every leader waits for the previous group's peak. No commit is
/// acknowledged before a barrier covering it, and across the model leaders
/// did gather.
#[test]
fn no_ack_before_covering_fsync_when_the_leader_gathers() {
    const ROUNDS: u64 = 3;
    let gathered = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let total = Arc::clone(&gathered);
    loom::model(move || {
        let (gc, waits) = counted();
        let dev = Arc::new(Device::new());
        let hs: Vec<_> = (0..WRITERS)
            .map(|_| {
                let gc = Arc::clone(&gc);
                let dev = Arc::clone(&dev);
                thread::spawn(move || {
                    for _ in 0..ROUNDS {
                        commit(&gc, &dev);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let stats = gc.stats();
        assert_eq!(stats.grouped_commits, WRITERS * ROUNDS);
        assert!(stats.groups <= dev.barriers.load(Ordering::SeqCst));
        assert!(stats.max_group <= WRITERS);
        total.fetch_add(
            waits.counters().count(WaitEvent::GroupCommitDally),
            Ordering::Relaxed,
        );
    });
    assert!(
        gathered.load(Ordering::Relaxed) > 0,
        "no leader gathered in any schedule: the model did not exercise the gather"
    );
}

/// Invariant 2 with gathering leaders: committer `i` leaves after `i + 1`
/// commits, so leaders keep waiting for a previous peak that includes
/// committers who are gone. Each still syncs within its window and strands
/// nobody. A lone committer after the last group is acknowledged too, and
/// once its group of one has run, the next lone committer does not gather.
#[test]
fn a_leader_whose_followers_never_arrive_still_syncs() {
    loom::model(|| {
        let (gc, waits) = counted();
        let dev = Arc::new(Device::new());
        let hs: Vec<_> = (0..WRITERS)
            .map(|i| {
                let gc = Arc::clone(&gc);
                let dev = Arc::clone(&dev);
                thread::spawn(move || {
                    for _ in 0..=i {
                        commit(&gc, &dev);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        commit(&gc, &dev);
        let gathers = waits.counters().count(WaitEvent::GroupCommitDally);
        commit(&gc, &dev);
        assert_eq!(
            waits.counters().count(WaitEvent::GroupCommitDally),
            gathers,
            "after a group of one, a lone committer syncs at once"
        );
        let stats = gc.stats();
        assert_eq!(stats.grouped_commits, WRITERS * (WRITERS + 1) / 2 + 2);
        assert_eq!(dev.synced.load(Ordering::SeqCst), stats.grouped_commits);
    });
}
