//! Multi-version concurrency-control primitives shared across the stack.
//!
//! Every heap record carries a fixed version header (`begin`, `end`, chain
//! links — see `ingot-storage::heap::VersionMeta`). The types here are the
//! *interpretation* of that header: timestamps, transaction markers, and the
//! snapshot a reader evaluates visibility against. They live in
//! `ingot-common` because storage (which encodes the header), the executor
//! (which filters by it) and the engine (which stamps it at commit) all need
//! the same constants.
//!
//! ## Timestamp encoding
//!
//! A header timestamp field is one of three things:
//!
//! * a **commit timestamp** — a plain `u64` drawn from the transaction
//!   manager's commit sequence (`1, 2, 3, …`; `0` means "committed before
//!   any tracked history", used by bulk/rebuild writes);
//! * a **transaction marker** — [`TXN_MARK`]`| txn_id`, meaning the field is
//!   owned by an uncommitted transaction (a begin marker on a freshly
//!   written version, an end marker on a version a writer intends to
//!   supersede);
//! * the **infinity sentinel** [`TS_INF`] — an `end` that has not happened
//!   (the version is alive) or a chain link that points nowhere.
//!
//! `TXN_MARK` is the top bit, so any marker compares greater than any real
//! commit timestamp; [`TS_INF`] (all ones) also has the bit set, which is
//! why every decoder checks the sentinel *before* the marker bit.

use crate::ids::TxnId;

/// Top bit of a header timestamp: set ⇒ the field holds an uncommitted
/// transaction id, not a commit timestamp.
pub const TXN_MARK: u64 = 1 << 63;

/// "Never" / "nothing": an `end` of `TS_INF` means the version is alive; a
/// chain link of `TS_INF` means no neighbour.
pub const TS_INF: u64 = u64::MAX;

/// Tag a transaction id as an uncommitted-owner marker.
pub fn txn_mark(txn: TxnId) -> u64 {
    TXN_MARK | txn.raw()
}

/// Is `ts` a transaction marker (and not the infinity sentinel)?
#[inline]
pub fn is_txn_mark(ts: u64) -> bool {
    ts != TS_INF && ts & TXN_MARK != 0
}

/// The transaction id inside a marker. Only meaningful when
/// [`is_txn_mark`] holds.
#[inline]
pub fn mark_owner(ts: u64) -> TxnId {
    TxnId(ts & !TXN_MARK)
}

/// The read view of one transaction (or one auto-commit statement).
///
/// A version is visible when its `begin` is either this transaction's own
/// uncommitted write or a commit at-or-before `ts`, *and* its `end` has not
/// happened from this snapshot's point of view (alive, superseded only by
/// an uncommitted *other* transaction, or superseded after `ts`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Highest commit timestamp visible to this snapshot.
    pub ts: u64,
    /// The owning transaction: its own uncommitted versions are visible,
    /// and versions it has marked for supersession are not.
    pub txn: TxnId,
}

impl Snapshot {
    /// A snapshot that sees every committed version and nothing
    /// uncommitted. Used by replay, DDL rebuilds, statistics refresh and
    /// direct (engine-less) catalog access.
    pub fn latest() -> Snapshot {
        // TS_INF-1 keeps the marker bit check meaningful: no commit
        // timestamp ever reaches it, and it is not the sentinel.
        Snapshot {
            ts: TS_INF - 1,
            txn: TxnId(0),
        }
    }

    /// Is a version whose header reads (`begin`, `end`) visible here?
    ///
    /// `begin == end` (a zero-length lifetime) is never visible: it marks a
    /// version superseded within its own creating transaction.
    #[inline]
    pub fn sees(&self, begin: u64, end: u64) -> bool {
        if begin == end {
            return false;
        }
        let begin_ok = if is_txn_mark(begin) {
            mark_owner(begin) == self.txn
        } else {
            begin <= self.ts
        };
        if !begin_ok {
            return false;
        }
        if end == TS_INF {
            return true;
        }
        if is_txn_mark(end) {
            // Ended by an uncommitted transaction: dead only to that
            // transaction itself.
            mark_owner(end) != self.txn
        } else {
            end > self.ts
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_round_trip() {
        let m = txn_mark(TxnId(42));
        assert!(is_txn_mark(m));
        assert_eq!(mark_owner(m), TxnId(42));
        assert!(!is_txn_mark(7));
        assert!(!is_txn_mark(TS_INF), "infinity is not a marker");
    }

    #[test]
    fn committed_visibility_follows_ts() {
        let snap = Snapshot {
            ts: 5,
            txn: TxnId(9),
        };
        assert!(snap.sees(3, TS_INF), "committed before, alive");
        assert!(!snap.sees(6, TS_INF), "committed after the snapshot");
        assert!(snap.sees(3, 7), "superseded after the snapshot");
        assert!(!snap.sees(3, 5), "superseded at-or-before the snapshot");
    }

    #[test]
    fn own_writes_are_visible_and_own_supersessions_are_not() {
        let me = TxnId(9);
        let snap = Snapshot { ts: 5, txn: me };
        assert!(snap.sees(txn_mark(me), TS_INF), "own insert");
        assert!(!snap.sees(txn_mark(TxnId(10)), TS_INF), "other's insert");
        assert!(!snap.sees(3, txn_mark(me)), "row I superseded");
        assert!(snap.sees(3, txn_mark(TxnId(10))), "row another supersedes");
    }

    #[test]
    fn zero_length_lifetime_is_invisible_to_everyone() {
        let snap = Snapshot::latest();
        assert!(!snap.sees(4, 4));
        let own = Snapshot {
            ts: 5,
            txn: TxnId(9),
        };
        let m = txn_mark(TxnId(9));
        assert!(!own.sees(m, m), "intermediate own version");
    }

    #[test]
    fn latest_sees_all_committed_history() {
        let snap = Snapshot::latest();
        assert!(snap.sees(0, TS_INF));
        assert!(snap.sees(u64::MAX >> 1, TS_INF));
        assert!(!snap.sees(txn_mark(TxnId(3)), TS_INF));
        assert!(!snap.sees(3, 9), "committed delete is dead to latest");
    }
}
