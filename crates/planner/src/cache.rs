//! The shared plan cache.
//!
//! Optimized plans are memoized under their normalized SQL template and the
//! catalog *schema epoch* they were planned against. Every DDL publish (and
//! `CREATE STATISTICS`, which changes what the optimizer would choose) bumps
//! the epoch, so a probe that finds an entry from an older epoch drops it
//! and reports a miss — a stale plan is never returned. Parameter markers
//! stay embedded in the cached template as [`crate::expr::PhysExpr::Param`]
//! nodes; execution substitutes bound values into a clone, leaving the
//! template reusable.
//!
//! The cache is engine-wide and shared by all sessions: one `Mutex` guards
//! the map (probes copy an `Arc` out and release it immediately), and the
//! hit/miss/eviction/invalidation counters are lock-free atomics so the
//! monitoring layer can read them without touching the map.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ingot_common::TableId;
use parking_lot::Mutex;

use crate::binder::BindArtifacts;
use crate::optimizer::PlannedStatement;

/// Everything a cache hit needs to execute without re-binding: the plan
/// template, the bind-time sensor artifacts, and the lock footprint.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The optimized template (may contain `Param` markers).
    pub planned: PlannedStatement,
    /// Bind artifacts captured when the template was planned (what the
    /// parse-stage monitor sensors log).
    pub artifacts: BindArtifacts,
    /// Tables to lock before execution: `(table, exclusive)`.
    pub lock_spec: Vec<(TableId, bool)>,
    /// Schema epoch the plan was optimized under.
    pub epoch: u64,
    /// Number of parameter slots the template declares.
    pub param_count: usize,
}

/// Counter snapshot for `ima$plan_cache` and the Prometheus exporter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Probes that returned a same-epoch entry.
    pub hits: u64,
    /// Probes that found nothing usable (includes epoch mismatches).
    pub misses: u64,
    /// Entries dropped to make room (LRU).
    pub evictions: u64,
    /// Entries dropped as stale: epoch mismatch on probe or explicit
    /// invalidation (DDL, `CREATE STATISTICS`, virtual-index changes).
    pub invalidations: u64,
    /// Live entries.
    pub entries: u64,
    /// Configured capacity (0 = caching disabled).
    pub capacity: u64,
}

struct Slot {
    plan: Arc<CachedPlan>,
    /// Recency stamp; smallest = least recently used.
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<Arc<str>, Slot>,
    next_stamp: u64,
}

/// An LRU cache of optimized plan templates keyed by
/// `(normalized SQL, schema epoch)`.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` templates. Zero disables caching:
    /// probes always miss and inserts are dropped.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up `template` (already normalized) for the given schema epoch.
    /// An entry from an older epoch is dropped on the spot — counted as an
    /// invalidation *and* a miss — so callers can treat `Some` as "safe to
    /// execute against a snapshot of this epoch".
    pub fn probe(&self, template: &str, epoch: u64) -> Option<Arc<CachedPlan>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = self.inner.lock();
        match inner.map.get(template) {
            Some(slot) if slot.plan.epoch == epoch => {
                inner.next_stamp += 1;
                let stamp = inner.next_stamp;
                let slot = inner.map.get_mut(template).expect("entry just seen");
                slot.stamp = stamp;
                let plan = Arc::clone(&slot.plan);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(plan)
            }
            Some(_) => {
                inner.map.remove(template);
                drop(inner);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a freshly optimized template, evicting the least recently used
    /// entry when full. No-op when caching is disabled. Takes key and plan
    /// by value or already shared: the engine keys the entry with the
    /// `Arc<str>` it normalized once for the statement, and keeps executing
    /// the `Arc` it inserts instead of cloning the template.
    pub fn insert(&self, template: impl Into<Arc<str>>, plan: impl Into<Arc<CachedPlan>>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.next_stamp += 1;
        let stamp = inner.next_stamp;
        inner.map.insert(
            template.into(),
            Slot {
                plan: plan.into(),
                stamp,
            },
        );
        let mut evicted = 0u64;
        while inner.map.len() > self.capacity {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(k, _)| k.clone())
                .expect("map is non-empty");
            inner.map.remove(&lru);
            evicted += 1;
        }
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Drop every entry (DDL publish, `CREATE STATISTICS`, virtual-index
    /// registration). Each dropped entry counts as an invalidation.
    pub fn invalidate_all(&self) {
        let mut inner = self.inner.lock();
        let dropped = inner.map.len() as u64;
        inner.map.clear();
        drop(inner);
        if dropped > 0 {
            self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len() as u64,
            capacity: self.capacity as u64,
        }
    }
}

/// Normalize a statement's text into its cache key: surrounding whitespace
/// trimmed and interior whitespace runs collapsed to one space, except
/// inside string literals. `SELECT  x` and `select x` stay distinct keys —
/// keyword case rarely varies within one application, and conflating
/// templates only costs a duplicate cache entry, never a wrong plan.
pub fn normalize_template(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut in_str = false;
    let mut pending_space = false;
    for ch in sql.trim().chars() {
        if in_str {
            out.push(ch);
            if ch == '\'' {
                in_str = false;
            }
            continue;
        }
        if ch.is_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        if ch == '\'' {
            in_str = true;
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_common::Cost;

    fn plan(epoch: u64) -> CachedPlan {
        CachedPlan {
            planned: PlannedStatement::Delete {
                table: TableId(1),
                filter: None,
                est: Cost::ZERO,
            },
            artifacts: BindArtifacts::default(),
            lock_spec: vec![(TableId(1), true)],
            epoch,
            param_count: 0,
        }
    }

    #[test]
    fn hit_after_insert_and_miss_after_epoch_bump() {
        let cache = PlanCache::new(4);
        assert!(cache.probe("delete from t", 1).is_none());
        cache.insert("delete from t", plan(1));
        let hit = cache.probe("delete from t", 1).expect("hit");
        assert_eq!(hit.epoch, 1);
        // Epoch moved on: entry is dropped, probe misses, and the drop is
        // counted as an invalidation.
        assert!(cache.probe("delete from t", 2).is_none());
        assert!(cache.probe("delete from t", 2).is_none());
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let cache = PlanCache::new(2);
        cache.insert("a", plan(1));
        cache.insert("b", plan(1));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.probe("a", 1).is_some());
        cache.insert("c", plan(1));
        assert_eq!(cache.len(), 2);
        assert!(cache.probe("a", 1).is_some());
        assert!(cache.probe("b", 1).is_none());
        assert!(cache.probe("c", 1).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn invalidate_all_counts_dropped_entries() {
        let cache = PlanCache::new(8);
        cache.insert("a", plan(1));
        cache.insert("b", plan(1));
        cache.invalidate_all();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 2);
        // Idempotent: nothing more to count.
        cache.invalidate_all();
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        cache.insert("a", plan(1));
        assert!(cache.probe("a", 1).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().capacity, 0);
    }

    #[test]
    fn normalization_collapses_whitespace_outside_strings() {
        assert_eq!(
            normalize_template("  select   x\n from\tt  where s = 'a  b' "),
            "select x from t where s = 'a  b'"
        );
        assert_eq!(
            normalize_template("select 1"),
            normalize_template("select \n 1")
        );
        // Case is preserved: distinct keys, never a wrong plan.
        assert_ne!(
            normalize_template("SELECT 1"),
            normalize_template("select 1")
        );
    }
}
