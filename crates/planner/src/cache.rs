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
//!
//! Replacement is CLOCK, the one-bit approximation of LRU: a hit stores a
//! flag, and an insert into a full cache sweeps a hand over the slots,
//! clearing flags until it meets an entry not hit since the hand last
//! passed. A stream of never-repeated texts therefore evicts itself in
//! constant time per statement and leaves the templates that do get hits
//! alone.

use std::borrow::Cow;
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
    /// invalidation (DDL, `CREATE STATISTICS`, `MODIFY`).
    pub invalidations: u64,
    /// Live entries.
    pub entries: u64,
    /// Configured capacity (0 = caching disabled).
    pub capacity: u64,
}

struct Slot {
    key: Arc<str>,
    plan: Arc<CachedPlan>,
    /// Hit since the clock hand last passed.
    referenced: bool,
}

#[derive(Default)]
struct Inner {
    /// Template → its slot.
    map: HashMap<Arc<str>, usize>,
    /// At most `capacity` slots; `None` where a stale entry was dropped.
    slots: Vec<Option<Slot>>,
    /// The vacated slots.
    free: Vec<usize>,
    /// Where the next eviction sweep starts.
    hand: usize,
}

/// A cache of optimized plan templates keyed by
/// `(normalized SQL, schema epoch)`, least recently used out first (CLOCK).
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
        let found = inner.map.get(template).copied();
        let hit = found.and_then(|i| {
            let slot = inner.slots[i].as_mut().filter(|s| s.plan.epoch == epoch)?;
            slot.referenced = true;
            Some(Arc::clone(&slot.plan))
        });
        if let (Some(i), None) = (found, &hit) {
            inner.map.remove(template);
            inner.slots[i] = None;
            inner.free.push(i);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        drop(inner);
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
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
        let key: Arc<str> = template.into();
        // A new entry has not been hit: it goes before any that has.
        let slot = Some(Slot {
            key: Arc::clone(&key),
            plan: plan.into(),
            referenced: false,
        });
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some(&i) = inner.map.get(&key) {
            inner.slots[i] = slot;
            return;
        }
        let i = if let Some(i) = inner.free.pop() {
            inner.slots[i] = slot;
            i
        } else if inner.slots.len() < self.capacity {
            inner.slots.push(slot);
            inner.slots.len() - 1
        } else {
            // Full, and every slot is occupied: sweep for a victim.
            let victim = loop {
                let i = inner.hand;
                inner.hand = (i + 1) % self.capacity;
                match &mut inner.slots[i] {
                    Some(s) if s.referenced => s.referenced = false,
                    _ => break i,
                }
            };
            if let Some(old) = std::mem::replace(&mut inner.slots[victim], slot) {
                inner.map.remove(&old.key);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
            victim
        };
        inner.map.insert(key, i);
    }

    /// Drop every entry (DDL publish, `CREATE STATISTICS`, virtual-index
    /// registration). Each dropped entry counts as an invalidation.
    pub fn invalidate_all(&self) {
        let mut inner = self.inner.lock();
        let dropped = inner.map.len() as u64;
        *inner = Inner::default();
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

/// Normalize a statement's text into its cache key: blanks and comments
/// outside quotes read as one space between what they separate and as
/// nothing at either end; string literals and quoted identifiers are kept
/// verbatim. What is a blank, a comment or a quote is decided exactly as the
/// lexer decides it, and text the lexer rejects (an unterminated quote or
/// block comment, a non-ASCII blank) is kept as written, so two texts share a
/// key only if they lex to the same tokens. `SELECT x` and `select x` stay
/// distinct keys — keyword case rarely varies within one application, and
/// telling templates apart only costs a duplicate cache entry, never a wrong
/// plan.
pub fn normalize_template(sql: &str) -> String {
    normalize(sql).into_owned()
}

/// [`normalize_template`] as the shared key a statement probes and inserts
/// with. Text that is already normal — what applications mostly send — is
/// copied once, into the key.
pub fn template_key(sql: &str) -> Arc<str> {
    Arc::from(&*normalize(sql))
}

/// A template under construction: the input's own prefix for as long as
/// every piece pushed is the input continued, a copy from the first piece
/// that is not.
struct Template<'a> {
    sql: &'a str,
    written: usize,
    copy: Option<String>,
}

impl Template<'_> {
    /// Append `piece`, which is `sql[from..]`'s start if `from` is given.
    fn push(&mut self, from: Option<usize>, piece: &str) {
        match &mut self.copy {
            None if from == Some(self.written) => self.written += piece.len(),
            None => self.copy = Some([&self.sql[..self.written], piece].concat()),
            Some(copy) => copy.push_str(piece),
        }
    }
}

fn normalize(sql: &str) -> Cow<'_, str> {
    let bytes = sql.as_bytes();
    let find = |from: usize, what: &[u8]| {
        let rest = bytes.get(from..)?;
        Some(from + rest.windows(what.len()).position(|w| w == what)?)
    };
    let mut out = Template {
        sql,
        written: 0,
        copy: None,
    };
    // Blanks or comments have been skipped since the last piece; and where,
    // if all of them was one space, which can then stand for itself.
    let (mut gap, mut lone_space) = (false, None);
    let mut i = 0;
    while i < bytes.len() {
        let comment = |open: &[u8]| bytes[i..].starts_with(open);
        let skip_to = match bytes[i] {
            b if b.is_ascii_whitespace() => {
                let run = bytes[i..].iter().take_while(|b| b.is_ascii_whitespace());
                Some(i + run.count())
            }
            b'-' if comment(b"--") => Some(find(i, b"\n").map_or(bytes.len(), |nl| nl + 1)),
            b'/' if comment(b"/*") => find(i + 2, b"*/").map(|close| close + 2),
            _ => None,
        };
        if let Some(end) = skip_to {
            lone_space = (!gap && end == i + 1 && bytes[i] == b' ').then_some(i);
            gap = true;
            i = end;
            continue;
        }
        // A piece to keep as written: a quoted run, an unterminated block
        // comment to the end, or ordinary text up to the next byte that
        // could open one of the above.
        let end = match bytes[i] {
            quote @ (b'\'' | b'"') => find(i + 1, &[quote]).map_or(bytes.len(), |q| q + 1),
            b'/' if comment(b"/*") => bytes.len(),
            _ => {
                let ordinary = |b: &u8| !b.is_ascii_whitespace() && !b"'\"-/".contains(b);
                i + 1 + bytes[i + 1..].iter().take_while(|b| ordinary(b)).count()
            }
        };
        if gap && (out.written > 0 || out.copy.is_some()) {
            out.push(lone_space, " ");
        }
        gap = false;
        out.push(Some(i), &sql[i..end]);
        i = end;
    }
    match out.copy {
        Some(copy) => Cow::Owned(copy),
        None => Cow::Borrowed(&sql[..out.written]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_common::Cost;

    fn plan(epoch: u64) -> CachedPlan {
        CachedPlan {
            planned: PlannedStatement::Insert {
                table: TableId(1),
                rows: crate::InsertRows::Const(Vec::new()),
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
    fn a_stream_of_unseen_templates_evicts_itself() {
        let cache = PlanCache::new(4);
        cache.insert("hot", plan(1));
        for i in 0..100 {
            assert!(cache.probe("hot", 1).is_some());
            cache.insert(format!("adhoc {i}"), plan(1));
        }
        // The one template that gets hits outlives a hundred that do not,
        // and each of those cost exactly one eviction.
        assert!(cache.probe("hot", 1).is_some());
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions, 97);
        // A slot vacated by a stale probe is refilled before anything is
        // evicted.
        assert!(cache.probe("adhoc 99", 2).is_none());
        cache.insert("adhoc 100", plan(2));
        assert_eq!(cache.stats().evictions, 97);
        assert_eq!(cache.len(), 4);
        // Re-inserting a cached template replaces it in place.
        cache.insert("adhoc 100", plan(3));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.probe("adhoc 100", 3).map(|p| p.epoch), Some(3));
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
        // Already normal text is its own key, trailing blanks or not.
        for sql in [
            "select x from t where s = 'a  b'",
            "select 1 ",
            "select 1 -- c",
        ] {
            assert!(matches!(normalize(sql), Cow::Borrowed(_)), "{sql}");
        }
        assert_eq!(&*template_key("select 1 -- c"), "select 1");
    }

    #[test]
    fn normalization_tells_apart_what_the_lexer_tells_apart() {
        // Quoted identifiers are names: their blanks are theirs.
        assert_ne!(
            normalize_template("select \"x  y\" from q"),
            normalize_template("select \"x y\" from q")
        );
        // A line comment ends at its newline; fold the newline and what
        // follows becomes comment.
        assert_eq!(
            normalize_template("select 1 -- c\n from t"),
            "select 1 from t"
        );
        assert_eq!(normalize_template("select 1 -- c from t"), "select 1");
        // Comments separate tokens like a blank does, and never show.
        assert_eq!(normalize_template("select/* a */1/**/+ 2"), "select 1 + 2");
        assert_eq!(normalize_template("/* lead */ select 1"), "select 1");
        // Comment openers inside quotes are text.
        assert_eq!(
            normalize_template("select '--' ,  \"/*\" from t"),
            "select '--' , \"/*\" from t"
        );
        assert_eq!(
            normalize_template("select 'it''s  --'  from t"),
            "select 'it''s  --' from t"
        );
        // What the lexer rejects stays as written, so it cannot borrow the
        // plan of a valid text: an open comment or quote, a blank that is
        // not ASCII.
        assert_eq!(normalize_template("select 1 /* x  y"), "select 1 /* x  y");
        assert_eq!(normalize_template("select 'a  b"), "select 'a  b");
        assert_ne!(
            normalize_template("select\u{a0}1"),
            normalize_template("select 1")
        );
        // Minus and slash on their own are operators.
        assert_eq!(normalize_template("select 4 - -2 / 2"), "select 4 - -2 / 2");
    }
}
