//! Copy-on-write catalog sharing.
//!
//! [`SharedCatalog`] publishes the catalog as an immutable [`Arc`] snapshot.
//! Readers ([`SharedCatalog::read`]) clone the `Arc` — a single atomic
//! increment, never blocked by writers. Schema writers
//! ([`SharedCatalog::write`]) serialise on an internal DDL mutex, mutate a
//! private copy of the catalog, and publish it atomically when the guard
//! drops. Statement execution therefore never waits on DDL that targets
//! unrelated tables, and DDL never waits on running statements.
//!
//! Row data is *not* copied: table entries hold `Arc` handles to heap and
//! tree files, so every snapshot sees the same live rows. Only the schema
//! maps (tables, indexes, names) are copy-on-write.
//!
//! Lock-order discipline (see DESIGN.md "Concurrency architecture"): engine
//! code acquires logical table locks from the `LockManager` *before* calling
//! [`SharedCatalog::write`], and code holding a write guard never takes
//! table locks. This keeps the wait-for graph over {table locks, DDL mutex}
//! acyclic.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

// Under `--cfg loom` the primitives come from the model-checking shim, which
// injects schedule perturbation at every acquire/notify edge (see the
// loom-shim crate and the `loom_shared_catalog` integration test).
#[cfg(loom)]
use loom::sync::{Mutex, MutexGuard, RwLock};
#[cfg(not(loom))]
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::catalog::Catalog;

/// A catalog published as an atomically swappable immutable snapshot.
pub struct SharedCatalog {
    /// The current published snapshot. The `RwLock` is held only for the
    /// duration of an `Arc` clone (read) or pointer swap (publish) — never
    /// across statement execution.
    current: RwLock<Arc<Catalog>>,
    /// Serialises schema writers so concurrent DDL cannot lose updates
    /// (clone-modify-publish must not interleave).
    ddl: Mutex<()>,
}

impl SharedCatalog {
    /// Publish `catalog` as the initial snapshot.
    pub fn new(catalog: Catalog) -> Self {
        SharedCatalog {
            current: RwLock::new(Arc::new(catalog)),
            ddl: Mutex::new(()),
        }
    }

    /// The current snapshot. Cheap (one `Arc` clone) and never blocks on
    /// schema writers beyond the instant of the pointer swap. The snapshot
    /// stays valid for as long as the caller holds it; row data read through
    /// it is always live.
    pub fn read(&self) -> Arc<Catalog> {
        Arc::clone(&self.current.read())
    }

    /// Open the catalog for schema changes. Blocks while another schema
    /// writer is active; readers are not blocked. The changes become visible
    /// atomically when the returned guard drops.
    pub fn write(&self) -> CatalogWriteGuard<'_> {
        let ddl = self.ddl.lock();
        let scratch = Catalog::clone(&self.current.read());
        CatalogWriteGuard {
            shared: self,
            scratch: Some(scratch),
            _ddl: ddl,
        }
    }

    /// A guard holding schema writers (not readers) off until it drops, and
    /// the current snapshot, which stays the published schema meanwhile.
    pub fn freeze(&self) -> (MutexGuard<'_, ()>, Arc<Catalog>) {
        let ddl = self.ddl.lock();
        (ddl, self.read())
    }
}

/// Exclusive schema-change guard: derefs to [`Catalog`], publishes the
/// mutated copy as the new snapshot on drop.
pub struct CatalogWriteGuard<'a> {
    shared: &'a SharedCatalog,
    scratch: Option<Catalog>,
    _ddl: MutexGuard<'a, ()>,
}

impl Deref for CatalogWriteGuard<'_> {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        self.scratch.as_ref().expect("guard holds scratch catalog")
    }
}

impl DerefMut for CatalogWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Catalog {
        self.scratch.as_mut().expect("guard holds scratch catalog")
    }
}

impl Drop for CatalogWriteGuard<'_> {
    fn drop(&mut self) {
        let mut scratch = self.scratch.take().expect("guard holds scratch catalog");
        // Every publish advances the schema epoch, even when the writer made
        // no change — a cheap over-approximation that keeps the plan cache's
        // staleness check a single integer comparison.
        scratch.bump_epoch();
        *self.shared.current.write() = Arc::new(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_common::{Column, DataType, EngineConfig, Row, Schema, SimClock, Value};
    use ingot_storage::StorageEngine;

    fn shared() -> SharedCatalog {
        let cfg = EngineConfig::default();
        let storage = StorageEngine::in_memory(&cfg, SimClock::new());
        SharedCatalog::new(Catalog::new(Arc::clone(storage.pool()), 2))
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("v", DataType::Int),
        ])
    }

    #[test]
    fn snapshots_are_immutable_but_rows_are_live() {
        let sc = shared();
        let t = sc.write().create_table("t", schema(), vec![0]).unwrap();
        let before = sc.read();
        // Row written through one snapshot is visible through another…
        before
            .insert_row(t, &Row::new(vec![Value::Int(1), Value::Int(10)]))
            .unwrap();
        let after = sc.read();
        assert_eq!(after.table(t).unwrap().heap.row_count(), 1);
        // …but schema changes are not retroactive.
        sc.write().create_table("u", schema(), vec![0]).unwrap();
        assert!(before.resolve_table("u").is_err());
        assert!(sc.read().resolve_table("u").is_ok());
    }

    #[test]
    fn old_snapshot_survives_drop_table() {
        let sc = shared();
        let t = sc.write().create_table("t", schema(), vec![0]).unwrap();
        sc.read()
            .insert_row(t, &Row::new(vec![Value::Int(1), Value::Int(10)]))
            .unwrap();
        let old = sc.read();
        sc.write().drop_table("t").unwrap();
        // The published catalog no longer knows the table…
        assert!(sc.read().resolve_table("t").is_err());
        // …but the held snapshot still reads it (storage is Arc-kept-alive).
        assert_eq!(old.table(t).unwrap().heap.row_count(), 1);
    }

    #[test]
    fn write_guard_publishes_on_drop_only() {
        let sc = shared();
        {
            let mut guard = sc.write();
            guard.create_table("t", schema(), vec![0]).unwrap();
            // Not yet published: concurrent readers still see the old world.
            assert!(sc.read().resolve_table("t").is_err());
        }
        assert!(sc.read().resolve_table("t").is_ok());
    }

    #[test]
    fn epoch_advances_on_every_publish() {
        let sc = shared();
        let e0 = sc.read().epoch();
        sc.write().create_table("t", schema(), vec![0]).unwrap();
        let e1 = sc.read().epoch();
        assert!(e1 > e0, "publish must advance the epoch");
        // Even a no-op write guard publishes a new epoch.
        drop(sc.write());
        assert!(sc.read().epoch() > e1);
        // Readers holding an old snapshot keep its epoch.
        let old = sc.read();
        sc.write().create_table("u", schema(), vec![0]).unwrap();
        assert!(sc.read().epoch() > old.epoch());
    }

    #[test]
    fn concurrent_readers_during_ddl() {
        let sc = Arc::new(shared());
        let t = sc.write().create_table("t", schema(), vec![0]).unwrap();
        for i in 0..100 {
            sc.read()
                .insert_row(t, &Row::new(vec![Value::Int(i), Value::Int(i)]))
                .unwrap();
        }
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let sc = Arc::clone(&sc);
                std::thread::spawn(move || {
                    // Every snapshot taken mid-DDL must still see a coherent
                    // schema and all 100 rows of `t`.
                    for _ in 0..500 {
                        let snap = sc.read();
                        if let Ok(entry) = snap.table(t) {
                            assert_eq!(entry.heap.row_count(), 100);
                        }
                    }
                })
            })
            .collect();
        // DDL churn on unrelated tables while readers spin.
        for i in 0..50 {
            sc.write()
                .create_table(&format!("side_{i}"), schema(), vec![0])
                .unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(sc.read().tables().count(), 51);
    }
}
