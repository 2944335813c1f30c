//! What-if costing on a private copy of the catalog.
//!
//! The index advisor values a hypothetical index by asking the optimizer
//! whether a plan would use it (§IV-C: it "feeds the optimizer virtual
//! indexes"). [`WhatIf`] owns a clone of one published snapshot; virtual
//! indexes and temporary statistics go into that clone only, so the live
//! schema, its epoch and the plan cache keyed on the epoch never see them,
//! and any number of what-if passes run beside live traffic and beside each
//! other. It is the only way to register a virtual index, so a published
//! snapshot never holds one.

use std::ops::Deref;

use ingot_common::{IndexId, Result, TableId};

use crate::catalog::Catalog;

/// A private, never-published copy of a catalog snapshot. Derefs to the
/// copy for binding and optimizing against it.
#[derive(Clone)]
pub struct WhatIf {
    catalog: Catalog,
    /// What-if indexes count down from `u32::MAX`, clear of every real id.
    next_virtual_index: u32,
}

impl WhatIf {
    /// A copy of `snapshot` with no virtual index. Cheap: entries are shared
    /// behind `Arc`s until this copy changes one.
    pub fn new(snapshot: &Catalog) -> Self {
        WhatIf {
            catalog: snapshot.clone(),
            next_virtual_index: u32::MAX,
        }
    }

    /// Register a virtual (hypothetical) index on `table(columns…)`: never
    /// materialised, it competes for access paths in this copy only, and a
    /// plan that picks it reports `uses_virtual`.
    pub fn add_virtual_index(&mut self, table: &str, columns: &[&str]) -> Result<IndexId> {
        let table = self.catalog.resolve_table(table)?;
        let columns = self.catalog.table(table)?.meta.schema.indexes_of(columns)?;
        let id = IndexId(self.next_virtual_index);
        self.catalog.add_virtual_index(id, table, columns)?;
        self.next_virtual_index -= 1;
        Ok(id)
    }

    /// Build histograms on every column of `table` in this copy only — the
    /// statistics a what-if pass needs for trustworthy cardinalities.
    pub fn collect_statistics(&mut self, table: TableId, now_secs: u64) -> Result<()> {
        self.catalog.collect_statistics(table, &[], now_secs)
    }
}

impl Deref for WhatIf {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        &self.catalog
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use ingot_common::{Column, DataType, EngineConfig, Row, Schema, SimClock, Value};
    use ingot_storage::StorageEngine;

    use crate::shared::SharedCatalog;

    fn shared() -> SharedCatalog {
        let cfg = EngineConfig::default();
        let storage = StorageEngine::in_memory(&cfg, SimClock::new());
        let sc = SharedCatalog::new(Catalog::new(Arc::clone(storage.pool()), 2));
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("age", DataType::Int),
        ]);
        let t = sc.write().create_table("people", schema, vec![0]).unwrap();
        let row = Row::new(vec![Value::Int(1), Value::Int(30)]);
        sc.read().insert_row(t, &row).unwrap();
        sc
    }

    #[test]
    fn virtual_indexes_count_down_in_the_copy_only() {
        let sc = shared();
        let live = sc.read();
        let mut what_if = WhatIf::new(&live);
        let v = what_if.add_virtual_index("people", &["age"]).unwrap();
        assert_eq!(v, IndexId(u32::MAX));
        assert_eq!(what_if.index(v).unwrap().meta.columns, vec![1]);
        // A clone carries the counter on.
        let mut twin = what_if.clone();
        let id = twin.add_virtual_index("people", &["id"]).unwrap();
        assert_eq!(id, IndexId(u32::MAX - 1));
        assert!(what_if.index(id).is_err());
        assert!(what_if.add_virtual_index("people", &["nope"]).is_err());
        // The published snapshot is the one it was, index-free.
        assert!(Arc::ptr_eq(&live, &sc.read()));
        assert_eq!(live.indexes().count(), 0);
    }

    #[test]
    fn statistics_stay_in_the_copy() {
        let sc = shared();
        let t = sc.read().resolve_table("people").unwrap();
        let mut what_if = WhatIf::new(&sc.read());
        what_if.collect_statistics(t, 7).unwrap();
        assert_eq!(
            what_if.table(t).unwrap().stats.as_ref().unwrap().row_count,
            1
        );
        assert!(sc.read().table(t).unwrap().stats.is_none());
    }
}
