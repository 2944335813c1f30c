#![forbid(unsafe_code)]
//! Catalog subsystem: metadata about tables, attributes and indexes, plus
//! the optimizer statistics (equi-depth histograms) whose presence or absence
//! drives two of the paper's analyzer rules ("one or more attributes of a
//! table have no statistics: histograms should be created"; "actual and
//! estimated costs differ significantly: … missing or outdated statistics").
//!
//! The catalog is a *runtime* catalog in the DataFusion tradition: entries
//! carry both metadata and live handles to the storage files, so the binder
//! (where the paper's parse-stage sensors fire) resolves names without any
//! disk access — "everything that is logged is known to the DBMS anyway".

pub mod catalog;
pub mod histogram;
pub mod mvcc;
pub mod persist;
pub mod shared;
pub mod stats;
pub mod table;
pub mod whatif;

pub use catalog::{Catalog, Relation, VirtualProvider, VirtualTableDef};
pub use histogram::Histogram;
pub use mvcc::{VersionChange, WriteAs};
pub use persist::{IndexDump, SchemaDump, TableDump};
pub use shared::{CatalogWriteGuard, SharedCatalog};
pub use stats::{ColumnStats, TableStatistics};
pub use table::{
    CheckedRow, IndexEntry, IndexMeta, KeyProbe, StorageStructure, TableEntry, TableMeta,
};
pub use whatif::WhatIf;
