#![forbid(unsafe_code)]
//! Query planning: name resolution (binder), cost estimation and plan
//! selection.
//!
//! Two properties of the paper shape this crate:
//!
//! * **Requirement ii)** — "for all cost based decisions the internal cost
//!   model of the DBMS should be used": the analyzer never invents its own
//!   cost formulas; it calls [`optimize`] in *what-if* mode, in which
//!   hypothetical ("virtual") indexes registered in the catalog participate
//!   in access-path selection exactly like real ones (after AutoAdmin \[14\]).
//! * **The parse/optimize sensors of Fig 2** — binding returns
//!   [`BindArtifacts`] (referenced tables, attributes, available indexes) and
//!   optimization returns estimated CPU/IO costs plus the set of indexes the
//!   chosen plan uses, so the monitor can log them "right at the source".

pub mod binder;
pub mod cache;
pub mod cost;
pub mod expr;
pub mod optimizer;
pub mod physical;

pub use binder::{
    AttributeRef, BindArtifacts, Binder, BoundSelect, BoundStatement, BoundTable, Footprint,
    IndexRef, InsertRows, TableRef, UsageCell,
};
pub use cache::{normalize_template, template_key, CachedPlan, PlanCache, PlanCacheStats};
pub use expr::{AggFunc, AggSpec, PhysExpr};
pub use optimizer::{optimize, optimize_select, OptimizerOptions, PlannedStatement};
pub use physical::{PhysPlan, PlanNode, ProbeSource, ProbeSpec};
