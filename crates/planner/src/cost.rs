//! The cost model.
//!
//! Deliberately Ingres-shaped: costs decompose into CPU (tuples processed)
//! and disk I/O (page reads), and all estimation honesty depends on the
//! catalog's statistics. *Without* histograms the model falls back to magic
//! selectivity constants and a pages-based cardinality guess — producing the
//! systematic mis-estimates the paper's analyzer detects by comparing
//! estimated to actual costs (Fig 6), and fixes by recommending
//! `CREATE STATISTICS`.

use ingot_catalog::TableEntry;
use ingot_common::{Cost, Value};
use ingot_sql::BinOp;

use crate::expr::PhysExpr;

/// Rows-per-page guess used when a table has no collected statistics (the
/// catalog always knows page counts; it does not know live row counts until
/// `CREATE STATISTICS`).
pub const DEFAULT_ROWS_PER_PAGE: f64 = 40.0;
/// Default selectivity of an equality predicate without a histogram.
pub const DEFAULT_EQ_SEL: f64 = 0.01;
/// Default selectivity of a range predicate without a histogram.
pub const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;
/// Default selectivity of a BETWEEN without a histogram.
pub const DEFAULT_BETWEEN_SEL: f64 = 0.25;
/// Default selectivity of a LIKE.
pub const DEFAULT_LIKE_SEL: f64 = 0.1;
/// Default selectivity of anything unrecognised.
pub const DEFAULT_MISC_SEL: f64 = 0.5;
/// Index entries per B-Tree leaf page (estimate for probe costing).
pub const INDEX_ENTRIES_PER_LEAF: f64 = 250.0;
/// How much one *random* page access costs relative to one sequential page
/// in optimizer I/O units. Keeps the plan choices consistent with the disk
/// model's random/sequential pricing.
pub const RANDOM_IO_WEIGHT: f64 = 4.0;

/// Estimated cardinality of a table: collected statistics when present,
/// otherwise a pages-based guess.
pub fn table_cardinality(entry: &TableEntry) -> f64 {
    match &entry.stats {
        Some(s) => (s.row_count as f64).max(1.0),
        None => {
            let pages = entry.heap.stats().total_pages() as f64;
            (pages * DEFAULT_ROWS_PER_PAGE).max(1.0)
        }
    }
}

/// Estimated distinct count of a column. Uses the histogram when present;
/// single-column primary keys are known unique from the catalog alone.
pub fn column_ndv(entry: &TableEntry, col: usize) -> f64 {
    if let Some(stats) = &entry.stats {
        if let Some(h) = stats.histogram(col) {
            return (h.distinct_count() as f64).max(1.0);
        }
    }
    if entry.meta.primary_key.len() == 1 && entry.meta.primary_key[0] == col {
        return table_cardinality(entry);
    }
    // Unknown: assume moderately selective.
    (table_cardinality(entry) / 10.0).clamp(1.0, 100.0)
}

/// Selectivity of one conjunct over a single table. `expr` uses the table's
/// local column offsets.
pub fn conjunct_selectivity(entry: &TableEntry, expr: &PhysExpr) -> f64 {
    match expr {
        PhysExpr::Binary { op, left, right } if op.is_comparison() => {
            // Normalise to (column, op, constant).
            match (&**left, &**right) {
                (PhysExpr::Col(c), rhs) => comparison_selectivity(entry, *c, *op, rhs),
                (lhs, PhysExpr::Col(c)) => comparison_selectivity(entry, *c, flip(*op), lhs),
                _ => DEFAULT_MISC_SEL,
            }
        }
        PhysExpr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let sel = match &**expr {
                PhysExpr::Col(c) => between_selectivity(entry, *c, lo, hi),
                _ => DEFAULT_BETWEEN_SEL,
            };
            if *negated {
                (1.0 - sel).max(0.0)
            } else {
                sel
            }
        }
        PhysExpr::InList {
            expr,
            list,
            negated,
        } => {
            let sel = match &**expr {
                PhysExpr::Col(c) => {
                    let hist = entry.stats.as_ref().and_then(|s| s.histogram(*c));
                    list.iter()
                        .map(|item| match (item.as_literal(), hist) {
                            (Some(v), Some(h)) => h.selectivity_eq(v),
                            _ => DEFAULT_EQ_SEL,
                        })
                        .sum::<f64>()
                }
                _ => DEFAULT_EQ_SEL * list.len() as f64,
            }
            .min(1.0);
            if *negated {
                (1.0 - sel).max(0.0)
            } else {
                sel
            }
        }
        PhysExpr::Like { negated, .. } => {
            if *negated {
                1.0 - DEFAULT_LIKE_SEL
            } else {
                DEFAULT_LIKE_SEL
            }
        }
        PhysExpr::IsNull { expr, negated } => {
            let sel = match &**expr {
                PhysExpr::Col(c) => match entry.stats.as_ref().and_then(|s| s.histogram(*c)) {
                    Some(h) => {
                        let total = (h.row_count() + h.null_count()).max(1) as f64;
                        h.null_count() as f64 / total
                    }
                    None => 0.05,
                },
                _ => 0.05,
            };
            if *negated {
                (1.0 - sel).max(0.0)
            } else {
                sel
            }
        }
        PhysExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => conjunct_selectivity(entry, left) * conjunct_selectivity(entry, right),
        PhysExpr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => {
            let a = conjunct_selectivity(entry, left);
            let b = conjunct_selectivity(entry, right);
            (a + b - a * b).min(1.0)
        }
        PhysExpr::Literal(Value::Bool(true)) => 1.0,
        PhysExpr::Literal(Value::Bool(false)) => 0.0,
        _ => DEFAULT_MISC_SEL,
    }
}

/// Selectivity of `col <op> constant` over a single table — the comparison
/// arm of [`conjunct_selectivity`], callable without building the predicate.
/// A parameter marker has no value at plan time, but the *shape* of the
/// predicate is known: an equality against an unknown value matches
/// rows/ndv rows on average, so prepared templates keep selective access
/// paths.
pub fn comparison_selectivity(
    entry: &TableEntry,
    col: usize,
    op: BinOp,
    constant: &PhysExpr,
) -> f64 {
    let lit = match constant {
        PhysExpr::Literal(v) => v,
        PhysExpr::Param(_) => return param_comparison_selectivity(entry, col, op),
        _ => return DEFAULT_MISC_SEL,
    };
    let hist = entry.stats.as_ref().and_then(|s| s.histogram(col));
    match (op, hist) {
        (BinOp::Eq, Some(h)) => h.selectivity_eq(lit),
        (BinOp::Eq, None) => DEFAULT_EQ_SEL,
        (BinOp::Neq, Some(h)) => (1.0 - h.selectivity_eq(lit)).max(0.0),
        (BinOp::Neq, None) => 1.0 - DEFAULT_EQ_SEL,
        (BinOp::Lt, Some(h)) => h.selectivity_lt(lit),
        (BinOp::Le, Some(h)) => h.selectivity_le(lit),
        (BinOp::Gt, Some(h)) => (1.0 - h.selectivity_le(lit)).max(0.0),
        (BinOp::Ge, Some(h)) => (1.0 - h.selectivity_lt(lit)).max(0.0),
        (_, None) => DEFAULT_RANGE_SEL,
        _ => DEFAULT_MISC_SEL,
    }
}

/// Selectivity of `col BETWEEN lo AND hi` over a single table.
pub fn between_selectivity(entry: &TableEntry, col: usize, lo: &PhysExpr, hi: &PhysExpr) -> f64 {
    match (lo.as_literal(), hi.as_literal()) {
        (Some(lo), Some(hi)) => match entry.stats.as_ref().and_then(|s| s.histogram(col)) {
            Some(h) => h.selectivity_between(lo, hi),
            None => DEFAULT_BETWEEN_SEL,
        },
        _ => DEFAULT_BETWEEN_SEL,
    }
}

/// Selectivity of `col <op> $n`: the bound value is unknown at plan time,
/// so equality averages over the column's distinct values (a unique column
/// yields one row for *any* binding) and range shapes take the same default
/// an unhistogrammed literal would.
fn param_comparison_selectivity(entry: &TableEntry, col: usize, op: BinOp) -> f64 {
    let eq = (1.0 / column_ndv(entry, col)).clamp(0.0, 1.0);
    match op {
        BinOp::Eq => eq,
        BinOp::Neq => (1.0 - eq).max(0.0),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => DEFAULT_RANGE_SEL,
        _ => DEFAULT_MISC_SEL,
    }
}

/// `op` with its operands swapped: `a < b` is `b > a`.
pub(crate) fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Cost of a full sequential scan.
pub fn seq_scan_cost(entry: &TableEntry) -> Cost {
    let pages = entry.heap.stats().total_pages() as f64;
    Cost::new(table_cardinality(entry), pages)
}

/// Cost of probing an index expected to match `matching` rows out of a table
/// with `pages` heap pages: tree descent + leaf pages + one random heap
/// fetch per match (capped at a full scan's page count — beyond that the
/// optimizer should have chosen the scan anyway).
pub fn index_probe_cost(entry: &TableEntry, matching: f64) -> Cost {
    let card = table_cardinality(entry);
    let height = (card.max(2.0).log(INDEX_ENTRIES_PER_LEAF)).ceil().max(1.0);
    let leaf_pages = (matching / INDEX_ENTRIES_PER_LEAF).ceil();
    let heap_pages = entry.heap.stats().total_pages() as f64;
    let fetches = matching.min(heap_pages * 2.0);
    Cost::new(matching, height + leaf_pages + RANDOM_IO_WEIGHT * fetches)
}

/// Cost of a clustered primary-key lookup.
pub fn pk_lookup_cost(entry: &TableEntry) -> Cost {
    let card = table_cardinality(entry);
    let height = (card.max(2.0).log(INDEX_ENTRIES_PER_LEAF)).ceil().max(1.0);
    Cost::new(1.0, height + 1.0)
}

/// Join-output cardinality for an equi-join between `(left_entry, left_col)`
/// and `(right_entry, right_col)`.
pub fn equi_join_cardinality(
    left_rows: f64,
    right_rows: f64,
    left_ndv: f64,
    right_ndv: f64,
) -> f64 {
    (left_rows * right_rows / left_ndv.max(right_ndv).max(1.0)).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_catalog::Catalog;
    use ingot_common::{Column, DataType, EngineConfig, Row, Schema, SimClock};
    use ingot_storage::StorageEngine;
    use std::sync::Arc;

    fn setup(with_stats: bool) -> Catalog {
        let cfg = EngineConfig::default();
        let storage = StorageEngine::in_memory(&cfg, SimClock::new());
        let mut c = Catalog::new(Arc::clone(storage.pool()), 4);
        let t = c
            .create_table(
                "t",
                Schema::new(vec![
                    Column::not_null("id", DataType::Int),
                    Column::new("grp", DataType::Int),
                ]),
                vec![0],
            )
            .unwrap();
        for i in 0..6000 {
            c.insert_row(t, &Row::new(vec![Value::Int(i), Value::Int(i % 10)]))
                .unwrap();
        }
        if with_stats {
            c.collect_statistics(t, &[], 0).unwrap();
        }
        c
    }

    fn eq_pred(col: usize, v: i64) -> PhysExpr {
        PhysExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(PhysExpr::Col(col)),
            right: Box::new(PhysExpr::Literal(Value::Int(v))),
        }
    }

    #[test]
    fn stats_sharpen_cardinality() {
        let no_stats = setup(false);
        let with_stats = setup(true);
        let t = no_stats.resolve_table("t").unwrap();
        let guess = table_cardinality(no_stats.table(t).unwrap());
        let known = table_cardinality(with_stats.table(t).unwrap());
        assert_eq!(known, 6000.0);
        // The guess is pages-based and generally off.
        assert_ne!(guess, known);
    }

    #[test]
    fn histogram_beats_default_selectivity() {
        let with_stats = setup(true);
        let t = with_stats.resolve_table("t").unwrap();
        let e = with_stats.table(t).unwrap();
        // grp = 5 matches 10 % of rows.
        let sel = conjunct_selectivity(e, &eq_pred(1, 5));
        assert!((sel - 0.1).abs() < 0.03, "sel {sel}");
        let _ = sel;
        // Without stats: the magic constant.
        let no_stats = setup(false);
        let e = no_stats
            .table(no_stats.resolve_table("t").unwrap())
            .unwrap();
        assert_eq!(conjunct_selectivity(e, &eq_pred(1, 5)), DEFAULT_EQ_SEL);
    }

    #[test]
    fn pk_ndv_known_without_stats() {
        let c = setup(false);
        let e = c.table(c.resolve_table("t").unwrap()).unwrap();
        assert_eq!(column_ndv(e, 0), table_cardinality(e));
        assert!(column_ndv(e, 1) <= 100.0);
    }

    #[test]
    fn index_probe_beats_scan_for_selective_predicates() {
        let c = setup(true);
        let e = c.table(c.resolve_table("t").unwrap()).unwrap();
        let scan = seq_scan_cost(e);
        let probe = index_probe_cost(e, 1.0);
        assert!(probe.cheaper_than(&scan));
        // An unselective probe should not beat the scan.
        let wide = index_probe_cost(e, 6000.0);
        assert!(scan.cheaper_than(&wide));
    }

    #[test]
    fn join_cardinality_fk_shape() {
        // FK join: |L| rows each matching one of |R| keys.
        let out = equi_join_cardinality(10_000.0, 100.0, 10_000.0, 100.0);
        assert_eq!(out, 100.0 * 10_000.0 / 10_000.0);
    }

    #[test]
    fn param_predicates_get_shape_based_selectivity() {
        let c = setup(true);
        let e = c.table(c.resolve_table("t").unwrap()).unwrap();
        let cmp = |op| PhysExpr::Binary {
            op,
            left: Box::new(PhysExpr::Col(1)),
            right: Box::new(PhysExpr::Param(0)),
        };
        // An equality against a parameter averages over the column's
        // distinct values (grp has 10), not the 0.5 "unknown" catch-all.
        assert_eq!(conjunct_selectivity(e, &cmp(BinOp::Eq)), 0.1);
        assert_eq!(conjunct_selectivity(e, &cmp(BinOp::Lt)), DEFAULT_RANGE_SEL);
        assert_eq!(conjunct_selectivity(e, &cmp(BinOp::Neq)), 0.9);
        // A unique column yields one row for any binding.
        let pk = PhysExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(PhysExpr::Col(0)),
            right: Box::new(PhysExpr::Param(0)),
        };
        assert_eq!(conjunct_selectivity(e, &pk), 1.0 / 6000.0);
        // Param on the left normalises the same way.
        let flipped = PhysExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(PhysExpr::Param(0)),
            right: Box::new(PhysExpr::Col(1)),
        };
        assert_eq!(conjunct_selectivity(e, &flipped), 0.1);
    }

    #[test]
    fn or_and_combinators() {
        let c = setup(true);
        let e = c.table(c.resolve_table("t").unwrap()).unwrap();
        let a = eq_pred(1, 5);
        let b = eq_pred(1, 6);
        let or = PhysExpr::Binary {
            op: BinOp::Or,
            left: Box::new(a.clone()),
            right: Box::new(b.clone()),
        };
        let and = PhysExpr::Binary {
            op: BinOp::And,
            left: Box::new(a.clone()),
            right: Box::new(b),
        };
        let sa = conjunct_selectivity(e, &a);
        assert!(conjunct_selectivity(e, &or) > sa);
        assert!(conjunct_selectivity(e, &and) < sa);
    }
}
