//! The base-table access loop and the conjuncts a scan tests on encoded
//! bytes.
//!
//! Every read of a base table's rows, by a query or by the target search of
//! an UPDATE or DELETE, runs through [`access`]: the plan's `SeqScan` or
//! `IndexScan` node hands each visible row that passes its filter, with the
//! id of its visible version, to a consumer.
//!
//! An `IndexScan` probes the table's clustered primary tree or a secondary
//! index through [`probe_fetch`], the loop a `ProbeJoin` runs once per
//! outer row: the catalog collects the probe's row ids ([`KeyProbe`]), then
//! each is fetched.
//!
//! A `SeqScan` is one loop over the heap cursor
//! ([`HeapScan::next_record`](ingot_storage::heap::HeapScan::next_record)).
//! Each visible version's encoded row, in the scan's page copy, is walked
//! once by the codec's one stepping routine ([`RowCells::walk`]), which hands
//! over the [`Cell`] of every `needed` column; the scan records them in a
//! buffer it reuses for every row. The pushed-down filter's leading
//! conjuncts of the shape `col {=,<>,<,<=,>,>=} literal` (either side), `col
//! [NOT] BETWEEN literal AND literal` or `col IS [NOT] NULL` are then tested,
//! in conjunct order, on those cells (a column outside `needed` reads as
//! NULL, as the decoder leaves it), building no [`Value`]. A row a conjunct
//! rejects is counted and goes no further. The others are built into one
//! reused [`Row`] from the same cells, the conjuncts the byte test left open
//! are evaluated there by [`PhysExpr`], and the row is handed to the
//! consumer by reference.
//!
//! **Exactness.** A byte test decides a conjunct only where it computes
//! exactly what `PhysExpr::eval` would: an int column against an int literal
//! (`i64` order), a string column against a string literal (raw UTF-8 byte
//! order, which is `Value::cmp` on strings), a NULL column against anything
//! (unknown), and `IS [NOT] NULL` on any column. A float or mixed-type
//! comparison, or a column past the record's width, stays open — and so does
//! every conjunct after it: `AND` evaluates left to right and stops at the
//! first false, so a later rejection must not hide an error the open
//! conjunct would raise. The walk is the decoder's own, with the same column
//! set, so the scan fails on exactly the records decoding would fail on —
//! truncated, an unknown tag, invalid UTF-8 in a needed string — and a
//! survivor's row is the decoded row.

use std::ops::{Bound, RangeBounds};

use ingot_catalog::{Catalog, KeyProbe, TableEntry};
use ingot_common::{ColumnSet, Error, Result, Row, Snapshot, Value};
use ingot_planner::{PhysExpr, PhysPlan, PlanNode, ProbeSource, ProbeSpec};
use ingot_sql::BinOp;
use ingot_storage::{Cell, RowCells, RowId};

use crate::exec::eval_filter;

/// Run the base-table access `node` (`SeqScan` or `IndexScan`) under `snap`,
/// handing every visible row that passes the node's filter to `each` with
/// the id of its visible version (`each` may take the row). Every version
/// read counts one tuple, kept or not. Returns the number of rows handed
/// over.
pub(crate) fn access(
    catalog: &Catalog,
    node: &PlanNode,
    snap: &Snapshot,
    tuples: &mut u64,
    mut each: impl FnMut(RowId, &mut Row) -> Result<()>,
) -> Result<u64> {
    let (PhysPlan::SeqScan {
        table,
        filter,
        needed,
        ..
    }
    | PhysPlan::IndexScan {
        table,
        filter,
        needed,
        ..
    }) = &node.op
    else {
        let op = node.op_name();
        return Err(Error::execution(format!("{op} is no base-table access")));
    };
    let entry = catalog.table(*table)?;
    let PhysPlan::IndexScan { source, probe, .. } = &node.op else {
        return seq_scan(entry, filter.as_ref(), *needed, snap, tuples, each);
    };
    // Probe keys are row-free expressions (literals after parameter
    // substitution); evaluate them against the empty row.
    let empty = Row::default();
    let eval = |e: &PhysExpr| e.eval(&empty);
    let (keys, lo, hi);
    let probe = match probe {
        ProbeSpec::Eq(exprs) => {
            keys = exprs.iter().map(eval).collect::<Result<Vec<_>>>()?;
            KeyProbe::Eq(&keys)
        }
        ProbeSpec::Range { lo: l, hi: h } => {
            lo = l.as_ref().map(eval).transpose()?;
            hi = h.as_ref().map(eval).transpose()?;
            KeyProbe::Range(lo.as_ref(), hi.as_ref())
        }
    };
    let mut kept = 0;
    let keep = |rid, mut row: Row| {
        if eval_filter(filter, &row)? {
            kept += 1;
            each(rid, &mut row)?;
        }
        Ok(())
    };
    *tuples += probe_fetch(catalog, entry, source, probe, snap, *needed, keep)?;
    Ok(kept)
}

/// The probe-then-fetch loop of an `IndexScan`, and of each outer row of a
/// `ProbeJoin`: probe `entry`'s tree `source`, then hand each version
/// visible under `snap`, with its `needed` columns and its id, to `each`.
/// Returns the number of entries read, visible or not (one tuple each).
pub(crate) fn probe_fetch(
    catalog: &Catalog,
    entry: &TableEntry,
    source: &ProbeSource,
    probe: KeyProbe<'_>,
    snap: &Snapshot,
    needed: ColumnSet,
    mut each: impl FnMut(RowId, Row) -> Result<()>,
) -> Result<u64> {
    // The one difference the storage format makes: the clustered tree
    // points at chain heads, resolved to the version the snapshot sees; a
    // secondary index holds one entry per version, each an exact physical
    // version filtered with no walk.
    let (rids, heads) = match source {
        ProbeSource::PrimaryTree => (entry.probe_primary(probe)?, true),
        ProbeSource::Index(id, _) => (catalog.index(*id)?.probe(probe)?, false),
    };
    for &rid in &rids {
        let visible = match heads {
            true => entry.fetch_visible(rid, snap, needed)?,
            false => entry
                .version_visible(rid, snap, needed)?
                .map(|row| (rid, row)),
        };
        if let Some((rid, row)) = visible {
            each(rid, row)?;
        }
    }
    Ok(rids.len() as u64)
}

/// Run one `SeqScan` over `entry` under `snap`, handing every row that
/// passes `filter` to `each` in the reused row (`each` may take it), with
/// its version's id. Every visible version counts one tuple, rejected or
/// not. Returns the number of rows handed over.
fn seq_scan(
    entry: &TableEntry,
    filter: Option<&PhysExpr>,
    needed: ColumnSet,
    snap: &Snapshot,
    tuples: &mut u64,
    mut each: impl FnMut(RowId, &mut Row) -> Result<()>,
) -> Result<u64> {
    let mut filter = ScanFilter::new(filter, needed);
    let mut scan = entry.scan_visible(snap, needed);
    let mut row = Row::default();
    let mut survivors = 0;
    while let Some(item) = scan.next_record() {
        let (rid, _, bytes) = item?;
        *tuples += 1;
        if filter.admit(bytes, &mut row)? {
            survivors += 1;
            each(rid, &mut row)?;
        }
    }
    Ok(survivors)
}

/// What the byte test concluded about one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The filter is false or unknown: skip the row unbuilt.
    Reject,
    /// The filter is true.
    Accept,
    /// Conjuncts `from..` are still to be evaluated on the built row;
    /// `unknown` when an earlier one was already unknown (the row cannot
    /// pass, but a later conjunct may still raise an error).
    Open { from: usize, unknown: bool },
}

/// A scan's filter, split into the conjuncts a byte test decides and the
/// rest, and the buffer its records' cells are walked into.
struct ScanFilter<'p> {
    /// The filter's `AND` leaves, left to right (one leaf for a filter that
    /// is not an `AND`).
    conjuncts: Vec<&'p PhysExpr>,
    /// Byte tests for the longest prefix of `conjuncts` that has them.
    tests: Vec<ByteTest<'p>>,
    /// The columns the scan hands on; every other one reads as NULL.
    needed: ColumnSet,
    /// The per-scan cell buffer: empty between records, its allocation
    /// lent to each record in turn (see [`relend`]).
    spare: Vec<Cell<'static>>,
}

impl<'p> ScanFilter<'p> {
    fn new(filter: Option<&'p PhysExpr>, needed: ColumnSet) -> Self {
        let mut conjuncts = Vec::new();
        if let Some(f) = filter {
            flatten_and(f, &mut conjuncts);
        }
        let tests = conjuncts
            .iter()
            .map_while(|c| ByteTest::of(c, needed))
            .collect();
        ScanFilter {
            conjuncts,
            tests,
            needed,
            spare: Vec::new(),
        }
    }

    /// Does the encoded row `bytes` pass? When it does, `row` holds its
    /// `needed` columns; a row the byte test rejects is not built. Same
    /// answer, same row and same error as decoding the row and evaluating
    /// the filter on it.
    #[inline(always)]
    fn admit(&mut self, bytes: &[u8], row: &mut Row) -> Result<bool> {
        let mut cells = relend(std::mem::take(&mut self.spare));
        let admitted = self.admit_cells(bytes, &mut cells, row);
        self.spare = relend(cells);
        admitted
    }

    /// [`ScanFilter::admit`] with `cells` (empty) as the record's buffer:
    /// the cell of each `needed` column, in column order.
    #[inline(always)]
    fn admit_cells<'a>(
        &self,
        bytes: &'a [u8],
        cells: &mut Vec<Cell<'a>>,
        row: &mut Row,
    ) -> Result<bool> {
        let record = RowCells::new(bytes)?;
        let width = record.width();
        record.walk(self.needed, |_, cell| cells.push(cell))?;
        let verdict = self.verdict(width, cells);
        if verdict == Verdict::Reject {
            return Ok(false);
        }
        // Every position is written: a `needed` one from the next cell, any
        // other with NULL, as the decoder leaves it.
        let values = row.values_mut();
        values.resize(width, Value::Null);
        let mut kept = cells.iter();
        for (col, value) in values.iter_mut().enumerate() {
            *value = match self.needed.contains(col) {
                true => kept.next().map_or(Value::Null, |cell| cell.to_value()),
                false => Value::Null,
            };
        }
        match verdict {
            Verdict::Open { from, unknown } => self.rest_admits(from, unknown, row),
            _ => Ok(true),
        }
    }

    /// The byte tests, in conjunct order, on a record `width` columns wide
    /// whose `needed` columns hold `cells`: up to the first that is false
    /// (reject) or open.
    #[inline(always)]
    fn verdict(&self, width: usize, cells: &[Cell<'_>]) -> Verdict {
        let mut unknown = false;
        for (from, test) in self.tests.iter().enumerate() {
            // A test of a column past the record's width stays open.
            let Some(cell) = test.cell(width, cells) else {
                return Verdict::Open { from, unknown };
            };
            match test.outcome(cell) {
                Outcome::True => {}
                Outcome::Unknown => unknown = true,
                Outcome::False => return Verdict::Reject,
                Outcome::Open => return Verdict::Open { from, unknown },
            }
        }
        match self.tests.len() {
            from if from < self.conjuncts.len() => Verdict::Open { from, unknown },
            _ if unknown => Verdict::Reject,
            _ => Verdict::Accept,
        }
    }

    /// Finish a [`Verdict::Open`] on the built row: conjuncts `from..` in
    /// order, as `AND` evaluates them.
    fn rest_admits(&self, from: usize, unknown: bool, row: &Row) -> Result<bool> {
        // Not an `AND`: the filter's own value must be boolean (or NULL).
        if let [only] = self.conjuncts.as_slice() {
            return only.eval_predicate(row);
        }
        let mut unknown = unknown;
        for c in self.conjuncts.iter().skip(from) {
            match c.eval(row)? {
                Value::Bool(false) => return Ok(false),
                Value::Bool(true) => {}
                _ => unknown = true,
            }
        }
        Ok(!unknown)
    }
}

/// A cell buffer's allocation, emptied and retyped for records of another
/// lifetime. Each record's cells borrow its bytes in the scan's page copy,
/// which the next record overwrites, so one `Vec<Cell>` cannot outlive a
/// record; this hands its allocation on instead. The standard library
/// collects a `vec::IntoIter` into a vector of the same layout in place, so
/// nothing is allocated (`tests/scan_budget.rs` counts).
fn relend<'b>(cells: Vec<Cell<'_>>) -> Vec<Cell<'b>> {
    cells.into_iter().map_while(|_| None).collect()
}

fn flatten_and<'p>(e: &'p PhysExpr, out: &mut Vec<&'p PhysExpr>) {
    match e {
        PhysExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            flatten_and(left, out);
            flatten_and(right, out);
        }
        leaf => out.push(leaf),
    }
}

/// A conjunct's value on one record, as far as the bytes tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    True,
    False,
    /// SQL NULL.
    Unknown,
    /// Not decided on the bytes: evaluate on the built row.
    Open,
}

impl From<bool> for Outcome {
    fn from(b: bool) -> Self {
        if b {
            Outcome::True
        } else {
            Outcome::False
        }
    }
}

/// One conjunct compiled against a column of the encoded row.
#[derive(Debug)]
struct ByteTest<'p> {
    col: usize,
    /// Where the column's cell sits among a record's `needed` cells; `None`
    /// for a column outside `needed`, which reads as NULL.
    slot: Option<usize>,
    check: Check<'p>,
}

/// What a [`ByteTest`] checks. Every comparison with a literal is a range
/// test: `col = 5` is `[5, 5]`, `col <> 5` that range negated, `col < 5`
/// is `[MIN, 4]`, `col NOT BETWEEN 1 AND 9` is `[1, 9]` negated.
#[derive(Debug, Clone, Copy)]
enum Check<'p> {
    /// `lo <= col <= hi` on ints (`!=` that when `negated`); strict bounds
    /// are tightened to inclusive ones, an empty range has `lo > hi`. (Kept
    /// apart from `Strs`: two compares instead of two `Bound` matches per
    /// row measured 3–5 % of `scan_cold` throughput, 6/6 pairs.)
    Ints { lo: i64, hi: i64, negated: bool },
    /// The same on strings, in byte order (strict bounds stay strict).
    Strs {
        lo: Bound<&'p str>,
        hi: Bound<&'p str>,
        negated: bool,
    },
    /// `col IS [NOT] NULL`.
    IsNull { negated: bool },
}

impl<'p> ByteTest<'p> {
    fn of(e: &'p PhysExpr, needed: ColumnSet) -> Option<Self> {
        use Bound::{Excluded, Included, Unbounded};
        let (col, lo, hi, negated) = match e {
            PhysExpr::Binary { op, left, right } => {
                let (col, lit, op) = match (&**left, &**right) {
                    (PhysExpr::Col(col), PhysExpr::Literal(v)) => (*col, v, *op),
                    // `lit <op> col` is `col <mirrored op> lit`.
                    (PhysExpr::Literal(v), PhysExpr::Col(col)) => (*col, v, mirrored(*op)),
                    _ => return None,
                };
                let (lo, hi, negated) = match op {
                    BinOp::Eq => (Included(lit), Included(lit), false),
                    BinOp::Neq => (Included(lit), Included(lit), true),
                    BinOp::Lt => (Unbounded, Excluded(lit), false),
                    BinOp::Le => (Unbounded, Included(lit), false),
                    BinOp::Gt => (Excluded(lit), Unbounded, false),
                    BinOp::Ge => (Included(lit), Unbounded, false),
                    _ => return None,
                };
                (col, lo, hi, negated)
            }
            PhysExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => match (&**expr, &**lo, &**hi) {
                (PhysExpr::Col(col), PhysExpr::Literal(lo), PhysExpr::Literal(hi)) => {
                    (*col, Included(lo), Included(hi), *negated)
                }
                _ => return None,
            },
            PhysExpr::IsNull { expr, negated } => {
                let PhysExpr::Col(col) = &**expr else {
                    return None;
                };
                let check = Check::IsNull { negated: *negated };
                return Some(ByteTest::on(*col, needed, check));
            }
            _ => return None,
        };
        let check = match (bound(lo, Value::as_int), bound(hi, Value::as_int)) {
            (Some(lo), Some(hi)) => {
                // Strict bounds tightened; one past `i64`'s ends is empty.
                let lo = match lo {
                    Unbounded => Some(i64::MIN),
                    Included(v) => Some(v),
                    Excluded(v) => v.checked_add(1),
                };
                let hi = match hi {
                    Unbounded => Some(i64::MAX),
                    Included(v) => Some(v),
                    Excluded(v) => v.checked_sub(1),
                };
                let (lo, hi) = lo.zip(hi).unwrap_or((1, 0));
                Check::Ints { lo, hi, negated }
            }
            _ => Check::Strs {
                lo: bound(lo, Value::as_str)?,
                hi: bound(hi, Value::as_str)?,
                negated,
            },
        };
        Some(ByteTest::on(col, needed, check))
    }

    fn on(col: usize, needed: ColumnSet, check: Check<'p>) -> Self {
        let slot = needed.contains(col).then(|| needed.count(col));
        ByteTest { col, slot, check }
    }

    /// The tested column's cell in a record `width` columns wide whose
    /// `needed` columns hold `cells`, as the decoder would read it; `None`
    /// past the width (where a `needed` column's slot is past the cells).
    #[inline(always)]
    fn cell<'a>(&self, width: usize, cells: &[Cell<'a>]) -> Option<Cell<'a>> {
        match self.slot {
            Some(slot) => cells.get(slot).copied(),
            None => (self.col < width).then_some(Cell::Null),
        }
    }

    #[inline(always)]
    fn outcome(&self, cell: Cell<'_>) -> Outcome {
        match (&self.check, cell) {
            (Check::IsNull { negated }, cell) => {
                Outcome::from(matches!(cell, Cell::Null) != *negated)
            }
            (_, Cell::Null) => Outcome::Unknown,
            (Check::Ints { lo, hi, negated }, Cell::Int(v)) => {
                Outcome::from((*lo <= v && v <= *hi) != *negated)
            }
            (Check::Strs { lo, hi, negated }, Cell::Str(s)) => {
                Outcome::from((*lo, *hi).contains(&s) != *negated)
            }
            _ => Outcome::Open,
        }
    }
}

/// `b` with its literal converted by `f`; `None` where `f` does not apply.
fn bound<'v, T>(b: Bound<&'v Value>, f: impl Fn(&'v Value) -> Option<T>) -> Option<Bound<T>> {
    Some(match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(f(v)?),
        Bound::Excluded(v) => Bound::Excluded(f(v)?),
    })
}

/// `op` with its operands swapped: `lit < col` is `col > lit`.
fn mirrored(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_sql::UnOp;
    use ingot_storage::{decode_row_cols, encode_row};
    use proptest::prelude::*;

    fn col(c: usize) -> Box<PhysExpr> {
        Box::new(PhysExpr::Col(c))
    }

    fn lit(v: Value) -> Box<PhysExpr> {
        Box::new(PhysExpr::Literal(v))
    }

    fn binary(op: BinOp, left: Box<PhysExpr>, right: Box<PhysExpr>) -> PhysExpr {
        PhysExpr::Binary { op, left, right }
    }

    fn and(left: PhysExpr, right: PhysExpr) -> PhysExpr {
        binary(BinOp::And, Box::new(left), Box::new(right))
    }

    /// What the executor did before the byte test: decode, then evaluate.
    fn decode_then_eval(pred: &PhysExpr, bytes: &[u8], needed: ColumnSet) -> Result<Option<Row>> {
        let row = decode_row_cols(bytes, needed)?;
        Ok(pred.eval_predicate(&row)?.then_some(row))
    }

    fn admit(filter: &mut ScanFilter<'_>, bytes: &[u8]) -> Result<Option<Row>> {
        let mut row = Row::default();
        Ok(filter.admit(bytes, &mut row)?.then_some(row))
    }

    /// The byte tests' verdict on one record, walked as the scan walks it.
    fn verdict(filter: &ScanFilter<'_>, bytes: &[u8]) -> Result<Verdict> {
        let record = RowCells::new(bytes)?;
        let mut cells = Vec::new();
        record.walk(filter.needed, |_, cell| cells.push(cell))?;
        Ok(filter.verdict(record.width(), &cells))
    }

    fn only(cols: &[usize]) -> ColumnSet {
        let mut set = ColumnSet::none();
        cols.iter().for_each(|&c| set.insert(c));
        set
    }

    #[test]
    fn a_range_on_an_int_column_is_decided_on_the_bytes() {
        // `len between 30 and 40`, the scan_cold filter.
        let pred = PhysExpr::Between {
            expr: col(2),
            lo: lit(Value::Int(30)),
            hi: lit(Value::Int(40)),
            negated: false,
        };
        let filter = ScanFilter::new(Some(&pred), only(&[2]));
        for (len, want) in [
            (29, Verdict::Reject),
            (30, Verdict::Accept),
            (41, Verdict::Reject),
        ] {
            let row = Row::new(vec![
                Value::Str("NF00000001".into()),
                Value::Null,
                Value::Int(len),
                Value::Float(2.5),
            ]);
            assert_eq!(verdict(&filter, &encode_row(&row)).unwrap(), want);
        }
    }

    #[test]
    fn an_open_conjunct_keeps_the_ones_after_it_open() {
        // `f < 3 and i = 1` on (f = 2.5, i = 2): the float test stays open,
        // so `i = 1` is not allowed to reject the row unbuilt — it is
        // evaluated after `f < 3`, as AND evaluates it.
        let pred = and(
            binary(BinOp::Lt, col(0), lit(Value::Int(3))),
            binary(BinOp::Eq, col(1), lit(Value::Int(1))),
        );
        let mut filter = ScanFilter::new(Some(&pred), ColumnSet::all());
        let bytes = encode_row(&Row::new(vec![Value::Float(2.5), Value::Int(2)]));
        let want = Verdict::Open {
            from: 0,
            unknown: false,
        };
        assert_eq!(verdict(&filter, &bytes).unwrap(), want);
        assert_eq!(admit(&mut filter, &bytes).unwrap(), None);
    }

    #[test]
    fn every_test_on_one_column_is_applied_in_order() {
        // `len >= 30 and len <= 40 and len <> 35`.
        let pred = and(
            and(
                binary(BinOp::Ge, col(1), lit(Value::Int(30))),
                binary(BinOp::Le, col(1), lit(Value::Int(40))),
            ),
            binary(BinOp::Neq, col(1), lit(Value::Int(35))),
        );
        let mut filter = ScanFilter::new(Some(&pred), only(&[1]));
        assert_eq!(filter.tests.len(), 3);
        for (len, pass) in [
            (29, false),
            (30, true),
            (35, false),
            (40, true),
            (41, false),
        ] {
            let bytes = encode_row(&Row::new(vec![Value::Str("x".into()), Value::Int(len)]));
            let got = admit(&mut filter, &bytes).unwrap();
            let want = Row::new(vec![Value::Null, Value::Int(len)]);
            assert_eq!(got, pass.then_some(want), "len {len}");
        }
    }

    #[test]
    fn the_reused_row_takes_each_survivors_width() {
        // One row serves the whole scan: a survivor narrower or wider than
        // the one before it is still exactly its decoded row.
        let pred = binary(BinOp::Ge, col(1), lit(Value::Int(0)));
        let needed = only(&[1, 2]);
        let mut filter = ScanFilter::new(Some(&pred), needed);
        let mut row = Row::default();
        for values in [
            vec![
                Value::Str("a".into()),
                Value::Int(5),
                Value::Str("b".into()),
                Value::Int(6),
            ],
            vec![Value::Str("c".into()), Value::Int(7)],
            vec![Value::Null, Value::Int(8), Value::Str("d".into())],
        ] {
            let bytes = encode_row(&Row::new(values));
            assert!(filter.admit(&bytes, &mut row).unwrap());
            assert_eq!(row, decode_row_cols(&bytes, needed).unwrap());
        }
    }

    #[test]
    fn a_column_past_the_mask_is_tested_and_built() {
        // `ColumnSet` holds every position from 64 on: a test there reads
        // the real cell, and the built row carries it.
        let mut values = vec![Value::Int(7); 70];
        values[66] = Value::Str("b".into());
        let bytes = encode_row(&Row::new(values));
        let pred = binary(BinOp::Eq, col(66), lit(Value::Str("b".into())));
        let mut filter = ScanFilter::new(Some(&pred), only(&[0]));
        assert_eq!(verdict(&filter, &bytes).unwrap(), Verdict::Accept);
        let row = admit(&mut filter, &bytes).unwrap().expect("admitted");
        assert_eq!(row, decode_row_cols(&bytes, only(&[0])).unwrap());
        assert_eq!(row.values()[66], Value::Str("b".into()));
        assert_eq!(row.values()[1], Value::Null);
    }

    #[test]
    fn a_needed_untested_string_must_be_valid_even_on_a_rejected_row() {
        // `len = 1` rejects (len = 2), but the needed name is not UTF-8:
        // decoding fails, so the scan fails too.
        let mut bytes = encode_row(&Row::new(vec![Value::Str("ab".into()), Value::Int(2)]));
        let at = bytes.iter().position(|&b| b == b'a').unwrap();
        bytes[at] = 0xFF;
        let pred = binary(BinOp::Eq, col(1), lit(Value::Int(1)));
        let mut filter = ScanFilter::new(Some(&pred), only(&[0, 1]));
        assert!(decode_row_cols(&bytes, only(&[0, 1])).is_err());
        assert!(admit(&mut filter, &bytes).is_err());
        // Not needed, the string is stepped over unread.
        let mut filter = ScanFilter::new(Some(&pred), only(&[1]));
        assert_eq!(admit(&mut filter, &bytes).unwrap(), None);
    }

    /// Small domains, so that comparisons hit equality: ints, the same
    /// numbers as floats and fractions, strings sharing prefixes (and the
    /// empty string; `~` is written as the invalid UTF-8 byte 0xFF), NULL and
    /// booleans.
    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (-3i64..4).prop_map(Value::Int),
            (-3i64..4).prop_map(|i| Value::Float(i as f64)),
            (-3.0f64..3.0).prop_map(Value::Float),
            "[ab~]{0,3}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    /// A narrow row, or one reaching past `ColumnSet`'s 64-bit mask.
    fn arb_values() -> impl Strategy<Value = Vec<Value>> {
        prop_oneof![
            prop::collection::vec(arb_value(), 0..6),
            prop::collection::vec(arb_value(), 62..68),
        ]
    }

    /// Columns of a narrow row and one past it, and of a wide row on both
    /// sides of the mask's end.
    fn arb_col() -> impl Strategy<Value = usize> {
        prop_oneof![0usize..7, 62usize..69]
    }

    /// `row`'s encoding, with every `~` byte turned into 0xFF. The encoding
    /// holds `~` (0x7E) only in string payloads and float bits: the other
    /// tags, widths, lengths and small ints never reach it. A changed float
    /// is still a float, read the same way by both sides.
    fn encode_garbled(row: &Row) -> Vec<u8> {
        let mut bytes = encode_row(row);
        bytes
            .iter_mut()
            .filter(|b| **b == b'~')
            .for_each(|b| *b = 0xFF);
        bytes
    }

    const OPS: [BinOp; 6] = [
        BinOp::Eq,
        BinOp::Neq,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];

    /// Every shape the byte test takes, plus two it never takes (`NOT` and
    /// a `LIKE` that errors on a non-string).
    fn arb_conjunct() -> impl Strategy<Value = PhysExpr> {
        let val = arb_value;
        prop_oneof![
            (arb_col(), 0usize..6, val(), any::<bool>()).prop_map(|(c, op, v, flip)| {
                match flip {
                    false => binary(OPS[op], col(c), lit(v)),
                    true => binary(OPS[op], lit(v), col(c)),
                }
            }),
            (arb_col(), val(), val(), any::<bool>()).prop_map(|(c, lo, hi, negated)| {
                PhysExpr::Between {
                    expr: col(c),
                    lo: lit(lo),
                    hi: lit(hi),
                    negated,
                }
            }),
            (arb_col(), any::<bool>()).prop_map(|(c, negated)| PhysExpr::IsNull {
                expr: col(c),
                negated
            }),
            (arb_col(), val()).prop_map(|(c, v)| PhysExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(binary(BinOp::Eq, col(c), lit(v))),
            }),
            arb_col().prop_map(|c| PhysExpr::Like {
                expr: col(c),
                pattern: "a%".into(),
                negated: false,
            }),
        ]
    }

    /// `e` with every column reference moved to column `c`.
    fn on_column(e: PhysExpr, c: usize) -> PhysExpr {
        let moved = |e: Box<PhysExpr>| Box::new(on_column(*e, c));
        match e {
            PhysExpr::Col(_) => PhysExpr::Col(c),
            PhysExpr::Binary { op, left, right } => binary(op, moved(left), moved(right)),
            PhysExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => PhysExpr::Between {
                expr: moved(expr),
                lo,
                hi,
                negated,
            },
            PhysExpr::IsNull { expr, negated } => PhysExpr::IsNull {
                expr: moved(expr),
                negated,
            },
            PhysExpr::Unary { op, expr } => PhysExpr::Unary {
                op,
                expr: moved(expr),
            },
            PhysExpr::Like {
                expr,
                pattern,
                negated,
            } => PhysExpr::Like {
                expr: moved(expr),
                pattern,
                negated,
            },
            other => other,
        }
    }

    /// One to three conjuncts under AND / OR; with `one_column`, every
    /// conjunct tests the same column.
    fn arb_predicate() -> impl Strategy<Value = PhysExpr> {
        let or = |l, r| binary(BinOp::Or, Box::new(l), Box::new(r));
        (
            arb_conjunct(),
            arb_conjunct(),
            arb_conjunct(),
            0u8..5,
            (any::<bool>(), arb_col()),
        )
            .prop_map(move |(a, b, c, shape, (one_column, at))| {
                let pred = match shape {
                    0 => a,
                    1 => and(a, b),
                    2 => or(a, b),
                    3 => and(and(a, b), c),
                    _ => and(a, or(b, c)),
                };
                match one_column {
                    true => on_column(pred, at),
                    false => pred,
                }
            })
    }

    fn column_set(mask: u8) -> ColumnSet {
        let mut set = ColumnSet::none();
        (0..8)
            .filter(|c| mask >> c & 1 == 1)
            .for_each(|c| set.insert(c));
        set
    }

    proptest! {
        /// The byte test is exact: for every accepted shape it admits the
        /// row, or fails, exactly when decoding the row and evaluating the
        /// filter on it would, and the row it builds from the walk's cells
        /// is the decoded row. Under every truncation of the record it does
        /// not panic, and the walk errs exactly when the decoder errs.
        #[test]
        fn the_byte_test_is_decode_then_evaluate(
            values in arb_values(),
            pred in arb_predicate(),
            mask in 0u8..=255,
        ) {
            let bytes = encode_garbled(&Row::new(values));
            let needed = column_set(mask);
            // One filter for every cut, as a scan reuses its cell buffer.
            let mut filter = ScanFilter::new(Some(&pred), needed);
            for cut in (0..=bytes.len()).rev() {
                let bytes = &bytes[..cut];
                let decoded = decode_row_cols(bytes, needed);
                prop_assert_eq!(
                    verdict(&filter, bytes).is_err(),
                    decoded.is_err(),
                    "cut {}", cut
                );
                let want = decode_then_eval(&pred, bytes, needed);
                match (want, admit(&mut filter, bytes)) {
                    (Ok(want), Ok(got)) => {
                        if let Some(row) = &got {
                            prop_assert_eq!(Some(row), decoded.as_ref().ok(), "cut {}", cut);
                        }
                        prop_assert_eq!(want, got, "cut {}", cut)
                    }
                    (Err(_), Err(_)) => {}
                    (want, got) => prop_assert!(false, "cut {}: {:?} vs {:?}", cut, want, got),
                }
            }
        }
    }
}
