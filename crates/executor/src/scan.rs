//! The base-table scan loop and the conjuncts it tests on encoded bytes.
//!
//! A `SeqScan` is one loop over the heap cursor
//! ([`HeapScan::next_record`](ingot_storage::heap::HeapScan::next_record)).
//! Each visible version's pushed-down filter is first tested on the encoded
//! row in the scan's page copy: every leading conjunct of the shape
//! `col {=,<>,<,<=,>,>=} literal` (either side), `col [NOT] BETWEEN literal
//! AND literal` or `col IS [NOT] NULL` compares the column's [`Cell`] with
//! its literal, building no [`Value`]. A row a conjunct rejects is counted
//! and never decoded. The others are decoded into one reused [`Row`], the
//! conjuncts the byte test left open are evaluated there by [`PhysExpr`], and
//! the row is handed to the consumer by reference.
//!
//! **Exactness.** A byte test decides a conjunct only where it computes
//! exactly what `PhysExpr::eval` would: an int column against an int literal
//! (`i64` order), a string column against a string literal (raw UTF-8 byte
//! order, which is `Value::cmp` on strings), a NULL column against anything
//! (unknown), and `IS [NOT] NULL` on any column. A float or mixed-type
//! comparison, or a column past the record's width, stays open — and so does
//! every conjunct after it: `AND` evaluates left to right and stops at the
//! first false, so a later rejection must not hide an error the open
//! conjunct would raise. The byte test walks the whole record through the
//! decoder's own stepping routine ([`RowCells`]) with the same column set,
//! so it fails on exactly the records the decoder fails on.

use std::ops::{Bound, RangeBounds};

use ingot_catalog::TableEntry;
use ingot_common::{ColumnSet, Result, Row, Snapshot, Value};
use ingot_planner::PhysExpr;
use ingot_sql::BinOp;
use ingot_storage::{decode_row_cols_into, Cell, RowCells};

/// Run one `SeqScan` over `entry` under `snap`, handing every row that
/// passes `filter` to `each` in the reused row (`each` may take it). Every
/// visible version counts one tuple, rejected or not. Returns the number of
/// rows handed over.
pub(crate) fn seq_scan(
    entry: &TableEntry,
    filter: Option<&PhysExpr>,
    needed: ColumnSet,
    snap: &Snapshot,
    tuples: &mut u64,
    mut each: impl FnMut(&mut Row) -> Result<()>,
) -> Result<u64> {
    let filter = ScanFilter::new(filter);
    let mut scan = entry.scan_visible(snap, needed);
    let mut row = Row::default();
    let mut survivors = 0;
    while let Some(item) = scan.next_record() {
        let (_, _, bytes) = item?;
        *tuples += 1;
        if filter.admit(bytes, needed, &mut row)? {
            survivors += 1;
            each(&mut row)?;
        }
    }
    Ok(survivors)
}

/// What the byte test concluded about one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The filter is false or unknown: skip the row undecoded.
    Reject,
    /// The filter is true.
    Accept,
    /// Conjuncts `from..` are still to be evaluated on the decoded row;
    /// `unknown` when an earlier one was already unknown (the row cannot
    /// pass, but a later conjunct may still raise an error).
    Open { from: usize, unknown: bool },
}

/// A scan's filter, split into the conjuncts a byte test decides and the
/// rest.
struct ScanFilter<'p> {
    /// The filter's `AND` leaves, left to right (one leaf for a filter that
    /// is not an `AND`).
    conjuncts: Vec<&'p PhysExpr>,
    /// Byte tests for the longest prefix of `conjuncts` that has them.
    tests: Vec<ByteTest<'p>>,
    /// The columns some test reads.
    tested: ColumnSet,
}

impl<'p> ScanFilter<'p> {
    fn new(filter: Option<&'p PhysExpr>) -> Self {
        let mut conjuncts = Vec::new();
        if let Some(f) = filter {
            flatten_and(f, &mut conjuncts);
        }
        let tests: Vec<ByteTest<'p>> = conjuncts.iter().map_while(|c| ByteTest::of(c)).collect();
        let mut tested = ColumnSet::none();
        tests.iter().for_each(|t| tested.insert(t.col));
        ScanFilter {
            conjuncts,
            tests,
            tested,
        }
    }

    /// Does the encoded row `bytes` pass? When it does, `row` holds its
    /// decoded `needed` columns; a row the byte test rejects is not decoded.
    /// Same answer, and same error, as decoding the row and evaluating the
    /// filter on it.
    #[inline]
    fn admit(&self, bytes: &[u8], needed: ColumnSet, row: &mut Row) -> Result<bool> {
        let verdict = self.pretest(bytes, needed)?;
        if verdict == Verdict::Reject {
            return Ok(false);
        }
        decode_row_cols_into(bytes, needed, row.values_mut())?;
        match verdict {
            Verdict::Open { from, unknown } => self.rest_admits(from, unknown, row),
            _ => Ok(true),
        }
    }

    /// Test the encoded row `bytes` (read as the decoder would read it with
    /// `needed`). Errors exactly when decoding it would, unless no conjunct
    /// has a byte test (then the bytes are not read at all).
    fn pretest(&self, bytes: &[u8], needed: ColumnSet) -> Result<Verdict> {
        if self.tests.is_empty() {
            return Ok(match self.conjuncts.is_empty() {
                true => Verdict::Accept,
                false => Verdict::Open {
                    from: 0,
                    unknown: false,
                },
            });
        }
        // The first test, in conjunct order, that is false or open, and the
        // first that is unknown.
        let tests = self.tests.as_slice();
        let mut stop = (tests.len(), Outcome::True);
        let mut first_unknown = usize::MAX;
        let cells = RowCells::new(bytes, needed)?;
        let width = cells.width();
        for (col, cell) in cells.enumerate() {
            let cell = cell?;
            if !self.tested.contains(col) {
                continue;
            }
            for (i, test) in tests.iter().enumerate().take(stop.0) {
                if test.col != col {
                    continue;
                }
                match test.outcome(cell) {
                    Outcome::True => {}
                    Outcome::Unknown => first_unknown = first_unknown.min(i),
                    decisive => {
                        stop = (i, decisive);
                        break;
                    }
                }
            }
        }
        // A test of a column past the record's width stays open.
        if let Some(i) = tests.iter().take(stop.0).position(|t| t.col >= width) {
            stop = (i, Outcome::Open);
        }
        let (from, outcome) = stop;
        let unknown = first_unknown < from;
        Ok(match outcome {
            Outcome::False => Verdict::Reject,
            _ if from < self.conjuncts.len() => Verdict::Open { from, unknown },
            _ if unknown => Verdict::Reject,
            _ => Verdict::Accept,
        })
    }

    /// Finish a [`Verdict::Open`] on the decoded row: conjuncts `from..` in
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
    /// Not decided on the bytes: evaluate on the decoded row.
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
    fn of(e: &'p PhysExpr) -> Option<Self> {
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
                return Some(ByteTest { col: *col, check });
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
        Some(ByteTest { col, check })
    }

    #[inline]
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

    /// What the executor did before the byte test: decode, then evaluate.
    fn decode_then_eval(pred: &PhysExpr, bytes: &[u8], needed: ColumnSet) -> Result<Option<Row>> {
        let row = decode_row_cols(bytes, needed)?;
        Ok(pred.eval_predicate(&row)?.then_some(row))
    }

    fn admit(filter: &ScanFilter<'_>, bytes: &[u8], needed: ColumnSet) -> Result<Option<Row>> {
        let mut row = Row::default();
        Ok(filter.admit(bytes, needed, &mut row)?.then_some(row))
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
        let filter = ScanFilter::new(Some(&pred));
        let mut needed = ColumnSet::none();
        needed.insert(2);
        for (len, verdict) in [
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
            assert_eq!(filter.pretest(&encode_row(&row), needed).unwrap(), verdict);
        }
    }

    #[test]
    fn an_open_conjunct_keeps_the_ones_after_it_open() {
        // `f < 3 and i = 1` on (f = 2.5, i = 2): the float test stays open,
        // so `i = 1` is not allowed to reject the row undecoded — it is
        // evaluated after `f < 3`, as AND evaluates it.
        let pred = binary(
            BinOp::And,
            Box::new(binary(BinOp::Lt, col(0), lit(Value::Int(3)))),
            Box::new(binary(BinOp::Eq, col(1), lit(Value::Int(1)))),
        );
        let filter = ScanFilter::new(Some(&pred));
        let bytes = encode_row(&Row::new(vec![Value::Float(2.5), Value::Int(2)]));
        let verdict = filter.pretest(&bytes, ColumnSet::all()).unwrap();
        assert_eq!(
            verdict,
            Verdict::Open {
                from: 0,
                unknown: false
            }
        );
        assert_eq!(admit(&filter, &bytes, ColumnSet::all()).unwrap(), None);
    }

    /// Small domains, so that comparisons hit equality: ints, the same
    /// numbers as floats and fractions, strings sharing prefixes (and the
    /// empty string), NULL and booleans.
    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (-3i64..4).prop_map(Value::Int),
            (-3i64..4).prop_map(|i| Value::Float(i as f64)),
            (-3.0f64..3.0).prop_map(Value::Float),
            "[ab]{0,3}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    const OPS: [BinOp; 6] = [
        BinOp::Eq,
        BinOp::Neq,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];

    /// Every shape the byte test takes, on columns up to one past the
    /// widest row, plus two it never takes (`NOT` and a `LIKE` that errors
    /// on a non-string).
    fn arb_conjunct() -> impl Strategy<Value = PhysExpr> {
        let val = arb_value;
        prop_oneof![
            (0usize..7, 0usize..6, val(), any::<bool>()).prop_map(|(c, op, v, flip)| {
                match flip {
                    false => binary(OPS[op], col(c), lit(v)),
                    true => binary(OPS[op], lit(v), col(c)),
                }
            }),
            (0usize..7, val(), val(), any::<bool>()).prop_map(|(c, lo, hi, negated)| {
                PhysExpr::Between {
                    expr: col(c),
                    lo: lit(lo),
                    hi: lit(hi),
                    negated,
                }
            }),
            (0usize..7, any::<bool>()).prop_map(|(c, negated)| PhysExpr::IsNull {
                expr: col(c),
                negated
            }),
            (0usize..7, val()).prop_map(|(c, v)| PhysExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(binary(BinOp::Eq, col(c), lit(v))),
            }),
            (0usize..7).prop_map(|c| PhysExpr::Like {
                expr: col(c),
                pattern: "a%".into(),
                negated: false,
            }),
        ]
    }

    fn arb_predicate() -> impl Strategy<Value = PhysExpr> {
        let and = |l, r| binary(BinOp::And, Box::new(l), Box::new(r));
        let or = |l, r| binary(BinOp::Or, Box::new(l), Box::new(r));
        (arb_conjunct(), arb_conjunct(), arb_conjunct(), 0u8..5).prop_map(
            move |(a, b, c, shape)| match shape {
                0 => a,
                1 => and(a, b),
                2 => or(a, b),
                3 => and(and(a, b), c),
                _ => and(a, or(b, c)),
            },
        )
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
        /// row, with the same decoded values, or fails, exactly when
        /// decoding the row and evaluating the filter on it would. Under
        /// every truncation of the record it does not panic, and it errs
        /// exactly when the decoder errs.
        #[test]
        fn the_byte_test_is_decode_then_evaluate(
            values in prop::collection::vec(arb_value(), 0..6),
            pred in arb_predicate(),
            mask in 0u8..=255,
        ) {
            let bytes = encode_row(&Row::new(values));
            let needed = column_set(mask);
            let filter = ScanFilter::new(Some(&pred));
            for cut in (0..=bytes.len()).rev() {
                let bytes = &bytes[..cut];
                let want = decode_then_eval(&pred, bytes, needed);
                match (want, admit(&filter, bytes, needed)) {
                    (Ok(want), Ok(got)) => prop_assert_eq!(want, got, "cut {}", cut),
                    (Err(_), Err(_)) => {}
                    (want, got) => prop_assert!(false, "cut {}: {:?} vs {:?}", cut, want, got),
                }
                if !filter.tests.is_empty() {
                    prop_assert_eq!(
                        filter.pretest(bytes, needed).is_err(),
                        decode_row_cols(bytes, needed).is_err(),
                        "cut {}", cut
                    );
                }
            }
        }
    }
}
