//! Row and key codecs.
//!
//! Two encodings live here:
//!
//! * **Row codec** — a compact self-describing serialisation of a [`Row`]
//!   used as the record format of heap pages and as B-Tree payloads. It is
//!   read by one routine, [`RowCells::walk`]: a single tag/length walk over
//!   the record that hands the [`Cell`] of each wanted column to its caller
//!   — the decoder, which turns them into [`Value`]s, or a scan, which tests
//!   them on the bytes and builds its surviving rows from them.
//! * **Key codec** — a *memcomparable* encoding of key value lists: byte-wise
//!   `memcmp` order of the encoding equals the SQL sort order of the values.
//!   B-Tree nodes compare raw bytes only, which keeps comparisons in the hot
//!   path allocation- and branch-light (per the Rust performance guide).

use ingot_common::{ColumnSet, Error, Result, Row, Value};

// ---- row codec --------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL_FALSE: u8 = 4;
const TAG_BOOL_TRUE: u8 = 5;

/// Serialise a row into `out` (cleared first).
pub fn encode_row_into(row: &Row, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(row.byte_size());
    let n = row.len() as u16;
    out.extend_from_slice(&n.to_le_bytes());
    for v in row.values() {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(false) => out.push(TAG_BOOL_FALSE),
            Value::Bool(true) => out.push(TAG_BOOL_TRUE),
        }
    }
}

/// Serialise a row, allocating the output buffer.
pub fn encode_row(row: &Row) -> Vec<u8> {
    let mut out = Vec::new();
    encode_row_into(row, &mut out);
    out
}

/// Deserialise a row previously produced by [`encode_row`].
pub fn decode_row(bytes: &[u8]) -> Result<Row> {
    decode_row_cols(bytes, ColumnSet::all())
}

/// Deserialise the `needed` columns of a row. Every other position holds
/// [`Value::Null`], so the row keeps its width and column offsets; a skipped
/// string is stepped over (its length still bounds-checked) without UTF-8
/// validation or a copy.
pub fn decode_row_cols(bytes: &[u8], needed: ColumnSet) -> Result<Row> {
    let mut values = Vec::new();
    decode_row_cols_into(bytes, needed, &mut values)?;
    Ok(Row::new(values))
}

/// [`decode_row_cols`] into a caller-owned vector (cleared first), so a
/// caller can refill one row per record instead of allocating one.
pub fn decode_row_cols_into(bytes: &[u8], needed: ColumnSet, out: &mut Vec<Value>) -> Result<()> {
    out.clear();
    let record = RowCells::new(bytes)?;
    out.resize(record.width(), Value::Null);
    record.walk(needed, |col, cell| {
        if let Some(value) = out.get_mut(col) {
            *value = cell.to_value();
        }
    })
}

/// One encoded value, read in place: what the decoder turns into a
/// [`Value`], and what a scan's byte-level conjuncts compare without one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell<'a> {
    /// NULL.
    Null,
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A string, UTF-8 validated, borrowed from the record.
    Str(&'a str),
    /// A boolean.
    Bool(bool),
}

impl Cell<'_> {
    /// The owned value.
    #[inline]
    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Str(s) => Value::Str(s.to_owned()),
            Cell::Bool(b) => Value::Bool(b),
        }
    }
}

/// An encoded row whose width has been read, ready for the one walk over
/// its columns: the codec's one tag/length stepping routine, which the
/// decoder reads through into values and a scan into the cells it tests and
/// builds its survivors from — so the two fail on exactly the same records.
#[derive(Debug, Clone, Copy)]
pub struct RowCells<'a> {
    /// The record from its first column on.
    rest: &'a [u8],
    width: usize,
}

impl<'a> RowCells<'a> {
    /// The record `bytes`, its width read.
    #[inline(always)]
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        let mut rest = bytes;
        let Some(width) = take(&mut rest) else {
            return Err(truncated());
        };
        Ok(RowCells {
            rest,
            width: u16::from_le_bytes(width) as usize,
        })
    }

    /// Columns the record holds.
    #[inline(always)]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Step over every column once, checking each tag and length, and hand
    /// the cell of each column in `keep` to `kept`, with its position, in
    /// column order. A string outside `keep` is stepped over (its length
    /// still bounds-checked) without UTF-8 validation. A truncated record,
    /// an unknown tag or invalid UTF-8 in a kept string is an error, after
    /// `kept` has seen the columns before it.
    //
    // Always inlined: a scan walks every record of its heap through it, and
    // as a call across the crate boundary it costs that loop about half its
    // speed. One loop that hands over only the kept cells is also about
    // twice as fast as stepping an iterator of `Result<Cell>` per column.
    #[inline(always)]
    pub fn walk(self, keep: ColumnSet, mut kept: impl FnMut(usize, Cell<'a>)) -> Result<()> {
        let mut rest = self.rest;
        for col in 0..self.width {
            let keep = keep.contains(col);
            let Some([tag]) = take(&mut rest) else {
                return Err(truncated());
            };
            let cell = match tag {
                TAG_NULL => Cell::Null,
                TAG_INT => match take(&mut rest) {
                    Some(b) => Cell::Int(i64::from_le_bytes(b)),
                    None => return Err(truncated()),
                },
                TAG_FLOAT => match take(&mut rest) {
                    Some(b) => Cell::Float(f64::from_le_bytes(b)),
                    None => return Err(truncated()),
                },
                TAG_STR => {
                    let Some(len) = take(&mut rest) else {
                        return Err(truncated());
                    };
                    let Some((raw, tail)) = rest.split_at_checked(u32::from_le_bytes(len) as usize)
                    else {
                        return Err(truncated());
                    };
                    rest = tail;
                    if !keep {
                        continue;
                    }
                    match std::str::from_utf8(raw) {
                        Ok(s) => Cell::Str(s),
                        Err(_) => return Err(invalid_utf8()),
                    }
                }
                TAG_BOOL_FALSE => Cell::Bool(false),
                TAG_BOOL_TRUE => Cell::Bool(true),
                t => return Err(unknown_tag(t)),
            };
            if keep {
                kept(col, cell);
            }
        }
        Ok(())
    }
}

/// The next `N` bytes of `rest`, which moves past them.
#[inline(always)]
fn take<const N: usize>(rest: &mut &[u8]) -> Option<[u8; N]> {
    let (head, tail) = rest.split_first_chunk()?;
    *rest = tail;
    Some(*head)
}

#[cold]
fn truncated() -> Error {
    Error::storage("truncated row record")
}

#[cold]
fn invalid_utf8() -> Error {
    Error::storage("invalid utf8 in row record")
}

#[cold]
fn unknown_tag(tag: u8) -> Error {
    Error::storage(format!("unknown value tag {tag}"))
}

// ---- memcomparable key codec -------------------------------------------------

const KEY_NULL: u8 = 0x01;
const KEY_BOOL: u8 = 0x02;
const KEY_NUM: u8 = 0x03; // ints and floats share one numeric key space
const KEY_STR: u8 = 0x04;

/// Order-preserving f64 → u64 mapping (flip sign bit for positives, flip all
/// bits for negatives).
fn f64_key(f: f64) -> u64 {
    let bits = f.to_bits();
    if bits & 0x8000_0000_0000_0000 == 0 {
        bits | 0x8000_0000_0000_0000
    } else {
        !bits
    }
}

/// Append a memcomparable encoding of one value.
fn encode_key_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(KEY_NULL),
        Value::Bool(b) => {
            out.push(KEY_BOOL);
            out.push(*b as u8);
        }
        // Ints are encoded through the f64 key space so that a column that
        // mixes Int and Float literals (after coercion this cannot happen in
        // stored data, but what-if keys may mix) still orders correctly.
        // i64 values up to 2^53 round-trip exactly; NREF ids fit comfortably.
        Value::Int(i) => {
            out.push(KEY_NUM);
            out.extend_from_slice(&f64_key(*i as f64).to_be_bytes());
        }
        Value::Float(f) => {
            out.push(KEY_NUM);
            out.extend_from_slice(&f64_key(*f).to_be_bytes());
        }
        Value::Str(s) => {
            out.push(KEY_STR);
            // Escape 0x00 as 0x00 0xFF, terminate with 0x00 0x00 so that
            // prefixes order before extensions.
            for &b in s.as_bytes() {
                if b == 0 {
                    out.extend_from_slice(&[0x00, 0xFF]);
                } else {
                    out.push(b);
                }
            }
            out.extend_from_slice(&[0x00, 0x00]);
        }
    }
}

/// Memcomparable encoding of a composite key.
pub fn encode_key(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.iter().map(Value::byte_size).sum::<usize>() + 4);
    for v in values {
        encode_key_value(v, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row::new(vec![
            Value::Int(-42),
            Value::Float(3.5),
            Value::Str("NF0001".into()),
            Value::Null,
            Value::Bool(true),
        ])
    }

    #[test]
    fn row_roundtrip() {
        let r = row();
        assert_eq!(decode_row(&encode_row(&r)).unwrap(), r);
    }

    #[test]
    fn empty_row_roundtrip() {
        let r = Row::new(vec![]);
        assert_eq!(decode_row(&encode_row(&r)).unwrap(), r);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_row(&[9, 9]).is_err());
        assert!(decode_row(&[1, 0, 99]).is_err());
        assert!(decode_row(&[]).is_err());
    }

    #[test]
    fn key_order_matches_value_order_ints() {
        let vals = [-100i64, -1, 0, 1, 5, 1_000_000];
        for w in vals.windows(2) {
            let a = encode_key(&[Value::Int(w[0])]);
            let b = encode_key(&[Value::Int(w[1])]);
            assert!(a < b, "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn key_order_matches_value_order_floats_and_cross() {
        let a = encode_key(&[Value::Float(-2.5)]);
        let b = encode_key(&[Value::Int(-2)]);
        let c = encode_key(&[Value::Float(2.25)]);
        let d = encode_key(&[Value::Int(3)]);
        assert!(a < b && b < c && c < d);
    }

    #[test]
    fn key_order_strings_prefix() {
        let a = encode_key(&[Value::Str("NF".into())]);
        let b = encode_key(&[Value::Str("NF0".into())]);
        let c = encode_key(&[Value::Str("NG".into())]);
        assert!(a < b && b < c);
    }

    #[test]
    fn null_orders_first() {
        let n = encode_key(&[Value::Null]);
        let i = encode_key(&[Value::Int(i64::MIN / 1024)]);
        let s = encode_key(&[Value::Str(String::new())]);
        assert!(n < i && n < s);
    }

    #[test]
    fn composite_key_component_order() {
        let a = encode_key(&[Value::Str("a".into()), Value::Int(2)]);
        let b = encode_key(&[Value::Str("a".into()), Value::Int(10)]);
        let c = encode_key(&[Value::Str("b".into()), Value::Int(0)]);
        assert!(a < b && b < c);
    }

    #[test]
    fn string_with_nul_byte() {
        let a = encode_key(&[Value::Str("a\0b".into())]);
        let b = encode_key(&[Value::Str("a\0c".into())]);
        let plain = encode_key(&[Value::Str("a".into())]);
        assert!(plain < a && a < b);
    }
}
