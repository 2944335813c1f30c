//! Row and key codecs.
//!
//! Two encodings live here:
//!
//! * **Row codec** — a compact self-describing serialisation of a [`Row`]
//!   used as the record format of heap pages and as B-Tree payloads.
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

/// Checked fixed-size copy used by the decoder: a slice of the wrong length
/// becomes an error where `try_into().unwrap()` would panic.
fn arr<const N: usize>(s: &[u8]) -> Result<[u8; N]> {
    s.try_into()
        .map_err(|_| Error::storage("truncated row record"))
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
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
        match bytes.get(*pos..(*pos).saturating_add(n)) {
            Some(s) => {
                *pos += n;
                Ok(s)
            }
            None => Err(Error::storage("truncated row record")),
        }
    };
    let n = u16::from_le_bytes(arr(take(&mut pos, 2)?)?) as usize;
    let mut values = Vec::with_capacity(n);
    for col in 0..n {
        let keep = needed.contains(col);
        let tag = match take(&mut pos, 1)? {
            &[t] => t,
            _ => return Err(Error::storage("truncated row record")),
        };
        let v = match tag {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(i64::from_le_bytes(arr(take(&mut pos, 8)?)?)),
            TAG_FLOAT => Value::Float(f64::from_le_bytes(arr(take(&mut pos, 8)?)?)),
            TAG_STR => {
                let len = u32::from_le_bytes(arr(take(&mut pos, 4)?)?) as usize;
                let raw = take(&mut pos, len)?;
                if keep {
                    Value::Str(
                        std::str::from_utf8(raw)
                            .map_err(|_| Error::storage("invalid utf8 in row record"))?
                            .to_owned(),
                    )
                } else {
                    Value::Null
                }
            }
            TAG_BOOL_FALSE => Value::Bool(false),
            TAG_BOOL_TRUE => Value::Bool(true),
            t => return Err(Error::storage(format!("unknown value tag {t}"))),
        };
        values.push(if keep { v } else { Value::Null });
    }
    Ok(Row::new(values))
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
