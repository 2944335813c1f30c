//! Property-based tests of the storage layer: the B+Tree against a model,
//! codec round trips, memcomparable key ordering, and heap behaviour.

use std::collections::BTreeMap;
use std::sync::Arc;

use ingot_common::{ColumnSet, Row, SimClock, Value};
use ingot_storage::{
    decode_row, decode_row_cols, encode_key, encode_row, BTreeFile, BufferPool, DiskModel,
    HeapFile, MemoryBackend,
};
use proptest::prelude::*;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        Box::new(MemoryBackend::new()),
        DiskModel::new(SimClock::new()),
        256,
    ))
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN is normalised away at higher layers.
        (-1.0e12f64..1.0e12).prop_map(Value::Float),
        "[a-zA-Z0-9_%' ]{0,24}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_row() -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), 0..8).prop_map(Row::new)
}

/// A column set from the low bits of `mask` (rows here have < 8 columns).
fn column_set(mask: u8) -> ColumnSet {
    let mut set = ColumnSet::none();
    (0..8)
        .filter(|c| mask >> c & 1 == 1)
        .for_each(|c| set.insert(c));
    set
}

/// Comparable values for key-order testing (no NULL-vs-NULL subtleties,
/// single type class per comparison).
fn arb_ordkey() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1i64 << 50..1i64 << 50).prop_map(Value::Int),
        (-1.0e12f64..1.0e12).prop_map(Value::Float),
        "[a-z]{0,12}".prop_map(Value::Str),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn row_codec_roundtrip(row in arb_row()) {
        let encoded = encode_row(&row);
        let decoded = decode_row(&encoded).unwrap();
        prop_assert_eq!(decoded, row);
    }

    #[test]
    fn masked_decode_keeps_the_kept_and_nulls_the_rest(row in arb_row(), mask in any::<u8>()) {
        let encoded = encode_row(&row);
        let needed = column_set(mask);
        let decoded = decode_row_cols(&encoded, needed).unwrap();
        prop_assert_eq!(decoded.len(), row.len());
        for (c, v) in row.values().iter().enumerate() {
            let want = if needed.contains(c) { v } else { &Value::Null };
            prop_assert_eq!(decoded.get(c), want, "column {}", c);
        }
        // "All" is `decode_row`, value for value.
        prop_assert_eq!(decode_row_cols(&encoded, ColumnSet::all()).unwrap(), row);
    }

    #[test]
    fn every_truncation_errors_under_every_mask(row in arb_row(), mask in any::<u8>()) {
        // A skipped string still has its length bounds-checked.
        let encoded = encode_row(&row);
        for cut in 0..encoded.len() {
            prop_assert!(decode_row_cols(&encoded[..cut], column_set(mask)).is_err(), "cut {}", cut);
            prop_assert!(decode_row(&encoded[..cut]).is_err(), "cut {}", cut);
        }
    }

    #[test]
    fn key_encoding_preserves_order(a in arb_ordkey(), b in arb_ordkey()) {
        let ka = encode_key(std::slice::from_ref(&a));
        let kb = encode_key(std::slice::from_ref(&b));
        let vord = a.cmp(&b);
        let kord = ka.cmp(&kb);
        // Byte order must agree with value order whenever values differ.
        if vord != std::cmp::Ordering::Equal {
            prop_assert_eq!(kord, vord, "{:?} vs {:?}", a, b);
        }
    }

    #[test]
    fn composite_key_order_is_lexicographic(
        a1 in -1000i64..1000, a2 in -1000i64..1000,
        b1 in -1000i64..1000, b2 in -1000i64..1000,
    ) {
        let ka = encode_key(&[Value::Int(a1), Value::Int(a2)]);
        let kb = encode_key(&[Value::Int(b1), Value::Int(b2)]);
        prop_assert_eq!(ka.cmp(&kb), (a1, a2).cmp(&(b1, b2)));
    }

    #[test]
    fn btree_matches_model(
        ops in prop::collection::vec(
            (0u8..3, prop::collection::vec(any::<u8>(), 1..12), any::<u16>()),
            1..200,
        )
    ) {
        let tree = BTreeFile::create(pool()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (op, key, val) in ops {
            let val = val.to_le_bytes().to_vec();
            match op {
                0 => {
                    let old = tree.insert(&key, &val).unwrap();
                    let model_old = model.insert(key, val);
                    prop_assert_eq!(old, model_old);
                }
                1 => {
                    let got = tree.get(&key).unwrap();
                    prop_assert_eq!(got.as_ref(), model.get(&key));
                }
                _ => {
                    let got = tree.delete(&key).unwrap();
                    let model_got = model.remove(&key);
                    prop_assert_eq!(got, model_got);
                }
            }
            prop_assert_eq!(tree.entry_count(), model.len() as u64);
        }
        // Full scan agrees with the model, in order.
        let scanned: Vec<(Vec<u8>, Vec<u8>)> =
            tree.range(None, None).map(|r| r.unwrap()).collect();
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.into_iter().collect();
        prop_assert_eq!(scanned, expected);
    }

    #[test]
    fn btree_range_matches_model(
        keys in prop::collection::btree_set(0u32..5000, 1..300),
        lo in 0u32..5000,
        span in 0u32..1000,
    ) {
        let tree = BTreeFile::create(pool()).unwrap();
        for &k in &keys {
            tree.insert(&k.to_be_bytes(), b"v").unwrap();
        }
        let hi = lo.saturating_add(span);
        let got: Vec<u32> = tree
            .range(Some(&lo.to_be_bytes()), Some(&hi.to_be_bytes()))
            .map(|r| u32::from_be_bytes(r.unwrap().0.try_into().unwrap()))
            .collect();
        let expected: Vec<u32> = keys.iter().copied().filter(|&k| k >= lo && k <= hi).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn heap_preserves_all_rows(rows in prop::collection::vec(arb_row(), 1..120)) {
        let heap = HeapFile::create(pool(), 2).unwrap();
        let mut ids = Vec::new();
        for row in &rows {
            ids.push(heap.insert(row).unwrap());
        }
        for (id, row) in ids.iter().zip(&rows) {
            prop_assert_eq!(&heap.get(*id).unwrap(), row);
        }
        let scanned: Vec<Row> = heap.scan().map(|r| r.unwrap().1).collect();
        prop_assert_eq!(scanned, rows);
    }

    #[test]
    fn heap_delete_is_exact(
        rows in prop::collection::vec(arb_row(), 1..60),
        to_delete in prop::collection::vec(any::<prop::sample::Index>(), 0..20),
    ) {
        let heap = HeapFile::create(pool(), 1).unwrap();
        let ids: Vec<_> = rows.iter().map(|r| heap.insert(r).unwrap()).collect();
        let mut deleted = std::collections::HashSet::new();
        for idx in to_delete {
            let i = idx.index(ids.len());
            if deleted.insert(i) {
                heap.delete(ids[i]).unwrap();
            }
        }
        let survivors: Vec<Row> = heap.scan().map(|r| r.unwrap().1).collect();
        let expected: Vec<Row> = rows
            .iter()
            .enumerate()
            .filter(|(i, _)| !deleted.contains(i))
            .map(|(_, r)| r.clone())
            .collect();
        prop_assert_eq!(heap.row_count() as usize, expected.len());
        prop_assert_eq!(survivors, expected);
    }
}
