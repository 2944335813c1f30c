//! Property-based tests of the storage layer: the B+Tree against a model
//! and, page for page, against the retired decode/encode write path; codec
//! round trips, memcomparable key ordering, and heap behaviour.

mod btree_oracle;

use std::collections::BTreeMap;
use std::sync::Arc;

use btree_oracle::OracleTree;
use ingot_common::{ColumnSet, Error, Row, SimClock, Value};
use ingot_storage::{
    decode_row, decode_row_cols, encode_key, encode_row, BTreeFile, BufferPool, DiskModel, FileId,
    HeapFile, MemoryBackend, RowId, VersionMeta, PAGE_SIZE, VERSION_HEADER,
};
use proptest::prelude::*;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        Box::new(MemoryBackend::new()),
        DiskModel::new(SimClock::new()),
        256,
    ))
}

/// Every `(key, value)` of `tree` within the bounds, in leaf order.
fn entries_in(tree: &BTreeFile, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut got = Vec::new();
    tree.for_each_in_range(lo, hi, |k, v| got.push((k.to_vec(), v.to_vec())))
        .unwrap();
    got
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

// ---------------------------------------------------------------------------
// The in-place B-Tree against the retired decode/encode write path.
// ---------------------------------------------------------------------------

/// Where a node's entries must end; its directory follows.
const NODE_CAPACITY: usize = PAGE_SIZE - 64;
/// Largest entry (`4 + key + value` bytes) a tree accepts.
const MAX_ENTRY: usize = NODE_CAPACITY - 16;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform-ish in `lo..=hi`.
    fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// Entry-size regimes of the differential stream. The retired write path
/// cuts at the entry *count* median, so a node mixing tiny and huge entries
/// can leave it a half that fits no page; only `Mixed` does that, and it is
/// checked against the map alone.
#[derive(Clone, Copy, Debug)]
enum Regime {
    /// 4–12-byte keys, 0–40-byte values: hundreds of entries per node.
    Narrow,
    /// 900–1 099-byte keys, 0–300-byte values: ≤ 8 entries per node, so 700
    /// keys force splits on three levels.
    Wide,
    /// 4 000–7 999-byte keys, values up to the entry limit: one entry per
    /// leaf, one or two keys per internal node.
    Giant,
    /// Narrow keys; values mostly 0–40 bytes, one in eight 3 000 bytes up to
    /// the entry limit, so tiny and huge entries share leaves.
    Mixed,
}

impl Regime {
    /// `(ascending, descending, scattered, mixed)` op counts.
    fn phases(self) -> [usize; 4] {
        match self {
            Regime::Narrow => [400, 400, 1200, 1000],
            Regime::Wide => [150, 150, 450, 400],
            Regime::Giant => [15, 15, 40, 80],
            Regime::Mixed => [300, 300, 900, 800],
        }
    }

    /// The key of `id`: its big-endian bytes (so ids order keys) padded to a
    /// length that depends on the id alone (so a re-insert hits the same key).
    fn key(self, id: u32) -> Vec<u8> {
        let h = (id.wrapping_mul(2_654_435_761) >> 7) as usize;
        let len = match self {
            Regime::Narrow | Regime::Mixed => 4 + h % 9,
            Regime::Wide => 900 + h % 200,
            Regime::Giant => 4000 + h % 4000,
        };
        let mut key = id.to_be_bytes().to_vec();
        key.resize(len, id as u8);
        key
    }

    fn max_value(self, key: &[u8]) -> usize {
        match self {
            Regime::Narrow => 40,
            Regime::Wide => 300,
            Regime::Giant | Regime::Mixed => MAX_ENTRY - 4 - key.len(),
        }
    }

    /// The length of a freshly inserted value.
    fn fresh_len(self, rng: &mut XorShift, key: &[u8]) -> usize {
        match self {
            Regime::Mixed if !rng.next().is_multiple_of(8) => rng.between(0, 40),
            Regime::Mixed => rng.between(3000, self.max_value(key)),
            _ => rng.between(0, self.max_value(key)),
        }
    }

    /// Whether the retired write path builds this regime's trees.
    fn has_oracle(self) -> bool {
        !matches!(self, Regime::Mixed)
    }
}

/// The directory a node's entries call for: the offset of every
/// ⌈n/32⌉-th entry, starting with the first, zero behind the last sample.
fn directory_of(page: &[u8]) -> Vec<u8> {
    let n = u16::from_le_bytes([page[1], page[2]]) as usize;
    let leaf = page[0] == 1;
    let mut dir = vec![0u8; PAGE_SIZE - NODE_CAPACITY];
    let stride = n.div_ceil(32).max(1);
    let mut off = 16;
    for i in 0..n {
        if i % stride == 0 {
            dir[2 * (i / stride)..][..2].copy_from_slice(&(off as u16).to_le_bytes());
        }
        let klen = u16::from_le_bytes([page[off], page[off + 1]]) as usize;
        off += 2 + klen;
        off += if leaf {
            2 + u16::from_le_bytes([page[off], page[off + 1]]) as usize
        } else {
            8
        };
    }
    dir
}

/// The image of each node page of `tree` (page 0 is the meta page).
fn node_images(tree: &BTreeFile, pool: &BufferPool) -> Vec<Vec<u8>> {
    (1..tree.pages())
        .map(|no| {
            pool.fetch(tree.file_id(), no)
                .unwrap()
                .read()
                .bytes()
                .to_vec()
        })
        .collect()
}

/// The in-place tree, the retired write path (where it builds the regime's
/// trees) and a map, fed the same ops.
struct Trio {
    tree: BTreeFile,
    tree_pool: Arc<BufferPool>,
    oracle: Option<(OracleTree, Arc<BufferPool>)>,
    model: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl Trio {
    fn new(regime: Regime) -> Self {
        let tree_pool = pool();
        let oracle = regime.has_oracle().then(|| {
            let oracle_pool = pool();
            let oracle = OracleTree::create(Arc::clone(&oracle_pool)).unwrap();
            (oracle, oracle_pool)
        });
        Trio {
            tree: BTreeFile::create(Arc::clone(&tree_pool)).unwrap(),
            tree_pool,
            oracle,
            model: BTreeMap::new(),
        }
    }

    fn insert(&mut self, key: &[u8], value: &[u8]) {
        let old = self.tree.insert(key, value).unwrap();
        if let Some((oracle, _)) = &self.oracle {
            assert_eq!(old, oracle.insert(key, value).unwrap());
        }
        assert_eq!(old, self.model.insert(key.to_vec(), value.to_vec()));
    }

    fn delete(&mut self, key: &[u8]) {
        let old = self.tree.delete(key).unwrap();
        if let Some((oracle, _)) = &self.oracle {
            assert_eq!(old, oracle.delete(key).unwrap());
        }
        assert_eq!(old, self.model.remove(key));
    }

    /// Same shape, same bytes: the page images of the two files are equal
    /// up to `NODE_CAPACITY`, and each node's directory is the one its
    /// entries call for. Without an oracle: every directory is, and the
    /// tree holds what the map does.
    fn assert_identical(&self) {
        assert_eq!(self.tree.entry_count(), self.model.len() as u64);
        for (i, image) in node_images(&self.tree, &self.tree_pool).iter().enumerate() {
            assert!(
                image[NODE_CAPACITY..] == directory_of(image)[..],
                "page {}'s directory is not its entries'",
                i + 1
            );
        }
        let Some((oracle, oracle_pool)) = &self.oracle else {
            let expected: Vec<(Vec<u8>, Vec<u8>)> = self.model.clone().into_iter().collect();
            assert_eq!(entries_in(&self.tree, None, None), expected);
            return;
        };
        assert_eq!(self.tree.pages(), oracle.pages());
        assert_eq!(self.tree.height(), oracle.height());
        assert_eq!(self.tree.entry_count(), oracle.entry_count());
        for page_no in 0..self.tree.pages() {
            let ours = self.tree_pool.fetch(self.tree.file_id(), page_no).unwrap();
            let theirs = oracle_pool.fetch(oracle.file_id(), page_no).unwrap();
            assert!(
                ours.read().bytes()[..NODE_CAPACITY] == theirs.read().bytes()[..NODE_CAPACITY],
                "page {page_no} differs from the decode/encode image"
            );
        }
    }
}

fn value_of(rng: &mut XorShift, len: usize) -> Vec<u8> {
    let fill = rng.next() as u8;
    vec![fill; len]
}

fn differential_stream(regime: Regime, seed: u64) {
    let mut rng = XorShift(seed | 1);
    let mut trio = Trio::new(regime);
    let [ascending, descending, scattered, mixed] = regime.phases();
    let mut live: Vec<u32> = Vec::new();
    let mut dead: Vec<u32> = Vec::new();
    let fresh_insert = |trio: &mut Trio, rng: &mut XorShift, id: u32| {
        let key = regime.key(id);
        let len = regime.fresh_len(rng, &key);
        trio.insert(&key, &value_of(rng, len));
    };

    // Rightmost, leftmost, then middle inserts; ids are distinct by range.
    for i in 0..ascending as u32 {
        fresh_insert(&mut trio, &mut rng, 3_000_000 + i);
        live.push(3_000_000 + i);
    }
    for i in 0..descending as u32 {
        fresh_insert(&mut trio, &mut rng, 999_999 - i);
        live.push(999_999 - i);
    }
    trio.assert_identical();
    let mut next_middle = 1_000_000u32;
    let mut middle_id = |rng: &mut XorShift| {
        // Scattered over the gap between the two runs, never repeating.
        next_middle += 1 + (rng.next() % 7) as u32;
        let id = next_middle;
        if rng.next() & 1 == 0 {
            id
        } else {
            2_999_999 - (id - 1_000_000)
        }
    };
    for i in 0..scattered {
        let id = middle_id(&mut rng);
        fresh_insert(&mut trio, &mut rng, id);
        live.push(id);
        if i % 128 == 0 {
            trio.assert_identical();
        }
    }
    trio.assert_identical();
    if matches!(regime, Regime::Wide) {
        assert!(trio.tree.height() >= 4, "splits on three levels");
    }

    for i in 0..mixed {
        let pick = rng.next() as usize;
        match rng.next() % 9 {
            // Upsert: growing, shrinking, same length.
            op @ 0..=2 if !live.is_empty() => {
                let key = regime.key(live[pick % live.len()]);
                let cur = trio.model[&key].len();
                let len = match op {
                    0 => rng.between(cur, regime.max_value(&key)),
                    1 => rng.between(0, cur),
                    _ => cur,
                };
                trio.insert(&key, &value_of(&mut rng, len));
            }
            3 if !live.is_empty() => {
                let id = live.swap_remove(pick % live.len());
                trio.delete(&regime.key(id));
                dead.push(id);
            }
            // Delete-then-reinsert of the same key.
            4 if !dead.is_empty() => {
                let id = dead.swap_remove(pick % dead.len());
                fresh_insert(&mut trio, &mut rng, id);
                live.push(id);
            }
            5 => trio.delete(&regime.key(5_000_000 + pick as u32 % 1000)),
            6 => {
                let key = regime.key(match live.is_empty() {
                    true => 7,
                    false => live[pick % live.len()],
                });
                assert_eq!(trio.tree.get(&key).unwrap().as_ref(), trio.model.get(&key));
            }
            // The oversized entry is rejected by both and changes nothing;
            // the largest legal one is not (its regime only: see `Regime`).
            7 => {
                let key = regime.key(4_000_000 + i as u32);
                let too_long = vec![0xEE; MAX_ENTRY - 4 - key.len() + 1 + pick % 64];
                assert!(matches!(
                    trio.tree.insert(&key, &too_long),
                    Err(Error::Storage(_))
                ));
                if let Some((oracle, _)) = &trio.oracle {
                    assert!(oracle.insert(&key, &too_long).is_err());
                }
                if matches!(regime, Regime::Giant) {
                    trio.insert(&key, &too_long[..MAX_ENTRY - 4 - key.len()]);
                    live.push(4_000_000 + i as u32);
                }
            }
            _ => {
                let id = middle_id(&mut rng);
                fresh_insert(&mut trio, &mut rng, id);
                live.push(id);
            }
        }
        if i % 64 == 0 {
            trio.assert_identical();
        }
    }
    trio.assert_identical();
    let expected: Vec<(Vec<u8>, Vec<u8>)> = trio.model.clone().into_iter().collect();
    assert_eq!(entries_in(&trio.tree, None, None), expected);
}

type Entries = Vec<(Vec<u8>, Vec<u8>)>;

/// Every answer `tree` gives for keys around the odd keys `1, 3, …, 2n - 1`:
/// each present and absent key's `get`, and the first two entries of the
/// range from it.
fn answers(tree: &BTreeFile, n: u32) -> Vec<(Option<Vec<u8>>, Entries)> {
    (0..=2 * n + 1)
        .map(|k| {
            let key = k.to_be_bytes();
            let mut range = Vec::new();
            tree.for_each_in_range(Some(&key), None, |k, v| {
                if range.len() < 2 {
                    range.push((k.to_vec(), v.to_vec()));
                }
            })
            .unwrap();
            (tree.get(&key).unwrap(), range)
        })
        .collect()
}

fn zero_directories(tree: &BTreeFile, pool: &BufferPool) {
    for no in 1..tree.pages() {
        let page = pool.fetch(tree.file_id(), no).unwrap();
        page.write().bytes_mut()[NODE_CAPACITY..].fill(0);
        pool.mark_dirty(tree.file_id(), no);
    }
}

/// A tree of `n` odd keys in a scrambled order — narrow values give leaves
/// of hundreds of entries, wide ones internal nodes of hundreds — answers
/// every key alike through its directories and, once they are zeroed,
/// through walks alone; and as the map does.
fn directory_vs_walk(n: u32, wide: bool, seed: u64) {
    let mut rng = XorShift(seed | 1);
    let pool = pool();
    let tree = BTreeFile::create(Arc::clone(&pool)).unwrap();
    let mut ids: Vec<u32> = (0..n).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.between(0, i));
    }
    let mut model = BTreeMap::new();
    for id in ids {
        let len = if wide {
            rng.between(1500, 3000)
        } else {
            rng.between(0, 8)
        };
        let (key, value) = ((2 * id + 1).to_be_bytes().to_vec(), value_of(&mut rng, len));
        tree.insert(&key, &value).unwrap();
        model.insert(key, value);
    }
    let with_directories = answers(&tree, n);
    for (k, (got, range)) in with_directories.iter().enumerate() {
        let key = (k as u32).to_be_bytes().to_vec();
        assert_eq!(got.as_ref(), model.get(&key));
        let want: Vec<_> = model
            .range(key..)
            .take(2)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(range, &want);
    }
    zero_directories(&tree, &pool);
    assert_eq!(answers(&tree, n), with_directories);
}

/// Zeroed directories — what a node written before directories existed
/// holds — read alike, and a node an edit touches gets its directory back,
/// so its image is again the one its entries call for.
fn zeroed_directories(seed: u64) {
    let mut rng = XorShift(seed | 1);
    let pool = pool();
    let tree = BTreeFile::create(Arc::clone(&pool)).unwrap();
    let n = rng.between(300, 3000) as u32;
    for id in 0..n {
        let len = rng.between(0, 40);
        tree.insert(&(2 * id + 1).to_be_bytes(), &value_of(&mut rng, len))
            .unwrap();
    }
    let images = node_images(&tree, &pool);
    let with_directories = answers(&tree, n);
    zero_directories(&tree, &pool);
    assert_eq!(answers(&tree, n), with_directories);
    // Delete and re-insert every key: each leaf is edited, none splits.
    for id in 0..n {
        let key = (2 * id + 1).to_be_bytes();
        let value = tree.delete(&key).unwrap().unwrap();
        tree.insert(&key, &value).unwrap();
    }
    for (i, (now, image)) in node_images(&tree, &pool).iter().zip(&images).enumerate() {
        if now[0] == 1 {
            assert!(now == image, "leaf {} is not its old image", i + 1);
        } else {
            assert!(
                now[NODE_CAPACITY..].iter().all(|&b| b == 0),
                "internal {} untouched",
                i + 1
            );
        }
    }
    assert_eq!(answers(&tree, n), with_directories);
}

/// Scribble on the counts and lengths of one node of a small tree, then run
/// every operation over it: whatever comes back is a value or
/// `Error::Storage` — no panic, no out-of-bounds `copy_within`.
fn corrupt_counts_and_lengths(seed: u64) {
    let mut rng = XorShift(seed | 1);
    let pool = pool();
    let tree = BTreeFile::create(Arc::clone(&pool)).unwrap();
    let regime = Regime::Narrow;
    let ids: Vec<u32> = (0..900).map(|i| i * 5).collect();
    for &id in &ids {
        let key = regime.key(id);
        tree.insert(&key, &value_of(&mut rng, id as usize % 30))
            .unwrap();
    }
    assert!(tree.height() >= 2 && tree.pages() >= 4);
    // Page 0 is the meta page; any other is a node.
    let victim = rng.between(1, tree.pages() as usize - 1) as u64;
    let page = pool.fetch(FileId(0), victim).unwrap();
    {
        let mut guard = page.write();
        let bytes = guard.bytes_mut();
        match rng.next() % 4 {
            // The entry count: random, or just past what the page can hold.
            0 => bytes[1..3].copy_from_slice(&(rng.next() as u16).to_le_bytes()),
            1 => bytes[1..3].copy_from_slice(&(PAGE_SIZE as u16 / 4).to_le_bytes()),
            // Length fields (and whatever else the offsets hit) in the entry
            // area; the link field at 3..11 stays, so walks cannot cycle.
            _ => {
                for _ in 0..rng.between(1, 6) {
                    let at = rng.between(16, PAGE_SIZE - 1);
                    bytes[at] = match rng.next() % 3 {
                        0 => 0xFF,
                        1 => 0,
                        _ => rng.next() as u8,
                    };
                }
            }
        }
    }
    pool.mark_dirty(FileId(0), victim);
    drop(page);
    let storage_or_ok = |r: Result<(), Error>| match r {
        Ok(()) | Err(Error::Storage(_)) => {}
        Err(e) => panic!("not a storage error: {e:?}"),
    };
    for round in 0..200u32 {
        let key = regime.key(match round % 3 {
            0 => ids[rng.between(0, ids.len() - 1)],
            1 => ids[rng.between(0, ids.len() - 1)] + 1,
            _ => rng.next() as u32,
        });
        match round % 4 {
            0 => storage_or_ok(tree.get(&key).map(drop)),
            1 => {
                let len = rng.between(0, 40);
                storage_or_ok(tree.insert(&key, &value_of(&mut rng, len)).map(drop));
            }
            2 => storage_or_ok(tree.delete(&key).map(drop)),
            _ => storage_or_ok(tree.for_each_in_range(Some(&key), None, |_, _| {})),
        }
    }
}

/// Every version in `heap`, as a walk that fetches page after page from
/// `pool` finds it: address, header and row.
fn page_walk(pool: &BufferPool, heap: &HeapFile) -> Vec<(RowId, VersionMeta, Row)> {
    let mut out = Vec::new();
    for no in 0..pool.file_pages(heap.file_id()) {
        let page = pool.fetch(heap.file_id(), no).unwrap();
        let guard = page.read();
        for (slot, rec) in guard.records() {
            let mut words = rec.chunks_exact(8).map(|w| {
                let mut b = [0u8; 8];
                b.copy_from_slice(w);
                u64::from_le_bytes(b)
            });
            let mut word = || words.next().unwrap();
            let meta = VersionMeta {
                begin: word(),
                end: word(),
                prev: word(),
                next: word(),
                root: word(),
            };
            let row = decode_row(rec.get(VERSION_HEADER..).unwrap()).unwrap();
            out.push((RowId::new(no, slot), meta, row));
        }
    }
    out
}

/// A heap behind a pool of `capacity` pages after a random history of
/// inserts, deletes, updates and header rewrites, part of it flushed and
/// dropped from the pool and the rest left resident and dirty. A scan reads
/// the heap in runs, resident pages from their frames and the others from
/// the backend; it must yield exactly the versions a fetch-per-page walk
/// yields, ask the pool once per page, and evict nothing when the heap
/// outgrows the pool.
fn heap_scan_stream(seed: u64, capacity: usize) {
    let mut rng = XorShift(seed | 1);
    let pool = Arc::new(BufferPool::new(
        Box::new(MemoryBackend::new()),
        DiskModel::new(SimClock::new()),
        capacity,
    ));
    let heap = HeapFile::create(Arc::clone(&pool), rng.between(1, 4)).unwrap();
    let row = |rng: &mut XorShift, n: usize| {
        let pad = "x".repeat(rng.between(0, 600));
        Row::new(vec![Value::Int(n as i64), Value::Str(pad)])
    };
    let mut live = Vec::new();
    let pages = rng.between(2, 40) as u64;
    while heap.stats().total_pages() < pages {
        let r = row(&mut rng, live.len());
        live.push(heap.insert(&r).unwrap());
    }
    if !rng.next().is_multiple_of(4) {
        pool.clear().unwrap();
    }
    for step in 0..rng.between(0, 80) {
        let pick = rng.between(0, live.len().max(1) - 1);
        match rng.next() % 4 {
            0 if !live.is_empty() => heap.delete(live.swap_remove(pick)).unwrap(),
            1 if !live.is_empty() => {
                let r = row(&mut rng, step);
                live[pick] = heap.update(live[pick], &r).unwrap();
            }
            2 if !live.is_empty() => {
                let mut meta = heap.meta(live[pick]).unwrap();
                meta.end = step as u64 + 1;
                heap.set_meta(live[pick], meta).unwrap();
            }
            _ => {
                let r = row(&mut rng, step);
                live.push(heap.insert(&r).unwrap());
            }
        }
    }
    let file_pages = pool.file_pages(heap.file_id());
    let scan = |pool: &BufferPool| {
        let before = pool.stats();
        let got: Vec<_> = heap.scan_versions().map(|r| r.unwrap()).collect();
        let after = pool.stats();
        let asked = after.hits + after.misses - before.hits - before.misses;
        assert_eq!(asked, file_pages, "one request per page");
        if file_pages > capacity as u64 {
            assert_eq!(after.evictions, before.evictions, "the scan evicted");
        }
        got
    };
    let first = scan(&pool);
    let walked = page_walk(&pool, &heap);
    assert_eq!(first, walked);
    // Again, over what the walk left resident.
    assert_eq!(scan(&pool), walked);
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
        let scanned = entries_in(&tree, None, None);
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
        let got: Vec<u32> = entries_in(&tree, Some(&lo.to_be_bytes()), Some(&hi.to_be_bytes()))
            .into_iter()
            .map(|(k, _)| u32::from_be_bytes(k.try_into().unwrap()))
            .collect();
        let expected: Vec<u32> = keys.iter().copied().filter(|&k| k >= lo && k <= hi).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn btree_pages_match_decode_encode_oracle(regime in 0u8..3, seed in any::<u64>()) {
        differential_stream(
            match regime {
                0 => Regime::Narrow,
                1 => Regime::Wide,
                _ => Regime::Giant,
            },
            seed,
        );
    }

    /// Tiny and huge entries in one node: every split fits its pages, and
    /// the tree answers as the map does.
    #[test]
    fn btree_mixed_sizes_match_model(seed in any::<u64>()) {
        differential_stream(Regime::Mixed, seed);
    }

    #[test]
    fn btree_directory_search_matches_walk(n in 0u32..1500, wide in any::<bool>(), seed in any::<u64>()) {
        directory_vs_walk(n, wide, seed);
    }

    #[test]
    fn btree_zeroed_directories_read_alike_and_edits_restore_them(seed in any::<u64>()) {
        zeroed_directories(seed);
    }

    #[test]
    fn btree_corrupt_counts_and_lengths_are_storage_errors(seed in any::<u64>()) {
        corrupt_counts_and_lengths(seed);
    }

    #[test]
    fn heap_scan_runs_match_a_page_walk(seed in any::<u64>(), capacity in 8usize..64) {
        heap_scan_stream(seed, capacity);
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
