//! A page-based B+Tree.
//!
//! Used in two roles, both taken from Ingres:
//!
//! * as the **B-Tree storage structure** a table can be `MODIFY`-ed to (key =
//!   primary key, payload = packed [`crate::heap::RowId`]), which removes the
//!   overflow-chain penalty the analyzer's 10 % rule detects;
//! * as the structure behind **secondary indexes**, which Ingres stores "as
//!   tables that have columns containing the indexed keys and a pointer to
//!   the data page".
//!
//! Keys are memcomparable byte strings (see [`crate::codec::encode_key`]), so
//! node search is raw `memcmp`. Deletion is lazy (no rebalancing); pages the
//! tree abandons are reclaimed only on a rebuild (`MODIFY`), matching the
//! maintenance model of the paper's DBMS.
//!
//! A node has one representation — its page — for reads and writes alike:
//!
//! ```text
//! 0      1          3           11     16
//! | type | count:u16 | link:u64 | zero | entries …            | zero tail |
//! leaf entry      [klen:u16][key][vlen:u16][value]   link = right sibling
//! internal entry  [klen:u16][key][child:u64]         link = first child
//! ```
//!
//! An internal entry's key is the smallest key reachable under its child.
//! Every byte after the last entry is zero (the **zero-tail invariant**), so
//! a page's image depends only on the entries it holds, never on the edits
//! that produced them.

use std::cmp::Ordering;
use std::sync::Arc;

use ingot_common::{Error, Result};
use parking_lot::RwLock;

use crate::buffer::{BufferPool, PageRef};
use crate::disk::FileId;
use crate::page::PAGE_SIZE;

const META_MAGIC: u32 = 0xB7EE_0001;
const NODE_LEAF: u8 = 1;
const NODE_INTERNAL: u8 = 2;
/// Offset of a node's first entry.
const HEADER: usize = 16;
/// Split a node when its entries would end past this many bytes.
const NODE_CAPACITY: usize = PAGE_SIZE - 64;
/// An internal node splits one child pointer early (the split rule has
/// always priced the first child twice; tree shapes depend on it).
const INTERNAL_CAPACITY: usize = NODE_CAPACITY - 8;
const NO_LEAF: u64 = u64::MAX;

fn corrupt(what: &str) -> Error {
    Error::storage(format!("corrupt btree node: {what}"))
}

/// Checked read of `len` bytes at `off` — a corrupt length field becomes an
/// [`Error::Storage`], never a panic.
fn take(bytes: &[u8], off: usize, len: usize) -> Result<&[u8]> {
    bytes
        .get(off..off.saturating_add(len))
        .ok_or_else(|| corrupt("slice out of bounds"))
}

fn u16_le(bytes: &[u8], off: usize) -> Result<u16> {
    match bytes.get(off..off.saturating_add(2)) {
        Some(&[a, b]) => Ok(u16::from_le_bytes([a, b])),
        _ => Err(corrupt("u16 out of bounds")),
    }
}

fn u64_le(bytes: &[u8], off: usize) -> Result<u64> {
    match bytes.get(off..off.saturating_add(8)) {
        Some(&[a, b, c, d, e, f, g, h]) => Ok(u64::from_le_bytes([a, b, c, d, e, f, g, h])),
        _ => Err(corrupt("u64 out of bounds")),
    }
}

fn put(bytes: &mut [u8], off: usize, src: &[u8]) -> Result<()> {
    match bytes.get_mut(off..off.saturating_add(src.len())) {
        Some(dst) => {
            dst.copy_from_slice(src);
            Ok(())
        }
        None => Err(corrupt("write out of bounds")),
    }
}

fn len_u16(n: usize) -> Result<u16> {
    u16::try_from(n).map_err(|_| corrupt("count or length exceeds u16"))
}

/// In-place walk over a run of node entries. `payload` is a leaf entry's
/// value or the eight bytes of an internal entry's child pointer.
struct Cursor<'a> {
    bytes: &'a [u8],
    leaf: bool,
    /// Entries not yet yielded.
    left: usize,
    /// Offset of the next entry; the end of the run once `left` is 0.
    off: usize,
}

impl<'a> Cursor<'a> {
    /// Cursor over the entries of the node stored in `bytes`.
    fn node(bytes: &'a [u8]) -> Result<Self> {
        let leaf = match bytes.first().copied().unwrap_or(0) {
            NODE_LEAF => true,
            NODE_INTERNAL => false,
            t => return Err(Error::storage(format!("invalid btree node type {t}"))),
        };
        Ok(Cursor {
            bytes,
            leaf,
            left: u16_le(bytes, 1)? as usize,
            off: HEADER,
        })
    }

    /// The node's link field: right sibling of a leaf, first child of an
    /// internal node.
    fn link(&self) -> Result<u64> {
        u64_le(self.bytes, 3)
    }

    // The inner loop of every probe: left out of line it cost `get` 15–25 %.
    #[inline(always)]
    fn next(&mut self) -> Result<Option<(&'a [u8], &'a [u8])>> {
        if self.left == 0 {
            return Ok(None);
        }
        let klen = u16_le(self.bytes, self.off)? as usize;
        let key = take(self.bytes, self.off + 2, klen)?;
        let mut off = self.off + 2 + klen;
        let plen = if self.leaf {
            off += 2;
            u16_le(self.bytes, off - 2)? as usize
        } else {
            8
        };
        let payload = take(self.bytes, off, plen)?;
        self.off = off + plen;
        self.left -= 1;
        Ok(Some((key, payload)))
    }

    /// Skip the entries whose keys sort below `key`. Returns the offset at
    /// which `key`'s entry belongs and, when it is present, its payload (the
    /// cursor then stands just behind it).
    fn seek(&mut self, key: &[u8]) -> Result<(usize, Option<&'a [u8]>)> {
        loop {
            let at = self.off;
            let Some((k, payload)) = self.next()? else {
                return Ok((at, None));
            };
            match k.cmp(key) {
                Ordering::Less => {}
                Ordering::Equal => return Ok((at, Some(payload))),
                Ordering::Greater => return Ok((at, None)),
            }
        }
    }
}

fn entry_len(leaf: bool, key: &[u8], payload: &[u8]) -> usize {
    2 + key.len() + if leaf { 2 } else { 0 } + payload.len()
}

fn write_entry(bytes: &mut [u8], at: usize, leaf: bool, key: &[u8], payload: &[u8]) -> Result<()> {
    put(bytes, at, &len_u16(key.len())?.to_le_bytes())?;
    put(bytes, at + 2, key)?;
    let mut off = at + 2 + key.len();
    if leaf {
        put(bytes, off, &len_u16(payload.len())?.to_le_bytes())?;
        off += 2;
    }
    put(bytes, off, payload)
}

/// Format `bytes` as a node holding the `n` already-encoded `entries`.
fn write_node(bytes: &mut [u8], leaf: bool, n: usize, link: u64, entries: &[u8]) -> Result<()> {
    bytes.fill(0);
    put(bytes, 0, &[if leaf { NODE_LEAF } else { NODE_INTERNAL }])?;
    put(bytes, 1, &len_u16(n)?.to_le_bytes())?;
    put(bytes, 3, &link.to_le_bytes())?;
    put(bytes, HEADER, entries)
}

/// `(separator, new right sibling)` of a node that split.
type Split = Option<(Vec<u8>, u64)>;

/// A node whose edited entries no longer fit: the whole edited run laid out
/// flat, for [`BTreeFile::put`] to cut in two.
struct Overflow {
    entries: Vec<u8>,
    n: usize,
    link: u64,
}

/// The one node edit: make `key` carry `payload` in the node stored in
/// `bytes` (`None` removes it), shifting the entries behind it and zeroing
/// whatever the run vacates. Returns the payload `key` carried before and,
/// when the result would not fit, the edited run instead of an edited page.
fn edit_node(
    bytes: &mut [u8],
    leaf: bool,
    key: &[u8],
    payload: Option<&[u8]>,
) -> Result<(Option<Vec<u8>>, Option<Overflow>)> {
    let mut cur = Cursor::node(bytes)?;
    if cur.leaf != leaf {
        return Err(corrupt("node kind does not match its level"));
    }
    let (n, link) = (cur.left, cur.link()?);
    let (at, old) = cur.seek(key)?;
    let old_end = if old.is_some() { cur.off } else { at };
    let old = old.map(<[u8]>::to_vec);
    while cur.next()?.is_some() {}
    let end = cur.off;

    let new_len = payload.map_or(0, |p| entry_len(leaf, key, p));
    let new_end = end - (old_end - at) + new_len;
    let n = n + usize::from(payload.is_some()) - usize::from(old.is_some());
    let capacity = if leaf {
        NODE_CAPACITY
    } else {
        INTERNAL_CAPACITY
    };
    if let Some(payload) = payload.filter(|_| new_end > capacity) {
        let mut entries = Vec::with_capacity(new_end - HEADER);
        entries.extend_from_slice(take(bytes, HEADER, at - HEADER)?);
        entries.resize(entries.len() + new_len, 0);
        write_entry(&mut entries, at - HEADER, leaf, key, payload)?;
        entries.extend_from_slice(take(bytes, old_end, end - old_end)?);
        return Ok((old, Some(Overflow { entries, n, link })));
    }
    if payload.is_some() || old.is_some() {
        // `at ≤ old_end ≤ end ≤ bytes.len()` by the walk above.
        if new_end > bytes.len() {
            return Err(corrupt("edit past the end of the page"));
        }
        bytes.copy_within(old_end..end, at + new_len);
        if let Some(vacated) = bytes.get_mut(new_end..end) {
            vacated.fill(0);
        }
        if let Some(payload) = payload {
            write_entry(bytes, at, leaf, key, payload)?;
        }
        put(bytes, 1, &len_u16(n)?.to_le_bytes())?;
    }
    Ok((old, None))
}

/// A B+Tree over memcomparable keys.
pub struct BTreeFile {
    pool: Arc<BufferPool>,
    file: FileId,
    /// Structure latch: one writer or many readers per operation. Page
    /// latches are never held across a call into the pool.
    latch: RwLock<()>,
}

impl BTreeFile {
    /// Create an empty tree (meta page + one empty root leaf).
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let file = pool.create_file()?;
        let (meta_no, meta) = pool.allocate(file)?;
        debug_assert_eq!(meta_no, 0);
        meta.write().set_u32(0, META_MAGIC);
        let tree = BTreeFile {
            pool,
            file,
            latch: RwLock::new(()),
        };
        let root_no = tree.alloc_node(true, 0, NO_LEAF, &[])?;
        tree.set_meta(root_no, 1, 0)?;
        Ok(tree)
    }

    /// Re-attach an existing tree.
    pub fn open(pool: Arc<BufferPool>, file: FileId) -> Result<Self> {
        let meta = pool.fetch(file, 0)?;
        if meta.read().u32_at(0) != META_MAGIC {
            return Err(Error::storage(format!("{file} is not a btree file")));
        }
        drop(meta);
        Ok(BTreeFile {
            pool,
            file,
            latch: RwLock::new(()),
        })
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// `(root page, height, entries)`.
    fn meta(&self) -> Result<(u64, u32, u64)> {
        let meta = self.pool.fetch(self.file, 0)?;
        let guard = meta.read();
        Ok((guard.u64_at(8), guard.u32_at(16), guard.u64_at(24)))
    }

    fn set_meta(&self, root: u64, height: u32, entries: u64) -> Result<()> {
        let meta = self.pool.fetch(self.file, 0)?;
        {
            let mut guard = meta.write();
            guard.set_u64(8, root);
            guard.set_u32(16, height);
            guard.set_u64(24, entries);
        }
        self.pool.mark_dirty(self.file, 0);
        Ok(())
    }

    /// Tree height (1 = root is a leaf). Used by the optimizer's index-probe
    /// cost estimate.
    pub fn height(&self) -> u32 {
        self.meta().map(|(_, h, _)| h).unwrap_or(1)
    }

    /// Number of entries in the tree.
    pub fn entry_count(&self) -> u64 {
        self.meta().map(|(_, _, n)| n).unwrap_or(0)
    }

    /// Pages allocated to the tree (on-disk size).
    pub fn pages(&self) -> u64 {
        self.pool.file_pages(self.file)
    }

    fn alloc_node(&self, leaf: bool, n: usize, link: u64, entries: &[u8]) -> Result<u64> {
        let (no, page) = self.pool.allocate(self.file)?;
        write_node(page.write().bytes_mut(), leaf, n, link, entries)?;
        Ok(no)
    }

    /// Follow `key` down from `root` through at most `levels` internal
    /// nodes, stopping early at a leaf. Returns the node reached — its page
    /// number and the page itself, pinned once — and the number of levels
    /// passed; allocation-free.
    fn descend(&self, root: u64, key: &[u8], levels: u32) -> Result<(u64, PageRef, u32)> {
        let (mut page_no, mut level) = (root, 0);
        loop {
            let page = self.pool.fetch(self.file, page_no)?;
            let child = {
                let guard = page.read();
                let mut cur = Cursor::node(guard.bytes())?;
                if cur.leaf || level == levels {
                    None
                } else {
                    let mut child = cur.link()?;
                    while let Some((sep, payload)) = cur.next()? {
                        if sep > key {
                            break;
                        }
                        child = u64_le(payload, 0)?;
                    }
                    Some(child)
                }
            };
            match child {
                Some(child) => page_no = child,
                None => return Ok((page_no, page, level)),
            }
            level += 1;
        }
    }

    /// The leaf `key` belongs to. Bounded by the recorded height, so a
    /// corrupt child pointer cannot send a lookup round in circles.
    fn leaf_for(&self, key: &[u8]) -> Result<PageRef> {
        let (root, height, _) = self.meta()?;
        Ok(self.descend(root, key, height.saturating_sub(1))?.1)
    }

    /// Put `key → payload` into the node `page` (number `page_no`), editing
    /// the page in place. When the node overflows it is cut at the entry-count median:
    /// the upper half moves to a fresh page and `(separator, new page)` is
    /// returned for the caller to put into the parent.
    fn put(
        &self,
        (page_no, page): (u64, &PageRef),
        leaf: bool,
        key: &[u8],
        payload: &[u8],
    ) -> Result<(Option<Vec<u8>>, Split)> {
        let (old, overflow) = edit_node(page.write().bytes_mut(), leaf, key, Some(payload))?;
        let Some(Overflow { entries, n, link }) = overflow else {
            self.pool.mark_dirty(self.file, page_no);
            return Ok((old, None));
        };
        let mid = n / 2;
        let mut cur = Cursor {
            bytes: &entries,
            leaf,
            left: mid + 1,
            off: 0,
        };
        for _ in 0..mid {
            cur.next()?;
        }
        let cut = cur.off;
        let (sep, child) = cur
            .next()?
            .ok_or_else(|| corrupt("split of an empty node"))?;
        // A leaf keeps the median as the right half's first entry; an
        // internal node moves it up, its child becoming the right half's
        // first child.
        let (right_from, right_n, right_link) = if leaf {
            (cut, n - mid, link)
        } else {
            (cur.off, n - mid - 1, u64_le(child, 0)?)
        };
        let right = take(&entries, right_from, entries.len() - right_from)?;
        let right_no = self.alloc_node(leaf, right_n, right_link, right)?;
        let left_link = if leaf { right_no } else { link };
        write_node(
            page.write().bytes_mut(),
            leaf,
            mid,
            left_link,
            take(&entries, 0, cut)?,
        )?;
        self.pool.mark_dirty(self.file, page_no);
        Ok((old, Some((sep.to_vec(), right_no))))
    }

    /// Upsert. Returns the previous value when `key` was present.
    ///
    /// Without a split this allocates nothing and dirties two pages, the
    /// leaf and the meta page. A split walks back up: the parent of a split
    /// node is found by descending for `key` again, one level short.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>> {
        if entry_len(true, key, value) > NODE_CAPACITY - HEADER {
            return Err(Error::storage("btree entry exceeds node capacity"));
        }
        let _w = self.latch.write();
        let (mut root, mut height, entries) = self.meta()?;
        let (leaf_no, leaf, mut level) = self.descend(root, key, height.saturating_sub(1))?;
        let (old, mut split) = self.put((leaf_no, &leaf), true, key, value)?;
        while let Some((sep, right_no)) = split.take() {
            let child = right_no.to_le_bytes();
            if level == 0 {
                let mut entry = vec![0; entry_len(false, &sep, &child)];
                write_entry(&mut entry, 0, false, &sep, &child)?;
                root = self.alloc_node(false, 1, root, &entry)?;
                height += 1;
            } else {
                level -= 1;
                let (parent_no, parent, _) = self.descend(root, key, level)?;
                split = self.put((parent_no, &parent), false, &sep, &child)?.1;
            }
        }
        self.set_meta(root, height, entries + u64::from(old.is_none()))?;
        Ok(old)
    }

    /// Walk leaf entries in `[lo, hi]` (inclusive, either bound optional)
    /// in place, calling `f(key, value)` per entry. Allocation-free except
    /// inside `f`. Used by point and probe paths.
    pub fn for_each_in_range(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        let _r = self.latch.read();
        let mut page = self.leaf_for(lo.unwrap_or(&[]))?;
        loop {
            let guard = page.read();
            let mut cur = Cursor::node(guard.bytes())?;
            if !cur.leaf {
                return Err(Error::storage("leaf chain hit internal node"));
            }
            while let Some((k, v)) = cur.next()? {
                if lo.is_some_and(|lo| k < lo) {
                    continue;
                }
                if hi.is_some_and(|hi| k > hi) {
                    return Ok(());
                }
                f(k, v);
            }
            let next = cur.link()?;
            if next == NO_LEAF {
                return Ok(());
            }
            drop(guard);
            page = self.pool.fetch(self.file, next)?;
        }
    }

    /// Exact-match lookup (allocation-free until the match).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _r = self.latch.read();
        let page = self.leaf_for(key)?;
        let guard = page.read();
        let mut cur = Cursor::node(guard.bytes())?;
        if !cur.leaf {
            return Err(corrupt("lookup ended on an internal node"));
        }
        Ok(cur.seek(key)?.1.map(<[u8]>::to_vec))
    }

    /// Remove `key`, returning its value when present. Lazy: no rebalancing.
    pub fn delete(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _w = self.latch.write();
        let (root, height, entries) = self.meta()?;
        let (leaf_no, leaf, _) = self.descend(root, key, height.saturating_sub(1))?;
        let (old, _) = edit_node(leaf.write().bytes_mut(), true, key, None)?;
        if old.is_some() {
            self.pool.mark_dirty(self.file, leaf_no);
            self.set_meta(root, height, entries.saturating_sub(1))?;
        }
        Ok(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemoryBackend;
    use crate::model::DiskModel;
    use ingot_common::SimClock;

    fn tree() -> BTreeFile {
        let pool = Arc::new(BufferPool::new(
            Box::new(MemoryBackend::new()),
            DiskModel::new(SimClock::new()),
            512,
        ));
        BTreeFile::create(pool).unwrap()
    }

    fn k(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    fn keys_in(t: &BTreeFile, lo: Option<u64>, hi: Option<u64>) -> Vec<u64> {
        let (lo, hi) = (lo.map(k), hi.map(k));
        let mut got = Vec::new();
        t.for_each_in_range(lo.as_deref(), hi.as_deref(), |key, _| {
            got.push(u64::from_be_bytes(key.try_into().unwrap()));
        })
        .unwrap();
        got
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn insert_get_small() {
        let t = tree();
        assert!(t.insert(&k(5), b"five").unwrap().is_none());
        assert!(t.insert(&k(1), b"one").unwrap().is_none());
        assert_eq!(t.get(&k(5)).unwrap().unwrap(), b"five");
        assert_eq!(t.get(&k(1)).unwrap().unwrap(), b"one");
        assert!(t.get(&k(9)).unwrap().is_none());
        assert_eq!(t.entry_count(), 2);
    }

    #[test]
    fn upsert_replaces() {
        let t = tree();
        t.insert(&k(1), b"a").unwrap();
        let old = t.insert(&k(1), b"b").unwrap();
        assert_eq!(old.unwrap(), b"a");
        assert_eq!(t.get(&k(1)).unwrap().unwrap(), b"b");
        assert_eq!(t.entry_count(), 1);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let t = tree();
        let n = 20_000u64;
        // Insert in a scrambled order to exercise splits everywhere.
        let mut order: Vec<u64> = (0..n).collect();
        let mut state = 88172645463325252u64;
        for i in (1..order.len()).rev() {
            order.swap(i, (xorshift(&mut state) % (i as u64 + 1)) as usize);
        }
        for &i in &order {
            t.insert(&k(i), &i.to_le_bytes()).unwrap();
        }
        assert!(t.height() > 1, "20k entries must split the root");
        assert_eq!(t.entry_count(), n);
        // Full scan is sorted and complete.
        assert_eq!(keys_in(&t, None, None), (0..n).collect::<Vec<_>>());
        // Point lookups all succeed.
        for i in (0..n).step_by(997) {
            assert_eq!(t.get(&k(i)).unwrap().unwrap(), i.to_le_bytes());
        }
    }

    #[test]
    fn range_bounds() {
        let t = tree();
        for i in 0..100 {
            t.insert(&k(i), b"x").unwrap();
        }
        assert_eq!(
            keys_in(&t, Some(10), Some(15)),
            vec![10, 11, 12, 13, 14, 15]
        );
        assert_eq!(keys_in(&t, Some(97), None), vec![97, 98, 99]);
    }

    #[test]
    fn delete_removes() {
        let t = tree();
        for i in 0..1000 {
            t.insert(&k(i), b"v").unwrap();
        }
        assert_eq!(t.delete(&k(500)).unwrap().unwrap(), b"v");
        assert!(t.get(&k(500)).unwrap().is_none());
        assert!(t.delete(&k(500)).unwrap().is_none());
        assert_eq!(t.entry_count(), 999);
    }

    #[test]
    fn reopen_preserves_tree() {
        let pool = Arc::new(BufferPool::new(
            Box::new(MemoryBackend::new()),
            DiskModel::new(SimClock::new()),
            512,
        ));
        let t = BTreeFile::create(Arc::clone(&pool)).unwrap();
        for i in 0..5000u64 {
            t.insert(&k(i), b"v").unwrap();
        }
        let file = t.file_id();
        drop(t);
        let t2 = BTreeFile::open(pool, file).unwrap();
        assert_eq!(t2.entry_count(), 5000);
        assert_eq!(t2.get(&k(4999)).unwrap().unwrap(), b"v");
    }

    #[test]
    fn oversized_entry_is_rejected() {
        let t = tree();
        let huge = vec![0u8; PAGE_SIZE];
        assert!(t.insert(b"k", &huge).is_err());
    }

    #[test]
    fn corrupt_node_errors_instead_of_panicking() {
        let t = tree();
        t.insert(b"k", b"v").unwrap();
        // Scribble over the root leaf: the type byte still says "leaf" but
        // every length field points past the end of the page.
        let (root, _, _) = t.meta().unwrap();
        let page = t.pool.fetch(t.file, root).unwrap();
        {
            let mut g = page.write();
            let b = g.bytes_mut();
            b.fill(0xFF);
            if let Some(first) = b.first_mut() {
                *first = NODE_LEAF;
            }
        }
        assert!(t.get(b"k").is_err());
        assert!(t.insert(b"k", b"v").is_err());
        let mut hits = 0;
        assert!(t.for_each_in_range(None, None, |_, _| hits += 1).is_err());
        assert_eq!(hits, 0);
        // And a bogus node type is rejected outright.
        {
            let mut g = page.write();
            if let Some(first) = g.bytes_mut().first_mut() {
                *first = 0x77;
            }
        }
        assert!(t.insert(b"k2", b"v2").is_err());
        assert!(t.delete(b"k").is_err());
    }

    /// An edit of arbitrary bytes is an error or an in-bounds edit that keeps
    /// the bytes walkable — never a panic or a `copy_within` out of range.
    #[test]
    fn edits_of_garbage_never_panic() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..4000 {
            let mut page = [0u8; PAGE_SIZE];
            // Sparse garbage keeps many length fields small enough to walk.
            for _ in 0..xorshift(&mut state) % 64 {
                let at = xorshift(&mut state) as usize % PAGE_SIZE;
                page[at] = xorshift(&mut state) as u8;
            }
            let leaf = round % 2 == 0;
            page[0] = if leaf { NODE_LEAF } else { NODE_INTERNAL };
            page[1..3].copy_from_slice(&(xorshift(&mut state) as u16 % 600).to_le_bytes());
            let key = vec![xorshift(&mut state) as u8; xorshift(&mut state) as usize % 40];
            let value = vec![
                7u8;
                if leaf {
                    xorshift(&mut state) as usize % 4000
                } else {
                    8
                }
            ];
            let payload = (round % 3 != 0).then_some(value.as_slice());
            if let Ok((_, None)) = edit_node(&mut page, leaf, &key, payload) {
                let mut cur = Cursor::node(&page).unwrap();
                while cur.next().unwrap().is_some() {}
            }
        }
    }
}
