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
//! 0      1          3           11     16                     8128        8192
//! | type | count:u16 | link:u64 | zero | entries … | zero … | directory |
//! leaf entry      [klen:u16][key][vlen:u16][value]   link = right sibling
//! internal entry  [klen:u16][key][child:u64]         link = first child
//! ```
//!
//! An internal entry's key is the smallest key reachable under its child.
//! Entries end by `NODE_CAPACITY`, and every byte from the last entry to
//! there is zero (the **zero-tail invariant**). The 64 bytes after it are the
//! node's **directory**: the offsets (`u16`) of every ⌈n/32⌉-th entry,
//! starting with the first, zero behind the last sample. Both are functions of
//! the entries, so a page's image depends only on the entries it holds, never
//! on the edits that produced them.
//!
//! Reads binary-search the directory's samples and then walk at most one
//! stride. They walk from the first entry instead when the directory is
//! implausible — first sample not at the first entry, samples not increasing,
//! or one past `NODE_CAPACITY` — which is what a zero directory (a node
//! written before directories existed) is. Edits never read the directory:
//! they walk the whole run, as they must to shift its tail, and rewrite the
//! directory from the offsets they walked.

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
/// Split a node when its entries would end past this many bytes; the
/// directory fills the rest of the page.
const NODE_CAPACITY: usize = PAGE_SIZE - 64;
/// Bytes of entries a node holds at most.
const ROOM: usize = NODE_CAPACITY - HEADER;
/// An internal node splits one child pointer early (the split rule has
/// always priced the first child twice; tree shapes depend on it).
const INTERNAL_CAPACITY: usize = NODE_CAPACITY - 8;
/// Samples in a node's directory, two bytes each.
const DIR_SLOTS: usize = (PAGE_SIZE - NODE_CAPACITY) / 2;
/// Entries a node holds at most: the smallest is a leaf entry's two lengths.
const MAX_ENTRIES: usize = ROOM / 4;
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

/// The key of the entry at `off`.
fn key_at(bytes: &[u8], off: usize) -> Result<&[u8]> {
    take(bytes, off + 2, u16_le(bytes, off)? as usize)
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

    /// On a fresh node cursor: skip to the last directory sample whose key
    /// sorts below `key`, so that every entry skipped does too. Stays at the
    /// first entry when the node has no plausible directory or a sample's
    /// key cannot be read.
    fn jump(&mut self, key: &[u8]) {
        let (bytes, n) = (self.bytes, self.left);
        let Some(dir) = bytes.get(NODE_CAPACITY..).filter(|_| n > 0) else {
            return;
        };
        let sample = |j: usize| match dir.get(2 * j..2 * j + 2) {
            Some(&[a, b]) => usize::from(u16::from_le_bytes([a, b])),
            _ => 0,
        };
        let stride = n.div_ceil(DIR_SLOTS);
        let samples = n.div_ceil(stride);
        if sample(0) != HEADER
            || (1..samples).any(|j| sample(j) <= sample(j - 1))
            || sample(samples - 1) >= NODE_CAPACITY
        {
            return;
        }
        // The first sample whose key does not sort below `key`.
        let (mut lo, mut hi) = (0, samples);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match key_at(bytes, sample(mid)) {
                Ok(k) if k < key => lo = mid + 1,
                Ok(_) => hi = mid,
                Err(_) => return,
            }
        }
        if let Some(j) = lo.checked_sub(1) {
            self.off = sample(j);
            self.left = n - j * stride;
        }
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

/// Walk the `n` entries of the run at `from`: `offs[i]` becomes entry `i`'s
/// offset and `offs[n]` the end of the run.
fn walk_offsets(bytes: &[u8], leaf: bool, from: usize, n: usize, offs: &mut [u16]) -> Result<()> {
    let slots = offs
        .get_mut(..=n)
        .ok_or_else(|| corrupt("more entries than a node holds"))?;
    let mut cur = Cursor {
        bytes,
        leaf,
        left: n,
        off: from,
    };
    for slot in slots {
        *slot = len_u16(cur.off)?;
        cur.next()?;
    }
    Ok(())
}

/// Entry `i`'s offset in walked `offs`.
fn offset(offs: &[u16], i: usize) -> Result<usize> {
    offs.get(i)
        .map(|&o| usize::from(o))
        .ok_or_else(|| corrupt("entry index out of range"))
}

/// Write the directory of a node holding `n` entries, entry `i` at `at(i)`.
fn put_directory(bytes: &mut [u8], n: usize, at: impl Fn(usize) -> Result<usize>) -> Result<()> {
    let mut dir = [0u8; 2 * DIR_SLOTS];
    if n > 0 {
        let stride = n.div_ceil(DIR_SLOTS);
        for (j, slot) in dir.chunks_exact_mut(2).take(n.div_ceil(stride)).enumerate() {
            slot.copy_from_slice(&len_u16(at(j * stride)?)?.to_le_bytes());
        }
    }
    put(bytes, NODE_CAPACITY, &dir)
}

/// Format `bytes` as a node holding the `n` already-encoded `entries`.
fn write_node(bytes: &mut [u8], leaf: bool, n: usize, link: u64, entries: &[u8]) -> Result<()> {
    if entries.len() > ROOM {
        return Err(corrupt("entries overflow the node"));
    }
    bytes.fill(0);
    put(bytes, 0, &[if leaf { NODE_LEAF } else { NODE_INTERNAL }])?;
    put(bytes, 1, &len_u16(n)?.to_le_bytes())?;
    put(bytes, 3, &link.to_le_bytes())?;
    put(bytes, HEADER, entries)?;
    let mut offs = [0u16; MAX_ENTRIES + 1];
    walk_offsets(bytes, leaf, HEADER, n, &mut offs)?;
    put_directory(bytes, n, |i| offset(&offs, i))
}

/// `(separator, new right sibling)` of a node that split.
type Split = Option<(Vec<u8>, u64)>;

/// A node whose edited entries no longer fit: the whole edited run laid out
/// flat, for [`BTreeFile::put`] to cut.
struct Overflow {
    entries: Vec<u8>,
    n: usize,
    link: u64,
}

/// Whether entries `[0, c)` of a walked run and those from `c + gap` to its
/// end each fit in a node.
fn halves_fit(offs: &[u16], c: usize, gap: usize) -> bool {
    let n = offs.len().saturating_sub(1);
    match (offset(offs, c), offset(offs, c + gap), offset(offs, n)) {
        (Ok(left), Ok(right), Ok(end)) => left <= ROOM && end.saturating_sub(right) <= ROOM,
        _ => false,
    }
}

/// Where a walked overflowing run is cut in two: a leaf keeps `[0, c)` and
/// moves `[c, n)` to a new right sibling; an internal node keeps `[0, c)`,
/// moves entry `c` up and the rest right. The entry-count median whenever
/// both halves fit, so every shape that rule builds is kept; otherwise the
/// nearest cut toward the byte midpoint where both do. `None` when no cut
/// fits — only in a leaf, with a huge entry between two runs that neither
/// fit beside it.
fn cut(offs: &[u16], leaf: bool) -> Option<usize> {
    let n = offs.len().saturating_sub(1);
    let gap = usize::from(!leaf);
    let mid = n / 2;
    if halves_fit(offs, mid, gap) {
        Some(mid)
    } else if offset(offs, mid).map_or(true, |left| left > ROOM) {
        (usize::from(leaf)..mid)
            .rev()
            .find(|&c| halves_fit(offs, c, gap))
    } else {
        (mid + 1..n).find(|&c| halves_fit(offs, c, gap))
    }
}

/// The one node edit: make `key` carry `payload` in the node stored in
/// `bytes` (`None` removes it), shifting the entries behind it, zeroing
/// whatever the run vacates and rewriting the directory. Returns the payload
/// `key` carried before and, when the result would not fit, the edited run
/// instead of an edited page.
fn edit_node(
    bytes: &mut [u8],
    leaf: bool,
    key: &[u8],
    payload: Option<&[u8]>,
) -> Result<(Option<Vec<u8>>, Option<Overflow>)> {
    let cur = Cursor::node(bytes)?;
    if cur.leaf != leaf {
        return Err(corrupt("node kind does not match its level"));
    }
    let (n, link) = (cur.left, cur.link()?);
    let mut offs = [0u16; MAX_ENTRIES + 1];
    walk_offsets(bytes, leaf, HEADER, n, &mut offs)?;
    let off = |i: usize| offset(&offs, i);
    let end = off(n)?;
    if end > NODE_CAPACITY {
        return Err(corrupt("entries run into the directory"));
    }
    // `p`: the first entry whose key does not sort below `key`.
    let (mut p, mut hi) = (0, n);
    while p < hi {
        let mid = (p + hi) / 2;
        if key_at(bytes, off(mid)?)? < key {
            p = mid + 1;
        } else {
            hi = mid;
        }
    }
    let at = off(p)?;
    let old = if p < n && key_at(bytes, at)? == key {
        let mut here = Cursor {
            bytes,
            leaf,
            left: 1,
            off: at,
        };
        here.next()?.map(|(_, old)| old.to_vec())
    } else {
        None
    };
    let (added, removed) = (usize::from(payload.is_some()), usize::from(old.is_some()));
    let old_end = off(p + removed)?;

    let new_len = payload.map_or(0, |p| entry_len(leaf, key, p));
    let new_end = end - (old_end - at) + new_len;
    let n = n + added - removed;
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
        // `at ≤ old_end ≤ end ≤ NODE_CAPACITY` by the walk above.
        if new_end > NODE_CAPACITY {
            return Err(corrupt("edit past the end of the node"));
        }
        bytes.copy_within(old_end..end, at + new_len);
        if let Some(vacated) = bytes.get_mut(new_end..end) {
            vacated.fill(0);
        }
        if let Some(payload) = payload {
            write_entry(bytes, at, leaf, key, payload)?;
        }
        put(bytes, 1, &len_u16(n)?.to_le_bytes())?;
        // Entries before the edit stay put; those behind it move by the
        // difference in length.
        put_directory(bytes, n, |i| match i {
            i if i < p => off(i),
            i if i < p + added => Ok(at),
            i => Ok(off(i - added + removed)? - old_end + at + new_len),
        })?;
    }
    Ok((old, None))
}

/// Where the tree starts, as the meta page records it.
#[derive(Clone, Copy)]
struct Shape {
    root: u64,
    height: u32,
}

/// A B+Tree over memcomparable keys.
pub struct BTreeFile {
    pool: Arc<BufferPool>,
    file: FileId,
    /// Structure latch: one writer or many readers per operation. Page
    /// latches are never held across a call into the pool. It holds a copy
    /// of the meta page's root and height, changed only with the meta page
    /// (the persisted truth) under the write latch, so a descent fetches no
    /// meta page.
    latch: RwLock<Shape>,
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
            latch: RwLock::new(Shape { root: 0, height: 0 }),
        };
        let root = tree.alloc_node(true, 0, NO_LEAF, &[])?;
        let shape = Shape { root, height: 1 };
        *tree.latch.write() = shape;
        tree.set_meta(shape, |_| 0)?;
        Ok(tree)
    }

    /// Re-attach an existing tree.
    pub fn open(pool: Arc<BufferPool>, file: FileId) -> Result<Self> {
        let meta = pool.fetch(file, 0)?;
        let shape = {
            let guard = meta.read();
            if guard.u32_at(0) != META_MAGIC {
                return Err(Error::storage(format!("{file} is not a btree file")));
            }
            Shape {
                root: guard.u64_at(8),
                height: guard.u32_at(16),
            }
        };
        drop(meta);
        Ok(BTreeFile {
            pool,
            file,
            latch: RwLock::new(shape),
        })
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Record `shape` in the meta page and map its entry count by `entries`.
    fn set_meta(&self, shape: Shape, entries: impl FnOnce(u64) -> u64) -> Result<()> {
        let meta = self.pool.fetch(self.file, 0)?;
        {
            let mut guard = meta.write();
            let n = entries(guard.u64_at(24));
            guard.set_u64(8, shape.root);
            guard.set_u32(16, shape.height);
            guard.set_u64(24, n);
        }
        self.pool.mark_dirty(self.file, 0);
        Ok(())
    }

    /// Tree height (1 = root is a leaf). Used by the optimizer's index-probe
    /// cost estimate.
    pub fn height(&self) -> u32 {
        self.latch.read().height
    }

    /// Number of entries in the tree.
    pub fn entry_count(&self) -> u64 {
        self.pool
            .fetch(self.file, 0)
            .map(|meta| meta.read().u64_at(24))
            .unwrap_or(0)
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
                    cur.jump(key);
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
    fn leaf_for(&self, shape: Shape, key: &[u8]) -> Result<PageRef> {
        Ok(self
            .descend(shape.root, key, shape.height.saturating_sub(1))?
            .1)
    }

    /// Put `key → payload` into the node `page` (number `page_no`), editing
    /// the page in place. A node that overflows is cut where [`cut`] says:
    /// the upper part moves to a fresh page and `(separator, new page)` is
    /// returned for the caller to put into the parent. A leaf no cut fits is
    /// split three ways around its huge entry, which gets a page of its own,
    /// and returns both new pages in key order.
    fn put(
        &self,
        (page_no, page): (u64, &PageRef),
        leaf: bool,
        key: &[u8],
        payload: &[u8],
    ) -> Result<(Option<Vec<u8>>, [Split; 2])> {
        let (old, overflow) = edit_node(page.write().bytes_mut(), leaf, key, Some(payload))?;
        let Some(Overflow { entries, n, link }) = overflow else {
            self.pool.mark_dirty(self.file, page_no);
            return Ok((old, [None, None]));
        };
        let mut offs = vec![0u16; n + 1];
        walk_offsets(&entries, leaf, 0, n, &mut offs)?;
        let off = |i: usize| offset(&offs, i);
        let run = |from: usize, to: usize| take(&entries, from, to.saturating_sub(from));
        let entry = |i: usize| {
            let mut cur = Cursor {
                bytes: &entries,
                leaf,
                left: 1,
                off: off(i)?,
            };
            cur.next()?.ok_or_else(|| corrupt("split of an empty node"))
        };
        let end = off(n)?;
        let (left_n, left_link, splits) = match (cut(&offs, leaf), leaf) {
            (Some(c), true) => {
                let right_no = self.alloc_node(true, n - c, link, run(off(c)?, end)?)?;
                (c, right_no, [Some((entry(c)?.0.to_vec(), right_no)), None])
            }
            // The median moves up; its child becomes the right half's first.
            (Some(c), false) => {
                let (sep, child) = entry(c)?;
                let right = run(off(c + 1)?, end)?;
                let right_no = self.alloc_node(false, n - c - 1, u64_le(child, 0)?, right)?;
                (c, link, [Some((sep.to_vec(), right_no)), None])
            }
            (None, _) => {
                let c = (1..n)
                    .find(|&c| halves_fit(&offs, c, 1))
                    .filter(|_| leaf)
                    .ok_or_else(|| corrupt("no split of the node fits"))?;
                let right_no = self.alloc_node(true, n - c - 1, link, run(off(c + 1)?, end)?)?;
                let huge_no = self.alloc_node(true, 1, right_no, run(off(c)?, off(c + 1)?)?)?;
                let splits = [
                    Some((entry(c)?.0.to_vec(), huge_no)),
                    Some((entry(c + 1)?.0.to_vec(), right_no)),
                ];
                (c, huge_no, splits)
            }
        };
        write_node(
            page.write().bytes_mut(),
            leaf,
            left_n,
            left_link,
            run(0, off(left_n)?)?,
        )?;
        self.pool.mark_dirty(self.file, page_no);
        Ok((old, splits))
    }

    /// Upsert. Returns the previous value when `key` was present.
    ///
    /// Without a split this allocates nothing and dirties two pages, the
    /// leaf and the meta page. A split walks back up: the parent of a split
    /// node is found by descending for its separator again, one level short.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>> {
        if entry_len(true, key, value) > ROOM {
            return Err(Error::storage("btree entry exceeds node capacity"));
        }
        // Any key may end up a separator, alone in a new root.
        if entry_len(false, key, &NO_LEAF.to_le_bytes()) > ROOM {
            return Err(Error::storage("btree key too long for a separator"));
        }
        let mut shape = self.latch.write();
        let levels = shape.height.saturating_sub(1);
        let (leaf_no, leaf, leaf_level) = self.descend(shape.root, key, levels)?;
        let (old, splits) = self.put((leaf_no, &leaf), true, key, value)?;
        let height = shape.height;
        // A second separator (a three-way leaf split) goes up once the first
        // has settled, however far up that took it.
        for (sep, right_no) in splits.into_iter().flatten() {
            let mut level = leaf_level + (shape.height - height);
            let mut split = Some((sep, right_no));
            while let Some((sep, right_no)) = split.take() {
                let child = right_no.to_le_bytes();
                if level == 0 {
                    let mut entry = vec![0; entry_len(false, &sep, &child)];
                    write_entry(&mut entry, 0, false, &sep, &child)?;
                    shape.root = self.alloc_node(false, 1, shape.root, &entry)?;
                    shape.height += 1;
                } else {
                    level -= 1;
                    let (parent_no, parent, _) = self.descend(shape.root, &sep, level)?;
                    let (_, [up, _]) = self.put((parent_no, &parent), false, &sep, &child)?;
                    split = up;
                }
            }
        }
        self.set_meta(*shape, |n| n + u64::from(old.is_none()))?;
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
        let shape = self.latch.read();
        let mut page = self.leaf_for(*shape, lo.unwrap_or(&[]))?;
        let mut first = lo;
        loop {
            let guard = page.read();
            let mut cur = Cursor::node(guard.bytes())?;
            if !cur.leaf {
                return Err(Error::storage("leaf chain hit internal node"));
            }
            if let Some(lo) = first.take() {
                cur.jump(lo);
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
        let shape = self.latch.read();
        let page = self.leaf_for(*shape, key)?;
        let guard = page.read();
        let mut cur = Cursor::node(guard.bytes())?;
        if !cur.leaf {
            return Err(corrupt("lookup ended on an internal node"));
        }
        cur.jump(key);
        Ok(cur.seek(key)?.1.map(<[u8]>::to_vec))
    }

    /// Remove `key`, returning its value when present. Lazy: no rebalancing.
    pub fn delete(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let shape = self.latch.write();
        let levels = shape.height.saturating_sub(1);
        let (leaf_no, leaf, _) = self.descend(shape.root, key, levels)?;
        let (old, _) = edit_node(leaf.write().bytes_mut(), true, key, None)?;
        if old.is_some() {
            self.pool.mark_dirty(self.file, leaf_no);
            self.set_meta(*shape, |n| n.saturating_sub(1))?;
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
        let root = t.latch.read().root;
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
            // The directory too: edits must never trust it.
            if round % 4 < 2 {
                for b in &mut page[NODE_CAPACITY..] {
                    *b = xorshift(&mut state) as u8;
                }
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
                let mut cur = Cursor::node(&page).unwrap();
                cur.jump(&key);
                drop(cur.seek(&key));
            }
        }
    }

    /// A node of `n` entries with keys `2i + 1` (four bytes each), built
    /// through `write_node`.
    fn node_of(leaf: bool, n: u32) -> [u8; PAGE_SIZE] {
        let mut run = Vec::new();
        for i in 0..n {
            let key = (2 * i + 1).to_be_bytes();
            let payload = if leaf {
                vec![i as u8; i as usize % 4]
            } else {
                u64::from(i).to_le_bytes().to_vec()
            };
            let at = run.len();
            run.resize(at + entry_len(leaf, &key, &payload), 0);
            write_entry(&mut run, at, leaf, &key, &payload).unwrap();
        }
        let mut page = [0u8; PAGE_SIZE];
        write_node(&mut page, leaf, n as usize, NO_LEAF, &run).unwrap();
        page
    }

    /// `(entries skipped by the jump, where seek lands, payload found)`.
    fn probe(page: &[u8], key: &[u8], jump: bool) -> (usize, usize, Option<Vec<u8>>) {
        let mut cur = Cursor::node(page).unwrap();
        let n = cur.left;
        if jump {
            cur.jump(key);
        }
        let skipped = n - cur.left;
        let (at, found) = cur.seek(key).unwrap();
        (skipped, at, found.map(<[u8]>::to_vec))
    }

    /// Every size from empty to full, leaf and internal: the directory's
    /// search lands where the walk does — present and absent keys, before
    /// the first and after the last — and leaves at most one stride to walk.
    #[test]
    fn btree_directory_jump_matches_walk() {
        for leaf in [true, false] {
            let full = if leaf { 850 } else { 579 };
            for n in (0..=full).filter(|n| n % 37 < 3 || *n > full - 3) {
                let page = node_of(leaf, n);
                assert!(Cursor::node(&page).is_ok());
                let stride = (n as usize).div_ceil(DIR_SLOTS).max(1);
                for probe_key in (0..=2 * n + 1).filter(|k| k % (1 + n / 50) == 0 || *k >= 2 * n) {
                    let key = probe_key.to_be_bytes();
                    let (skipped, at, found) = probe(&page, &key, true);
                    let (none, walk_at, walk_found) = probe(&page, &key, false);
                    assert_eq!(none, 0);
                    assert_eq!(
                        (at, &found),
                        (walk_at, &walk_found),
                        "n {n} key {probe_key}"
                    );
                    // Entry `probe_key / 2` is where the key belongs.
                    let belongs = (probe_key / 2) as usize;
                    assert!(
                        skipped <= belongs && belongs - skipped <= stride,
                        "n {n} key {probe_key}"
                    );
                }
            }
        }
    }

    /// A zero directory (written before there were directories) and an
    /// implausible one are walked from the first entry instead.
    #[test]
    fn btree_directory_zero_or_implausible_is_walked() {
        let page = node_of(true, 500);
        let key = 901u32.to_be_bytes();
        let (skipped, at, found) = probe(&page, &key, true);
        assert!(skipped > 0 && found.is_some());
        let mut zeroed = page;
        zeroed[NODE_CAPACITY..].fill(0);
        assert_eq!(probe(&zeroed, &key, true), (0, at, found.clone()));
        let mut swapped = page;
        swapped.copy_within(NODE_CAPACITY + 2..NODE_CAPACITY + 4, NODE_CAPACITY + 6);
        assert_eq!(probe(&swapped, &key, true), (0, at, found.clone()));
        let mut past = page;
        past[PAGE_SIZE - 2..].copy_from_slice(&(NODE_CAPACITY as u16).to_le_bytes());
        assert_eq!(probe(&past, &key, true), (0, at, found));
    }

    /// Tiny and huge entries in one leaf: the entry-count median leaves a
    /// half that fits no page, so the cut moves (a huge entry near an end) or
    /// the leaf splits three ways (a huge entry amid two runs).
    #[test]
    fn mixed_size_splits_fit_their_pages() {
        for (huge_key, huge_len) in [(399u32, 6000), (201, 7000), (0, 8000), (201, 3000)] {
            let t = tree();
            let mut want = std::collections::BTreeMap::new();
            for i in 0..200u32 {
                want.insert((2 * i).to_be_bytes().to_vec(), vec![i as u8; 20]);
            }
            want.insert(huge_key.to_be_bytes().to_vec(), vec![9; huge_len]);
            for (key, value) in &want {
                if key.as_slice() != huge_key.to_be_bytes() {
                    t.insert(key, value).unwrap();
                }
            }
            t.insert(&huge_key.to_be_bytes(), &want[&huge_key.to_be_bytes()[..]])
                .unwrap();
            assert_eq!(t.entry_count(), want.len() as u64);
            for (key, value) in &want {
                assert_eq!(t.get(key).unwrap().as_ref(), Some(value));
            }
            let mut got = Vec::new();
            t.for_each_in_range(None, None, |k, v| got.push((k.to_vec(), v.to_vec())))
                .unwrap();
            assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn keys_too_long_for_a_separator_are_rejected() {
        let t = tree();
        assert!(t.insert(&vec![1; ROOM - 10], b"").is_ok());
        assert!(t.insert(&vec![2; ROOM - 9], b"").is_err());
        assert_eq!(t.entry_count(), 1);
    }
}
