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

use std::sync::Arc;

use ingot_common::{Error, Result};
use parking_lot::RwLock;

use crate::buffer::BufferPool;
use crate::disk::FileId;
use crate::page::{Page, PAGE_SIZE};

const META_MAGIC: u32 = 0xB7EE_0001;
const NODE_LEAF: u8 = 1;
const NODE_INTERNAL: u8 = 2;
/// Split a node when its encoding would exceed this many bytes.
const NODE_CAPACITY: usize = PAGE_SIZE - 64;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        next: u64,
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    Internal {
        /// `children.len() == keys.len() + 1`; `keys[i]` is the smallest key
        /// reachable under `children[i + 1]`.
        keys: Vec<Vec<u8>>,
        children: Vec<u64>,
    },
}

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

fn node_type(bytes: &[u8]) -> u8 {
    bytes.first().copied().unwrap_or(0)
}

impl Node {
    fn encoded_size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                16 + entries
                    .iter()
                    .map(|(k, v)| 4 + k.len() + v.len())
                    .sum::<usize>()
            }
            Node::Internal { keys, .. } => {
                16 + 8 + keys.iter().map(|k| 10 + k.len()).sum::<usize>()
            }
        }
    }

    fn encode(&self, page: &mut Page) -> Result<()> {
        let bytes = page.bytes_mut();
        bytes.fill(0);
        match self {
            Node::Leaf { next, entries } => {
                put(bytes, 0, &[NODE_LEAF])?;
                put(bytes, 1, &(entries.len() as u16).to_le_bytes())?;
                put(bytes, 3, &next.to_le_bytes())?;
                let mut off = 16;
                for (k, v) in entries {
                    put(bytes, off, &(k.len() as u16).to_le_bytes())?;
                    off += 2;
                    put(bytes, off, k)?;
                    off += k.len();
                    put(bytes, off, &(v.len() as u16).to_le_bytes())?;
                    off += 2;
                    put(bytes, off, v)?;
                    off += v.len();
                }
            }
            Node::Internal { keys, children } => {
                put(bytes, 0, &[NODE_INTERNAL])?;
                put(bytes, 1, &(keys.len() as u16).to_le_bytes())?;
                let first = children
                    .first()
                    .ok_or_else(|| corrupt("internal node without children"))?;
                put(bytes, 3, &first.to_le_bytes())?;
                let mut off = 16;
                for (k, child) in keys.iter().zip(children.iter().skip(1)) {
                    put(bytes, off, &(k.len() as u16).to_le_bytes())?;
                    off += 2;
                    put(bytes, off, k)?;
                    off += k.len();
                    put(bytes, off, &child.to_le_bytes())?;
                    off += 8;
                }
            }
        }
        Ok(())
    }

    fn decode(page: &Page) -> Result<Node> {
        let bytes = page.bytes();
        let n = u16_le(bytes, 1)? as usize;
        match node_type(bytes) {
            NODE_LEAF => {
                let next = u64_le(bytes, 3)?;
                let mut entries = Vec::with_capacity(n);
                let mut off = 16;
                for _ in 0..n {
                    let klen = u16_le(bytes, off)? as usize;
                    off += 2;
                    let k = take(bytes, off, klen)?.to_vec();
                    off += klen;
                    let vlen = u16_le(bytes, off)? as usize;
                    off += 2;
                    let v = take(bytes, off, vlen)?.to_vec();
                    off += vlen;
                    entries.push((k, v));
                }
                Ok(Node::Leaf { next, entries })
            }
            NODE_INTERNAL => {
                let mut children = Vec::with_capacity(n + 1);
                children.push(u64_le(bytes, 3)?);
                let mut keys = Vec::with_capacity(n);
                let mut off = 16;
                for _ in 0..n {
                    let klen = u16_le(bytes, off)? as usize;
                    off += 2;
                    keys.push(take(bytes, off, klen)?.to_vec());
                    off += klen;
                    children.push(u64_le(bytes, off)?);
                    off += 8;
                }
                Ok(Node::Internal { keys, children })
            }
            t => Err(Error::storage(format!("invalid btree node type {t}"))),
        }
    }
}

/// A B+Tree over memcomparable keys.
pub struct BTreeFile {
    pool: Arc<BufferPool>,
    file: FileId,
    /// Structure latch: one writer or many readers per operation.
    latch: RwLock<()>,
}

impl BTreeFile {
    /// Create an empty tree (meta page + one empty root leaf).
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let file = pool.create_file()?;
        let (meta_no, meta) = pool.allocate(file)?;
        debug_assert_eq!(meta_no, 0);
        let (root_no, root) = pool.allocate(file)?;
        {
            let mut guard = root.write();
            Node::Leaf {
                next: NO_LEAF,
                entries: Vec::new(),
            }
            .encode(&mut guard)?;
        }
        pool.mark_dirty(file, root_no);
        {
            let mut guard = meta.write();
            guard.set_u32(0, META_MAGIC);
            guard.set_u64(8, root_no);
            guard.set_u32(16, 1); // height
            guard.set_u64(24, 0); // entries
        }
        pool.mark_dirty(file, meta_no);
        Ok(BTreeFile {
            pool,
            file,
            latch: RwLock::new(()),
        })
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

    fn read_node(&self, page_no: u64) -> Result<Node> {
        let page = self.pool.fetch(self.file, page_no)?;
        let guard = page.read();
        Node::decode(&guard)
    }

    fn write_node(&self, page_no: u64, node: &Node) -> Result<()> {
        let page = self.pool.fetch(self.file, page_no)?;
        node.encode(&mut page.write())?;
        self.pool.mark_dirty(self.file, page_no);
        Ok(())
    }

    fn alloc_node(&self, node: &Node) -> Result<u64> {
        let (no, page) = self.pool.allocate(self.file)?;
        node.encode(&mut page.write())?;
        self.pool.mark_dirty(self.file, no);
        Ok(no)
    }

    /// Find the leaf page that would contain `key`, returning its page
    /// number and decoded node.
    fn descend(&self, key: &[u8]) -> Result<(u64, Node)> {
        let (mut page_no, _, _) = self.meta()?;
        loop {
            let node = self.read_node(page_no)?;
            match node {
                Node::Leaf { .. } => return Ok((page_no, node)),
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k.as_slice() <= key);
                    page_no = children
                        .get(idx)
                        .copied()
                        .ok_or_else(|| corrupt("child index out of range"))?;
                }
            }
        }
    }

    /// Upsert. Returns the previous value when `key` was present.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>> {
        if 4 + key.len() + value.len() > NODE_CAPACITY - 16 {
            return Err(Error::storage("btree entry exceeds node capacity"));
        }
        let _w = self.latch.write();
        let (root, height, entries) = self.meta()?;
        let (old, split) = self.insert_rec(root, key, value)?;
        if let Some((sep, new_child)) = split {
            let new_root = self.alloc_node(&Node::Internal {
                keys: vec![sep],
                children: vec![root, new_child],
            })?;
            self.set_meta(new_root, height + 1, entries + u64::from(old.is_none()))?;
        } else {
            self.set_meta(root, height, entries + u64::from(old.is_none()))?;
        }
        Ok(old)
    }

    #[allow(clippy::type_complexity)]
    fn insert_rec(
        &self,
        page_no: u64,
        key: &[u8],
        value: &[u8],
    ) -> Result<(Option<Vec<u8>>, Option<(Vec<u8>, u64)>)> {
        let node = self.read_node(page_no)?;
        match node {
            Node::Leaf { next, mut entries } => {
                let old = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => {
                        let e = entries
                            .get_mut(i)
                            .ok_or_else(|| corrupt("leaf entry index out of range"))?;
                        Some(std::mem::replace(&mut e.1, value.to_vec()))
                    }
                    Err(i) => {
                        entries.insert(i, (key.to_vec(), value.to_vec()));
                        None
                    }
                };
                let node = Node::Leaf { next, entries };
                if node.encoded_size() <= NODE_CAPACITY {
                    self.write_node(page_no, &node)?;
                    return Ok((old, None));
                }
                // Split the leaf.
                let Node::Leaf { next, mut entries } = node else {
                    unreachable!()
                };
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid);
                let sep = right_entries
                    .first()
                    .map(|(k, _)| k.clone())
                    .ok_or_else(|| corrupt("split produced an empty right leaf"))?;
                let right_no = self.alloc_node(&Node::Leaf {
                    next,
                    entries: right_entries,
                })?;
                self.write_node(
                    page_no,
                    &Node::Leaf {
                        next: right_no,
                        entries,
                    },
                )?;
                Ok((old, Some((sep, right_no))))
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                let child = children
                    .get(idx)
                    .copied()
                    .ok_or_else(|| corrupt("child index out of range"))?;
                let (old, split) = self.insert_rec(child, key, value)?;
                if let Some((sep, new_child)) = split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, new_child);
                }
                let node = Node::Internal { keys, children };
                if node.encoded_size() <= NODE_CAPACITY {
                    self.write_node(page_no, &node)?;
                    return Ok((old, None));
                }
                // Split the internal node: the median key moves up.
                let Node::Internal {
                    mut keys,
                    mut children,
                } = node
                else {
                    unreachable!()
                };
                let mid = keys.len() / 2;
                let sep = keys
                    .get(mid)
                    .cloned()
                    .ok_or_else(|| corrupt("split median out of range"))?;
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // the median
                let right_children = children.split_off(mid + 1);
                let right_no = self.alloc_node(&Node::Internal {
                    keys: right_keys,
                    children: right_children,
                })?;
                self.write_node(page_no, &Node::Internal { keys, children })?;
                Ok((old, Some((sep, right_no))))
            }
        }
    }

    /// In-place descent: find the leaf page number for `key` without
    /// decoding nodes (probe hot path — zero allocation until the match).
    fn descend_raw(&self, key: &[u8]) -> Result<u64> {
        let (mut page_no, _, _) = self.meta()?;
        loop {
            let page = self.pool.fetch(self.file, page_no)?;
            let guard = page.read();
            let bytes = guard.bytes();
            if node_type(bytes) == NODE_LEAF {
                return Ok(page_no);
            }
            let n = u16_le(bytes, 1)? as usize;
            let mut child = u64_le(bytes, 3)?;
            let mut off = 16usize;
            for _ in 0..n {
                let klen = u16_le(bytes, off)? as usize;
                off += 2;
                let sep = take(bytes, off, klen)?;
                off += klen;
                let next_child = u64_le(bytes, off)?;
                off += 8;
                if sep <= key {
                    child = next_child;
                } else {
                    break;
                }
            }
            page_no = child;
        }
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
        let mut page_no = self.descend_raw(lo.unwrap_or(&[]))?;
        loop {
            let page = self.pool.fetch(self.file, page_no)?;
            let guard = page.read();
            let bytes = guard.bytes();
            if node_type(bytes) != NODE_LEAF {
                return Err(Error::storage("leaf chain hit internal node"));
            }
            let n = u16_le(bytes, 1)? as usize;
            let next = u64_le(bytes, 3)?;
            let mut off = 16usize;
            for _ in 0..n {
                let klen = u16_le(bytes, off)? as usize;
                off += 2;
                let k = take(bytes, off, klen)?;
                off += klen;
                let vlen = u16_le(bytes, off)? as usize;
                off += 2;
                let v = take(bytes, off, vlen)?;
                off += vlen;
                if let Some(lo) = lo {
                    if k < lo {
                        continue;
                    }
                }
                if let Some(hi) = hi {
                    if k > hi {
                        return Ok(());
                    }
                }
                f(k, v);
            }
            if next == NO_LEAF {
                return Ok(());
            }
            page_no = next;
        }
    }

    /// Exact-match lookup (allocation-free descent).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _r = self.latch.read();
        let page_no = self.descend_raw(key)?;
        let page = self.pool.fetch(self.file, page_no)?;
        let guard = page.read();
        let bytes = guard.bytes();
        let n = u16_le(bytes, 1)? as usize;
        let mut off = 16usize;
        for _ in 0..n {
            let klen = u16_le(bytes, off)? as usize;
            off += 2;
            let k = take(bytes, off, klen)?;
            off += klen;
            let vlen = u16_le(bytes, off)? as usize;
            off += 2;
            match k.cmp(key) {
                std::cmp::Ordering::Less => off += vlen,
                std::cmp::Ordering::Equal => return Ok(Some(take(bytes, off, vlen)?.to_vec())),
                std::cmp::Ordering::Greater => return Ok(None),
            }
        }
        Ok(None)
    }

    /// Remove `key`, returning its value when present. Lazy: no rebalancing.
    pub fn delete(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _w = self.latch.write();
        let (page_no, node) = self.descend(key)?;
        let Node::Leaf { next, mut entries } = node else {
            unreachable!()
        };
        match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => {
                let (_, v) = entries.remove(i);
                self.write_node(page_no, &Node::Leaf { next, entries })?;
                let (root, height, n) = self.meta()?;
                self.set_meta(root, height, n.saturating_sub(1))?;
                Ok(Some(v))
            }
            Err(_) => Ok(None),
        }
    }

    /// Range scan: all entries with `lo ≤ key ≤ hi` (bounds optional). The
    /// result is materialised leaf-by-leaf; mutations during iteration are
    /// not supported (the executor materialises index probes first anyway).
    pub fn range(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> BTreeRange<'_> {
        BTreeRange {
            tree: self,
            state: RangeState::NotStarted {
                lo: lo.map(<[u8]>::to_vec),
            },
            hi: hi.map(<[u8]>::to_vec),
        }
    }

    /// All entries with key starting with `prefix` (used by composite-key
    /// index probes on a leading-column equality).
    pub fn prefix(&self, prefix: &[u8]) -> impl Iterator<Item = Result<(Vec<u8>, Vec<u8>)>> + '_ {
        let p = prefix.to_vec();
        self.range(Some(prefix), None).take_while(move |r| match r {
            Ok((k, _)) => k.starts_with(&p),
            Err(_) => true,
        })
    }
}

enum RangeState {
    NotStarted {
        lo: Option<Vec<u8>>,
    },
    InLeaf {
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        idx: usize,
        next: u64,
    },
    Done,
}

/// Iterator over a key range of a [`BTreeFile`].
pub struct BTreeRange<'a> {
    tree: &'a BTreeFile,
    state: RangeState,
    hi: Option<Vec<u8>>,
}

impl Iterator for BTreeRange<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match &mut self.state {
                RangeState::NotStarted { lo } => {
                    let lo = lo.take();
                    let _r = self.tree.latch.read();
                    let start_key = lo.clone().unwrap_or_default();
                    let (page_no, node) = match self.tree.descend(&start_key) {
                        Ok(x) => x,
                        Err(e) => {
                            self.state = RangeState::Done;
                            return Some(Err(e));
                        }
                    };
                    let _ = page_no;
                    let Node::Leaf { next, entries } = node else {
                        unreachable!()
                    };
                    let idx = match &lo {
                        Some(lo) => entries.partition_point(|(k, _)| k.as_slice() < lo.as_slice()),
                        None => 0,
                    };
                    self.state = RangeState::InLeaf { entries, idx, next };
                }
                RangeState::InLeaf { entries, idx, next } => {
                    if let Some(entry) = entries.get(*idx) {
                        let (k, v) = entry.clone();
                        *idx += 1;
                        if let Some(hi) = &self.hi {
                            if k.as_slice() > hi.as_slice() {
                                self.state = RangeState::Done;
                                return None;
                            }
                        }
                        return Some(Ok((k, v)));
                    }
                    if *next == NO_LEAF {
                        self.state = RangeState::Done;
                        return None;
                    }
                    let next_no = *next;
                    let _r = self.tree.latch.read();
                    match self.tree.read_node(next_no) {
                        Ok(Node::Leaf { next, entries }) => {
                            self.state = RangeState::InLeaf {
                                entries,
                                idx: 0,
                                next,
                            };
                        }
                        Ok(_) => {
                            self.state = RangeState::Done;
                            return Some(Err(Error::storage("leaf chain hit internal node")));
                        }
                        Err(e) => {
                            self.state = RangeState::Done;
                            return Some(Err(e));
                        }
                    }
                }
                RangeState::Done => return None,
            }
        }
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
            // xorshift shuffle
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for &i in &order {
            t.insert(&k(i), &i.to_le_bytes()).unwrap();
        }
        assert!(t.height() > 1, "20k entries must split the root");
        assert_eq!(t.entry_count(), n);
        // Full scan is sorted and complete.
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0u64;
        for item in t.range(None, None) {
            let (key, _) = item.unwrap();
            if let Some(p) = &prev {
                assert!(p < &key);
            }
            prev = Some(key);
            count += 1;
        }
        assert_eq!(count, n);
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
        let got: Vec<u64> = t
            .range(Some(&k(10)), Some(&k(15)))
            .map(|r| u64::from_be_bytes(r.unwrap().0.try_into().unwrap()))
            .collect();
        assert_eq!(got, vec![10, 11, 12, 13, 14, 15]);
        let from: Vec<u64> = t
            .range(Some(&k(97)), None)
            .map(|r| u64::from_be_bytes(r.unwrap().0.try_into().unwrap()))
            .collect();
        assert_eq!(from, vec![97, 98, 99]);
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
    fn prefix_scan() {
        let t = tree();
        t.insert(b"aa-1", b"1").unwrap();
        t.insert(b"aa-2", b"2").unwrap();
        t.insert(b"ab-1", b"3").unwrap();
        let got: Vec<Vec<u8>> = t.prefix(b"aa").map(|r| r.unwrap().0).collect();
        assert_eq!(got, vec![b"aa-1".to_vec(), b"aa-2".to_vec()]);
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
        assert!(t.range(None, None).next().unwrap().is_err());
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
}
