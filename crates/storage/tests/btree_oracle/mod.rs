//! The retired B-Tree write path, kept as the differential oracle.
//!
//! Until nodes were edited in place, every operation decoded each node on
//! the root-to-leaf path into vectors ([`Node::decode`]), edited the vectors
//! and re-encoded a zero-filled page ([`Node::encode`]). The in-place tree
//! must produce byte-identical pages, so this file is that code, verbatim
//! but for driving the pool through its public API.

use std::sync::Arc;

use ingot_common::{Error, Result};
use ingot_storage::{BufferPool, FileId, Page, PAGE_SIZE};

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

/// The pre-in-place tree: same file layout, decode/encode on every touch.
pub struct OracleTree {
    pool: Arc<BufferPool>,
    file: FileId,
}

impl OracleTree {
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
        Ok(OracleTree { pool, file })
    }

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

    pub fn height(&self) -> u32 {
        self.meta().unwrap().1
    }

    pub fn entry_count(&self) -> u64 {
        self.meta().unwrap().2
    }

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

    /// Remove `key`, returning its value when present. Lazy: no rebalancing.
    pub fn delete(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
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
}
