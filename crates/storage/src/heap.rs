//! Heap files with Ingres-style main pages and overflow chains.
//!
//! In Ingres, a table's storage structure allocates a fixed set of *main*
//! pages; rows that no longer fit go to *overflow* pages chained behind them.
//! The paper's analyzer rule — "a table with a fixed amount of main data
//! pages has already more than 10 % overflow pages: the table should be
//! restructured or modified to storage structure B-Tree" — keys directly off
//! this distinction, so the heap tracks both counts explicitly.

//! ## Version headers (MVCC, PR 8)
//!
//! Every record is prefixed by a fixed [`VERSION_HEADER`]-byte header of
//! five little-endian `u64`s — `begin`, `end`, `prev`, `next`, `root` —
//! interpreted through `ingot_common::mvcc`: `begin`/`end` delimit the
//! version's lifetime (commit timestamps or uncommitted-txn markers),
//! `prev`/`next` link the row's version chain (packed [`RowId`]s, newest at
//! the head), and `root` names the chain's first version — the stable
//! row-lock key that survives versions moving across pages. The fixed size
//! means a header rewrite ([`HeapFile::set_meta`]) is always an in-place
//! same-length page update, so commit stamping never moves a record.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ingot_common::mvcc::{is_txn_mark, TS_INF};
use ingot_common::{ColumnSet, Error, PageId, Result, Row};
use parking_lot::Mutex;

use crate::buffer::{BufferPool, PageRef};
use crate::codec::{decode_row_cols, encode_row_into};
use crate::disk::FileId;
use crate::page::{Page, MAX_RECORD, PAGE_SIZE};

/// Size of the per-record version header, in bytes.
pub const VERSION_HEADER: usize = 40;

/// The decoded version header of one heap record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionMeta {
    /// Commit timestamp (or txn marker) at which this version became
    /// visible.
    pub begin: u64,
    /// Commit timestamp (or txn marker) at which it stopped being the
    /// current version; [`TS_INF`] while alive.
    pub end: u64,
    /// Packed [`RowId`] of the next-older version; [`TS_INF`] when none.
    pub prev: u64,
    /// Packed [`RowId`] of the next-newer version; [`TS_INF`] when none.
    pub next: u64,
    /// Packed [`RowId`] of the chain's first version (the row-lock key);
    /// [`TS_INF`] means "this version is its own root".
    pub root: u64,
}

impl VersionMeta {
    /// A standalone committed-at-`begin` version: alive, no neighbours,
    /// its own root.
    pub fn base(begin: u64) -> VersionMeta {
        VersionMeta {
            begin,
            end: TS_INF,
            prev: TS_INF,
            next: TS_INF,
            root: TS_INF,
        }
    }

    /// The chain root (row-lock key) of the version stored at `own`.
    pub fn root_for(&self, own: RowId) -> u64 {
        if self.root == TS_INF {
            own.pack()
        } else {
            self.root
        }
    }

    /// Is this version the newest of its chain?
    pub fn is_head(&self) -> bool {
        self.next == TS_INF
    }

    /// Committed and superseded/deleted at or below `watermark` — i.e.
    /// invisible to every present and future snapshot, reclaimable by GC.
    pub fn dead_below(&self, watermark: u64) -> bool {
        self.end != TS_INF && !is_txn_mark(self.end) && self.end <= watermark
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [self.begin, self.end, self.prev, self.next, self.root] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    #[inline]
    fn decode(rec: &[u8]) -> Result<VersionMeta> {
        if rec.len() < VERSION_HEADER {
            return Err(Error::storage(format!(
                "record too short for a version header: {} bytes",
                rec.len()
            )));
        }
        let mut f = [0u64; 5];
        for (v, chunk) in f.iter_mut().zip(rec.chunks_exact(8)) {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            *v = u64::from_le_bytes(b);
        }
        let [begin, end, prev, next, root] = f;
        Ok(VersionMeta {
            begin,
            end,
            prev,
            next,
            root,
        })
    }
}

/// Physical address of a row: page number + slot within the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId {
    /// Page number within the table's file.
    pub page_no: u64,
    /// Slot within the page.
    pub slot: u16,
}

impl RowId {
    /// Build a row id.
    pub fn new(page_no: u64, slot: u16) -> Self {
        RowId { page_no, slot }
    }

    /// Pack into a `u64` for storage inside index payloads (48-bit page,
    /// 16-bit slot).
    pub fn pack(self) -> u64 {
        (self.page_no << 16) | self.slot as u64
    }

    /// Inverse of [`RowId::pack`].
    pub fn unpack(v: u64) -> Self {
        RowId {
            page_no: v >> 16,
            slot: (v & 0xFFFF) as u16,
        }
    }
}

impl std::fmt::Display for RowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{},{}]", self.page_no, self.slot)
    }
}

/// Page-occupancy statistics of a heap file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Fixed main-page extent.
    pub main_pages: u64,
    /// Pages beyond the main extent (the overflow chain).
    pub overflow_pages: u64,
    /// Live (logical) rows.
    pub rows: u64,
    /// Physical row versions, including superseded ones awaiting GC.
    pub versions: u64,
}

impl HeapStats {
    /// Overflow pages as a fraction of main pages — the quantity the
    /// analyzer's 10 % rule tests.
    pub fn overflow_ratio(&self) -> f64 {
        if self.main_pages == 0 {
            0.0
        } else {
            self.overflow_pages as f64 / self.main_pages as f64
        }
    }

    /// All pages.
    pub fn total_pages(&self) -> u64 {
        self.main_pages + self.overflow_pages
    }
}

/// A heap file storing encoded rows in slotted pages.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    file: FileId,
    main_pages: u64,
    /// Page currently targeted by inserts (fill front-to-back).
    insert_cursor: Mutex<u64>,
    /// Pages in the file, refreshed from the backend whenever the heap
    /// extends it, so [`HeapFile::stats`] takes no backend lock.
    pages: AtomicU64,
    /// Physical record (version) count.
    versions: AtomicU64,
    /// Logical live-row count, maintained by the catalog layer's MVCC
    /// mutators (and by the plain insert/delete pair).
    rows: AtomicU64,
    /// Highest committed timestamp seen in any header at `open` time; the
    /// engine restores its commit sequence above this after recovery.
    max_commit_ts: AtomicU64,
}

impl HeapFile {
    /// Create a heap file with a `main_pages`-page main extent.
    pub fn create(pool: Arc<BufferPool>, main_pages: usize) -> Result<Self> {
        let file = pool.create_file()?;
        let main_pages = main_pages.max(1) as u64;
        for _ in 0..main_pages {
            let (_, page) = pool.allocate(file)?;
            drop(page);
        }
        // Chain main pages so every page links to its successor.
        for no in 0..main_pages - 1 {
            let page = pool.fetch(file, no)?;
            page.write().set_next_page(PageId(no + 1));
            pool.mark_dirty(file, no);
        }
        Ok(HeapFile {
            pages: AtomicU64::new(pool.file_pages(file)),
            pool,
            file,
            main_pages,
            insert_cursor: Mutex::new(0),
            versions: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            max_commit_ts: AtomicU64::new(0),
        })
    }

    /// Re-attach a heap file that already exists in the backend (workload-DB
    /// restart path). Rows are counted by a full scan: records whose `end`
    /// is still open are live; committed timestamps in any header feed
    /// [`HeapFile::max_commit_ts`].
    pub fn open(pool: Arc<BufferPool>, file: FileId, main_pages: u64) -> Result<Self> {
        let pages = pool.file_pages(file);
        let heap = HeapFile {
            insert_cursor: Mutex::new(pages.saturating_sub(1)),
            pages: AtomicU64::new(pages),
            pool,
            file,
            main_pages,
            versions: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            max_commit_ts: AtomicU64::new(0),
        };
        let mut versions = 0u64;
        let mut live = 0u64;
        let mut max_ts = 0u64;
        for item in heap.scan_versions() {
            let (_, meta, _) = item?;
            versions += 1;
            if meta.end == TS_INF {
                live += 1;
            }
            for ts in [meta.begin, meta.end] {
                if ts != TS_INF && !is_txn_mark(ts) {
                    max_ts = max_ts.max(ts);
                }
            }
        }
        heap.versions.store(versions, Ordering::Relaxed);
        heap.rows.store(live, Ordering::Relaxed);
        heap.max_commit_ts.store(max_ts, Ordering::Relaxed);
        Ok(heap)
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> HeapStats {
        let total = self.pages.load(Ordering::Relaxed);
        HeapStats {
            main_pages: self.main_pages,
            overflow_pages: total.saturating_sub(self.main_pages),
            rows: self.rows.load(Ordering::Relaxed),
            versions: self.versions.load(Ordering::Relaxed),
        }
    }

    /// Highest committed header timestamp observed when this file was
    /// opened (0 for a fresh file).
    pub fn max_commit_ts(&self) -> u64 {
        self.max_commit_ts.load(Ordering::Relaxed)
    }

    /// Insert a row as a standalone committed version (bulk loads, DDL
    /// rebuilds, replay-free paths), returning its address.
    pub fn insert(&self, row: &Row) -> Result<RowId> {
        let id = self.insert_version(row, VersionMeta::base(0))?;
        self.rows.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Insert a row with an explicit version header. Adjusts only the
    /// physical version count — the caller owns the logical live count
    /// ([`HeapFile::adjust_rows`]).
    pub fn insert_version(&self, row: &Row, meta: VersionMeta) -> Result<RowId> {
        let buf = version_record(meta, &encode_body(row)?);
        let mut cursor = self.insert_cursor.lock();
        loop {
            let page_no = *cursor;
            let page = self.pool.fetch(self.file, page_no)?;
            let slot = page.write().insert_record(&buf);
            if let Some(slot) = slot {
                self.pool.mark_dirty(self.file, page_no);
                self.versions.fetch_add(1, Ordering::Relaxed);
                return Ok(RowId::new(page_no, slot));
            }
            // Current page is full: move to the next main page, or grow the
            // overflow chain.
            let total = self.pool.file_pages(self.file);
            if page_no + 1 < total {
                *cursor = page_no + 1;
            } else {
                let allocated = self.pool.allocate(self.file);
                // Counted even when the pool fails after the backend grew.
                self.pages
                    .store(self.pool.file_pages(self.file), Ordering::Relaxed);
                let (new_no, new_page) = allocated?;
                drop(new_page);
                page.write().set_next_page(PageId(new_no));
                self.pool.mark_dirty(self.file, page_no);
                *cursor = new_no;
            }
        }
    }

    /// Read the row at `id` (header skipped).
    pub fn get(&self, id: RowId) -> Result<Row> {
        Ok(self.get_version(id)?.1)
    }

    /// Run `f` over the raw record at `id`, under the page's read latch.
    fn with_record<T>(&self, id: RowId, f: impl FnOnce(&[u8]) -> Result<T>) -> Result<T> {
        self.pool.check_page(self.file, id.page_no)?;
        let page = self.pool.fetch(self.file, id.page_no)?;
        let guard = page.read();
        let rec = guard
            .record(id.slot)
            .ok_or_else(|| Error::storage(format!("no row at {id}")))?;
        f(rec)
    }

    /// Read the version header and row at `id`.
    pub fn get_version(&self, id: RowId) -> Result<(VersionMeta, Row)> {
        self.with_record(id, |rec| {
            Ok((
                VersionMeta::decode(rec)?,
                decode_payload(rec, ColumnSet::all())?,
            ))
        })
    }

    /// Read the version header at `id` and, only when `keep` accepts the
    /// header, the `needed` columns of its row — a version the caller
    /// cannot see is never decoded.
    pub fn get_version_if(
        &self,
        id: RowId,
        needed: ColumnSet,
        keep: impl FnOnce(&VersionMeta) -> bool,
    ) -> Result<(VersionMeta, Option<Row>)> {
        self.with_record(id, |rec| {
            let meta = VersionMeta::decode(rec)?;
            let row = keep(&meta)
                .then(|| decode_payload(rec, needed))
                .transpose()?;
            Ok((meta, row))
        })
    }

    /// Read only the version header at `id`.
    pub fn meta(&self, id: RowId) -> Result<VersionMeta> {
        self.with_record(id, VersionMeta::decode)
    }

    /// Rewrite the version header at `id` in place. The header is
    /// fixed-size, so this never moves the record.
    pub fn set_meta(&self, id: RowId, meta: VersionMeta) -> Result<()> {
        self.pool.check_page(self.file, id.page_no)?;
        let page = self.pool.fetch(self.file, id.page_no)?;
        let mut guard = page.write();
        let tail = guard
            .record(id.slot)
            .map(|rec| rec.get(VERSION_HEADER..).unwrap_or(&[]).to_vec())
            .ok_or_else(|| Error::storage(format!("no row at {id}")))?;
        let mut buf = Vec::with_capacity(VERSION_HEADER + tail.len());
        meta.encode_into(&mut buf);
        buf.extend_from_slice(&tail);
        let updated = guard.update_record(id.slot, &buf)?;
        drop(guard);
        debug_assert!(updated, "same-length header rewrite cannot move");
        self.pool.mark_dirty(self.file, id.page_no);
        Ok(())
    }

    /// Adjust the logical live-row count (MVCC mutators in the catalog
    /// layer call this as rows logically appear and disappear).
    pub fn adjust_rows(&self, delta: i64) {
        if delta >= 0 {
            self.rows.fetch_add(delta as u64, Ordering::Relaxed);
        } else {
            self.rows.fetch_sub(delta.unsigned_abs(), Ordering::Relaxed);
        }
    }

    /// Replace the row at `id`, preserving its version header. Returns the
    /// row's (possibly new) address: when the new encoding does not fit its
    /// page, the row moves.
    pub fn update(&self, id: RowId, row: &Row) -> Result<RowId> {
        let body = encode_body(row)?;
        let meta = self.meta(id)?;
        let buf = version_record(meta, &body);
        self.pool.check_page(self.file, id.page_no)?;
        let page = self.pool.fetch(self.file, id.page_no)?;
        let updated = page.write().update_record(id.slot, &buf)?;
        if updated {
            self.pool.mark_dirty(self.file, id.page_no);
            return Ok(id);
        }
        drop(page);
        self.remove_version(id)?;
        let new_id = self.insert_version(row, meta)?;
        Ok(new_id)
    }

    /// Delete the (logical) row at `id`: physical removal plus live-count
    /// decrement. MVCC deletes instead stamp `end` via
    /// [`HeapFile::set_meta`] and leave removal to GC.
    pub fn delete(&self, id: RowId) -> Result<()> {
        self.remove_version(id)?;
        self.rows.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    /// Physically remove the record at `id` without touching the logical
    /// live count (GC of superseded versions, undo of uncommitted ones).
    pub fn remove_version(&self, id: RowId) -> Result<()> {
        self.pool.check_page(self.file, id.page_no)?;
        let page = self.pool.fetch(self.file, id.page_no)?;
        page.write().delete_record(id.slot)?;
        self.pool.mark_dirty(self.file, id.page_no);
        self.versions.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    /// Full scan in physical order (main pages, then overflow pages — which
    /// is also sequential file order, so the disk model sees a sequential
    /// read pattern exactly like a real table scan). Yields every physical
    /// version; MVCC readers use [`HeapFile::scan_versions`] and filter by
    /// snapshot instead.
    pub fn scan(&self) -> impl Iterator<Item = Result<(RowId, Row)>> + '_ {
        self.scan_versions()
            .map(|item| item.map(|(id, _, row)| (id, row)))
    }

    /// Full scan yielding `(RowId, VersionMeta, Row)` for every physical
    /// version.
    pub fn scan_versions(&self) -> HeapScan<'_> {
        self.scan_where(ColumnSet::all(), |_| true)
    }

    /// Full scan yielding the `needed` columns of every version whose
    /// header `keep` accepts; the others are skipped undecoded.
    pub fn scan_where<F: Fn(&VersionMeta) -> bool>(
        &self,
        needed: ColumnSet,
        keep: F,
    ) -> HeapScan<'_, F> {
        let total_pages = self.pool.file_pages(self.file);
        let run_pages = total_pages.min(RUN_PAGES as u64) as usize;
        HeapScan {
            heap: self,
            page_no: 0,
            total_pages,
            needed,
            keep,
            run: Vec::with_capacity(run_pages),
            frames: Default::default(),
            first: 0,
            page: Page::new(),
            slot: 0,
        }
    }

    /// Live-row count (maintained incrementally).
    pub fn row_count(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Physical version count (maintained incrementally).
    pub fn version_count(&self) -> u64 {
        self.versions.load(Ordering::Relaxed)
    }
}

/// Encode `row` as a record body, refusing one that no page could hold
/// behind a version header — before any page is fetched, so neither an
/// insert (which would allocate pages forever looking for room) nor an
/// update's move (which would already have removed the old version) starts.
fn encode_body(row: &Row) -> Result<Vec<u8>> {
    let mut body = Vec::new();
    encode_row_into(row, &mut body);
    if VERSION_HEADER + body.len() > MAX_RECORD {
        return Err(Error::storage(format!(
            "row of {} bytes does not fit a page ({} bytes at most)",
            body.len(),
            MAX_RECORD - VERSION_HEADER
        )));
    }
    Ok(body)
}

/// A heap record: version header, then the encoded row.
fn version_record(meta: VersionMeta, body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(VERSION_HEADER + body.len());
    meta.encode_into(&mut buf);
    buf.extend_from_slice(body);
    buf
}

/// The row after a record's version header. [`VersionMeta::decode`] has
/// already verified `rec.len() >= VERSION_HEADER` wherever this is called.
fn payload(rec: &[u8]) -> &[u8] {
    rec.get(VERSION_HEADER..).unwrap_or(&[])
}

fn decode_payload(rec: &[u8], needed: ColumnSet) -> Result<Row> {
    decode_row_cols(payload(rec), needed)
}

/// Pages a heap scan asks for per [`BufferPool::read_run`] call. Measured
/// (EXPERIMENTS.md, "Run reads"): a 64-page file read from the page cache
/// took a median 38–45 µs as 64 one-page reads, 25–28 µs in runs of 8 and
/// 23–26 µs in runs of 16, and runs of 16 ran `scan_cold` no faster than
/// runs of 8, so a run, and the scan's buffer, stays at 64 KiB.
pub const RUN_PAGES: usize = 8;

/// A cursor over the versions of a heap file; as an iterator it yields
/// `(RowId, VersionMeta, Row)` triples.
///
/// Reads the heap a run of up to [`RUN_PAGES`] pages at a time with one
/// [`BufferPool::read_run`] call: the resident pages of the run come back
/// pinned, the others are read from the backend into the scan's own run
/// buffer, one read per stretch of missing pages. On a heap larger than the
/// pool the pages read are not installed, so the scan evicts nothing (the
/// pool decides, see [`BufferPool::read_run`]).
///
/// The rows are read from one page at a time, copied once into the scan's
/// page copy when the scan gets to the page: from its frame, under the
/// frame's read latch (whose pin is then let go), or out of the run buffer.
/// The caller never runs under a page latch. The row loop over that 8 KiB
/// copy measured faster than the same loop over the page in place in the
/// 64 KiB run (EXPERIMENTS.md, "Run reads"). Versions
/// are read one at a time, as they are asked for: decoding a whole page
/// ahead into a batch of rows keeps some fifty rows' strings alive at once,
/// which on a scan that reads every column measured slower than the per-row
/// `fetch` it replaced (EXPERIMENTS.md, Fig 4). [`HeapScan::next_record`]
/// hands out the encoded row itself, so a caller can test it on its bytes
/// and decode only what it keeps, into a row it reuses.
pub struct HeapScan<'a, F = fn(&VersionMeta) -> bool> {
    heap: &'a HeapFile,
    /// The next page to read rows from.
    page_no: u64,
    total_pages: u64,
    needed: ColumnSet,
    keep: F,
    /// Pages `first..first + run.len()` as one pool call left them: a
    /// resident page pinned in its slot of `frames`, any other in `run`.
    run: Vec<[u8; PAGE_SIZE]>,
    frames: [Option<PageRef>; RUN_PAGES],
    first: u64,
    /// Private copy of page `page_no - 1`, and the next slot to read in it.
    page: Page,
    slot: u16,
}

impl<F: Fn(&VersionMeta) -> bool> HeapScan<'_, F> {
    /// Step to the next version whose header `keep` accepts and return its
    /// address, header and encoded row (see [`crate::codec::RowCells`]),
    /// borrowed from the scan's page copy. Nothing is decoded.
    #[inline(always)]
    pub fn next_record(&mut self) -> Option<Result<(RowId, VersionMeta, &[u8])>> {
        let (slot, meta, at) = match self.advance()? {
            Ok(found) => found,
            Err(e) => return Some(Err(e)),
        };
        let rec = self.page.bytes().get(at).map_or(&[] as &[u8], payload);
        Some(Ok((RowId::new(self.page_no - 1, slot), meta, rec)))
    }

    /// The scan's one page/slot loop: the slot, header and record bytes of
    /// the next accepted version, refilling the page copy as pages run out.
    /// Always inlined, like `next_record`, into the caller's per-row loop;
    /// the page refill stays a call.
    #[inline(always)]
    fn advance(&mut self) -> Option<Result<(u16, VersionMeta, Range<usize>)>> {
        loop {
            while self.slot < self.page.slot_count() {
                let slot = self.slot;
                self.slot += 1;
                let Some(at) = self.page.record_range(slot) else {
                    continue;
                };
                let rec = self.page.bytes().get(at.clone()).unwrap_or_default();
                return Some(match VersionMeta::decode(rec) {
                    Ok(meta) if !(self.keep)(&meta) => continue,
                    Ok(meta) => Ok((slot, meta, at)),
                    Err(e) => Err(e),
                });
            }
            if let Err(e) = self.refill()? {
                return Some(Err(e));
            }
        }
    }

    /// Copy the next page into the page copy, from its pinned frame or out
    /// of the run buffer, first reading the next run with one
    /// [`BufferPool::read_run`] call when the run is used up. `None` past
    /// the last page; after an error the stale copy stays exhausted and the
    /// scan moves on past the failed run.
    #[inline(never)]
    fn refill(&mut self) -> Option<Result<()>> {
        let page_no = self.page_no;
        if page_no >= self.total_pages {
            return None;
        }
        self.page_no += 1;
        if page_no >= self.first + self.run.len() as u64 {
            let len = (self.total_pages - page_no).min(RUN_PAGES as u64);
            self.run.resize(len as usize, [0; PAGE_SIZE]);
            self.first = page_no;
            if let Err(e) =
                self.heap
                    .pool
                    .read_run(self.heap.file, page_no, &mut self.run, &mut self.frames)
            {
                self.page_no = page_no + len;
                return Some(Err(e));
            }
        }
        let at = (page_no - self.first) as usize;
        match self.frames.get_mut(at).and_then(Option::take) {
            Some(frame) => self.page.bytes_mut().copy_from_slice(frame.read().bytes()),
            None => self.page.bytes_mut().copy_from_slice(self.run.get(at)?),
        }
        self.slot = 0;
        Some(Ok(()))
    }
}

impl<F: Fn(&VersionMeta) -> bool> Iterator for HeapScan<'_, F> {
    type Item = Result<(RowId, VersionMeta, Row)>;

    fn next(&mut self) -> Option<Self::Item> {
        let needed = self.needed;
        let item = self.next_record()?;
        Some(item.and_then(|(id, meta, rec)| Ok((id, meta, decode_row_cols(rec, needed)?))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemoryBackend;
    use crate::model::DiskModel;
    use ingot_common::{SimClock, Value};

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(
            Box::new(MemoryBackend::new()),
            DiskModel::new(SimClock::new()),
            256,
        ))
    }

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i), Value::Str(format!("row-{i}"))])
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = HeapFile::create(pool(), 2).unwrap();
        let id = h.insert(&row(7)).unwrap();
        assert_eq!(h.get(id).unwrap(), row(7));
        assert_eq!(h.row_count(), 1);
    }

    #[test]
    fn overflow_pages_grow_past_main_extent() {
        let h = HeapFile::create(pool(), 2).unwrap();
        for i in 0..2000 {
            h.insert(&row(i)).unwrap();
        }
        let s = h.stats();
        assert_eq!(s.main_pages, 2);
        assert!(s.overflow_pages > 0, "2000 rows must overflow 2 pages");
        assert!(s.overflow_ratio() > 0.1);
        assert_eq!(s.rows, 2000);
    }

    #[test]
    fn scan_sees_all_live_rows_in_order() {
        let h = HeapFile::create(pool(), 1).unwrap();
        for i in 0..500 {
            h.insert(&row(i)).unwrap();
        }
        let rows: Vec<Row> = h.scan().map(|r| r.unwrap().1).collect();
        assert_eq!(rows.len(), 500);
        assert_eq!(rows[0], row(0));
        assert_eq!(rows[499], row(499));
    }

    #[test]
    fn delete_then_scan_skips() {
        let h = HeapFile::create(pool(), 1).unwrap();
        let ids: Vec<RowId> = (0..10).map(|i| h.insert(&row(i)).unwrap()).collect();
        h.delete(ids[3]).unwrap();
        h.delete(ids[7]).unwrap();
        assert!(h.get(ids[3]).is_err());
        let live: Vec<i64> = h
            .scan()
            .map(|r| r.unwrap().1.get(0).as_int().unwrap())
            .collect();
        assert_eq!(live, vec![0, 1, 2, 4, 5, 6, 8, 9]);
        assert_eq!(h.row_count(), 8);
    }

    #[test]
    fn update_in_place_and_moving() {
        let h = HeapFile::create(pool(), 1).unwrap();
        let id = h.insert(&row(1)).unwrap();
        // Same-size update stays put.
        let id2 = h.update(id, &row(2)).unwrap();
        assert_eq!(id, id2);
        assert_eq!(h.get(id2).unwrap(), row(2));
        // Fill the page, then grow the row so it must move.
        while h.stats().total_pages() == 1 {
            h.insert(&row(42)).unwrap();
        }
        let fat = Row::new(vec![Value::Int(2), Value::Str("x".repeat(7000))]);
        let id3 = h.update(id2, &fat).unwrap();
        assert_ne!(id2, id3);
        assert_eq!(h.get(id3).unwrap(), fat);
    }

    #[test]
    fn version_headers_roundtrip_and_rewrite_in_place() {
        use ingot_common::mvcc::txn_mark;
        use ingot_common::TxnId;
        let h = HeapFile::create(pool(), 1).unwrap();
        let old = h.insert(&row(1)).unwrap();
        let meta = VersionMeta {
            begin: txn_mark(TxnId(5)),
            end: TS_INF,
            prev: old.pack(),
            next: TS_INF,
            root: old.pack(),
        };
        let id = h.insert_version(&row(2), meta).unwrap();
        let (m, r) = h.get_version(id).unwrap();
        assert_eq!(m, meta);
        assert_eq!(r, row(2));
        // Stamp the commit: header rewrite must not move the record.
        let stamped = VersionMeta { begin: 9, ..meta };
        h.set_meta(id, stamped).unwrap();
        assert_eq!(h.meta(id).unwrap(), stamped);
        assert_eq!(h.get(id).unwrap(), row(2));
        assert_eq!(h.version_count(), 2);
        assert_eq!(h.row_count(), 1, "insert_version leaves live alone");
        h.adjust_rows(1);
        assert_eq!(h.row_count(), 2);
    }

    #[test]
    fn open_counts_live_rows_and_max_commit_ts() {
        let p = pool();
        let h = HeapFile::create(Arc::clone(&p), 1).unwrap();
        let a = h.insert(&row(1)).unwrap(); // begin 0, alive
        let mut dead = VersionMeta::base(3);
        dead.end = 7; // committed-dead version
        h.insert_version(&row(2), dead).unwrap();
        h.insert_version(&row(3), VersionMeta::base(7)).unwrap();
        h.adjust_rows(1);
        let _ = a;
        let file = h.file_id();
        drop(h);
        let reopened = HeapFile::open(p, file, 1).unwrap();
        assert_eq!(reopened.version_count(), 3);
        assert_eq!(reopened.row_count(), 2, "only end=INF records are live");
        assert_eq!(reopened.max_commit_ts(), 7);
    }

    #[test]
    fn remove_version_leaves_live_count_alone() {
        let h = HeapFile::create(pool(), 1).unwrap();
        let id = h.insert_version(&row(1), VersionMeta::base(1)).unwrap();
        assert_eq!(h.version_count(), 1);
        h.remove_version(id).unwrap();
        assert_eq!(h.version_count(), 0);
        assert_eq!(h.row_count(), 0);
        assert!(h.get(id).is_err());
    }

    /// A heap of `pages` full main pages (no overflow), flushed and dropped
    /// from `p` so the next access to each page is a physical read.
    fn cold_heap(p: &Arc<BufferPool>, pages: usize) -> (HeapFile, Vec<RowId>) {
        let h = HeapFile::create(Arc::clone(p), pages).unwrap();
        let mut ids = Vec::new();
        loop {
            let id = h.insert(&row(ids.len() as i64)).unwrap();
            if id.page_no == pages as u64 {
                h.delete(id).unwrap(); // first row of the overflow page
                break;
            }
            ids.push(id);
        }
        p.clear().unwrap();
        (h, ids)
    }

    fn requests(p: &BufferPool) -> u64 {
        let s = p.stats();
        s.hits + s.misses
    }

    #[test]
    fn a_scan_asks_the_pool_once_per_page() {
        let p = pool();
        let (h, ids) = cold_heap(&p, 5);
        let pages = h.stats().total_pages(); // 5 main + the emptied overflow page
        let before = requests(&p);
        assert_eq!(h.scan_versions().count(), ids.len());
        assert_eq!(requests(&p) - before, pages, "one fetch per page");
    }

    #[test]
    fn cold_scan_through_a_small_pool_reads_each_page_once_in_order() {
        let p = Arc::new(BufferPool::new(
            Box::new(MemoryBackend::new()),
            DiskModel::new(SimClock::new()),
            8,
        ));
        let (h, ids) = cold_heap(&p, 63);
        assert_eq!(h.stats().total_pages(), 64);
        let before = p.stats();
        let scanned: Vec<RowId> = h.scan_versions().map(|r| r.unwrap().0).collect();
        assert_eq!(scanned, ids, "every row, in RowId order");
        let after = p.stats();
        assert_eq!(after.misses - before.misses, 64);
        assert_eq!(after.hits, before.hits, "a cold scan hits nothing");
    }

    #[test]
    fn a_read_fault_inside_a_run_fails_that_scan_and_the_next_succeeds() {
        use crate::fault::{FaultInjectingBackend, FaultPlan};
        let fb = Arc::new(
            FaultInjectingBackend::from_script(Box::new(MemoryBackend::new()), "").unwrap(),
        );
        let p = Arc::new(BufferPool::new(
            Box::new(Arc::clone(&fb)),
            DiskModel::new(SimClock::new()),
            8,
        ));
        let (h, ids) = cold_heap(&p, 63);
        // The twelfth read is page 11, in the middle of the second run.
        let reads = fb.stats().reads;
        fb.set_plan(FaultPlan::parse(&format!("read#{}=transient", reads + 12)).unwrap());
        let scanned: Vec<Result<RowId>> = h.scan_versions().map(|r| r.map(|v| v.0)).collect();
        let failed = scanned.iter().filter(|r| r.is_err()).count();
        assert_eq!(failed, 1, "one error, for the run holding page 11");
        let skipped: Vec<u64> = ids
            .iter()
            .filter(|id| !scanned.iter().any(|r| r.as_ref().ok() == Some(id)))
            .map(|id| id.page_no)
            .collect();
        assert!(skipped.iter().all(|no| (8..16).contains(no)));
        // The run stops at its fault; the scan goes on with the next run.
        assert_eq!(fb.stats().reads - reads, 64 - 4, "all but pages 12..16");
        let again: Vec<RowId> = h.scan_versions().map(|r| r.unwrap().0).collect();
        assert_eq!(again, ids);
    }

    #[test]
    fn a_parked_scan_holds_no_page_latch() {
        let h = Arc::new(HeapFile::create(pool(), 1).unwrap());
        for i in 0..10 {
            h.insert(&row(i)).unwrap();
        }
        let mut scan = h.scan_versions();
        assert!(scan.next().is_some(), "half-consumed: parked on page 0");
        // The writer needs page 0's write latch, which it could never get
        // while the parked scan still held its read latch.
        let (tx, rx) = std::sync::mpsc::channel();
        let writer = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                tx.send(h.insert_version(&row(99), VersionMeta::base(1)))
                    .unwrap();
            })
        };
        let written = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("writer blocked behind a parked scan");
        writer.join().unwrap();
        assert_eq!(written.unwrap().page_no, 0);
        assert_eq!(scan.count(), 9, "the scan reads on from its own copy");
        assert_eq!(h.scan_versions().count(), 11);
    }

    #[test]
    fn a_rejected_header_is_never_decoded() {
        let h = HeapFile::create(pool(), 1).unwrap();
        h.insert_version(&row(1), VersionMeta::base(3)).unwrap();
        // A version from the future whose payload is not valid UTF-8.
        let mut rec = Vec::new();
        VersionMeta::base(9).encode_into(&mut rec);
        let mut body = crate::codec::encode_row(&Row::new(vec![Value::Str("ab".into())]));
        let n = body.len();
        body[n - 2..].copy_from_slice(&[0xFF, 0xFE]);
        rec.extend_from_slice(&body);
        let slot = h.pool.fetch(h.file, 0).unwrap().write().insert_record(&rec);
        let bad = RowId::new(0, slot.unwrap());

        let as_of_5 = |m: &VersionMeta| m.begin <= 5;
        let seen: Vec<Row> = h
            .scan_where(ColumnSet::all(), as_of_5)
            .map(|r| r.unwrap().2)
            .collect();
        assert_eq!(seen, vec![row(1)]);
        let (meta, none) = h.get_version_if(bad, ColumnSet::all(), as_of_5).unwrap();
        assert_eq!((meta.begin, none), (9, None));
        // Whoever accepts the header does decode it, and fails.
        assert!(h.scan_versions().any(|r| r.is_err()));
        assert!(h.get_version(bad).is_err());
        // Not reading the string is the other way not to trip over it.
        let (_, skipped) = h.get_version_if(bad, ColumnSet::none(), |_| true).unwrap();
        assert_eq!(skipped, Some(Row::new(vec![Value::Null])));
    }

    #[test]
    fn rowid_pack_roundtrip() {
        let id = RowId::new(123_456, 789);
        assert_eq!(RowId::unpack(id.pack()), id);
    }

    #[test]
    fn open_recounts_rows() {
        let p = pool();
        let h = HeapFile::create(Arc::clone(&p), 2).unwrap();
        for i in 0..100 {
            h.insert(&row(i)).unwrap();
        }
        let file = h.file_id();
        drop(h);
        let reopened = HeapFile::open(p, file, 2).unwrap();
        assert_eq!(reopened.row_count(), 100);
    }
}
