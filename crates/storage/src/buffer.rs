//! The buffer pool: a bounded page cache shared by all files of a database.
//!
//! The pool is the boundary where *logical* page accesses become *physical*
//! I/O, so it is also where the monitoring statistics the paper collects
//! (cache hits, physical reads/writes) originate. The 1m-test of the paper's
//! evaluation ("the second statement already shows the impact of caching")
//! reproduces here: the first point query faults catalog and data pages in,
//! subsequent ones are pure cache hits.
//!
//! Pages reach a reader two ways. [`BufferPool::fetch`] pins one page,
//! reading it on a miss and installing it, evicting the least recently used
//! clean frame when the pool is full. [`BufferPool::read_run`] serves a run
//! of consecutive pages to a sequential scan under one lock: it pins the
//! resident pages and reads each stretch of missing ones with one backend
//! read straight into the scan's own buffer. It installs what it read only
//! when the whole file fits the pool, so a scan of a heap larger than the
//! pool evicts nothing. Both count every page as one hit or one miss, and
//! every miss as one physical read.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ingot_common::waits::{WaitEvent, WaitGuard, WaitRegistry, WaitRegistryHandle};
use ingot_common::{Error, Result};
use parking_lot::{Mutex, RwLock};

use crate::disk::{DiskBackend, FileId};
use crate::model::{DiskModel, IoStats};
use crate::page::{Page, PAGE_SIZE};

/// Shared handle to a cached page. Holding the handle pins the page.
pub type PageRef = Arc<RwLock<Page>>;

/// Snapshot of buffer-pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests served from the cache.
    pub hits: u64,
    /// Page requests that required a physical read.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Backend write failures observed while evicting or flushing (the
    /// affected pages stay resident and dirty — nothing is lost).
    pub write_failures: u64,
    /// Pages currently resident.
    pub resident: u64,
    /// Configured capacity in pages.
    pub capacity: u64,
}

impl BufferStats {
    /// Cache hit ratio in [0, 1]; 1.0 when there was no traffic.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Frame {
    page: PageRef,
    dirty: bool,
    /// Generation of the newest LRU-queue entry for this key; stale queue
    /// entries (older generations) are skipped during eviction.
    gen: u64,
}

struct PoolInner {
    frames: HashMap<(FileId, u64), Frame>,
    lru: VecDeque<((FileId, u64), u64)>,
    next_gen: u64,
}

/// An LRU page cache in front of a [`DiskBackend`], with all physical I/O
/// priced by the [`DiskModel`].
///
/// Eviction is **no-steal**: dirty pages are never written back to make
/// room, only [`BufferPool::checkpoint`] (and the test helper
/// [`BufferPool::clear`]) moves dirty data to the backend. This is what
/// makes the WAL's redo-only, committed-transactions-only replay sound — a
/// crash can never leave a loser transaction's page image on disk.
pub struct BufferPool {
    backend: Box<dyn DiskBackend>,
    model: DiskModel,
    capacity: usize,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    write_failures: AtomicU64,
    /// Wait-event sink, injected by the engine after construction. Unset
    /// (unit tests) the miss path charges nothing.
    waits: WaitRegistryHandle,
}

impl BufferPool {
    /// Create a pool of `capacity` pages over `backend`.
    pub fn new(backend: Box<dyn DiskBackend>, model: DiskModel, capacity: usize) -> Self {
        BufferPool {
            backend,
            model,
            capacity: capacity.max(8),
            inner: Mutex::new(PoolInner {
                frames: HashMap::new(),
                lru: VecDeque::new(),
                next_gen: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            waits: WaitRegistryHandle::new(),
        }
    }

    /// Route physical-I/O wait accounting to `registry` (`BufferRead` for
    /// misses). Called once by the engine during wiring.
    pub fn set_wait_registry(&self, registry: Arc<WaitRegistry>) {
        self.waits.set(registry);
    }

    /// The disk model (for reading I/O statistics or the simulated clock).
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// Create a new storage file in the backend.
    pub fn create_file(&self) -> Result<FileId> {
        self.backend.create_file()
    }

    /// Make `key` the most recently used frame. A dirty frame gets no queue
    /// entry: the pool is no-steal, so the sweep could only pass it over,
    /// and with more dirty frames than capacity it would pass over every
    /// one of them on every miss and allocation. [`BufferPool::checkpoint`]
    /// queues the frames it cleans.
    fn touch(inner: &mut PoolInner, key: (FileId, u64)) {
        let gen = inner.next_gen;
        inner.next_gen += 1;
        let Some(f) = inner.frames.get_mut(&key) else {
            return;
        };
        f.gen = gen;
        if f.dirty {
            return;
        }
        inner.lru.push_back((key, gen));
        // Bound queue garbage: compact when it grows far beyond the frame
        // count (stale generations accumulate on hot pages).
        if inner.lru.len() > inner.frames.len() * 8 + 64 {
            let frames = &inner.frames;
            inner
                .lru
                .retain(|(k, g)| frames.get(k).is_some_and(|f| f.gen == *g));
        }
    }

    /// Put `page` in the pool under `key` as its most recently used frame.
    fn install(inner: &mut PoolInner, key: (FileId, u64), page: PageRef, dirty: bool) {
        inner.frames.insert(
            key,
            Frame {
                page,
                dirty,
                gen: 0,
            },
        );
        Self::touch(inner, key);
    }

    fn evict_if_needed(&self, inner: &mut PoolInner) -> Result<()> {
        // No wait guard: the pool is no-steal, so the sweep drops clean
        // frames and never does I/O. `WaitEvent::BufferEvict` stays reserved
        // for a steal policy that would write a dirty victim back here.
        while inner.frames.len() > self.capacity {
            // Find the least-recently-used unpinned frame. The scan is
            // bounded so that a fully-pinned pool terminates (pinned frames
            // are requeued behind the budget).
            let mut evicted = false;
            let mut budget = inner.lru.len();
            while budget > 0 {
                budget -= 1;
                let Some((key, gen)) = inner.lru.pop_front() else {
                    break;
                };
                let Some(frame) = inner.frames.get(&key) else {
                    continue; // stale: frame already gone
                };
                if frame.gen != gen {
                    continue; // stale: frame touched more recently
                }
                if frame.dirty {
                    // Dirtied since it was queued: drop the entry, a
                    // checkpoint queues the frame again once it is clean.
                    // Dirty pages are *never* written back here — the pool
                    // is strictly no-steal, because redo-only WAL replay
                    // (crate::wal) assumes no uncommitted page image ever
                    // reaches the backend outside a checkpoint. The pool
                    // runs over capacity until the next checkpoint cleans
                    // frames.
                    continue;
                }
                if Arc::strong_count(&frame.page) > 1 {
                    // Pinned: requeue at the back and keep scanning.
                    Self::touch(inner, key);
                    continue;
                }
                if inner.frames.remove(&key).is_none() {
                    continue; // stale: frame already gone
                }
                self.evictions.fetch_add(1, Ordering::Relaxed);
                evicted = true;
                break;
            }
            if !evicted {
                // Everything is pinned; allow the pool to exceed capacity
                // rather than deadlock.
                return Ok(());
            }
        }
        Ok(())
    }

    /// Fetch a page, reading it from disk on a miss. The returned handle
    /// pins the page until dropped.
    pub fn fetch(&self, file: FileId, page_no: u64) -> Result<PageRef> {
        let mut inner = self.inner.lock();
        if let Some(frame) = inner.frames.get(&(file, page_no)) {
            let page = Arc::clone(&frame.page);
            self.hits.fetch_add(1, Ordering::Relaxed);
            Self::touch(&mut inner, (file, page_no));
            return Ok(page);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let page = {
            // Miss: the physical read is lost time for the requester.
            let _wait = WaitGuard::begin(self.waits.get(), WaitEvent::BufferRead);
            self.backend.read_page(file, page_no)?
        };
        self.model.record_read(file, page_no);
        let page = Arc::new(RwLock::new(page));
        Self::install(&mut inner, (file, page_no), Arc::clone(&page), false);
        self.evict_if_needed(&mut inner)?;
        Ok(page)
    }

    /// Read pages `first..first + out.len()` of `file` for a sequential
    /// scan with one pool lock: each resident page is pinned in `frames`,
    /// each other page is read into `out`, its slot in `frames` left `None`.
    ///
    /// A resident page (dirty ones included: the frame is newer than the
    /// disk) counts as a hit and is touched; its handle is cloned, not its
    /// bytes, so no latch is taken under the pool lock and the caller
    /// copies the page once, when it gets to it. Each run of non-resident
    /// pages is one [`DiskBackend::read_pages`] call in one `BufferRead`
    /// wait, and each of its pages counts one miss and one model read, as
    /// a [`BufferPool::fetch`] miss does. Those pages are installed only
    /// when the whole file fits the pool: a cyclic scan of a larger file
    /// would evict each page (LRU) before the next scan came back to it,
    /// so installing them would only push out pages others still use.
    /// `frames` must be at least as long as `out`; on an error it holds
    /// no pin.
    pub fn read_run(
        &self,
        file: FileId,
        first: u64,
        out: &mut [[u8; PAGE_SIZE]],
        frames: &mut [Option<PageRef>],
    ) -> Result<()> {
        let read = self.read_run_into(file, first, out, frames);
        if read.is_err() {
            frames.fill(None);
        }
        read
    }

    fn read_run_into(
        &self,
        file: FileId,
        first: u64,
        out: &mut [[u8; PAGE_SIZE]],
        frames: &mut [Option<PageRef>],
    ) -> Result<()> {
        if first.checked_add(out.len() as u64).is_none() {
            return Err(Error::storage(format!("page run from {first} overflows")));
        }
        if frames.len() < out.len() {
            return Err(Error::storage(format!(
                "{} frame slots for a run of {} pages",
                frames.len(),
                out.len()
            )));
        }
        let mut inner = self.inner.lock();
        let mut fits_pool = None;
        let mut at = 0;
        while at < out.len() {
            let page_no = first + at as u64;
            if let Some(frame) = inner.frames.get(&(file, page_no)) {
                if let Some(slot) = frames.get_mut(at) {
                    *slot = Some(Arc::clone(&frame.page));
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                Self::touch(&mut inner, (file, page_no));
                at += 1;
                continue;
            }
            // The missing pages from `page_no` up to the next resident one.
            let end = (at + 1..out.len())
                .find(|&i| inner.frames.contains_key(&(file, first + i as u64)))
                .unwrap_or(out.len());
            let Some(run) = out.get_mut(at..end) else {
                break;
            };
            if let Some(slots) = frames.get_mut(at..end) {
                slots.fill(None);
            }
            self.misses.fetch_add(run.len() as u64, Ordering::Relaxed);
            {
                let _wait = WaitGuard::begin(self.waits.get(), WaitEvent::BufferRead);
                self.backend.read_pages(file, page_no, run)?;
            }
            for no in page_no..page_no + run.len() as u64 {
                self.model.record_read(file, no);
            }
            let fits = *fits_pool
                .get_or_insert_with(|| self.backend.file_pages(file) <= self.capacity as u64);
            if fits {
                for (bytes, no) in run.iter().zip(page_no..) {
                    let page = Arc::new(RwLock::new(Page::from_bytes(*bytes)));
                    Self::install(&mut inner, (file, no), page, false);
                }
                self.evict_if_needed(&mut inner)?;
            }
            at = end;
        }
        Ok(())
    }

    /// Allocate a fresh page at the end of `file`, returning `(page_no,
    /// handle)`. The new page is resident and dirty.
    pub fn allocate(&self, file: FileId) -> Result<(u64, PageRef)> {
        let page_no = self.backend.allocate_page(file)?;
        self.model.record_write(); // file extension is a physical write
        let page = Arc::new(RwLock::new(Page::new()));
        let mut inner = self.inner.lock();
        Self::install(&mut inner, (file, page_no), Arc::clone(&page), true);
        self.evict_if_needed(&mut inner)?;
        Ok((page_no, page))
    }

    /// Mark a resident page dirty (caller has modified it via its handle).
    pub fn mark_dirty(&self, file: FileId, page_no: u64) {
        let mut inner = self.inner.lock();
        if let Some(frame) = inner.frames.get_mut(&(file, page_no)) {
            frame.dirty = true;
        }
    }

    /// Hand every dirty page to `write`, least recently used first, with
    /// the pool unlocked: cache hits go on while the backend writes and
    /// syncs, and only writers of the pages being written wait. The pages
    /// turn clean when they are handed over, and a writer that changes one
    /// afterwards marks it dirty again; the frames stay pinned, so none is
    /// evicted before `write` returns. When it succeeds, each page counts
    /// as one physical write and is queued for eviction again in that
    /// order; when it fails, every page is dirty again for the next
    /// attempt.
    fn write_back<T>(&self, write: impl FnOnce(&[(FileId, u64, &Page)]) -> Result<T>) -> Result<T> {
        let mut inner = self.inner.lock();
        let mut dirty: Vec<(u64, (FileId, u64), PageRef)> = inner
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(k, f)| (f.gen, *k, Arc::clone(&f.page)))
            .collect();
        dirty.sort_unstable_by_key(|&(gen, _, _)| gen);
        let guards: Vec<_> = dirty.iter().map(|(_, _, page)| page.read()).collect();
        for (_, key, _) in &dirty {
            if let Some(frame) = inner.frames.get_mut(key) {
                frame.dirty = false;
            }
        }
        drop(inner);
        let pages: Vec<(FileId, u64, &Page)> = dirty
            .iter()
            .zip(&guards)
            .map(|(&(_, (file, page_no), _), page)| (file, page_no, &**page))
            .collect();
        let written = write(&pages);
        drop(pages);
        drop(guards);
        let mut inner = self.inner.lock();
        for (_, key, _) in &dirty {
            if written.is_ok() {
                self.model.record_write();
                Self::touch(&mut inner, *key);
            } else if let Some(frame) = inner.frames.get_mut(key) {
                frame.dirty = true;
            }
        }
        if written.is_err() {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
        }
        written
    }

    /// Durably checkpoint the backend: hand it every dirty page together
    /// with opaque engine `meta` bytes (see [`DiskBackend::checkpoint`]).
    /// Returns the new checkpoint epoch (0 for backends without one).
    pub fn checkpoint(&self, meta: &[u8]) -> Result<u64> {
        self.write_back(|pages| self.backend.checkpoint(pages, meta))
    }

    /// Metadata stored by the backend's most recent durable checkpoint.
    pub fn checkpoint_meta(&self) -> Result<Option<Vec<u8>>> {
        self.backend.checkpoint_meta()
    }

    /// Epoch of the backend's most recent durable checkpoint (0 when none).
    pub fn checkpoint_epoch(&self) -> u64 {
        self.backend.checkpoint_epoch()
    }

    /// Drop every cached page, writing dirty ones back page by page first.
    /// Used by tests and figures to force cold-cache behaviour; a
    /// file-backed engine checkpoints before it clears, so that every page
    /// it writes is staged.
    pub fn clear(&self) -> Result<()> {
        self.write_back(|pages| {
            pages
                .iter()
                .try_for_each(|&(file, page_no, page)| self.backend.write_page(file, page_no, page))
        })?;
        let mut inner = self.inner.lock();
        inner.frames.clear();
        inner.lru.clear();
        Ok(())
    }

    /// Buffer counters.
    pub fn stats(&self) -> BufferStats {
        let resident = self.inner.lock().frames.len() as u64;
        BufferStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
            resident,
            capacity: self.capacity as u64,
        }
    }

    /// Disk-model counters.
    pub fn io_stats(&self) -> IoStats {
        self.model.stats()
    }

    /// Pages in one file.
    pub fn file_pages(&self, file: FileId) -> u64 {
        self.backend.file_pages(file)
    }

    /// Pages across all files.
    pub fn total_pages(&self) -> u64 {
        self.backend.total_pages()
    }

    /// Validate a page number before following a stored link.
    pub fn check_page(&self, file: FileId, page_no: u64) -> Result<()> {
        if page_no < self.backend.file_pages(file) {
            Ok(())
        } else {
            Err(Error::storage(format!(
                "dangling page reference {page_no} in {file}"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemoryBackend;
    use crate::fault::{FaultInjectingBackend, FaultPlan};
    use ingot_common::SimClock;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(
            Box::new(MemoryBackend::new()),
            DiskModel::new(SimClock::new()),
            capacity,
        )
    }

    #[test]
    fn hit_after_miss() {
        let p = pool(16);
        let f = p.create_file().unwrap();
        let (no, _page) = p.allocate(f).unwrap();
        drop(_page);
        p.clear().unwrap();
        let _ = p.fetch(f, no).unwrap(); // miss
        let _ = p.fetch(f, no).unwrap(); // hit
        let s = p.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn dirty_pages_are_never_stolen() {
        let p = pool(8);
        let f = p.create_file().unwrap();
        let (no0, page0) = p.allocate(f).unwrap();
        page0.write().insert_record(b"marker").unwrap();
        p.mark_dirty(f, no0);
        drop(page0);
        for _ in 0..32 {
            let (_, pg) = p.allocate(f).unwrap();
            drop(pg);
        }
        // No-steal: every frame is still dirty, so nothing may be evicted
        // and no page image reaches the backend behind the WAL's back.
        let s = p.stats();
        assert_eq!(s.evictions, 0);
        assert!(s.resident > s.capacity, "pool runs over capacity");
        // A flush cleans the frames; the marker survives a full clear.
        p.checkpoint(b"").unwrap();
        p.clear().unwrap();
        let back = p.fetch(f, no0).unwrap();
        assert_eq!(back.read().record(0).unwrap(), b"marker");
    }

    #[test]
    fn dirty_frames_stay_out_of_the_eviction_sweep() {
        let p = pool(8);
        let f = p.create_file().unwrap();
        for _ in 0..256 {
            let (_, pg) = p.allocate(f).unwrap();
            drop(pg);
        }
        // 256 dirty frames in a pool of 8: every allocation sweeps, and the
        // sweep walks the LRU queue. No dirty frame is on it, so the sweep
        // walks nothing (requeueing them, the pool walked all 256 on every
        // allocation and miss).
        let s = p.stats();
        assert_eq!((s.resident, s.evictions), (256, 0));
        assert_eq!(p.inner.lock().lru.len(), 0);
        // Cleaned, they are queued again, least recently used first, and
        // the next sweep brings the pool back to capacity.
        p.checkpoint(b"").unwrap();
        assert_eq!(p.inner.lock().lru.len(), 256);
        let first = p.inner.lock().lru.front().map(|(key, _)| key.1);
        assert_eq!(first, Some(0));
        let (_, pg) = p.allocate(f).unwrap();
        drop(pg);
        let s = p.stats();
        assert_eq!((s.resident, s.evictions), (8, 249));
    }

    #[test]
    fn capacity_is_respected_for_clean_pages() {
        let p = pool(8);
        let f = p.create_file().unwrap();
        for _ in 0..64 {
            let (_, pg) = p.allocate(f).unwrap();
            drop(pg);
        }
        p.checkpoint(b"").unwrap();
        p.clear().unwrap();
        // Fault the (clean) pages back in: eviction keeps residency bounded.
        for no in 0..64 {
            let pg = p.fetch(f, no).unwrap();
            drop(pg);
        }
        assert!(p.stats().resident <= 8 + 1);
        assert!(p.stats().evictions > 0);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let p = pool(8);
        let f = p.create_file().unwrap();
        let (no0, pinned) = p.allocate(f).unwrap();
        for _ in 0..32 {
            let (_, pg) = p.allocate(f).unwrap();
            drop(pg);
        }
        // Clean everything so eviction is allowed, then trigger a sweep.
        p.checkpoint(b"").unwrap();
        let (_, extra) = p.allocate(f).unwrap();
        drop(extra);
        // The pinned page must still be resident: fetching it is a hit.
        let before = p.stats().misses;
        let again = p.fetch(f, no0).unwrap();
        assert_eq!(p.stats().misses, before);
        assert!(Arc::ptr_eq(&pinned, &again));
    }

    #[test]
    fn flush_write_failure_keeps_dirty_pages() {
        let fb = Arc::new(
            FaultInjectingBackend::from_script(Box::new(MemoryBackend::new()), "write#*=transient")
                .unwrap(),
        );
        let p = BufferPool::new(
            Box::new(Arc::clone(&fb)),
            DiskModel::new(SimClock::new()),
            8,
        );
        let f = p.create_file().unwrap();
        let (no0, page0) = p.allocate(f).unwrap();
        page0.write().insert_record(b"precious").unwrap();
        p.mark_dirty(f, no0);
        drop(page0);
        assert!(
            p.checkpoint(b"").is_err(),
            "a checkpoint surfaces the backend fault"
        );
        let s = p.stats();
        assert!(s.write_failures > 0);
        assert_eq!(s.resident, 1, "failed flush keeps the page resident");
        // Heal the backend: a retried flush lands everything.
        fb.set_plan(FaultPlan::new());
        p.checkpoint(b"").unwrap();
        p.clear().unwrap();
        let back = p.fetch(f, no0).unwrap();
        assert_eq!(back.read().record(0).unwrap(), b"precious");
    }

    #[test]
    fn a_page_dirtied_while_it_is_written_back_stays_dirty() {
        let p = pool(8);
        let f = p.create_file().unwrap();
        let (written, page) = p.allocate(f).unwrap();
        page.write().insert_record(b"first").unwrap();
        drop(page);
        let (other, page) = p.allocate(f).unwrap();
        drop(page);
        p.checkpoint(b"").unwrap();
        let page = p.fetch(f, written).unwrap();
        page.write().insert_record(b"second").unwrap();
        p.mark_dirty(f, written);
        drop(page);
        // The pool is unlocked while the backend writes: a fetch and a
        // writer of another page get through, and a page marked dirty
        // meanwhile is not cleaned by the write that began before.
        p.write_back(|pages| {
            assert_eq!(pages.len(), 1);
            let page = p.fetch(f, other).unwrap();
            page.write().insert_record(b"meanwhile").unwrap();
            p.mark_dirty(f, other);
            p.mark_dirty(f, written);
            Ok(())
        })
        .unwrap();
        let frames = |key| p.inner.lock().frames[&(f, key)].dirty;
        assert!(frames(written) && frames(other));
        p.clear().unwrap();
        let back = p.fetch(f, other).unwrap();
        assert_eq!(back.read().record(0).unwrap(), b"meanwhile");
        let back = p.fetch(f, written).unwrap();
        assert_eq!(back.read().record(1).unwrap(), b"second");
    }

    #[test]
    fn a_file_backed_checkpoint_counts_one_write_per_page() {
        let dir = std::env::temp_dir().join(format!("ingot-pool-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = crate::disk::FileBackend::open(dir.clone()).unwrap();
        let p = BufferPool::new(Box::new(backend), DiskModel::new(SimClock::new()), 8);
        let f = p.create_file().unwrap();
        for n in 0..3u8 {
            let (_, page) = p.allocate(f).unwrap();
            page.write().insert_record(&[n]).unwrap();
        }
        let before = p.io_stats().writes;
        assert_eq!(p.checkpoint(b"meta").unwrap(), 1);
        // Three pages written in place; their staged images are not
        // counted. A second checkpoint has nothing dirty to write.
        assert_eq!(p.io_stats().writes - before, 3);
        assert_eq!(p.checkpoint(b"meta").unwrap(), 2);
        assert_eq!(p.io_stats().writes - before, 3);
        drop(p);
        let reopened = crate::disk::FileBackend::open(dir.clone()).unwrap();
        for n in 0..3u8 {
            let page = reopened.read_page(f, u64::from(n)).unwrap();
            assert_eq!(page.record(0).unwrap(), [n]);
        }
        assert_eq!(
            reopened.checkpoint_meta().unwrap().as_deref(),
            Some(b"meta".as_slice())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A clean, cold file of `pages` pages in `p`, page `n` holding the
    /// record `n` (one byte per page number).
    fn cold_file(p: &BufferPool, pages: u64) -> FileId {
        let f = p.create_file().unwrap();
        for n in 0..pages {
            let (no, page) = p.allocate(f).unwrap();
            page.write().insert_record(&[n as u8]).unwrap();
            assert_eq!(no, n);
        }
        p.clear().unwrap();
        f
    }

    /// One `read_run` of `len` pages from `first`, returning its buffer
    /// and frame slots.
    fn run_of(p: &BufferPool, f: FileId, first: u64, len: usize) -> Result<Run> {
        let mut run = Run {
            pages: vec![[0u8; PAGE_SIZE]; len],
            frames: vec![None; len],
        };
        p.read_run(f, first, &mut run.pages, &mut run.frames)?;
        Ok(run)
    }

    struct Run {
        pages: Vec<[u8; PAGE_SIZE]>,
        frames: Vec<Option<PageRef>>,
    }

    impl Run {
        /// The record of each page: from its pinned frame when the page was
        /// resident, from the run buffer otherwise.
        fn records(&self) -> Vec<Vec<u8>> {
            self.pages
                .iter()
                .zip(&self.frames)
                .map(|(bytes, frame)| {
                    let page = match frame {
                        Some(frame) => frame.read().clone(),
                        None => Page::from_bytes(*bytes),
                    };
                    page.record(0).unwrap_or(b"?").to_vec()
                })
                .collect()
        }

        fn pinned(&self) -> usize {
            self.frames.iter().flatten().count()
        }
    }

    fn numbered(pages: std::ops::Range<u8>) -> Vec<Vec<u8>> {
        pages.map(|n| vec![n]).collect()
    }

    #[test]
    fn a_run_pins_a_dirty_resident_page_instead_of_reading_the_disk() {
        let p = pool(8);
        let f = cold_file(&p, 16);
        // Page 12 resident and dirty: its frame is newer than the disk.
        let page = p.fetch(f, 12).unwrap();
        page.write().update_record(0, b"d").unwrap();
        p.mark_dirty(f, 12);
        let run = run_of(&p, f, 8, 8).unwrap();
        let want: Vec<Vec<u8>> = [8u8, 9, 10, 11, b'd', 13, 14, 15]
            .iter()
            .map(|&b| vec![b])
            .collect();
        assert_eq!(run.records(), want);
        // The frame itself is handed out, pinned, not a copy of its bytes.
        assert!(run.frames[4]
            .as_ref()
            .is_some_and(|f| Arc::ptr_eq(f, &page)));
        assert_eq!(run.pinned(), 1);
    }

    #[test]
    fn a_run_takes_no_page_latch() {
        let p = pool(8);
        let f = cold_file(&p, 16);
        let page = p.fetch(f, 10).unwrap();
        // A writer holds page 10's latch: the run still returns (copying the
        // page under the pool lock would wait for the latch), and the pool
        // is free for others meanwhile.
        let latched = page.write();
        let run = run_of(&p, f, 8, 8).unwrap();
        assert_eq!(run.pinned(), 1);
        drop(p.fetch(f, 3).unwrap());
        drop(latched);
        assert_eq!(run.records(), numbered(8..16));
    }

    #[test]
    fn a_run_counts_hits_misses_and_model_reads_per_page() {
        let fb = Arc::new(
            FaultInjectingBackend::from_script(Box::new(MemoryBackend::new()), "").unwrap(),
        );
        let p = BufferPool::new(
            Box::new(Arc::clone(&fb)),
            DiskModel::new(SimClock::new()),
            64,
        );
        let f = cold_file(&p, 16);
        drop(p.fetch(f, 3).unwrap());
        drop(p.fetch(f, 5).unwrap());
        let (before, io, reads) = (p.stats(), p.io_stats(), fb.stats().reads);
        let run = run_of(&p, f, 0, 8).unwrap();
        let (after, io_after) = (p.stats(), p.io_stats());
        assert_eq!(after.hits - before.hits, 2, "pages 3 and 5");
        assert_eq!(after.misses - before.misses, 6);
        assert_eq!(io_after.reads() - io.reads(), 6, "one model read per miss");
        // The default `read_pages` reads page by page: a counting backend
        // still sees every page.
        assert_eq!(fb.stats().reads - reads, 6);
        assert_eq!(run.records(), numbered(0..8));
        assert_eq!(run.pinned(), 2);
        // The file fits the pool, so what the run read is now resident.
        assert_eq!(after.resident, 8);
        let hits = p.stats().hits;
        let again = run_of(&p, f, 0, 8).unwrap();
        assert_eq!(p.stats().hits - hits, 8);
        assert_eq!(again.pinned(), 8);
    }

    #[test]
    fn a_run_over_a_file_larger_than_the_pool_installs_and_evicts_nothing() {
        let p = pool(8);
        let f = cold_file(&p, 64);
        drop(p.fetch(f, 40).unwrap());
        let before = p.stats();
        for first in (0..64).step_by(8) {
            run_of(&p, f, first, 8).unwrap();
        }
        let after = p.stats();
        assert_eq!(
            (after.misses - before.misses, after.hits - before.hits),
            (63, 1)
        );
        assert_eq!(after.evictions, before.evictions);
        assert_eq!(after.resident, 1, "only the page that was already there");
    }

    #[test]
    fn a_faulted_run_fails_pins_nothing_and_the_next_read_succeeds() {
        let fb = Arc::new(
            FaultInjectingBackend::from_script(Box::new(MemoryBackend::new()), "").unwrap(),
        );
        let p = BufferPool::new(
            Box::new(Arc::clone(&fb)),
            DiskModel::new(SimClock::new()),
            8,
        );
        let f = cold_file(&p, 32);
        let page = p.fetch(f, 8).unwrap();
        let reads = fb.stats().reads;
        fb.set_plan(FaultPlan::parse(&format!("read#{}=transient", reads + 4)).unwrap());
        let mut run = vec![[0u8; PAGE_SIZE]; 8];
        let mut frames = vec![None; 8];
        assert!(
            p.read_run(f, 8, &mut run, &mut frames).is_err(),
            "the fourth page read faults"
        );
        assert!(
            frames.iter().all(Option::is_none),
            "the pin on page 8 is let go"
        );
        assert_eq!(Arc::strong_count(&page), 2, "this handle and the frame");
        assert_eq!(p.io_stats().reads(), 1, "a failed read is no model read");
        assert_eq!(run_of(&p, f, 8, 8).unwrap().records(), numbered(8..16));
    }

    #[test]
    fn a_run_past_the_end_of_the_file_is_an_error() {
        let p = pool(8);
        let f = cold_file(&p, 12);
        assert!(run_of(&p, f, 8, 8).is_err());
        run_of(&p, f, 8, 4).unwrap();
        let mut run = vec![[0u8; PAGE_SIZE]; 4];
        let mut frames = vec![None; 3];
        assert!(
            p.read_run(f, 8, &mut run, &mut frames).is_err(),
            "fewer frame slots than pages"
        );
    }

    #[test]
    fn hit_ratio() {
        let s = BufferStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(BufferStats::default().hit_ratio(), 1.0);
    }
}
