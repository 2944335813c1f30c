//! Disk backends.
//!
//! A [`DiskBackend`] stores pages addressed by `(FileId, page_no)`. Two
//! implementations exist: [`MemoryBackend`] for simulation-driven experiments
//! (I/O cost is *accounted* by the [`crate::model::DiskModel`]) and
//! [`FileBackend`] which writes real files — used by the workload database so
//! the storage daemon's periodic appends genuinely hit the disk, as in the
//! paper's "Daemon" setup.
//!
//! The buffer pool writes pages to a [`FileBackend`] through
//! [`DiskBackend::checkpoint`], which stages the images of the pages it
//! writes in the directory's manifest before it writes them in place, so
//! that [`crate::recovery::recover`] can finish a checkpoint a crash cut
//! short.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ingot_common::{Error, Result};
use parking_lot::Mutex;

use crate::page::{Page, PAGE_SIZE};
use crate::recovery::{self, Image, Manifest};

/// Identifies one storage file (one table or index) within a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

impl FileId {
    /// Raw index.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Page-granular persistent storage.
pub trait DiskBackend: Send + Sync {
    /// Create a new, empty file and return its id.
    fn create_file(&self) -> Result<FileId>;
    /// Read page `page_no` of `file` into a [`Page`].
    fn read_page(&self, file: FileId, page_no: u64) -> Result<Page>;
    /// Read the run of pages `first..first + out.len()` of `file` into
    /// `out`, one page image each. A run reaching past the end of the file
    /// is an error. The default reads page by page through
    /// [`DiskBackend::read_page`], so a backend that counts or faults each
    /// read (`crate::fault::FaultInjectingBackend`) still sees every page;
    /// [`FileBackend`] reads the whole run with one positional read.
    fn read_pages(&self, file: FileId, first: u64, out: &mut [[u8; PAGE_SIZE]]) -> Result<()> {
        let end = first
            .checked_add(out.len() as u64)
            .ok_or_else(|| run_out_of_range(file, first, out.len()))?;
        for (dst, page_no) in out.iter_mut().zip(first..end) {
            dst.copy_from_slice(self.read_page(file, page_no)?.bytes());
        }
        Ok(())
    }
    /// Write a page.
    fn write_page(&self, file: FileId, page_no: u64, page: &Page) -> Result<()>;
    /// Append a zeroed page, returning its page number.
    fn allocate_page(&self, file: FileId) -> Result<u64>;
    /// Number of pages in `file`.
    fn file_pages(&self, file: FileId) -> u64;
    /// Number of files.
    fn file_count(&self) -> u32;
    /// Total pages across all files.
    fn total_pages(&self) -> u64 {
        (0..self.file_count())
            .map(|f| self.file_pages(FileId(f)))
            .sum()
    }
    /// Force written pages down to durable storage (`fsync`). No-op for
    /// backends without real durability.
    fn sync(&self) -> Result<()> {
        Ok(())
    }
    /// Durably checkpoint: write `pages` (each `(file, page_no, image)`,
    /// the buffer pool's dirty set) together with opaque engine `meta`
    /// bytes, returning the new checkpoint epoch. The default writes the
    /// pages one by one through [`DiskBackend::write_page`], then syncs,
    /// discards `meta` and returns 0. A [`FileBackend`] stages the images
    /// first, so that after a crash [`crate::recovery::recover`] finishes
    /// the checkpoint, and [`DiskBackend::checkpoint_meta`] returns the
    /// stored bytes.
    fn checkpoint(&self, pages: &[(FileId, u64, &Page)], meta: &[u8]) -> Result<u64> {
        let _ = meta;
        for &(file, page_no, page) in pages {
            self.write_page(file, page_no, page)?;
        }
        self.sync()?;
        Ok(0)
    }
    /// The `meta` bytes stored by the most recent durable checkpoint, or
    /// `None` when there has been none (or the backend keeps no manifest).
    fn checkpoint_meta(&self) -> Result<Option<Vec<u8>>> {
        Ok(None)
    }
    /// Epoch of the most recent durable checkpoint (0 when none).
    fn checkpoint_epoch(&self) -> u64 {
        0
    }
}

/// Shared handles delegate, so a test can keep an `Arc` to (say) a
/// [`crate::fault::FaultInjectingBackend`] for counters and mid-run plan
/// changes while the buffer pool owns a boxed clone of the same handle.
impl<T: DiskBackend + ?Sized> DiskBackend for std::sync::Arc<T> {
    fn create_file(&self) -> Result<FileId> {
        (**self).create_file()
    }
    fn read_page(&self, file: FileId, page_no: u64) -> Result<Page> {
        (**self).read_page(file, page_no)
    }
    fn read_pages(&self, file: FileId, first: u64, out: &mut [[u8; PAGE_SIZE]]) -> Result<()> {
        (**self).read_pages(file, first, out)
    }
    fn write_page(&self, file: FileId, page_no: u64, page: &Page) -> Result<()> {
        (**self).write_page(file, page_no, page)
    }
    fn allocate_page(&self, file: FileId) -> Result<u64> {
        (**self).allocate_page(file)
    }
    fn file_pages(&self, file: FileId) -> u64 {
        (**self).file_pages(file)
    }
    fn file_count(&self) -> u32 {
        (**self).file_count()
    }
    fn total_pages(&self) -> u64 {
        (**self).total_pages()
    }
    fn sync(&self) -> Result<()> {
        (**self).sync()
    }
    fn checkpoint(&self, pages: &[(FileId, u64, &Page)], meta: &[u8]) -> Result<u64> {
        (**self).checkpoint(pages, meta)
    }
    fn checkpoint_meta(&self) -> Result<Option<Vec<u8>>> {
        (**self).checkpoint_meta()
    }
    fn checkpoint_epoch(&self) -> u64 {
        (**self).checkpoint_epoch()
    }
}

/// The error for a run of `len` pages from `first` that `file` does not hold.
fn run_out_of_range(file: FileId, first: u64, len: usize) -> Error {
    Error::storage(format!(
        "pages {first}..{first}+{len} out of range in {file}"
    ))
}

// ---- in-memory backend -------------------------------------------------------

/// Pages held in RAM. All I/O cost is simulated by the disk model.
#[derive(Default)]
pub struct MemoryBackend {
    files: Mutex<Vec<Vec<Box<[u8; PAGE_SIZE]>>>>,
}

impl MemoryBackend {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DiskBackend for MemoryBackend {
    fn create_file(&self) -> Result<FileId> {
        let mut files = self.files.lock();
        files.push(Vec::new());
        Ok(FileId(files.len() as u32 - 1))
    }

    fn read_page(&self, file: FileId, page_no: u64) -> Result<Page> {
        let files = self.files.lock();
        let f = files
            .get(file.0 as usize)
            .ok_or_else(|| Error::storage(format!("unknown file {file}")))?;
        let p = f
            .get(page_no as usize)
            .ok_or_else(|| Error::storage(format!("page {page_no} out of range in {file}")))?;
        Ok(Page::from_bytes(**p))
    }

    /// One lock and no page allocation for the whole run.
    fn read_pages(&self, file: FileId, first: u64, out: &mut [[u8; PAGE_SIZE]]) -> Result<()> {
        let files = self.files.lock();
        let f = files
            .get(file.0 as usize)
            .ok_or_else(|| Error::storage(format!("unknown file {file}")))?;
        let run = usize::try_from(first)
            .ok()
            .and_then(|first| f.get(first..first.checked_add(out.len())?))
            .ok_or_else(|| run_out_of_range(file, first, out.len()))?;
        for (dst, src) in out.iter_mut().zip(run) {
            dst.copy_from_slice(&**src);
        }
        Ok(())
    }

    fn write_page(&self, file: FileId, page_no: u64, page: &Page) -> Result<()> {
        let mut files = self.files.lock();
        let f = files
            .get_mut(file.0 as usize)
            .ok_or_else(|| Error::storage(format!("unknown file {file}")))?;
        let p = f
            .get_mut(page_no as usize)
            .ok_or_else(|| Error::storage(format!("page {page_no} out of range in {file}")))?;
        p.copy_from_slice(page.bytes());
        Ok(())
    }

    fn allocate_page(&self, file: FileId) -> Result<u64> {
        let mut files = self.files.lock();
        let f = files
            .get_mut(file.0 as usize)
            .ok_or_else(|| Error::storage(format!("unknown file {file}")))?;
        f.push(Box::new([0u8; PAGE_SIZE]));
        Ok(f.len() as u64 - 1)
    }

    fn file_pages(&self, file: FileId) -> u64 {
        self.files
            .lock()
            .get(file.0 as usize)
            .map_or(0, |f| f.len() as u64)
    }

    fn file_count(&self) -> u32 {
        self.files.lock().len() as u32
    }
}

// ---- file backend --------------------------------------------------------------

/// Pages stored in one OS file per [`FileId`] under a directory, with the
/// checkpoint manifest of [`crate::recovery`] beside them.
pub struct FileBackend {
    dir: PathBuf,
    files: Mutex<Vec<FileEntry>>,
    epoch: AtomicU64,
}

struct FileEntry {
    handle: File,
    pages: u64,
}

impl FileBackend {
    /// Open (creating if needed) a backend rooted at `dir`. Opening runs
    /// [`crate::recovery::recover`] first, which finishes a checkpoint a
    /// crash cut short and cuts each file to its checkpointed length; the
    /// `ingot_*.dat` files are then re-attached in id order, so a workload
    /// DB survives engine restarts.
    pub fn open(dir: PathBuf) -> Result<Self> {
        std::fs::create_dir_all(&dir)?;
        let epoch = recovery::recover(&dir)?;
        let mut files = Vec::new();
        for id in 0u32.. {
            let handle = match OpenOptions::new()
                .read(true)
                .write(true)
                .open(recovery::path_for(&dir, id))
            {
                Ok(handle) => handle,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
                Err(e) => return Err(e.into()),
            };
            let pages = handle.metadata()?.len() / PAGE_SIZE as u64;
            files.push(FileEntry { handle, pages });
        }
        Ok(FileBackend {
            dir,
            files: Mutex::new(files),
            epoch: AtomicU64::new(epoch),
        })
    }

    /// The most recently written checkpoint epoch (0 before any checkpoint).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }
}

impl DiskBackend for FileBackend {
    fn create_file(&self) -> Result<FileId> {
        let mut files = self.files.lock();
        let id = files.len() as u32;
        let handle = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(recovery::path_for(&self.dir, id))?;
        files.push(FileEntry { handle, pages: 0 });
        Ok(FileId(id))
    }

    fn read_page(&self, file: FileId, page_no: u64) -> Result<Page> {
        let files = self.files.lock();
        let entry = files
            .get(file.0 as usize)
            .ok_or_else(|| Error::storage(format!("unknown file {file}")))?;
        if page_no >= entry.pages {
            return Err(Error::storage(format!(
                "page {page_no} out of range in {file}"
            )));
        }
        // One positional read straight into the page's own buffer.
        let mut page = Page::new();
        entry
            .handle
            .read_exact_at(page.bytes_mut(), page_no * PAGE_SIZE as u64)?;
        Ok(page)
    }

    fn read_pages(&self, file: FileId, first: u64, out: &mut [[u8; PAGE_SIZE]]) -> Result<()> {
        let files = self.files.lock();
        let entry = files
            .get(file.0 as usize)
            .ok_or_else(|| Error::storage(format!("unknown file {file}")))?;
        if first
            .checked_add(out.len() as u64)
            .is_none_or(|end| end > entry.pages)
        {
            return Err(run_out_of_range(file, first, out.len()));
        }
        // One positional read for the whole run, straight into `out`.
        entry
            .handle
            .read_exact_at(out.as_flattened_mut(), first * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn write_page(&self, file: FileId, page_no: u64, page: &Page) -> Result<()> {
        let mut files = self.files.lock();
        let entry = files
            .get_mut(file.0 as usize)
            .ok_or_else(|| Error::storage(format!("unknown file {file}")))?;
        if page_no >= entry.pages {
            return Err(Error::storage(format!(
                "page {page_no} out of range in {file}"
            )));
        }
        entry
            .handle
            .write_all_at(page.bytes(), page_no * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn allocate_page(&self, file: FileId) -> Result<u64> {
        let mut files = self.files.lock();
        let entry = files
            .get_mut(file.0 as usize)
            .ok_or_else(|| Error::storage(format!("unknown file {file}")))?;
        let page_no = entry.pages;
        entry
            .handle
            .write_all_at(&[0u8; PAGE_SIZE], page_no * PAGE_SIZE as u64)?;
        entry.pages += 1;
        Ok(page_no)
    }

    fn file_pages(&self, file: FileId) -> u64 {
        self.files
            .lock()
            .get(file.0 as usize)
            .map_or(0, |e| e.pages)
    }

    fn file_count(&self) -> u32 {
        self.files.lock().len() as u32
    }

    fn sync(&self) -> Result<()> {
        let files = self.files.lock();
        for entry in files.iter() {
            entry.handle.sync_all()?;
        }
        Ok(())
    }

    /// Stage the images in a manifest for the next epoch, then apply it
    /// (see [`crate::recovery`]).
    fn checkpoint(&self, pages: &[(FileId, u64, &Page)], meta: &[u8]) -> Result<u64> {
        // The lock holds allocations off, so the counts cover every image.
        let files = self.files.lock();
        let counts: Vec<u64> = files.iter().map(|e| e.pages).collect();
        let images = pages
            .iter()
            .map(|&(file, page_no, page)| {
                if counts.get(file.0 as usize).is_none_or(|&n| page_no >= n) {
                    return Err(Error::storage(format!(
                        "checkpoint: page {page_no} out of range in {file}"
                    )));
                }
                Ok(Image {
                    file: file.0,
                    page_no,
                    bytes: page.bytes(),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let manifest = Manifest {
            epoch: self.epoch() + 1,
            pages: counts,
            meta,
            images,
        };
        recovery::write_manifest(&self.dir, &manifest)?;
        // The rename is the commit point: from here the next open finishes
        // this epoch, so a retry after a failed apply must log the next.
        self.epoch.store(manifest.epoch, Ordering::Relaxed);
        recovery::apply(&self.dir, &manifest)?;
        Ok(manifest.epoch)
    }

    fn checkpoint_meta(&self) -> Result<Option<Vec<u8>>> {
        recovery::manifest_meta(&self.dir)
    }

    fn checkpoint_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(backend: &dyn DiskBackend) {
        let f = backend.create_file().unwrap();
        let p0 = backend.allocate_page(f).unwrap();
        let p1 = backend.allocate_page(f).unwrap();
        assert_eq!((p0, p1), (0, 1));

        let mut page = Page::new();
        page.insert_record(b"persisted").unwrap();
        backend.write_page(f, p1, &page).unwrap();
        let back = backend.read_page(f, p1).unwrap();
        assert_eq!(back.record(0).unwrap(), b"persisted");
        assert_eq!(backend.file_pages(f), 2);
        assert!(backend.read_page(f, 2).is_err());
        assert!(backend.read_page(FileId(99), 0).is_err());
    }

    #[test]
    fn memory_backend_roundtrip() {
        roundtrip(&MemoryBackend::new());
    }

    #[test]
    fn file_backend_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("ingot-disk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let b = FileBackend::open(dir.clone()).unwrap();
            roundtrip(&b);
        }
        // Re-open and verify the data survived.
        let b = FileBackend::open(dir.clone()).unwrap();
        assert_eq!(b.file_count(), 1);
        let back = b.read_page(FileId(0), 1).unwrap();
        assert_eq!(back.record(0).unwrap(), b"persisted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backend_checkpoint_bumps_epoch_across_reopen() {
        let dir = std::env::temp_dir().join(format!("ingot-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let b = FileBackend::open(dir.clone()).unwrap();
            let f = b.create_file().unwrap();
            b.allocate_page(f).unwrap();
            assert_eq!(b.epoch(), 0);
            assert_eq!(b.checkpoint(&[], b"meta-one").unwrap(), 1);
            assert_eq!(b.checkpoint(&[], b"meta-two").unwrap(), 2);
            assert_eq!(
                b.checkpoint_meta().unwrap().as_deref(),
                Some(b"meta-two".as_slice())
            );
        }
        // Epochs continue from the persisted manifest after reopen.
        let b = FileBackend::open(dir.clone()).unwrap();
        assert_eq!(b.epoch(), 2);
        assert_eq!(b.checkpoint_epoch(), 2);
        assert_eq!(
            b.checkpoint_meta().unwrap().as_deref(),
            Some(b"meta-two".as_slice()),
            "checkpoint metadata survives reopen"
        );
        assert_eq!(b.checkpoint(&[], b"").unwrap(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_cut_in_its_apply_is_finished_by_the_next_open() {
        let dir = std::env::temp_dir().join(format!("ingot-ckpt-apply-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = FileBackend::open(dir.clone()).unwrap();
        let (f0, f1) = (b.create_file().unwrap(), b.create_file().unwrap());
        b.allocate_page(f0).unwrap();
        b.allocate_page(f1).unwrap();
        assert_eq!(b.checkpoint(&[], b"one").unwrap(), 1);
        let mut pages = [Page::new(), Page::new()];
        for (n, page) in pages.iter_mut().enumerate() {
            page.insert_record(format!("epoch two, file {n}").as_bytes())
                .unwrap();
        }
        // The apply opens each data file by path: a directory in file 1's
        // place fails it there, after file 0's image has landed.
        let (path1, aside) = (recovery::path_for(&dir, 1), dir.join("aside"));
        std::fs::rename(&path1, &aside).unwrap();
        std::fs::create_dir(&path1).unwrap();
        let dirty = [(f0, 0, &pages[0]), (f1, 0, &pages[1])];
        assert!(b.checkpoint(&dirty, b"two").is_err());
        assert_eq!(b.epoch(), 2, "the staged epoch is taken, applied or not");
        drop(b);
        std::fs::remove_dir(&path1).unwrap();
        std::fs::rename(&aside, &path1).unwrap();

        // Both images were staged before any page was written in place.
        let staged = recovery::read_manifest(&dir).unwrap().unwrap();
        let m = Manifest::decode(&staged).unwrap();
        assert_eq!((m.epoch, m.meta, m.images.len()), (2, b"two".as_slice(), 2));
        let b = FileBackend::open(dir.clone()).unwrap();
        assert_eq!(b.epoch(), 2);
        for (file, page) in [(f0, &pages[0]), (f1, &pages[1])] {
            assert!(b.read_page(file, 0).unwrap().bytes() == page.bytes());
        }
        assert_eq!(
            b.checkpoint_meta().unwrap().as_deref(),
            Some(b"two".as_slice())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `read_pages` over `backend` against its own page-by-page reads: the
    /// same bytes for every run of a 13-page file, and an error for any run
    /// that reaches past the end.
    fn runs_match_page_reads(backend: &dyn DiskBackend) {
        let f = backend.create_file().unwrap();
        for n in 0..13u8 {
            let no = backend.allocate_page(f).unwrap();
            let mut page = Page::new();
            page.insert_record(&[n; 100]).unwrap();
            page.bytes_mut()[PAGE_SIZE - 1] = n; // the last byte too
            backend.write_page(f, no, &page).unwrap();
        }
        for first in 0..13u64 {
            for len in 0..=(13 - first) as usize {
                let mut run = vec![[0xAAu8; PAGE_SIZE]; len];
                backend.read_pages(f, first, &mut run).unwrap();
                for (no, bytes) in (first..).zip(&run) {
                    let page = backend.read_page(f, no).unwrap();
                    assert!(bytes == page.bytes(), "page {no} of run {first}+{len}");
                }
            }
            let mut past = vec![[0u8; PAGE_SIZE]; (14 - first) as usize];
            assert!(backend.read_pages(f, first, &mut past).is_err());
        }
        let mut one = [[0u8; PAGE_SIZE]];
        assert!(backend.read_pages(f, u64::MAX, &mut one).is_err());
        assert!(backend.read_pages(FileId(99), 0, &mut one).is_err());
    }

    #[test]
    fn memory_backend_runs_match_page_reads() {
        runs_match_page_reads(&MemoryBackend::new());
    }

    #[test]
    fn file_backend_runs_match_page_reads() {
        let dir = std::env::temp_dir().join(format!("ingot-runs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        runs_match_page_reads(&FileBackend::open(dir.clone()).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn default_runs_match_page_reads() {
        // The fault wrapper keeps the trait's page-by-page `read_pages`.
        let plain = crate::fault::FaultPlan::new();
        runs_match_page_reads(&crate::fault::FaultInjectingBackend::new(
            Box::new(MemoryBackend::new()),
            plain,
        ));
    }

    #[test]
    fn memory_backend_checkpoint_is_noop() {
        let b = MemoryBackend::new();
        assert_eq!(b.checkpoint(&[], b"ignored").unwrap(), 0);
        assert_eq!(b.checkpoint_meta().unwrap(), None);
        assert_eq!(b.checkpoint_epoch(), 0);
        b.sync().unwrap();
    }
}
