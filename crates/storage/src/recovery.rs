//! The checkpoint manifest of a [`crate::disk::FileBackend`] directory, and
//! crash recovery as the second half of a checkpoint.
//!
//! A checkpoint overwrites pages in place, so a crash can land between
//! those writes. It is therefore made redoable, in two phases:
//!
//! 1. **Stage.** [`write_manifest`] installs a manifest for epoch N that
//!    carries the engine's metadata, each data file's page count and an
//!    image of every page the checkpoint will write. It installs
//!    atomically: temp file, fsync, rename, directory fsync.
//! 2. **Apply.** [`apply`] writes those images in place, cuts each file to
//!    its recorded count, syncs the files it touched and installs the same
//!    manifest again without the images.
//!
//! [`recover`] runs [`apply`] on whatever manifest the directory holds, so
//! a crash anywhere in a checkpoint leaves one of two states. Before the
//! stage's rename, the directory holds epoch N−1 and in-place pages that
//! were never touched. From the rename on, the next open finishes the
//! checkpoint. Applying twice gives what applying once gives. Pages past a
//! file's recorded count (a crash after `allocate_page`, a torn append) are
//! cut off; a file the manifest does not list loses only a partial last
//! page, and so does every file of a directory that was never
//! checkpointed.
//!
//! Manifest layout (all integers little-endian):
//!
//! ```text
//! magic   8  b"INGOTMF2"
//! epoch   8  u64, incremented per checkpoint
//! files   4  u32 file count, then one u64 page count per file
//! meta    8  u64 length, then that many opaque bytes (engine checkpoint
//!            metadata — Ingot stores the serialized schema here so WAL
//!            replay can rebuild the catalog before redoing records)
//! images  8  u64 image count, then per image: file u32, page u64 and the
//!            PAGE_SIZE bytes to write there (none once applied)
//! trailer 8  u64 FNV-1a of all preceding bytes
//! ```

use std::collections::btree_map::{BTreeMap, Entry};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use ingot_common::{fnv1a64, Error, Result};

use crate::page::PAGE_SIZE;

/// File name of the checkpoint manifest inside a backend directory.
pub const MANIFEST_NAME: &str = "ingot.manifest";
const MANIFEST_TMP: &str = "ingot.manifest.tmp";
const MAGIC: &[u8; 8] = b"INGOTMF2";

/// One page image a staged checkpoint writes in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Image<'a> {
    /// Raw file id.
    pub file: u32,
    /// Page number within the file.
    pub page_no: u64,
    /// The page's bytes.
    pub bytes: &'a [u8; PAGE_SIZE],
}

/// A checkpoint manifest: epoch, page counts, engine metadata and, while
/// the checkpoint is staged, the page images still to write in place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest<'a> {
    /// Checkpoint epoch this manifest describes.
    pub epoch: u64,
    /// Page count of each data file, in file-id order.
    pub pages: Vec<u64>,
    /// Opaque engine metadata captured with the checkpoint.
    pub meta: &'a [u8],
    /// Page images to write in place; empty once applied.
    pub images: Vec<Image<'a>>,
}

impl<'a> Manifest<'a> {
    /// The manifest's bytes, trailer included.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(
            44 + self.pages.len() * 8 + self.meta.len() + self.images.len() * (12 + PAGE_SIZE),
        );
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&(self.pages.len() as u32).to_le_bytes());
        for pages in &self.pages {
            buf.extend_from_slice(&pages.to_le_bytes());
        }
        buf.extend_from_slice(&(self.meta.len() as u64).to_le_bytes());
        buf.extend_from_slice(self.meta);
        buf.extend_from_slice(&(self.images.len() as u64).to_le_bytes());
        for image in &self.images {
            buf.extend_from_slice(&image.file.to_le_bytes());
            buf.extend_from_slice(&image.page_no.to_le_bytes());
            buf.extend_from_slice(image.bytes);
        }
        let trailer = fnv1a64(&buf);
        buf.extend_from_slice(&trailer.to_le_bytes());
        buf
    }

    /// Parse `buf`, or `None` when it is not a whole manifest: wrong magic,
    /// a trailer that does not match, a length that does not add up, or an
    /// image outside its file's recorded pages.
    pub fn decode(buf: &'a [u8]) -> Option<Manifest<'a>> {
        let body_len = buf.len().checked_sub(8)?;
        let (body, trailer) = buf.split_at(body_len);
        if u64::from_le_bytes(trailer.try_into().ok()?) != fnv1a64(body) {
            return None;
        }
        let mut r = Reader(body);
        if r.take(8)? != MAGIC {
            return None;
        }
        let epoch = r.u64()?;
        let files = u32::from_le_bytes(r.take(4)?.try_into().ok()?);
        let pages = (0..files).map(|_| r.u64()).collect::<Option<Vec<_>>>()?;
        let meta_len = usize::try_from(r.u64()?).ok()?;
        let meta = r.take(meta_len)?;
        let mut images = Vec::new();
        for _ in 0..r.u64()? {
            let file = u32::from_le_bytes(r.take(4)?.try_into().ok()?);
            let page_no = r.u64()?;
            let bytes = r.take(PAGE_SIZE)?.try_into().ok()?;
            if page_no >= *pages.get(file as usize)? {
                return None;
            }
            images.push(Image {
                file,
                page_no,
                bytes,
            });
        }
        r.0.is_empty().then_some(Manifest {
            epoch,
            pages,
            meta,
            images,
        })
    }
}

/// Checked little-endian reads off the front of a byte slice.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.0.len() {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

pub(crate) fn path_for(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("ingot_{id:04}.dat"))
}

/// Install `manifest` in `dir` atomically: temp file + fsync + rename +
/// directory fsync. A crash before the rename leaves the previous manifest.
pub fn write_manifest(dir: &Path, manifest: &Manifest<'_>) -> Result<()> {
    let tmp = dir.join(MANIFEST_TMP);
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&manifest.encode())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join(MANIFEST_NAME))?;
    // Persist the rename itself; best-effort on platforms where opening a
    // directory for sync is not supported.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// The bytes of `dir`'s manifest, or `None` when there is none.
pub fn read_manifest(dir: &Path) -> Result<Option<Vec<u8>>> {
    match std::fs::read(dir.join(MANIFEST_NAME)) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

fn corrupt(dir: &Path) -> Error {
    Error::storage(format!(
        "recovery: manifest in {} is corrupt",
        dir.display()
    ))
}

/// The engine metadata stored with `dir`'s manifest, or `None` when there
/// is no manifest or it carries none.
pub fn manifest_meta(dir: &Path) -> Result<Option<Vec<u8>>> {
    let Some(bytes) = read_manifest(dir)? else {
        return Ok(None);
    };
    let manifest = Manifest::decode(&bytes).ok_or_else(|| corrupt(dir))?;
    Ok((!manifest.meta.is_empty()).then(|| manifest.meta.to_vec()))
}

/// The second phase of a checkpoint: write `manifest`'s images in place,
/// cut every data file in `dir` to its recorded page count (a file the
/// manifest does not list to its whole pages), sync the files this touched
/// and, when there were images, install `manifest` again without them.
/// Idempotent. Returns the manifest's epoch.
pub fn apply(dir: &Path, manifest: &Manifest<'_>) -> Result<u64> {
    let page = PAGE_SIZE as u64;
    // Every file written or resized, synced before the images go.
    let mut touched: BTreeMap<u32, File> = BTreeMap::new();
    for image in &manifest.images {
        touch(&mut touched, dir, image.file)?.write_all_at(image.bytes, image.page_no * page)?;
    }
    for id in 0u32.. {
        let listed = manifest.pages.get(id as usize).copied();
        let len = match std::fs::metadata(path_for(dir, id)) {
            Ok(m) => m.len(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => match listed {
                Some(_) => 0,
                None => break,
            },
            Err(e) => return Err(e.into()),
        };
        let keep = listed.map_or(len / page, |pages| pages) * page;
        if len != keep {
            touch(&mut touched, dir, id)?.set_len(keep)?;
        }
    }
    for file in touched.values() {
        file.sync_all()?;
    }
    if !manifest.images.is_empty() {
        write_manifest(
            dir,
            &Manifest {
                images: Vec::new(),
                ..manifest.clone()
            },
        )?;
    }
    Ok(manifest.epoch)
}

/// Data file `id` of `dir`, opened for writing once per [`apply`].
fn touch<'t>(touched: &'t mut BTreeMap<u32, File>, dir: &Path, id: u32) -> Result<&'t File> {
    Ok(match touched.entry(id) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => e.insert(
            OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(path_for(dir, id))?,
        ),
    })
}

/// Finish whatever checkpoint `dir` last staged, and cut every data file
/// to its checkpointed length (see [`apply`]). Run when a directory is
/// opened. A directory without a manifest only loses partial last pages; a
/// manifest that does not decode is an error. Returns the epoch recovered
/// to (0 when there is no manifest).
pub fn recover(dir: &Path) -> Result<u64> {
    let bytes = read_manifest(dir)?;
    let manifest = match &bytes {
        None => Manifest::default(),
        Some(bytes) => Manifest::decode(bytes).ok_or_else(|| corrupt(dir))?,
    };
    apply(dir, &manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ingot-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn page_with(recs: &[&[u8]]) -> Page {
        let mut p = Page::new();
        for r in recs {
            p.insert_record(r).unwrap();
        }
        p
    }

    fn write_raw_pages(dir: &Path, id: u32, pages: &[&Page]) {
        let mut f = File::create(path_for(dir, id)).unwrap();
        for p in pages {
            f.write_all(p.bytes()).unwrap();
        }
    }

    fn file_bytes(dir: &Path, id: u32) -> Vec<u8> {
        std::fs::read(path_for(dir, id)).unwrap()
    }

    /// Every data file of `dir`, in id order.
    fn snapshot(dir: &Path) -> Vec<Vec<u8>> {
        (0u32..)
            .map_while(|id| std::fs::read(path_for(dir, id)).ok())
            .collect()
    }

    fn manifest<'a>(epoch: u64, pages: Vec<u64>, images: Vec<Image<'a>>) -> Manifest<'a> {
        Manifest {
            epoch,
            pages,
            meta: b"schema-blob",
            images,
        }
    }

    fn image(file: u32, page_no: u64, page: &Page) -> Image<'_> {
        Image {
            file,
            page_no,
            bytes: page.bytes(),
        }
    }

    /// A checkpointed directory: file 0 holds pages `a`, `b`, file 1 holds
    /// `c`, under an applied manifest of epoch 1.
    fn checkpointed(tag: &str, a: &Page, b: &Page, c: &Page) -> PathBuf {
        let dir = tmpdir(tag);
        write_raw_pages(&dir, 0, &[a, b]);
        write_raw_pages(&dir, 1, &[c]);
        write_manifest(&dir, &manifest(1, vec![2, 1], Vec::new())).unwrap();
        dir
    }

    #[test]
    fn manifest_roundtrip_and_corruption_detection() {
        let dir = tmpdir("manifest");
        let page = page_with(&[b"imaged"]);
        let staged = manifest(7, vec![3, 0], vec![image(0, 2, &page)]);
        write_manifest(&dir, &staged).unwrap();
        let bytes = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(Manifest::decode(&bytes), Some(staged));
        assert_eq!(
            manifest_meta(&dir).unwrap().as_deref(),
            Some(b"schema-blob".as_slice())
        );

        // Flip any one byte: the trailer must catch it.
        for at in [0, 10, 20, bytes.len() / 2, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0xFF;
            assert_eq!(Manifest::decode(&flipped), None, "byte {at}");
        }
        let path = dir.join(MANIFEST_NAME);
        let mut flipped = bytes.clone();
        flipped[10] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        assert!(manifest_meta(&dir).is_err());
        assert!(
            recover(&dir).is_err(),
            "a corrupt manifest is not guessed at"
        );
        // An image outside its file's recorded pages is refused too.
        let outside = manifest(7, vec![2, 0], vec![image(0, 2, &page)]).encode();
        assert_eq!(Manifest::decode(&outside), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_directory_recovers_unchanged() {
        let (a, b, c) = (page_with(&[b"a"]), page_with(&[b"b"]), page_with(&[b"c"]));
        let dir = checkpointed("clean", &a, &b, &c);
        let before = (snapshot(&dir), read_manifest(&dir).unwrap());
        assert_eq!(recover(&dir).unwrap(), 1);
        assert_eq!((snapshot(&dir), read_manifest(&dir).unwrap()), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_or_garbled_stage_keeps_the_previous_epoch() {
        let (a, b, c) = (page_with(&[b"a"]), page_with(&[b"b"]), page_with(&[b"c"]));
        let dir = checkpointed("stage", &a, &b, &c);
        let before = (snapshot(&dir), read_manifest(&dir).unwrap());
        let newer = page_with(&[b"epoch two"]);
        let staged = manifest(2, vec![2, 1], vec![image(0, 1, &newer)]).encode();
        // The crash cut the temp file short, or left it garbled, before the
        // rename: the installed manifest is still epoch 1.
        for tmp in [&staged[..staged.len() / 2], &[0x5A; 300][..]] {
            std::fs::write(dir.join(MANIFEST_TMP), tmp).unwrap();
            assert_eq!(recover(&dir).unwrap(), 1);
            assert_eq!((snapshot(&dir), read_manifest(&dir).unwrap()), before);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_partial_apply_is_redone() {
        let (a, b, c) = (page_with(&[b"a"]), page_with(&[b"b"]), page_with(&[b"c"]));
        let dir = checkpointed("partial", &a, &b, &c);
        let (a2, b2, c2) = (
            page_with(&[b"a2"]),
            page_with(&[b"b2"]),
            page_with(&[b"c2"]),
        );
        let d2 = page_with(&[b"d2, a page allocated since epoch 1"]);
        let images = vec![
            image(0, 0, &a2),
            image(0, 1, &b2),
            image(1, 0, &c2),
            image(1, 1, &d2),
        ];
        write_manifest(&dir, &manifest(2, vec![2, 2], images)).unwrap();
        // The crash: the first image landed, the second tore halfway, the
        // rest never started.
        let f = OpenOptions::new()
            .write(true)
            .open(path_for(&dir, 0))
            .unwrap();
        f.write_all_at(a2.bytes(), 0).unwrap();
        f.write_all_at(&b2.bytes()[..PAGE_SIZE / 2], PAGE_SIZE as u64)
            .unwrap();

        assert_eq!(recover(&dir).unwrap(), 2);
        assert_eq!(file_bytes(&dir, 0), [*a2.bytes(), *b2.bytes()].concat());
        assert_eq!(file_bytes(&dir, 1), [*c2.bytes(), *d2.bytes()].concat());
        // The images are gone from the manifest; the rest of it stays.
        let bytes = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(
            Manifest::decode(&bytes),
            Some(manifest(2, vec![2, 2], Vec::new()))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn applying_twice_equals_applying_once() {
        let (a, b, c) = (page_with(&[b"a"]), page_with(&[b"b"]), page_with(&[b"c"]));
        let dir = checkpointed("twice", &a, &b, &c);
        let b2 = page_with(&[b"b2"]);
        let staged = manifest(2, vec![2, 1], vec![image(0, 1, &b2)]);
        write_manifest(&dir, &staged).unwrap();
        assert_eq!(apply(&dir, &staged).unwrap(), 2);
        let after_once = (snapshot(&dir), read_manifest(&dir).unwrap());
        assert_eq!(apply(&dir, &staged).unwrap(), 2);
        assert_eq!((snapshot(&dir), read_manifest(&dir).unwrap()), after_once);
        assert_eq!(recover(&dir).unwrap(), 2);
        assert_eq!((snapshot(&dir), read_manifest(&dir).unwrap()), after_once);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_checkpoint() {
        let (a, b, c) = (page_with(&[b"a"]), page_with(&[b"b"]), page_with(&[b"c"]));
        let dir = checkpointed("torn", &a, &b, &c);
        let before = snapshot(&dir);
        // Since the checkpoint: a zeroed page allocated to file 0, and a
        // page that only half reached file 1.
        let mut f = OpenOptions::new()
            .append(true)
            .open(path_for(&dir, 0))
            .unwrap();
        f.write_all(&[0u8; PAGE_SIZE]).unwrap();
        let mut f = OpenOptions::new()
            .append(true)
            .open(path_for(&dir, 1))
            .unwrap();
        f.write_all(&page_with(&[b"lost"]).bytes()[..PAGE_SIZE / 4])
            .unwrap();

        assert_eq!(recover(&dir).unwrap(), 1);
        assert_eq!(snapshot(&dir), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_manifest_trims_only_partial_tail() {
        let dir = tmpdir("nomanifest");
        let x = page_with(&[b"x"]);
        write_raw_pages(&dir, 0, &[&x]);
        let mut f = OpenOptions::new()
            .append(true)
            .open(path_for(&dir, 0))
            .unwrap();
        f.write_all(&[1, 2, 3]).unwrap();
        assert_eq!(recover(&dir).unwrap(), 0);
        assert_eq!(file_bytes(&dir, 0), x.bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
