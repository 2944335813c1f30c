//! Crash states inside a real checkpoint, for the crash suites.
//!
//! A file-backed checkpoint stages an image of every page it writes in the
//! directory's manifest, writes the images in place, installs the manifest
//! again without them and only then truncates the log (see
//! `ingot_storage::recovery`). A test cannot stop `Engine::checkpoint`
//! between those writes, so [`Cut::run`] runs one whole with a power cut at
//! its last step, the log truncation, and keeps the directory's files from
//! just before the checkpoint and from the cut. Every earlier crash point
//! is a mix of the two: the log of the cut (it holds the synced
//! `Checkpoint` record), the staged manifest rebuilt from the cut's
//! manifest and the pages that changed, and each data page either as it
//! was before, as the checkpoint wrote it, or torn between the two.

#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::Path;

use ingot::prelude::*;
use ingot::storage::recovery::{Image, Manifest, MANIFEST_NAME};
use ingot::storage::{FaultEffect, FaultOp, PAGE_SIZE};

/// Every file of a directory, by name.
pub type Files = BTreeMap<String, Vec<u8>>;

/// Read every regular file of `dir`.
pub fn files(dir: &Path) -> Files {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_type().unwrap().is_file())
        .map(|e| {
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// The data files and the manifest: what recovery restores.
pub fn pages_and_manifest(dir: &Path) -> Files {
    let mut all = files(dir);
    all.retain(|name, _| name.ends_with(".dat") || name == MANIFEST_NAME);
    all
}

/// Page `page_no` of a data file's bytes.
fn page(file: &[u8], page_no: u64) -> &[u8] {
    let at = page_no as usize * PAGE_SIZE;
    &file[at..at + PAGE_SIZE]
}

/// Where a crash cuts the checkpoint.
#[derive(Debug, Clone, Copy)]
pub enum Point {
    /// Before the staged manifest's rename: the temp file holds this many
    /// of its bytes (0: never created).
    Staging(usize),
    /// After the rename: the first `k` images landed in place, the next
    /// one is torn halfway (when there is one), the rest never started.
    Applying(usize),
    /// Every image landed; the manifest still carries them.
    Applied,
}

/// One checkpoint run up to a power cut at its log truncation.
pub struct Cut {
    before: Files,
    after: Files,
}

impl Cut {
    /// Run `checkpoint` (which must end in `engine`'s `Engine::checkpoint`)
    /// over `dir` with a power cut at the log truncation, keeping the
    /// directory's files from before and after. The caller drops the
    /// engine afterwards.
    pub fn run(dir: &Path, engine: &Engine, checkpoint: impl FnOnce() -> Result<()>) -> Cut {
        let before = files(dir);
        engine.wal().set_fault_plan(FaultPlan::new().with_rule(
            FaultOp::WalTruncate,
            1,
            1,
            FaultEffect::Crash,
        ));
        let err = checkpoint().unwrap_err();
        assert!(err.to_string().contains("power cut"), "{err}");
        Cut {
            before,
            after: files(dir),
        }
    }

    /// The pages the checkpoint wrote in place, as `(file name, page)`:
    /// every page that differs from before (a rewritten page with the same
    /// bytes needs no redo).
    pub fn written(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (name, after) in self.after.iter().filter(|(n, _)| n.ends_with(".dat")) {
            let before = self.before.get(name).map_or(&[][..], Vec::as_slice);
            for (no, page) in after.chunks(PAGE_SIZE).enumerate() {
                if before.chunks(PAGE_SIZE).nth(no) != Some(page) {
                    out.push((name.clone(), no as u64));
                }
            }
        }
        out
    }

    /// The staged manifest the checkpoint installed before its in-place
    /// writes: the cut's manifest plus an image of every written page.
    pub fn staged(&self) -> Vec<u8> {
        let applied = Manifest::decode(&self.after[MANIFEST_NAME]).unwrap();
        assert!(applied.images.is_empty(), "the cut came after the apply");
        let images = self
            .written()
            .into_iter()
            .map(|(name, page_no)| Image {
                file: name["ingot_".len()..name.len() - ".dat".len()]
                    .parse()
                    .unwrap(),
                page_no,
                bytes: page(&self.after[&name], page_no).try_into().unwrap(),
            })
            .collect();
        Manifest { images, ..applied }.encode()
    }

    /// Fill the empty directory `dir` with what a crash at `point` leaves.
    pub fn crash_state(&self, dir: &Path, point: Point) {
        let staged = self.staged();
        // Before the rename nothing was written in place; after it, the
        // data files have the checkpoint's length and the page images of
        // before until the apply reaches them.
        let mut out = match point {
            Point::Staging(_) => self.before.clone(),
            Point::Applying(_) | Point::Applied => self.after.clone(),
        };
        for name in self.after.keys().filter(|n| !n.ends_with(".dat")) {
            out.insert(name.clone(), self.after[name].clone());
        }
        match point {
            Point::Staging(tmp) => {
                match self.before.get(MANIFEST_NAME) {
                    Some(m) => out.insert(MANIFEST_NAME.to_owned(), m.clone()),
                    None => out.remove(MANIFEST_NAME),
                };
                if tmp > 0 {
                    out.insert(format!("{MANIFEST_NAME}.tmp"), staged[..tmp].to_vec());
                }
            }
            Point::Applying(k) => {
                out.insert(MANIFEST_NAME.to_owned(), staged);
                for (i, (name, page_no)) in self.written().into_iter().enumerate().skip(k) {
                    let old = self
                        .before
                        .get(&name)
                        .and_then(|f| f.chunks(PAGE_SIZE).nth(page_no as usize))
                        .map_or_else(|| vec![0u8; PAGE_SIZE], <[u8]>::to_vec);
                    let at = page_no as usize * PAGE_SIZE;
                    let keep = if i == k { PAGE_SIZE / 2 } else { 0 };
                    let file = out.get_mut(&name).unwrap();
                    file[at + keep..at + PAGE_SIZE].copy_from_slice(&old[keep..]);
                }
            }
            Point::Applied => {
                out.insert(MANIFEST_NAME.to_owned(), staged);
            }
        }
        for (name, bytes) in out {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
    }
}
