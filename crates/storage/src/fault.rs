//! Deterministic fault injection for disk backends.
//!
//! [`FaultInjectingBackend`] wraps any [`DiskBackend`] and injects failures
//! according to a scriptable, seeded [`FaultPlan`]: transient or permanent
//! I/O errors, torn (partial) page writes and read corruption, each targeted
//! at the *n*-th operation of a kind. Plans are fully deterministic — the
//! same plan over the same operation sequence injects the same faults — so
//! robustness tests (the daemon's buffer → reopen → replay, workload-DB
//! recovery) are exact and replayable.
//!
//! ## Fault-plan grammar
//!
//! A plan is a `;`-separated list of rules:
//!
//! ```text
//! rule   := op '#' range '=' effect
//! op     := read | write | alloc | sync | wal_append | wal_fsync | wal_truncate
//! range  := N | N..M | N.. | '*'          (1-based op index, inclusive)
//! effect := transient | permanent | torn[:BYTES] | corrupt | crash
//! ```
//!
//! Example: `write#3..5=transient; write#9=torn:512; read#2=corrupt` fails
//! the 3rd–5th writes with retryable errors, silently truncates the 9th
//! write to its first 512 bytes (the rest becomes seeded garbage, like a
//! power cut mid-sector), and corrupts the 2nd read.
//!
//! The `wal_*` operations target the write-ahead log (see
//! [`crate::wal::Wal::set_fault_plan`]) and combine with the `crash` effect
//! into the scripted power-cut points the crash suite replays:
//!
//! * `wal_append#N=crash` — power cut at the *N*-th append: that record
//!   and everything not yet fsynced are lost (`crash_after_wal_append`).
//! * `wal_fsync#N=crash` — power cut mid-fsync: the barrier fails and the
//!   unsynced tail is lost (`crash_mid_fsync`).
//! * `wal_append#N=torn:K` — power cut mid-write: the first `K` bytes of
//!   the in-flight record survive as a torn tail (`torn_wal_tail`).
//! * `wal_truncate#N=crash` — power cut during post-checkpoint log
//!   truncation (`crash_during_checkpoint_truncate`).
//!
//! On a `wal_*` operation every effect is a power cut, because the log
//! fails one way: `transient`, `permanent`, `corrupt` and `crash` fail the
//! operation with a non-retryable error, drop everything not yet fsynced
//! and leave the log *dead* — every later WAL operation fails until the
//! simulated machine reboots (a new engine reopens the directory and
//! replays). `torn:K` on `wal_append` also leaves the first `K` bytes of
//! the record on the platter; on `wal_fsync` and `wal_truncate` it is a
//! plain power cut. A plan's `wal_*` indices count from when it is
//! installed.
//!
//! On page operations, `torn` is meaningful for writes and `corrupt` for
//! reads; either effect on another operation kind degrades to a transient
//! error so a malformed plan still fails loudly rather than silently
//! passing. `crash` on a page-level operation likewise degrades to a
//! transient error.

use std::sync::atomic::{AtomicU64, Ordering};

use ingot_common::{Error, Result, SplitMix64};
use parking_lot::Mutex;

use crate::disk::{DiskBackend, FileId};
use crate::page::{Page, PAGE_SIZE};

/// The operation kinds a fault rule can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// `read_page`.
    Read,
    /// `write_page`.
    Write,
    /// `allocate_page`.
    Alloc,
    /// `sync` / `checkpoint`.
    Sync,
    /// A WAL record append (see [`crate::wal::Wal`]).
    WalAppend,
    /// A WAL fsync (the commit durability barrier).
    WalFsync,
    /// A WAL truncation (the post-checkpoint log rewrite).
    WalTruncate,
}

impl FaultOp {
    fn parse(s: &str) -> Result<Self> {
        match s {
            "read" => Ok(FaultOp::Read),
            "write" => Ok(FaultOp::Write),
            "alloc" => Ok(FaultOp::Alloc),
            "sync" => Ok(FaultOp::Sync),
            "wal_append" => Ok(FaultOp::WalAppend),
            "wal_fsync" => Ok(FaultOp::WalFsync),
            "wal_truncate" => Ok(FaultOp::WalTruncate),
            other => Err(Error::storage(format!("fault plan: unknown op {other:?}"))),
        }
    }
}

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEffect {
    /// On a page operation, a retryable failure ([`Error::TransientIo`]):
    /// the operation is not performed but a later retry succeeds (unless
    /// covered by a rule). On a WAL operation, a power cut.
    Transient,
    /// On a page operation, a permanent failure ([`Error::Io`]): retrying
    /// is expected to keep failing, so callers should quarantine. On a WAL
    /// operation, a power cut.
    Permanent,
    /// A torn write: only the first `N` bytes reach the backend, the rest of
    /// the page becomes deterministic garbage — and the call reports
    /// *success*, like a real power-cut write. Detected only by recovery.
    /// On `wal_append`, a power cut that leaves the first `N` bytes of the
    /// record on the platter (the append fails); on the other WAL
    /// operations, a plain power cut.
    Torn(usize),
    /// Read corruption: the page is returned with seeded bit flips. On a
    /// WAL operation, a power cut.
    Corrupt,
    /// Simulated power cut at a WAL operation: the unsynced log tail is
    /// lost, the operation fails, and every later WAL operation keeps
    /// failing until the log is reopened ("reboot"). On page-level
    /// operations this degrades to a transient error.
    Crash,
}

/// One rule: inject `effect` on operations `from..=to` (1-based) of kind `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Operation kind the rule targets.
    pub op: FaultOp,
    /// First 1-based operation index the rule covers.
    pub from: u64,
    /// Last covered index (inclusive); `u64::MAX` for open-ended ranges.
    pub to: u64,
    /// Injected effect.
    pub effect: FaultEffect,
}

/// A scriptable fault plan: an ordered rule list plus the seed for torn/
/// corrupt garbage bytes. The first matching rule wins.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    /// Seed for deterministic garbage generation.
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse the fault-plan grammar (see module docs).
    pub fn parse(plan: &str) -> Result<Self> {
        let mut out = FaultPlan::new();
        for rule in plan.split(';') {
            let rule = rule.trim();
            if rule.is_empty() {
                continue;
            }
            let (lhs, effect) = rule
                .split_once('=')
                .ok_or_else(|| Error::storage(format!("fault plan: missing '=' in {rule:?}")))?;
            let (op, range) = lhs
                .trim()
                .split_once('#')
                .ok_or_else(|| Error::storage(format!("fault plan: missing '#' in {rule:?}")))?;
            let op = FaultOp::parse(op.trim())?;
            let (from, to) = Self::parse_range(range.trim())?;
            let effect = Self::parse_effect(effect.trim())?;
            out.rules.push(FaultRule {
                op,
                from,
                to,
                effect,
            });
        }
        Ok(out)
    }

    fn parse_range(range: &str) -> Result<(u64, u64)> {
        if range == "*" {
            return Ok((1, u64::MAX));
        }
        let bad = || Error::storage(format!("fault plan: bad range {range:?}"));
        if let Some((a, b)) = range.split_once("..") {
            let from: u64 = a.trim().parse().map_err(|_| bad())?;
            let to = if b.trim().is_empty() {
                u64::MAX
            } else {
                b.trim().parse().map_err(|_| bad())?
            };
            if from == 0 || to < from {
                return Err(bad());
            }
            Ok((from, to))
        } else {
            let n: u64 = range.parse().map_err(|_| bad())?;
            if n == 0 {
                return Err(bad());
            }
            Ok((n, n))
        }
    }

    fn parse_effect(effect: &str) -> Result<FaultEffect> {
        match effect {
            "transient" => Ok(FaultEffect::Transient),
            "permanent" => Ok(FaultEffect::Permanent),
            "corrupt" => Ok(FaultEffect::Corrupt),
            "crash" => Ok(FaultEffect::Crash),
            "torn" => Ok(FaultEffect::Torn(PAGE_SIZE / 2)),
            other => {
                if let Some(bytes) = other.strip_prefix("torn:") {
                    let n: usize = bytes.trim().parse().map_err(|_| {
                        Error::storage(format!("fault plan: bad torn byte count {bytes:?}"))
                    })?;
                    Ok(FaultEffect::Torn(n.min(PAGE_SIZE)))
                } else {
                    Err(Error::storage(format!(
                        "fault plan: unknown effect {other:?}"
                    )))
                }
            }
        }
    }

    /// Add a rule (builder form, for tests that prefer code over strings).
    pub fn with_rule(mut self, op: FaultOp, from: u64, to: u64, effect: FaultEffect) -> Self {
        self.rules.push(FaultRule {
            op,
            from,
            to,
            effect,
        });
        self
    }

    /// The effect covering the `n`-th (1-based) operation of kind `op`.
    pub fn effect_for(&self, op: FaultOp, n: u64) -> Option<FaultEffect> {
        self.rules
            .iter()
            .find(|r| r.op == op && r.from <= n && n <= r.to)
            .map(|r| r.effect)
    }

    /// The configured rules.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }
}

/// Injection counters, for test assertions and overhead accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total reads observed (faulted or not).
    pub reads: u64,
    /// Total writes observed.
    pub writes: u64,
    /// Total page allocations observed.
    pub allocs: u64,
    /// Total sync/checkpoint calls observed.
    pub syncs: u64,
    /// Transient errors injected.
    pub injected_transient: u64,
    /// Permanent errors injected.
    pub injected_permanent: u64,
    /// Torn writes injected.
    pub injected_torn: u64,
    /// Corrupted reads injected.
    pub injected_corrupt: u64,
    /// Simulated power cuts injected.
    pub injected_crash: u64,
}

#[derive(Default)]
struct Counters {
    reads: AtomicU64,
    writes: AtomicU64,
    allocs: AtomicU64,
    syncs: AtomicU64,
    injected_transient: AtomicU64,
    injected_permanent: AtomicU64,
    injected_torn: AtomicU64,
    injected_corrupt: AtomicU64,
    injected_crash: AtomicU64,
}

/// A [`DiskBackend`] decorator injecting faults per a [`FaultPlan`].
///
/// Op indices are global per operation kind (not per file), 1-based, and
/// only advance for operations the plan could observe — making "fail the
/// 3rd write" well-defined regardless of which file it lands in.
pub struct FaultInjectingBackend {
    inner: Box<dyn DiskBackend>,
    plan: Mutex<FaultPlan>,
    counters: Counters,
}

impl FaultInjectingBackend {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: Box<dyn DiskBackend>, plan: FaultPlan) -> Self {
        FaultInjectingBackend {
            inner,
            plan: Mutex::new(plan),
            counters: Counters::default(),
        }
    }

    /// Wrap `inner` with a plan parsed from the grammar.
    pub fn from_script(inner: Box<dyn DiskBackend>, script: &str) -> Result<Self> {
        Ok(Self::new(inner, FaultPlan::parse(script)?))
    }

    /// Replace the active plan (e.g. to heal a backend mid-test).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock() = plan;
    }

    /// Snapshot of operation / injection counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            reads: self.counters.reads.load(Ordering::Relaxed),
            writes: self.counters.writes.load(Ordering::Relaxed),
            allocs: self.counters.allocs.load(Ordering::Relaxed),
            syncs: self.counters.syncs.load(Ordering::Relaxed),
            injected_transient: self.counters.injected_transient.load(Ordering::Relaxed),
            injected_permanent: self.counters.injected_permanent.load(Ordering::Relaxed),
            injected_torn: self.counters.injected_torn.load(Ordering::Relaxed),
            injected_corrupt: self.counters.injected_corrupt.load(Ordering::Relaxed),
            injected_crash: self.counters.injected_crash.load(Ordering::Relaxed),
        }
    }

    /// Count one `op`, returning its 1-based index and the effect (if any).
    fn observe(&self, op: FaultOp) -> (u64, Option<FaultEffect>) {
        let counter = match op {
            FaultOp::Read => &self.counters.reads,
            FaultOp::Write => &self.counters.writes,
            FaultOp::Alloc => &self.counters.allocs,
            // The WAL counts its own operations; none reaches a page backend.
            FaultOp::Sync | FaultOp::WalAppend | FaultOp::WalFsync | FaultOp::WalTruncate => {
                &self.counters.syncs
            }
        };
        let n = counter.fetch_add(1, Ordering::Relaxed) + 1;
        let effect = self.plan.lock().effect_for(op, n);
        if let Some(e) = effect {
            let injected = match e {
                FaultEffect::Transient => &self.counters.injected_transient,
                FaultEffect::Permanent => &self.counters.injected_permanent,
                FaultEffect::Torn(_) => &self.counters.injected_torn,
                FaultEffect::Corrupt => &self.counters.injected_corrupt,
                FaultEffect::Crash => &self.counters.injected_crash,
            };
            injected.fetch_add(1, Ordering::Relaxed);
        }
        (n, effect)
    }

    fn garbage(&self, n: u64, buf: &mut [u8]) {
        let seed = self.plan.lock().seed;
        let mut rng = SplitMix64::new(seed ^ n.rotate_left(17));
        for chunk in buf.chunks_mut(8) {
            let bytes = rng.next_u64().to_le_bytes();
            for (dst, src) in chunk.iter_mut().zip(bytes) {
                *dst = src;
            }
        }
    }

    /// Count one page write and apply its effect: `Ok(None)` writes `page`
    /// as it is, `Ok(Some(torn))` writes a torn copy and reports success
    /// (only a reader of the page finds out), an error fails the write.
    fn observe_write(&self, page: &Page) -> Result<Option<Page>> {
        let (n, effect) = self.observe(FaultOp::Write);
        match effect {
            None => Ok(None),
            Some(FaultEffect::Transient | FaultEffect::Corrupt | FaultEffect::Crash) => {
                Err(Self::transient("write", n))
            }
            Some(FaultEffect::Permanent) => Err(Self::permanent("write", n)),
            Some(FaultEffect::Torn(valid)) => {
                let valid = valid.min(PAGE_SIZE);
                let mut torn = Page::from_bytes(*page.bytes());
                if let Some(tail) = torn.bytes_mut().get_mut(valid..) {
                    self.garbage(n, tail);
                }
                Ok(Some(torn))
            }
        }
    }

    /// Count one sync of `op` and fail it when the plan says so.
    fn observe_sync(&self, op: &str) -> Result<()> {
        let (n, effect) = self.observe(FaultOp::Sync);
        match effect {
            None => Ok(()),
            Some(FaultEffect::Permanent) => Err(Self::permanent(op, n)),
            Some(_) => Err(Self::transient(op, n)),
        }
    }

    fn transient(op: &str, n: u64) -> Error {
        Error::transient_io(format!("injected transient fault on {op} #{n}"))
    }

    fn permanent(op: &str, n: u64) -> Error {
        Error::Io(format!("injected permanent fault on {op} #{n}"))
    }
}

impl DiskBackend for FaultInjectingBackend {
    fn create_file(&self) -> Result<FileId> {
        self.inner.create_file()
    }

    fn read_page(&self, file: FileId, page_no: u64) -> Result<Page> {
        let (n, effect) = self.observe(FaultOp::Read);
        match effect {
            None => self.inner.read_page(file, page_no),
            Some(FaultEffect::Transient | FaultEffect::Torn(_) | FaultEffect::Crash) => {
                Err(Self::transient("read", n))
            }
            Some(FaultEffect::Permanent) => Err(Self::permanent("read", n)),
            Some(FaultEffect::Corrupt) => {
                let mut page = self.inner.read_page(file, page_no)?;
                // Scramble the back half so headers *and* data are suspect.
                let bytes = page.bytes_mut();
                let mut garbage = [0u8; PAGE_SIZE / 2];
                self.garbage(n, &mut garbage);
                if let Some(tail) = bytes.get_mut(PAGE_SIZE / 2..) {
                    tail.copy_from_slice(&garbage);
                }
                Ok(page)
            }
        }
    }

    fn write_page(&self, file: FileId, page_no: u64, page: &Page) -> Result<()> {
        let torn = self.observe_write(page)?;
        self.inner
            .write_page(file, page_no, torn.as_ref().unwrap_or(page))
    }

    fn allocate_page(&self, file: FileId) -> Result<u64> {
        let (n, effect) = self.observe(FaultOp::Alloc);
        match effect {
            None => self.inner.allocate_page(file),
            Some(FaultEffect::Permanent) => Err(Self::permanent("alloc", n)),
            Some(_) => Err(Self::transient("alloc", n)),
        }
    }

    fn file_pages(&self, file: FileId) -> u64 {
        self.inner.file_pages(file)
    }

    fn file_count(&self) -> u32 {
        self.inner.file_count()
    }

    fn sync(&self) -> Result<()> {
        self.observe_sync("sync")?;
        self.inner.sync()
    }

    /// Every page through the write fault point, then one sync fault point
    /// for the checkpoint, then the inner backend's own checkpoint, so a
    /// wrapped [`crate::disk::FileBackend`] still stages its images. A
    /// faulted page fails the checkpoint before the inner backend sees any.
    fn checkpoint(&self, pages: &[(FileId, u64, &Page)], meta: &[u8]) -> Result<u64> {
        let torn = pages
            .iter()
            .map(|&(_, _, page)| self.observe_write(page))
            .collect::<Result<Vec<_>>>()?;
        self.observe_sync("checkpoint")?;
        let pages: Vec<(FileId, u64, &Page)> = pages
            .iter()
            .zip(&torn)
            .map(|(&(file, page_no, page), torn)| (file, page_no, torn.as_ref().unwrap_or(page)))
            .collect();
        self.inner.checkpoint(&pages, meta)
    }

    fn checkpoint_meta(&self) -> Result<Option<Vec<u8>>> {
        self.inner.checkpoint_meta()
    }

    fn checkpoint_epoch(&self) -> u64 {
        self.inner.checkpoint_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemoryBackend;

    fn wrapped(script: &str) -> FaultInjectingBackend {
        FaultInjectingBackend::from_script(Box::new(MemoryBackend::new()), script).unwrap()
    }

    #[test]
    fn plan_grammar_roundtrip() {
        let p = FaultPlan::parse("write#3..5=transient; write#9=torn:512; read#2=corrupt").unwrap();
        assert_eq!(p.rules().len(), 3);
        assert_eq!(
            p.effect_for(FaultOp::Write, 3),
            Some(FaultEffect::Transient)
        );
        assert_eq!(
            p.effect_for(FaultOp::Write, 5),
            Some(FaultEffect::Transient)
        );
        assert_eq!(p.effect_for(FaultOp::Write, 6), None);
        assert_eq!(
            p.effect_for(FaultOp::Write, 9),
            Some(FaultEffect::Torn(512))
        );
        assert_eq!(p.effect_for(FaultOp::Read, 2), Some(FaultEffect::Corrupt));
        assert_eq!(p.effect_for(FaultOp::Read, 1), None);

        assert!(FaultPlan::parse("write#0=transient").is_err());
        assert!(FaultPlan::parse("write#5..3=transient").is_err());
        assert!(FaultPlan::parse("scribble#1=transient").is_err());
        assert!(FaultPlan::parse("write#1=explode").is_err());
        let open = FaultPlan::parse("sync#4..=permanent; alloc#*=transient").unwrap();
        assert_eq!(
            open.effect_for(FaultOp::Sync, 1 << 40),
            Some(FaultEffect::Permanent)
        );
        assert_eq!(
            open.effect_for(FaultOp::Alloc, 1),
            Some(FaultEffect::Transient)
        );
    }

    #[test]
    fn wal_ops_and_crash_effect_parse() {
        let p = FaultPlan::parse(
            "wal_append#2=crash; wal_fsync#1=crash; wal_truncate#*=crash; wal_append#3=torn:7",
        )
        .unwrap();
        assert_eq!(
            p.effect_for(FaultOp::WalAppend, 2),
            Some(FaultEffect::Crash)
        );
        assert_eq!(p.effect_for(FaultOp::WalFsync, 1), Some(FaultEffect::Crash));
        assert_eq!(
            p.effect_for(FaultOp::WalTruncate, 9),
            Some(FaultEffect::Crash)
        );
        assert_eq!(
            p.effect_for(FaultOp::WalAppend, 3),
            Some(FaultEffect::Torn(7))
        );
        assert_eq!(p.effect_for(FaultOp::WalAppend, 1), None);
    }

    #[test]
    fn crash_on_page_ops_degrades_to_transient() {
        let b = wrapped("write#1=crash");
        let f = b.create_file().unwrap();
        let p0 = b.allocate_page(f).unwrap();
        let err = b.write_page(f, p0, &Page::new()).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(b.stats().injected_crash, 1);
    }

    #[test]
    fn nth_write_fails_transiently_then_heals() {
        let b = wrapped("write#2=transient");
        let f = b.create_file().unwrap();
        let p0 = b.allocate_page(f).unwrap();
        let page = Page::new();
        b.write_page(f, p0, &page).unwrap(); // write #1: ok
        let err = b.write_page(f, p0, &page).unwrap_err(); // write #2: injected
        assert!(err.is_transient());
        b.write_page(f, p0, &page).unwrap(); // write #3: healed
        let s = b.stats();
        assert_eq!((s.writes, s.injected_transient), (3, 1));
    }

    #[test]
    fn permanent_faults_are_not_transient() {
        let b = wrapped("write#*=permanent");
        let f = b.create_file().unwrap();
        let p0 = b.allocate_page(f).unwrap();
        let err = b.write_page(f, p0, &Page::new()).unwrap_err();
        assert!(!err.is_transient());
    }

    #[test]
    fn torn_write_reports_success_but_scrambles_tail() {
        let b = wrapped("write#1=torn:32");
        let f = b.create_file().unwrap();
        let p0 = b.allocate_page(f).unwrap();
        let mut page = Page::new();
        page.insert_record(b"will-be-lost").unwrap();
        b.write_page(f, p0, &page).unwrap(); // lies about success
        let back = b.read_page(f, p0).unwrap();
        assert_eq!(&back.bytes()[..32], &page.bytes()[..32]);
        assert_ne!(&back.bytes()[32..], &page.bytes()[32..]);
        assert_eq!(b.stats().injected_torn, 1);
    }

    #[test]
    fn a_wrapped_file_backend_still_stages_its_checkpoints() {
        let dir = std::env::temp_dir().join(format!("ingot-fault-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file = crate::disk::FileBackend::open(dir.clone()).unwrap();
        let b = FaultInjectingBackend::from_script(Box::new(file), "write#2=transient").unwrap();
        let f = b.create_file().unwrap();
        let p0 = b.allocate_page(f).unwrap();
        let mut page = Page::new();
        page.insert_record(b"checkpointed").unwrap();
        // Write #2 fails the checkpoint before the inner backend sees it.
        b.checkpoint(&[(f, p0, &page)], b"one").unwrap();
        assert!(b.checkpoint(&[(f, p0, &page)], b"two").is_err());
        assert_eq!(b.checkpoint_epoch(), 1);
        assert_eq!(b.checkpoint_meta().unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(b.checkpoint(&[(f, p0, &page)], b"three").unwrap(), 2);
        let s = b.stats();
        assert_eq!((s.writes, s.syncs, s.injected_transient), (3, 2, 1));
        drop(b);
        let reopened = crate::disk::FileBackend::open(dir.clone()).unwrap();
        assert_eq!(reopened.checkpoint_epoch(), 2);
        assert_eq!(
            reopened.read_page(f, p0).unwrap().record(0).unwrap(),
            b"checkpointed"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_read_is_deterministic() {
        let run = || {
            let b = wrapped("read#1..=corrupt");
            let f = b.create_file().unwrap();
            let p0 = b.allocate_page(f).unwrap();
            b.write_page(f, p0, &Page::new()).unwrap();
            *b.read_page(f, p0).unwrap().bytes()
        };
        let a = run();
        let b = run();
        assert_eq!(
            a[..],
            b[..],
            "same plan + same ops must corrupt identically"
        );
        assert_ne!(a[PAGE_SIZE / 2..], Page::new().bytes()[PAGE_SIZE / 2..]);
    }

    #[test]
    fn healing_via_set_plan() {
        let b = wrapped("write#*=transient");
        let f = b.create_file().unwrap();
        let p0 = b.allocate_page(f).unwrap();
        assert!(b.write_page(f, p0, &Page::new()).is_err());
        b.set_plan(FaultPlan::new());
        assert!(b.write_page(f, p0, &Page::new()).is_ok());
    }
}
