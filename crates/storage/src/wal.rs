//! Write-ahead log with group commit.
//!
//! The WAL closes the durability gap left by checkpoint-only recovery: a
//! commit is acknowledged only after its log records are on stable storage
//! (the *durability barrier*), so a crash between checkpoints loses nothing
//! that was acknowledged. Recovery becomes checkpoint-load + replay of the
//! committed suffix (see `ingot-core`); checkpointing is demoted to log
//! truncation behind a safe low-water LSN.
//!
//! ## Record format
//!
//! The log is a flat sequence of length-prefixed, checksummed frames:
//!
//! ```text
//! frame   := len:u32le  crc:u64le  payload[len]
//! payload := kind:u8  lsn:u64le  fields...
//! ```
//!
//! `crc` is the FNV-1a-64 of the payload. LSNs start at 1 and are strictly
//! monotonically increasing; a frame whose LSN does not exceed its
//! predecessor's, whose checksum mismatches, or which is cut short
//! terminates the valid prefix — everything after it is a torn tail from a
//! power cut and is discarded on open (salvage-or-reject, like the page
//! store's manifest recovery).
//!
//! ## Durability model
//!
//! Appends are buffered in the process: each encodes its frame into the
//! log's *tail* buffer, with no syscall. A barrier hands the whole tail to
//! the file with one write, then fsyncs; bytes become durable only at the
//! `synced_len` watermark that fsync advances. `Off` mode writes the tail
//! at commit without a sync; a tail of `TAIL_SPILL` bytes is written at the
//! next append; a drop writes nothing, since every commit, DDL and
//! checkpoint has already passed its own barrier. The in-memory log has no
//! file and keeps no bytes: its tail is dropped where a file would be
//! written, and durability is the watermark alone.
//!
//! The log fails one way. Every failed operation — a real I/O error from
//! the reservation, the tail write, the fsync, the truncation or the
//! checkpoint rewrite's sync, or any injected fault but `torn` — is a power
//! cut: the tail is dropped, the file is cut back to `synced_len`, and the
//! log is *dead* until a new `Wal` reopens the directory ("reboot"). A
//! failed barrier may have written the `Commit` of a committer that is
//! about to be told it failed; since nothing after the failure reaches the
//! file, no later barrier can make that commit durable.
//!
//! The file keeps a *reserved tail*: it is zero-filled
//! [`RESERVE_STEP`] bytes at a time ahead of the log's end, and each step is
//! made durable with one full `sync_all` before any frame lands in it. An
//! append below the reservation therefore changes neither the file's size
//! nor its block map — only data — so the commit barrier is `sync_data`
//! (`fdatasync`), which on such a write is as complete a barrier as
//! `fsync` while skipping the filesystem journal commit a growing file
//! costs. Paths that change the size (checkpoint rewrite, salvage and
//! torn-tail truncation) keep `sync_all`. The zero tail is harmless to
//! salvage: an all-zero frame header never decodes (its checksum would have
//! to be `fnv1a64(&[])`, which is not 0), so it ends the valid prefix like
//! any torn tail, and only its non-zero bytes count as discarded.
//!
//! ## Group commit
//!
//! [`GroupCommit`] implements the classic leader/follower protocol: the
//! first committer to find no fsync in flight becomes leader, gathers until
//! as many committers are present as when the previous group's barrier
//! returned (for at most `group_commit_window` in total), then issues one
//! barrier covering every LSN appended so far. Followers block on a condvar
//! and are released when the batch's fsync completes. A lone committer on
//! an idle engine never waits; right after a group it waits at most one
//! window, once. The two waits are booked apart: the leader's gather as
//! `GroupCommitDally`, a follower's time behind an fsync in flight as
//! `GroupCommitFollow`. Timeouts (never bare waits) make the protocol live
//! even if a leader errors out: a follower that wakes to `syncing == false`
//! with its LSN still undurable simply becomes the next leader.

use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ingot_common::waits::{WaitEvent, WaitGuard, WaitRegistry, WaitRegistryHandle};
use ingot_common::{fnv1a64, EngineConfig, Error, MonotonicClock, Result, TxnId, WalFsyncMode};
use parking_lot::Mutex;

#[cfg(loom)]
use loom::sync::{Condvar as GcCondvar, Mutex as GcMutex};
#[cfg(not(loom))]
use parking_lot::{Condvar as GcCondvar, Mutex as GcMutex};

use crate::fault::{FaultEffect, FaultOp, FaultPlan};

/// Log sequence number: position of a record in the WAL's total order.
/// LSN 0 is the "nothing" sentinel; real records start at 1.
pub type Lsn = u64;

/// Name of the log file inside a database directory. Deliberately outside
/// the `ingot_NNNN.dat` page-file namespace so manifest recovery ignores it.
pub const WAL_FILE: &str = "ingot.wal";

const KIND_BEGIN: u8 = 1;
const KIND_INSERT: u8 = 2;
const KIND_DELETE: u8 = 3;
const KIND_UPDATE: u8 = 4;
const KIND_COMMIT: u8 = 5;
const KIND_ABORT: u8 = 6;
const KIND_CHECKPOINT: u8 = 7;
const KIND_DDL: u8 = 8;

/// Frame header bytes: `len:u32 + crc:u64`.
const FRAME_HEADER: usize = 4 + 8;

/// How far the file sink zero-fills ahead of the log's end at a time.
/// Larger steps buy fewer `sync_all`s at the price of setup time and disk
/// footprint: every fresh log (and every checkpoint rewrite) pays one step.
pub const RESERVE_STEP: u64 = 64 * 1024;

/// Tail bytes at which the next append writes the tail out without waiting
/// for a barrier, so a long transaction's log does not pile up in the
/// process.
const TAIL_SPILL: usize = RESERVE_STEP as usize;

/// The zero-fill source for [`RESERVE_STEP`]: static, so reserving costs no
/// heap and the untouched pages stay shared.
static ZEROS: [u8; RESERVE_STEP as usize] = [0; RESERVE_STEP as usize];

/// One logical WAL record. Row images are stored pre-encoded (the
/// [`crate::codec`] row codec) so the log is self-contained at the storage
/// layer; tables are named by string, and a replayed CREATE takes its old id
/// from the checkpoint's counter — borrowed where the appender has the name at
/// hand (`'a`), owned (`'static`) when decoded from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord<'a> {
    /// Transaction `txn` performed its first mutation.
    Begin {
        /// The transaction id.
        txn: TxnId,
    },
    /// `txn` inserted `row` (encoded) into `table`.
    Insert {
        /// The mutating transaction.
        txn: TxnId,
        /// Target table name.
        table: Cow<'a, str>,
        /// Encoded row image.
        row: Vec<u8>,
    },
    /// `txn` deleted the row whose encoded image is `old` from `table`.
    Delete {
        /// The mutating transaction.
        txn: TxnId,
        /// Target table name.
        table: Cow<'a, str>,
        /// Encoded image of the deleted row.
        old: Vec<u8>,
    },
    /// `txn` replaced `old` with `new` in `table`.
    Update {
        /// The mutating transaction.
        txn: TxnId,
        /// Target table name.
        table: Cow<'a, str>,
        /// Encoded pre-image.
        old: Vec<u8>,
        /// Encoded post-image.
        new: Vec<u8>,
    },
    /// `txn` committed: every earlier record of `txn` must be redone.
    Commit {
        /// The committing transaction.
        txn: TxnId,
        /// The MVCC commit timestamp its versions were stamped with; replay
        /// reconstructs version chains with the same timestamps so
        /// post-recovery snapshots agree with pre-crash ones.
        commit_ts: u64,
    },
    /// `txn` aborted: its records are discarded by replay.
    Abort {
        /// The aborting transaction.
        txn: TxnId,
    },
    /// A checkpoint installed manifest epoch `epoch`: everything at or
    /// below this record's LSN is reflected in the page store. Replay
    /// starts after the last checkpoint whose epoch the manifest reached.
    Checkpoint {
        /// The manifest epoch the checkpoint installed.
        epoch: u64,
    },
    /// A schema change, replayed by re-executing the statement.
    Ddl {
        /// The original DDL statement text.
        sql: String,
    },
}

/// A decoded record together with its LSN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// The decoded record.
    pub record: WalRecord<'static>,
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Checked fixed-size copy (same idiom as the row codec): a wrong-length
/// slice becomes an error where `try_into().unwrap()` would panic.
fn arr<const N: usize>(s: &[u8]) -> Result<[u8; N]> {
    s.try_into()
        .map_err(|_| Error::storage("truncated wal record"))
}

impl WalRecord<'_> {
    /// Append this record's frame (header + payload) at `lsn` to `out`: a
    /// zeroed header, the payload, then `len` and `crc` patched in place, so
    /// encoding allocates nothing beyond `out`'s own growth.
    fn encode_into(&self, lsn: Lsn, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; FRAME_HEADER]);
        match self {
            WalRecord::Begin { txn } => {
                out.push(KIND_BEGIN);
                out.extend_from_slice(&lsn.to_le_bytes());
                out.extend_from_slice(&txn.raw().to_le_bytes());
            }
            WalRecord::Insert { txn, table, row } => {
                out.push(KIND_INSERT);
                out.extend_from_slice(&lsn.to_le_bytes());
                out.extend_from_slice(&txn.raw().to_le_bytes());
                put_str(out, table);
                put_bytes(out, row);
            }
            WalRecord::Delete { txn, table, old } => {
                out.push(KIND_DELETE);
                out.extend_from_slice(&lsn.to_le_bytes());
                out.extend_from_slice(&txn.raw().to_le_bytes());
                put_str(out, table);
                put_bytes(out, old);
            }
            WalRecord::Update {
                txn,
                table,
                old,
                new,
            } => {
                out.push(KIND_UPDATE);
                out.extend_from_slice(&lsn.to_le_bytes());
                out.extend_from_slice(&txn.raw().to_le_bytes());
                put_str(out, table);
                put_bytes(out, old);
                put_bytes(out, new);
            }
            WalRecord::Commit { txn, commit_ts } => {
                out.push(KIND_COMMIT);
                out.extend_from_slice(&lsn.to_le_bytes());
                out.extend_from_slice(&txn.raw().to_le_bytes());
                out.extend_from_slice(&commit_ts.to_le_bytes());
            }
            WalRecord::Abort { txn } => {
                out.push(KIND_ABORT);
                out.extend_from_slice(&lsn.to_le_bytes());
                out.extend_from_slice(&txn.raw().to_le_bytes());
            }
            WalRecord::Checkpoint { epoch } => {
                out.push(KIND_CHECKPOINT);
                out.extend_from_slice(&lsn.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            WalRecord::Ddl { sql } => {
                out.push(KIND_DDL);
                out.extend_from_slice(&lsn.to_le_bytes());
                put_str(out, sql);
            }
        }
        let len = (out.len() - start - FRAME_HEADER) as u32;
        let crc = out.get(start + FRAME_HEADER..).map_or(0, fnv1a64);
        if let Some(head) = out.get_mut(start..start + FRAME_HEADER) {
            let (len_field, crc_field) = head.split_at_mut(4);
            len_field.copy_from_slice(&len.to_le_bytes());
            crc_field.copy_from_slice(&crc.to_le_bytes());
        }
    }

    /// Decode one payload (header already validated). Rejects trailing
    /// garbage: the payload must be consumed exactly.
    fn decode_payload(payload: &[u8]) -> Result<WalEntry> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            match payload.get(*pos..(*pos).saturating_add(n)) {
                Some(s) => {
                    *pos += n;
                    Ok(s)
                }
                None => Err(Error::storage("truncated wal record")),
            }
        };
        let kind = match take(&mut pos, 1)? {
            &[k] => k,
            _ => return Err(Error::storage("truncated wal record")),
        };
        let lsn = u64::from_le_bytes(arr(take(&mut pos, 8)?)?);
        let take_u64 =
            |pos: &mut usize| -> Result<u64> { Ok(u64::from_le_bytes(arr(take(pos, 8)?)?)) };
        let take_blob = |pos: &mut usize| -> Result<Vec<u8>> {
            let len = u32::from_le_bytes(arr(take(pos, 4)?)?) as usize;
            Ok(take(pos, len)?.to_vec())
        };
        let take_str = |pos: &mut usize| -> Result<String> {
            let raw = take_blob(pos)?;
            String::from_utf8(raw).map_err(|_| Error::storage("invalid utf8 in wal record"))
        };
        let record = match kind {
            KIND_BEGIN => WalRecord::Begin {
                txn: TxnId(take_u64(&mut pos)?),
            },
            KIND_INSERT => WalRecord::Insert {
                txn: TxnId(take_u64(&mut pos)?),
                table: take_str(&mut pos)?.into(),
                row: take_blob(&mut pos)?,
            },
            KIND_DELETE => WalRecord::Delete {
                txn: TxnId(take_u64(&mut pos)?),
                table: take_str(&mut pos)?.into(),
                old: take_blob(&mut pos)?,
            },
            KIND_UPDATE => WalRecord::Update {
                txn: TxnId(take_u64(&mut pos)?),
                table: take_str(&mut pos)?.into(),
                old: take_blob(&mut pos)?,
                new: take_blob(&mut pos)?,
            },
            KIND_COMMIT => WalRecord::Commit {
                txn: TxnId(take_u64(&mut pos)?),
                commit_ts: take_u64(&mut pos)?,
            },
            KIND_ABORT => WalRecord::Abort {
                txn: TxnId(take_u64(&mut pos)?),
            },
            KIND_CHECKPOINT => WalRecord::Checkpoint {
                epoch: take_u64(&mut pos)?,
            },
            KIND_DDL => WalRecord::Ddl {
                sql: take_str(&mut pos)?,
            },
            k => return Err(Error::storage(format!("unknown wal record kind {k}"))),
        };
        if pos != payload.len() {
            return Err(Error::storage("trailing bytes in wal record"));
        }
        Ok(WalEntry { lsn, record })
    }
}

/// Mutable log state, guarded by one mutex. Appends encode into `tail`;
/// a barrier writes the tail under the lock, syncs outside it, then
/// advances the watermarks. Every write to the file happens under this lock
/// at `len - tail.len()`, so the log's bytes land in order.
struct WalState {
    /// The log file, shared by handle so fsync can run outside the state
    /// lock while appends continue. `None` for the in-memory log.
    file: Option<Arc<File>>,
    /// Logical end of log: every byte appended, written or not.
    len: u64,
    /// Frames appended but not yet written; they end at `len`. Cleared,
    /// never shrunk, when written, so its capacity is reused.
    tail: Vec<u8>,
    /// Bytes known durable (advanced only by fsync).
    synced_len: u64,
    /// The file's length — zero-filled past `len`, with that size made
    /// durable by the step's `sync_all` (`len <= reserved`). Unused by the
    /// in-memory log.
    reserved: u64,
    /// Next LSN to assign.
    next_lsn: Lsn,
    /// Highest LSN covered by a completed durability barrier.
    durable_lsn: Lsn,
    /// LSN of the newest checkpoint record (truncation low-water mark).
    low_water: Lsn,
}

impl WalState {
    /// Encode `record` at `lsn` onto the tail; returns its frame length. A
    /// frame that would cross the file's reservation first reserves the
    /// next step(s); that `sync_all` is device wait, charged to `waits` as
    /// `WalFsync`.
    fn push(
        &mut self,
        record: &WalRecord<'_>,
        lsn: Lsn,
        waits: Option<&Arc<WaitRegistry>>,
    ) -> Result<u64> {
        let start = self.tail.len();
        record.encode_into(lsn, &mut self.tail);
        let frame = (self.tail.len() - start) as u64;
        self.len += frame;
        if let Some(file) = &self.file {
            if self.len > self.reserved {
                self.reserved = reserve(file, self.reserved, self.len, waits)?;
            }
        }
        Ok(frame)
    }

    /// Write the tail to the file with one write at its offset (the
    /// in-memory log drops it).
    fn flush(&mut self) -> Result<()> {
        if let Some(file) = &self.file {
            let at = self.len - self.tail.len() as u64;
            file.write_all_at(&self.tail, at)
                .map_err(|e| Error::Io(format!("wal write: {e}")))?;
        }
        self.tail.clear();
        Ok(())
    }

    /// Cut the log back to `to` bytes, the tail included.
    fn truncate(&mut self, to: u64) -> Result<()> {
        self.tail.clear();
        self.len = to;
        self.synced_len = self.synced_len.min(to);
        // Nothing past `to` is reserved any more: the next append zero-fills
        // from here and makes the new size durable before it writes.
        self.reserved = to;
        if let Some(file) = &self.file {
            file.set_len(to)
                .map_err(|e| Error::Io(format!("wal truncate: {e}")))?;
        }
        Ok(())
    }

    fn sync_file(&self) -> Result<()> {
        if let Some(f) = &self.file {
            f.sync_all()
                .map_err(|e| Error::Io(format!("wal fsync: {e}")))?;
        }
        Ok(())
    }
}

/// Zero-fill `file` from `from` up to the [`RESERVE_STEP`] boundary at or
/// past `end`, then make the new size durable. Returns the new reservation.
fn reserve(file: &File, from: u64, end: u64, waits: Option<&Arc<WaitRegistry>>) -> Result<u64> {
    let to = end.next_multiple_of(RESERVE_STEP);
    let mut at = from;
    while at < to {
        let zeros = ZEROS
            .get(..(to - at).min(RESERVE_STEP) as usize)
            .unwrap_or(&ZEROS);
        file.write_all_at(zeros, at)
            .map_err(|e| Error::Io(format!("wal reserve: {e}")))?;
        at += zeros.len() as u64;
    }
    let _wait = WaitGuard::begin(waits, WaitEvent::WalFsync);
    file.sync_all()
        .map_err(|e| Error::Io(format!("wal fsync: {e}")))?;
    Ok(to)
}

/// What salvage found when the log was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Intact records recovered from the valid prefix.
    pub recovered_records: u64,
    /// Bytes of valid prefix kept.
    pub salvaged_bytes: u64,
    /// Torn-tail bytes discarded (short frame, bad CRC, or LSN regression):
    /// the bytes after the valid prefix up to its last non-zero byte. The
    /// zero-filled reservation past that is not counted and is kept.
    pub discarded_bytes: u64,
}

/// Point-in-time WAL counters, surfaced through `ima$wal`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Highest LSN assigned so far (0 = log empty).
    pub current_lsn: Lsn,
    /// Highest LSN known durable.
    pub durable_lsn: Lsn,
    /// LSN of the newest checkpoint record (truncation low-water mark).
    pub low_water_lsn: Lsn,
    /// Records appended through this handle.
    pub appends: u64,
    /// Bytes appended through this handle.
    pub bytes_written: u64,
    /// Durability barriers (fsyncs or watermark advances) completed.
    pub fsyncs: u64,
    /// Post-checkpoint log truncations completed.
    pub truncations: u64,
    /// Group-commit batches led (one per successful leader fsync).
    pub groups: u64,
    /// Commits the coordinator acknowledged (each exactly once).
    pub grouped_commits: u64,
    /// Most committers present when a group-commit leader stopped gathering.
    pub max_group: u64,
    /// Records redone by the last replay.
    pub replayed_records: u64,
    /// Committed transactions redone by the last replay.
    pub replayed_txns: u64,
    /// Intact records salvaged when the log was opened.
    pub recovered_records: u64,
    /// Torn-tail bytes discarded when the log was opened.
    pub discarded_bytes: u64,
    /// A failed operation killed the log: every later one fails until the
    /// directory is reopened.
    pub dead: bool,
}

#[derive(Default)]
struct WalCounters {
    appends: AtomicU64,
    bytes_written: AtomicU64,
    fsyncs: AtomicU64,
    truncations: AtomicU64,
    replayed_records: AtomicU64,
    replayed_txns: AtomicU64,
    fault_appends: AtomicU64,
    fault_fsyncs: AtomicU64,
    fault_truncates: AtomicU64,
}

/// The write-ahead log.
///
/// Thread-safe: appends serialize on the state lock, fsyncs additionally
/// serialize on a dedicated sync lock (one fsync in flight at a time, like
/// a single log device) and run *outside* the state lock so concurrent
/// appends are never blocked behind the platter.
pub struct Wal {
    state: Mutex<WalState>,
    /// Serializes fsyncs; held across the simulated device delay + fsync.
    sync_lock: Mutex<()>,
    /// Sticky power-cut flag (set by any failed log operation): once set,
    /// the log is dead until reopened.
    crashed: AtomicBool,
    /// Set while recovery replays the log (suppresses re-logging).
    replaying: AtomicBool,
    plan: Mutex<FaultPlan>,
    counters: WalCounters,
    group: GroupCommit,
    mode: WalFsyncMode,
    wall: MonotonicClock,
    /// Simulated per-fsync device latency (spun on the wall clock).
    sync_delay_ns: u64,
    /// Records salvaged at open, drained once by recovery.
    recovered: Mutex<Vec<WalEntry>>,
    salvage: SalvageReport,
    /// Wait-event sink, injected by the engine after construction. Unset
    /// (unit tests, recovery probes) the durability barriers charge nothing.
    waits: WaitRegistryHandle,
}

impl Wal {
    /// An in-memory log: no file, no bytes kept, no reopen; durability is
    /// the watermark.
    pub fn in_memory(config: &EngineConfig) -> Wal {
        Self::new(None, config, Vec::new(), SalvageReport::default(), 1, 0)
    }

    /// Open (or create) the log file under `dir`, salvaging the valid
    /// prefix and truncating any torn tail. Records recovered from the
    /// prefix are held for [`Wal::take_recovered`].
    pub fn open_in_dir(dir: &Path, config: &EngineConfig) -> Result<Wal> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Io(format!("wal dir {}: {e}", dir.display())))?;
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| Error::Io(format!("wal open {}: {e}", path.display())))?;
        let mut bytes = Vec::new();
        {
            let mut f: &File = &file;
            f.seek(SeekFrom::Start(0))
                .map_err(|e| Error::Io(format!("wal seek: {e}")))?;
            f.read_to_end(&mut bytes)
                .map_err(|e| Error::Io(format!("wal read: {e}")))?;
        }
        let (entries, valid) = Self::scan_valid_prefix(&bytes);
        let torn_end = bytes
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1)
            .max(valid);
        let salvage = SalvageReport {
            recovered_records: entries.len() as u64,
            salvaged_bytes: valid as u64,
            discarded_bytes: (torn_end - valid) as u64,
        };
        let mut reserved = bytes.len() as u64;
        if torn_end > valid {
            // Reject the torn tail for good: shrink the file to the valid
            // prefix so a second crash-and-reopen sees a clean log, and so
            // no stale frame survives for later appends to line up with.
            file.set_len(valid as u64)
                .map_err(|e| Error::Io(format!("wal truncate: {e}")))?;
            file.sync_all()
                .map_err(|e| Error::Io(format!("wal fsync: {e}")))?;
            reserved = valid as u64;
        }
        let next_lsn = entries.last().map(|e| e.lsn + 1).unwrap_or(1);
        let low_water = entries
            .iter()
            .rev()
            .find_map(|e| match e.record {
                WalRecord::Checkpoint { .. } => Some(e.lsn),
                _ => None,
            })
            .unwrap_or(0);
        let wal = Self::new(
            Some(Arc::new(file)),
            config,
            entries,
            salvage,
            next_lsn,
            low_water,
        );
        wal.state.lock().reserved = reserved;
        Ok(wal)
    }

    fn new(
        file: Option<Arc<File>>,
        config: &EngineConfig,
        recovered: Vec<WalEntry>,
        salvage: SalvageReport,
        next_lsn: Lsn,
        low_water: Lsn,
    ) -> Wal {
        let len = salvage.salvaged_bytes;
        let wall = MonotonicClock::new();
        Wal {
            state: Mutex::new(WalState {
                file,
                len,
                tail: Vec::new(),
                synced_len: len,
                reserved: 0,
                next_lsn,
                // Everything that survived open is on disk, hence durable.
                durable_lsn: next_lsn - 1,
                low_water,
            }),
            sync_lock: Mutex::new(()),
            crashed: AtomicBool::new(false),
            replaying: AtomicBool::new(false),
            plan: Mutex::new(FaultPlan::new()),
            counters: WalCounters::default(),
            group: GroupCommit::new(Duration::from_micros(config.group_commit_window_us), wall),
            mode: config.wal_fsync_mode,
            wall,
            sync_delay_ns: config.wal_sync_delay_us * 1_000,
            recovered: Mutex::new(recovered),
            salvage,
            waits: WaitRegistryHandle::new(),
        }
    }

    /// Route durability-barrier accounting to `registry` (`WalFsync` for
    /// the physical sync, `GroupCommitDally` for leader dally,
    /// `GroupCommitFollow` for follower waits). Called once by the engine
    /// during wiring.
    pub fn set_wait_registry(&self, registry: Arc<WaitRegistry>) {
        self.group.set_wait_registry(Arc::clone(&registry));
        self.waits.set(registry);
    }

    /// Split `bytes` into its decoded valid prefix and the prefix length.
    fn scan_valid_prefix(bytes: &[u8]) -> (Vec<WalEntry>, usize) {
        let mut entries = Vec::new();
        let mut pos = 0usize;
        let mut prev_lsn: Lsn = 0;
        while let Some(header) = bytes.get(pos..pos + FRAME_HEADER) {
            let (Some(len_slice), Some(crc_slice)) = (header.get(..4), header.get(4..)) else {
                break;
            };
            let (Ok(len_bytes), Ok(crc_bytes)) = (arr::<4>(len_slice), arr::<8>(crc_slice)) else {
                break;
            };
            let len = u32::from_le_bytes(len_bytes) as usize;
            let crc = u64::from_le_bytes(crc_bytes);
            let Some(payload) = bytes.get(pos + FRAME_HEADER..pos + FRAME_HEADER + len) else {
                break;
            };
            if fnv1a64(payload) != crc {
                break;
            }
            let Ok(entry) = WalRecord::decode_payload(payload) else {
                break;
            };
            if entry.lsn <= prev_lsn {
                break;
            }
            prev_lsn = entry.lsn;
            entries.push(entry);
            pos += FRAME_HEADER + len;
        }
        (entries, pos)
    }

    /// Drain the records salvaged at open (recovery calls this once).
    pub fn take_recovered(&self) -> Vec<WalEntry> {
        std::mem::take(&mut *self.recovered.lock())
    }

    /// What salvage found when the log was opened.
    pub fn salvage_report(&self) -> SalvageReport {
        self.salvage
    }

    /// Replace the active fault plan (crash scripting). Its rules count
    /// operations from here on: the next append is `wal_append#1`.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut active = self.plan.lock();
        for counter in [
            &self.counters.fault_appends,
            &self.counters.fault_fsyncs,
            &self.counters.fault_truncates,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
        *active = plan;
    }

    /// The configured fsync mode.
    pub fn mode(&self) -> WalFsyncMode {
        self.mode
    }

    /// True once a failed operation (a power cut) has killed the log.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Mark (or unmark) recovery replay in progress. While set, the engine
    /// suppresses re-logging of replayed mutations.
    pub fn set_replaying(&self, on: bool) {
        self.replaying.store(on, Ordering::Release);
    }

    /// True while recovery replay is in progress.
    pub fn is_replaying(&self) -> bool {
        self.replaying.load(Ordering::Acquire)
    }

    /// Record the outcome of a replay pass (surfaced via stats).
    pub fn record_replay(&self, records: u64, txns: u64) {
        self.counters
            .replayed_records
            .store(records, Ordering::Relaxed);
        self.counters.replayed_txns.store(txns, Ordering::Relaxed);
    }

    /// Highest LSN assigned so far (0 if the log is empty).
    pub fn current_lsn(&self) -> Lsn {
        self.state.lock().next_lsn - 1
    }

    /// Highest LSN covered by a completed durability barrier.
    pub fn durable_lsn(&self) -> Lsn {
        self.state.lock().durable_lsn
    }

    /// LSN of the newest checkpoint record (truncation low-water mark).
    pub fn low_water(&self) -> Lsn {
        self.state.lock().low_water
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> WalStats {
        let (current_lsn, durable_lsn, low_water_lsn) = {
            let st = self.state.lock();
            (st.next_lsn - 1, st.durable_lsn, st.low_water)
        };
        let g = self.group.stats();
        WalStats {
            current_lsn,
            durable_lsn,
            low_water_lsn,
            appends: self.counters.appends.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
            fsyncs: self.counters.fsyncs.load(Ordering::Relaxed),
            truncations: self.counters.truncations.load(Ordering::Relaxed),
            groups: g.groups,
            grouped_commits: g.grouped_commits,
            max_group: g.max_group,
            replayed_records: self.counters.replayed_records.load(Ordering::Relaxed),
            replayed_txns: self.counters.replayed_txns.load(Ordering::Relaxed),
            recovered_records: self.salvage.recovered_records,
            discarded_bytes: self.salvage.discarded_bytes,
            dead: self.is_crashed(),
        }
    }

    fn dead() -> Error {
        Error::Io("wal: log is dead after a failed operation (reopen to recover)".into())
    }

    /// Count one faultable operation. If the plan injects an effect into
    /// it, returns the effect and the error the operation fails with.
    fn fault(&self, op: FaultOp) -> Option<(FaultEffect, Error)> {
        let (counter, name) = match op {
            FaultOp::WalFsync => (&self.counters.fault_fsyncs, "wal_fsync"),
            FaultOp::WalTruncate => (&self.counters.fault_truncates, "wal_truncate"),
            // Only the three WAL ops reach this; anything else would be a
            // plumbing bug, and counting it as an append keeps us panic-free.
            _ => (&self.counters.fault_appends, "wal_append"),
        };
        let n = counter.fetch_add(1, Ordering::Relaxed) + 1;
        let effect = self.plan.lock().effect_for(op, n)?;
        let err = match effect {
            FaultEffect::Crash => format!("wal: simulated power cut at {name} #{n}"),
            FaultEffect::Torn(_) => format!("wal: simulated power cut at {name} #{n} (torn tail)"),
            other => format!("wal: injected {other:?} fault on {name} #{n}"),
        };
        Some((effect, Error::Io(err)))
    }

    /// Simulated power cut: unsynced bytes vanish, the log dies.
    fn power_cut(&self, st: &mut WalState) {
        let synced = st.synced_len;
        // The file may refuse the cut as well (a failed `set_len` may be
        // what brought us here); the log is dead either way, and reopen
        // salvages from what the disk holds.
        let _ = st.truncate(synced);
        self.crashed.store(true, Ordering::Release);
    }

    /// The log's one failure path: run `step` on the state, and if it
    /// fails — an injected fault or a real I/O error — take a power cut.
    /// A failed barrier's tail may hold the `Commit` of a committer that is
    /// then rolled back and told it failed; the cut keeps every later
    /// barrier from writing or syncing that frame.
    fn or_power_cut<T>(
        &self,
        st: &mut WalState,
        step: impl FnOnce(&mut WalState) -> Result<T>,
    ) -> Result<T> {
        let out = step(st);
        if out.is_err() {
            self.power_cut(st);
        }
        out
    }

    /// Append one record, assigning it the next LSN. The record is
    /// encoded into the in-process tail: it reaches the OS at the next
    /// barrier (or at the next append once the tail holds `TAIL_SPILL`
    /// bytes) and is *not* durable until a barrier covers its LSN.
    pub fn append(&self, record: &WalRecord<'_>) -> Result<Lsn> {
        let mut st = self.state.lock();
        if self.is_crashed() {
            return Err(Self::dead());
        }
        let lsn = st.next_lsn;
        let fault = self.fault(FaultOp::WalAppend);
        if let Some((FaultEffect::Torn(keep), err)) = fault {
            // Power cut mid-write: unsynced complete frames are lost, but
            // the first `keep` bytes of this frame reach the platter — the
            // torn tail recovery must salvage-or-reject.
            self.power_cut(&mut st);
            if st.push(record, lsn, self.waits.get()).is_ok() {
                let torn = st.tail.len().saturating_sub(keep);
                st.tail.truncate(keep);
                st.len -= torn as u64;
                let _ = st.flush();
                let _ = st.sync_file();
                st.synced_len = st.len;
            }
            return Err(err);
        }
        let waits = self.waits.get();
        let frame = self.or_power_cut(&mut st, |st| {
            if let Some((_, err)) = fault {
                return Err(err);
            }
            if st.tail.len() >= TAIL_SPILL {
                // A long transaction must not hold its whole log in memory.
                st.flush()?;
            }
            st.push(record, lsn, waits)
        })?;
        st.next_lsn = lsn + 1;
        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_written
            .fetch_add(frame, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Durability barrier: make every record up to (at least) `lsn`
    /// durable. Returns the new durable LSN. One fsync runs at a time: the
    /// `sync_lock` holder writes the whole tail with one `write_all_at`
    /// under the state lock, then syncs *without* it, so appends proceed
    /// while the platter spins. Every byte below `len` lies inside the
    /// durable reservation, so syncing data alone is a full barrier.
    pub fn sync_to(&self, lsn: Lsn) -> Result<Lsn> {
        // The whole barrier is fsync wait: queueing behind the in-flight
        // fsync on `sync_lock`, the tail write and the device time all count.
        let _wait = WaitGuard::begin(self.waits.get(), WaitEvent::WalFsync);
        let _device = self.sync_lock.lock();
        let (target_len, target_lsn, file) = {
            let mut st = self.state.lock();
            if st.durable_lsn >= lsn {
                // A barrier that completed while we waited already covers us.
                return Ok(st.durable_lsn);
            }
            if self.is_crashed() {
                return Err(Self::dead());
            }
            self.or_power_cut(&mut st, WalState::flush)?;
            (st.len, st.next_lsn - 1, st.file.clone())
        };
        let synced = match self.fault(FaultOp::WalFsync) {
            Some((_, err)) => Err(err),
            None => {
                self.spin_delay();
                match file {
                    Some(f) => f
                        .sync_data()
                        .map_err(|e| Error::Io(format!("wal fsync: {e}"))),
                    None => Ok(()),
                }
            }
        };
        let mut st = self.state.lock();
        self.or_power_cut(&mut st, |_| synced)?;
        if self.is_crashed() {
            // An append failed while the platter spun: its power cut has
            // already cut this barrier's frames from the file.
            return Err(Self::dead());
        }
        st.synced_len = st.synced_len.max(target_len);
        st.durable_lsn = st.durable_lsn.max(target_lsn);
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(st.durable_lsn)
    }

    /// Make the whole log durable (everything appended so far).
    pub fn sync_all(&self) -> Result<Lsn> {
        let last = self.current_lsn();
        if last == 0 {
            return Ok(0);
        }
        self.sync_to(last)
    }

    /// The commit durability barrier in the configured mode: per-commit
    /// fsync (`Always`), leader/follower batched fsync (`Group`), or — the
    /// test-only `Off` mode — a write of the tail with no barrier at all.
    pub fn commit_barrier(&self, lsn: Lsn) -> Result<Lsn> {
        match self.mode {
            WalFsyncMode::Off => {
                // No barrier, but the commit's frames reach the OS as they
                // did before appends were buffered.
                self.or_power_cut(&mut self.state.lock(), WalState::flush)?;
                Ok(lsn)
            }
            WalFsyncMode::Always => self.sync_to(lsn),
            WalFsyncMode::Group => self.group.wait_durable(lsn, || self.sync_to(lsn)),
        }
    }

    /// Demoted checkpoint: rewrite the log as a single checkpoint record.
    ///
    /// Called *after* the page store's manifest for `epoch` is durably
    /// installed — everything at or below `checkpoint_lsn` is then
    /// reflected in pages, so the log prefix is dead weight. Crash-safe in
    /// place: a power cut before the rewrite leaves the full old log
    /// (replay is idempotent), and the manifest already captures the
    /// checkpoint, so no window exists where data is only in the discarded
    /// prefix.
    pub fn truncate_to(&self, checkpoint_lsn: Lsn, epoch: u64) -> Result<()> {
        let _device = self.sync_lock.lock();
        let mut st = self.state.lock();
        if self.is_crashed() {
            return Err(Self::dead());
        }
        let fault = self.fault(FaultOp::WalTruncate);
        let waits = self.waits.get();
        self.or_power_cut(&mut st, |st| {
            if let Some((_, err)) = fault {
                return Err(err);
            }
            st.truncate(0)?;
            st.push(&WalRecord::Checkpoint { epoch }, checkpoint_lsn, waits)?;
            st.flush()?;
            // The rewrite's fsync is device wait like any barrier: charge
            // it, so checkpoint cost shows up in the wait-event pipeline.
            // (The frame's own reservation sync charged itself.)
            let _wait = WaitGuard::begin(waits, WaitEvent::WalFsync);
            st.sync_file()
        })?;
        st.synced_len = st.len;
        st.low_water = checkpoint_lsn;
        st.durable_lsn = st.durable_lsn.max(checkpoint_lsn);
        self.counters.truncations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Spin the wall clock for the simulated device latency. A spin (not a
    /// sleep) because `std::thread::sleep` is banned outside daemon/bench
    /// and because sub-millisecond sleeps are wildly imprecise anyway.
    fn spin_delay(&self) {
        if self.sync_delay_ns == 0 {
            return;
        }
        let start = self.wall.now_nanos();
        while self.wall.now_nanos().saturating_sub(start) < self.sync_delay_ns {
            std::hint::spin_loop();
        }
    }
}

/// How long a group-commit follower waits before it rechecks on its own.
/// Every barrier ends with a `notify_all`, so this is a backstop against a
/// lost wake-up, not the pace of the protocol. Each expiry costs every
/// follower a wake-up and a trip through the group lock, so it sits well
/// above a barrier's length: with a 100 µs recheck, 64 followers behind a
/// 500 µs barrier wake five times each per fsync, and group mode runs
/// slower than `Always`.
const FOLLOWER_RECHECK: Duration = Duration::from_millis(10);

/// Group-commit batch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Batches led (one per successful leader fsync).
    pub groups: u64,
    /// Commits acknowledged, each counted once at its `Ok` return —
    /// including those an fsync already in flight covered, so
    /// `grouped_commits / groups` is the mean commits per fsync.
    pub grouped_commits: u64,
    /// Most committers present when a leader stopped gathering.
    pub max_group: u64,
}

struct GroupState {
    /// Highest LSN the group knows to be durable.
    durable: Lsn,
    /// True from a leader's election until its barrier returns.
    syncing: bool,
    /// Committers currently inside `wait_durable`.
    waiters: u64,
    /// Committers present when the previous group's barrier returned: its
    /// leader, the followers it covered and those that arrived during it.
    /// The next leader gathers until this many are present.
    last_peak: u64,
}

/// Leader/follower group-commit coordinator.
///
/// The first committer that finds no fsync in flight becomes *leader*. It
/// gathers until as many committers are present as were present when the
/// previous group's barrier returned, for at most one window in total, then
/// runs the provided barrier once for everyone queued. Arrivals during the
/// gather wake it to recount. A lone committer on an idle engine never
/// waits; after a group, a lone committer waits out one window once, and
/// its own group of one then sets the target back to 1. Followers wait on a
/// condvar with a timeout, so a leader that errors out cannot strand them:
/// they wake, observe `syncing == false`, and elect themselves.
///
/// Synchronization types are swapped to `loom` shims under `--cfg loom`
/// so the protocol itself is model-checked (no lost wakeups, no commit
/// acknowledged before a covering fsync).
pub struct GroupCommit {
    window: Duration,
    /// Times the gather (the clock check keeps `Instant` out of storage).
    clock: MonotonicClock,
    inner: GcMutex<GroupState>,
    /// Followers wait here for the barrier.
    cv: GcCondvar,
    /// The gathering leader waits here for arrivals.
    arrivals: GcCondvar,
    groups: AtomicU64,
    grouped: AtomicU64,
    max_group: AtomicU64,
    /// Wait-event sink (`GroupCommitDally` / `GroupCommitFollow`); unset in
    /// loom models and unit tests, where every guard collapses to a no-op.
    waits: WaitRegistryHandle,
}

impl GroupCommit {
    /// A coordinator whose leader gathers for at most `window`, timed on
    /// `clock`.
    pub fn new(window: Duration, clock: MonotonicClock) -> Self {
        GroupCommit {
            window,
            clock,
            inner: GcMutex::new(GroupState {
                durable: 0,
                syncing: false,
                waiters: 0,
                last_peak: 0,
            }),
            cv: GcCondvar::new(),
            arrivals: GcCondvar::new(),
            groups: AtomicU64::new(0),
            grouped: AtomicU64::new(0),
            max_group: AtomicU64::new(0),
            waits: WaitRegistryHandle::new(),
        }
    }

    /// Route dally- and follower-time accounting to `registry`.
    pub fn set_wait_registry(&self, registry: Arc<WaitRegistry>) {
        self.waits.set(registry);
    }

    /// Block until `lsn` is durable, batching behind (or leading) a group
    /// fsync. `sync` is the underlying barrier; it must return the new
    /// durable LSN. Returns the durable LSN covering `lsn`.
    pub fn wait_durable<F: Fn() -> Result<Lsn>>(&self, lsn: Lsn, sync: F) -> Result<Lsn> {
        let mut st = self.inner.lock();
        st.waiters += 1;
        // Only a gathering leader waits here: it recounts.
        self.arrivals.notify_one();
        let res = loop {
            if st.durable >= lsn {
                break Ok(st.durable);
            }
            if st.syncing {
                // Follower: the in-flight batch (or the next one) will
                // cover us. Timed wait so a dead leader cannot strand us.
                let _follow = WaitGuard::begin(self.waits.get(), WaitEvent::GroupCommitFollow);
                let _ = self.cv.wait_for(&mut st, FOLLOWER_RECHECK);
                continue;
            }
            // Leader: gather as many committers as the last group had, for
            // one window at most.
            st.syncing = true;
            if st.waiters < st.last_peak {
                let _dally = WaitGuard::begin(self.waits.get(), WaitEvent::GroupCommitDally);
                let window = self.window.as_nanos() as u64;
                let start = self.clock.now_nanos();
                while st.waiters < st.last_peak {
                    let waited = self.clock.now_nanos().saturating_sub(start);
                    if waited >= window {
                        break;
                    }
                    let _ = self
                        .arrivals
                        .wait_for(&mut st, Duration::from_nanos(window - waited));
                }
            }
            self.max_group.fetch_max(st.waiters, Ordering::Relaxed);
            drop(st);
            let outcome = sync();
            st = self.inner.lock();
            st.syncing = false;
            st.last_peak = st.waiters;
            self.cv.notify_all();
            match outcome {
                Ok(durable) => {
                    if durable > st.durable {
                        st.durable = durable;
                    }
                    self.groups.fetch_add(1, Ordering::Relaxed);
                    // Loop: the next check acknowledges us (and any
                    // follower the barrier covered).
                }
                Err(e) => break Err(e),
            }
        };
        st.waiters -= 1;
        drop(st);
        if res.is_ok() {
            self.grouped.fetch_add(1, Ordering::Relaxed);
        }
        res
    }

    /// Snapshot of the batch counters.
    pub fn stats(&self) -> GroupCommitStats {
        GroupCommitStats {
            groups: self.groups.load(Ordering::Relaxed),
            grouped_commits: self.grouped.load(Ordering::Relaxed),
            max_group: self.max_group.load(Ordering::Relaxed),
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::fault::FaultOp;
    use std::sync::atomic::AtomicU64;

    fn cfg() -> EngineConfig {
        EngineConfig::default()
    }

    impl WalRecord<'_> {
        /// The frame alone, for tests that take frames apart.
        fn encode_frame(&self, lsn: Lsn) -> Vec<u8> {
            let mut frame = Vec::new();
            self.encode_into(lsn, &mut frame);
            frame
        }
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "ingot-wal-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_records() -> Vec<WalRecord<'static>> {
        vec![
            WalRecord::Begin { txn: TxnId(7) },
            WalRecord::Insert {
                txn: TxnId(7),
                table: "t".into(),
                row: vec![1, 2, 3],
            },
            WalRecord::Delete {
                txn: TxnId(7),
                table: "t".into(),
                old: vec![4, 5],
            },
            WalRecord::Update {
                txn: TxnId(7),
                table: "t".into(),
                old: vec![6],
                new: vec![7, 8],
            },
            WalRecord::Commit {
                txn: TxnId(7),
                commit_ts: 7,
            },
            WalRecord::Abort { txn: TxnId(8) },
            WalRecord::Checkpoint { epoch: 3 },
            WalRecord::Ddl {
                sql: "create table t (a int)".into(),
            },
        ]
    }

    #[test]
    fn frame_roundtrip_all_kinds() {
        for (i, rec) in sample_records().into_iter().enumerate() {
            let lsn = (i + 1) as Lsn;
            let frame = rec.encode_frame(lsn);
            let payload = &frame[FRAME_HEADER..];
            let entry = WalRecord::decode_payload(payload).unwrap();
            assert_eq!(entry.lsn, lsn);
            assert_eq!(entry.record, rec);
        }
    }

    #[test]
    fn decode_rejects_garbage_and_trailing_bytes() {
        assert!(WalRecord::decode_payload(&[]).is_err());
        assert!(WalRecord::decode_payload(&[99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        let mut frame = WalRecord::Commit {
            txn: TxnId(1),
            commit_ts: 0,
        }
        .encode_frame(1);
        frame.push(0xAB); // trailing garbage after the payload
        assert!(WalRecord::decode_payload(&frame[FRAME_HEADER..]).is_err());
    }

    #[test]
    fn append_sync_watermarks() {
        let wal = Wal::in_memory(&cfg());
        assert_eq!(wal.current_lsn(), 0);
        let l1 = wal.append(&WalRecord::Begin { txn: TxnId(1) }).unwrap();
        let l2 = wal
            .append(&WalRecord::Commit {
                txn: TxnId(1),
                commit_ts: 0,
            })
            .unwrap();
        assert_eq!((l1, l2), (1, 2));
        assert_eq!(wal.durable_lsn(), 0);
        assert_eq!(wal.sync_to(l2).unwrap(), 2);
        assert_eq!(wal.durable_lsn(), 2);
        // A second barrier over already-durable LSNs is free.
        let before = wal.stats().fsyncs;
        assert_eq!(wal.sync_to(l1).unwrap(), 2);
        assert_eq!(wal.stats().fsyncs, before);
    }

    #[test]
    fn reopen_replays_only_synced_records() {
        let dir = tmpdir("reopen");
        {
            let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
            wal.append(&WalRecord::Begin { txn: TxnId(1) }).unwrap();
            let l = wal
                .append(&WalRecord::Commit {
                    txn: TxnId(1),
                    commit_ts: 0,
                })
                .unwrap();
            wal.sync_to(l).unwrap();
            // Unsynced append, then a scripted power cut on the next one.
            wal.append(&WalRecord::Begin { txn: TxnId(2) }).unwrap();
            wal.set_fault_plan(FaultPlan::new().with_rule(
                FaultOp::WalAppend,
                1,
                1,
                FaultEffect::Crash,
            ));
            let err = wal
                .append(&WalRecord::Commit {
                    txn: TxnId(2),
                    commit_ts: 0,
                })
                .unwrap_err();
            assert!(!err.is_transient());
            assert!(wal.is_crashed());
            // Dead log: everything fails until reboot.
            assert!(wal.append(&WalRecord::Abort { txn: TxnId(2) }).is_err());
            assert!(wal.sync_all().is_err());
        }
        let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
        let entries = wal.take_recovered();
        assert_eq!(
            entries
                .iter()
                .map(|e| (e.lsn, e.record.clone()))
                .collect::<Vec<_>>(),
            vec![
                (1, WalRecord::Begin { txn: TxnId(1) }),
                (
                    2,
                    WalRecord::Commit {
                        txn: TxnId(1),
                        commit_ts: 0
                    }
                ),
            ],
            "unsynced records must be gone, synced ones intact"
        );
        assert_eq!(wal.current_lsn(), 2);
        assert_eq!(wal.durable_lsn(), 2);
        // Draining twice yields nothing.
        assert!(wal.take_recovered().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_salvaged_then_rejected() {
        let dir = tmpdir("torn");
        {
            let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
            let l = wal.append(&WalRecord::Begin { txn: TxnId(1) }).unwrap();
            wal.sync_to(l).unwrap();
            wal.set_fault_plan(FaultPlan::new().with_rule(
                FaultOp::WalAppend,
                1,
                1,
                FaultEffect::Torn(5),
            ));
            assert!(wal
                .append(&WalRecord::Commit {
                    txn: TxnId(1),
                    commit_ts: 0
                })
                .is_err());
            assert!(wal.is_crashed());
        }
        let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
        let report = wal.salvage_report();
        assert_eq!(report.recovered_records, 1, "only the synced record");
        assert_eq!(report.discarded_bytes, 5, "the torn tail is rejected");
        let entries = wal.take_recovered();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].record, WalRecord::Begin { txn: TxnId(1) });
        // The torn tail was physically removed: a third open is clean.
        drop(wal);
        let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
        assert_eq!(wal.salvage_report().discarded_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_crash_kills_the_log() {
        let wal = Wal::in_memory(&cfg());
        wal.append(&WalRecord::Begin { txn: TxnId(1) }).unwrap();
        wal.set_fault_plan(FaultPlan::new().with_rule(FaultOp::WalFsync, 1, 1, FaultEffect::Crash));
        assert!(wal.sync_all().is_err());
        assert!(wal.is_crashed());
        assert!(wal
            .append(&WalRecord::Commit {
                txn: TxnId(1),
                commit_ts: 0
            })
            .is_err());
        // The unsynced record was eaten by the power cut.
        assert_eq!(wal.durable_lsn(), 0);
    }

    #[test]
    fn truncation_rewrites_log_to_checkpoint_record() {
        let dir = tmpdir("trunc");
        {
            let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            let last = wal.sync_all().unwrap();
            wal.truncate_to(last, 9).unwrap();
            assert_eq!(wal.low_water(), last);
            assert_eq!(wal.stats().truncations, 1);
            // New appends continue the LSN sequence past the checkpoint.
            let next = wal.append(&WalRecord::Begin { txn: TxnId(9) }).unwrap();
            assert_eq!(next, last + 1);
            wal.sync_all().unwrap();
        }
        let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
        let entries = wal.take_recovered();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].record, WalRecord::Checkpoint { epoch: 9 });
        assert_eq!(entries[1].record, WalRecord::Begin { txn: TxnId(9) });
        assert_eq!(wal.low_water(), entries[0].lsn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_crash_preserves_old_log() {
        let dir = tmpdir("trunc-crash");
        let synced;
        {
            let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            synced = wal.sync_all().unwrap();
            wal.set_fault_plan(FaultPlan::new().with_rule(
                FaultOp::WalTruncate,
                1,
                1,
                FaultEffect::Crash,
            ));
            assert!(wal.truncate_to(synced, 9).is_err());
            assert!(wal.is_crashed());
        }
        let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
        // The full pre-truncation log survives, byte for byte.
        assert_eq!(wal.take_recovered().len(), sample_records().len());
        assert_eq!(wal.current_lsn(), synced);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A transient fault is a power cut like any other failed operation:
    /// nothing retries a log operation, so the failed append's LSN is
    /// never handed out and reopen holds nothing of it.
    #[test]
    fn transient_append_fault_does_not_advance_lsn() {
        let dir = tmpdir("transient");
        let first = WalRecord::Begin { txn: TxnId(1) };
        let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
        let l1 = wal.append(&first).unwrap();
        wal.sync_to(l1).unwrap();
        wal.set_fault_plan(FaultPlan::new().with_rule(
            FaultOp::WalAppend,
            1,
            1,
            FaultEffect::Transient,
        ));
        let err = wal.append(&WalRecord::Begin { txn: TxnId(2) }).unwrap_err();
        assert!(!err.is_transient(), "a retry cannot succeed: {err}");
        assert!(wal.is_crashed());
        assert!(
            wal.append(&WalRecord::Begin { txn: TxnId(2) }).is_err(),
            "the retry fails on the dead log"
        );
        assert_eq!(wal.current_lsn(), l1);
        drop(wal);
        assert_eq!(reopen(&dir), (vec![first], 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_single_committer_syncs_immediately() {
        let wal = Wal::in_memory(&cfg());
        let l = wal
            .append(&WalRecord::Commit {
                txn: TxnId(1),
                commit_ts: 0,
            })
            .unwrap();
        assert_eq!(wal.commit_barrier(l).unwrap(), l);
        let s = wal.stats();
        assert_eq!(s.groups, 1);
        assert_eq!(s.grouped_commits, 1);
        assert_eq!(s.max_group, 1);
        assert_eq!(s.durable_lsn, l);
    }

    #[test]
    fn group_commit_concurrent_committers_all_become_durable() {
        let wal = Arc::new(Wal::in_memory(
            &cfg()
                .with_group_commit_window_us(2_000)
                .with_wal_sync_delay_us(200),
        ));
        let threads = 8;
        let commits_each = 10;
        let failures = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let wal = Arc::clone(&wal);
                let failures = Arc::clone(&failures);
                std::thread::spawn(move || {
                    for i in 0..commits_each {
                        let txn = TxnId((t * 1_000 + i) as u64);
                        let lsn = wal
                            .append(&WalRecord::Commit { txn, commit_ts: 0 })
                            .unwrap();
                        match wal.commit_barrier(lsn) {
                            Ok(d) => assert!(d >= lsn, "ack before durable"),
                            Err(_) => {
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(failures.load(Ordering::Relaxed), 0);
        let s = wal.stats();
        assert_eq!(s.current_lsn, (threads * commits_each) as u64);
        assert_eq!(s.durable_lsn, s.current_lsn);
        assert_eq!(
            s.grouped_commits,
            (threads * commits_each) as u64,
            "every acknowledged commit is counted exactly once"
        );
        assert_eq!(s.groups, s.fsyncs, "every leader fsync is one group");
    }

    #[test]
    fn off_mode_skips_the_barrier() {
        let wal = Wal::in_memory(&cfg().with_wal_fsync_mode(WalFsyncMode::Off));
        let l = wal
            .append(&WalRecord::Commit {
                txn: TxnId(1),
                commit_ts: 0,
            })
            .unwrap();
        assert_eq!(wal.commit_barrier(l).unwrap(), l);
        // Nothing actually became durable — that is the documented gap.
        assert_eq!(wal.durable_lsn(), 0);
        assert_eq!(wal.stats().fsyncs, 0);
    }

    #[test]
    fn always_mode_syncs_every_commit() {
        let wal = Wal::in_memory(&cfg().with_wal_fsync_mode(WalFsyncMode::Always));
        for i in 1..=3u64 {
            let l = wal
                .append(&WalRecord::Commit {
                    txn: TxnId(i),
                    commit_ts: 0,
                })
                .unwrap();
            assert_eq!(wal.commit_barrier(l).unwrap(), l);
        }
        assert_eq!(wal.stats().fsyncs, 3);
        assert_eq!(
            wal.stats().groups,
            0,
            "always-mode bypasses the coordinator"
        );
    }

    fn wal_len(dir: &Path) -> u64 {
        std::fs::metadata(dir.join(WAL_FILE)).unwrap().len()
    }

    fn ddl(i: usize, pad: usize) -> WalRecord<'static> {
        WalRecord::Ddl {
            sql: format!("create table t{i} (a int) -- {}", "x".repeat(pad)),
        }
    }

    #[test]
    fn zero_header_never_decodes() {
        assert_ne!(fnv1a64(&[]), 0, "a zero crc cannot match an empty payload");
        let (entries, valid) = Wal::scan_valid_prefix(&[0u8; FRAME_HEADER]);
        assert!(entries.is_empty());
        assert_eq!(valid, 0);
        // A valid frame followed by a zero tail: the tail ends the prefix.
        let mut bytes = WalRecord::Begin { txn: TxnId(1) }.encode_frame(1);
        let frame_len = bytes.len();
        bytes.resize(frame_len + 4 * FRAME_HEADER, 0);
        let (entries, valid) = Wal::scan_valid_prefix(&bytes);
        assert_eq!(entries.len(), 1);
        assert_eq!(valid, frame_len);
    }

    #[test]
    fn clean_reopen_keeps_the_reservation() {
        let dir = tmpdir("reserve-clean");
        let records = sample_records();
        {
            let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
            wal.sync_all().unwrap();
        }
        assert_eq!(wal_len(&dir), RESERVE_STEP, "one zero-filled step");
        let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
        let report = wal.salvage_report();
        assert_eq!(report.discarded_bytes, 0, "the zero tail is not torn");
        assert_eq!(report.recovered_records, records.len() as u64);
        let got: Vec<_> = wal.take_recovered().into_iter().map(|e| e.record).collect();
        assert_eq!(got, records);
        assert_eq!(wal_len(&dir), RESERVE_STEP, "open keeps the reservation");
        // Appending inside the kept reservation does not grow the file.
        let l = wal.append(&WalRecord::Abort { txn: TxnId(9) }).unwrap();
        wal.sync_to(l).unwrap();
        assert_eq!(wal_len(&dir), RESERVE_STEP);
        drop(wal);
        let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
        assert_eq!(wal.take_recovered().len(), records.len() + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_frame_in_the_reservation_counts_only_its_non_zero_bytes() {
        let dir = tmpdir("reserve-torn");
        let torn = WalRecord::Ddl {
            sql: "create table torn (a int)".into(),
        };
        let keep = 20;
        let synced;
        {
            let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
            wal.append(&WalRecord::Begin { txn: TxnId(1) }).unwrap();
            synced = wal.sync_all().unwrap();
            wal.set_fault_plan(FaultPlan::new().with_rule(
                FaultOp::WalAppend,
                1,
                1,
                FaultEffect::Torn(keep),
            ));
            assert!(wal.append(&torn).is_err());
        }
        // The torn prefix sits inside a fresh zero-filled step.
        assert_eq!(wal_len(&dir), RESERVE_STEP);
        let frame = torn.encode_frame(synced + 1);
        let non_zero = frame[..keep]
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
        let report = wal.salvage_report();
        assert_eq!(report.recovered_records, 1);
        assert_eq!(report.discarded_bytes, non_zero as u64);
        assert_eq!(
            wal_len(&dir),
            report.salvaged_bytes,
            "a torn tail is truncated away, reservation and all"
        );
        drop(wal);
        let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
        assert_eq!(
            wal.salvage_report().discarded_bytes,
            0,
            "third open is clean"
        );
        assert_eq!(wal.take_recovered().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_across_steps_and_a_checkpoint_reopen_intact() {
        let dir = tmpdir("reserve-steps");
        let pad = 3_000;
        let before = 70; // ~210 KiB: crosses three steps
        let after = 30; // ~90 KiB past the checkpoint frame
        let ckpt;
        {
            let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
            for i in 0..before {
                wal.append(&ddl(i, pad)).unwrap();
            }
            ckpt = wal.sync_all().unwrap();
            let len = wal_len(&dir);
            assert!(len >= 3 * RESERVE_STEP, "{len}");
            assert_eq!(len % RESERVE_STEP, 0, "the file grows in whole steps");
            wal.truncate_to(ckpt, 4).unwrap();
            assert_eq!(wal_len(&dir), RESERVE_STEP, "the rewrite reserves again");
            for i in 0..after {
                let l = wal.append(&ddl(before + i, pad)).unwrap();
                wal.commit_barrier(l).unwrap();
            }
            assert_eq!(wal_len(&dir) % RESERVE_STEP, 0);
        }
        let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
        assert_eq!(wal.salvage_report().discarded_bytes, 0);
        let entries = wal.take_recovered();
        assert_eq!(entries.len(), 1 + after);
        assert_eq!(entries[0].lsn, ckpt);
        assert_eq!(entries[0].record, WalRecord::Checkpoint { epoch: 4 });
        for (i, e) in entries[1..].iter().enumerate() {
            assert_eq!(e.lsn, ckpt + 1 + i as Lsn);
            assert_eq!(e.record, ddl(before + i, pad));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_copy_taken_mid_run_reopens_with_every_synced_record() {
        let dir = tmpdir("reserve-copy");
        let copy = tmpdir("reserve-copy-dst");
        std::fs::create_dir_all(&copy).unwrap();
        // `Off` mode: its commit writes the tail with no sync, so the copy
        // below holds complete frames that no barrier covered.
        let wal = Wal::open_in_dir(&dir, &cfg().with_wal_fsync_mode(WalFsyncMode::Off)).unwrap();
        let mut written = Vec::new();
        for i in 0..20 {
            let r = ddl(i, 100);
            let l = wal.append(&r).unwrap();
            wal.sync_to(l).unwrap();
            written.push(r);
        }
        let acked = wal.durable_lsn();
        // Unsynced frames in the file behind the acknowledged ones, then
        // the zero reserve, then the copy.
        let mut last = acked;
        for i in 20..25 {
            let r = ddl(i, 100);
            last = wal.append(&r).unwrap();
            written.push(r);
        }
        wal.commit_barrier(last).unwrap();
        assert_eq!(wal.durable_lsn(), acked, "frames 20..25 stay unsynced");
        std::fs::copy(dir.join(WAL_FILE), copy.join(WAL_FILE)).unwrap();
        drop(wal);
        assert_eq!(reopen(&copy), (written, 0));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&copy).unwrap();
    }

    #[test]
    fn salvage_rejects_lsn_regression() {
        // Two frames with non-increasing LSNs: the second terminates the
        // valid prefix even though its checksum is fine.
        let mut bytes = WalRecord::Begin { txn: TxnId(1) }.encode_frame(5);
        bytes.extend_from_slice(
            &WalRecord::Commit {
                txn: TxnId(1),
                commit_ts: 0,
            }
            .encode_frame(5),
        );
        let (entries, valid) = Wal::scan_valid_prefix(&bytes);
        assert_eq!(entries.len(), 1);
        assert!(valid < bytes.len());
    }

    fn file_bytes(dir: &Path) -> Vec<u8> {
        std::fs::read(dir.join(WAL_FILE)).unwrap()
    }

    /// The recovered records and the bytes salvage discarded, on reopen.
    fn reopen(dir: &Path) -> (Vec<WalRecord<'static>>, u64) {
        let wal = Wal::open_in_dir(dir, &cfg()).unwrap();
        let got = wal.take_recovered().into_iter().map(|e| e.record).collect();
        (got, wal.salvage_report().discarded_bytes)
    }

    #[test]
    fn an_unsynced_append_stays_in_the_process_until_a_barrier() {
        let dir = tmpdir("tail-barrier");
        let first = WalRecord::Begin { txn: TxnId(1) };
        let second = WalRecord::Commit {
            txn: TxnId(1),
            commit_ts: 4,
        };
        let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
        let l1 = wal.append(&first).unwrap();
        wal.sync_to(l1).unwrap();
        let synced = file_bytes(&dir);
        let l2 = wal.append(&second).unwrap();
        assert_eq!(
            file_bytes(&dir),
            synced,
            "an uncovered append writes nothing"
        );
        wal.sync_to(l2).unwrap();
        // The frame lands once, right behind the first, and the rest of the
        // reservation is still zero.
        let at = first.encode_frame(l1).len();
        let frame = second.encode_frame(l2);
        let after = file_bytes(&dir);
        assert_eq!(after.len(), synced.len());
        assert_eq!(&after[..at], &synced[..at]);
        assert_eq!(&after[at..at + frame.len()], &frame[..]);
        assert!(after[at + frame.len()..].iter().all(|&b| b == 0));
        drop(wal);
        assert_eq!(reopen(&dir), (vec![first, second], 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_power_cut_loses_the_unsynced_tail() {
        let dir = tmpdir("tail-cut");
        let first = WalRecord::Begin { txn: TxnId(1) };
        {
            let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
            let l1 = wal.append(&first).unwrap();
            wal.sync_to(l1).unwrap();
            let l2 = wal.append(&WalRecord::Abort { txn: TxnId(1) }).unwrap();
            wal.set_fault_plan(FaultPlan::new().with_rule(
                FaultOp::WalFsync,
                1,
                1,
                FaultEffect::Crash,
            ));
            assert!(wal.sync_to(l2).is_err());
            assert!(wal.is_crashed());
        }
        assert_eq!(reopen(&dir), (vec![first], 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failed tail write kills the log: the failed barrier's committers
    /// are rolled back, so no later barrier may write their `Commit` frames.
    /// So does a checkpoint rewrite whose `set_len` fails: it has already
    /// dropped the waiting tail, and a live log would write the next frame
    /// past a gap that ends the valid prefix at reopen.
    #[test]
    fn a_failed_tail_write_kills_the_log() {
        type Op = fn(&Wal, Lsn) -> Result<()>;
        let records = sample_records();
        let cases: [(&str, usize, Op); 2] = [
            ("tail-fail", records.len(), |wal, last| {
                wal.sync_to(last).map(drop)
            }),
            ("trunc-fail", 2, |wal, last| wal.truncate_to(last, 9)),
        ];
        for (tag, pending_end, failing) in cases {
            let dir = tmpdir(tag);
            let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
            let l1 = wal.append(&records[0]).unwrap();
            wal.sync_to(l1).unwrap();
            let mut last = l1;
            for r in &records[1..pending_end] {
                last = wal.append(r).unwrap();
            }
            // Swap in a read-only handle: the write (or `set_len`) fails.
            let writable = {
                let read_only = File::open(dir.join(WAL_FILE)).unwrap();
                wal.state.lock().file.replace(Arc::new(read_only))
            };
            assert!(failing(&wal, last).is_err(), "{tag}");
            assert!(wal.is_crashed(), "{tag}");
            assert_eq!(wal.durable_lsn(), l1, "{tag}");
            wal.state.lock().file = writable;
            assert!(
                wal.sync_to(last).is_err(),
                "{tag}: a dead log writes nothing"
            );
            assert!(wal.append(&records[0]).is_err(), "{tag}");
            drop(wal);
            assert_eq!(reopen(&dir), (vec![records[0].clone()], 0), "{tag}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// An append that fails while a barrier syncs outside the state lock
    /// cuts that barrier's frames from the file: the barrier must fail, not
    /// acknowledge a commit that reopen does not hold.
    #[test]
    fn an_append_failing_during_a_barrier_fails_the_barrier() {
        let dir = tmpdir("cut-mid-barrier");
        let first = WalRecord::Begin { txn: TxnId(1) };
        let mut wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
        let l1 = wal.append(&first).unwrap();
        wal.sync_to(l1).unwrap();
        // Long enough that the failing append lands inside the barrier.
        wal.sync_delay_ns = 250_000_000;
        let commit = wal
            .append(&WalRecord::Commit {
                txn: TxnId(1),
                commit_ts: 1,
            })
            .unwrap();
        wal.set_fault_plan(FaultPlan::new().with_rule(
            FaultOp::WalAppend,
            1,
            1,
            FaultEffect::Transient,
        ));
        std::thread::scope(|s| {
            let barrier = s.spawn(|| wal.sync_to(commit));
            // The barrier has written its tail once the tail is empty.
            while !wal.state.lock().tail.is_empty() {
                std::hint::spin_loop();
            }
            assert!(wal.append(&WalRecord::Begin { txn: TxnId(2) }).is_err());
            assert!(barrier.join().unwrap().is_err());
        });
        assert!(wal.is_crashed());
        assert_eq!(wal.durable_lsn(), l1);
        drop(wal);
        assert_eq!(reopen(&dir), (vec![first], 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn off_mode_writes_a_commit_at_once() {
        let dir = tmpdir("tail-off");
        let commit = WalRecord::Commit {
            txn: TxnId(1),
            commit_ts: 0,
        };
        let wal = Wal::open_in_dir(&dir, &cfg().with_wal_fsync_mode(WalFsyncMode::Off)).unwrap();
        let l = wal.append(&commit).unwrap();
        wal.commit_barrier(l).unwrap();
        let frame = commit.encode_frame(l);
        assert_eq!(&file_bytes(&dir)[..frame.len()], &frame[..]);
        assert_eq!(wal.stats().fsyncs, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_drop_writes_no_unsynced_tail() {
        let dir = tmpdir("tail-drop");
        let records = sample_records();
        {
            let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
            let l1 = wal.append(&records[0]).unwrap();
            wal.sync_to(l1).unwrap();
            for r in &records[1..] {
                wal.append(r).unwrap();
            }
        }
        assert_eq!(reopen(&dir), (vec![records[0].clone()], 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_long_transaction_spills_its_tail() {
        let dir = tmpdir("tail-spill");
        let wal = Wal::open_in_dir(&dir, &cfg()).unwrap();
        let mut i = 0;
        while wal.state.lock().tail.len() < TAIL_SPILL {
            wal.append(&ddl(i, 3_000)).unwrap();
            i += 1;
        }
        assert!(
            file_bytes(&dir).iter().all(|&b| b == 0),
            "nothing spilled yet"
        );
        // The next append writes the tail, then buffers its own frame.
        let last = wal.append(&ddl(i, 3_000)).unwrap();
        assert_eq!(Wal::scan_valid_prefix(&file_bytes(&dir)).0.len(), i);
        assert_eq!(
            wal.state.lock().tail,
            ddl(i, 3_000).encode_frame(last),
            "only the newest frame is buffered"
        );
        wal.sync_all().unwrap();
        drop(wal);
        assert_eq!(reopen(&dir).0.len(), i + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// After a group, a lone committer gathers for one window and no more;
    /// its group of one sets the target back to 1, so the next lone
    /// committer syncs at once.
    #[test]
    fn a_lone_committer_after_a_group_waits_one_window_once() {
        let window = Duration::from_millis(20);
        let gc = GroupCommit::new(window, MonotonicClock::new());
        let waits = Arc::new(WaitRegistry::new());
        gc.set_wait_registry(Arc::clone(&waits));
        let dally = || waits.counters().count(WaitEvent::GroupCommitDally);
        gc.inner.lock().last_peak = 3;
        let clock = MonotonicClock::new();
        let start = clock.now_nanos();
        assert_eq!(gc.wait_durable(1, || Ok(1)).unwrap(), 1);
        let waited = clock.now_nanos() - start;
        assert!(waited >= window.as_nanos() as u64, "{waited} ns");
        assert_eq!(dally(), 1);
        assert_eq!(gc.inner.lock().last_peak, 1);
        assert_eq!(gc.wait_durable(2, || Ok(2)).unwrap(), 2);
        assert_eq!(dally(), 1, "the second lone committer does not gather");
        assert_eq!(gc.stats().groups, 2);
    }

    /// A fresh coordinator never gathers: the first leader has no previous
    /// group to wait for.
    #[test]
    fn a_lone_committer_on_an_idle_engine_never_gathers() {
        let gc = GroupCommit::new(Duration::from_secs(60), MonotonicClock::new());
        let waits = Arc::new(WaitRegistry::new());
        gc.set_wait_registry(Arc::clone(&waits));
        for lsn in 1..=3 {
            assert_eq!(gc.wait_durable(lsn, || Ok(lsn)).unwrap(), lsn);
        }
        assert_eq!(waits.counters().count(WaitEvent::GroupCommitDally), 0);
    }

    /// A committer that arrives while the leader's barrier runs counts in
    /// that group, so when it leads next it gathers for the committer that
    /// left (one window, which nobody fills), then syncs alone.
    #[test]
    fn an_arrival_during_the_barrier_counts_toward_the_next_gather() {
        let window = Duration::from_millis(20);
        let gc = Arc::new(GroupCommit::new(window, MonotonicClock::new()));
        let waits = Arc::new(WaitRegistry::new());
        gc.set_wait_registry(Arc::clone(&waits));
        let (entered, release) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let leader = {
            let (gc, entered, release) =
                (Arc::clone(&gc), Arc::clone(&entered), Arc::clone(&release));
            std::thread::spawn(move || {
                gc.wait_durable(1, || {
                    entered.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    Ok(1)
                })
            })
        };
        while !entered.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        let follower = {
            let gc = Arc::clone(&gc);
            std::thread::spawn(move || gc.wait_durable(2, || Ok(2)))
        };
        while gc.inner.lock().waiters < 2 {
            std::hint::spin_loop();
        }
        release.store(true, Ordering::SeqCst);
        assert_eq!(leader.join().unwrap().unwrap(), 1);
        assert_eq!(follower.join().unwrap().unwrap(), 2);
        assert_eq!(waits.counters().count(WaitEvent::GroupCommitDally), 1);
        assert_eq!(gc.inner.lock().last_peak, 1, "the follower's own group");
        assert_eq!(gc.stats().groups, 2);
    }
}
