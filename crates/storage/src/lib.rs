#![forbid(unsafe_code)]
//! Storage subsystem of the Ingot DBMS.
//!
//! Everything below the executor lives here: fixed-size [`page::Page`]s, the
//! pluggable [`disk::DiskBackend`] (in-memory or file-backed, both with full
//! I/O accounting through the [`model::DiskModel`]), an LRU [`buffer::BufferPool`],
//! [`heap::HeapFile`]s with Ingres-style *main pages + overflow chains*, and a
//! page-based [`btree::BTreeFile`] used both as a table storage structure and
//! for secondary indexes.
//!
//! The paper's evaluation hinges on I/O behaviour (full table scans versus
//! index lookups, overflow-page penalties, the daemon's periodic writes), so
//! every physical read and write is counted and priced by the disk model.

pub mod btree;
pub mod buffer;
pub mod codec;
pub mod disk;
pub mod fault;
pub mod heap;
pub mod model;
pub mod page;
pub mod recovery;
pub mod wal;

pub use btree::BTreeFile;
pub use buffer::{BufferPool, BufferStats};
pub use codec::{
    decode_row, decode_row_cols, decode_row_cols_into, encode_key, encode_row, Cell, RowCells,
};
pub use disk::{DiskBackend, FileBackend, FileId, MemoryBackend};
pub use fault::{FaultEffect, FaultInjectingBackend, FaultOp, FaultPlan, FaultRule, FaultStats};
pub use heap::{HeapFile, HeapStats, RowId, VersionMeta, VERSION_HEADER};
pub use model::{DiskModel, IoStats};
pub use page::{Page, PAGE_SIZE};
pub use wal::{
    GroupCommit, GroupCommitStats, Lsn, SalvageReport, Wal, WalEntry, WalRecord, WalStats,
    RESERVE_STEP, WAL_FILE,
};

use std::sync::Arc;

use ingot_common::{EngineConfig, Result, SimClock};

/// The storage engine: one disk backend + one shared buffer pool.
///
/// One `StorageEngine` backs one database. Tables and indexes each own a
/// [`FileId`] within it, so the buffer pool models the *database-wide* memory
/// budget exactly like the DBMS cache the paper's 1m-test exercises.
#[derive(Clone)]
pub struct StorageEngine {
    pool: Arc<BufferPool>,
}

impl StorageEngine {
    /// Create a storage engine with an in-memory backend (default for tests
    /// and simulation-driven experiments).
    pub fn in_memory(config: &EngineConfig, clock: SimClock) -> Self {
        let model = DiskModel::new(clock);
        let backend: Box<dyn DiskBackend> = Box::new(MemoryBackend::new());
        StorageEngine {
            pool: Arc::new(BufferPool::new(backend, model, config.buffer_pool_pages)),
        }
    }

    /// Create a storage engine writing real files under `dir` (used by the
    /// workload database so the daemon's disk writes are genuine).
    pub fn file_backed(
        dir: impl Into<std::path::PathBuf>,
        config: &EngineConfig,
        clock: SimClock,
    ) -> Result<Self> {
        let backend: Box<dyn DiskBackend> = Box::new(FileBackend::open(dir.into())?);
        Ok(Self::with_backend(backend, config, clock))
    }

    /// Create a storage engine over an arbitrary backend (fault-injection
    /// wrappers, custom stores).
    pub fn with_backend(
        backend: Box<dyn DiskBackend>,
        config: &EngineConfig,
        clock: SimClock,
    ) -> Self {
        let model = DiskModel::new(clock);
        StorageEngine {
            pool: Arc::new(BufferPool::new(backend, model, config.buffer_pool_pages)),
        }
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Create a new storage file (one per table / index).
    pub fn create_file(&self) -> Result<FileId> {
        self.pool.create_file()
    }

    /// Cumulative I/O statistics (physical reads/writes, simulated latency).
    pub fn io_stats(&self) -> IoStats {
        self.pool.io_stats()
    }

    /// Buffer-pool statistics (hits, misses, evictions).
    pub fn buffer_stats(&self) -> BufferStats {
        self.pool.stats()
    }

    /// Durably checkpoint every dirty page together with opaque engine
    /// `meta` bytes. Returns the new checkpoint epoch (0 for backends
    /// without one).
    pub fn checkpoint(&self, meta: &[u8]) -> Result<u64> {
        self.pool.checkpoint(meta)
    }

    /// Metadata stored by the most recent durable checkpoint.
    pub fn checkpoint_meta(&self) -> Result<Option<Vec<u8>>> {
        self.pool.checkpoint_meta()
    }

    /// Epoch of the most recent durable checkpoint (0 when none).
    pub fn checkpoint_epoch(&self) -> u64 {
        self.pool.checkpoint_epoch()
    }

    /// Total pages allocated across all files (on-disk size in pages).
    pub fn total_pages(&self) -> u64 {
        self.pool.total_pages()
    }

    /// Pages allocated to one file.
    pub fn file_pages(&self, file: FileId) -> u64 {
        self.pool.file_pages(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingot_common::EngineConfig;

    #[test]
    fn engine_creates_files() {
        let eng = StorageEngine::in_memory(&EngineConfig::default(), SimClock::new());
        let f1 = eng.create_file().unwrap();
        let f2 = eng.create_file().unwrap();
        assert_ne!(f1, f2);
        assert_eq!(eng.total_pages(), 0);
    }
}
