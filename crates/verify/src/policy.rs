//! The invariant catalogue: which crates/modules each check covers and the
//! built-in exemptions. Kept in one place so the policy is reviewable.
//!
//! See DESIGN.md "Static analysis & model checking" for the rationale behind
//! each entry.

/// Crates whose `src/` is a panic-freedom hot path: `.unwrap()`, `.expect()`
/// and direct slice indexing are budgeted (allowlist-only) here.
pub const HOT_PATH_CRATES: &[&str] = &["storage", "txn", "executor"];

/// Hot-path files outside the crates above, as path prefixes: an entry
/// ending in `/` covers every file of that directory.
pub const HOT_PATH_FILES: &[&str] = &["crates/core/src/engine/"];

/// Does a path-prefix list ([`HOT_PATH_FILES`], [`ERROR_DISCIPLINE_FILES`],
/// [`SWALLOW_FILES`]) cover the workspace-relative `rel_path`?
pub fn covers(prefixes: &[&str], rel_path: &str) -> bool {
    prefixes.iter().any(|p| rel_path.starts_with(p))
}

/// Crates checked for lock-order discipline (`catalog.write()` reachable
/// only from the DDL allowlist, no lock acquisition under the DDL guard).
pub const LOCK_ORDER_CRATES: &[&str] = &["core", "executor", "txn", "daemon", "analyzer"];

/// `(file suffix, function)` pairs allowed to open the catalog write guard:
/// the one DDL handler, which acquires its logical table lock *before* the
/// guard. What-if costing works on a private copy and publishes nothing.
pub const DDL_WRITERS: &[(&str, &str)] = &[("crates/core/src/engine/ddl.rs", "change_schema")];

/// Crates that may call `Instant::now` / `SystemTime::now` directly: the
/// wall-clock wrapper itself, the tracing subsystem, the storage daemon and
/// the benchmark harness. Everything else must route through
/// `ingot_common::clock` so monitoring overhead stays attributable.
pub const CLOCK_EXEMPT_CRATES: &[&str] = &["trace", "daemon", "bench", "loom-shim"];

/// Files exempt from the clock check by name.
pub const CLOCK_EXEMPT_FILES: &[&str] = &["crates/common/src/clock.rs"];

/// The file naming every `ima$…` virtual table (the IMA registry).
pub const IMA_REGISTRY_FILE: &str = "crates/core/src/ima.rs";

/// Files whose `pub fn`s form the embedding API: their fallible returns
/// must use `ingot_common::Result`, never `Result<_, String>`. Path
/// prefixes, like [`HOT_PATH_FILES`].
pub const ERROR_DISCIPLINE_FILES: &[&str] = &["crates/core/src/engine/"];

/// Crates scanned for commit-acknowledgement discipline: `txns.commit(…)`
/// (the point at which a commit becomes visible to other sessions and is
/// reported successful) may appear only in [`WAL_COMMIT_FNS`], and there
/// only after the WAL durability barrier.
pub const WAL_ACK_CRATES: &[&str] = &["core", "executor", "txn", "daemon", "analyzer"];

/// `(file suffix, function)` pairs allowed to acknowledge a commit. The
/// single sanctioned path is `Engine::commit_txn`, which appends the
/// `Commit` record and waits on `commit_barrier` before calling
/// `txns.commit`.
pub const WAL_COMMIT_FNS: &[(&str, &str)] = &[("crates/core/src/engine/commit.rs", "commit_txn")];

/// Crates scanned for MVCC locking discipline (check 8): table-exclusive
/// locks only from DDL, and no commit acknowledgement without
/// first-committer-wins validation.
pub const MVCC_LOCK_CRATES: &[&str] = &["core", "executor", "txn", "daemon", "analyzer"];

/// `(file suffix, function)` pairs allowed to take a **table-exclusive**
/// lock (a literal `LockMode::Exclusive` on a `Resource::Table`, or an
/// exclusive `with_table_lock_by_name`). Row-level MVCC (PR 8) reserves
/// table-X for DDL: queries take no table locks and DML takes only the
/// shared DDL fence plus row-exclusive chain-root locks.
pub const TABLE_X_LOCK_FNS: &[(&str, &str)] = &[("crates/core/src/engine/ddl.rs", "run_ddl")];

/// The file declaring the closed wait-event taxonomy (`enum WaitEvent`).
/// Every variant must be documented in DESIGN.md and referenced from a test.
pub const WAIT_EVENTS_FILE: &str = "crates/common/src/waits.rs";

/// Files allowed to construct wait guards (`WaitGuard::begin` /
/// `WaitGuard::ambient`) outside test code. These are the instrumented
/// choke points: the taxonomy itself, the lock queue, the transaction gates
/// (quiesce / commit publish), the WAL barriers, the buffer pool, and the
/// daemon's catch-up loop. Guards anywhere else would charge wait time the
/// DESIGN.md taxonomy does not account for.
pub const WAIT_GUARD_FILES: &[&str] = &[
    "crates/common/src/waits.rs",
    "crates/txn/src/lock.rs",
    "crates/txn/src/lib.rs",
    "crates/storage/src/wal.rs",
    "crates/storage/src/buffer.rs",
    "crates/catalog/src/table.rs",
    "crates/daemon/src/lib.rs",
];

/// Files scanned by the flow-sensitive wait-coverage check (check 10):
/// every known blocking call in them must be dominated by a live
/// `WaitGuard`, either directly or at every same-crate call site of the
/// enclosing helper. These are the modules that block by design — the same
/// instrumented choke points as [`WAIT_GUARD_FILES`] plus the transaction
/// manager, whose gates (admission, quiescence, commit publish) also park.
pub const WAIT_COVERAGE_FILES: &[&str] = &[
    "crates/txn/src/lock.rs",
    "crates/txn/src/lib.rs",
    "crates/storage/src/wal.rs",
    "crates/storage/src/buffer.rs",
    "crates/catalog/src/table.rs",
    "crates/daemon/src/lib.rs",
];

/// Call names that block the calling thread. A token from this list followed
/// by `(` inside a [`WAIT_COVERAGE_FILES`] file is a blocking site.
pub const BLOCKING_CALLS: &[&str] = &[
    "wait",
    "wait_for",
    "wait_while",
    "wait_timeout",
    "wait_timeout_while",
    "sync_all",
    "sync_data",
    "sleep",
    "park",
    "recv",
    "recv_timeout",
];

/// `(file suffix, function)` pairs exempt from wait-coverage. Each entry
/// needs a rationale:
/// * `wal.rs open_in_dir` runs once at startup before any session exists;
///   its torn-tail truncation fsync cannot be attributed to a session.
/// * `wal.rs sync_file` is the raw device-sync helper: the real barrier
///   paths (`sync_to`, `truncate_to`) hold the `WalFsync` guard at the
///   call site, and the remaining caller is the simulated power-cut
///   torn-tail write, where no session is waiting.
/// * `daemon lib.rs spawn` is the monitor's pacing sleep — the daemon
///   wakes on a wall-clock interval by design; it is idle, not waiting.
pub const WAIT_EXEMPT_FNS: &[(&str, &str)] = &[
    ("crates/storage/src/wal.rs", "open_in_dir"),
    ("crates/storage/src/wal.rs", "sync_file"),
    ("crates/daemon/src/lib.rs", "spawn"),
];

/// Crates whose `src/` is scanned for swallowed `Result`s (check 11).
pub const SWALLOW_CRATES: &[&str] = &["storage", "txn"];

/// Files outside the crates above scanned for swallowed `Result`s. Path
/// prefixes, like [`HOT_PATH_FILES`].
pub const SWALLOW_FILES: &[&str] = &["crates/core/src/engine/"];

/// Callee names whose result may be discarded: condvar wait wrappers return
/// a guard/timeout pair the caller already holds by other means.
pub const SWALLOW_EXEMPT_CALLEES: &[&str] = &[
    "wait",
    "wait_for",
    "wait_while",
    "wait_timeout",
    "wait_timeout_while",
];

/// `(file suffix, function)` pairs allowed to discard a `Result`, each with
/// a reviewed rationale:
/// * `wal.rs append` / `wal.rs power_cut` — the torn-tail branch and the
///   crash helper simulate a power cut mid write: the truncate/write/sync
///   of the surviving prefix are best-effort device modelling, and the
///   caller already returns the injected crash error.
/// * `recovery.rs write_manifest` — the directory fsync after the manifest
///   rename is best-effort: opening a directory for sync is not supported
///   on every platform, and the file's own fsync already happened.
/// * `engine/commit.rs abort_txn_with` appends the Abort WAL record
///   best-effort: the abort must complete even when the log device is gone,
///   and recovery treats a missing Abort record identically.
pub const SWALLOW_ALLOW: &[(&str, &str)] = &[
    ("crates/storage/src/wal.rs", "append"),
    ("crates/storage/src/wal.rs", "power_cut"),
    ("crates/storage/src/recovery.rs", "write_manifest"),
    ("crates/core/src/engine/commit.rs", "abort_txn_with"),
];

/// The file declaring the workspace `enum Error` (check 13 cross-checks
/// its variants against the wire code table).
pub const WIRE_ERROR_FILE: &str = "crates/common/src/error.rs";

/// The file declaring `WIRE_CODE_TABLE` and `PROTOCOL_VERSION`.
pub const WIRE_PROTOCOL_FILE: &str = "crates/common/src/wire.rs";

/// The append-only wire-layout ledger: `version N hash <fnv1a64>` header
/// lines, a `---` separator, then the frame-layout descriptor section the
/// last header line must hash.
pub const WIRE_LEDGER_FILE: &str = "crates/common/wire_layout.txt";

/// Rust keywords that cannot be an indexed expression head; a `[` following
/// one of these is an array literal, type, or pattern — not indexing.
pub const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "return", "as", "move", "static", "const",
    "crate", "super", "use", "pub", "fn", "impl", "for", "while", "loop", "where", "dyn", "box",
    "break", "continue", "struct", "enum", "trait", "type", "mod", "unsafe", "async", "await",
    "self", "Self",
];
