#![forbid(unsafe_code)]
//! `ingot-verify` — project-specific static analysis for the Ingot workspace.
//!
//! The compiler cannot see Ingot's concurrency disciplines (PR 3) or the
//! paper's monitoring-overhead accounting; this crate checks them as source
//! invariants, the same "watch yourself continuously" stance the engine
//! applies to workloads:
//!
//! 1. **lock-order** — `catalog.write()` (the DDL guard) only from
//!    allowlisted DDL handlers; no table-lock acquisition on any CFG path
//!    where a write guard may still be live.
//! 2. **panic** — `.unwrap()` / `.expect()` / direct indexing budgeted in
//!    hot-path modules via a checked-in ratchet allowlist; indexing sites
//!    dominated by their own bounds check are discharged by the prover.
//! 3. **clock** — raw `Instant::now` / `SystemTime::now` only in
//!    trace/daemon/bench, so `monitor_ns` keeps meaning what Fig 5 says.
//! 4. **ima** — every registered `ima$…` virtual table is documented and
//!    referenced by at least one test.
//! 5. **error-type** — `pub fn`s of the embedding API (`core::engine`)
//!    never return `Result<_, String>`; errors cross the API boundary as
//!    `ingot_common::Error` so callers can match on kinds.
//! 6. **wal-ack** — `txns.commit(…)` (the commit acknowledgement) only in
//!    the engine commit path, and only when the WAL durability barrier
//!    dominates it on every CFG path, so no path reports success for a
//!    commit that cannot survive a crash.
//! 7. **waits** — every `WaitEvent` taxonomy variant is documented in
//!    DESIGN.md and referenced by a test, and wait guards are constructed
//!    only inside the instrumented modules (lock queue, WAL, buffer pool,
//!    daemon catch-up).
//! 8. **mvcc-locks** — table-exclusive locks only from the DDL allowlist
//!    (row-level MVCC: DML takes the shared fence plus row locks, queries
//!    take none), and the engine commit path never acknowledges a commit
//!    unless first-committer-wins validation (`validate_write_set`)
//!    dominates the acknowledgement.
//! 9. **wal-order** — version stamping (`apply_version_commit`) is
//!    dominated by the WAL durability barrier: no path may expose committed
//!    versions whose Commit record could still be lost.
//! 10. **wait-coverage** — known blocking calls in the instrumented modules
//!     are dominated by a live `WaitGuard`, directly or at every call site
//!     of the enclosing helper, so no wait time escapes the ASH pipeline.
//! 11. **swallowed-results** — `let _ = …` and trailing `.ok();` may not
//!     discard a `Result` in storage/txn/core::engine outside the reviewed
//!     policy allowlist.
//! 12. **mvcc-stamp-order** — stamping never precedes the commit-ticket
//!     reservation and never follows publish/watermark release on any path.
//! 13. **wire-compat** — the `Error` enum and the wire `WIRE_CODE_TABLE`
//!     describe the same closed set (every variant mapped, no numeric code
//!     claimed twice), and the frame-layout ledger is current: versions
//!     strictly increasing, newest entry matching `PROTOCOL_VERSION`, and
//!     its hash matching the frames section — so any layout change forces
//!     a version bump plus a ledger entry.
//!
//! Checks 1, 6 and 8–12 run on a per-function control-flow graph with a
//! forward dataflow pass (see [`syntax`], [`cfg`](mod@cfg), [`dataflow`],
//! [`callgraph`], [`flow`]), which also discharges bounds-checked indexing
//! for check 2; the remaining checks are token-level (see [`checks`]).
//!
//! `syn` is deliberately not used: the checks operate on a comment- and
//! literal-stripped token stream (see [`lexer`]), which keeps the tool
//! dependency-free and buildable offline.

pub mod allowlist;
pub mod callgraph;
pub mod cfg;
pub mod checks;
pub mod dataflow;
pub mod flow;
pub mod lexer;
pub mod policy;
pub mod scan;
pub mod syntax;

use std::path::Path;

pub use checks::Violation;

/// Aggregate result of a verification run.
pub struct Report {
    /// Violations that fail the run (not allowlisted).
    pub violations: Vec<Violation>,
    /// Panic-freedom sites grandfathered by the allowlist.
    pub allowlisted: usize,
    /// Allowlist entries with no matching site (ratchet: must be removed).
    pub stale: Vec<String>,
}

impl Report {
    /// Does this run pass?
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty()
    }
}

/// Run every check over the workspace at `root`. The panic-freedom check is
/// filtered through the allowlist at `allowlist_path` when given.
pub fn run(root: &Path, allowlist_path: Option<&Path>) -> std::io::Result<Report> {
    let files = scan::scan_workspace(root)?;

    let mut violations = checks::check_clock_hygiene(&files);
    violations.extend(checks::check_ima_completeness(root, &files));
    violations.extend(checks::check_error_discipline(&files));
    violations.extend(checks::check_wait_events(root, &files));
    violations.extend(checks::check_wire_compat(root, &files));
    violations.extend(flow::run_flow_checks(&files));

    let panic_violations = checks::check_panic_budget(&files);
    let (fresh, allowlisted, stale) = match allowlist_path {
        Some(p) if p.is_file() => {
            let allow = allowlist::load(p)?;
            allowlist::apply(panic_violations, &allow)
        }
        _ => (panic_violations, 0, Vec::new()),
    };
    violations.extend(fresh);
    violations.sort_by(|a, b| (&a.file, a.line, &a.category).cmp(&(&b.file, b.line, &b.category)));
    Ok(Report {
        violations,
        allowlisted,
        stale,
    })
}

/// Raw panic-freedom scan (no allowlist) — used by `--bless`, which must see
/// exactly the sites (and ordinals) [`run`] does.
pub fn panic_scan(root: &Path) -> std::io::Result<Vec<Violation>> {
    Ok(checks::check_panic_budget(&scan::scan_workspace(root)?))
}
