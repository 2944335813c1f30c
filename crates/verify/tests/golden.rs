//! Golden tests: each fixture tree under `fixtures/` produces exactly the
//! expected diagnostics, the CLI exits non-zero on every fixture, and the
//! real workspace passes clean (modulo the checked-in allowlist).

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// (check, category, file, line, func) for every violation, in report order.
fn summarize(report: &ingot_verify::Report) -> Vec<(String, String, String, usize, String)> {
    report
        .violations
        .iter()
        .map(|v| {
            (
                v.check.to_string(),
                v.category.clone(),
                v.file.clone(),
                v.line,
                v.func.clone(),
            )
        })
        .collect()
}

fn run(name: &str) -> ingot_verify::Report {
    ingot_verify::run(&fixture(name), None).expect("fixture scan")
}

fn s(x: &str) -> String {
    x.to_string()
}

#[test]
fn lock_order_fixture_diagnostics() {
    let r = run("lock_order");
    assert_eq!(
        summarize(&r),
        vec![
            (
                s("lock-order"),
                s("ddl-write"),
                s("crates/core/src/engine/ddl.rs"),
                4,
                s("sneaky_ddl"),
            ),
            (
                s("lock-order"),
                s("lock-under-guard"),
                s("crates/core/src/engine/ddl.rs"),
                5,
                s("sneaky_ddl"),
            ),
        ],
        "allowlisted `run_ddl` must not be flagged; `sneaky_ddl` must be"
    );
}

#[test]
fn panic_fixture_diagnostics() {
    let r = run("panic");
    assert_eq!(
        summarize(&r),
        vec![
            (
                s("panic"),
                s("index"),
                s("crates/storage/src/hot.rs"),
                4,
                s("head"),
            ),
            (
                s("panic"),
                s("unwrap"),
                s("crates/storage/src/hot.rs"),
                8,
                s("must"),
            ),
            (
                s("panic"),
                s("expect"),
                s("crates/storage/src/hot.rs"),
                12,
                s("must_msg"),
            ),
        ],
        "neither the #[cfg(test)] unwrap nor the `&'a [u8]` slice type may be flagged"
    );
    // Stable ratchet keys.
    let keys: Vec<String> = r.violations.iter().map(|v| v.key()).collect();
    assert_eq!(
        keys,
        vec![
            "index\tcrates/storage/src/hot.rs\thead\t1",
            "unwrap\tcrates/storage/src/hot.rs\tmust\t1",
            "expect\tcrates/storage/src/hot.rs\tmust_msg\t1",
        ]
    );
}

#[test]
fn clock_fixture_diagnostics() {
    let r = run("clock");
    assert_eq!(
        summarize(&r),
        vec![(
            s("clock"),
            s("raw-clock"),
            s("crates/executor/src/timing.rs"),
            4,
            s("now_ms"),
        )]
    );
}

#[test]
fn ima_fixture_diagnostics() {
    let r = run("ima");
    assert_eq!(
        summarize(&r),
        vec![
            (
                s("ima"),
                s("undocumented"),
                s("crates/core/src/ima.rs"),
                0,
                s("<registry>"),
            ),
            (
                s("ima"),
                s("untested"),
                s("crates/core/src/ima.rs"),
                0,
                s("<registry>"),
            ),
        ],
        "ima$covered is documented and tested; only ima$orphan may be flagged"
    );
    for v in &r.violations {
        assert!(v.message.contains("ima$orphan"), "{}", v.message);
    }
}

#[test]
fn error_type_fixture_diagnostics() {
    let r = run("error_type");
    assert_eq!(
        summarize(&r),
        vec![(
            s("error-type"),
            s("stringly"),
            s("crates/core/src/engine/mod.rs"),
            11,
            s("bad"),
        )],
        "only the pub fn returning Result<_, String> may be flagged; \
         private fns, test helpers and non-String errors are exempt"
    );
}

#[test]
fn wal_ack_fixture_diagnostics() {
    let r = run("wal_ack");
    assert_eq!(
        summarize(&r),
        vec![
            (
                s("wal-ack"),
                s("ack-before-barrier"),
                s("crates/core/src/engine/commit.rs"),
                9,
                s("commit_txn"),
            ),
            (
                s("wal-ack"),
                s("ack-outside-commit-path"),
                s("crates/core/src/engine/commit.rs"),
                16,
                s("sneaky_ack"),
            ),
            (
                s("wal-ack"),
                s("ack-outside-commit-path"),
                s("crates/core/src/engine/commit.rs"),
                20,
                s("sneaky_read_only_ack"),
            ),
        ],
        "the post-barrier ack, the read-only ack in `commit_txn` and the \
         #[cfg(test)] ack must not be flagged; the pre-barrier ack and both \
         sneaky acks must be"
    );
    // The flow engine names the unprotected CFG path in its diagnostic.
    assert!(
        r.violations[0].message.contains("unprotected path"),
        "{}",
        r.violations[0].message
    );
}

#[test]
fn mvcc_locks_fixture_diagnostics() {
    let r = run("mvcc_locks");
    assert_eq!(
        summarize(&r),
        vec![
            (
                s("mvcc-locks"),
                s("commit-without-validation"),
                s("crates/core/src/engine/commit.rs"),
                6,
                s("commit_txn"),
            ),
            (
                s("mvcc-locks"),
                s("table-x-outside-ddl"),
                s("crates/core/src/engine/ddl.rs"),
                8,
                s("eager_update"),
            ),
        ],
        "the allowlisted DDL table-X, the shared fence + row-X shape, and \
         the #[cfg(test)] table-X must not be flagged; the DML table-X and \
         the unvalidated ack must be"
    );
}

#[test]
fn waits_fixture_diagnostics() {
    let r = run("waits");
    assert_eq!(
        summarize(&r),
        vec![
            (
                s("waits"),
                s("undocumented"),
                s("crates/common/src/waits.rs"),
                3,
                s("<taxonomy>"),
            ),
            (
                s("waits"),
                s("untested"),
                s("crates/common/src/waits.rs"),
                3,
                s("<taxonomy>"),
            ),
            (
                s("waits"),
                s("guard-outside-module"),
                s("crates/executor/src/rogue.rs"),
                4,
                s("sneaky_wait"),
            ),
        ],
        "`Covered` is documented+tested and the guard in txn/lock.rs is \
         allowlisted; only `Orphan` and the rogue guard may be flagged"
    );
    for v in &r.violations[..2] {
        assert!(v.message.contains("Orphan"), "{}", v.message);
    }
}

#[test]
fn wal_order_fixture_diagnostics() {
    let r = run("wal_order");
    assert_eq!(
        summarize(&r),
        vec![(
            s("wal-order"),
            s("stamp-before-durable"),
            s("crates/core/src/engine/commit.rs"),
            13,
            s("hasty_stamp"),
        )],
        "the barrier-dominated stamp in `commit_txn` and the #[cfg(test)] \
         stamp must not be flagged; the stamp that skips the barrier must be"
    );
    assert!(
        r.violations[0].message.contains("unprotected path"),
        "{}",
        r.violations[0].message
    );
}

#[test]
fn wait_coverage_fixture_diagnostics() {
    let r = run("wait_coverage");
    assert_eq!(
        summarize(&r),
        vec![(
            s("wait-coverage"),
            s("unguarded-blocking"),
            s("crates/storage/src/buffer.rs"),
            6,
            s("pin_blocking"),
        )],
        "the guarded wait, the helper whose every call site holds a guard, \
         and the #[cfg(test)] wait must not be flagged; the bare wait must be"
    );
}

#[test]
fn swallowed_fixture_diagnostics() {
    let r = run("swallowed");
    assert_eq!(
        summarize(&r),
        vec![
            (
                s("swallowed-results"),
                s("let-underscore"),
                s("crates/txn/src/undo.rs"),
                4,
                s("apply"),
            ),
            (
                s("swallowed-results"),
                s("ok-discard"),
                s("crates/txn/src/undo.rs"),
                5,
                s("apply"),
            ),
        ],
        "the counted error, the bound `.ok()`, the exempt condvar-wait \
         discard and the #[cfg(test)] discard must not be flagged"
    );
}

#[test]
fn stamp_order_fixture_diagnostics() {
    let r = run("stamp_order");
    assert_eq!(
        summarize(&r),
        vec![
            (
                s("mvcc-stamp-order"),
                s("stamp-before-reserve"),
                s("crates/core/src/engine/commit.rs"),
                14,
                s("unreserved_stamp"),
            ),
            (
                s("mvcc-stamp-order"),
                s("stamp-after-release"),
                s("crates/core/src/engine/commit.rs"),
                22,
                s("late_stamp"),
            ),
        ],
        "the reserve → barrier → stamp → publish shape in `commit_txn` and \
         the #[cfg(test)] stamp must not be flagged; the unreserved stamp \
         and the post-publish stamp must be"
    );
}

/// Checks 2, 5 and 11 cover the whole engine directory, not one file name:
/// each of the three sites in a file of it is flagged.
#[test]
fn engine_modules_fixture_diagnostics() {
    let r = run("engine_modules");
    let file = "crates/core/src/engine/session.rs";
    assert_eq!(
        summarize(&r),
        vec![
            (s("error-type"), s("stringly"), s(file), 5, s("execute")),
            (s("panic"), s("unwrap"), s(file), 6, s("execute")),
            (
                s("swallowed-results"),
                s("let-underscore"),
                s(file),
                7,
                s("execute"),
            ),
        ]
    );
}

#[test]
fn display_format_is_stable() {
    let r = run("clock");
    let line = r.violations[0].to_string();
    assert!(
        line.starts_with("crates/executor/src/timing.rs:4: [clock/raw-clock] Instant::now"),
        "diagnostic format changed: {line}"
    );
}

#[test]
fn wire_compat_fixture_diagnostics() {
    // Six findings: an unmapped Error variant, a PROTOCOL_VERSION the ledger
    // has no entry for, a duplicated code, a table entry naming a vanished
    // variant, a stale section hash, and non-increasing ledger versions.
    let r = run("wire_compat");
    assert_eq!(
        summarize(&r),
        vec![
            (
                s("wire-compat"),
                s("missing-code"),
                s("crates/common/src/error.rs"),
                7,
                s("<wire>"),
            ),
            (
                s("wire-compat"),
                s("version-mismatch"),
                s("crates/common/src/wire.rs"),
                4,
                s("<wire>"),
            ),
            (
                s("wire-compat"),
                s("duplicate-code"),
                s("crates/common/src/wire.rs"),
                15,
                s("<wire>"),
            ),
            (
                s("wire-compat"),
                s("unknown-variant"),
                s("crates/common/src/wire.rs"),
                16,
                s("<wire>"),
            ),
            (
                s("wire-compat"),
                s("ledger-stale"),
                s("crates/common/wire_layout.txt"),
                0,
                s("<wire>"),
            ),
            (
                s("wire-compat"),
                s("version-order"),
                s("crates/common/wire_layout.txt"),
                0,
                s("<wire>"),
            ),
        ]
    );
}

#[test]
fn wire_compat_clean_fixture_passes() {
    // A consistent enum/table/ledger triple produces no findings; the
    // satellite discipline is "touch the layout ⇒ bump version + ledger",
    // not "never touch the layout".
    let r = run("wire_compat_clean");
    assert_eq!(
        summarize(&r),
        vec![],
        "clean wire fixture must verify clean"
    );
}

#[test]
fn allowlist_grandfathers_and_ratchets() {
    // Allowlist exactly one of the panic fixture's three sites: two fresh
    // violations remain. A bogus entry is reported stale.
    let dir = std::env::temp_dir().join(format!("ingot-verify-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let allow = dir.join("allow.txt");
    std::fs::write(
        &allow,
        "# comment\nunwrap\tcrates/storage/src/hot.rs\tmust\t1\n\
         unwrap\tcrates/storage/src/hot.rs\tgone_fn\t1\n",
    )
    .unwrap();
    let r = ingot_verify::run(&fixture("panic"), Some(&allow)).expect("scan");
    assert_eq!(r.allowlisted, 1);
    assert_eq!(r.violations.len(), 2);
    assert_eq!(
        r.stale,
        vec!["unwrap\tcrates/storage/src/hot.rs\tgone_fn\t1"]
    );
    assert!(!r.clean(), "stale entries must fail the run");
    std::fs::remove_dir_all(&dir).ok();
}

const FIXTURES: &[&str] = &[
    "lock_order",
    "panic",
    "clock",
    "ima",
    "error_type",
    "wal_ack",
    "mvcc_locks",
    "waits",
    "wire_compat",
    "wal_order",
    "wait_coverage",
    "swallowed",
    "stamp_order",
    "engine_modules",
];

#[test]
fn cli_exits_nonzero_on_every_fixture() {
    let bin = env!("CARGO_BIN_EXE_ingot-verify");
    for case in FIXTURES {
        let out = Command::new(bin)
            .args(["--root"])
            .arg(fixture(case))
            .output()
            .expect("spawn ingot-verify");
        assert_eq!(out.status.code(), Some(1), "fixture {case} must fail");
    }
    // The removed `--lexical` engine switch is now just an unknown argument.
    let out = Command::new(bin)
        .args(["--lexical", "--root"])
        .arg(fixture("clock"))
        .output()
        .expect("spawn ingot-verify");
    assert_eq!(
        out.status.code(),
        Some(2),
        "--lexical must be a usage error"
    );
}

#[test]
fn github_annotation_mode_is_parseable() {
    let bin = env!("CARGO_BIN_EXE_ingot-verify");
    let out = Command::new(bin)
        .args(["--github", "--root"])
        .arg(fixture("wal_order"))
        .output()
        .expect("spawn ingot-verify");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ann: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("::error "))
        .collect();
    assert_eq!(ann.len(), 1, "{stdout}");
    assert!(
        ann[0].starts_with("::error file=crates/core/src/engine/commit.rs,line=13::[wal-order/"),
        "{}",
        ann[0]
    );
}

#[test]
fn real_workspace_is_clean() {
    let bin = env!("CARGO_BIN_EXE_ingot-verify");
    let out = Command::new(bin)
        .args(["--root"])
        .arg(workspace_root())
        .output()
        .expect("spawn ingot-verify");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "the workspace must satisfy its own invariants:\n{stdout}"
    );
    assert!(stdout.contains("workspace clean"), "{stdout}");
}

/// Check 4 finds the registry by scanning literals; if they moved out of the
/// scanned file it would pass with nothing to check.
#[test]
fn ima_check_scans_the_whole_registry() {
    let files = ingot_verify::scan::scan_workspace(&workspace_root()).expect("scan workspace");
    let mut expected: Vec<String> = ingot_core::IMA_TABLE_NAMES
        .iter()
        .chain([
            &ingot_core::IMA_DAEMON_HEALTH,
            &ingot_core::IMA_CONNECTIONS,
            &ingot_core::IMA_SERVER,
        ])
        .map(|name| name.to_string())
        .collect();
    expected.sort();
    assert_eq!(expected.len(), 21);
    assert_eq!(ingot_verify::checks::ima_registry(&files), expected);
}
