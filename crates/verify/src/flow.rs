//! Flow-sensitive checks over the CFG/dataflow engine.
//!
//! Checks 1 (lock-order), 6 (wal-ack) and 8 (mvcc-locks) state "X
//! precedes Y" as a genuine dominance query (the fact holds on **every**
//! CFG path into the site), so the discipline survives early returns, `?`
//! edges and helper extraction. Four more checks need path-sensitivity
//! outright:
//!
//! * **9 wal-order** — commit stamping (`apply_version_commit`) is dominated
//!   by the WAL durability barrier on all paths (replay counts: the record
//!   being replayed is the durable record).
//! * **10 wait-coverage** — calls into known blocking sites are dominated by
//!   a live `WaitGuard`, directly or through every call site of the helper.
//! * **11 swallowed-results** — `let _ = …(…)` / trailing `.ok();` may not
//!   discard a `Result` in storage/txn/core::engine outside the policy
//!   allowlist.
//! * **12 mvcc-stamp-order** — stamping never precedes ticket reservation
//!   (`start_commit`) and never follows publish/watermark release on any
//!   path.
//!
//! The panic-freedom ratchet's prover lives here too: an indexing site
//! dominated by its own bounds check (`i < v.len()`) or bounded by a
//! dominating `…min(v.len())` binding is discharged instead of allowlisted.

use std::collections::HashSet;

use crate::callgraph::Program;
use crate::checks::{is_index_head, Violation};
use crate::dataflow::{
    tseq, DDL_GUARD, PUBLISHED, RELEASED, TICKET, VALIDATED, WAIT_GUARD, WAL_DURABLE,
};
use crate::lexer::Token;
use crate::policy;
use crate::scan::SourceFile;
use crate::syntax::{Block, Stmt};

/// Run every flow-sensitive check. Returned violations are unsorted; the
/// caller merges and sorts them with the shared checks.
pub fn run_flow_checks(files: &[SourceFile]) -> Vec<Violation> {
    let program = Program::build(files);
    let mut out = check_lock_order(files, &program);
    out.extend(check_wal_ack(files, &program));
    out.extend(check_mvcc_locks(files, &program));
    out.extend(check_wal_order(files, &program));
    out.extend(check_wait_coverage(files, &program));
    out.extend(check_swallowed_results(files, &program));
    out.extend(check_stamp_order(files, &program));
    out
}

fn in_crates(files: &[SourceFile], pf_file: usize, crates: &[&str]) -> bool {
    files[pf_file]
        .crate_name
        .as_deref()
        .is_some_and(|c| crates.contains(&c))
}

fn allowed_fn(list: &[(&str, &str)], rel_path: &str, func: &str) -> bool {
    list.iter()
        .any(|(f, fun)| rel_path.ends_with(f) && func == *fun)
}

// ---------------------------------------------------------------------------
// Check 1 (flow): lock-order discipline.
// ---------------------------------------------------------------------------

fn check_lock_order(files: &[SourceFile], program: &Program) -> Vec<Violation> {
    let mut out = Vec::new();
    for pf in &program.fns {
        if !in_crates(files, pf.file, policy::LOCK_ORDER_CRATES) {
            continue;
        }
        let file = &files[pf.file];
        let tokens = &file.tokens;
        let func = &pf.def.name;
        for (node, lo, hi) in pf.analysis.spans() {
            for i in lo..hi.min(tokens.len()) {
                let ddl_write = tseq(tokens, i, &["catalog", ".", "write", "(", ")"])
                    || tseq(tokens, i, &["catalog", "(", ")", ".", "write", "(", ")"]);
                if ddl_write && !allowed_fn(policy::DDL_WRITERS, &file.rel_path, func) {
                    out.push(Violation {
                        check: "lock-order",
                        category: "ddl-write".into(),
                        file: file.rel_path.clone(),
                        line: tokens[i].line,
                        func: func.clone(),
                        ordinal: 0,
                        message: format!(
                            "catalog.write() in `{func}` — the DDL guard may only be taken by \
                             the allowlisted DDL handlers (see verify policy); DML/executor \
                             paths must use catalog.read() snapshots"
                        ),
                    });
                }
                let acquires = tseq(tokens, i, &["locks", ".", "lock", "("])
                    || tseq(tokens, i, &["locks", "(", ")", ".", "lock", "("])
                    || (tokens[i].text == "with_table_lock_by_name"
                        && tseq(tokens, i + 1, &["("])
                        && !(i > 0 && tokens[i - 1].text == "fn"));
                // "May" query: a guard live on *any* path into the
                // acquisition inverts the lock order.
                if acquires && pf.analysis.may_in[node] & DDL_GUARD != 0 {
                    let guard_line = pf.analysis.gen_line[0].unwrap_or(0);
                    out.push(Violation {
                        check: "lock-order",
                        category: "lock-under-guard".into(),
                        file: file.rel_path.clone(),
                        line: tokens[i].line,
                        func: func.clone(),
                        ordinal: 0,
                        message: format!(
                            "lock acquisition in `{func}` after binding a catalog write \
                             guard on line {guard_line} — table locks must be taken before \
                             the DDL guard, never under it"
                        ),
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Check 6 (flow): commit-acknowledgement discipline.
// ---------------------------------------------------------------------------

fn check_wal_ack(files: &[SourceFile], program: &Program) -> Vec<Violation> {
    let mut out = Vec::new();
    for pf in &program.fns {
        if !in_crates(files, pf.file, policy::WAL_ACK_CRATES) {
            continue;
        }
        let file = &files[pf.file];
        let tokens = &file.tokens;
        let func = &pf.def.name;
        for (node, lo, hi) in pf.analysis.spans() {
            for i in lo..hi.min(tokens.len()) {
                let direct = tseq(tokens, i, &["txns", ".", "commit", "("])
                    || tseq(tokens, i, &["txns", "(", ")", ".", "commit", "("]);
                let read_only = tseq(tokens, i, &["txns", ".", "commit_read_only", "("])
                    || tseq(tokens, i, &["txns", "(", ")", ".", "commit_read_only", "("]);
                if !direct && !read_only {
                    continue;
                }
                if !allowed_fn(policy::WAL_COMMIT_FNS, &file.rel_path, func) {
                    out.push(Violation {
                        check: "wal-ack",
                        category: "ack-outside-commit-path".into(),
                        file: file.rel_path.clone(),
                        line: tokens[i].line,
                        func: func.clone(),
                        ordinal: 0,
                        message: format!(
                            "txns.commit() in `{func}` — commits may be acknowledged only by \
                             the engine commit path (see verify policy), which makes the WAL \
                             record durable first"
                        ),
                    });
                    continue;
                }
                if read_only {
                    continue; // empty write set: no barrier owed
                }
                if pf.analysis.input[node] & WAL_DURABLE == 0 {
                    let path = pf.analysis.violating_path(tokens, node, WAL_DURABLE);
                    out.push(Violation {
                        check: "wal-ack",
                        category: "ack-before-barrier".into(),
                        file: file.rel_path.clone(),
                        line: tokens[i].line,
                        func: func.clone(),
                        ordinal: 0,
                        message: format!(
                            "txns.commit() in `{func}` is not dominated by the WAL durability \
                             barrier — append the Commit record and wait on commit_barrier on \
                             every path before acknowledging{path}"
                        ),
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Check 8 (flow): MVCC locking discipline.
// ---------------------------------------------------------------------------

fn check_mvcc_locks(files: &[SourceFile], program: &Program) -> Vec<Violation> {
    let mut out = Vec::new();
    for pf in &program.fns {
        if !in_crates(files, pf.file, policy::MVCC_LOCK_CRATES) {
            continue;
        }
        let file = &files[pf.file];
        let tokens = &file.tokens;
        let func = &pf.def.name;
        for (node, lo, hi) in pf.analysis.spans() {
            for i in lo..hi.min(tokens.len()) {
                let head = tseq(tokens, i, &["Resource", ":", ":", "Table"])
                    || (tokens[i].text == "with_table_lock_by_name"
                        && tseq(tokens, i + 1, &["("])
                        && !(i > 0 && tokens[i - 1].text == "fn"));
                let table_x = head
                    && tokens[i..hi.min(tokens.len()).min(i + 12)]
                        .iter()
                        .any(|t| t.text == "Exclusive");
                if table_x && !allowed_fn(policy::TABLE_X_LOCK_FNS, &file.rel_path, func) {
                    out.push(Violation {
                        check: "mvcc-locks",
                        category: "table-x-outside-ddl".into(),
                        file: file.rel_path.clone(),
                        line: tokens[i].line,
                        func: func.clone(),
                        ordinal: 0,
                        message: format!(
                            "table-exclusive lock in `{func}` — only DDL may exclude a \
                             table (see verify policy); DML takes the shared fence plus \
                             row-exclusive chain-root locks"
                        ),
                    });
                }
                let ack = tseq(tokens, i, &["txns", ".", "commit", "("])
                    || tseq(tokens, i, &["txns", "(", ")", ".", "commit", "("]);
                if ack
                    && allowed_fn(policy::WAL_COMMIT_FNS, &file.rel_path, func)
                    && pf.analysis.input[node] & VALIDATED == 0
                {
                    let path = pf.analysis.violating_path(tokens, node, VALIDATED);
                    out.push(Violation {
                        check: "mvcc-locks",
                        category: "commit-without-validation".into(),
                        file: file.rel_path.clone(),
                        line: tokens[i].line,
                        func: func.clone(),
                        ordinal: 0,
                        message: format!(
                            "txns.commit() in `{func}` is not dominated by \
                             validate_write_set — first-committer-wins validation must run \
                             on every path before a commit becomes visible{path}"
                        ),
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Check 9: wal-order — stamping dominated by the durability barrier.
// ---------------------------------------------------------------------------

/// Commit-stamp sites: `…apply_version_commit(` calls (never the definition).
fn stamp_sites(tokens: &[Token], lo: usize, hi: usize) -> Vec<usize> {
    (lo..hi.min(tokens.len()))
        .filter(|&i| {
            tokens[i].text == "apply_version_commit"
                && tseq(tokens, i + 1, &["("])
                && !(i > 0 && tokens[i - 1].text == "fn")
        })
        .collect()
}

fn check_wal_order(files: &[SourceFile], program: &Program) -> Vec<Violation> {
    let mut out = Vec::new();
    for pf in &program.fns {
        if !in_crates(files, pf.file, policy::WAL_ACK_CRATES) {
            continue;
        }
        let file = &files[pf.file];
        let tokens = &file.tokens;
        for (node, lo, hi) in pf.analysis.spans() {
            for i in stamp_sites(tokens, lo, hi) {
                if pf.analysis.input[node] & WAL_DURABLE == 0 {
                    let path = pf.analysis.violating_path(tokens, node, WAL_DURABLE);
                    out.push(Violation {
                        check: "wal-order",
                        category: "stamp-before-durable".into(),
                        file: file.rel_path.clone(),
                        line: tokens[i].line,
                        func: pf.def.name.clone(),
                        ordinal: 0,
                        message: format!(
                            "version stamping in `{}` is not dominated by the WAL durability \
                             barrier — a crash here would expose committed versions whose \
                             Commit record never became durable{path}",
                            pf.def.name
                        ),
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Check 10: wait-coverage — blocking sites under a live WaitGuard.
// ---------------------------------------------------------------------------

fn check_wait_coverage(files: &[SourceFile], program: &Program) -> Vec<Violation> {
    let mut out = Vec::new();
    for pf in &program.fns {
        let file = &files[pf.file];
        if !policy::WAIT_COVERAGE_FILES
            .iter()
            .any(|f| file.rel_path == *f)
        {
            continue;
        }
        let func = &pf.def.name;
        if allowed_fn(policy::WAIT_EXEMPT_FNS, &file.rel_path, func) {
            continue;
        }
        let tokens = &file.tokens;
        let krate = file.crate_name.clone().unwrap_or_default();
        // Covered-by-every-caller is computed once per function.
        let mut caller_covered: Option<bool> = None;
        for (node, lo, hi) in pf.analysis.spans() {
            for i in lo..hi.min(tokens.len()) {
                let blocking = policy::BLOCKING_CALLS.contains(&tokens[i].text.as_str())
                    && tseq(tokens, i + 1, &["("])
                    && !(i > 0 && tokens[i - 1].text == "fn");
                if !blocking || pf.analysis.input[node] & WAIT_GUARD != 0 {
                    continue;
                }
                // Compound statements (`let r = loop { … };`) lower to one
                // CFG span, so a guard bound earlier *inside* the same span
                // is invisible to the node-level dataflow. A bound guard
                // lexically preceding the call within the span covers it:
                // RAII keeps it live at least to the statement's end.
                let in_span_guard = (lo..i).any(|j| {
                    j > 0
                        && tokens[j - 1].text == "="
                        && (tseq(tokens, j, &["WaitGuard", ":", ":", "begin", "("])
                            || tseq(tokens, j, &["WaitGuard", ":", ":", "ambient", "("]))
                });
                if in_span_guard {
                    continue;
                }
                let covered = *caller_covered.get_or_insert_with(|| {
                    let sites = program.callsites(files, &krate, func);
                    !sites.is_empty()
                        && sites.iter().all(|&(caller, cnode)| {
                            program.fns[caller].analysis.input[cnode] & WAIT_GUARD != 0
                        })
                });
                if covered {
                    continue; // helper: every call site holds a guard
                }
                let path = pf.analysis.violating_path(tokens, node, WAIT_GUARD);
                out.push(Violation {
                    check: "wait-coverage",
                    category: "unguarded-blocking".into(),
                    file: file.rel_path.clone(),
                    line: tokens[i].line,
                    func: func.clone(),
                    ordinal: 0,
                    message: format!(
                        "blocking call `{}` in `{func}` is not dominated by a live WaitGuard \
                         (directly or at every call site) — time spent here is invisible to \
                         the wait-event/ASH pipeline{path}",
                        tokens[i].text
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Check 11: swallowed-results.
// ---------------------------------------------------------------------------

fn swallow_scope(file: &SourceFile) -> bool {
    if file.in_tests_dir {
        return false;
    }
    policy::covers(policy::SWALLOW_FILES, &file.rel_path)
        || file
            .crate_name
            .as_deref()
            .is_some_and(|c| policy::SWALLOW_CRATES.contains(&c))
}

fn check_swallowed_results(files: &[SourceFile], program: &Program) -> Vec<Violation> {
    let mut out = Vec::new();
    for pf in &program.fns {
        let file = &files[pf.file];
        if !swallow_scope(file) {
            continue;
        }
        let func = &pf.def.name;
        if allowed_fn(policy::SWALLOW_ALLOW, &file.rel_path, func) {
            continue;
        }
        let tokens = &file.tokens;
        for (_, lo, hi) in pf.analysis.spans() {
            let hi = hi.min(tokens.len());
            // `let _ = …(…);` — the `_` pattern drops (and silences) the
            // value; with a call in the initializer that is almost always a
            // discarded Result.
            if tseq(tokens, lo, &["let", "_", "="]) {
                let first_call = (lo + 3..hi).find(|&i| tokens[i].text == "(");
                if let Some(c) = first_call {
                    let callee = &tokens[c - 1].text;
                    if !policy::SWALLOW_EXEMPT_CALLEES.contains(&callee.as_str()) {
                        out.push(Violation {
                            check: "swallowed-results",
                            category: "let-underscore".into(),
                            file: file.rel_path.clone(),
                            line: tokens[lo].line,
                            func: func.clone(),
                            ordinal: 0,
                            message: format!(
                                "`let _ = {callee}(…)` in `{func}` discards the call's Result \
                                 — handle the error, count it, or add a policy allowlist \
                                 entry with a rationale"
                            ),
                        });
                    }
                }
            }
            // Statement-level `….ok();` — converts the Result to an Option
            // and immediately drops it.
            let terminated = tokens.get(hi).is_some_and(|t| t.text == ";");
            if terminated
                && hi >= lo + 4
                && tseq(tokens, hi - 4, &[".", "ok", "(", ")"])
                && tokens[lo].text != "let"
            {
                out.push(Violation {
                    check: "swallowed-results",
                    category: "ok-discard".into(),
                    file: file.rel_path.clone(),
                    line: tokens[hi - 4].line,
                    func: func.clone(),
                    ordinal: 0,
                    message: format!(
                        "trailing `.ok();` in `{func}` discards a Result — handle the error, \
                         count it, or add a policy allowlist entry with a rationale"
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Check 12: mvcc-stamp-order.
// ---------------------------------------------------------------------------

fn check_stamp_order(files: &[SourceFile], program: &Program) -> Vec<Violation> {
    let mut out = Vec::new();
    for pf in &program.fns {
        if !in_crates(files, pf.file, policy::WAL_ACK_CRATES) {
            continue;
        }
        let file = &files[pf.file];
        let tokens = &file.tokens;
        for (node, lo, hi) in pf.analysis.spans() {
            for i in stamp_sites(tokens, lo, hi) {
                // Stamping after a possible publish/release: a reader could
                // observe the commit before all its versions are stamped.
                if pf.analysis.may_in[node] & (PUBLISHED | RELEASED) != 0 {
                    out.push(Violation {
                        check: "mvcc-stamp-order",
                        category: "stamp-after-release".into(),
                        file: file.rel_path.clone(),
                        line: tokens[i].line,
                        func: pf.def.name.clone(),
                        ordinal: 0,
                        message: format!(
                            "version stamping in `{}` may follow ticket publish / watermark \
                             release — every version must be stamped before the commit \
                             becomes visible to other sessions",
                            pf.def.name
                        ),
                    });
                } else if pf.analysis.input[node] & TICKET == 0 {
                    let path = pf.analysis.violating_path(tokens, node, TICKET);
                    out.push(Violation {
                        check: "mvcc-stamp-order",
                        category: "stamp-before-reserve".into(),
                        file: file.rel_path.clone(),
                        line: tokens[i].line,
                        func: pf.def.name.clone(),
                        ordinal: 0,
                        message: format!(
                            "version stamping in `{}` is not dominated by a commit-ticket \
                             reservation (start_commit) — stamps would carry an unreserved \
                             commit timestamp{path}",
                            pf.def.name
                        ),
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Guarded-index prover (panic-freedom ratchet).
// ---------------------------------------------------------------------------

/// Indexing sites provable panic-free: `(file index, `[` token index)`.
///
/// Two pattern rules, both requiring syntactic dominance (the guard is an
/// ancestor condition / an earlier statement on every path to the site):
///
/// * **R1** — `base[i]` under an enclosing true branch whose condition
///   contains `i < base.len()`.
/// * **R2** — `base[s..e]` where each identifier bound is introduced by a
///   dominating `let` whose initializer clamps with `.min(base.len())`.
pub fn proven_guarded_indexes(files: &[SourceFile], program: &Program) -> HashSet<(usize, usize)> {
    let mut proven = HashSet::new();
    for pf in &program.fns {
        let file = &files[pf.file];
        if !crate::checks::is_hot_path(file) {
            continue;
        }
        let tokens = &file.tokens;
        let mut conds: Vec<(usize, usize)> = Vec::new();
        let mut lets: Vec<(usize, usize)> = Vec::new();
        walk_block(
            &pf.def.body,
            tokens,
            pf.file,
            &mut conds,
            &mut lets,
            &mut proven,
        );
    }
    proven
}

fn walk_block(
    block: &Block,
    tokens: &[Token],
    file_idx: usize,
    conds: &mut Vec<(usize, usize)>,
    lets: &mut Vec<(usize, usize)>,
    proven: &mut HashSet<(usize, usize)>,
) {
    let lets_mark = lets.len();
    for stmt in &block.stmts {
        match stmt {
            Stmt::Simple { lo, hi, .. } | Stmt::LetElse { lo, hi, .. } => {
                prove_sites(tokens, file_idx, *lo, *hi, conds, lets, proven);
                if tokens.get(*lo).is_some_and(|t| t.text == "let") {
                    lets.push((*lo, *hi));
                }
                if let Stmt::LetElse { else_b, .. } = stmt {
                    walk_block(else_b, tokens, file_idx, conds, lets, proven);
                }
            }
            Stmt::Return { lo, hi } | Stmt::Break { lo, hi } | Stmt::Continue { lo, hi } => {
                prove_sites(tokens, file_idx, *lo, *hi, conds, lets, proven);
            }
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                prove_sites(tokens, file_idx, cond.0, cond.1, conds, lets, proven);
                conds.push(*cond);
                walk_block(then_b, tokens, file_idx, conds, lets, proven);
                conds.pop();
                if let Some(e) = else_b {
                    walk_block(e, tokens, file_idx, conds, lets, proven);
                }
            }
            Stmt::Loop {
                head,
                body,
                conditional,
            } => {
                prove_sites(tokens, file_idx, head.0, head.1, conds, lets, proven);
                if *conditional {
                    conds.push(*head);
                }
                walk_block(body, tokens, file_idx, conds, lets, proven);
                if *conditional {
                    conds.pop();
                }
            }
            Stmt::Match { head, arms } => {
                prove_sites(tokens, file_idx, head.0, head.1, conds, lets, proven);
                for arm in arms {
                    walk_block(arm, tokens, file_idx, conds, lets, proven);
                }
            }
            Stmt::Sub { body } => walk_block(body, tokens, file_idx, conds, lets, proven),
        }
    }
    lets.truncate(lets_mark);
}

fn is_lower_ident(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
}

fn prove_sites(
    tokens: &[Token],
    file_idx: usize,
    lo: usize,
    hi: usize,
    conds: &[(usize, usize)],
    lets: &[(usize, usize)],
    proven: &mut HashSet<(usize, usize)>,
) {
    for i in lo..hi.min(tokens.len()) {
        if tokens[i].text != "[" || i == 0 || !is_index_head(&tokens[i - 1].text) {
            continue;
        }
        let base = tokens[i - 1].text.clone();
        // Matching `]`.
        let mut depth = 0i32;
        let mut j = i;
        while j < hi.min(tokens.len()) {
            match tokens[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= hi.min(tokens.len()) {
            continue;
        }
        let inner: Vec<&str> = tokens[i + 1..j].iter().map(|t| t.text.as_str()).collect();
        let ok = match inner.as_slice() {
            // R1: `base[idx]` dominated by `idx < base.len()`.
            [idx] if is_lower_ident(idx) => conds.iter().any(|&(clo, chi)| {
                (clo..chi.min(tokens.len())).any(|k| {
                    tseq(tokens, k, &[idx, "<", &base, ".", "len", "(", ")"])
                        || tseq(
                            tokens,
                            k,
                            &[idx, "<", "self", ".", &base, ".", "len", "(", ")"],
                        )
                })
            }),
            // R2: `base[s..e]` / `base[..e]` with clamped bound bindings.
            _ if inner.contains(&".") => {
                let dots = inner.iter().filter(|t| **t == ".").count();
                if dots != 2 {
                    false
                } else {
                    let bounds: Vec<&str> = inner.iter().copied().filter(|t| *t != ".").collect();
                    !bounds.is_empty()
                        && bounds.iter().all(|b| {
                            if !is_lower_ident(b) {
                                return false;
                            }
                            lets.iter().any(|&(llo, lhi)| {
                                let lhi = lhi.min(tokens.len());
                                let declares = tseq(tokens, llo, &["let", b, "="])
                                    || tseq(tokens, llo, &["let", "mut", b, "="]);
                                let clamped = (llo..lhi)
                                    .any(|k| tseq(tokens, k, &[".", "min", "("]))
                                    && (llo..lhi)
                                        .any(|k| tseq(tokens, k, &[&base, ".", "len", "(", ")"]));
                                declares && clamped
                            })
                        })
                }
            }
            _ => false,
        };
        if ok {
            proven.insert((file_idx, i));
        }
    }
}

/// Entry point used by the panic check: the provably in-bounds index sites.
pub fn guarded_index_filter(files: &[SourceFile]) -> HashSet<(usize, usize)> {
    let program = Program::build(files);
    proven_guarded_indexes(files, &program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{clean, tokenize};

    fn fake_file(rel: &str, krate: &str, src: &str) -> SourceFile {
        SourceFile::for_tests(rel, krate, src)
    }

    #[test]
    fn prover_discharges_bounds_checked_index() {
        let src = "fn f(widths: &mut [usize], i: usize, s: &str) {\n\
                   if i < widths.len() { widths[i] = widths[i].max(s.len()); }\n\
                   widths[i] = 0;\n}";
        let files = vec![fake_file("crates/storage/src/x.rs", "storage", src)];
        let proven = guarded_index_filter(&files);
        // Both guarded sites prove; the unguarded one on line 3 does not.
        let tokens = tokenize(&clean(src).text);
        let brackets: Vec<usize> = (0..tokens.len())
            .filter(|&i| tokens[i].text == "[" && i > 0 && is_index_head(&tokens[i - 1].text))
            .collect();
        assert_eq!(brackets.len(), 3);
        assert!(proven.contains(&(0, brackets[0])));
        assert!(proven.contains(&(0, brackets[1])));
        assert!(!proven.contains(&(0, brackets[2])));
    }

    #[test]
    fn prover_discharges_clamped_range() {
        let src = "fn f(rows: Vec<R>, offset: usize, limit: Option<usize>) {\n\
                   let start = offset.min(rows.len());\n\
                   let end = match limit { Some(l) => (start + l).min(rows.len()), None => \
                   rows.len() };\n\
                   let _v = rows[start..end].to_vec();\n}";
        let files = vec![fake_file("crates/executor/src/x.rs", "executor", src)];
        let proven = guarded_index_filter(&files);
        assert_eq!(proven.len(), 1);
    }

    #[test]
    fn prover_rejects_unclamped_range() {
        let src = "fn f(rows: Vec<R>, start: usize, end: usize) {\n\
                   let _v = rows[start..end].to_vec();\n}";
        let files = vec![fake_file("crates/executor/src/x.rs", "executor", src)];
        assert!(guarded_index_filter(&files).is_empty());
    }
}
