//! The token-level checks (2 panic, 3 clock, 4 ima, 5 error-type, 7 waits,
//! 13 wire-compat) and the [`Violation`] type every check reports in; the
//! path-sensitive checks live in [`crate::flow`].

use std::fmt;
use std::path::Path;

use crate::dataflow::tseq;
use crate::policy;
use crate::scan::SourceFile;

/// One diagnostic produced by a check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Check id: `lock-order`, `panic`, `clock`, `ima`, `error-type`,
    /// `wal-ack`.
    pub check: &'static str,
    /// Sub-category (`unwrap` / `expect` / `index` for `panic`; a short kind
    /// for the others).
    pub category: String,
    /// Workspace-relative file (or doc) path.
    pub file: String,
    /// 1-based line, 0 when not line-addressable (missing doc mention).
    pub line: usize,
    /// Enclosing function, `<toplevel>` when none.
    pub func: String,
    /// Nth occurrence of this category in (file, func); allowlist key part.
    pub ordinal: usize,
    /// Human-readable description.
    pub message: String,
}

impl Violation {
    /// Stable allowlist key: survives line-number churn, resists silent
    /// growth (a new occurrence in the same function gets a new ordinal).
    pub fn key(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}",
            self.category, self.file, self.func, self.ordinal
        )
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.file, self.line, self.check, self.category, self.message
        )
    }
}

fn func_of(file: &SourceFile, idx: usize) -> String {
    file.tokens[idx]
        .func
        .clone()
        .unwrap_or_else(|| "<toplevel>".to_owned())
}

// ---------------------------------------------------------------------------
// Check 2: panic-freedom budget.
// ---------------------------------------------------------------------------

pub(crate) fn is_hot_path(file: &SourceFile) -> bool {
    if file.in_tests_dir {
        return false;
    }
    if policy::HOT_PATH_FILES.iter().any(|f| file.rel_path == *f) {
        return true;
    }
    file.crate_name
        .as_deref()
        .is_some_and(|c| policy::HOT_PATH_CRATES.contains(&c))
}

/// `.unwrap()` / `.expect(…)` / direct indexing in hot-path modules. Every
/// occurrence must be on the checked-in allowlist; the list only shrinks.
/// Index sites the guarded-index prover shows cannot panic are skipped and
/// do not advance ordinal counters, so the allowlist keys stay stable.
pub fn check_panic_budget(files: &[SourceFile]) -> Vec<Violation> {
    let proven = crate::flow::guarded_index_filter(files);
    let mut out = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        if !is_hot_path(file) {
            continue;
        }
        // (func, category) -> next ordinal
        let mut counters: std::collections::HashMap<(String, &'static str), usize> =
            std::collections::HashMap::new();
        for i in 0..file.tokens.len() {
            let t = &file.tokens[i];
            if t.in_test {
                continue;
            }
            let category: &'static str = if tseq(&file.tokens, i, &[".", "unwrap", "(", ")"]) {
                "unwrap"
            } else if tseq(&file.tokens, i, &[".", "expect", "("]) {
                "expect"
            } else if t.text == "[" && i > 0 && is_index_head(&file.tokens[i - 1].text) {
                // `&'a [u8]`: the identifier is a lifetime, the bracket a
                // slice type.
                if i > 1 && file.tokens[i - 2].text == "'" {
                    continue;
                }
                if proven.contains(&(file_idx, i)) {
                    continue;
                }
                "index"
            } else {
                continue;
            };
            let func = func_of(file, i);
            let ord = counters.entry((func.clone(), category)).or_insert(0);
            *ord += 1;
            let what = match category {
                "unwrap" => ".unwrap()",
                "expect" => ".expect(…)",
                _ => "direct indexing",
            };
            out.push(Violation {
                check: "panic",
                category: category.into(),
                file: file.rel_path.clone(),
                line: t.line,
                func: func.clone(),
                ordinal: *ord,
                message: format!(
                    "{what} in hot-path `{func}` — propagate a Result (or allowlist with a \
                     tracking comment)"
                ),
            });
        }
    }
    out
}

pub(crate) fn is_index_head(prev: &str) -> bool {
    let first = prev.chars().next().unwrap_or(' ');
    let ident = first.is_ascii_alphabetic() || first == '_';
    (ident && !policy::NON_INDEX_KEYWORDS.contains(&prev)) || prev == ")" || prev == "]"
}

// ---------------------------------------------------------------------------
// Check 3: clock hygiene.
// ---------------------------------------------------------------------------

/// `Instant::now` / `SystemTime::now` only in the sanctioned crates, so the
/// monitor's self-timing (`monitor_ns`, Fig 5) stays attributable.
pub fn check_clock_hygiene(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in files {
        if file.in_tests_dir {
            continue;
        }
        if file
            .crate_name
            .as_deref()
            .is_some_and(|c| policy::CLOCK_EXEMPT_CRATES.contains(&c))
        {
            continue;
        }
        if policy::CLOCK_EXEMPT_FILES
            .iter()
            .any(|f| file.rel_path == *f)
        {
            continue;
        }
        for i in 0..file.tokens.len() {
            let t = &file.tokens[i];
            if t.in_test {
                continue;
            }
            for src in ["Instant", "SystemTime"] {
                if t.text == src && tseq(&file.tokens, i, &[src, ":", ":", "now"]) {
                    let func = func_of(file, i);
                    out.push(Violation {
                        check: "clock",
                        category: "raw-clock".into(),
                        file: file.rel_path.clone(),
                        line: t.line,
                        func,
                        ordinal: 0,
                        message: format!(
                            "{src}::now outside trace/daemon/bench — use \
                             ingot_common::clock::{{MonotonicClock, SimClock}} so sensor \
                             overhead lands in monitor_ns"
                        ),
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Check 4: IMA completeness.
// ---------------------------------------------------------------------------

fn ima_names_in(s: &str, out: &mut Vec<String>) {
    let mut rest = s;
    while let Some(pos) = rest.find("ima$") {
        let tail = &rest[pos + 4..];
        let end = tail
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        if end > 0 {
            out.push(format!("ima${}", &tail[..end]));
        }
        rest = &tail[end..];
    }
}

/// The `ima$…` names spelled in the core IMA module's string literals,
/// sorted — what check 4 takes for the set of registered tables.
pub fn ima_registry(files: &[SourceFile]) -> Vec<String> {
    let mut registry: Vec<String> = Vec::new();
    for file in files {
        if file.rel_path.ends_with(policy::IMA_REGISTRY_FILE) {
            for (_, s) in &file.strings {
                ima_names_in(s, &mut registry);
            }
        }
    }
    registry.sort();
    registry.dedup();
    registry
}

/// Every `ima$…` table registered in the core IMA module must be documented
/// in README.md or DESIGN.md and referenced by at least one test.
pub fn check_ima_completeness(root: &Path, files: &[SourceFile]) -> Vec<Violation> {
    let registry = ima_registry(files);

    let mut docs = String::new();
    for doc in ["README.md", "DESIGN.md"] {
        docs.push_str(&std::fs::read_to_string(root.join(doc)).unwrap_or_default());
    }

    let mut tested: Vec<String> = Vec::new();
    for file in files {
        for (line, s) in &file.strings {
            if file.line_in_test(*line) {
                ima_names_in(s, &mut tested);
            }
        }
    }

    let mut out = Vec::new();
    for name in &registry {
        if !docs.contains(name.as_str()) {
            out.push(Violation {
                check: "ima",
                category: "undocumented".into(),
                file: policy::IMA_REGISTRY_FILE.into(),
                line: 0,
                func: "<registry>".into(),
                ordinal: 0,
                message: format!(
                    "{name} is registered but appears in neither README.md nor DESIGN.md"
                ),
            });
        }
        if !tested.iter().any(|t| t == name) {
            out.push(Violation {
                check: "ima",
                category: "untested".into(),
                file: policy::IMA_REGISTRY_FILE.into(),
                line: 0,
                func: "<registry>".into(),
                ordinal: 0,
                message: format!("{name} is registered but no test references it"),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Check 7: wait-event discipline.
// ---------------------------------------------------------------------------

/// Unit variants of `enum WaitEvent` in the taxonomy file, with their lines.
fn wait_event_variants(files: &[SourceFile]) -> Vec<(String, usize)> {
    let mut variants = Vec::new();
    for file in files {
        if file.rel_path != policy::WAIT_EVENTS_FILE {
            continue;
        }
        for i in 0..file.tokens.len() {
            if !tseq(&file.tokens, i, &["enum", "WaitEvent", "{"]) {
                continue;
            }
            let mut depth = 1i32;
            let mut k = i + 3;
            while k < file.tokens.len() && depth > 0 {
                match file.tokens[k].text.as_str() {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    text => {
                        // A unit variant is an UpperCamel identifier directly
                        // followed by `,` or the closing brace; attribute and
                        // doc tokens never match that shape.
                        let upper = text.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                        let delim = file
                            .tokens
                            .get(k + 1)
                            .is_some_and(|n| n.text == "," || n.text == "}");
                        if depth == 1 && upper && delim {
                            variants.push((text.to_owned(), file.tokens[k].line));
                        }
                    }
                }
                k += 1;
            }
            break;
        }
    }
    variants
}

/// The wait-event taxonomy is closed and accounted for: every `WaitEvent`
/// variant is documented in DESIGN.md and referenced from at least one test,
/// and wait guards (`WaitGuard::begin` / `WaitGuard::ambient`) are
/// constructed only in the allowlisted instrumented modules — anywhere else
/// would charge wait time the taxonomy chapter does not describe.
pub fn check_wait_events(root: &Path, files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    let variants = wait_event_variants(files);
    if !variants.is_empty() {
        let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
        for (name, line) in &variants {
            if !design.contains(name.as_str()) {
                out.push(Violation {
                    check: "waits",
                    category: "undocumented".into(),
                    file: policy::WAIT_EVENTS_FILE.into(),
                    line: *line,
                    func: "<taxonomy>".into(),
                    ordinal: 0,
                    message: format!(
                        "wait event `{name}` is not documented in DESIGN.md — every \
                         taxonomy variant needs a chapter entry"
                    ),
                });
            }
            let referenced = files.iter().any(|f| {
                f.tokens
                    .iter()
                    .any(|t| (f.in_tests_dir || t.in_test) && t.text == *name)
                    || f.strings
                        .iter()
                        .any(|(l, s)| f.line_in_test(*l) && s.contains(name.as_str()))
            });
            if !referenced {
                out.push(Violation {
                    check: "waits",
                    category: "untested".into(),
                    file: policy::WAIT_EVENTS_FILE.into(),
                    line: *line,
                    func: "<taxonomy>".into(),
                    ordinal: 0,
                    message: format!(
                        "wait event `{name}` is not referenced by any test — dead taxonomy \
                         entries hide uninstrumented code paths"
                    ),
                });
            }
        }
    }

    for file in files {
        if file.in_tests_dir || policy::WAIT_GUARD_FILES.iter().any(|f| file.rel_path == *f) {
            continue;
        }
        for i in 0..file.tokens.len() {
            let t = &file.tokens[i];
            if t.in_test || t.text != "WaitGuard" {
                continue;
            }
            let begin = tseq(&file.tokens, i, &["WaitGuard", ":", ":", "begin"]);
            let ambient = tseq(&file.tokens, i, &["WaitGuard", ":", ":", "ambient"]);
            if !begin && !ambient {
                continue;
            }
            let func = func_of(file, i);
            out.push(Violation {
                check: "waits",
                category: "guard-outside-module".into(),
                file: file.rel_path.clone(),
                line: t.line,
                func: func.clone(),
                ordinal: 0,
                message: format!(
                    "wait guard constructed in `{func}` — only the instrumented modules \
                     (see verify policy WAIT_GUARD_FILES) may charge wait time"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Check 5: error-type discipline.
// ---------------------------------------------------------------------------

/// Public functions of the embedding API must return the workspace error
/// type: a `pub fn` in [`policy::ERROR_DISCIPLINE_FILES`] whose return type
/// is `Result<_, String>` leaks stringly-typed errors across the API
/// boundary, where callers can no longer match on error kinds.
pub fn check_error_discipline(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in files {
        if !policy::ERROR_DISCIPLINE_FILES.contains(&file.rel_path.as_str()) {
            continue;
        }
        let toks = &file.tokens;
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].in_test || !tseq(&file.tokens, i, &["pub", "fn"]) {
                i += 1;
                continue;
            }
            let func = toks
                .get(i + 2)
                .map(|t| t.text.clone())
                .unwrap_or_else(|| "<anon>".to_owned());
            // Walk the signature (up to the body `{` or a trait-decl `;`),
            // looking for `Result <` whose depth-1 comma is followed by
            // `String` — i.e. a stringly error type in return position.
            let mut j = i + 2;
            let mut after_arrow = false;
            while j < toks.len() {
                let t = toks[j].text.as_str();
                if t == "{" || t == ";" {
                    break;
                }
                if t == "-" && toks.get(j + 1).is_some_and(|n| n.text == ">") {
                    after_arrow = true;
                }
                if after_arrow && t == "Result" && toks.get(j + 1).is_some_and(|n| n.text == "<") {
                    let mut depth = 0usize;
                    let mut k = j + 1;
                    while k < toks.len() {
                        match toks[k].text.as_str() {
                            "<" => depth += 1,
                            ">" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            "," if depth == 1
                                && toks.get(k + 1).is_some_and(|n| n.text == "String") =>
                            {
                                out.push(Violation {
                                    check: "error-type",
                                    category: "stringly".into(),
                                    file: file.rel_path.clone(),
                                    line: toks[j].line,
                                    func: func.clone(),
                                    ordinal: 0,
                                    message: format!(
                                        "`pub fn {func}` returns Result<_, String> — \
                                         return ingot_common::Result so callers can match \
                                         on error kinds"
                                    ),
                                });
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                j += 1;
            }
            i = j.max(i + 1);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Check 13: wire compatibility.
// ---------------------------------------------------------------------------

/// FNV-1a (64-bit), duplicated from `ingot_common::hash` so the verifier
/// stays dependency-free. The ledger test in `wire.rs` uses the original;
/// both must agree byte-for-byte on the descriptor hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Top-level variants of `enum <name>` in `file`, with their lines. Payload
/// fields and types never match: a variant is an UpperCamel identifier at
/// brace depth 1 / paren depth 0 followed by `,`, `(`, `{` or `}`.
fn enum_variants(file: &SourceFile, enum_name: &str) -> Vec<(String, usize)> {
    let mut variants = Vec::new();
    for i in 0..file.tokens.len() {
        if !tseq(&file.tokens, i, &["enum", enum_name, "{"]) {
            continue;
        }
        let mut brace = 1i32;
        let mut paren = 0i32;
        let mut k = i + 3;
        while k < file.tokens.len() && brace > 0 {
            let text = file.tokens[k].text.as_str();
            match text {
                "{" => brace += 1,
                "}" => brace -= 1,
                "(" => paren += 1,
                ")" => paren -= 1,
                _ => {
                    let upper = text.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                    let delim = file
                        .tokens
                        .get(k + 1)
                        .is_some_and(|n| matches!(n.text.as_str(), "," | "(" | "{" | "}"));
                    if brace == 1 && paren == 0 && upper && delim {
                        variants.push((text.to_owned(), file.tokens[k].line));
                    }
                }
            }
            k += 1;
        }
        break;
    }
    variants
}

/// One parsed `WireCodeEntry { variant: "…", code: N, … }` row.
struct WireTableEntry {
    variant: String,
    code: u64,
    line: usize,
}

/// Parse `WIRE_CODE_TABLE` from the protocol file: inside the table's
/// `[…]`, each `variant :` pairs with the string literal starting on its
/// line and the following `code : <N>` tokens.
fn wire_table_entries(file: &SourceFile) -> Vec<WireTableEntry> {
    let mut out = Vec::new();
    let Some(start) = file.tokens.iter().position(|t| t.text == "WIRE_CODE_TABLE") else {
        return out;
    };
    // Skip the `: &[WireCodeEntry]` type annotation: the table body is the
    // first `[` after the `=`.
    let Some(eq) = (start..file.tokens.len()).find(|&i| file.tokens[i].text == "=") else {
        return out;
    };
    let Some(open) = (eq..file.tokens.len()).find(|&i| file.tokens[i].text == "[") else {
        return out;
    };
    let mut depth = 0i32;
    let mut i = open;
    while i < file.tokens.len() {
        match file.tokens[i].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if tseq(&file.tokens, i, &["variant", ":"]) {
            let line = file.tokens[i].line;
            let variant = file
                .strings
                .iter()
                .find(|(l, _)| *l >= line)
                .map(|(_, s)| s.clone());
            let code = (i..file.tokens.len())
                .find(|&j| tseq(&file.tokens, j, &["code", ":"]))
                .and_then(|j| file.tokens.get(j + 2))
                .and_then(|t| t.text.parse::<u64>().ok());
            if let (Some(variant), Some(code)) = (variant, code) {
                out.push(WireTableEntry {
                    variant,
                    code,
                    line,
                });
            }
        }
        i += 1;
    }
    out
}

/// The integer assigned to `const PROTOCOL_VERSION`, if declared.
fn protocol_version(file: &SourceFile) -> Option<(u64, usize)> {
    for i in 0..file.tokens.len() {
        if tseq(&file.tokens, i, &["PROTOCOL_VERSION", ":", "u16", "="]) {
            return file
                .tokens
                .get(i + 4)
                .and_then(|t| t.text.parse::<u64>().ok().map(|v| (v, file.tokens[i].line)));
        }
    }
    None
}

/// Wire compatibility: the `Error` enum and `WIRE_CODE_TABLE` describe the
/// same closed set (every variant mapped, no code claimed twice, no entry
/// naming a variant that no longer exists), and the wire-layout ledger is
/// current — its header versions are strictly increasing, the newest one
/// matches `PROTOCOL_VERSION`, and its recorded hash matches the frames
/// section. Together these force the discipline "change the frame layout ⇒
/// bump the version and append a ledger entry".
pub fn check_wire_compat(root: &Path, files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(error_file) = files.iter().find(|f| f.rel_path == policy::WIRE_ERROR_FILE) else {
        return out;
    };
    let Some(wire_file) = files
        .iter()
        .find(|f| f.rel_path == policy::WIRE_PROTOCOL_FILE)
    else {
        return out;
    };
    let variants = enum_variants(error_file, "Error");
    let table = wire_table_entries(wire_file);
    if variants.is_empty() || table.is_empty() {
        return out;
    }

    let mk = |category: &str, file: &str, line: usize, message: String| Violation {
        check: "wire-compat",
        category: category.into(),
        file: file.into(),
        line,
        func: "<wire>".into(),
        ordinal: 0,
        message,
    };

    for (name, line) in &variants {
        if !table.iter().any(|e| e.variant == *name) {
            out.push(mk(
                "missing-code",
                policy::WIRE_ERROR_FILE,
                *line,
                format!(
                    "Error::{name} has no WIRE_CODE_TABLE entry — every variant needs a \
                     stable wire code so it round-trips client↔server"
                ),
            ));
        }
    }
    for (idx, e) in table.iter().enumerate() {
        if !variants.iter().any(|(n, _)| *n == e.variant) {
            out.push(mk(
                "unknown-variant",
                policy::WIRE_PROTOCOL_FILE,
                e.line,
                format!(
                    "WIRE_CODE_TABLE names `{}` which is not an Error variant — codes are \
                     never reused, so retire the entry instead of renaming it",
                    e.variant
                ),
            ));
        }
        if table[..idx].iter().any(|p| p.code == e.code) {
            out.push(mk(
                "duplicate-code",
                policy::WIRE_PROTOCOL_FILE,
                e.line,
                format!(
                    "wire code {} claimed twice (second claim by `{}`) — codes identify \
                     variants uniquely on the wire",
                    e.code, e.variant
                ),
            ));
        }
    }

    let Some((version, version_line)) = protocol_version(wire_file) else {
        out.push(mk(
            "version-missing",
            policy::WIRE_PROTOCOL_FILE,
            0,
            "no `PROTOCOL_VERSION: u16 = N` constant found".into(),
        ));
        return out;
    };
    let ledger_path = root.join(policy::WIRE_LEDGER_FILE);
    let Ok(ledger) = std::fs::read_to_string(&ledger_path) else {
        out.push(mk(
            "ledger-missing",
            policy::WIRE_LEDGER_FILE,
            0,
            format!(
                "{} not found — the frame layout must be pinned by a ledger entry",
                policy::WIRE_LEDGER_FILE
            ),
        ));
        return out;
    };
    let Some((header, section)) = ledger.split_once("---\n") else {
        out.push(mk(
            "ledger-malformed",
            policy::WIRE_LEDGER_FILE,
            0,
            "ledger has no `---` separator between headers and the frames section".into(),
        ));
        return out;
    };
    let mut entries: Vec<(u64, u64)> = Vec::new(); // (version, hash)
    for (lineno, line) in header.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let parsed = match fields.as_slice() {
            ["version", v, "hash", h] => v.parse::<u64>().ok().zip(u64::from_str_radix(h, 16).ok()),
            _ => None,
        };
        match parsed {
            Some(pair) => entries.push(pair),
            None => out.push(mk(
                "ledger-malformed",
                policy::WIRE_LEDGER_FILE,
                lineno + 1,
                format!("unparseable ledger header line `{line}` (want `version N hash <hex>`)"),
            )),
        }
    }
    let Some(&(last_version, last_hash)) = entries.last() else {
        out.push(mk(
            "ledger-malformed",
            policy::WIRE_LEDGER_FILE,
            0,
            "ledger has no `version N hash <hex>` header line".into(),
        ));
        return out;
    };
    if entries.windows(2).any(|w| w[1].0 <= w[0].0) {
        out.push(mk(
            "version-order",
            policy::WIRE_LEDGER_FILE,
            0,
            "ledger versions must be strictly increasing — the ledger is append-only".into(),
        ));
    }
    if last_version != version {
        out.push(mk(
            "version-mismatch",
            policy::WIRE_PROTOCOL_FILE,
            version_line,
            format!(
                "PROTOCOL_VERSION is {version} but the newest ledger entry is version \
                 {last_version} — a layout change needs both a version bump and a ledger \
                 entry"
            ),
        ));
    }
    if fnv1a64(section.as_bytes()) != last_hash {
        out.push(mk(
            "ledger-stale",
            policy::WIRE_LEDGER_FILE,
            0,
            "frames section does not hash to the newest ledger entry — the layout changed \
             without appending a `version N hash <fnv1a64>` line"
                .into(),
        ));
    }
    out
}
