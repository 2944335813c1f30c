#![forbid(unsafe_code)]
//! CLI: `cargo run -p ingot-verify [-- --root PATH] [--bless] [--github]`.
//!
//! Exit status 0 when the workspace satisfies every invariant (modulo the
//! checked-in allowlist), 1 otherwise, 2 on usage/IO errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut bless = false;
    let mut github = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--bless" => bless = true,
            "--github" => github = true,
            "--help" | "-h" => {
                eprintln!(
                    "ingot-verify: Ingot invariant checks\n\
                     \n\
                     USAGE: cargo run -p ingot-verify [-- --root PATH] [--bless] [--github]\n\
                     \n\
                     --root PATH   workspace root (default: nearest ancestor with crates/)\n\
                     --bless       rewrite crates/verify/allowlist.txt from the current scan\n\
                     --github      emit violations as GitHub workflow annotations"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ingot-verify: unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| ingot_verify::scan::find_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("ingot-verify: could not locate the workspace root (use --root)");
            return ExitCode::from(2);
        }
    };
    let allowlist_path = root.join("crates/verify/allowlist.txt");

    if bless {
        let scan = match ingot_verify::panic_scan(&root) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ingot-verify: scan failed: {e}");
                return ExitCode::from(2);
            }
        };
        let rendered = ingot_verify::allowlist::render(&scan);
        if let Err(e) = std::fs::write(&allowlist_path, rendered) {
            eprintln!(
                "ingot-verify: cannot write {}: {e}",
                allowlist_path.display()
            );
            return ExitCode::from(2);
        }
        println!(
            "ingot-verify: blessed {} panic-freedom sites into {}",
            scan.len(),
            allowlist_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let report = match ingot_verify::run(&root, Some(&allowlist_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ingot-verify: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    for v in &report.violations {
        if github {
            // GitHub workflow-command annotation: shows inline on the PR
            // diff. The message must stay single-line.
            println!(
                "::error file={},line={}::[{}/{}] {}",
                v.file,
                v.line,
                v.check,
                v.category,
                v.message.replace('\n', " ")
            );
        } else {
            println!("{v}");
        }
    }
    for s in &report.stale {
        println!(
            "allowlist: stale entry `{}` — the site is gone; remove the line (or --bless) \
             so the ratchet records the win",
            s.replace('\t', " ")
        );
    }
    println!(
        "ingot-verify: {} violation(s), {} stale allowlist entr(ies), {} allowlisted \
         panic site(s) pending conversion",
        report.violations.len(),
        report.stale.len(),
        report.allowlisted
    );
    if report.clean() {
        println!("ingot-verify: workspace clean");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
