//! The deterministic columns of Figs 6 and 7 at a test-sized NREF (1 500
//! proteins), compared with `tests/golden/figures.txt`: Fig 6's flagged
//! statements and statistics / B-Tree / index recommendation counts and the
//! statements the virtual indexes improve; Fig 7's modelled time (relative
//! to Unoptimised), physical reads, size in pages and index count for each
//! setup. Fig 6's analysis wall time is left out: it is the only
//! machine-dependent number of either figure.
//!
//! A change to the analyzer, the optimizer's costing or the storage layout
//! may move these numbers on purpose; the golden then changes with it, and
//! the reason is recorded beside the change. On a mismatch the text this
//! build produced is left in `$CARGO_TARGET_TMPDIR/figures.actual.txt`.

use std::fmt::Write as _;

use ingot_bench::{tuning, Scale};
use ingot_workload::NrefConfig;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/figures.txt");

fn figures() -> String {
    let scale = Scale {
        name: "test",
        nref: NrefConfig {
            proteins: 1500,
            taxa: 40,
            ..NrefConfig::default()
        },
        n_simple: 0,
        n_point: 0,
        // Just below the unoptimised database's 141 pages: the paper's
        // database does not fit its buffer pool either.
        buffer_pages: 128,
        repeats: 1,
    };
    let mut out = String::new();
    let f6 = tuning::cost_diagram(&scale);
    writeln!(
        out,
        "fig6 flagged={} statistics={} btree={} indexes={} improved={}",
        f6.flagged,
        f6.statistics,
        f6.btree,
        f6.indexes,
        f6.improved.len()
    )
    .unwrap();
    let f7 = tuning::analyser_results(&scale);
    for o in &f7 {
        writeln!(
            out,
            "fig7 {:<11} modelled={:5.1}% phys_reads={} pages={} indexes={}",
            o.setup,
            100.0 * o.modelled_ms / f7[0].modelled_ms,
            o.phys_reads,
            o.pages,
            o.indexes
        )
        .unwrap();
    }
    out
}

#[test]
fn fig6_and_fig7_match_the_golden() {
    let actual = figures();
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures.actual.txt");
        std::fs::write(&path, &actual).unwrap();
        panic!(
            "Figs 6–7 moved; this build's numbers are in {}:\n{actual}",
            path.display()
        );
    }
}
