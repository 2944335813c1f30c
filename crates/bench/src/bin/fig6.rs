//! Figure 6 — "Cost Diagram".
//!
//! Runs the 50-query analytic workload under monitoring, feeds the recorded
//! data to the analyzer, and prints the per-statement cost diagram of the
//! ten most expensive statements: actual cost vs. optimizer estimate vs.
//! estimate with the recommended *virtual* indexes. Statements whose
//! estimate diverges from the actual cost (the paper's Q2/Q4/Q7) get the
//! "collect statistics" recommendation; §V-B's counts are printed too.
//! The experiment itself is [`ingot_bench::tuning::cost_diagram`].

use ingot_bench::{header, tuning, Scale};

fn main() {
    let scale = Scale::from_env();
    header(
        "Figure 6",
        "Cost Diagram (actual / estimated / estimated+virtual)",
        &scale,
    );
    let run = tuning::cost_diagram(&scale);

    println!("\n{}", run.report.cost_diagram.render());

    // Companion view: the statements the what-if indexes improve most (the
    // paper notes "only a few statements seem to benefit from the
    // recommended changes" — these are the few).
    println!(
        "statements improved by the recommended (virtual) indexes: {}",
        run.improved.len()
    );
    for e in run.improved.iter().take(5) {
        println!(
            "  e {:>12.0} → v {:>12.0}  {}",
            e.estimated,
            e.estimated_with_virtual,
            &e.text[..e.text.len().min(70)]
        );
    }
    println!();

    println!("§V-B analysis summary:");
    println!(
        "  analysis wall time: {:?}   (paper: ~40 s on 2009 hardware)",
        run.analysis_time
    );
    println!(
        "  statements with significant est/actual divergence: {}   (paper: 31)",
        run.flagged
    );
    println!("  statistics recommendations: {}", run.statistics);
    println!(
        "  modify-to-BTree recommendations: {}   (paper: 6 tables)",
        run.btree
    );
    println!(
        "  secondary-index recommendations: {}   (paper: 12)",
        run.indexes
    );
    println!("\nRecommendations:");
    for r in &run.report.recommendations {
        println!("  - {}", r.describe());
    }
}
