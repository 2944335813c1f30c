//! Figure 7 — "Analyser Results".
//!
//! Compares three configurations on the 50-query workload:
//!
//! * **Unoptimised** — freshly loaded NREF database, default heap storage;
//! * **Manually** — the reference index set + `MODIFY … TO BTREE` on all six
//!   tables + statistics everywhere (the paper's DBA baseline: 33 indexes,
//!   DB grows 33 → 65 GB, runtime drops to ~60 %);
//! * **Analyser** — whatever the analyzer recommends from the recorded
//!   workload (paper: 12 indexes, DB grows to 53 GB only, runtime ~62 %).
//!
//! Reports *modelled* time (simulated disk latency + tuple CPU) of one
//! cold pass, physical reads, database size and index count, all
//! deterministic. The experiment itself is
//! [`ingot_bench::tuning::analyser_results`].

use ingot_bench::{header, pages_to_mib, tuning, Scale};
use ingot_workload::reference_indexes;

fn main() {
    let scale = Scale::from_env();
    header(
        "Figure 7",
        "Analyser Results (Unoptimised / Manually / Analyser)",
        &scale,
    );
    let rows = tuning::analyser_results(&scale);
    let base = &rows[0];

    println!("\nFigure 7 — workload runtime and database size:\n");
    println!(
        "{:<14} {:>12} {:>11} {:>12} {:>9}",
        "setup", "modelled %", "phys reads", "size MiB", "indexes"
    );
    for o in &rows {
        println!(
            "{:<14} {:>10.1} % {:>11} {:>12.1} {:>9}",
            o.setup,
            100.0 * o.modelled_ms / base.modelled_ms.max(1e-9),
            o.phys_reads,
            pages_to_mib(o.pages),
            o.indexes
        );
    }
    println!(
        "\nanalyzer recommended {} secondary indexes vs {} in the manual \
         reference set",
        rows[2].indexes,
        reference_indexes().len()
    );
    println!(
        "paper shape: manual → ~60 % runtime at 65 GB (33 indexes); analyzer → ~62 % \
         runtime at 53 GB (12 indexes) — comparable speed-up at roughly half the index storage"
    );
}
