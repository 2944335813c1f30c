//! End-to-end smoke test: the built binary, `--quick`, every workload in both
//! modes. Checks that what it prints and what `BENCHMARK.json` lists are the
//! same names in the same order — which covers both directions — and that
//! `agree` reads what `run` wrote.

use std::path::{Path, PathBuf};
use std::process::Command;

use ingot_benchmark::json::Json;
use ingot_benchmark::spec::Spec;

const BIN: &str = env!("CARGO_BIN_EXE_ingot-benchmark");

/// `<target>/<profile>`, where the binary sits.
fn bin_dir() -> &'static Path {
    Path::new(BIN).parent().expect("binary sits in a directory")
}

fn run_mode(mode: &str) -> Json {
    let dir = bin_dir().join("smoke");
    std::fs::create_dir_all(&dir).expect("create output directory");
    let out = dir.join(format!("{mode}.json"));
    let status = Command::new(BIN)
        .args([mode, "--quick", "--seed", "3", "--out"])
        .arg(&out)
        .status()
        .expect("spawn the benchmark");
    assert!(status.success(), "`{mode} --quick` failed: {status}");
    Json::parse(
        std::fs::read_to_string(&out)
            .expect("read --out file")
            .trim(),
    )
    .expect("--out holds one JSON document")
}

#[test]
fn quick_run_and_trace_print_exactly_the_contracts_names() {
    let spec = Spec::embedded().expect("contract parses");
    for (mode, metrics) in [("run", &spec.end_to_end), ("trace", &spec.per_layer)] {
        let doc = run_mode(mode);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{mode}");
        let want: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_obj)
            .expect("workloads");
        let ran: Vec<&str> = workloads.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(ran, spec.workloads, "{mode}");
        for (workload, result) in workloads {
            let printed: Vec<&str> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics")
                .iter()
                .map(|(name, _)| name.as_str())
                .collect();
            assert_eq!(printed, want, "{mode}/{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            for (name, m) in result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics")
            {
                let unit = &metrics
                    .iter()
                    .find(|s| s.name == *name)
                    .expect("listed")
                    .unit;
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            }
        }
    }

    // A document agrees with itself, and `agree` can read what `run` wrote.
    let run = bin_dir().join("smoke").join("run.json");
    let status = Command::new(BIN)
        .arg("agree")
        .arg(&run)
        .arg(&run)
        .status()
        .expect("spawn agree");
    assert!(status.success());

    // The traced run leaves one span file per workload, roots and children.
    let trace_dir: PathBuf = bin_dir().parent().expect("target directory").join("trace");
    for w in &spec.workloads {
        let text = std::fs::read_to_string(trace_dir.join(format!("{w}.jsonl"))).expect("spans");
        let spans: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("span"))
            .collect();
        assert!(
            spans.iter().any(|s| s.get("parent") == Some(&Json::Null)),
            "{w}"
        );
        assert!(
            spans.iter().any(|s| s.get("parent") != Some(&Json::Null)),
            "{w}"
        );
    }
}

#[test]
fn refuses_what_it_does_not_know() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"][..],
        &["--frobnicate"][..],
        &["agree", "only-one.json"][..],
    ] {
        let out = Command::new(BIN).args(args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
