//! `ingot-benchmark`: the repo's benchmark.
//!
//! ```text
//! ingot-benchmark [run|trace] [--workload NAME] [--seed N] [--seconds S]
//!                 [--trace 0|1] [--quick] [--out FILE]
//! ingot-benchmark agree A.json[,A2.json…] B.json[,B2.json…]
//! ```
//!
//! With `--workload` one workload runs in this process and the last line of
//! standard output is the result object the driver reads. Without it, every
//! workload runs in a child process of its own and the results are gathered
//! into one document. `run` (`--trace 0`) reports the end-to-end metrics,
//! `trace` (`--trace 1`) the per-layer ones. See `benchmark/README.md`.

use std::process::{Command, ExitCode, Stdio};

use ingot_benchmark::harness::Options;
use ingot_benchmark::json::Json;
use ingot_benchmark::measure::Outcome;
use ingot_benchmark::spec::Spec;
use ingot_benchmark::workloads::Kind;
use ingot_benchmark::{agree, layers, measure, pin, Fail};

/// The command line, parsed.
struct Cli {
    workload: Option<Kind>,
    opts: Options,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, Fail> {
    let mut cli = Cli {
        workload: None,
        opts: Options {
            seed: 1,
            seconds: 0.0,
            quick: false,
            trace: false,
        },
        out: None,
    };
    let mut seconds = None;
    let mut it = args.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("run") => {
            it.next();
        }
        Some("trace") => {
            cli.opts.trace = true;
            it.next();
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| Fail::new(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    Kind::from_name(name)
                        .ok_or_else(|| Fail::new(format!("unknown workload {name}")))?,
                );
            }
            "--seed" => {
                cli.opts.seed = value()?
                    .parse()
                    .map_err(|_| Fail::new("--seed takes a whole number"))?;
            }
            "--seconds" => {
                let s = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| Fail::new("--seconds takes a number in (0, 600]"))?;
                seconds = Some(s);
            }
            "--trace" => {
                cli.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(Fail::new("--trace takes 0 or 1")),
                };
            }
            "--quick" => cli.opts.quick = true,
            "--out" => cli.out = Some(value()?.clone()),
            other => return Err(Fail::new(format!("unknown argument {other}"))),
        }
    }
    cli.opts.seconds = match seconds {
        Some(s) => s,
        None if cli.opts.quick => 1.0,
        None => Spec::embedded()?.run_seconds,
    };
    Ok(cli)
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The object the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(spec: &Spec, trace: bool, outcome: &Outcome) -> Result<Json, Fail> {
    let specs = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Spec::render_metrics(specs, &outcome.metrics)?),
    ]))
}

/// Every metric by name with its unit, then the counts a reader needs to
/// judge them.
fn print_table(cli: &Cli, outcome: &Outcome, line: &Json) {
    println!(
        "== {} ({}, seed {}, {} s window) ==",
        outcome.kind.name(),
        if cli.opts.trace { "trace" } else { "run" },
        cli.opts.seed,
        cli.opts.seconds,
    );
    if let Some(metrics) = line.get("metrics").and_then(Json::as_obj) {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {name:<40} {value:>16.4} {unit}");
        }
    }
    let blocks = match outcome.blocks {
        0 => String::new(),
        b => format!(" in {b} p99 block(s)"),
    };
    println!(
        "  {} latency samples{blocks}; attempted {}, failed {}; correct: {}",
        outcome.samples, outcome.attempted, outcome.failed, outcome.correct
    );
    for note in &outcome.notes {
        println!("  ! {note}");
    }
}

/// One workload, in this process.
fn run_one(cli: &Cli, kind: Kind) -> Result<bool, Fail> {
    let spec = Spec::embedded()?;
    // Before any thread exists, so that every one of them inherits it.
    let allowed = cpus();
    match pin::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu} of the {allowed} allowed"),
        None => println!("NOT pinned: wire workloads will be bimodal (see README)"),
    }
    let outcome = if cli.opts.trace {
        layers::trace_workload(kind, &cli.opts)?
    } else {
        measure::run_workload(kind, &cli.opts)?
    };
    let line = result_line(&spec, cli.opts.trace, &outcome)?;
    print_table(cli, &outcome, &line);
    println!("{}", line.render());
    if let Some(path) = &cli.out {
        std::fs::write(path, line.render() + "\n")?;
    }
    Ok(outcome.correct)
}

/// Every workload, each in a child process of its own so that none inherits
/// another's heap, page cache footprint or peak RSS.
fn run_all(cli: &Cli) -> Result<bool, Fail> {
    let exe = std::env::current_exe()?;
    let mut all_correct = true;
    let mut results = Vec::new();
    for kind in Kind::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", kind.name()])
            .args(["--seed", &cli.opts.seed.to_string()])
            .args(["--seconds", &cli.opts.seconds.to_string()])
            .args(["--trace", if cli.opts.trace { "1" } else { "0" }]);
        if cli.opts.quick {
            cmd.arg("--quick");
        }
        let out = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
        let text = String::from_utf8_lossy(&out.stdout);
        let (table, last) = text
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", text.trim_end()));
        println!("{table}");
        let line = Json::parse(last)
            .map_err(|e| Fail::new(format!("{}: no result line ({e})", kind.name())))?;
        all_correct &= out.status.success() && line.get("correct") == Some(&Json::Bool(true));
        results.push((kind.name().to_owned(), line));
    }
    let doc = Json::obj([
        ("benchmark", Json::Str("ingot-benchmark".into())),
        (
            "mode",
            Json::Str(if cli.opts.trace { "trace" } else { "run" }.into()),
        ),
        ("seed", Json::Num(cli.opts.seed as f64)),
        ("seconds", Json::Num(cli.opts.seconds)),
        ("cpus", Json::Num(cpus() as f64)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::Obj(results)),
    ]);
    println!("{}", doc.render());
    if let Some(path) = &cli.out {
        std::fs::write(path, doc.render() + "\n")?;
    }
    Ok(all_correct)
}

fn real_main() -> Result<bool, Fail> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("agree") {
        return agree::agree(&args[1..]);
    }
    let cli = parse_cli(&args)?;
    match cli.workload {
        Some(kind) => run_one(&cli, kind),
        None => run_all(&cli),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ingot-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
