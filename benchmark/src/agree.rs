//! `agree A.json[,A2.json…] B.json[,B2.json…]`: do two sets of `run`
//! outputs tell the same story?
//!
//! Each argument is one set: a comma-separated list of files written by
//! `run --out`. Per workload × end-to-end metric the sets' medians are
//! compared against the bound in `BENCHMARK.json`: `outside` when B is worse
//! than A by more than the bound, `unresolved` when either set's own spread
//! (interquartile range over median, as the driver computes it) is wider
//! than the bound — a gap cannot be read through that — and `ok` otherwise.

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use crate::stats::{iqr_over_median, median};
use crate::Fail;

/// `values[workload][metric]`, one entry per file of the set.
type Set = Vec<(String, Vec<(String, Vec<f64>)>)>;

fn load_set(arg: &str, spec: &Spec) -> Result<Set, Fail> {
    let mut set: Set = spec
        .workloads
        .iter()
        .map(|w| {
            let metrics = spec
                .end_to_end
                .iter()
                .map(|m| (m.name.clone(), Vec::new()))
                .collect();
            (w.clone(), metrics)
        })
        .collect();
    for path in arg.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| Fail::new(format!("{path}: {e}")))?;
        let doc = Json::parse(text.trim()).map_err(|e| Fail::new(format!("{path}: {e}")))?;
        let workloads = doc
            .get("workloads")
            .ok_or_else(|| Fail::new(format!("{path}: not a `run` output (no workloads)")))?;
        for (workload, metrics) in &mut set {
            let result = workloads
                .get(workload)
                .ok_or_else(|| Fail::new(format!("{path}: workload {workload} missing")))?;
            for (metric, values) in metrics {
                let v = result
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| Fail::new(format!("{path}: {workload}/{metric} missing")))?;
                values.push(v);
            }
        }
    }
    Ok(set)
}

/// The verdict on one workload × metric cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Outside,
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    if spec.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Judge one cell from the two sets' values.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let bound = spec.bound.unwrap_or(f64::INFINITY);
    let gap = worsening(spec, median(a), median(b));
    let spread = iqr_over_median(a).max(iqr_over_median(b));
    let verdict = if gap > bound {
        Verdict::Outside
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (gap, spread, verdict)
}

/// Entry point of the `agree` subcommand. `Ok(false)` (exit 1) on any
/// `outside` row.
pub fn agree(args: &[String]) -> Result<bool, Fail> {
    let [a, b] = args else {
        return Err(Fail::new(
            "usage: ingot-benchmark agree A.json[,A2.json…] B.json[,B2.json…]",
        ));
    };
    let spec = Spec::embedded()?;
    let (set_a, set_b) = (load_set(a, &spec)?, load_set(b, &spec)?);
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "gap", "spread", "bound"
    );
    let (mut outside, mut unresolved) = (0, 0);
    for ((workload, metrics_a), (_, metrics_b)) in set_a.iter().zip(&set_b) {
        for (m, ((_, va), (_, vb))) in spec.end_to_end.iter().zip(metrics_a.iter().zip(metrics_b)) {
            let (gap, spread, verdict) = judge(m, va, vb);
            match verdict {
                Verdict::Outside => outside += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{workload:<16} {:<16} {:>14.4} {:>14.4} {:>+7.2}% {:>7.2}% {:>5.0}%  {}",
                m.name,
                median(va),
                median(vb),
                gap * 100.0,
                spread * 100.0,
                m.bound.unwrap_or(f64::NAN) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Outside => "outside",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("{outside} outside, {unresolved} unresolved");
    Ok(outside == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "us".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        assert!((worsening(&metric(false, 0.1), 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(&metric(true, 0.1), 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(&metric(true, 0.1), 100.0, 80.0) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let lower = metric(false, 0.05);
        let tight = |c: f64| vec![c * 0.999, c, c * 1.001, c, c];
        assert_eq!(judge(&lower, &tight(100.0), &tight(103.0)).2, Verdict::Ok);
        assert_eq!(
            judge(&lower, &tight(100.0), &tight(106.0)).2,
            Verdict::Outside
        );
        // An improvement is never outside, however large.
        assert_eq!(judge(&lower, &tight(100.0), &tight(50.0)).2, Verdict::Ok);
        // Same medians, but one set is all over the place.
        let wide = vec![80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(judge(&lower, &tight(100.0), &wide).2, Verdict::Unresolved);
        // A single run per side has no spread to speak of.
        assert_eq!(judge(&lower, &[100.0], &[104.0]).2, Verdict::Ok);
    }
}
