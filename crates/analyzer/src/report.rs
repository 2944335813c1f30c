//! Report rendering: the textual and graphical feedback of §IV-C/§V-B —
//! the cost diagram (Fig 6), the locks diagram (Fig 8) and the combined
//! analysis report.

use std::fmt::Write as _;

use ingot_catalog::WhatIf;
use ingot_common::Result;
use ingot_core::estimate;

use crate::advisor::{register, IndexCandidate};
use crate::rules::Recommendation;
use crate::view::WorkloadView;

/// One bar group of the cost diagram (Fig 6): per-execution costs of one of
/// the most expensive statements.
#[derive(Debug, Clone)]
pub struct CostDiagramEntry {
    /// Label (Q1, Q2, …) in descending actual-cost order.
    pub label: String,
    /// Statement text.
    pub text: String,
    /// Actual cost per execution (total units).
    pub actual: f64,
    /// Optimizer-estimated cost per execution.
    pub estimated: f64,
    /// Estimated cost with the recommended virtual indexes registered.
    pub estimated_with_virtual: f64,
}

/// The Fig 6 cost diagram.
#[derive(Debug, Clone, Default)]
pub struct CostDiagram {
    /// Entries, most expensive first.
    pub entries: Vec<CostDiagramEntry>,
}

impl CostDiagram {
    /// Render as an aligned text chart with proportional bars.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Cost diagram — most expensive statements (per execution)"
        );
        let _ = writeln!(
            out,
            "  (a = actual, e = estimated, v = estimated w/ virtual indexes)"
        );
        let max = self
            .entries
            .iter()
            .flat_map(|e| [e.actual, e.estimated, e.estimated_with_virtual])
            .fold(1.0f64, f64::max);
        for e in &self.entries {
            let bar = |v: f64| {
                let w = ((v / max) * 40.0).round() as usize;
                "#".repeat(w.max(usize::from(v > 0.0)))
            };
            let _ = writeln!(out, "{:<4} {}", e.label, truncate(&e.text, 70));
            let _ = writeln!(out, "   a {:>12.0} |{}", e.actual, bar(e.actual));
            let _ = writeln!(out, "   e {:>12.0} |{}", e.estimated, bar(e.estimated));
            let _ = writeln!(
                out,
                "   v {:>12.0} |{}",
                e.estimated_with_virtual,
                bar(e.estimated_with_virtual)
            );
        }
        out
    }
}

/// One point of the locks diagram.
#[derive(Debug, Clone, Default)]
pub struct LockPoint {
    /// Simulated seconds.
    pub at_secs: u64,
    /// Locks held at the sample.
    pub held: u64,
    /// Lock waits since the previous sample.
    pub waits_delta: u64,
    /// Deadlocks since the previous sample.
    pub deadlocks_delta: u64,
}

/// The Fig 8 locks diagram: lock usage over time with wait/deadlock markers.
#[derive(Debug, Clone, Default)]
pub struct LocksDiagram {
    /// Time series (ascending).
    pub points: Vec<LockPoint>,
}

impl LocksDiagram {
    /// Render as a text chart: one line per sample, `W`/`D` markers for
    /// waits and deadlocks.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Locks diagram — locks in use over time");
        let max = self.points.iter().map(|p| p.held).max().unwrap_or(1).max(1);
        for p in &self.points {
            let w = ((p.held as f64 / max as f64) * 40.0).round() as usize;
            let mut markers = String::new();
            if p.waits_delta > 0 {
                let _ = write!(markers, " W×{}", p.waits_delta);
            }
            if p.deadlocks_delta > 0 {
                let _ = write!(markers, " D×{}", p.deadlocks_delta);
            }
            let _ = writeln!(
                out,
                "t={:>6}s locks={:>4} |{}{}",
                p.at_secs,
                p.held,
                "#".repeat(w),
                markers
            );
        }
        out
    }
}

/// The full analyzer output.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Recommendations in rule order.
    pub recommendations: Vec<Recommendation>,
    /// Fig 6.
    pub cost_diagram: CostDiagram,
    /// Fig 8.
    pub locks_diagram: LocksDiagram,
}

impl AnalysisReport {
    /// Render the complete textual report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== Ingot analyzer report ===");
        let _ = writeln!(out, "\nRecommendations ({}):", self.recommendations.len());
        for (i, r) in self.recommendations.iter().enumerate() {
            let _ = writeln!(out, "  {:>2}. {}", i + 1, r.describe());
            let _ = writeln!(out, "      SQL: {}", r.to_sql());
        }
        let _ = writeln!(out);
        out.push_str(&self.cost_diagram.render());
        let _ = writeln!(out);
        out.push_str(&self.locks_diagram.render());
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_owned()
    } else {
        format!("{}…", &s[..n])
    }
}

/// Build the Fig 6 cost diagram: the `top_n` most expensive query statements
/// with actual, estimated and estimated-with-virtual-indexes costs, the last
/// with `chosen` registered in a copy of `what_if`.
pub fn build_cost_diagram(
    what_if: &WhatIf,
    view: &WorkloadView,
    chosen: &[IndexCandidate],
    top_n: usize,
) -> Result<CostDiagram> {
    let mut with_chosen = what_if.clone();
    for c in chosen {
        register(&mut with_chosen, c)?;
    }
    let mut entries = Vec::new();
    for (i, s) in view
        .statements
        .iter()
        .filter(|s| s.is_query())
        .take(top_n)
        .enumerate()
    {
        let n = s.executions.max(1) as f64;
        let with_virtual = estimate(&with_chosen, &s.text).map_or(0.0, |e| e.est.total());
        entries.push(CostDiagramEntry {
            label: format!("Q{}", i + 1),
            text: s.text.clone(),
            actual: s.actual.total() / n,
            estimated: s.est.total() / n,
            estimated_with_virtual: with_virtual,
        });
    }
    Ok(CostDiagram { entries })
}

/// Build the Fig 8 locks diagram from the statistics time series.
pub fn build_locks_diagram(view: &WorkloadView) -> LocksDiagram {
    let mut points = Vec::with_capacity(view.statistics.len());
    let mut prev_waits = 0u64;
    let mut prev_deadlocks = 0u64;
    for (i, s) in view.statistics.iter().enumerate() {
        let (waits_delta, deadlocks_delta) = if i == 0 {
            (0, 0)
        } else {
            (
                s.lock_waits_total.saturating_sub(prev_waits),
                s.deadlocks_total.saturating_sub(prev_deadlocks),
            )
        };
        prev_waits = s.lock_waits_total;
        prev_deadlocks = s.deadlocks_total;
        points.push(LockPoint {
            at_secs: s.at_secs,
            held: s.locks_held,
            waits_delta,
            deadlocks_delta,
        });
    }
    LocksDiagram { points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::StatPoint;

    #[test]
    fn locks_diagram_derives_deltas() {
        let view = WorkloadView {
            statistics: vec![
                StatPoint {
                    at_secs: 0,
                    locks_held: 2,
                    lock_waits_total: 0,
                    deadlocks_total: 0,
                    ..Default::default()
                },
                StatPoint {
                    at_secs: 30,
                    locks_held: 5,
                    lock_waits_total: 3,
                    deadlocks_total: 1,
                    ..Default::default()
                },
                StatPoint {
                    at_secs: 60,
                    locks_held: 1,
                    lock_waits_total: 3,
                    deadlocks_total: 1,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let d = build_locks_diagram(&view);
        assert_eq!(d.points[1].waits_delta, 3);
        assert_eq!(d.points[1].deadlocks_delta, 1);
        assert_eq!(d.points[2].waits_delta, 0);
        let text = d.render();
        assert!(text.contains("W×3") && text.contains("D×1"), "{text}");
    }

    #[test]
    fn cost_diagram_renders_bars() {
        let d = CostDiagram {
            entries: vec![CostDiagramEntry {
                label: "Q1".into(),
                text: "select …".into(),
                actual: 100.0,
                estimated: 40.0,
                estimated_with_virtual: 10.0,
            }],
        };
        let text = d.render();
        assert!(text.contains("Q1"));
        // Actual bar is the longest.
        let lines: Vec<&str> = text.lines().collect();
        let count = |l: &str| l.chars().filter(|&c| c == '#').count();
        let a = lines
            .iter()
            .find(|l| l.trim_start().starts_with("a "))
            .unwrap();
        let v = lines
            .iter()
            .find(|l| l.trim_start().starts_with("v "))
            .unwrap();
        assert!(count(a) > count(v));
    }

    #[test]
    fn report_render_includes_everything() {
        let report = AnalysisReport {
            recommendations: vec![Recommendation::ModifyToBTree {
                table: "protein".into(),
                overflow_ratio: 0.4,
            }],
            ..Default::default()
        };
        let text = report.render();
        assert!(text.contains("modify protein to btree"));
        assert!(text.contains("Cost diagram"));
        assert!(text.contains("Locks diagram"));
    }
}
