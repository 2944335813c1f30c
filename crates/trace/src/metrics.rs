//! Prometheus-text-format metrics snapshot.
//!
//! [`MetricsSnapshot`] is an assembled, point-in-time view of the engine's
//! counters and histograms, renderable in the Prometheus text exposition
//! format (`# HELP` / `# TYPE` / samples). The engine builds one on demand
//! from its `ima$` records; the shell dumps it with `\metrics` and the
//! daemon flattens it into the workload database's `wl_metrics` table
//! alongside snapshots.

/// Metric kind, mirroring the Prometheus `# TYPE` values used here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A column of an `ima$` record, which does not say whether it counts
    /// or gauges.
    Untyped,
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Untyped => "untyped",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One sample within a family: optional name suffix (`_bucket`, `_sum`,
/// `_count` for histograms), label pairs, value.
#[derive(Debug, Clone)]
pub struct Sample {
    pub suffix: &'static str,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    pub fn labelled(labels: Vec<(String, String)>, value: f64) -> Self {
        Sample {
            suffix: "",
            labels,
            value,
        }
    }

    /// The labels as `k="v",...` with values escaped, empty when there are
    /// none: the inside of the exposition's braces and the `labels` column
    /// of `wl_metrics`.
    fn label_text(&self) -> String {
        self.labels
            .iter()
            .map(|(k, v)| format!("{}=\"{}\"", k, escape_label(v)))
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// A named metric with its samples.
#[derive(Debug, Clone)]
pub struct MetricFamily {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    pub samples: Vec<Sample>,
}

/// Point-in-time collection of metric families.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub families: Vec<MetricFamily>,
}

impl MetricsSnapshot {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a family; convenience for builders.
    pub fn push(&mut self, name: &str, help: &str, kind: MetricKind, samples: Vec<Sample>) {
        self.families.push(MetricFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples,
        });
    }

    /// Render in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            out.push_str(&format!("# HELP {} {}\n", fam.name, fam.help));
            out.push_str(&format!("# TYPE {} {}\n", fam.name, fam.kind.as_str()));
            for s in &fam.samples {
                out.push_str(&fam.name);
                out.push_str(s.suffix);
                if !s.labels.is_empty() {
                    out.push('{');
                    out.push_str(&s.label_text());
                    out.push('}');
                }
                // Integral values render without a trailing ".0" so counters
                // look like counters.
                if s.value.fract() == 0.0 && s.value.abs() < 1e15 {
                    out.push_str(&format!(" {}\n", s.value as i64));
                } else {
                    out.push_str(&format!(" {}\n", s.value));
                }
            }
        }
        out
    }

    /// Flatten into `(name_with_suffix, labels_text, value)` rows for
    /// relational persistence. Labels render as `k="v",...` without braces,
    /// empty string when unlabelled.
    pub fn flatten(&self) -> Vec<(String, String, f64)> {
        let mut rows = Vec::new();
        for fam in &self.families {
            for s in &fam.samples {
                rows.push((format!("{}{}", fam.name, s.suffix), s.label_text(), s.value));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_prometheus_text() {
        let mut snap = MetricsSnapshot::new();
        snap.push(
            "ingot_statistics_statements_executed",
            "ima$statistics.statements_executed",
            MetricKind::Untyped,
            vec![Sample::labelled(Vec::new(), 42.0)],
        );
        snap.push(
            "ingot_wait_events_count",
            "ima$wait_events.count",
            MetricKind::Untyped,
            vec![
                Sample::labelled(vec![("event".into(), "lock".into())], 10.0),
                Sample::labelled(vec![("event".into(), "fsync".into())], 3.0),
            ],
        );
        let text = snap.render_prometheus();
        assert!(text.contains(
            "# HELP ingot_statistics_statements_executed ima$statistics.statements_executed\n"
        ));
        assert!(text.contains("# TYPE ingot_statistics_statements_executed untyped\n"));
        assert!(text.contains("ingot_statistics_statements_executed 42\n"));
        assert!(text.contains("ingot_wait_events_count{event=\"lock\"} 10\n"));
        assert!(text.contains("ingot_wait_events_count{event=\"fsync\"} 3\n"));
    }

    #[test]
    fn histogram_suffixes_and_flatten() {
        let mut snap = MetricsSnapshot::new();
        snap.push(
            "ingot_statement_latency_ns",
            "Latency.",
            MetricKind::Histogram,
            vec![
                Sample {
                    suffix: "_bucket",
                    labels: vec![("hash".into(), "abc".into()), ("le".into(), "1023".into())],
                    value: 5.0,
                },
                Sample {
                    suffix: "_sum",
                    labels: vec![("hash".into(), "abc".into())],
                    value: 4000.0,
                },
                Sample {
                    suffix: "_count",
                    labels: vec![("hash".into(), "abc".into())],
                    value: 5.0,
                },
            ],
        );
        let text = snap.render_prometheus();
        assert!(text.contains("ingot_statement_latency_ns_bucket{hash=\"abc\",le=\"1023\"} 5"));
        assert!(text.contains("ingot_statement_latency_ns_count{hash=\"abc\"} 5"));
        let flat = snap.flatten();
        assert_eq!(flat.len(), 3);
        assert_eq!(flat[0].0, "ingot_statement_latency_ns_bucket");
        assert_eq!(flat[0].1, "hash=\"abc\",le=\"1023\"");
        assert_eq!(flat[1].2, 4000.0);
    }

    #[test]
    fn escapes_label_values() {
        let mut snap = MetricsSnapshot::new();
        snap.push(
            "m",
            "h",
            MetricKind::Untyped,
            vec![Sample::labelled(
                vec![("q".into(), "say \"hi\"\\\nthere".into())],
                1.0,
            )],
        );
        let text = snap.render_prometheus();
        assert!(
            text.contains("m{q=\"say \\\"hi\\\"\\\\\\nthere\"} 1\n"),
            "{text}"
        );
        assert_eq!(snap.flatten()[0].1, "q=\"say \\\"hi\\\"\\\\\\nthere\"");
    }
}
