//! Prometheus-text-format metrics snapshot.
//!
//! [`MetricsSnapshot`] is an assembled, point-in-time view of the engine's
//! counters and histograms, renderable in the Prometheus text exposition
//! format (`# HELP` / `# TYPE` / samples). The engine builds one on demand
//! from its `ima$` records and the shell dumps it with `\metrics`. The
//! storage daemon files the same records' rows in the workload database as
//! typed `wl_` tables, not this rendering of them.

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
                    let labels: Vec<_> = s
                        .labels
                        .iter()
                        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                        .collect();
                    out.push_str(&format!("{{{}}}", labels.join(",")));
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labelled(labels: Vec<(String, String)>, value: f64) -> Sample {
        let suffix = "";
        Sample {
            suffix,
            labels,
            value,
        }
    }

    #[test]
    fn renders_prometheus_text() {
        let mut snap = MetricsSnapshot::new();
        snap.push(
            "ingot_statistics_statements_executed",
            "ima$statistics.statements_executed",
            MetricKind::Untyped,
            vec![labelled(Vec::new(), 42.0)],
        );
        snap.push(
            "ingot_wait_events_count",
            "ima$wait_events.count",
            MetricKind::Untyped,
            vec![
                labelled(vec![("event".into(), "lock".into())], 10.0),
                labelled(vec![("event".into(), "fsync".into())], 3.0),
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
    fn histogram_suffixes() {
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
        assert!(text.contains("ingot_statement_latency_ns_sum{hash=\"abc\"} 4000\n"));
        assert!(text.contains("ingot_statement_latency_ns_count{hash=\"abc\"} 5"));
    }

    #[test]
    fn escapes_label_values() {
        let mut snap = MetricsSnapshot::new();
        snap.push(
            "m",
            "h",
            MetricKind::Untyped,
            vec![labelled(
                vec![("q".into(), "say \"hi\"\\\nthere".into())],
                1.0,
            )],
        );
        let text = snap.render_prometheus();
        assert!(
            text.contains("m{q=\"say \\\"hi\\\"\\\\\\nthere\"} 1\n"),
            "{text}"
        );
    }
}
