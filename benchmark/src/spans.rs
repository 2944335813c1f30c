//! The harness's own spans: recorded in memory around the calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! A root span is one end-to-end call. The spans under it come from
//! *replaying* the same statement stage by stage through the layers' public
//! functions right after it returned: they are children by attribution, not
//! by wall-clock nesting. A span's self time is its duration minus the sum
//! of its children's — for a root, that is what outside-in timing cannot
//! explain.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same recorder.
    pub parent: Option<u32>,
    /// Statement the span belongs to; spans of one statement share it.
    pub stmt: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span log of one lane.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record `f` as a span named `name` under `parent`; returns the span's
    /// index and `f`'s result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        stmt: u64,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        (self.push(name, parent, stmt, start, end), r)
    }

    /// Record a span whose endpoints were taken by the caller.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        stmt: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            stmt,
        });
        (self.spans.len() - 1) as u32
    }
}

/// Self time of every span: duration minus its children's durations
/// (saturating — replayed children can, on a bad day, outlast their parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Median self time per span name, microseconds. Roots that were not
/// replayed have no children and would read as all self time, so only spans
/// of statements in `replayed` count.
pub fn median_self_us(
    spans: &[Span],
    replayed: impl Fn(u64) -> bool,
) -> BTreeMap<&'static str, f64> {
    let own = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        if replayed(s.stmt) {
            by_name.entry(s.name).or_default().push(ns as f64 / 1e3);
        }
    }
    by_name
        .into_iter()
        .map(|(name, v)| (name, median(&v)))
        .collect()
}

/// Write every lane's spans as JSON lines: one object per span with a
/// file-wide `id`, the `parent` id, the statement id and the lane.
pub fn write_jsonl(path: &Path, lanes: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    let mut base = 0u64;
    for (lane, spans) in lanes.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(out, "{{\"id\": {}, \"parent\": ", base + i as u64);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{}", base + u64::from(p));
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(
                out,
                ", \"stmt\": {}, \"lane\": {lane}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.stmt, s.name, s.start_ns, s.end_ns
            );
        }
        base += spans.len() as u64;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, stmt: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            stmt,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100; replayed afterwards: a (30) with a grandchild (10), b (20).
        let spans = vec![
            span("root", 0, 100, None, 1),
            span("a", 100, 130, Some(0), 1),
            span("a.inner", 130, 140, Some(1), 1),
            span("b", 140, 160, Some(0), 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn self_time_saturates_when_children_outlast_the_parent() {
        let spans = vec![span("root", 0, 10, None, 1), span("a", 10, 40, Some(0), 1)];
        assert_eq!(self_times_ns(&spans), vec![0, 30]);
    }

    #[test]
    fn medians_skip_statements_that_were_not_replayed() {
        let spans = vec![
            span("root", 0, 1_000, None, 16),
            span("a", 1_000, 1_400, Some(0), 16),
            span("root", 2_000, 2_900, None, 17), // not replayed
            span("root", 3_000, 5_000, None, 32),
            span("a", 5_000, 5_600, Some(3), 32),
        ];
        let m = median_self_us(&spans, |stmt| stmt % 16 == 0);
        assert_eq!(m["root"], (0.6 + 1.4) / 2.0);
        assert_eq!(m["a"], 0.5);
    }

    #[test]
    fn recorder_links_children_and_jsonl_round_trips() {
        let mut rec = Recorder::new(Instant::now());
        let (root, v) = rec.span("root", None, 7, || 42);
        assert_eq!(v, 42);
        let (child, ()) = rec.span("child", Some(root), 7, || ());
        assert_eq!(rec.spans[child as usize].parent, Some(root));
        assert!(rec.spans[child as usize].start_ns >= rec.spans[root as usize].end_ns);

        let dir = crate::harness::target_dir()
            .unwrap()
            .join("tmp")
            .join(format!("spans-test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &[&rec.spans, &rec.spans]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        // Second lane's ids continue after the first's, parents included.
        assert_eq!(lines[3].get("id").and_then(Json::as_f64), Some(3.0));
        assert_eq!(lines[3].get("parent").and_then(Json::as_f64), Some(2.0));
        assert_eq!(lines[2].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("name").and_then(Json::as_str), Some("child"));
    }
}
