//! `BENCHMARK.json` as the harness sees it: the names it must print, their
//! units and the bounds `agree` judges by. The file is embedded at build
//! time, so a binary and its contract cannot drift apart.

use crate::json::Json;
use crate::Fail;

/// The contract file at the repo root.
pub const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// Names are made of letters, digits, `_`, `.` and `-`, start with a letter
/// or digit and hold at most 64 characters.
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, Fail> {
    let bad = |what: &str| Fail::new(format!("BENCHMARK.json: {key}: {what}"));
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("not an array"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).ok_or_else(|| bad(f));
            Ok(MetricSpec {
                name: field("name")?.to_owned(),
                unit: field("unit")?.to_owned(),
                higher_is_better: match field("better")? {
                    "higher" => true,
                    "lower" => false,
                    _ => return Err(bad("better is neither higher nor lower")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, Fail> {
        let doc = Json::parse(text).map_err(|e| Fail::new(format!("BENCHMARK.json: {e}")))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| Fail::new("BENCHMARK.json: workloads missing"))?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect();
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or_else(|| Fail::new("BENCHMARK.json: run_seconds missing"))?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// The embedded contract.
    pub fn embedded() -> Result<Spec, Fail> {
        Spec::parse(BENCHMARK_JSON)
    }

    /// Attach units to measured `values`, in the contract's order. Fails on
    /// a contract metric nobody measured and on a measurement the contract
    /// does not list — every run checks both directions.
    pub fn render_metrics(specs: &[MetricSpec], values: &[(&str, f64)]) -> Result<Json, Fail> {
        for (name, _) in values {
            if !specs.iter().any(|s| s.name == *name) {
                return Err(Fail::new(format!(
                    "metric {name} is measured but BENCHMARK.json does not list it"
                )));
            }
        }
        let members = specs
            .iter()
            .map(|s| {
                let (_, v) = values.iter().find(|(n, _)| *n == s.name).ok_or_else(|| {
                    Fail::new(format!(
                        "BENCHMARK.json lists {} but it was not measured",
                        s.name
                    ))
                })?;
                if !v.is_finite() {
                    return Err(Fail::new(format!("metric {} has no value ({v})", s.name)));
                }
                Ok((
                    s.name.clone(),
                    Json::obj([
                        ("value", Json::Num(*v)),
                        ("unit", Json::Str(s.unit.clone())),
                    ]),
                ))
            })
            .collect::<Result<Vec<_>, Fail>>()?;
        Ok(Json::Obj(members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;

    #[test]
    fn name_rule() {
        for ok in ["p99_us", "wire.encode_req_us", "a-b", "9lives"] {
            assert!(is_valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!is_valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn contract_is_well_formed_and_names_the_five_workloads() {
        let spec = Spec::embedded().unwrap();
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(spec.workloads, names);
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        let mut seen = std::collections::BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(is_valid_name(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{} listed twice", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
        }
        for m in &spec.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    }

    #[test]
    fn render_checks_both_directions() {
        let specs = vec![MetricSpec {
            name: "a".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: None,
        }];
        assert!(Spec::render_metrics(&specs, &[("a", 1.5)]).is_ok());
        assert!(Spec::render_metrics(&specs, &[]).is_err());
        assert!(Spec::render_metrics(&specs, &[("a", 1.0), ("b", 2.0)]).is_err());
        assert!(Spec::render_metrics(&specs, &[("a", f64::NAN)]).is_err());
    }
}
