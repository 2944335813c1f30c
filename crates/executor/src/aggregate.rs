//! Hash aggregation, streamed: one row in at a time, the groups out at the
//! end.

use std::collections::{HashMap, HashSet};

use ingot_common::{Error, Result, Row, Value};
use ingot_planner::{AggFunc, AggSpec, PhysExpr};

use crate::exec::normalize_key;

/// Accumulator for one aggregate in one group.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    Sum {
        int: i64,
        float: f64,
        any_float: bool,
        seen: bool,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                int: 0,
                float: 0.0,
                any_float: false,
                seen: false,
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) gets None (count every row); COUNT(e) skips NULL.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            AggState::Sum {
                int,
                float,
                any_float,
                seen,
            } => {
                if let Some(val) = v {
                    match val {
                        Value::Null => {}
                        Value::Int(i) => {
                            *int += i;
                            *float += *i as f64;
                            *seen = true;
                        }
                        Value::Float(f) => {
                            *float += f;
                            *any_float = true;
                            *seen = true;
                        }
                        other => {
                            return Err(Error::type_error(format!("SUM of non-number {other}")))
                        }
                    }
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(val) = v {
                    if let Some(f) = val.as_f64() {
                        *sum += f;
                        *n += 1;
                    } else if !val.is_null() {
                        return Err(Error::type_error(format!("AVG of non-number {val}")));
                    }
                }
            }
            AggState::Min(cur) => {
                if let Some(val) = v {
                    if !val.is_null() && cur.as_ref().is_none_or(|c| val < c) {
                        *cur = Some(val.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(val) = v {
                    if !val.is_null() && cur.as_ref().is_none_or(|c| val > c) {
                        *cur = Some(val.clone());
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum {
                int,
                float,
                any_float,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if any_float {
                    Value::Float(float)
                } else {
                    Value::Int(int)
                }
            }
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

struct Group {
    states: Vec<AggState>,
    distinct_seen: Vec<Option<HashSet<Value>>>,
}

impl Group {
    fn new(aggs: &[AggSpec]) -> Group {
        Group {
            states: aggs.iter().map(|a| AggState::new(a.func)).collect(),
            distinct_seen: aggs.iter().map(|a| a.distinct.then(HashSet::new)).collect(),
        }
    }

    fn update(&mut self, aggs: &[AggSpec], row: &Row) -> Result<()> {
        let slots = self.states.iter_mut().zip(self.distinct_seen.iter_mut());
        for (spec, (state, seen)) in aggs.iter().zip(slots) {
            let evaluated;
            let input = match &spec.input {
                None => None,
                // A bare column is read in place, not cloned per row.
                Some(PhysExpr::Col(c)) if *c < row.len() => Some(row.get(*c)),
                Some(e) => {
                    evaluated = e.eval(row)?;
                    Some(&evaluated)
                }
            };
            if spec.distinct {
                if let Some(v) = input {
                    if v.is_null() {
                        continue;
                    }
                    // `Group::new` allocates the set iff the spec is
                    // distinct, so the slot is always `Some` on this branch.
                    if let Some(set) = seen.as_mut() {
                        if !set.insert(normalize_key(v)) {
                            continue;
                        }
                    }
                }
            }
            state.update(input)?;
        }
        Ok(())
    }
}

/// Streaming hash aggregation: rows are [`push`](Aggregator::push)ed one at
/// a time (the executor hands over the scan's reused row) and
/// [`finish`](Aggregator::finish) emits `[group keys ‖ aggregate values]`
/// rows filtered by HAVING (which is bound over that output layout).
pub struct Aggregator<'p> {
    group_by: &'p [PhysExpr],
    aggs: &'p [AggSpec],
    /// The one group of a global aggregate (no GROUP BY): it exists even
    /// over zero rows, and needs no key or hash per row.
    global: Option<Group>,
    groups: HashMap<Vec<Value>, Group>,
}

impl<'p> Aggregator<'p> {
    /// An aggregator with no rows yet.
    pub fn new(group_by: &'p [PhysExpr], aggs: &'p [AggSpec]) -> Self {
        Aggregator {
            group_by,
            aggs,
            global: group_by.is_empty().then(|| Group::new(aggs)),
            groups: HashMap::new(),
        }
    }

    /// Fold one input row into its group.
    #[inline]
    pub fn push(&mut self, row: &Row) -> Result<()> {
        let aggs = self.aggs;
        let group = match &mut self.global {
            Some(group) => group,
            None => {
                let key: Vec<Value> = self
                    .group_by
                    .iter()
                    .map(|e| e.eval(row).map(|v| normalize_key(&v)))
                    .collect::<Result<_>>()?;
                self.groups.entry(key).or_insert_with(|| Group::new(aggs))
            }
        };
        group.update(aggs, row)
    }

    /// The output rows, one per group that HAVING keeps.
    pub fn finish(self, having: Option<&PhysExpr>) -> Result<Vec<Row>> {
        let global = self.global.map(|group| (Vec::new(), group));
        let mut out = Vec::with_capacity(self.groups.len() + usize::from(global.is_some()));
        for (key, group) in global.into_iter().chain(self.groups) {
            let mut vals = key;
            for st in group.states {
                vals.push(st.finish());
            }
            let row = Row::new(vals);
            if let Some(h) = having {
                if !h.eval_predicate(&row)? {
                    continue;
                }
            }
            out.push(row);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_aggregate(
        rows: &[Row],
        group_by: &[PhysExpr],
        aggs: &[AggSpec],
        having: Option<&PhysExpr>,
    ) -> Result<Vec<Row>> {
        let mut agg = Aggregator::new(group_by, aggs);
        for row in rows {
            agg.push(row)?;
        }
        agg.finish(having)
    }

    fn rows() -> Vec<Row> {
        // (grp, val)
        [(1, 10), (1, 20), (2, 5), (2, 5), (2, 30)]
            .into_iter()
            .map(|(g, v)| Row::new(vec![Value::Int(g), Value::Int(v)]))
            .collect()
    }

    fn spec(func: AggFunc, col: Option<usize>, distinct: bool) -> AggSpec {
        AggSpec {
            func,
            input: col.map(PhysExpr::Col),
            distinct,
        }
    }

    fn by_group(mut out: Vec<Row>) -> Vec<Row> {
        out.sort();
        out
    }

    #[test]
    fn grouped_count_sum_avg() {
        let out = by_group(
            run_aggregate(
                &rows(),
                &[PhysExpr::Col(0)],
                &[
                    spec(AggFunc::Count, None, false),
                    spec(AggFunc::Sum, Some(1), false),
                    spec(AggFunc::Avg, Some(1), false),
                ],
                None,
            )
            .unwrap(),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[0].values()[..3],
            [Value::Int(1), Value::Int(2), Value::Int(30)]
        );
        assert_eq!(out[1].get(2), &Value::Int(40));
        assert_eq!(out[1].get(3), &Value::Float(40.0 / 3.0));
    }

    #[test]
    fn min_max_and_distinct_count() {
        let out = by_group(
            run_aggregate(
                &rows(),
                &[PhysExpr::Col(0)],
                &[
                    spec(AggFunc::Min, Some(1), false),
                    spec(AggFunc::Max, Some(1), false),
                    spec(AggFunc::Count, Some(1), true),
                ],
                None,
            )
            .unwrap(),
        );
        // Group 2: min 5, max 30, distinct {5, 30} → 2.
        assert_eq!(out[1].get(1), &Value::Int(5));
        assert_eq!(out[1].get(2), &Value::Int(30));
        assert_eq!(out[1].get(3), &Value::Int(2));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let out = run_aggregate(
            &[],
            &[],
            &[
                spec(AggFunc::Count, None, false),
                spec(AggFunc::Sum, Some(0), false),
                spec(AggFunc::Avg, Some(0), false),
                spec(AggFunc::Min, Some(0), false),
            ],
            None,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), &Value::Int(0));
        assert_eq!(out[0].get(1), &Value::Null);
        assert_eq!(out[0].get(2), &Value::Null);
        assert_eq!(out[0].get(3), &Value::Null);
    }

    #[test]
    fn nulls_are_skipped_by_aggregates() {
        let data = vec![
            Row::new(vec![Value::Int(1), Value::Null]),
            Row::new(vec![Value::Int(1), Value::Int(7)]),
        ];
        let out = run_aggregate(
            &data,
            &[PhysExpr::Col(0)],
            &[
                spec(AggFunc::Count, Some(1), false),
                spec(AggFunc::Count, None, false),
                spec(AggFunc::Avg, Some(1), false),
            ],
            None,
        )
        .unwrap();
        assert_eq!(out[0].get(1), &Value::Int(1)); // count(val) skips null
        assert_eq!(out[0].get(2), &Value::Int(2)); // count(*) does not
        assert_eq!(out[0].get(3), &Value::Float(7.0));
    }

    #[test]
    fn having_filters_groups() {
        // HAVING count(*) > 2 keeps only group 2.
        let having = PhysExpr::Binary {
            op: ingot_sql::BinOp::Gt,
            left: Box::new(PhysExpr::Col(1)),
            right: Box::new(PhysExpr::Literal(Value::Int(2))),
        };
        let out = run_aggregate(
            &rows(),
            &[PhysExpr::Col(0)],
            &[spec(AggFunc::Count, None, false)],
            Some(&having),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), &Value::Int(2));
    }

    #[test]
    fn sum_promotes_to_float() {
        let data = vec![
            Row::new(vec![Value::Int(1)]),
            Row::new(vec![Value::Float(2.5)]),
        ];
        let out = run_aggregate(&data, &[], &[spec(AggFunc::Sum, Some(0), false)], None).unwrap();
        assert_eq!(out[0].get(0), &Value::Float(3.5));
    }
}
