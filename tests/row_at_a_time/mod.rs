//! The row-at-a-time executor this PR replaced, kept as a test oracle (as
//! `crates/storage/tests/btree_oracle` keeps the retired B-Tree): every
//! operator materialises its input, a `SeqScan` decodes each visible version
//! into a fresh row and evaluates its filter on it, `Filter` and `Aggregate`
//! run over the collected vectors, and the hash aggregate keys even a global
//! group. The arms are the parent commit's, minus span collection, reading
//! the scan cursor's current item shape. Its probes (`IndexScan`, whichever
//! tree it names, and `ProbeJoin`) walk the B-Trees with their own key
//! bounds through `BTreeFile::{get, for_each_in_range}`, not through the
//! catalog's probe walk or the executor's probe loop they are checked
//! against.
//!
//! `tests/statement_paths.rs` runs every query of its stream through this
//! and through the fused executor: rows, tuples and page reads must agree.

use std::collections::{HashMap, HashSet};

use ingot::catalog::{Catalog, TableEntry};
use ingot::common::{ColumnSet, Error, Result, Row, Snapshot, Value};
use ingot::executor::exec::normalize_key;
use ingot::planner::{AggFunc, AggSpec, PhysExpr, PhysPlan, PlanNode, ProbeSource, ProbeSpec};
use ingot::storage::{encode_key, RowId};

/// Execute `plan` under `snap`: its rows and the tuples it processed.
pub fn execute(catalog: &Catalog, plan: &PlanNode, snap: &Snapshot) -> Result<(Vec<Row>, u64)> {
    let mut tuples = 0;
    let rows = run_node(catalog, plan, snap, &mut tuples)?;
    Ok((rows, tuples))
}

fn run_node(
    catalog: &Catalog,
    node: &PlanNode,
    snap: &Snapshot,
    tuples: &mut u64,
) -> Result<Vec<Row>> {
    match &node.op {
        PhysPlan::DualScan => Ok(vec![Row::default()]),

        PhysPlan::VirtualScan { table, filter, .. } => {
            let def = catalog
                .virtual_table(*table)
                .ok_or_else(|| Error::execution(format!("no virtual table {table}")))?;
            let mut out = Vec::new();
            for row in (def.provider)() {
                *tuples += 1;
                if eval_filter(filter, &row)? {
                    out.push(row);
                }
            }
            Ok(out)
        }

        PhysPlan::SeqScan {
            table,
            filter,
            needed,
            ..
        } => {
            let entry = catalog.table(*table)?;
            let mut out = Vec::new();
            for item in entry.scan_visible(snap, *needed) {
                let (_, _, row) = item?;
                *tuples += 1;
                if eval_filter(filter, &row)? {
                    out.push(row);
                }
            }
            Ok(out)
        }

        PhysPlan::IndexScan {
            table,
            source,
            probe,
            filter,
            needed,
            ..
        } => {
            let entry = catalog.table(*table)?;
            // Probe keys are row-free expressions (literals after parameter
            // substitution); evaluate them against the empty row.
            let empty = Row::default();
            let eval = |e: &Option<PhysExpr>| e.as_ref().map(|e| e.eval(&empty)).transpose();
            let (lo, hi) = match probe {
                ProbeSpec::Eq(keys) => {
                    let values: Vec<Value> =
                        keys.iter().map(|e| e.eval(&empty)).collect::<Result<_>>()?;
                    (Some(values.clone()), Some(values))
                }
                ProbeSpec::Range { lo, hi } => {
                    (eval(lo)?.map(|v| vec![v]), eval(hi)?.map(|v| vec![v]))
                }
            };
            let mut out = Vec::new();
            for row in probe_fetch(catalog, entry, source, lo, hi, snap, *needed, tuples)? {
                if eval_filter(filter, &row)? {
                    out.push(row);
                }
            }
            Ok(out)
        }

        PhysPlan::ProbeJoin {
            left,
            table,
            left_key,
            source,
            filter,
            needed,
            ..
        } => {
            let outer = run_node(catalog, left, snap, tuples)?;
            let entry = catalog.table(*table)?;
            let mut out = Vec::new();
            for lrow in &outer {
                let key = normalize_key(lrow.get(*left_key));
                if key.is_null() {
                    continue; // NULL keys never join
                }
                let key = Some(vec![key]);
                for rrow in probe_fetch(
                    catalog,
                    entry,
                    source,
                    key.clone(),
                    key,
                    snap,
                    *needed,
                    tuples,
                )? {
                    let joined = lrow.concat(&rrow);
                    if eval_filter(filter, &joined)? {
                        out.push(joined);
                    }
                }
            }
            Ok(out)
        }

        PhysPlan::NestedLoopJoin { left, right, on } => {
            let l = run_node(catalog, left, snap, tuples)?;
            let r = run_node(catalog, right, snap, tuples)?;
            let mut out = Vec::new();
            for lr in &l {
                for rr in &r {
                    *tuples += 1;
                    let joined = lr.concat(rr);
                    if eval_filter(on, &joined)? {
                        out.push(joined);
                    }
                }
            }
            Ok(out)
        }

        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            filter,
        } => {
            let l = run_node(catalog, left, snap, tuples)?;
            let r = run_node(catalog, right, snap, tuples)?;
            // Build on the left, probe with the right.
            let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::with_capacity(l.len());
            for row in &l {
                *tuples += 1;
                let key: Vec<Value> = left_keys
                    .iter()
                    .map(|&k| normalize_key(row.get(k)))
                    .collect();
                if key.iter().any(Value::is_null) {
                    continue; // NULL keys never join
                }
                table.entry(key).or_default().push(row);
            }
            let mut out = Vec::new();
            for rr in &r {
                *tuples += 1;
                let key: Vec<Value> = right_keys
                    .iter()
                    .map(|&k| normalize_key(rr.get(k)))
                    .collect();
                if key.iter().any(Value::is_null) {
                    continue;
                }
                if let Some(matches) = table.get(&key) {
                    for lr in matches {
                        *tuples += 1;
                        let joined = lr.concat(rr);
                        if eval_filter(filter, &joined)? {
                            out.push(joined);
                        }
                    }
                }
            }
            Ok(out)
        }

        PhysPlan::Filter { input, pred } => {
            let rows = run_node(catalog, input, snap, tuples)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                *tuples += 1;
                if pred.eval_predicate(&row)? {
                    out.push(row);
                }
            }
            Ok(out)
        }

        PhysPlan::Project { input, exprs } => {
            let rows = run_node(catalog, input, snap, tuples)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                *tuples += 1;
                let mut vals = Vec::with_capacity(exprs.len());
                for e in exprs {
                    vals.push(e.eval(&row)?);
                }
                out.push(Row::new(vals));
            }
            Ok(out)
        }

        PhysPlan::Aggregate {
            input,
            group_by,
            aggs,
            having,
        } => {
            let rows = run_node(catalog, input, snap, tuples)?;
            *tuples += rows.len() as u64;
            run_aggregate(&rows, group_by, aggs, having.as_ref())
        }

        PhysPlan::Sort { input, keys } => {
            let mut rows = run_node(catalog, input, snap, tuples)?;
            *tuples += rows.len() as u64;
            rows.sort_by(|a, b| {
                for &(k, desc) in keys {
                    let ord = a.get(k).cmp(b.get(k));
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                // Whole-row tiebreak: under-specified ORDER BY still yields
                // a deterministic total order (reproducible LIMIT results).
                a.cmp(b)
            });
            Ok(rows)
        }

        PhysPlan::Distinct { input } => {
            let rows = run_node(catalog, input, snap, tuples)?;
            let mut seen = std::collections::HashSet::with_capacity(rows.len());
            let mut out = Vec::new();
            for row in rows {
                *tuples += 1;
                let key: Vec<Value> = row.values().iter().map(normalize_key).collect();
                if seen.insert(key) {
                    out.push(row);
                }
            }
            Ok(out)
        }

        PhysPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let rows = run_node(catalog, input, snap, tuples)?;
            let start = (*offset as usize).min(rows.len());
            let end = match limit {
                Some(l) => (start + *l as usize).min(rows.len()),
                None => rows.len(),
            };
            Ok(rows[start..end].to_vec())
        }
    }
}

/// The visible versions of `entry` whose keys in `source` lie between the
/// key prefixes `lo` and `hi` (inclusive, each covering every key it is a
/// prefix of; `None` unbounded). A full primary key is
/// looked up; every other probe walks the tree's leaves. A primary-tree
/// entry is a version chain's head, resolved to the version `snap` sees; a
/// secondary-index entry is one exact version. One tuple per entry.
#[allow(clippy::too_many_arguments)]
fn probe_fetch(
    catalog: &Catalog,
    entry: &TableEntry,
    source: &ProbeSource,
    lo: Option<Vec<Value>>,
    hi: Option<Vec<Value>>,
    snap: &Snapshot,
    needed: ColumnSet,
    tuples: &mut u64,
) -> Result<Vec<Row>> {
    let (tree, heads) = match source {
        ProbeSource::PrimaryTree => (entry.primary.clone(), true),
        ProbeSource::Index(id, _) => (catalog.index(*id)?.tree.clone(), false),
    };
    let tree = tree.ok_or_else(|| Error::execution("probe of a missing tree"))?;
    let point =
        heads && lo == hi && lo.as_ref().map(Vec::len) == Some(entry.meta.primary_key.len());
    let rid = |v: &[u8]| RowId::unpack(u64::from_le_bytes(v.try_into().unwrap()));
    let mut rids = Vec::new();
    if point {
        let key = encode_key(lo.as_deref().unwrap_or_default());
        rids.extend(tree.get(&key)?.as_deref().map(rid));
    } else {
        let lo = lo.map(|v| encode_key(&v));
        let hi = hi.map(|v| {
            let mut k = encode_key(&v);
            k.extend_from_slice(&[0xFF; 9]);
            k
        });
        tree.for_each_in_range(lo.as_deref(), hi.as_deref(), |_, v| rids.push(rid(v)))?;
    }
    let mut out = Vec::with_capacity(rids.len());
    for rid in rids {
        *tuples += 1;
        let visible = if heads {
            entry.fetch_visible(rid, snap, needed)?.map(|(_, row)| row)
        } else {
            entry.version_visible(rid, snap, needed)?
        };
        out.extend(visible);
    }
    Ok(out)
}

fn eval_filter(filter: &Option<PhysExpr>, row: &Row) -> Result<bool> {
    match filter {
        Some(f) => f.eval_predicate(row),
        None => Ok(true),
    }
}

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

/// Run hash aggregation. Output rows: `[group keys ‖ aggregate values]`,
/// filtered by HAVING (which is bound over that output layout).
fn run_aggregate(
    rows: &[Row],
    group_by: &[PhysExpr],
    aggs: &[AggSpec],
    having: Option<&PhysExpr>,
) -> Result<Vec<Row>> {
    let mut groups: HashMap<Vec<Value>, Group> = HashMap::new();
    // A global aggregate (no GROUP BY) over zero rows must still produce one
    // output group.
    if group_by.is_empty() {
        groups.insert(Vec::new(), new_group(aggs));
    }
    for row in rows {
        let key: Vec<Value> = group_by
            .iter()
            .map(|e| e.eval(row).map(|v| normalize_key(&v)))
            .collect::<Result<_>>()?;
        let group = groups.entry(key).or_insert_with(|| new_group(aggs));
        let slots = group.states.iter_mut().zip(group.distinct_seen.iter_mut());
        for (spec, (state, seen)) in aggs.iter().zip(slots) {
            let input = spec.input.as_ref().map(|e| e.eval(row)).transpose()?;
            if spec.distinct {
                if let Some(v) = &input {
                    if v.is_null() {
                        continue;
                    }
                    // `new_group` allocates the set iff the spec is distinct,
                    // so the slot is always `Some` on this branch.
                    if let Some(set) = seen.as_mut() {
                        if !set.insert(normalize_key(v)) {
                            continue;
                        }
                    }
                }
            }
            state.update(input.as_ref())?;
        }
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, group) in groups {
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

fn new_group(aggs: &[AggSpec]) -> Group {
    Group {
        states: aggs.iter().map(|a| AggState::new(a.func)).collect(),
        distinct_seen: aggs.iter().map(|a| a.distinct.then(HashSet::new)).collect(),
    }
}
