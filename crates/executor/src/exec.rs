//! Plan interpretation.
//!
//! Mostly a materialising executor: each operator consumes its children's
//! row vectors and produces its own. At the scale the benchmarks run this
//! keeps the code obviously correct; the per-tuple work is still counted
//! exactly, which is what the actual-cost sensor needs.
//!
//! It streams where the rows are many and cheap — out of a base-table scan.
//! A `SeqScan` runs as one loop (`crate::scan`) that tests its filter on
//! the encoded bytes and decodes survivors into one reused row; a `Filter`,
//! `Project` or `Aggregate` directly above it consumes that row inside the
//! same loop (`for_each_row`), so a range aggregate never materialises its
//! input. Spans, tuple counts and page counts are those of the operators
//! run one after the other; elapsed time is not split the same way: the
//! consumer's per-row work runs inside the `SeqScan`'s span, so that span's
//! time includes it (the consumer's inclusive time is unchanged).

use std::collections::HashMap;

use ingot_catalog::Catalog;
use ingot_common::{Error, MonotonicClock, Result, Row, Snapshot, Value};
use ingot_planner::{PhysPlan, PlanNode, ProbeSource, ProbeSpec};
use ingot_trace::{OperatorSpan, SpanCollector};

use crate::aggregate::Aggregator;
use crate::scan::seq_scan;

/// The result of a query plan.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output rows.
    pub rows: Vec<Row>,
    /// Tuples processed across all operators (actual CPU cost proxy).
    pub tuples: u64,
}

/// Execute a query plan with every base-table access filtered through
/// `snap`: sequential scans and index probes evaluate per-version
/// visibility, clustered lookups walk version chains backwards from the
/// head. Readers take no locks at all.
pub fn execute_plan_snapshot(
    catalog: &Catalog,
    plan: &PlanNode,
    snap: &Snapshot,
) -> Result<QueryResult> {
    run_query(catalog, plan, snap, None).map(|(result, _)| result)
}

/// Run a query plan, collecting per-operator spans when `trace` carries a
/// clock: every plan node then gets an [`OperatorSpan`] with rows-out, tuple
/// work, pages touched and elapsed time next to the optimizer's estimates
/// for the same node. Without a clock no collector exists and the returned
/// span vector is empty (and unallocated).
pub(crate) fn run_query(
    catalog: &Catalog,
    plan: &PlanNode,
    snap: &Snapshot,
    trace: Option<MonotonicClock>,
) -> Result<(QueryResult, Vec<OperatorSpan>)> {
    let mut collector = trace.map(SpanCollector::new);
    let mut tuples = 0u64;
    let rows = run(catalog, plan, snap, &mut tuples, collector.as_mut())?;
    let spans = collector.map(SpanCollector::finish).unwrap_or_default();
    Ok((QueryResult { rows, tuples }, spans))
}

/// Normalise a hash/group key so values that compare equal hash equally
/// (Int 2 vs Float 2.0).
pub fn normalize_key(v: &Value) -> Value {
    match v {
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Value::Int(*f as i64),
        other => other.clone(),
    }
}

/// Run one node, inside its span when tracing.
fn run(
    catalog: &Catalog,
    node: &PlanNode,
    snap: &Snapshot,
    tuples: &mut u64,
    trace: Option<&mut SpanCollector>,
) -> Result<Vec<Row>> {
    in_span(
        catalog,
        node,
        tuples,
        trace,
        |tuples, trace| run_node(catalog, node, snap, tuples, trace),
        |rows| rows.len() as u64,
    )
}

/// Run `body` for `node`, opening/closing the node's span around it when
/// tracing; `rows_out` reads the node's output row count off the result.
/// The span's tuple and page counts are measured inclusively (subtree
/// totals); `SpanCollector::finish` converts tuples to exclusive self-work.
fn in_span<T>(
    catalog: &Catalog,
    node: &PlanNode,
    tuples: &mut u64,
    trace: Option<&mut SpanCollector>,
    body: impl FnOnce(&mut u64, Option<&mut SpanCollector>) -> Result<T>,
    rows_out: impl FnOnce(&T) -> u64,
) -> Result<T> {
    let Some(collector) = trace else {
        return body(tuples, None);
    };
    let io_before = catalog.pool().io_stats().total();
    let tuples_before = *tuples;
    let frame = collector.enter(
        node.op_name(),
        node.op_detail(),
        node.est_rows,
        node.est_cost.total(),
    );
    let out = body(tuples, Some(&mut *collector))?;
    let pages = catalog.pool().io_stats().total().saturating_sub(io_before);
    collector.exit(frame, rows_out(&out), *tuples - tuples_before, pages);
    Ok(out)
}

/// Run `input` and hand each of its rows to `each` (which may take it),
/// pushing onto `out` the rows `each` returns; returns how many rows it
/// handed. A `SeqScan` input runs in the same loop as `each`, through one
/// reused row; any other input is materialised first, and `out` is sized to
/// it at the first row kept, as the materialising arms sized theirs.
fn for_each_row(
    catalog: &Catalog,
    input: &PlanNode,
    snap: &Snapshot,
    tuples: &mut u64,
    trace: Option<&mut SpanCollector>,
    out: &mut Vec<Row>,
    mut each: impl FnMut(&mut Row) -> Result<Option<Row>>,
) -> Result<u64> {
    if let PhysPlan::SeqScan {
        table,
        filter,
        needed,
        ..
    } = &input.op
    {
        let entry = catalog.table(*table)?;
        let each = |row: &mut Row| {
            if let Some(kept) = each(row)? {
                out.push(kept);
            }
            Ok(())
        };
        return in_span(
            catalog,
            input,
            tuples,
            trace,
            |tuples, _| seq_scan(entry, filter.as_ref(), *needed, snap, tuples, each),
            |&survivors| survivors,
        );
    }
    let rows = run(catalog, input, snap, tuples, trace)?;
    let n = rows.len();
    for (i, mut row) in rows.into_iter().enumerate() {
        if let Some(kept) = each(&mut row)? {
            out.reserve_exact(n - i); // a no-op after the first
            out.push(kept);
        }
    }
    Ok(n as u64)
}

fn run_node(
    catalog: &Catalog,
    node: &PlanNode,
    snap: &Snapshot,
    tuples: &mut u64,
    mut trace: Option<&mut SpanCollector>,
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
            seq_scan(entry, filter.as_ref(), *needed, snap, tuples, |row| {
                out.push(std::mem::take(row));
                Ok(())
            })?;
            Ok(out)
        }

        PhysPlan::IndexScan {
            table,
            index,
            probe,
            filter,
            needed,
            ..
        } => {
            let entry = catalog.table(*table)?;
            let idx = catalog.index(*index)?;
            // Probe keys are row-free expressions (literals after parameter
            // substitution); evaluate them against the empty row.
            let empty = Row::default();
            let rids = match probe {
                ProbeSpec::Eq(keys) => {
                    let values: Vec<Value> =
                        keys.iter().map(|e| e.eval(&empty)).collect::<Result<_>>()?;
                    idx.probe_eq(&values)?
                }
                ProbeSpec::Range { lo, hi } => {
                    let lo = lo.as_ref().map(|e| e.eval(&empty)).transpose()?;
                    let hi = hi.as_ref().map(|e| e.eval(&empty)).transpose()?;
                    idx.probe_range(lo.as_ref(), hi.as_ref())?
                }
            };
            // Secondary indexes hold one entry per version: each rid is an
            // exact physical version, filtered for visibility with no walk.
            let mut out = Vec::with_capacity(rids.len());
            for rid in rids {
                *tuples += 1;
                if let Some(row) = entry.version_visible(rid, snap, *needed)? {
                    if eval_filter(filter, &row)? {
                        out.push(row);
                    }
                }
            }
            Ok(out)
        }

        PhysPlan::PkLookup {
            table,
            key,
            filter,
            needed,
            ..
        } => {
            let entry = catalog.table(*table)?;
            let empty = Row::default();
            let key: Vec<Value> = key.iter().map(|e| e.eval(&empty)).collect::<Result<_>>()?;
            let rids = if key.len() == entry.meta.primary_key.len() {
                entry.pk_lookup(&key)?.into_iter().collect()
            } else {
                entry.pk_prefix_probe(&key)?
            };
            // The clustered tree points at chain heads; resolve each to the
            // version visible under the snapshot.
            let mut out = Vec::with_capacity(rids.len());
            for rid in rids {
                *tuples += 1;
                if let Some((_, row)) = entry.fetch_visible(rid, snap, *needed)? {
                    if eval_filter(filter, &row)? {
                        out.push(row);
                    }
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
            let outer = run(catalog, left, snap, tuples, trace.as_deref_mut())?;
            let entry = catalog.table(*table)?;
            let mut out = Vec::new();
            for lrow in &outer {
                let key = normalize_key(lrow.get(*left_key));
                if key.is_null() {
                    continue; // NULL keys never join
                }
                match source {
                    ProbeSource::PrimaryTree => {
                        for rid in entry.pk_prefix_probe(std::slice::from_ref(&key))? {
                            *tuples += 1;
                            if let Some((_, rrow)) = entry.fetch_visible(rid, snap, *needed)? {
                                let joined = lrow.concat(&rrow);
                                if eval_filter(filter, &joined)? {
                                    out.push(joined);
                                }
                            }
                        }
                    }
                    ProbeSource::Index(id, _) => {
                        for rid in catalog.index(*id)?.probe_eq(std::slice::from_ref(&key))? {
                            *tuples += 1;
                            if let Some(rrow) = entry.version_visible(rid, snap, *needed)? {
                                let joined = lrow.concat(&rrow);
                                if eval_filter(filter, &joined)? {
                                    out.push(joined);
                                }
                            }
                        }
                    }
                }
            }
            Ok(out)
        }

        PhysPlan::NestedLoopJoin { left, right, on } => {
            let l = run(catalog, left, snap, tuples, trace.as_deref_mut())?;
            let r = run(catalog, right, snap, tuples, trace.as_deref_mut())?;
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
            let l = run(catalog, left, snap, tuples, trace.as_deref_mut())?;
            let r = run(catalog, right, snap, tuples, trace.as_deref_mut())?;
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

        // The three streaming consumers: one tuple per input row each.
        PhysPlan::Filter { input, pred } => {
            let mut out = Vec::new();
            *tuples += for_each_row(catalog, input, snap, tuples, trace, &mut out, |row| {
                Ok(pred.eval_predicate(row)?.then(|| std::mem::take(row)))
            })?;
            Ok(out)
        }

        PhysPlan::Project { input, exprs } => {
            let mut out = Vec::new();
            *tuples += for_each_row(catalog, input, snap, tuples, trace, &mut out, |row| {
                let mut vals = Vec::with_capacity(exprs.len());
                for e in exprs {
                    vals.push(e.eval(row)?);
                }
                Ok(Some(Row::new(vals)))
            })?;
            Ok(out)
        }

        PhysPlan::Aggregate {
            input,
            group_by,
            aggs,
            having,
        } => {
            let mut agg = Aggregator::new(group_by, aggs);
            *tuples += for_each_row(
                catalog,
                input,
                snap,
                tuples,
                trace,
                &mut Vec::new(),
                |row| agg.push(row).map(|()| None),
            )?;
            agg.finish(having.as_ref())
        }

        PhysPlan::Sort { input, keys } => {
            let mut rows = run(catalog, input, snap, tuples, trace.as_deref_mut())?;
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
            let rows = run(catalog, input, snap, tuples, trace.as_deref_mut())?;
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
            let rows = run(catalog, input, snap, tuples, trace)?;
            let start = (*offset as usize).min(rows.len());
            let end = match limit {
                Some(l) => (start + *l as usize).min(rows.len()),
                None => rows.len(),
            };
            Ok(rows[start..end].to_vec())
        }
    }
}

fn eval_filter(filter: &Option<ingot_planner::PhysExpr>, row: &Row) -> Result<bool> {
    match filter {
        Some(f) => f.eval_predicate(row),
        None => Ok(true),
    }
}

/// Format rows as an aligned text table (used by examples and the analyzer's
/// textual reports).
pub fn format_rows(names: &[String], rows: &[Row]) -> String {
    let mut widths: Vec<usize> = names.iter().map(String::len).collect();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            r.values()
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let s = v.to_string();
                    if i < widths.len() {
                        widths[i] = widths[i].max(s.len());
                    }
                    s
                })
                .collect()
        })
        .collect();
    let mut out = String::new();
    let header: Vec<String> = names
        .iter()
        .enumerate()
        .map(|(i, n)| format!("{n:<w$}", w = widths.get(i).copied().unwrap_or(0)))
        .collect();
    out.push_str(&header.join(" | "));
    out.push('\n');
    out.push_str(&"-".repeat(out.len().saturating_sub(1)));
    out.push('\n');
    for row in rendered {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{s:<w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&line.join(" | "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, ExecCtx, ExecOutcome};
    use ingot_common::{Column, DataType, EngineConfig, Schema, SimClock};
    use ingot_planner::{optimize, Binder, BoundStatement, OptimizerOptions, PlannedStatement};
    use ingot_sql::parse_statement;
    use ingot_storage::StorageEngine;
    use std::sync::Arc;

    fn setup() -> Catalog {
        let cfg = EngineConfig::default();
        let storage = StorageEngine::in_memory(&cfg, SimClock::new());
        let mut c = Catalog::new(Arc::clone(storage.pool()), 4);
        let protein = c
            .create_table(
                "protein",
                Schema::new(vec![
                    Column::not_null("nref_id", DataType::Int),
                    Column::new("name", DataType::Str),
                    Column::new("len", DataType::Int),
                ]),
                vec![0],
            )
            .unwrap();
        let organism = c
            .create_table(
                "organism",
                Schema::new(vec![
                    Column::not_null("nref_id", DataType::Int),
                    Column::new("taxon_id", DataType::Int),
                ]),
                vec![0],
            )
            .unwrap();
        for i in 0..500i64 {
            c.insert_row(
                protein,
                &Row::new(vec![
                    Value::Int(i),
                    Value::Str(format!("p{i}")),
                    Value::Int(i % 10),
                ]),
            )
            .unwrap();
            c.insert_row(organism, &Row::new(vec![Value::Int(i), Value::Int(i % 5)]))
                .unwrap();
        }
        c
    }

    fn plan(c: &Catalog, sql: &str) -> PlannedStatement {
        let (bound, _) = Binder::new(c).bind(&parse_statement(sql).unwrap()).unwrap();
        assert!(matches!(bound, BoundStatement::Select(_)));
        optimize(c, &bound, OptimizerOptions::default()).unwrap()
    }

    fn query(c: &Catalog, sql: &str) -> ExecOutcome {
        execute(c, &plan(c, sql), &ExecCtx::direct()).unwrap().0
    }

    #[test]
    fn point_select() {
        let c = setup();
        let r = query(&c, "select name from protein where nref_id = 42");
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0), &Value::Str("p42".into()));
        assert!(r.tuples >= 500, "seq scan touches every tuple");
    }

    #[test]
    fn join_matches_fk() {
        let c = setup();
        let sql = "select p.name, o.taxon_id from protein p \
                   join organism o on p.nref_id = o.nref_id where p.nref_id < 10";
        let r = query(&c, sql);
        assert_eq!(r.rows.len(), 10);
        for row in &r.rows {
            assert_eq!(row.len(), 2);
        }
        // Span collection changes nothing but the spans; the snapshot-only
        // entry the benchmark replays through agrees with both.
        let planned = plan(&c, sql);
        let traced = ExecCtx {
            trace: Some(MonotonicClock::new()),
            ..ExecCtx::direct()
        };
        let (t, spans) = execute(&c, &planned, &traced).unwrap();
        assert_eq!((&t.rows, t.tuples), (&r.rows, r.tuples));
        assert!(spans.len() >= 3, "join + two inputs, got {spans:?}");
        let PlannedStatement::Query(q) = &planned else {
            panic!()
        };
        let bare = execute_plan_snapshot(&c, &q.root, &Snapshot::latest()).unwrap();
        assert_eq!((bare.rows, bare.tuples), (r.rows, r.tuples));
    }

    #[test]
    fn aggregation_group_having_order() {
        let c = setup();
        let r = query(
            &c,
            "select taxon_id, count(*) as n from organism \
             group by taxon_id having count(*) > 0 order by taxon_id",
        );
        assert_eq!(r.rows.len(), 5);
        for (i, row) in r.rows.iter().enumerate() {
            assert_eq!(row.get(0), &Value::Int(i as i64));
            assert_eq!(row.get(1), &Value::Int(100));
        }
    }

    #[test]
    fn order_by_hidden_column_is_stripped() {
        let c = setup();
        let r = query(
            &c,
            "select name from protein order by len desc, nref_id limit 3",
        );
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0].len(), 1, "hidden sort column must be stripped");
        // len=9 group, smallest ids: 9, 19, 29.
        assert_eq!(r.rows[0].get(0), &Value::Str("p9".into()));
        assert_eq!(r.rows[1].get(0), &Value::Str("p19".into()));
    }

    #[test]
    fn distinct_and_limit_offset() {
        let c = setup();
        let r = query(
            &c,
            "select distinct taxon_id from organism order by taxon_id",
        );
        assert_eq!(r.rows.len(), 5);
        let r = query(
            &c,
            "select distinct taxon_id from organism order by taxon_id limit 2 offset 1",
        );
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].get(0), &Value::Int(1));
    }

    #[test]
    fn index_scan_results_match_seq_scan() {
        let mut c = setup();
        let sql = "select name from protein where len = 3 order by name";
        let seq = query(&c, sql);
        let t = c.resolve_table("protein").unwrap();
        c.create_index("protein_len_idx", t, vec![2], false)
            .unwrap();
        c.collect_statistics(t, &[], 0).unwrap();
        let via_index = query(&c, sql);
        assert_eq!(seq.rows, via_index.rows);
    }

    #[test]
    fn tableless_and_arithmetic() {
        let c = setup();
        let r = query(&c, "select 2 + 3 * 4 as x, 'a' + 'b' as y");
        assert_eq!(r.rows[0].get(0), &Value::Int(14));
        assert_eq!(r.rows[0].get(1), &Value::Str("ab".into()));
    }

    #[test]
    fn null_keys_do_not_join() {
        let cfg = EngineConfig::default();
        let storage = StorageEngine::in_memory(&cfg, SimClock::new());
        let mut c = Catalog::new(Arc::clone(storage.pool()), 2);
        let a = c
            .create_table(
                "a",
                Schema::new(vec![Column::new("k", DataType::Int)]),
                vec![],
            )
            .unwrap();
        let b = c
            .create_table(
                "b",
                Schema::new(vec![Column::new("k", DataType::Int)]),
                vec![],
            )
            .unwrap();
        c.insert_row(a, &Row::new(vec![Value::Null])).unwrap();
        c.insert_row(a, &Row::new(vec![Value::Int(1)])).unwrap();
        c.insert_row(b, &Row::new(vec![Value::Null])).unwrap();
        c.insert_row(b, &Row::new(vec![Value::Int(1)])).unwrap();
        let r = query(&c, "select * from a join b on a.k = b.k");
        assert_eq!(r.rows.len(), 1, "NULL = NULL must not match");
    }

    #[test]
    fn count_star_on_empty_group() {
        let c = setup();
        let r = query(&c, "select count(*) from protein where nref_id = -1");
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0), &Value::Int(0));
    }

    #[test]
    fn format_rows_aligns() {
        let names = vec!["id".to_owned(), "name".to_owned()];
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Str("alpha".into())]),
            Row::new(vec![Value::Int(100), Value::Str("b".into())]),
        ];
        let s = format_rows(&names, &rows);
        assert!(s.contains("id "));
        assert!(s.lines().count() == 4);
    }
}
