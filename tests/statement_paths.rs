//! Differential oracle over the statement path: one seeded statement stream
//! runs on four engines — plan cache {on, capacity 0} × runtime tracing
//! {on, off} — and every observable the paths must agree on is compared:
//! result rows, `affected`, actual CPU cost, estimated cost, error variants,
//! and what the monitor recorded (`ima$workload` rows, per-statement
//! references, table / index / attribute usage).
//!
//! A second oracle rides the same stream on all four engines: every query is
//! also planned by hand, and the plan is executed next to a clone of itself
//! whose base-table accesses read every column — column pruning must change
//! no row, no tuple count and no page read — and next to the row-at-a-time
//! executor this stream's scans used to run on (`row_at_a_time`), under the
//! statement's snapshot and under an older one: the fused scan loop, its
//! byte-level conjuncts and the streaming aggregate must change none of
//! them either. Generated predicates over a table of NULLs, ints, floats
//! and prefix-sharing strings aim at exactly that loop.
//!
//! A plan-cache hit reports the estimate its template was priced with when
//! first planned, a miss prices now. The stream keeps both tables inside
//! their preallocated heap extent, so the page counts the optimizer prices
//! from never move and the two estimates are comparable at every step.

mod row_at_a_time;

use ingot::common::{ColumnSet, Snapshot, StmtHash, TxnId};
use ingot::executor::execute_plan_snapshot;
use ingot::planner::{optimize, Binder, OptimizerOptions, PhysPlan, PlanNode, PlannedStatement};
use ingot::prelude::*;
use ingot::sql::{parse_statement, Statement};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 2009;
const ITEMS: i64 = 120;
/// Rows of `event`, a B-Tree table whose rows are wide enough (a 600-byte
/// note) that a range of a few keys, a few random fetches, is priced below
/// reading its heap.
const EVENTS: i64 = 400;
const GROUPS: i64 = 8;

/// One step of the stream. `a` is the session under test; `b` is a second
/// session on the same engine whose only job is to commit under `a`'s feet.
#[derive(Debug, Clone)]
enum Step {
    Sql(String),
    Prepared(&'static str, Vec<Value>),
    OtherSession(String),
    Begin,
    Commit,
    Rollback,
}

/// What one step produced, reduced to what every path must agree on.
#[derive(Debug, PartialEq)]
enum Outcome {
    Done {
        /// Sorted: hash joins and aggregates promise a multiset, not an order.
        rows: Vec<Row>,
        affected: u64,
        actual_cpu: f64,
        est: (f64, f64),
    },
    /// The error's variant (messages may name transaction ids).
    Failed(std::mem::Discriminant<Error>),
}

const INSERT_ITEM: &str = "insert into item values ($1, $2, $3, $4)";
const POINT: &str = "select name, qty from item where id = $1";
/// `POINT` spelled with other whitespace: the same plan-cache template, a
/// statement of its own to the monitor (the hash is of the raw text).
const POINT_SPACED: &str = "select name,  qty\n from item where id = $1";
const RANGE: &str = "select id, qty from item where id >= $1 and id < $2";
const BY_GROUP: &str = "select id from item where grp = $1";
const GROUP_LABEL: &str = "select label from grp where grp = $1";
/// A key range on the B-Tree `event` with both bounds unknown at plan time:
/// priced at the default `between` selectivity, so it reads the heap.
const EVENT_RANGE: &str = "select id, kind from event where id >= $1 and id < $2";
const RESTOCK: &str = "update item set qty = qty + $1 where id = $2";

fn stream() -> Vec<Step> {
    use Step::*;
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut steps = vec![
        Sql("create table item (id int not null primary key, grp int, name text, qty int)".into()),
        Sql("create table grp (grp int not null primary key, label text)".into()),
        Sql("create table q (\"x  y\" int, \"x y\" int)".into()),
        Sql("insert into q values (1, 2)".into()),
    ];
    for g in 0..GROUPS {
        steps.push(Sql(format!("insert into grp values ({g}, 'g{g}')")));
    }
    for id in 0..ITEMS {
        let row = vec![
            Value::Int(id),
            Value::Int(id % GROUPS),
            Value::Str(format!("item{id}")),
            Value::Int(rng.gen_range(0..50)),
        ];
        steps.push(Prepared(INSERT_ITEM, row));
    }
    steps.push(Sql("modify grp to btree".into()));
    steps.push(Sql("create index item_name on item (name)".into()));
    steps.push(Sql("create statistics on item".into()));
    steps.push(Sql(
        "create table event (id int not null primary key, kind int, note text)".into(),
    ));
    let note = "n".repeat(600);
    for first in (0..EVENTS).step_by(20) {
        let rows: Vec<String> = (first..first + 20)
            .map(|id| format!("({id}, {}, '{note}{id}')", id % 3))
            .collect();
        steps.push(Sql(format!("insert into event values {}", rows.join(", "))));
    }
    steps.push(Sql("modify event to btree".into()));
    steps.push(Sql("create statistics on event".into()));

    // Reads: every shape, prepared and textual, each template several times
    // so the cached engines serve most of them from a hit.
    for _ in 0..40 {
        let id = rng.gen_range(0..ITEMS);
        let lo = rng.gen_range(0..ITEMS - 10);
        let g = rng.gen_range(0..GROUPS);
        steps.push(Prepared(POINT, vec![Value::Int(id)]));
        steps.push(Prepared(POINT_SPACED, vec![Value::Int(id)]));
        steps.push(Sql("select count(*) from grp".into()));
        steps.push(Sql(format!("select name from item where id = {}", id % 5)));
        steps.push(Prepared(RANGE, vec![Value::Int(lo), Value::Int(lo + 10)]));
        steps.push(Prepared(BY_GROUP, vec![Value::Int(g)]));
        steps.push(Prepared(GROUP_LABEL, vec![Value::Int(g)]));
        steps.push(Sql(format!(
            "select id from item where name = 'item{}'",
            id % 4
        )));
        steps.push(Sql(format!(
            "select i.name, g.label from item i join grp g on i.grp = g.grp where i.id < {}",
            5 + id % 3
        )));
        steps.push(Sql(
            "select grp, count(*), sum(qty) from item group by grp order by grp".into(),
        ));
        // Key ranges on the clustered tree: `between` with literal bounds,
        // which the model prices below the heap; parameter and one-sided
        // bounds, which it prices at its default range selectivities, so
        // they read the heap.
        let at = lo * 3;
        steps.push(Sql(format!(
            "select id, note from event where id between {at} and {}",
            at + 4
        )));
        steps.push(Prepared(
            EVENT_RANGE,
            vec![Value::Int(at), Value::Int(at + 6)],
        ));
        steps.push(Sql(format!(
            "select count(*), sum(kind) from event where id >= {}",
            EVENTS - 1 - id % 5
        )));
        steps.push(Sql(format!(
            "select id from event where id < {}",
            1 + id % 4
        )));
    }
    // Writes through the clustered range, then ranges over the version
    // chains they leave (the older snapshot walks back along them). The
    // reads' shapes are new here: no template priced before the writes grew
    // the heap runs again.
    steps.push(Sql(
        "update event set kind = kind + 10 where id between 100 and 104".into(),
    ));
    steps.push(Sql("delete from event where id between 397 and 399".into()));
    steps.push(Sql(
        "select id, kind from event where id between 99 and 105 order by id".into(),
    ));
    steps.push(Sql(
        "select count(*), sum(kind) from event where id between 394 and 399".into(),
    ));
    steps.push(Sql(
        "explain analyze select i.name, g.label from item i join grp g on i.grp = g.grp \
         where g.grp = 3"
            .into(),
    ));

    // Shapes column pruning could get wrong: everything projected; a filter,
    // a sort key and a group key that are not projected; whole-row DISTINCT;
    // join residuals that read both sides (probe join into the clustered
    // `grp`, hash join of `item` with itself); an index probe with a
    // residual filter.
    for sql in [
        "select * from item where id < 5",
        "select name from item where qty > 10",
        "select name from item order by qty desc, id limit 7",
        "select distinct grp from item",
        "select distinct g.label, i.qty from item i join grp g on i.grp = g.grp",
        "select name, count(*) from item group by name",
        "select i.id from item i join grp g on i.grp = g.grp \
         where length(i.name) + i.qty > length(g.label) + 25",
        "select i.id, j.id from item i join item j on i.qty = j.qty \
         where i.name < j.name and i.id < 5",
        "select id from item where name = 'item7' and qty >= 0",
    ] {
        steps.push(Sql(sql.into()));
    }

    // Predicates for the fused scan: before and after updates that leave
    // versions the oracle's older snapshot still sees.
    steps.push(Sql(
        "create table pred (i int, f float, s text, g int)".into()
    ));
    for k in 0..48 {
        let or_null = |null: bool, v: String| if null { "null".to_owned() } else { v };
        steps.push(Sql(format!(
            "insert into pred values ({}, {}, {}, {})",
            or_null(k % 7 == 0, format!("{}", k % 6 - 2)),
            or_null(k % 5 == 0, format!("{:.1}", (k % 4) as f64 * 0.5)),
            or_null(k % 9 == 0, format!("'{}'", STRS[k as usize % STRS.len()])),
            k % 3
        )));
    }
    for round in 0..2 {
        for _ in 0..PREDICATE_QUERIES {
            steps.push(Sql(predicate_query(&mut rng)));
        }
        if round == 0 {
            steps.push(Sql("update pred set i = i + 1 where g = 1".into()));
            steps.push(Sql("update pred set s = s + 'a' where g = 2".into()));
            steps.push(Sql("delete from pred where i = 0".into()));
        }
    }

    // Texts one blank apart that mean different things — a column name with
    // two spaces or one, a comment that ends at its newline or runs on over
    // the FROM clause — each sent after the other has been cached.
    for sql in [
        "select \"x  y\" from q",
        "select \"x y\" from q",
        "select 1 -- c\n from grp",
        "select 1 -- c from grp",
    ] {
        steps.push(Sql(sql.into()));
    }

    // Writes, auto-commit: prepared and textual updates, deletes of distinct
    // rows, a duplicate key, an unknown table, a wrong parameter count.
    for n in 0..30 {
        let id = rng.gen_range(0..ITEMS - 20);
        steps.push(Prepared(RESTOCK, vec![Value::Int(n), Value::Int(id)]));
        steps.push(Sql(format!(
            "update item set qty = {n} where grp = {}",
            n % GROUPS
        )));
        steps.push(Prepared(POINT, vec![Value::Int(id)]));
    }
    for id in ITEMS - 20..ITEMS - 10 {
        steps.push(Sql(format!("delete from item where id = {id}")));
    }
    steps.push(Sql(
        "explain analyze update item set qty = qty + 1 where grp = 2".into(),
    ));
    steps.push(Sql("explain analyze delete from item where id = 0".into()));
    steps.push(Sql("insert into grp values (1, 'again')".into()));
    steps.push(Sql("select * from nowhere".into()));
    steps.push(Prepared(POINT, vec![]));

    // Explicit transactions: one that commits, one that rolls back, and one
    // that loses first-committer-wins to the other session.
    steps.extend([
        Begin,
        Prepared(
            INSERT_ITEM,
            vec![
                Value::Int(500),
                Value::Int(0),
                Value::Str("t".into()),
                Value::Int(1),
            ],
        ),
        Prepared(RESTOCK, vec![Value::Int(7), Value::Int(500)]),
        Prepared(POINT, vec![Value::Int(500)]),
        Commit,
        Begin,
        Sql("delete from item where grp = 1".into()),
        Sql("select count(*) from item".into()),
        Rollback,
        Sql("select count(*) from item".into()),
        Begin,
        Prepared(POINT, vec![Value::Int(2)]),
        OtherSession("update item set qty = 1000 where id = 2".into()),
        Prepared(RESTOCK, vec![Value::Int(1), Value::Int(2)]),
        // The conflict aborted the transaction: nothing left to commit.
        Commit,
        Prepared(POINT, vec![Value::Int(2)]),
        // UPDATE and DELETE filtered on one column of a heap rewrote and
        // kept whole rows: no column they did not read came back NULL.
        Sql(WHOLE_ROWS.into()),
    ]);
    steps
}

const WHOLE_ROWS: &str =
    "select count(*) from item where id is null or grp is null or name is null or qty is null";

/// Generated queries over `pred`, per round.
const PREDICATE_QUERIES: usize = 40;
/// `pred.s` values: shared prefixes and the empty string.
const STRS: [&str; 6] = ["", "a", "ab", "abc", "b", "ba"];

/// One conjunct of the shapes the scan tests on bytes (and some it does
/// not: float and int against each other, `NOT`).
fn predicate_atom(rng: &mut SmallRng) -> String {
    const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
    let op = OPS[rng.gen_range(0..OPS.len())];
    let int = rng.gen_range(-3i64..4);
    let (a, b) = (
        STRS[rng.gen_range(0..STRS.len())],
        STRS[rng.gen_range(0..STRS.len())],
    );
    match rng.gen_range(0..12) {
        0 => format!("i {op} {int}"),
        1 => format!("{int} {op} i"),
        2 => format!("i {op} {}.5", int),
        3 => format!("f {op} {int}"),
        4 => format!("s {op} '{a}'"),
        5 => format!("s between '{a}' and '{b}'"),
        6 => format!("s not between '{a}' and '{b}'"),
        7 => format!("i between {int} and {}", int + 2),
        8 => format!("i not between {int} and {}", int + 1),
        9 => format!("not (i {op} {int})"),
        10 => format!("s is {}null", ["", "not "][rng.gen_range(0..2usize)]),
        _ => format!("{} is not null", ["i", "f", "g"][rng.gen_range(0..3usize)]),
    }
}

/// A query whose plan is a scan of `pred` under a filter, an aggregate or
/// a projection.
fn predicate_query(rng: &mut SmallRng) -> String {
    let (a, b, c) = (
        predicate_atom(rng),
        predicate_atom(rng),
        predicate_atom(rng),
    );
    let pred = match rng.gen_range(0..4) {
        0 => a,
        1 => format!("{a} and {b}"),
        2 => format!("{a} or {b}"),
        _ => format!("{a} and ({b} or {c})"),
    };
    match rng.gen_range(0..5) {
        0 => format!("select count(*), sum(i) from pred where {pred}"),
        1 => format!("select i, s from pred where {pred}"),
        2 => format!("select * from pred where {pred}"),
        3 => format!(
            "select g, count(*), min(s), max(f), avg(i), count(distinct s) from pred \
             where {pred} group by g having count(*) > 1"
        ),
        _ => format!("select count(*) from pred where {pred} and i > 100"),
    }
}

/// Make every base-table access of the plan read every column again.
fn unprune(node: &mut PlanNode) {
    match &mut node.op {
        PhysPlan::DualScan | PhysPlan::VirtualScan { .. } => {}
        PhysPlan::SeqScan { needed, .. } | PhysPlan::IndexScan { needed, .. } => {
            *needed = ColumnSet::all()
        }
        PhysPlan::ProbeJoin { left, needed, .. } => {
            *needed = ColumnSet::all();
            unprune(left);
        }
        PhysPlan::NestedLoopJoin { left, right, .. } | PhysPlan::HashJoin { left, right, .. } => {
            unprune(left);
            unprune(right);
        }
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::Aggregate { input, .. }
        | PhysPlan::Sort { input, .. }
        | PhysPlan::Distinct { input }
        | PhysPlan::Limit { input, .. } => unprune(input),
    }
}

/// What [`plans_agree`] saw of a query's plan.
#[derive(Default)]
struct Seen {
    /// The plan reads fewer columns than its tables have.
    pruned: bool,
    /// The plan probes a clustered primary tree for a key range.
    clustered_range: bool,
}

/// Pruned ≡ unpruned ≡ row-at-a-time. Plans `sql` the way the engine does
/// and, when it is a query, executes the optimizer's plan, its unpruned
/// clone and the plan on the row-at-a-time oracle, under the latest
/// snapshot and under one a few commits older.
fn plans_agree(engine: &Engine, sql: &str, params: &[Value]) -> Seen {
    let Ok(stmt @ Statement::Select(_)) = parse_statement(sql) else {
        return Seen::default();
    };
    let catalog = engine.catalog().read();
    let planned = Binder::new(&catalog)
        .bind(&stmt)
        .and_then(|(bound, _)| optimize(&catalog, &bound, OptimizerOptions::default()))
        .and_then(|planned| planned.substitute_params(params));
    // Binder and arity errors are the main oracle's business.
    let Ok(PlannedStatement::Query(q)) = planned else {
        return Seen::default();
    };
    let mut full = q.root.clone();
    unprune(&mut full);
    let older = Snapshot {
        ts: engine.txns().read_ts().saturating_sub(5),
        txn: TxnId(0),
    };
    for snap in [Snapshot::latest(), older] {
        // Rows as a multiset (hash operators promise no order), tuples,
        // pages read.
        let measured = |run: &dyn Fn() -> Result<(Vec<Row>, u64)>| {
            let before = engine.io_stats().total();
            let (mut rows, tuples) = run().unwrap();
            rows.sort();
            (rows, tuples, engine.io_stats().total() - before)
        };
        let fused = |plan: &PlanNode| {
            measured(&|| execute_plan_snapshot(&catalog, plan, &snap).map(|r| (r.rows, r.tuples)))
        };
        let want = fused(&q.root);
        assert_eq!(want, fused(&full), "pruned vs unpruned: {sql}\n{}", q.root);
        let oracle = measured(&|| row_at_a_time::execute(&catalog, &q.root, &snap));
        assert_eq!(want, oracle, "fused vs row-at-a-time: {sql}\n{}", q.root);
    }
    let text = q.root.to_string();
    Seen {
        pruned: text != full.to_string(),
        clustered_range: text
            .lines()
            .any(|l| l.trim_start().starts_with("PkLookup on") && l.contains(" range")),
    }
}

/// `EXPLAIN ANALYZE` text with the run-dependent parts (pages touched,
/// timings, waits) cut away: operator, estimates and actual counts remain.
fn stable_plan_text(rows: Vec<Row>) -> Vec<Row> {
    rows.into_iter()
        .filter_map(|row| {
            let line = row.get(0).as_str()?.to_owned();
            if line.starts_with("Waits:") {
                return None;
            }
            let cut = line
                .find(", pages=")
                .or_else(|| line.rfind(", "))
                .unwrap_or(line.len());
            Some(Row::new(vec![Value::Str(line[..cut].to_owned())]))
        })
        .collect()
}

fn outcome(result: Result<StatementResult>, is_plan_text: bool) -> Outcome {
    match result {
        Ok(r) => {
            let mut rows = if is_plan_text {
                stable_plan_text(r.rows)
            } else {
                r.rows
            };
            rows.sort();
            Outcome::Done {
                rows,
                affected: r.affected,
                actual_cpu: r.actual_cost.cpu,
                est: (r.est_cost.cpu, r.est_cost.io),
            }
        }
        Err(e) => Outcome::Failed(std::mem::discriminant(&e)),
    }
}

/// Everything the monitor holds that must not depend on the path taken.
#[derive(Debug, PartialEq)]
struct Recorded {
    /// `ima$workload`: statement hash, tuples processed, estimate.
    workload: Vec<(String, u64, f64, f64)>,
    /// `ima$references`: statement → table / attribute / index.
    references: Vec<(String, &'static str, u64, u32)>,
    tables: Vec<(u32, String, u64, String, u64)>,
    indexes: Vec<(String, u64)>,
    attributes: Vec<(u32, usize, u64, bool)>,
}

fn recorded(engine: &Engine) -> Recorded {
    let m = engine.monitor().expect("monitoring on");
    let mut references: Vec<_> = m
        .references()
        .into_iter()
        .map(|r| {
            (
                r.hash.to_string(),
                r.object.tag(),
                r.object_id,
                r.table.raw(),
            )
        })
        .collect();
    references.sort();
    let mut tables: Vec<_> = m
        .tables()
        .into_iter()
        .map(|t| (t.id.raw(), t.name, t.frequency, t.storage, t.rows))
        .collect();
    tables.sort();
    let mut indexes: Vec<_> = m
        .indexes()
        .into_iter()
        .map(|i| (i.name, i.frequency))
        .collect();
    indexes.sort();
    let mut attributes: Vec<_> = m
        .attributes()
        .into_iter()
        .map(|a| (a.table.raw(), a.column, a.frequency, a.has_histogram))
        .collect();
    attributes.sort();
    Recorded {
        workload: m
            .workload()
            .into_iter()
            .map(|w| (w.hash.to_string(), w.exec_cpu, w.est.cpu, w.est.io))
            .collect(),
        references,
        tables,
        indexes,
        attributes,
    }
}

struct Run {
    outcomes: Vec<Outcome>,
    recorded: Recorded,
    cache_hits: u64,
    traced_statements: u64,
    /// Queries whose plan reads fewer columns than its tables have.
    pruned_plans: usize,
    /// Queries planned with a key range on a clustered primary tree.
    clustered_ranges: usize,
}

fn run(steps: &[Step], cache_capacity: usize, trace: bool) -> Run {
    let engine = Engine::builder()
        .config(EngineConfig::monitoring().with_plan_cache_capacity(cache_capacity))
        .build()
        .unwrap();
    let a = engine.open_session();
    let b = engine.open_session();
    // Both spellings are one recorded statement, so the four workload
    // tables stay row-for-row aligned (the row itself is skipped below).
    let switch = if trace {
        "set trace = on"
    } else {
        "set trace = off"
    };
    a.execute(switch).unwrap();

    let unit = |r: Result<()>| outcome(r.map(|()| StatementResult::default()), false);
    let (mut pruned_plans, mut clustered_ranges) = (0, 0);
    let mut count = |seen: Seen| {
        pruned_plans += usize::from(seen.pruned);
        clustered_ranges += usize::from(seen.clustered_range);
    };
    let outcomes = steps
        .iter()
        .map(|step| match step {
            Step::Sql(sql) => {
                count(plans_agree(&engine, sql, &[]));
                outcome(a.execute(sql), sql.starts_with("explain"))
            }
            Step::Prepared(sql, params) => {
                count(plans_agree(&engine, sql, params));
                outcome(a.prepare(sql).and_then(|p| p.execute(params)), false)
            }
            Step::OtherSession(sql) => outcome(b.execute(sql), false),
            Step::Begin => unit(a.begin()),
            Step::Commit => unit(a.commit()),
            Step::Rollback => unit(a.rollback()),
        })
        .collect();

    let mut recorded = recorded(&engine);
    recorded.workload.remove(0);

    // One identity per statement, whoever asks: a statement that looks
    // itself up in `ima$active_sessions` finds its own normalised template
    // and the hash `ima$statements` files its raw text under.
    let own = "select hash,  statement\n from ima$active_sessions";
    let seen = a.execute(own).unwrap().rows;
    let hash = StmtHash::of(own).to_string();
    let expected = [
        Value::Str(hash.clone()),
        Value::Str("select hash, statement from ima$active_sessions".into()),
    ];
    assert_eq!(seen, vec![Row::new(expected.to_vec())]);
    let filed = a
        .execute(&format!(
            "select query_text from ima$statements where hash = '{hash}'"
        ))
        .unwrap()
        .rows;
    assert_eq!(filed, vec![Row::new(vec![Value::Str(own.into())])]);

    let traced_statements = engine
        .tracer()
        .map_or(0, |t| t.histograms().iter().map(|(_, h)| h.total()).sum());
    Run {
        outcomes,
        recorded,
        cache_hits: engine.plan_cache_stats().hits,
        traced_statements,
        pruned_plans,
        clustered_ranges,
    }
}

#[test]
fn every_statement_path_agrees() {
    let steps = stream();
    let reference = run(&steps, 256, false);

    // Premises: the stream exercises what it claims to.
    let failed = |v: Error| Outcome::Failed(std::mem::discriminant(&v));
    for expected in [
        failed(Error::WriteConflict(String::new())),
        failed(Error::Constraint(String::new())),
        failed(Error::param_arity(1, 0)),
    ] {
        assert!(
            reference.outcomes.contains(&expected),
            "the stream must produce {expected:?}"
        );
    }
    assert!(reference.cache_hits > 300, "hits: {}", reference.cache_hits);
    let rows_of = |sql: &str| {
        let at = steps
            .iter()
            .position(|s| matches!(s, Step::Sql(q) if q == sql));
        match &reference.outcomes[at.unwrap()] {
            Outcome::Done { rows, .. } => rows.clone(),
            failed => panic!("{sql}: {failed:?}"),
        }
    };
    let one = |v: i64| Row::new(vec![Value::Int(v)]);
    assert_eq!(rows_of("select \"x  y\" from q"), [one(1)]);
    assert_eq!(rows_of("select \"x y\" from q"), [one(2)]);
    assert_eq!(rows_of("select 1 -- c\n from grp").len(), GROUPS as usize);
    assert_eq!(rows_of("select 1 -- c from grp"), [one(1)]);
    assert_eq!(reference.traced_statements, 0);
    assert!(
        reference.recorded.references.iter().any(|r| r.1 == "index"),
        "some statement must use an index"
    );
    assert!(reference.pruned_plans > 300, "{}", reference.pruned_plans);
    // The literal `between` of every read round and the two reads after
    // the writes probe `event`'s clustered tree for a key range.
    assert_eq!(reference.clustered_ranges, 40 + 2);
    // Every generated predicate binds and runs; some select rows, some none.
    let generated: Vec<&Outcome> = steps
        .iter()
        .zip(&reference.outcomes)
        .filter(|(s, _)| matches!(s, Step::Sql(q) if q.starts_with("select") && q.contains(" from pred where ")))
        .map(|(_, o)| o)
        .collect();
    assert_eq!(generated.len(), 2 * PREDICATE_QUERIES);
    let selected = |o: &Outcome| matches!(o, Outcome::Done { rows, .. } if !rows.is_empty());
    assert!(
        generated.iter().all(|o| matches!(o, Outcome::Done { .. })),
        "{generated:?}"
    );
    let selecting = generated.iter().filter(|o| selected(o)).count();
    assert!(selecting > PREDICATE_QUERIES / 2, "{selecting}");
    assert!(selecting < generated.len(), "{selecting}");
    let whole = steps
        .iter()
        .position(|s| matches!(s, Step::Sql(q) if q == WHOLE_ROWS));
    assert!(
        matches!(&reference.outcomes[whole.unwrap()], Outcome::Done { rows, .. }
            if rows == &[Row::new(vec![Value::Int(0)])]),
        "DML over a heap must read and write whole rows"
    );

    for (capacity, trace) in [(256, true), (0, false), (0, true)] {
        let other = run(&steps, capacity, trace);
        let label = format!("plan cache {capacity}, trace {trace}");
        assert_eq!(other.cache_hits > 0, capacity > 0, "{label}");
        assert_eq!(other.traced_statements > 0, trace, "{label}");
        assert_eq!(other.pruned_plans, reference.pruned_plans, "{label}");
        assert_eq!(
            other.clustered_ranges, reference.clustered_ranges,
            "{label}"
        );
        for (i, (want, got)) in reference.outcomes.iter().zip(&other.outcomes).enumerate() {
            assert_eq!(want, got, "{label}: step {i} {:?}", steps[i]);
        }
        assert_eq!(
            reference.recorded.workload.len(),
            other.recorded.workload.len(),
            "{label}: ima$workload row count"
        );
        assert_eq!(reference.recorded, other.recorded, "{label}");
    }
}
