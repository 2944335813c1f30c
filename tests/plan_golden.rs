//! Same plans, same numbers. Every statement of a fixed corpus is parsed,
//! bound and optimized, and what the optimizer decided — EXPLAIN text,
//! estimated cost, used indexes, `uses_virtual`, output column names and a
//! digest of the whole plan tree (filters, probe keys, key order) — is
//! compared byte for byte with `tests/golden/plans.txt`. Tie-breaks and
//! candidate order are part of it. Its UPDATE and DELETE rows moved when
//! those statements started taking the access path a `SELECT` with their
//! WHERE takes (their estimate, used indexes and tree digest are that
//! path's). Query rows moved once since the planner started costing
//! candidates without building them: when the clustered primary tree became
//! one more keyed structure, probed for key ranges too. Five analytic
//! joins (`… where p.nref_id between 'NF…' and 'NF…' order by …`) in the
//! keyed sections now reach `protein` as `PkLookup on protein range` (cost
//! 1 / 7): in place of `SeqScan on protein` (600 / 12) without indexes,
//! and in place of an equally priced `IndexScan` on `protein(nref_id)`
//! (`ref_protein_id`, or its virtual twin in a what-if section), which the
//! earlier candidate wins on a tie. And every `tree:` digest of a row whose
//! plan holds an `IndexScan` or `PkLookup` node moved, as that node's
//! `Debug` now names its tree as a `ProbeSource`.
//!
//! On a mismatch the text this build produced is left in
//! `$CARGO_TARGET_TMPDIR/plans.actual.txt` to diff against the golden. To
//! accept a deliberate planner change, copy that file over the golden.
//!
//! The lexer's half rides the same corpus: an AST does not depend on keyword
//! or identifier case, nor on whitespace and comments outside quotes, and
//! malformed input keeps its message and byte offset.

use std::fmt::Write as _;
use std::sync::Arc;

use ingot::catalog::WhatIf;
use ingot::core::estimate;
use ingot::planner::{optimize, Binder, OptimizerOptions, PlannedStatement};
use ingot::prelude::*;
use ingot::sql::parse_statement;
use ingot::workload::{point_select_statement, reference_indexes, simple_join_statement};
use proptest::prelude::*;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/plans.txt");

/// The templates and textual statements of `tests/statement_paths.rs`.
const STATEMENT_PATHS: &[&str] = &[
    "insert into item values ($1, $2, $3, $4)",
    "select name, qty from item where id = $1",
    "select name,  qty\n from item where id = $1",
    "select id, qty from item where id >= $1 and id < $2",
    "select id from item where grp = $1",
    "select label from grp where grp = $1",
    "update item set qty = qty + $1 where id = $2",
    "select count(*) from grp",
    "select name from item where id = 3",
    "select id from item where name = 'item2'",
    "select i.name, g.label from item i join grp g on i.grp = g.grp where i.id < 6",
    "select grp, count(*), sum(qty) from item group by grp order by grp",
    "select i.name, g.label from item i join grp g on i.grp = g.grp where g.grp = 3",
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
    "update item set qty = 4 where grp = 4",
    "delete from item where id = 101",
    "insert into grp values (1, 'again')",
    "select count(*) from item where id is null or grp is null or name is null or qty is null",
    "select 1 + 2 as three",
    "select 1 where 1 = 2",
];

/// Joins and probes over the NREF schema beyond the paper's own sets.
const NREF_EXTRA: &[&str] = &[
    // Three and four tables, with and without a selective constant.
    "select p.name, t.scientific_name from protein p \
     join organism o on p.nref_id = o.nref_id \
     join taxonomy t on o.taxon_id = t.taxon_id where p.nref_id = 'NF00000042'",
    "select p.name, s.accession, f.feature from protein p \
     join source s on p.nref_id = s.nref_id \
     join seq_feature f on p.nref_id = f.nref_id where p.len > 40",
    "select p.name, o.organism_name, t.lineage, s.source_db from protein p \
     join organism o on p.nref_id = o.nref_id \
     join taxonomy t on o.taxon_id = t.taxon_id \
     join source s on p.nref_id = s.nref_id where t.rank_level = 2",
    "select count(*) from protein p, organism o, taxonomy t, neighboring_seq n \
     where p.nref_id = o.nref_id and o.taxon_id = t.taxon_id \
     and n.nref_id = p.nref_id and n.score > 90 and t.taxon_id = 7",
    // No equi-key: nested loop with a residual.
    "select t.taxon_id, u.taxon_id from taxonomy t join taxonomy u \
     on t.rank_level < u.rank_level where t.taxon_id < 3",
    // Several equi-keys between one pair.
    "select o.ordinal from organism o join source s \
     on o.nref_id = s.nref_id and o.organism_name = s.entry_name",
    // Monitor tables: virtual ⋈ virtual, virtual ⋈ base.
    "select s.query_text, w.exec_cpu from ima$statements s \
     join ima$workload w on s.hash = w.hash where w.exec_cpu > 10",
    "select r.hash, t.table_name from ima$references r \
     join ima$tables t on r.table_id = t.table_id where r.object_type = 'table'",
    "select t.table_name, x.taxon_id from ima$tables t \
     join taxonomy x on t.row_count = x.taxon_id",
    "select a.attr_name, p.name from protein p \
     join ima$attributes a on p.len = a.frequency where p.nref_id = 'NF00000007'",
    // Parameterised range and prefix probes.
    "select name from protein where nref_id between $1 and $2",
    "select name from protein where nref_id >= $1 and nref_id < 'NF00000100'",
    "select name from protein where len > $1 and len <= $2",
    "select name from protein where len = $1 and nref_id = $2",
    "select organism_name from organism where nref_id = $1",
    "select organism_name from organism where nref_id = $1 and taxon_id = $2",
    "select organism_name from organism where taxon_id = $1",
    "select accession from source where nref_id = 'NF00000011' and source_db = $1",
    "select feature from seq_feature where nref_id = $1 and position between 3 and 90",
    "select p.name, o.ordinal from protein p join organism o on p.nref_id = o.nref_id \
     where p.nref_id = $1",
    "update protein set len = len + 1 where nref_id = $1",
    "delete from seq_feature where nref_id = 'NF00000005' and position < $1",
];

/// Malformed input whose message (and byte offset) must not move.
const MALFORMED: &[&str] = &[
    "select from",
    "select 1 from t where",
    "select 1 extra garbage !",
    "insert t values (1)",
    "create table t (a unknown_type)",
    "select 'open",
    "select 1 /* open",
    "select \"open",
    "select a ! b",
    "select a # b from t",
    "select $0",
    "select 99999999999999999999",
    "select a from t limit -1",
    "select a from t where a not 5",
    "select a from t where a like 5",
    "select count( from t",
    "drop view v",
    "create view v",
    "analyze select 1 from t",
    "select 1; select",
    "select p. from protein p",
    "update t set = 4",
    "select a from t order",
    "select (1",
];

const NREF_TABLES: [&str; 6] = [
    "protein",
    "organism",
    "taxonomy",
    "source",
    "neighboring_seq",
    "seq_feature",
];

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Append what the optimizer decides for `sql` against `what_if` to `out`,
/// and check that the engine's own entry points (`estimate`, and `EXPLAIN`
/// where the copy holds no virtual index) say the same.
fn describe(engine: &Arc<Engine>, what_if: &WhatIf, out: &mut String, sql: &str) {
    writeln!(out, "-- {sql}").unwrap();
    let planned = parse_statement(sql).and_then(|stmt| {
        let (bound, _) = Binder::new(what_if).bind(&stmt)?;
        optimize(what_if, &bound, OptimizerOptions::default())
    });
    let planned = match planned {
        Ok(p) => p,
        Err(e) => {
            writeln!(out, "error: {e}\n").unwrap();
            return;
        }
    };
    let est = planned.estimated_cost();
    writeln!(out, "est: cpu={:?} io={:?}", est.cpu, est.io).unwrap();
    writeln!(out, "used_indexes: {:?}", planned.used_indexes()).unwrap();
    let estimate = estimate(what_if, sql).unwrap();
    assert_eq!(estimate.est, est, "{sql}");
    assert_eq!(estimate.used_indexes, planned.used_indexes(), "{sql}");
    let text = planned.explain(what_if).unwrap();
    assert_eq!(estimate.plan, text, "{sql}");
    let uses_virtual = planned.uses_virtual(what_if);
    assert_eq!(estimate.uses_virtual, uses_virtual, "{sql}");
    match &planned {
        PlannedStatement::Query(q) => {
            writeln!(out, "uses_virtual: {uses_virtual}").unwrap();
            writeln!(out, "columns: {:?}", q.output_names).unwrap();
            writeln!(out, "rows: {:?}", q.root.est_rows).unwrap();
            writeln!(out, "tree: {:016x}", fnv(&format!("{:?}", q.root))).unwrap();
            out.push_str(&text);
        }
        dml => writeln!(out, "tree: {:016x}", fnv(&format!("{dml:?}"))).unwrap(),
    }
    // EXPLAIN plans for execution: on the live catalog, every marker bound.
    if !what_if.indexes().any(|i| i.meta.is_virtual) && !sql.contains('$') {
        let explained = engine
            .open_session()
            .execute(&format!("explain {sql}"))
            .unwrap();
        let lines: Vec<&str> = explained
            .rows
            .iter()
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        assert_eq!(lines, text.lines().collect::<Vec<_>>(), "{sql}");
    }
    out.push('\n');
}

fn section(engine: &Arc<Engine>, what_if: &WhatIf, title: &str, corpus: &[String]) -> String {
    let mut out = format!("==== {title}\n\n");
    for sql in corpus {
        describe(engine, what_if, &mut out, sql);
    }
    out
}

/// The `statement_paths` schema in the state its reads run against.
fn item_engine() -> Arc<Engine> {
    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let s = engine.open_session();
    s.execute("create table item (id int not null primary key, grp int, name text, qty int)")
        .unwrap();
    s.execute("create table grp (grp int not null primary key, label text)")
        .unwrap();
    for g in 0..8 {
        s.execute(&format!("insert into grp values ({g}, 'g{g}')"))
            .unwrap();
    }
    for id in 0..120 {
        s.execute(&format!(
            "insert into item values ({id}, {}, 'item{id}', {})",
            id % 8,
            id * 7 % 50
        ))
        .unwrap();
    }
    s.execute("modify grp to btree").unwrap();
    s.execute("create index item_name on item (name)").unwrap();
    s.execute("create statistics on item").unwrap();
    engine
}

fn nref_corpus(nref: &NrefConfig) -> Vec<String> {
    let mut corpus = analytic_queries(nref);
    corpus.push(simple_join_statement(nref, 17));
    corpus.push(point_select_statement(nref, 17));
    corpus.extend(NREF_EXTRA.iter().map(|s| (*s).to_owned()));
    corpus
}

/// Hypothetical indexes for the what-if sections. With every other reference
/// index created, half of them are twins of a real index: equal cost, and
/// the real one must win the tie.
const VIRTUAL_INDEXES: [(&str, &[&str]); 8] = [
    ("protein", &["nref_id"]),
    ("protein", &["len"]),
    ("organism", &["nref_id"]),
    ("organism", &["taxon_id"]),
    ("source", &["accession"]),
    ("neighboring_seq", &["nref_id"]),
    ("neighboring_seq", &["score"]),
    ("seq_feature", &["nref_id", "position"]),
];

/// What the optimizer decides with [`VIRTUAL_INDEXES`] competing, in a
/// what-if copy of the engine's schema.
fn whatif_section(engine: &Arc<Engine>, title: &str, corpus: &[String]) -> String {
    let mut what_if = engine.what_if();
    for (table, columns) in VIRTUAL_INDEXES {
        what_if.add_virtual_index(table, columns).unwrap();
    }
    section(engine, &what_if, &format!("{title}, what-if"), corpus)
}

fn plans() -> String {
    let statement_paths: Vec<String> = STATEMENT_PATHS.iter().map(|s| (*s).to_owned()).collect();
    let item = item_engine();
    let mut out = section(&item, &item.what_if(), "statement_paths", &statement_paths);

    let engine = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let nref = NrefConfig {
        proteins: 600,
        taxa: 30,
        ..NrefConfig::default()
    };
    load_nref(&engine, &nref).unwrap();
    let corpus = nref_corpus(&nref);
    let s = engine.open_session();
    let mut stage = |title: &str| {
        out.push_str(&section(&engine, &engine.what_if(), title, &corpus));
        out.push_str(&whatif_section(&engine, title, &corpus));
    };
    stage("nref, heaps");
    for t in NREF_TABLES {
        s.execute(&format!("modify {t} to btree")).unwrap();
        s.execute(&format!("create statistics on {t}")).unwrap();
    }
    stage("nref, keyed, statistics");
    for ddl in reference_indexes().iter().step_by(2) {
        s.execute(ddl).unwrap();
    }
    stage("nref, every other reference index");

    out.push_str("==== malformed input\n\n");
    for sql in MALFORMED {
        let err = parse_statement(sql).expect_err(sql);
        writeln!(out, "-- {sql}\nerror: {err}\n").unwrap();
    }
    out
}

#[test]
fn plans_match_the_golden() {
    let actual = plans();
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("plans.actual.txt");
        std::fs::write(&path, &actual).unwrap();
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "plans differ from {GOLDEN} at line {}; this build's text is in {}",
            line + 1,
            path.display()
        );
    }
}

/// `sql` respelled: every letter outside quotes gets the case `flips` says,
/// every blank outside quotes becomes the filler `blanks` picks.
fn respell(sql: &str, flips: &[bool], blanks: &[u8]) -> String {
    const FILLERS: [&str; 6] = [" ", "\n", "\t  ", " /* note */ ", " -- note\n", "/**/ \r\n"];
    let mut out = String::with_capacity(sql.len() * 2);
    let mut quote = None;
    let (mut flips, mut blanks) = (flips.iter().cycle(), blanks.iter().cycle());
    for ch in sql.chars() {
        match quote {
            Some(q) => {
                out.push(ch);
                if ch == q {
                    quote = None;
                }
            }
            None if ch == '\'' || ch == '"' => {
                quote = Some(ch);
                out.push(ch);
            }
            None if ch.is_ascii_whitespace() => {
                out.push_str(FILLERS[usize::from(*blanks.next().unwrap()) % FILLERS.len()]);
            }
            None if *flips.next().unwrap() => out.push(ch.to_ascii_uppercase()),
            None => out.push(ch.to_ascii_lowercase()),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn asts_ignore_case_blanks_and_comments(
        flips in proptest::collection::vec(any::<bool>(), 1..64),
        blanks in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let nref = NrefConfig { proteins: 600, taxa: 30, ..NrefConfig::default() };
        let corpus = STATEMENT_PATHS.iter().map(|s| (*s).to_owned()).chain(nref_corpus(&nref));
        for sql in corpus {
            let respelled = respell(&sql, &flips, &blanks);
            prop_assert_eq!(
                parse_statement(&sql).unwrap(),
                parse_statement(&respelled).unwrap(),
                "{}", respelled
            );
        }
    }
}
