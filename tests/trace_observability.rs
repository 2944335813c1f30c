//! Integration tests for the structured tracing subsystem: `EXPLAIN
//! ANALYZE`, the trace IMA tables (`ima$operator_stats`,
//! `ima$latency_histograms`), the monitor's self-observation
//! (`ima$monitor_health`), and the Prometheus metrics snapshot — all
//! exercised through public SQL and the umbrella crate only.

use ingot::common::StmtHash;
use ingot::prelude::*;

fn engine() -> std::sync::Arc<Engine> {
    Engine::builder()
        .config(EngineConfig::tracing())
        .build()
        .unwrap()
}

fn load(s: &Session) {
    s.execute("create table protein (nref_id int not null primary key, name text, org_id int)")
        .unwrap();
    s.execute("create table organism (org_id int not null primary key, oname text)")
        .unwrap();
    for i in 0..10 {
        s.execute(&format!("insert into organism values ({i}, 'o{i}')"))
            .unwrap();
    }
    for i in 0..200 {
        s.execute(&format!(
            "insert into protein values ({i}, 'p{i}', {})",
            i % 10
        ))
        .unwrap();
    }
}

fn plan_lines(r: &StatementResult) -> Vec<String> {
    r.rows
        .iter()
        .map(|row| row.get(0).as_str().unwrap().to_owned())
        .collect()
}

#[test]
fn explain_analyze_annotates_every_operator_of_a_join() {
    let e = engine();
    let s = e.open_session();
    load(&s);
    let sql = "explain analyze select p.name, o.oname from protein p \
               join organism o on p.org_id = o.org_id where o.org_id = 3";
    let r = s.execute(sql).unwrap();
    let lines = plan_lines(&r);

    // Golden shape: a Project over a join over two scans, plus the summary.
    let (ops, summary) = lines.split_at(lines.len() - 1);
    assert!(ops.len() >= 4, "expected >= 4 operator lines: {lines:#?}");
    assert!(ops[0].starts_with("Project"), "{lines:#?}");
    assert!(ops.iter().any(|l| l.contains("Join")), "{lines:#?}");
    assert_eq!(
        ops.iter()
            .filter(|l| l.contains("SeqScan") || l.contains("IndexScan") || l.contains("PkLookup"))
            .count(),
        2,
        "two table accesses: {lines:#?}"
    );
    // Every operator line is annotated with estimated vs actual rows, page
    // count, and elapsed time.
    for l in ops {
        assert!(l.contains("est rows="), "{l}");
        assert!(l.contains("act rows="), "{l}");
        assert!(l.contains("pages="), "{l}");
        assert!(l.contains("time="), "{l}");
    }
    // The plan says what it reads: `protein.nref_id` is used by nobody, so
    // that scan is marked; `organism` is read whole and renders as ever.
    let scan_of = |t: &str| ops.iter().find(|l| l.contains(&format!("SeqScan on {t} ")));
    let protein = scan_of("protein").expect("protein is scanned");
    assert!(protein.contains("[filtered] [2/3 cols]  ("), "{lines:#?}");
    assert!(
        !scan_of("organism").unwrap().contains("cols]"),
        "{lines:#?}"
    );
    // Children are indented under the root.
    assert!(ops[1].starts_with("  "), "{lines:#?}");
    assert!(summary[0].starts_with("Execution:"), "{lines:#?}");
    // The join produced 20 rows (protein.org_id = 3 matches 20 of 200).
    assert!(ops[0].contains("act rows=20"), "{lines:#?}");
}

#[test]
fn operator_stats_are_queryable_and_consistent_with_the_rendering() {
    let e = engine();
    let s = e.open_session();
    load(&s);
    let sql = "explain analyze select p.name, o.oname from protein p \
               join organism o on p.org_id = o.org_id where o.org_id = 3";
    let r = s.execute(sql).unwrap();
    let n_ops = plan_lines(&r).len() - 1; // minus the summary line

    let hash = StmtHash::of(sql);
    let rows = s
        .execute(&format!(
            "select op_id, parent_id, depth, op, rows_out, executions \
             from ima$operator_stats where hash = '{hash}' order by op_id"
        ))
        .unwrap()
        .rows;
    assert_eq!(rows.len(), n_ops, "one stats row per rendered operator");
    // Pre-order ids, root first with no parent.
    assert_eq!(rows[0].get(0).as_int(), Some(0));
    assert_eq!(rows[0].get(1).as_int(), Some(-1));
    assert_eq!(rows[0].get(2).as_int(), Some(0));
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.get(0).as_int(), Some(i as i64));
        assert_eq!(row.get(5).as_int(), Some(1), "one execution so far");
    }
    // The operator's detail carries the columns-read mark too.
    let details = s
        .execute(&format!(
            "select detail from ima$operator_stats where hash = '{hash}' and op = 'SeqScan'"
        ))
        .unwrap()
        .rows;
    assert!(
        details.contains(&Row::new(vec![Value::Str(
            " on protein [filtered] [2/3 cols]".into()
        )])),
        "{details:?}"
    );
    // Re-running the same statement accumulates into the same plan rows.
    s.execute(sql).unwrap();
    let execs = s
        .execute(&format!(
            "select executions from ima$operator_stats where hash = '{hash}' and op_id = 0"
        ))
        .unwrap();
    assert_eq!(execs.rows[0].get(0).as_int(), Some(2));
}

#[test]
fn a_filtered_range_aggregate_reports_each_operator_it_fuses() {
    let e = engine();
    let s = e.open_session();
    load(&s);
    // `protein` is a heap: the plan is Project > Aggregate > SeqScan with the
    // range pushed into the scan, which runs scan, byte-level filter and
    // aggregate as one loop. Each still gets its span, with the counts of
    // the operators run one after the other: the scan reads 200 rows and
    // passes 50, the aggregate folds 50 into 1.
    let query = "select count(*), sum(org_id) from protein where nref_id between 20 and 69";
    let r = s.execute(query).unwrap();
    assert_eq!(
        r.rows,
        vec![Row::new(vec![Value::Int(50), Value::Int(5 * 45)])]
    );
    assert_eq!(
        r.actual_cost.cpu, 251.0,
        "200 scanned + 50 aggregated + 1 projected"
    );

    let sql = format!("explain analyze {query}");
    let lines = plan_lines(&s.execute(&sql).unwrap());
    let ops: Vec<&str> = lines[..lines.len() - 1].iter().map(|l| l.trim()).collect();
    assert_eq!(ops.len(), 3, "{lines:#?}");
    let want = [
        ("Project", "act rows=1, tuples=1,"),
        ("Aggregate", "act rows=1, tuples=50,"),
        ("SeqScan on protein [filtered]", "act rows=50, tuples=200,"),
    ];
    for ((op, counts), got) in want.iter().zip(&ops) {
        assert!(got.starts_with(op) && got.contains(counts), "{got}");
    }
    let rows = s
        .execute(&format!(
            "select op, rows_in, rows_out, tuples from ima$operator_stats \
             where hash = '{}' order by op_id",
            StmtHash::of(&sql)
        ))
        .unwrap()
        .rows;
    let row = |op: &str, rows_in: i64, rows_out: i64, tuples: i64| {
        Row::new(vec![
            Value::Str(op.into()),
            Value::Int(rows_in),
            Value::Int(rows_out),
            Value::Int(tuples),
        ])
    };
    assert_eq!(
        rows,
        vec![
            row("Project", 1, 1, 1),
            row("Aggregate", 50, 1, 50),
            row("SeqScan", 0, 50, 200),
        ]
    );
}

#[test]
fn latency_histogram_counts_match_statement_frequency() {
    let e = engine();
    let s = e.open_session();
    load(&s);
    let sql = "select name from protein where nref_id = 17";
    for _ in 0..7 {
        s.execute(sql).unwrap();
    }
    let hash = StmtHash::of(sql);
    // The reading queries below have different texts (and hashes), so they
    // cannot perturb this statement's counters.
    let freq = s
        .execute(&format!(
            "select frequency from ima$statements where hash = '{hash}'"
        ))
        .unwrap()
        .rows[0]
        .get(0)
        .as_int()
        .unwrap();
    assert_eq!(freq, 7);
    let total = s
        .execute(&format!(
            "select sum(count) from ima$latency_histograms where hash = '{hash}'"
        ))
        .unwrap()
        .rows[0]
        .get(0)
        .as_int()
        .unwrap();
    assert_eq!(total, freq, "histogram buckets must sum to the frequency");
    // Buckets are log2-aligned with cumulative counts, so quantile upper
    // bounds are derivable in SQL: the p50 bucket is the first whose
    // cumulative count reaches half the total.
    let rows = s
        .execute(&format!(
            "select lo_ns, hi_ns, cum_count from ima$latency_histograms \
             where hash = '{hash}' and cum_count >= 4 order by bucket limit 1"
        ))
        .unwrap()
        .rows;
    assert_eq!(rows.len(), 1);
    assert!(rows[0].get(1).as_int().unwrap() >= rows[0].get(0).as_int().unwrap());
}

#[test]
fn monitor_health_mirrors_daemon_health() {
    let e = engine();
    let s = e.open_session();
    load(&s);
    // The references of the statements held when the query below reads the
    // row (it is recorded after).
    let references = e.monitor().unwrap().references().len() as i64;
    let r = s
        .execute(
            "select self_time_ns, sensor_calls, statements_recorded, \
             statements_len, statements_capacity, workload_wrapped, \
             workload_lapped, first_sight_locks, intern_locks, references_len \
             from ima$monitor_health",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1, "single-row self-observation");
    let row = &r.rows[0];
    assert!(row.get(0).as_int().unwrap() > 0, "self_time_ns");
    assert!(row.get(1).as_int().unwrap() > 0, "sensor_calls");
    // create(2) + organism inserts(10) + protein inserts(200) = 212 records.
    let recorded = row.get(2).as_int().unwrap();
    assert!(recorded >= 212, "statements_recorded");
    assert!(row.get(3).as_int().unwrap() <= row.get(4).as_int().unwrap());
    // Default workload capacity (4096) has not wrapped yet, and no reader
    // has had a slot overwritten under it.
    assert_eq!(row.get(5).as_int(), Some(0));
    assert_eq!(row.get(6).as_int(), Some(0), "workload_lapped");
    // Every statement the load ran was text: each one recorded under the
    // monitor lock.
    assert_eq!(row.get(7).as_int(), Some(recorded), "first_sight_locks");
    // Each insert text and this query were planned, so each interned its
    // footprint once (a hit for all but the first of a shape); the held
    // statements list their references.
    assert_eq!(row.get(8).as_int(), Some(211), "intern_locks");
    assert!(references > 0);
    assert_eq!(row.get(9).as_int(), Some(references), "references_len");

    // The other observers report on themselves in the same row: the
    // cooperative sampler's ticks so far, and what the ASH and trace rings
    // (4096 samples, 1024 traces) have dropped — nothing at this size.
    s.execute("set trace = on").unwrap();
    s.execute("select count(*) from organism").unwrap();
    e.ash_sampler().unwrap().sample_now(1);
    let r = s
        .execute("select ash_samples_taken, ash_wrapped, trace_wrapped from ima$monitor_health")
        .unwrap();
    let row = &r.rows[0];
    assert!(row.get(0).as_int().unwrap() >= 1, "ash_samples_taken");
    assert_eq!(row.get(1).as_int(), Some(0), "ash_wrapped");
    assert_eq!(row.get(2).as_int(), Some(0), "trace_wrapped");
}

#[test]
fn tracing_disabled_engine_still_answers_explain_analyze() {
    let e = Engine::builder()
        .config(EngineConfig::monitoring())
        .build()
        .unwrap();
    let s = e.open_session();
    load(&s);
    assert!(!e.tracing_enabled());
    let r = s
        .execute("explain analyze select count(*) from protein")
        .unwrap();
    assert!(plan_lines(&r).iter().any(|l| l.contains("act rows=")));
    // The spans still landed in the aggregates (EXPLAIN ANALYZE is an
    // explicit request), but no statement traces/histograms accumulate.
    let n = s
        .execute("select count(*) from ima$operator_stats")
        .unwrap()
        .rows[0]
        .get(0)
        .as_int()
        .unwrap();
    assert!(n > 0);
    let hists = s
        .execute("select count(*) from ima$latency_histograms")
        .unwrap()
        .rows[0]
        .get(0)
        .as_int()
        .unwrap();
    assert_eq!(hists, 0, "histograms only fill while tracing is on");
}

#[test]
fn tracer_self_time_is_charged_to_monitor_ns() {
    let e = engine();
    let s = e.open_session();
    load(&s);
    s.execute("select count(*) from protein").unwrap();
    let tracer_ns = e.tracer().unwrap().self_time_ns();
    assert!(tracer_ns > 0);
    let monitor_ns = e.monitor().unwrap().self_time_ns();
    assert!(
        monitor_ns >= tracer_ns,
        "tracer bookkeeping ({tracer_ns} ns) must be part of monitor self-time ({monitor_ns} ns)"
    );
}

#[test]
fn metrics_snapshot_covers_engine_monitor_and_tracer() {
    let e = engine();
    let s = e.open_session();
    load(&s);
    s.execute("select count(*) from protein").unwrap();
    let text = e.metrics_snapshot().render_prometheus();
    for needle in [
        "# TYPE ingot_statistics_statements_executed untyped",
        "ingot_statistics_cache_hits ",
        "ingot_statistics_physical_writes ",
        "ingot_statistics_evictions ",
        "ingot_statistics_resident_pages ",
        "ingot_monitor_health_self_time_ns ",
        "ingot_monitor_health_trace_enabled 1",
        "ingot_wal_dead{fsync_mode=\"group\"} 0",
        "# TYPE ingot_statement_latency_ns histogram",
        "le=\"+Inf\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}
