//! The five workloads: what data each loads, which statement each issues,
//! how the answer is checked, and the premise each one asserts.
//!
//! Data and expected answers both come from the arithmetic in this file
//! (`protein_len`, `organisms_of`, …): the oracle never asks the engine a
//! second time. The schema and the statement shapes are `ingot_workload`'s.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use ingot_client::ClientConnection;
use ingot_common::{
    Connection, EngineConfig, PreparedStatement, Row, SocketSpec, SplitMix64, StatementResult,
    Value,
};
use ingot_core::{Engine, Session};
use ingot_server::{RunOutcome, Server, ServerConfig, StopHandle};
use ingot_trace::ServerStats;
use ingot_workload::{nref_schema_ddl, simple_join_statement, NrefConfig};

use crate::Fail;

/// The prepared 1m-test statement (`ingot_workload::point_select_statement`
/// with its literal turned into a marker).
pub const POINT_SQL: &str = "select p.nref_id from protein p where p.nref_id = $1";
/// The long-statement regime: a range aggregate no index serves.
pub const SCAN_SQL: &str = "select count(*), sum(len) from protein where len between $1 and $2";
/// Single-row auto-commit insert into the primary-keyed `taxonomy` table.
pub const INSERT_SQL: &str = "insert into taxonomy values ($1, $2, $3, $4)";

/// Shortest and longest generated protein; `len` is uniform between them.
const LEN_MIN: u64 = 24;
const LEN_MAX: u64 = 72;
/// `scan_cold` asks for `len between lo and lo + SCAN_WIDTH`.
const SCAN_WIDTH: i64 = 10;
const AMINO: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";

/// Insert keys are `counter * KEY_STRIDE + lane`: lanes 0 and 1 are the two
/// wire clients, lanes 2 and 3 their in-process twins in the traced run,
/// lane 4 its explicit-transaction probe. Preloaded rows take the negative
/// keys.
pub const KEY_STRIDE: i64 = 8;
pub const REPLAY_LANE: usize = 2;
pub const PROBE_LANE: usize = 4;

/// One of the five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointEmbedded,
    PointWire,
    InsertWire,
    JoinAdhoc,
    ScanCold,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::PointEmbedded,
        Kind::PointWire,
        Kind::InsertWire,
        Kind::JoinAdhoc,
        Kind::ScanCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PointEmbedded => "point_embedded",
            Kind::PointWire => "point_wire",
            Kind::InsertWire => "insert_wire",
            Kind::JoinAdhoc => "join_adhoc",
            Kind::ScanCold => "scan_cold",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop clients. Two writers is the least that forms a commit
    /// group; nothing here exceeds the box's two cores.
    pub fn lanes(self) -> usize {
        match self {
            Kind::InsertWire => 2,
            _ => 1,
        }
    }

    pub fn wire(self) -> bool {
        matches!(self, Kind::PointWire | Kind::InsertWire)
    }

    /// Pages and WAL in real files under the run directory: insert_wire for
    /// its fsyncs, scan_cold so that a restart can empty its pool.
    pub fn file_backed(self) -> bool {
        matches!(self, Kind::InsertWire | Kind::ScanCold)
    }

    /// The statement a lane prepares once; `None` for `join_adhoc`, which
    /// sends a fresh text every time.
    pub fn prepared_sql(self) -> Option<&'static str> {
        match self {
            Kind::PointEmbedded | Kind::PointWire => Some(POINT_SQL),
            Kind::InsertWire => Some(INSERT_SQL),
            Kind::ScanCold => Some(SCAN_SQL),
            Kind::JoinAdhoc => None,
        }
    }

    /// Buffer-pool premise on the fitting workloads: the least hit ratio in
    /// the window. scan_cold's premise is [`Sizes::scan_reads_premise`]: the
    /// pool counts a fetch per row, so even a scan that reads every page
    /// from disk "hits" for all but the first row of each.
    pub fn buffer_hit_premise(self) -> Option<f64> {
        (self != Kind::ScanCold).then_some(0.99)
    }

    /// Plan-cache premise: `(at least, at most)` hit ratio in the window.
    pub fn plan_hit_premise(self) -> (f64, f64) {
        match self {
            Kind::JoinAdhoc => (0.0, 0.01),
            _ => (0.99, 1.0),
        }
    }
}

/// How much data a workload loads. `--quick` shrinks what it can without
/// breaking a premise.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows in `protein`.
    pub proteins: u64,
    /// Buffer-pool pages when the workload overrides the default 2048.
    pub pool_pages: Option<usize>,
    /// Rows preloaded into `taxonomy` (insert_wire).
    pub preload: u64,
}

impl Sizes {
    pub fn of(kind: Kind, quick: bool) -> Sizes {
        let proteins = match kind {
            // Keyed structures build at ~30 µs a row, and set-up runs several
            // times per run: 10 k rows keep it near half a second per arm.
            Kind::PointEmbedded | Kind::PointWire | Kind::JoinAdhoc => {
                if quick {
                    2_000
                } else {
                    10_000
                }
            }
            // 8× the pool below; a little over a millisecond per scan.
            Kind::ScanCold => SCAN_POOL_PAGES as u64 * 8 * SCAN_ROWS_PER_PAGE,
            Kind::InsertWire => 0,
        };
        Sizes {
            proteins,
            pool_pages: (kind == Kind::ScanCold).then_some(SCAN_POOL_PAGES),
            preload: 1_000,
        }
    }

    /// scan_cold's premise: the least physical page reads per statement —
    /// the whole heap, eight pools' worth, every time.
    pub fn scan_reads_premise(&self) -> Option<f64> {
        self.pool_pages.map(|p| (p * 8) as f64)
    }
}

/// `scan_cold` runs with a pool this small so that a heap eight times its
/// size still scans in a little over a millisecond (the window has to yield
/// at least 5 000 samples for five p99 blocks).
pub const SCAN_POOL_PAGES: usize = 8;
/// Measured: generated protein rows per 8 KiB heap page.
const SCAN_ROWS_PER_PAGE: u64 = 54;

// ---------------------------------------------------------------------------
// The generator: every value is a pure function of the row number.
// ---------------------------------------------------------------------------

fn mix(i: u64) -> u64 {
    SplitMix64::new(i).next_u64()
}

/// `protein.len` of protein `i`, uniform in `[LEN_MIN, LEN_MAX]`.
pub fn protein_len(i: u64) -> u64 {
    LEN_MIN + mix(i) % (LEN_MAX - LEN_MIN + 1)
}

/// `protein.sequence` of protein `i`: `protein_len(i)` residues.
pub fn protein_sequence(i: u64) -> String {
    (0..protein_len(i))
        .map(|k| AMINO[((i + k) % AMINO.len() as u64) as usize] as char)
        .collect()
}

/// Rows `organism` holds for protein `i`: every fifth protein has two.
pub fn organisms_of(i: u64) -> u64 {
    1 + u64::from(i.is_multiple_of(5))
}

fn protein_row(i: u64) -> Row {
    let len = protein_len(i);
    Row::new(vec![
        Value::Str(NrefConfig::nref_id(i)),
        Value::Str(format!("protein {i}")),
        Value::Int(len as i64),
        Value::Float(len as f64 * 110.4),
        Value::Str(protein_sequence(i)),
    ])
}

/// Bytes of user data in a typical `taxonomy` row.
pub fn taxonomy_row_bytes() -> u64 {
    Row::new(taxonomy_row(100_000, 3).to_vec()).byte_size() as u64
}

fn taxonomy_row(id: i64, rank: i64) -> [Value; 4] {
    [
        Value::Int(id),
        Value::Str(format!("Taxon {id}")),
        Value::Str(format!("Bacteria;clade{};genus{id}", rank * 5)),
        Value::Int(rank),
    ]
}

/// Expected `count(*)` and `sum(len)` per range, from the generator alone.
#[derive(Debug, Clone)]
pub struct ScanOracle {
    /// `count_le[l]` = proteins with `len <= l`; `sum_le[l]` their `len` sum.
    count_le: Vec<u64>,
    sum_le: Vec<u64>,
}

impl ScanOracle {
    pub fn new(proteins: u64) -> ScanOracle {
        let mut hist = vec![0u64; LEN_MAX as usize + 1];
        for i in 0..proteins {
            hist[protein_len(i) as usize] += 1;
        }
        let mut count_le = Vec::with_capacity(hist.len());
        let mut sum_le = Vec::with_capacity(hist.len());
        let (mut c, mut s) = (0u64, 0u64);
        for (len, n) in hist.iter().enumerate() {
            c += n;
            s += n * len as u64;
            count_le.push(c);
            sum_le.push(s);
        }
        ScanOracle { count_le, sum_le }
    }

    /// `(count, sum)` of `len between lo and hi` (inclusive, `1 <= lo`).
    pub fn expect(&self, lo: i64, hi: i64) -> (i64, i64) {
        let at = |v: &[u64], l: i64| v[(l.clamp(0, LEN_MAX as i64)) as usize] as i64;
        (
            at(&self.count_le, hi) - at(&self.count_le, lo - 1),
            at(&self.sum_le, hi) - at(&self.sum_le, lo - 1),
        )
    }
}

// ---------------------------------------------------------------------------
// Arms.
// ---------------------------------------------------------------------------

/// Arm `on` is what a user gets; arm `off` has every observer removed.
pub fn arm_config(on: bool, sizes: &Sizes) -> EngineConfig {
    let mut config = if on {
        EngineConfig::default()
    } else {
        // `original()` drops the monitor and, with it, tracer, wait registry
        // and ASH sampler; the explicit flag only says so twice.
        EngineConfig::original().with_wait_events_enabled(false)
    };
    if let Some(pages) = sizes.pool_pages {
        config = config.with_buffer_pool_pages(pages);
    }
    config
}

struct Serving {
    spec: SocketSpec,
    stop: StopHandle,
    stats: Arc<ServerStats>,
    join: JoinHandle<ingot_common::Result<RunOutcome>>,
}

/// One engine instance with its data loaded and, for wire workloads, its
/// server accepting.
pub struct Arm {
    /// The monitored arm (`on`), as opposed to the bare one (`off`).
    pub on: bool,
    pub engine: Arc<Engine>,
    serving: Option<Serving>,
    /// Directory of a file-backed engine.
    pub data_dir: Option<PathBuf>,
    /// Bytes of row data the load put in.
    pub loaded_bytes: u64,
}

impl Arm {
    /// Build the engine, load the workload's data, start serving.
    pub fn build(kind: Kind, on: bool, sizes: &Sizes, dir: &Path) -> Result<Arm, Fail> {
        let label = if on { "on" } else { "off" };
        let data_dir = kind
            .file_backed()
            .then(|| dir.join(format!("{label}-data")));
        let open = || {
            let mut builder = Engine::builder().config(arm_config(on, sizes));
            if let Some(d) = &data_dir {
                std::fs::create_dir_all(d)?;
                builder = builder.path(d.clone());
            }
            Ok::<_, Fail>(builder.build()?)
        };
        let mut engine = open()?;
        let loaded_bytes = load(kind, &engine, sizes)?;
        if kind == Kind::ScanCold {
            // The pool never evicts a dirty page (no-steal) and only evicts
            // on a miss, so freshly loaded rows would stay resident for good
            // whatever its capacity. A cold restart is what empties it:
            // checkpoint, close, reopen — the scans then fetch every page.
            engine.checkpoint()?;
            drop(engine);
            engine = open()?;
        }
        let serving = if kind.wire() {
            let spec = SocketSpec::Unix(dir.join(format!("{label}.sock")));
            let server = Server::bind(Arc::clone(&engine), ServerConfig::new(spec.clone()))?;
            Some(Serving {
                spec,
                stop: server.stop_handle(),
                stats: Arc::clone(server.stats()),
                join: std::thread::spawn(move || server.run()),
            })
        } else {
            None
        };
        Ok(Arm {
            on,
            engine,
            serving,
            data_dir,
            loaded_bytes,
        })
    }

    /// `on` or `off`.
    pub fn label(&self) -> &'static str {
        if self.on {
            "on"
        } else {
            "off"
        }
    }

    /// The server's wire counters, when this arm serves.
    pub fn server_stats(&self) -> Option<&Arc<ServerStats>> {
        self.serving.as_ref().map(|s| &s.stats)
    }

    /// A closed-loop client's endpoint: a wire connection for the wire
    /// workloads, an in-process session otherwise.
    pub fn connect(&self, name: &str) -> Result<Conn, Fail> {
        match &self.serving {
            Some(s) => Ok(Conn::Wire(ClientConnection::connect_with_name(
                &s.spec, name,
            )?)),
            None => Ok(Conn::Embedded(self.engine.open_session())),
        }
    }

    /// Drain the server and release the engine. Every connection must be
    /// closed first or the drain waits out its deadline.
    pub fn shutdown(self) -> Result<(), Fail> {
        if let Some(s) = self.serving {
            s.stop.request_stop();
            s.join
                .join()
                .map_err(|_| Fail::new("server thread panicked"))??;
        }
        Ok(())
    }
}

/// A lane's endpoint. Both variants speak [`Connection`].
pub enum Conn {
    Embedded(Session),
    Wire(ClientConnection),
}

impl Conn {
    pub fn as_dyn(&self) -> &dyn Connection {
        match self {
            Conn::Embedded(s) => s,
            Conn::Wire(c) => c,
        }
    }
}

/// Load `kind`'s data; returns the bytes of row data loaded.
fn load(kind: Kind, engine: &Arc<Engine>, sizes: &Sizes) -> Result<u64, Fail> {
    let mut bytes = 0u64;
    let session = engine.open_session();
    for ddl in nref_schema_ddl() {
        session.execute(ddl)?;
    }
    if kind == Kind::InsertWire {
        // Keyed first, so the declared primary key is enforced on every
        // insert; the preload rides one explicit transaction through the
        // same WAL path as the measured inserts.
        session.execute("modify taxonomy to btree")?;
        session.begin()?;
        for k in 1..=sizes.preload as i64 {
            let row = Row::new(taxonomy_row(-k, k % 7).to_vec());
            bytes += row.byte_size() as u64;
            session.insert_direct("taxonomy", &row)?;
        }
        session.commit()?;
        return Ok(bytes);
    }
    // Bulk path, as `ingot_workload::load_nref` does: direct catalog
    // inserts, so the load is not itself a monitored workload.
    let catalog = engine.catalog().read();
    let protein = catalog.resolve_table("protein")?;
    let organism = catalog.resolve_table("organism")?;
    for i in 0..sizes.proteins {
        let row = protein_row(i);
        bytes += row.byte_size() as u64;
        catalog.insert_row(protein, &row)?;
        if kind == Kind::JoinAdhoc {
            for ord in 0..organisms_of(i) {
                let taxon = (i + ord * 97) % 200;
                let row = Row::new(vec![
                    Value::Str(NrefConfig::nref_id(i)),
                    Value::Int(taxon as i64),
                    Value::Int(ord as i64),
                    Value::Str(format!("Taxon {taxon}")),
                ]);
                bytes += row.byte_size() as u64;
                catalog.insert_row(organism, &row)?;
            }
        }
    }
    drop(catalog);
    // The paper's monitoring testbed is a tuned database: statistics
    // collected, keyed primary structures. scan_cold stays a heap — nothing
    // keyed serves a predicate on `len`.
    let keyed: &[&str] = match kind {
        Kind::PointEmbedded | Kind::PointWire => &["protein"],
        Kind::JoinAdhoc => &["protein", "organism"],
        Kind::ScanCold | Kind::InsertWire => &[],
    };
    for table in keyed {
        session.execute(&format!("create statistics on {table}"))?;
        session.execute(&format!("modify {table} to btree"))?;
    }
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Clients.
// ---------------------------------------------------------------------------

/// One generated statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Point { key: u64 },
    Join { key: u64 },
    Scan { lo: i64 },
    Insert { id: i64, rank: i64 },
}

/// The seeded statement stream of one lane. Both arms build theirs from the
/// same seed, so they see the same keys in the same order.
pub struct OpGen {
    kind: Kind,
    rng: SplitMix64,
    proteins: u64,
    lane: usize,
    counter: i64,
    /// join_adhoc walks the ids as the paper's 50k test does — "cycles
    /// through distinct ids" — from a seeded start with a seeded stride
    /// coprime to the id count: a text comes round again only after every
    /// other id, far beyond the 256 plans and 1000 statements the engine
    /// remembers, so each statement is new to it.
    stride: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl OpGen {
    pub fn new(kind: Kind, seed: u64, lane: usize, sizes: &Sizes) -> OpGen {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(lane as u64));
        let n = sizes.proteins.max(1);
        let (start, stride) = if kind == Kind::JoinAdhoc {
            let stride = loop {
                let s = 1 + rng.next_below(n);
                if gcd(s, n) == 1 {
                    break s;
                }
            };
            (rng.next_below(n) as i64, stride)
        } else {
            (0, 1)
        };
        OpGen {
            kind,
            rng,
            proteins: n,
            lane,
            counter: start,
            stride,
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self.kind {
            Kind::PointEmbedded | Kind::PointWire => Op::Point {
                key: self.rng.next_below(self.proteins),
            },
            Kind::JoinAdhoc => {
                let key = (self.counter as u64).wrapping_mul(self.stride) % self.proteins;
                self.counter = (self.counter + 1) % self.proteins as i64;
                Op::Join { key }
            }
            Kind::ScanCold => Op::Scan {
                lo: LEN_MIN as i64
                    + self.rng.next_below(LEN_MAX - LEN_MIN - SCAN_WIDTH as u64) as i64,
            },
            Kind::InsertWire => {
                // The key only has to be new; the seed picks the payload.
                let id = self.counter * KEY_STRIDE + self.lane as i64;
                self.counter += 1;
                Op::Insert {
                    id,
                    rank: self.rng.next_below(7) as i64,
                }
            }
        }
    }
}

/// What one statement cost and whether its answer was right.
pub struct Step {
    /// When the call was made.
    pub started: std::time::Instant,
    /// Caller-observed latency, call to return.
    pub latency_ns: u64,
    /// `Ok(result)` when the statement returned and the oracle agreed.
    pub outcome: Result<StatementResult, Fail>,
}

/// A closed-loop client bound to one endpoint: the prepared handle (when the
/// workload prepares), the statement stream and the oracle.
pub struct Client<'a> {
    kind: Kind,
    conn: &'a dyn Connection,
    stmt: Option<Box<dyn PreparedStatement + 'a>>,
    nref: NrefConfig,
    oracle: Option<Arc<ScanOracle>>,
    pub gen: OpGen,
}

impl<'a> Client<'a> {
    pub fn new(
        kind: Kind,
        conn: &'a dyn Connection,
        gen: OpGen,
        sizes: &Sizes,
        oracle: Option<Arc<ScanOracle>>,
    ) -> Result<Client<'a>, Fail> {
        let stmt = match kind.prepared_sql() {
            Some(sql) => Some(conn.prepare(sql)?),
            None => None,
        };
        Ok(Client {
            kind,
            conn,
            stmt,
            nref: NrefConfig {
                proteins: sizes.proteins.max(1),
                ..NrefConfig::default()
            },
            oracle,
            gen,
        })
    }

    /// Bound parameter values of a prepared `op` (empty for `Join`).
    pub fn params(op: Op) -> Vec<Value> {
        match op {
            Op::Point { key } => vec![Value::Str(NrefConfig::nref_id(key))],
            Op::Scan { lo } => vec![Value::Int(lo), Value::Int(lo + SCAN_WIDTH)],
            Op::Insert { id, rank } => taxonomy_row(id, rank).to_vec(),
            Op::Join { .. } => Vec::new(),
        }
    }

    /// Statement text of `op`: the prepared template, or for `Join` the
    /// 50k-test text with its literal inline.
    pub fn text(&self, op: Op) -> String {
        match op {
            Op::Join { key } => simple_join_statement(&self.nref, key),
            _ => self.kind.prepared_sql().unwrap_or_default().to_owned(),
        }
    }

    /// Issue the next statement of the stream and check its answer.
    pub fn step(&mut self) -> (Op, Step) {
        let op = self.gen.next_op();
        (op, self.run(op))
    }

    /// Issue `op` and check its answer. Only the call itself is timed.
    pub fn run(&self, op: Op) -> Step {
        let (started, latency_ns, result) = match (&self.stmt, op) {
            (None, _) | (_, Op::Join { .. }) => {
                let sql = self.text(op);
                let t0 = std::time::Instant::now();
                let r = self.conn.execute(&sql);
                (t0, t0.elapsed().as_nanos() as u64, r)
            }
            (Some(stmt), _) => {
                let params = Self::params(op);
                let t0 = std::time::Instant::now();
                let r = stmt.execute(&params);
                (t0, t0.elapsed().as_nanos() as u64, r)
            }
        };
        let outcome = result
            .map_err(Fail::from)
            .and_then(|r| self.check(op, &r).map(|()| r));
        Step {
            started,
            latency_ns,
            outcome,
        }
    }

    /// The oracle: is `r` the answer the generator says `op` has?
    pub fn check(&self, op: Op, r: &StatementResult) -> Result<(), Fail> {
        let wrong = |what: String| Err(Fail::new(format!("wrong answer for {op:?}: {what}")));
        match op {
            Op::Point { key } => {
                let id = NrefConfig::nref_id(key);
                if r.rows.len() != 1 || r.rows[0].get(0).as_str() != Some(&id) {
                    return wrong(format!("{} row(s), want one with {id}", r.rows.len()));
                }
            }
            Op::Join { key } => {
                let id = NrefConfig::nref_id(key);
                if r.rows.len() as u64 != organisms_of(key) {
                    return wrong(format!("{} rows, want {}", r.rows.len(), organisms_of(key)));
                }
                let seq = protein_sequence(key);
                let mut ordinals: Vec<i64> = Vec::with_capacity(2);
                for row in &r.rows {
                    if row.get(0).as_str() != Some(&id) || row.get(1).as_str() != Some(&seq) {
                        return wrong(format!("row {row:?} is not protein {id}"));
                    }
                    ordinals.extend(row.get(2).as_int());
                }
                ordinals.sort_unstable();
                if ordinals != (0..organisms_of(key) as i64).collect::<Vec<_>>() {
                    return wrong(format!("ordinals {ordinals:?}"));
                }
            }
            Op::Scan { lo } => {
                let oracle = self.oracle.as_ref().expect("scan_cold carries its oracle");
                let (count, sum) = oracle.expect(lo, lo + SCAN_WIDTH);
                let got = r.rows.first().map(|row| {
                    (
                        row.get(0).as_int(),
                        row.get(1).as_f64().map(|s| s.round() as i64),
                    )
                });
                if got != Some((Some(count), Some(sum))) {
                    return wrong(format!("{got:?}, want ({count}, {sum})"));
                }
            }
            Op::Insert { .. } => {
                if r.affected != 1 {
                    return wrong(format!("{} rows affected", r.affected));
                }
            }
        }
        Ok(())
    }
}

/// `count(*)` of `taxonomy` through a fresh session on `engine`.
pub fn taxonomy_count(engine: &Arc<Engine>) -> Result<i64, Fail> {
    let r = engine
        .open_session()
        .execute("select count(*) from taxonomy")?;
    r.rows
        .first()
        .and_then(|row| row.get(0).as_int())
        .ok_or_else(|| Fail::new("count(*) returned no row"))
}

/// Copy a live engine directory as a crash would leave it (WAL and page
/// files as they are on disk, nothing flushed on the way out) and recover
/// the copy. Returns the recovered `taxonomy` row count and the seconds the
/// recovery took.
pub fn recover_copy(data_dir: &Path) -> Result<(i64, f64), Fail> {
    let copy = data_dir.with_extension("crash");
    std::fs::create_dir_all(&copy)?;
    for entry in std::fs::read_dir(data_dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), copy.join(entry.file_name()))?;
        }
    }
    let t0 = std::time::Instant::now();
    let engine = Engine::builder()
        .config(EngineConfig::original())
        .path(copy.clone())
        .build()?;
    let secs = t0.elapsed().as_secs_f64();
    let rows = taxonomy_count(&engine)?;
    drop(engine);
    std::fs::remove_dir_all(&copy)?;
    Ok((rows, secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_well_formed() {
        for k in Kind::ALL {
            assert_eq!(Kind::from_name(k.name()), Some(k));
            assert!(crate::spec::is_valid_name(k.name()), "{}", k.name());
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn generator_is_a_pure_function_of_the_row_number() {
        for i in [0, 1, 17, 49_999] {
            let len = protein_len(i);
            assert!((LEN_MIN..=LEN_MAX).contains(&len));
            assert_eq!(protein_sequence(i).len() as u64, len);
            assert_eq!(protein_len(i), len);
        }
        assert_eq!(organisms_of(0), 2);
        assert_eq!(organisms_of(1), 1);
    }

    #[test]
    fn scan_oracle_matches_a_brute_force_count() {
        let n = 5_000;
        let oracle = ScanOracle::new(n);
        for lo in [LEN_MIN as i64, 30, 61] {
            let hi = lo + SCAN_WIDTH;
            let lens = (0..n).map(protein_len).map(|l| l as i64);
            let hit: Vec<i64> = lens.filter(|l| (lo..=hi).contains(l)).collect();
            assert_eq!(
                oracle.expect(lo, hi),
                (hit.len() as i64, hit.iter().sum::<i64>())
            );
        }
    }

    #[test]
    fn same_seed_same_stream_and_insert_keys_never_collide() {
        let sizes = Sizes::of(Kind::PointEmbedded, true);
        let mut a = OpGen::new(Kind::PointEmbedded, 7, 0, &sizes);
        let mut b = OpGen::new(Kind::PointEmbedded, 7, 0, &sizes);
        let mut c = OpGen::new(Kind::PointEmbedded, 8, 0, &sizes);
        let sa: Vec<Op> = (0..64).map(|_| a.next_op()).collect();
        let sb: Vec<Op> = (0..64).map(|_| b.next_op()).collect();
        let sc: Vec<Op> = (0..64).map(|_| c.next_op()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);

        let sizes = Sizes::of(Kind::InsertWire, true);
        let mut keys = std::collections::BTreeSet::new();
        for lane in 0..KEY_STRIDE as usize {
            let mut g = OpGen::new(Kind::InsertWire, 1, lane, &sizes);
            for _ in 0..100 {
                match g.next_op() {
                    Op::Insert { id, .. } => assert!(id >= 0 && keys.insert(id)),
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn arms_differ_only_in_their_observers() {
        let sizes = Sizes::of(Kind::ScanCold, false);
        let on = arm_config(true, &sizes);
        let off = arm_config(false, &sizes);
        assert!(on.monitor_enabled && on.wait_events_enabled && !on.trace_enabled);
        assert!(!off.monitor_enabled && !off.wait_events_enabled);
        assert_eq!(on.buffer_pool_pages, SCAN_POOL_PAGES);
        assert_eq!(off.buffer_pool_pages, SCAN_POOL_PAGES);
        assert_eq!(on.wal_fsync_mode, off.wal_fsync_mode);
        assert_eq!(on.plan_cache_capacity, off.plan_cache_capacity);
    }
}
