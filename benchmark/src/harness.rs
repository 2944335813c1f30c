//! Set-up and the closed-loop lanes both modes share: two arms built up
//! front, one thread per client that owns its connection and prepared
//! handle, and a main thread that hands out slices and reads the clocks.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::layers::{LaneTracer, TracedEnd};
use crate::stats::{process_cpu_secs, Slice};
use crate::workloads::{Arm, Client, Conn, Kind, OpGen, ScanOracle, Sizes};
use crate::yardstick::{self, Yardstick};
use crate::Fail;

/// Index of the monitored arm in [`Harness::arms`].
pub const ON: usize = 0;
/// Index of the arm with every observer removed.
pub const OFF: usize = 1;

/// One slice: long enough that a ~3 µs statement runs ~80 000 times, short
/// enough that a cycle of two sees the same weather.
pub const SLICE: Duration = Duration::from_millis(250);

/// The yardstick's turn on either side of a set-up.
const SETUP_TURN: Duration = Duration::from_millis(25);

/// What a run needs to know besides its workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub quick: bool,
    /// The traced run: lanes carry a [`LaneTracer`] and can record spans.
    pub trace: bool,
}

impl Options {
    /// After `so_far` set-ups that were torn down unused, is another one
    /// due before the set-up that gets measured? `setup_s` is the median of
    /// at least three; cheap set-ups repeat up to nine times while their
    /// total stays under two seconds, since their jitter is the larger share.
    pub fn another_spare_setup(&self, so_far: &[f64]) -> bool {
        !self.quick && (so_far.len() < 2 || (so_far.len() < 8 && so_far.iter().sum::<f64>() < 2.0))
    }

    /// Untimed warm-up per arm: a sixteenth of the window (1 s at 16 s).
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 16.0).max(0.1))
    }

    /// Cycles of two slices that fit the window, at least one.
    pub fn cycles(&self, share: f64) -> usize {
        ((self.seconds * share / (2.0 * SLICE.as_secs_f64())).round() as usize).max(1)
    }
}

/// Where a run keeps its files: `<target>/tmp/<workload>-<pid>`, found from
/// the executable so it lands under `CARGO_TARGET_DIR` wherever that is.
/// Made relative to the working directory when it lies below it, to keep
/// unix-socket paths under the 108-byte limit in a deep checkout.
pub fn target_dir() -> Result<PathBuf, Fail> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| Fail::new("executable has no target directory above it"))?;
    let cwd = std::env::current_dir()?;
    Ok(target
        .strip_prefix(&cwd)
        .map_or_else(|_| target.to_path_buf(), Path::to_path_buf))
}

/// A fresh, empty directory for this run.
pub fn fresh_run_dir(kind: Kind) -> Result<PathBuf, Fail> {
    let dir = target_dir()?
        .join("tmp")
        .join(format!("{}-{}", kind.name(), std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

enum Cmd {
    /// Run closed-loop until `until`; keep latencies when `record`. With
    /// `traced`, every statement is a root span and every sixteenth is
    /// replayed stage by stage.
    Run {
        until: Instant,
        record: bool,
        traced: bool,
    },
    /// Make room for this many more latency samples.
    Reserve(usize),
    Finish,
}

/// A lane's report on one slice.
struct SliceDone {
    stmts: u64,
    failed: u64,
    started: Instant,
    ended: Instant,
    /// What the lane's yardstick did inside the slice.
    yard_iters: u64,
    yard_secs: f64,
    first_error: Option<String>,
}

/// What a lane hands back when it finishes.
pub struct LaneEnd {
    /// Latencies of recorded statements, nanoseconds, arrival order.
    pub latencies: Vec<u32>,
    /// `latencies.len()` at the end of each recorded slice.
    pub slice_ends: Vec<usize>,
    /// Speed of the box in each recorded slice, as this lane's yardstick saw
    /// it.
    pub slice_speeds: Vec<f64>,
    /// Inserts acknowledged, warm-up included (insert_wire).
    pub acked: i64,
    /// What the lane's tracer gathered (traced runs only).
    pub traced: Option<TracedEnd>,
}

enum Msg {
    Ready,
    Slice(SliceDone),
    End(LaneEnd),
    Died(String),
}

struct LaneHandle {
    tx: Sender<Cmd>,
    rx: Receiver<Msg>,
}

/// One arm's slice as the main thread saw it.
pub struct SliceReport {
    pub slice: Slice,
    pub failed: u64,
    pub first_error: Option<String>,
}

/// Both arms set up, every lane connected and prepared.
pub struct Harness<'a> {
    pub kind: Kind,
    pub sizes: Sizes,
    pub arms: &'a [Arm; 2],
    pub dir: &'a Path,
    lanes: [Vec<LaneHandle>; 2],
}

/// What a lane is built from.
pub struct LaneSpec<'a> {
    pub kind: Kind,
    pub arm: &'a Arm,
    pub lane: usize,
    pub opts: Options,
    pub sizes: Sizes,
    pub oracle: Option<Arc<ScanOracle>>,
    /// Zero of the span clock, shared by every lane of the run.
    pub epoch: Instant,
}

fn lane_main(spec: &LaneSpec<'_>, rx: &Receiver<Cmd>, tx: &Sender<Msg>) -> Result<(), Fail> {
    let LaneSpec {
        kind,
        arm,
        lane,
        opts,
        sizes,
        ..
    } = *spec;
    let conn = arm.connect(&format!("bench-{}-{lane}", arm.label()))?;
    let mut client = Client::new(
        kind,
        conn.as_dyn(),
        OpGen::new(kind, opts.seed, lane, &sizes),
        &sizes,
        spec.oracle.clone(),
    )?;
    // The tracer's in-process twin of a wire client: its own session on the
    // same engine. Declared before the tracer so that it outlives it.
    let twin = (opts.trace && kind.wire()).then(|| Conn::Embedded(arm.engine.open_session()));
    let mut tracer = match opts.trace {
        true => Some(LaneTracer::new(spec, twin.as_ref())?),
        false => None,
    };
    let mut end = LaneEnd {
        latencies: Vec::new(),
        slice_ends: Vec::new(),
        slice_speeds: Vec::new(),
        acked: 0,
        traced: None,
    };
    let mut yard = Yardstick::default();
    let keep_samples = arm.on;
    const RING: usize = 4096;
    let mut ring = vec![0u32; RING];
    let gone = |_| Fail::new("main thread went away");
    tx.send(Msg::Ready).map_err(gone)?;
    loop {
        match rx.recv().map_err(|_| Fail::new("main thread went away"))? {
            Cmd::Reserve(n) => end.latencies.reserve(n),
            Cmd::Finish => {
                end.traced = tracer.map(LaneTracer::finish);
                drop(client);
                return tx.send(Msg::End(end)).map_err(gone);
            }
            Cmd::Run {
                until,
                record,
                traced,
            } => {
                let started = Instant::now();
                let mut done = SliceDone {
                    stmts: 0,
                    failed: 0,
                    started,
                    ended: started,
                    yard_iters: 0,
                    yard_secs: 0.0,
                    first_error: None,
                };
                // The yardstick takes the first turn, so that even a slice
                // of one long statement has a speed to go with it.
                let mut next_turn = started;
                while done.ended < until {
                    if done.ended >= next_turn {
                        next_turn = yard.turn(yardstick::TURN) + yardstick::STRIDE;
                    }
                    let step = match tracer.as_mut().filter(|_| traced) {
                        Some(t) => t.step(&mut client),
                        None => client.step().1,
                    };
                    done.stmts += 1;
                    match step.outcome {
                        Ok(_) => end.acked += 1,
                        Err(e) => {
                            done.failed += 1;
                            done.first_error.get_or_insert(e.to_string());
                        }
                    }
                    if record {
                        let ns = u32::try_from(step.latency_ns).unwrap_or(u32::MAX);
                        if keep_samples {
                            end.latencies.push(ns);
                        } else {
                            // Nobody reads the `off` arm's latencies. It
                            // still pays for storing one, as `on` does, but
                            // into a ring, so that the harness's footprint
                            // does not grow with the `off` arm's speed.
                            ring[done.stmts as usize % RING] = ns;
                        }
                    }
                    done.ended = Instant::now();
                }
                (done.yard_iters, done.yard_secs) = yard.take();
                std::hint::black_box(&ring);
                if record {
                    end.slice_ends.push(end.latencies.len());
                    end.slice_speeds
                        .push(yardstick::speed(done.yard_iters, done.yard_secs));
                }
                tx.send(Msg::Slice(done)).map_err(gone)?;
            }
        }
    }
}

impl Harness<'_> {
    /// Run one slice of `dur` on `arm`, all its lanes at once.
    pub fn slice(&self, arm: usize, dur: Duration, record: bool) -> Result<SliceReport, Fail> {
        self.run_slice(arm, dur, record, false)
    }

    /// A slice in which the lanes record spans and replay every sixteenth
    /// statement. Latencies are kept as in any other slice: the timed call
    /// is the same.
    pub fn traced_slice(&self, arm: usize, dur: Duration) -> Result<SliceReport, Fail> {
        self.run_slice(arm, dur, true, true)
    }

    fn run_slice(
        &self,
        arm: usize,
        dur: Duration,
        record: bool,
        traced: bool,
    ) -> Result<SliceReport, Fail> {
        let cpu0 = process_cpu_secs();
        let until = Instant::now() + dur;
        for lane in &self.lanes[arm] {
            lane.tx
                .send(Cmd::Run {
                    until,
                    record,
                    traced,
                })
                .map_err(|_| Fail::new("lane went away"))?;
        }
        let mut report = SliceReport {
            slice: Slice {
                stmts: 0,
                secs: 0.0,
                cpu_secs: 0.0,
                speed: 1.0,
            },
            failed: 0,
            first_error: None,
        };
        let mut span: Option<(Instant, Instant)> = None;
        let (mut yard_iters, mut yard_secs) = (0u64, 0.0f64);
        for lane in &self.lanes[arm] {
            match lane.rx.recv() {
                Ok(Msg::Slice(d)) => {
                    yard_iters += d.yard_iters;
                    yard_secs += d.yard_secs;
                    report.slice.stmts += d.stmts;
                    report.failed += d.failed;
                    if report.first_error.is_none() {
                        report.first_error = d.first_error;
                    }
                    span = Some(match span {
                        None => (d.started, d.ended),
                        Some((s, e)) => (s.min(d.started), e.max(d.ended)),
                    });
                }
                Ok(Msg::Died(e)) => return Err(Fail::new(format!("lane died: {e}"))),
                _ => return Err(Fail::new("lane went away mid-slice")),
            }
        }
        // The lanes ran their yardsticks side by side: off the slice's wall
        // time comes the mean of their turns, off its CPU time all of them.
        let lanes = self.lanes[arm].len().max(1) as f64;
        if let Some((s, e)) = span {
            report.slice.secs = ((e - s).as_secs_f64() - yard_secs / lanes).max(0.0);
        }
        report.slice.cpu_secs = (process_cpu_secs() - cpu0 - yard_secs).max(0.0);
        report.slice.speed = yardstick::speed(yard_iters, yard_secs);
        Ok(report)
    }

    /// Tell every lane of `arm` how many samples to make room for.
    pub fn reserve(&self, arm: usize, samples_per_lane: usize) {
        for lane in &self.lanes[arm] {
            let _ = lane.tx.send(Cmd::Reserve(samples_per_lane));
        }
    }

    fn finish(&self) -> Result<[Vec<LaneEnd>; 2], Fail> {
        let mut ends = [Vec::new(), Vec::new()];
        for (arm, lanes) in self.lanes.iter().enumerate() {
            for lane in lanes {
                lane.tx
                    .send(Cmd::Finish)
                    .map_err(|_| Fail::new("lane went away"))?;
                match lane.rx.recv() {
                    Ok(Msg::End(end)) => ends[arm].push(end),
                    Ok(Msg::Died(e)) => return Err(Fail::new(format!("lane died: {e}"))),
                    _ => return Err(Fail::new("lane went away at finish")),
                }
            }
        }
        Ok(ends)
    }
}

/// Latencies of one arm's lanes merged back into arrival order: slice by
/// slice, lane by lane within a slice. With `at_reference_speed` each sample
/// is scaled by the speed its lane's yardstick saw in its slice.
pub fn merge_latencies(lanes: &[LaneEnd], at_reference_speed: bool) -> Vec<u32> {
    let slices = lanes.iter().map(|l| l.slice_ends.len()).max().unwrap_or(0);
    let mut out = Vec::with_capacity(lanes.iter().map(|l| l.latencies.len()).sum());
    for s in 0..slices {
        for lane in lanes {
            let lo = if s == 0 { 0 } else { lane.slice_ends[s - 1] };
            let Some(&hi) = lane.slice_ends.get(s) else {
                continue;
            };
            let speed = if at_reference_speed {
                lane.slice_speeds[s]
            } else {
                1.0
            };
            out.extend(
                lane.latencies[lo..hi]
                    .iter()
                    .map(|&ns| (f64::from(ns) * speed) as u32),
            );
        }
    }
    out
}

/// What [`with_setup`] hands back.
pub struct SetupRun<R, C> {
    /// One `setup_s` sample: build + load + serve + connect + prepare, both
    /// arms, in seconds at reference speed (the yardstick takes a turn just
    /// before and just after).
    pub setup_secs: f64,
    pub body: R,
    /// What the lanes recorded, `[on, off]`.
    pub ends: [Vec<LaneEnd>; 2],
    pub closing: C,
}

/// Build both arms, connect and prepare every lane, time it, then run
/// `body` with everything live. `closing` runs after the lanes have closed
/// their connections and before the arms go away — the place for checks
/// that need the final counts.
pub fn with_setup<R, C>(
    kind: Kind,
    opts: &Options,
    dir: &Path,
    body: impl FnOnce(&Harness<'_>) -> Result<R, Fail>,
    closing: impl FnOnce(&Harness<'_>, &R, &[Vec<LaneEnd>; 2]) -> Result<C, Fail>,
) -> Result<SetupRun<R, C>, Fail> {
    let mut yard = Yardstick::default();
    let t0 = yard.turn(SETUP_TURN);
    let sizes = Sizes::of(kind, opts.quick);
    let oracle = (kind == Kind::ScanCold).then(|| Arc::new(ScanOracle::new(sizes.proteins)));
    let arms = [
        Arm::build(kind, true, &sizes, dir)?,
        Arm::build(kind, false, &sizes, dir)?,
    ];
    let result = std::thread::scope(|scope| {
        let mut lanes: [Vec<LaneHandle>; 2] = [Vec::new(), Vec::new()];
        for (a, arm) in arms.iter().enumerate() {
            for lane in 0..kind.lanes() {
                let (cmd_tx, cmd_rx) = channel::<Cmd>();
                let (msg_tx, msg_rx) = channel::<Msg>();
                let spec = LaneSpec {
                    kind,
                    arm,
                    lane,
                    opts: *opts,
                    sizes,
                    oracle: oracle.clone(),
                    epoch: t0,
                };
                scope.spawn(move || {
                    if let Err(e) = lane_main(&spec, &cmd_rx, &msg_tx) {
                        let _ = msg_tx.send(Msg::Died(e.to_string()));
                    }
                });
                lanes[a].push(LaneHandle {
                    tx: cmd_tx,
                    rx: msg_rx,
                });
            }
        }
        let harness = Harness {
            kind,
            sizes,
            arms: &arms,
            dir,
            lanes,
        };
        // Dropping `harness` on an early return closes the command channels,
        // which is what lets the scope's lanes exit.
        for lane in harness.lanes.iter().flatten() {
            match lane.rx.recv() {
                Ok(Msg::Ready) => {}
                Ok(Msg::Died(e)) => return Err(Fail::new(format!("lane set-up failed: {e}"))),
                _ => return Err(Fail::new("lane went away during set-up")),
            }
        }
        let raw_secs = t0.elapsed().as_secs_f64();
        yard.turn(SETUP_TURN);
        let (iters, secs) = yard.take();
        let setup_secs = raw_secs * yardstick::speed(iters, secs);
        let body = body(&harness)?;
        let ends = harness.finish()?;
        let closing = closing(&harness, &body, &ends)?;
        Ok(SetupRun {
            setup_secs,
            body,
            ends,
            closing,
        })
    });
    let [on, off] = arms;
    on.shutdown()?;
    off.shutdown()?;
    result
}
