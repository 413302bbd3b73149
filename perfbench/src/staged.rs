//! `session_staged`: no sockets. Q1's aggregate feeding a keyed join
//! through `ShardedExecutor::new(2)` sessions with 2 workers, fed as
//! batches with watermark advances; `run_batched` over the same job is
//! the single-threaded baseline and the correctness reference.

use crate::common::{
    self, median, ms, window_latencies, Report, Rung, Zipf, BASE_SHARE, CLOSED_SHARE, RUNG_SHARE,
    SLICES,
};
use crate::inproc::{self, Send};
use crate::layers;
use crate::query::{self, Keys};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use ustream_core::Tuple;
use ustream_runtime::session::ShardedSession;
use ustream_runtime::telemetry::SessionTelemetry;
use ustream_runtime::ShardedExecutor;

pub const SHARDS: usize = 2;
pub const WORKERS: usize = 2;
pub const BATCH: usize = 512;
pub const WINDOW_MS: u64 = 50;
/// Group keys: Zipf(1.1) over this many groups.
pub const GROUPS: usize = 256;
pub const ZIPF_S: f64 = 1.1;
pub const JOIN_RANGE_MS: u64 = 10_000_000;
/// Closed-loop job size (readings; plus one reference tuple per group).
pub const CLOSED_TUPLES: usize = 32_768;
/// Offered rates of the open-loop ladder, tuples per second.
pub const LADDER: [f64; 5] = [22_500.0, 90_000.0, 360_000.0, 1_440_000.0, 5_760_000.0];
pub const LIMIT_MS: f64 = 100.0;
const SALT: u64 = 0x0057_A6ED;
const INPUT: usize = 65_536;

fn executor() -> ShardedExecutor {
    ShardedExecutor::new(SHARDS).with_workers(WORKERS)
}

fn build(
    tracer: &Tracer,
    root: Option<u64>,
    setups: &mut Vec<f64>,
    rep: &mut Report,
) -> Option<ShardedSession> {
    let t = Instant::now();
    let s = tracer.time("runtime.build", root, || {
        executor().session(|| query::staged_graph(WINDOW_MS, JOIN_RANGE_MS).0)
    });
    setups.push(t.elapsed().as_secs_f64());
    match s {
        Ok(s) => Some(s),
        Err(e) => {
            rep.fail(format!("session build: {e}"));
            None
        }
    }
}

/// The job's inputs: the first `n` readings plus the reference stream.
fn inputs(readings: &[Tuple], n: usize) -> Vec<(String, usize, Vec<Tuple>)> {
    vec![
        ("in".into(), 0, readings[..n].to_vec()),
        ("refs".into(), 1, query::refs(GROUPS)),
    ]
}

fn batched(readings: &[Tuple], n: usize, rep: &mut Report) -> (Vec<Tuple>, f64) {
    let (mut g, sink) = query::staged_graph(WINDOW_MS, JOIN_RANGE_MS);
    let input = inputs(readings, n);
    let t = Instant::now();
    let out = g.run_batched(input, BATCH);
    let wall = ms(t.elapsed());
    match out {
        Ok(mut out) => (out.remove(&sink).unwrap_or_default(), wall),
        Err(e) => {
            rep.fail(format!("run_batched: {e}"));
            (Vec::new(), wall)
        }
    }
}

/// Sends for the first `n` readings, plus their prefix record counts.
fn sends_for(session: &ShardedSession, readings: &[Tuple], n: usize) -> (Vec<Send>, Vec<usize>) {
    let feed = session
        .ordered_feed(inputs(readings, n))
        .expect("the staged graph registers both sources");
    let sends = inproc::chunk_feed(feed, BATCH);
    let mut before = Vec::with_capacity(sends.len());
    let mut acc = 0;
    for s in &sends {
        before.push(acc);
        acc += s.records;
    }
    (sends, before)
}

/// What the closed-loop jobs accumulate.
#[derive(Default)]
struct Closed {
    rps: Vec<f64>,
    walls: Vec<f64>,
    batched_walls: Vec<f64>,
    pool_max: f64,
    last: Option<SessionTelemetry>,
    spent: Duration,
}

/// Closed-loop jobs, each followed by the `run_batched` baseline over
/// the same job, until `budget` is spent (at least `min_reps`).
#[allow(clippy::too_many_arguments)]
fn closed_jobs(
    c: &mut Closed,
    budget: Duration,
    min_reps: usize,
    readings: &[Tuple],
    want: &[Tuple],
    tracer: &Tracer,
    root: Option<u64>,
    setups: &mut Vec<f64>,
    rep: &mut Report,
) -> Option<()> {
    let t0 = Instant::now();
    let mut reps = 0;
    while reps < min_reps || t0.elapsed() < budget {
        reps += 1;
        let session = build(tracer, root, setups, rep)?;
        let (sends, before) = tracer.time("bench.prepare", root, || {
            sends_for(&session, readings, CLOSED_TUPLES)
        });
        let n_sends = sends.len();
        let mut it = sends.into_iter();
        let pass = inproc::drive(
            session,
            n_sends,
            |_| it.next().expect("one send per slot"),
            |k| before[k],
            None,
            f64::INFINITY,
            tracer,
            root,
            rep,
        );
        let wall = pass.end.saturating_duration_since(pass.start);
        c.rps.push(pass.records as f64 / wall.as_secs_f64());
        c.walls.push(ms(wall));
        c.pool_max = c.pool_max.max(pass.pool_depth_max);
        if let Err(e) = tracer.time("bench.check", root, || {
            common::compare(&pass.output, want, false)
        }) {
            rep.fail(format!("staged session vs run_batched: {e}"));
        }
        rep.attempted += n_sends as u64;
        c.last = Some(pass.telemetry);
        let (_, bw) = tracer.time("core.run_batched", root, || {
            batched(readings, CLOSED_TUPLES, rep)
        });
        c.batched_walls.push(bw);
    }
    c.spent += t0.elapsed();
    Some(())
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer, rep: &mut Report) -> Option<()> {
    let zipf = Zipf::new(GROUPS, ZIPF_S);
    let readings = query::readings(seed, SALT, 0, INPUT, &Keys::Skewed(&zipf));
    let root_span = tracer.span("run", None);
    let root = root_span.id();
    let mut setups = Vec::new();

    // Closed-loop jobs: one slice first, one after each base-rung slice,
    // the rest after the ladder.
    let (want, _) = tracer.time("core.run_batched", root, || {
        batched(&readings, CLOSED_TUPLES, rep)
    });
    let closed = Duration::from_secs_f64(CLOSED_SHARE * seconds);
    let slice = closed / (SLICES + 1);
    let mut c = Closed::default();
    closed_jobs(
        &mut c,
        slice,
        1,
        &readings,
        &want,
        tracer,
        root,
        &mut setups,
        rep,
    )?;

    // Open-loop ladder. A rung's input is capped, so a rung repeats
    // fresh-session passes over it until its share of the run is spent.
    let mut verdicts = Vec::new();
    let mut base_latency = Vec::new();
    for (k, &rate) in LADDER.iter().enumerate() {
        let secs = if k == 0 { BASE_SHARE } else { RUNG_SHARE } * seconds;
        let n = ((rate * secs) as usize).clamp(BATCH, INPUT);
        let mut rung = Rung::new(rate);
        let mut reference: Option<(usize, Vec<Tuple>)> = None;
        let (mut rung_time, mut next_slice) = (Duration::ZERO, secs / SLICES as f64);
        while rung.latency_ms.is_empty() || rung_time.as_secs_f64() < secs {
            let t_pass = Instant::now();
            let session = build(tracer, root, &mut setups, rep)?;
            let (sends, before) =
                tracer.time("bench.prepare", root, || sends_for(&session, &readings, n));
            let n_sends = sends.len();
            let mut it = sends.into_iter();
            let pass = inproc::drive(
                session,
                n_sends,
                |_| it.next().expect("one send per slot"),
                |k| before[k],
                Some(rate),
                2.0 * LIMIT_MS,
                tracer,
                root,
                rep,
            );
            // The reference covers exactly the readings that were sent.
            let sent = pass.tuples_pushed as usize - GROUPS.min(pass.tuples_pushed as usize);
            if reference.as_ref().is_none_or(|(m, _)| *m != sent) {
                let (want, _) =
                    tracer.time("core.run_batched", root, || batched(&readings, sent, rep));
                reference = Some((sent, want));
            }
            let rung_want = &reference.as_ref().expect("just set").1;
            if let Err(e) = tracer.time("bench.check", root, || {
                common::compare(&pass.output, rung_want, false)
            }) {
                rep.fail(format!("staged rung {rate}: {e}"));
            }
            let ends: BTreeMap<u64, u64> = rung_want
                .iter()
                .map(|t| (common::window_of(t), common::window_of(t) + WINDOW_MS))
                .collect();
            let (latency, missing) = window_latencies(&pass.sends, &ends, &pass.arrivals);
            rep.attempted += pass.sends.len() as u64 + ends.len() as u64;
            if missing > 0 {
                rep.failed += missing;
                rep.fail(format!("{missing} windows missing at rung {rate}"));
            }
            rung.add_pass(
                pass.records,
                pass.last_sent.saturating_duration_since(pass.start)
                    + Duration::from_secs_f64(BATCH as f64 / rate),
                &pass.late_ms,
                latency,
                missing,
                pass.aborted,
            );
            if rung.backlog_grew {
                break;
            }
            rung_time += t_pass.elapsed();
            if k == 0 && rung_time.as_secs_f64() >= next_slice {
                next_slice += secs / SLICES as f64;
                closed_jobs(
                    &mut c,
                    slice,
                    1,
                    &readings,
                    &want,
                    tracer,
                    root,
                    &mut setups,
                    rep,
                )?;
            }
        }
        let passed = rung.report("session_staged", LIMIT_MS, &mut verdicts);
        if k == 0 {
            base_latency = rung.latency_ms;
        }
        if !passed {
            break;
        }
    }
    let rest = closed.saturating_sub(c.spent);
    closed_jobs(
        &mut c,
        rest,
        1,
        &readings,
        &want,
        tracer,
        root,
        &mut setups,
        rep,
    )?;
    drop(root_span);

    rep.set("throughput_rps", median(&c.rps));
    common::report_ladder(&verdicts, &base_latency, rep);
    rep.set("setup_s", median(&setups));
    rep.set("peak_rss_mb", common::peak_rss_mb("self").unwrap_or(0.0));
    rep.set("runtime.session_wall_ms", median(&c.walls));
    rep.set("core.run_batched_ms", median(&c.batched_walls));
    rep.set(
        "runtime.speedup_vs_batched",
        median(&c.batched_walls) / median(&c.walls),
    );
    if let Some(t) = &c.last {
        layers::from_telemetry(t, c.pool_max, rep);
    }
    println!(
        "session_staged: closed-loop walls {:?} ms, run_batched {:?} ms, base-rung latency samples {}",
        c.walls.iter().map(|w| w.round()).collect::<Vec<_>>(),
        c.batched_walls.iter().map(|w| w.round()).collect::<Vec<_>>(),
        base_latency.len()
    );
    Some(())
}
