//! `rfid_q1`: the paper's capture pipeline. Seeded raw RFID scans go
//! through `RfidTOperator::ingest` (factored particle filter, BIC mixture
//! conversion); its tuples feed a single-pipeline session: uncertain
//! `loc_x`/`loc_y` zone predicates, then a keyed tumbling AVG/SUM over
//! the mixture marginals under the CF-approximation strategy. A record
//! is one raw scan.

use crate::common::{
    self, median, ms, quantile, window_latencies, Report, Rung, BASE_SHARE, CLOSED_SHARE,
    RUNG_SHARE, SLICES,
};
use crate::inproc::{self, Send};
use crate::trace::Tracer;
use rfid_sim::{Scan, SensingModel, TraceConfig, TraceGenerator, WorldConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use ustream_core::ops::aggregate::{AggFunc, AggSpec, Strategy, WindowKind, WindowedAggregate};
use ustream_core::ops::select::{Predicate, Select};
use ustream_core::ops::Passthrough;
use ustream_core::query::{NodeId, QueryGraph};
use ustream_core::toperator::TransformOperator;
use ustream_core::{ConversionPolicy, Tuple};
use ustream_inference::{FactoredConfig, MotionModel, ObservationModel, RfidTOperator};
use ustream_prob::fit::ModelSelection;
use ustream_runtime::session::ShardedSession;

pub const SHELVES: usize = 8;
pub const OBJECTS: usize = 120;
pub const PARTICLES: usize = 64;
/// Per-scan probability that an object moves shelf: moved objects leave
/// bimodal clouds, which BIC turns into mixtures.
pub const MOVE_PROB: f64 = 0.01;
pub const SCAN_MS: u64 = 200;
/// One scan per tumbling window.
pub const WINDOW_MS: u64 = SCAN_MS;
/// Closed-loop job size, scans. Successive jobs take successive
/// stretches of the trace, so a run's median covers `STRETCHES` of them
/// rather than one seed-specific stretch.
pub const CLOSED_SCANS: usize = 200;
const STRETCHES: usize = 8;
/// Offered rates of the open-loop ladder, scans per second.
pub const LADDER: [f64; 5] = [55.0, 220.0, 880.0, 3_520.0, 14_080.0];
pub const LIMIT_MS: f64 = 150.0;
/// Mean location error above which the run fails: the filter has lost
/// accuracy (seeds of the parent commit measure 5.4 to 6.7 ft).
pub const LOC_ERROR_CEILING_FT: f64 = 8.0;
/// Scans generated per run.
const SCANS: usize = 4_096;

/// The raw scans for `seed`.
pub fn scans(seed: u64, n: usize) -> Vec<Scan> {
    TraceGenerator::new(trace_config(seed)).scans(n)
}

fn trace_config(seed: u64) -> TraceConfig {
    TraceConfig {
        world: WorldConfig {
            shelf_rows: SHELVES,
            shelf_cols: SHELVES,
            num_objects: OBJECTS,
            move_prob: MOVE_PROB,
            seed,
            ..Default::default()
        },
        sensing: SensingModel::noisy(),
        scan_interval_ms: SCAN_MS,
        seed: seed ^ 0x9E37,
        ..Default::default()
    }
}

fn t_operator(seed: u64) -> RfidTOperator {
    // The filter's priors come from the same world the trace simulates.
    let gen = TraceGenerator::new(trace_config(seed));
    let shelf_xy: Vec<[f64; 2]> = gen
        .world
        .shelves()
        .iter()
        .map(|s| [s.pos[0], s.pos[1]])
        .collect();
    let cfg = FactoredConfig {
        num_particles: PARTICLES,
        extent: gen.world.extent(),
        motion: MotionModel {
            diffusion: 0.05,
            move_prob: MOVE_PROB,
            shelf_xy,
            placement_jitter: gen.world.config().placement_jitter,
        },
        obs: ObservationModel::new(*gen.sensing()),
        use_spatial_index: true,
        compression: None,
        negative_evidence: true,
        resample_fraction: 0.5,
        seed: seed ^ 0x5151,
    };
    RfidTOperator::new(
        OBJECTS,
        cfg,
        ConversionPolicy::FitMixture {
            max_k: 3,
            criterion: ModelSelection::Bic,
        },
    )
}

/// Zone predicates on the uncertain marginals, then per-tag AVG of
/// `loc_x` and SUM of `loc_y` per tumbling window, CF approximation.
pub fn graph() -> (QueryGraph, NodeId) {
    let extent = SHELVES as f64 * 6.0;
    let zone = Predicate::And(
        Box::new(Predicate::UncertainBetween(
            "loc_x".into(),
            -5.0,
            0.85 * extent,
        )),
        Box::new(Predicate::UncertainBetween(
            "loc_y".into(),
            -5.0,
            extent + 5.0,
        )),
    );
    let cf = || Strategy::CfApprox {
        skew_threshold: 0.3,
        kurt_threshold: 1.0,
    };
    let agg = WindowedAggregate::keyed_by_field(
        WindowKind::Tumbling(WINDOW_MS),
        "tag_id",
        vec![
            AggSpec {
                field: "loc_x".into(),
                func: AggFunc::Avg,
                out: "avg_x".into(),
                strategy: cf(),
            },
            AggSpec {
                field: "loc_y".into(),
                func: AggFunc::Sum,
                out: "sum_y".into(),
                strategy: cf(),
            },
        ],
    )
    .named("aggregate");
    let mut g = QueryGraph::new();
    let select = g.add(Box::new(
        Select::new(zone, 0.2)
            .without_conditioning()
            .named("select"),
    ));
    let agg = g.add(Box::new(agg));
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.connect(select, agg, 0).expect("edge");
    g.connect(agg, sink, 0).expect("edge");
    g.source("locations", select);
    g.sink(sink);
    (g, sink)
}

/// A fresh T operator and session (the set-up being timed).
fn build(
    seed: u64,
    tracer: &Tracer,
    root: Option<u64>,
    setups: &mut Vec<f64>,
    rep: &mut Report,
) -> Option<(RfidTOperator, ShardedSession, NodeId)> {
    let t = Instant::now();
    let op = tracer.time("inference.init", root, || t_operator(seed));
    let session = tracer.time("runtime.build", root, || ShardedSession::single(graph().0));
    setups.push(t.elapsed().as_secs_f64());
    match session {
        Ok(s) => {
            let node = s.source_node("locations").expect("registered source");
            Some((op, s, node))
        }
        Err(e) => {
            rep.fail(format!("session build: {e}"));
            None
        }
    }
}

/// One pass over the first `n` scans; returns the pass and every tuple
/// the T operator emitted, in order.
#[allow(clippy::too_many_arguments)]
fn pass(
    seed: u64,
    scans: &[Scan],
    n: usize,
    rate: Option<f64>,
    tracer: &Tracer,
    root: Option<u64>,
    setups: &mut Vec<f64>,
    ingest_ms: &mut Vec<f64>,
    rep: &mut Report,
) -> Option<(inproc::Pass, Vec<Tuple>)> {
    let (mut op, session, node) = build(seed, tracer, root, setups, rep)?;
    let mut input = scans[..n].iter().cloned();
    let mut emitted = Vec::new();
    let p = inproc::drive(
        session,
        n,
        |_| {
            let scan = input.next().expect("one scan per send");
            let ts = scan.truth.ts;
            let t = Instant::now();
            let tuples = tracer.time("inference.ingest", root, || op.ingest(scan));
            ingest_ms.push(ms(t.elapsed()));
            emitted.extend(tuples.iter().cloned());
            Send {
                batches: if tuples.is_empty() {
                    vec![]
                } else {
                    vec![(node, 0, tuples)]
                },
                records: 1,
                watermark: ts,
            }
        },
        |k| k,
        rate,
        2.0 * LIMIT_MS,
        tracer,
        root,
        rep,
    );
    Some((p, emitted))
}

fn reference(emitted: &[Tuple], rep: &mut Report) -> Vec<Tuple> {
    let (mut g, sink) = graph();
    match g.run_batched(vec![("locations".into(), 0, emitted.to_vec())], 512) {
        Ok(mut out) => out.remove(&sink).unwrap_or_default(),
        Err(e) => {
            rep.fail(format!("run_batched: {e}"));
            Vec::new()
        }
    }
}

/// Mean XY distance between each emitted location mean and the object's
/// true position at that scan.
fn loc_error_ft(scans: &[Scan], emitted: &[Tuple]) -> f64 {
    let by_ts: BTreeMap<u64, &Scan> = scans.iter().map(|s| (s.truth.ts, s)).collect();
    let errs: Vec<f64> = emitted
        .iter()
        .filter_map(|t| {
            let truth = by_ts.get(&t.ts)?;
            let tag = t.int("tag_id").ok()? as usize;
            let mean = t.updf("loc").ok()?.mean_vec();
            let xy = truth.truth.object_xy.get(tag)?;
            Some(((mean[0] - xy[0]).powi(2) + (mean[1] - xy[1]).powi(2)).sqrt())
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// What the closed-loop jobs accumulate.
#[derive(Default)]
struct Closed {
    rps: Vec<f64>,
    ingest_ms: Vec<f64>,
    tuples_per_scan: f64,
    loc_error: Option<f64>,
    /// The first job's output per stretch.
    first_emitted: BTreeMap<usize, Vec<String>>,
    jobs: usize,
    last: Option<inproc::Pass>,
    spent: Duration,
}

/// Closed-loop jobs until `budget` is spent (at least `min_reps`).
#[allow(clippy::too_many_arguments)]
fn closed_jobs(
    c: &mut Closed,
    budget: Duration,
    min_reps: usize,
    seed: u64,
    scans: &[Scan],
    tracer: &Tracer,
    root: Option<u64>,
    setups: &mut Vec<f64>,
    rep: &mut Report,
) -> Option<()> {
    let t0 = Instant::now();
    let mut reps = 0;
    while reps < min_reps || t0.elapsed() < budget {
        reps += 1;
        let stretch = c.jobs % STRETCHES;
        c.jobs += 1;
        let (p, emitted) = pass(
            seed,
            &scans[stretch * CLOSED_SCANS..],
            CLOSED_SCANS,
            None,
            tracer,
            root,
            setups,
            &mut c.ingest_ms,
            rep,
        )?;
        let wall = p.end.saturating_duration_since(p.start);
        c.rps.push(p.records as f64 / wall.as_secs_f64());
        c.tuples_per_scan = emitted.len() as f64 / CLOSED_SCANS as f64;
        let want = tracer.time("core.run_batched", root, || reference(&emitted, rep));
        if let Err(e) = tracer.time("bench.check", root, || {
            common::compare(&p.output, &want, true)
        }) {
            rep.fail(format!("rfid session vs run_batched: {e}"));
        }
        // Inference is seeded: every job on a stretch must emit the same
        // values.
        let values: Vec<String> = emitted
            .iter()
            .map(|t| format!("{:?}|{}|{}", t.values(), t.ts, t.existence.to_bits()))
            .collect();
        match c.first_emitted.get(&stretch) {
            None => {
                c.first_emitted.insert(stretch, values);
            }
            Some(first) => rep.check(*first == values, || {
                "T operator output differs between jobs".into()
            }),
        }
        if stretch == 0 && c.loc_error.is_none() {
            let err = loc_error_ft(scans, &emitted);
            rep.check(err <= LOC_ERROR_CEILING_FT, || {
                format!("location error {err:.3} ft exceeds {LOC_ERROR_CEILING_FT} ft")
            });
            c.loc_error = Some(err);
        }
        rep.attempted += CLOSED_SCANS as u64;
        // Per-layer counters come from a job on the first stretch, so
        // they do not depend on how many jobs the run fitted in.
        if stretch == 0 {
            c.last = Some(p);
        }
    }
    c.spent += t0.elapsed();
    Some(())
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer, rep: &mut Report) -> Option<()> {
    let scans = scans(seed, SCANS);
    let root_span = tracer.span("run", None);
    let root = root_span.id();
    let mut setups = Vec::new();
    let mut ingest_ms = Vec::new();

    // Closed-loop jobs: one slice first, one after each base-rung slice,
    // the rest after the ladder.
    let closed = Duration::from_secs_f64(CLOSED_SHARE * seconds);
    let slice = closed / (SLICES + 1);
    let mut c = Closed::default();
    closed_jobs(
        &mut c,
        slice,
        1,
        seed,
        &scans,
        tracer,
        root,
        &mut setups,
        rep,
    )?;

    let mut verdicts = Vec::new();
    let mut base_latency = Vec::new();
    for (k, &rate) in LADDER.iter().enumerate() {
        let secs = if k == 0 { BASE_SHARE } else { RUNG_SHARE } * seconds;
        // The base rung runs as slices, each a fresh filter and session.
        let slices = if k == 0 { SLICES } else { 1 };
        let n = ((rate * secs / slices as f64) as usize).clamp(4, SCANS);
        let mut rung = Rung::new(rate);
        for i in 0..slices {
            // Each slice replays its own stretch of the trace.
            let from = (i as usize * (SCANS / slices as usize)).min(SCANS - n);
            let (p, emitted) = pass(
                seed,
                &scans[from..],
                n,
                Some(rate),
                tracer,
                root,
                &mut setups,
                &mut ingest_ms,
                rep,
            )?;
            let want = tracer.time("core.run_batched", root, || reference(&emitted, rep));
            if let Err(e) = tracer.time("bench.check", root, || {
                common::compare(&p.output, &want, true)
            }) {
                rep.fail(format!("rfid rung {rate}: {e}"));
            }
            let ends: BTreeMap<u64, u64> = want
                .iter()
                .map(|t| (common::window_of(t), common::window_of(t) + WINDOW_MS))
                .collect();
            let (latency, missing) = window_latencies(&p.sends, &ends, &p.arrivals);
            rep.attempted += p.sends.len() as u64 + ends.len() as u64;
            if missing > 0 {
                rep.failed += missing;
                rep.fail(format!("{missing} windows missing at rung {rate}"));
            }
            rung.add_pass(
                p.records,
                p.last_sent.saturating_duration_since(p.start)
                    + Duration::from_secs_f64(1.0 / rate),
                &p.late_ms,
                latency,
                missing,
                p.aborted,
            );
            if rung.backlog_grew {
                break;
            }
            if k == 0 {
                closed_jobs(
                    &mut c,
                    slice,
                    1,
                    seed,
                    &scans,
                    tracer,
                    root,
                    &mut setups,
                    rep,
                )?;
            }
        }
        let passed = rung.report("rfid_q1", LIMIT_MS, &mut verdicts);
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
        seed,
        &scans,
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
    rep.set("inference.ingest_p50_ms", quantile(&c.ingest_ms, 0.5));
    rep.set("inference.ingest_p99_ms", quantile(&c.ingest_ms, 0.99));
    rep.set("inference.tuples_per_scan", c.tuples_per_scan);
    rep.set("inference.loc_error_ft", c.loc_error.unwrap_or(0.0));
    if let Some(p) = &c.last {
        crate::layers::from_telemetry(&p.telemetry, p.pool_depth_max, rep);
    }
    println!(
        "rfid_q1: closed-loop {:?} scans/s, loc error {:.4} ft, base-rung latency samples {}",
        c.rps.iter().map(|w| w.round()).collect::<Vec<_>>(),
        c.loc_error.unwrap_or(0.0),
        base_latency.len()
    );
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_regenerates_identical_scans_and_two_seeds_differ() {
        let render = |seed| format!("{:?}", scans(seed, 50));
        assert_eq!(render(5), render(5));
        assert_ne!(render(5), render(6));
    }
}
