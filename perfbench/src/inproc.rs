//! The driver shared by the in-process workloads: feed a session one
//! send at a time (push, advance the watermark, drain), closed loop or on
//! an open-loop schedule, and record what came back and when.

use crate::common::{self, ms, Report};
use crate::layers;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use ustream_core::batch::Batch;
use ustream_core::query::NodeId;
use ustream_core::Tuple;
use ustream_runtime::session::ShardedSession;
use ustream_runtime::telemetry::SessionTelemetry;

/// One send: batches for the session, tagged with the raw records they
/// stand for (tuples, or scans for the RFID workload).
pub struct Send {
    pub batches: Vec<(NodeId, usize, Vec<Tuple>)>,
    pub records: usize,
    /// The watermark this send's inputs promise.
    pub watermark: u64,
}

/// What one pass over a session produced.
pub struct Pass {
    /// `(due, watermark)` per send made.
    pub sends: Vec<(Instant, u64)>,
    pub late_ms: Vec<f64>,
    /// First arrival per window start.
    pub arrivals: BTreeMap<u64, Instant>,
    pub output: Vec<Tuple>,
    pub start: Instant,
    /// When the last send's drain returned.
    pub last_sent: Instant,
    /// When the last result came back (after `finish`).
    pub end: Instant,
    pub records: usize,
    pub tuples_pushed: u64,
    pub pushed_counter: u64,
    pub pool_depth_max: f64,
    pub aborted: bool,
    /// The session's counters, readable after it finished.
    pub telemetry: SessionTelemetry,
}

/// Drive `session` through `sends`. `make` turns send `k` into session
/// input (the RFID workload runs inference there); `rate` (records/s)
/// puts sends on an open-loop schedule, `None` sends back to back. An
/// open-loop pass stops sending once a send starts `abort_late_ms` late.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    mut session: ShardedSession,
    n_sends: usize,
    mut make: impl FnMut(usize) -> Send,
    records_before: impl Fn(usize) -> usize,
    rate: Option<f64>,
    abort_late_ms: f64,
    tracer: &Tracer,
    root: Option<u64>,
    rep: &mut Report,
) -> Pass {
    let telem = session.telemetry().clone();
    let mut pass = Pass {
        sends: Vec::with_capacity(n_sends),
        late_ms: Vec::with_capacity(n_sends),
        arrivals: BTreeMap::new(),
        output: Vec::new(),
        start: Instant::now(),
        last_sent: Instant::now(),
        end: Instant::now(),
        records: 0,
        tuples_pushed: 0,
        pushed_counter: 0,
        pool_depth_max: 0.0,
        aborted: false,
        telemetry: telem.clone(),
    };
    let start = Instant::now();
    pass.start = start;
    let mut ok = true;
    for k in 0..n_sends {
        let due = match rate {
            Some(r) => start + Duration::from_secs_f64(records_before(k) as f64 / r),
            None => Instant::now(),
        };
        if rate.is_some() {
            tracer.time("gen.wait", root, || common::wait_until(due));
        }
        let late = ms(Instant::now().saturating_duration_since(due));
        pass.late_ms.push(late);
        if rate.is_some() && late > abort_late_ms {
            pass.aborted = true;
            break;
        }
        let send = make(k);
        for (node, port, tuples) in send.batches {
            pass.tuples_pushed += tuples.len() as u64;
            let r = tracer.time("session.push", root, || {
                session.push_batch(node, port, Batch::from(tuples))
            });
            if let Err(e) = r {
                rep.fail(format!("push_batch: {e}"));
                ok = false;
            }
        }
        if let Err(e) = tracer.time("session.advance", root, || {
            session.advance_watermark(send.watermark)
        }) {
            rep.fail(format!("advance_watermark: {e}"));
            ok = false;
        }
        match tracer.time("session.drain", root, || session.drain_collected()) {
            Ok(out) => {
                let now = Instant::now();
                for (_, tuples) in out {
                    for t in &tuples {
                        pass.arrivals.entry(common::window_of(t)).or_insert(now);
                    }
                    pass.output.extend(tuples);
                }
            }
            Err(e) => {
                rep.fail(format!("drain_collected: {e}"));
                ok = false;
            }
        }
        if tracer.enabled() {
            pass.pool_depth_max = pass.pool_depth_max.max(layers::pool_depth(&telem));
        }
        pass.sends.push((due, send.watermark));
        pass.records += send.records;
        pass.last_sent = Instant::now();
        if !ok {
            break;
        }
    }
    pass.pushed_counter = telem.tuples_pushed.get();
    match tracer.time("session.finish", root, || session.finish()) {
        Ok(rest) => {
            let now = Instant::now();
            let mut rest: Vec<(NodeId, Vec<Tuple>)> = rest.into_iter().collect();
            rest.sort_by_key(|(n, _)| n.index());
            for (_, tuples) in rest {
                for t in &tuples {
                    pass.arrivals.entry(common::window_of(t)).or_insert(now);
                }
                pass.output.extend(tuples);
            }
        }
        Err(e) => rep.fail(format!("finish: {e}")),
    }
    pass.end = Instant::now();
    // The engine's own count of pushed tuples must match ours.
    rep.check(pass.pushed_counter == pass.tuples_pushed, || {
        format!(
            "engine_tuples_pushed_total {} != {} pushed",
            pass.pushed_counter, pass.tuples_pushed
        )
    });
    pass
}

/// Cut a ts-ordered feed into sends of up to `batch` tuples, one run of
/// consecutive same-destination tuples per batch, as a server's merge
/// does.
pub fn chunk_feed(feed: Vec<(u64, NodeId, usize, Tuple)>, batch: usize) -> Vec<Send> {
    let mut sends = Vec::new();
    let mut cur: Option<(NodeId, usize, Vec<Tuple>, u64)> = None;
    for (ts, node, port, t) in feed {
        match &mut cur {
            Some((n, p, b, wm)) if *n == node && *p == port && b.len() < batch => {
                b.push(t);
                *wm = ts;
            }
            slot => {
                if let Some((n, p, b, wm)) = slot.take() {
                    sends.push(Send {
                        records: b.len(),
                        batches: vec![(n, p, b)],
                        watermark: wm,
                    });
                }
                *slot = Some((node, port, vec![t], ts));
            }
        }
    }
    if let Some((n, p, b, wm)) = cur {
        sends.push(Send {
            records: b.len(),
            batches: vec![(n, p, b)],
            watermark: wm,
        });
    }
    sends
}
