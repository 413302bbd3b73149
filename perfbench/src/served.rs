//! `served_q1`: Q1 on `ServedQuery::new` in a server child process,
//! driven over loopback TCP by one publisher connection and one
//! subscriber connection.
//!
//! One run: several set-ups (spawn + bind + connect) for `setup_s`; on
//! the last server, closed-loop jobs for `throughput_rps`, then the
//! open-loop ladder for `sustained_rps` and the base-rung latencies; then
//! EOS and the byte-equality check of everything received against
//! `run_batched` over everything published.

use crate::common::{
    self, ms, quantile, window_latencies, Report, Rung, BASE_SHARE, CLOSED_SHARE, RUNG_SHARE,
};
use crate::query::{self, Keys};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use ustream_core::Tuple;
use ustream_server::protocol::{self, Request, Response};
use ustream_server::{Client, Event, ServedQuery, Server, ServerConfig};
use ustream_telemetry::{MetricSnapshot, MetricValue};

/// Tuples per publish: one sensor flush.
pub const PUBLISH: usize = 256;
/// Tumbling window length in ms of event time (readings are 1 ms apart).
pub const WINDOW_MS: u64 = 8;
pub const GROUPS: u64 = 4;
/// Closed-loop job size.
pub const CLOSED_TUPLES: usize = 8192;
/// Offered rates of the open-loop ladder, tuples per second.
pub const LADDER: [f64; 6] = [
    2_800.0,
    11_200.0,
    44_800.0,
    179_200.0,
    716_800.0,
    2_867_200.0,
];
/// p99 event-to-result latency limit for a rung to pass.
pub const LIMIT_MS: f64 = 100.0;
const SALT: u64 = 0x0005_E4ED;
/// Cap on one rung's input.
const RUNG_CAP: usize = 65_536;
/// Extra spawn-and-connect rounds for `setup_s`, besides the main one.
const EXTRA_SETUPS: usize = 4;
const WAIT: Duration = Duration::from_secs(30);

/// The server child: serve Q1 under the default configuration, print the
/// port, and on `exit` (or when the parent goes away) report peak RSS and
/// the server's error count, then shut down.
pub fn serve_child() {
    let (graph, _) = query::q1_graph(WINDOW_MS);
    let handle = Server::serve_with(
        "127.0.0.1:0",
        ServedQuery::new(graph),
        ServerConfig::default(),
    )
    .expect("bind a loopback port");
    println!("port {}", handle.addr().port());
    std::io::stdout().flush().expect("stdout");
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    let rss = common::peak_rss_mb("self").unwrap_or(0.0);
    let errors = handle.shutdown().len();
    println!("done {rss} {errors}");
    std::io::stdout().flush().expect("stdout");
}

struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    port: u16,
}

impl ServerProc {
    fn spawn() -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("__serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("server port line: {e}"))?;
        let port = line
            .strip_prefix("port ")
            .and_then(|p| p.trim().parse().ok())
            .ok_or_else(|| format!("server said {line:?}"))?;
        Ok(ServerProc {
            child,
            stdin,
            stdout,
            port,
        })
    }

    fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// Ask the child to exit; returns its peak RSS in MiB and its error
    /// count.
    fn stop(mut self) -> Result<(f64, u64), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = writeln!(stdin, "exit");
        }
        let mut line = String::new();
        let _ = self.stdout.read_line(&mut line);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some("done"), Some(rss), Some(errors)) if status.success() => Ok((
                rss.parse().map_err(|_| "rss".to_string())?,
                errors.parse().map_err(|_| "errors".to_string())?,
            )),
            _ => Err(format!("server exited {status} after {line:?}")),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What the subscriber thread has seen.
#[derive(Default)]
struct Received {
    tuples: Vec<Tuple>,
    /// First arrival per window start.
    arrivals: BTreeMap<u64, Instant>,
    frames: u64,
    gaps: u64,
    eos: bool,
    error: Option<String>,
}

type Shared = Arc<(Mutex<Received>, Condvar)>;

fn subscribe_loop(mut sub: Client, shared: Shared, tracer: &Tracer) {
    let root = tracer.span("subscriber", None);
    loop {
        let ev = tracer.time("client.next_event", root.id(), || sub.next_event());
        let now = Instant::now();
        let (lock, cv) = &*shared;
        let mut r = lock.lock().expect("subscriber state");
        match ev {
            Ok(Event::Results { tuples, .. }) => {
                r.frames += 1;
                for t in &tuples {
                    r.arrivals.entry(common::window_of(t)).or_insert(now);
                }
                r.tuples.extend(tuples);
            }
            Ok(Event::Gap { .. }) => r.gaps += 1,
            Ok(Event::Eos) => r.eos = true,
            Err(e) => r.error = Some(e.to_string()),
        }
        let done = r.eos || r.error.is_some();
        cv.notify_all();
        if done {
            return;
        }
    }
}

/// Spawn a server and connect the subscriber and the publisher.
fn connect(
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<(ServerProc, Client, Client, f64), String> {
    let t0 = Instant::now();
    let srv = tracer.time("server.spawn", parent, ServerProc::spawn)?;
    let sub = tracer
        .time("client.connect", parent, || Client::subscriber(srv.addr()))
        .map_err(|e| format!("subscriber: {e}"))?;
    let publ = tracer
        .time("client.connect", parent, || {
            Client::publisher_manual(srv.addr())
        })
        .map_err(|e| format!("publisher: {e}"))?;
    Ok((srv, publ, sub, t0.elapsed().as_secs_f64()))
}

fn counter(metrics: &[MetricSnapshot], family: &str) -> Option<u64> {
    metrics.iter().find_map(|m| match m.value {
        MetricValue::Counter(v) if m.family == family => Some(v),
        _ => None,
    })
}

/// Everything the publisher side accumulates over the main server's life.
struct Driver<'a> {
    seed: u64,
    tracer: &'a Tracer,
    root: Option<u64>,
    publ: Client,
    shared: Shared,
    /// Next reading index (= its ts).
    next: u64,
    sent: u64,
    publishes: u64,
    /// The `run_batched` result of every segment, in order.
    expected: Vec<Tuple>,
    expected_windows: u64,
    queue_depth_max: f64,
    last_stats: Vec<MetricSnapshot>,
}

/// The outcome of one segment of the stream.
struct Segment {
    late_ms: Vec<f64>,
    first_due: Instant,
    last_ack: Instant,
    /// When the segment's last expected window arrived.
    done: Instant,
    records: usize,
    latency_ms: Vec<f64>,
    failed: u64,
    aborted: bool,
}

impl Driver<'_> {
    /// Publish `n` readings, closed loop (`rate` = None) or on the
    /// open-loop schedule; close the segment's last window with a
    /// watermark heartbeat; wait for every window `run_batched` says
    /// exists; check the server's counters.
    fn segment(
        &mut self,
        n: usize,
        rate: Option<f64>,
        abort_late_ms: f64,
        rep: &mut Report,
    ) -> Segment {
        let tuples = self.tracer.time("bench.prepare", self.root, || {
            query::readings(self.seed, SALT, self.next, n, &Keys::Uniform(GROUPS))
        });
        let mut sends = Vec::new();
        let mut late_ms = Vec::new();
        let mut failed = 0;
        let mut aborted = false;
        let start = Instant::now();
        let mut last_ack = start;
        let mut sent_here = 0;
        for (j, chunk) in tuples.chunks(PUBLISH).enumerate() {
            let due = match rate {
                Some(r) => start + Duration::from_secs_f64((j * PUBLISH) as f64 / r),
                None => Instant::now(),
            };
            if rate.is_some() {
                self.tracer
                    .time("gen.wait", self.root, || common::wait_until(due));
            }
            let late = ms(Instant::now().saturating_duration_since(due));
            late_ms.push(late);
            if rate.is_some() && late > abort_late_ms {
                aborted = true;
                break;
            }
            let r = self.tracer.time("client.publish", self.root, || {
                self.publ.publish("in", 0, chunk)
            });
            self.publishes += 1;
            last_ack = Instant::now();
            match r {
                Ok(k) if k == chunk.len() => {}
                other => {
                    failed += 1;
                    rep.fail(format!("publish returned {other:?}"));
                }
            }
            sends.push((due, chunk.last().map_or(0, |t| t.ts)));
            sent_here += chunk.len();
        }
        // Only what was sent takes part; publishes are whole windows.
        let mut tuples = tuples;
        tuples.truncate(sent_here);
        let end = self.next + sent_here as u64;
        if let Err(e) = self
            .tracer
            .time("client.heartbeat", self.root, || self.publ.heartbeat(end))
        {
            failed += 1;
            rep.fail(format!("heartbeat: {e}"));
        }
        self.next = end;
        self.sent += sent_here as u64;

        let want = self.tracer.time("core.run_batched", self.root, || {
            let (mut g, sink) = query::q1_graph(WINDOW_MS);
            g.run_batched(vec![("in".into(), 0, tuples)], PUBLISH)
                .map(|mut out| out.remove(&sink).unwrap_or_default())
        });
        let want = match want {
            Ok(w) => w,
            Err(e) => {
                rep.fail(format!("run_batched: {e}"));
                Vec::new()
            }
        };
        let ends: BTreeMap<u64, u64> = want
            .iter()
            .map(|t| (common::window_of(t), common::window_of(t) + WINDOW_MS))
            .collect();
        self.expected_windows += ends.len() as u64;
        self.expected.extend(want);

        // Wait for every expected window.
        let wait = self.tracer.span("client.await_results", self.root);
        let (lock, cv) = &*self.shared;
        let deadline = Instant::now() + WAIT;
        let mut r = lock.lock().expect("subscriber state");
        while ends.keys().any(|w| !r.arrivals.contains_key(w)) && r.error.is_none() && !r.eos {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            r = cv.wait_timeout(r, left).expect("subscriber state").0;
        }
        let (latency_ms, missing) = window_latencies(&sends, &ends, &r.arrivals);
        let done = ends
            .keys()
            .filter_map(|w| r.arrivals.get(w))
            .max()
            .copied()
            .unwrap_or(last_ack);
        if missing > 0 {
            failed += missing;
            rep.fail(format!("{missing} result windows never arrived"));
        }
        drop(r);
        drop(wait);
        self.check_counters(rep);
        Segment {
            late_ms,
            first_due: start,
            last_ack,
            done,
            records: sent_here,
            latency_ms,
            failed,
            aborted,
        }
    }

    fn poll_stats(&mut self, rep: &mut Report) -> bool {
        match self
            .tracer
            .time("client.stats_v2", self.root, || self.publ.stats_v2())
        {
            Ok((metrics, _)) => {
                for m in &metrics {
                    if let (MetricValue::Gauge(v), "server_subscriber_queue_depth") =
                        (&m.value, m.family.as_str())
                    {
                        self.queue_depth_max = self.queue_depth_max.max(*v as f64);
                    }
                }
                self.last_stats = metrics;
                true
            }
            Err(e) => {
                rep.fail(format!("stats_v2: {e}"));
                false
            }
        }
    }

    /// The server's own counters, read over the wire, must agree with
    /// what this side sent and received.
    fn check_counters(&mut self, rep: &mut Report) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if !self.poll_stats(rep) {
                return;
            }
            let tuples = counter(&self.last_stats, "server_publish_tuples_total");
            let frames = counter(&self.last_stats, "server_results_frames_total");
            let received = self.shared.0.lock().expect("subscriber state").frames;
            if tuples != Some(self.sent) {
                rep.fail(format!(
                    "server_publish_tuples_total {tuples:?} != {} sent",
                    self.sent
                ));
                return;
            }
            match frames {
                Some(f) if f == received => return,
                // Frames the server counted may still be in flight.
                Some(f) if f > received && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => {
                    rep.fail(format!(
                        "server_results_frames_total {other:?} != {received} received"
                    ));
                    return;
                }
            }
        }
    }
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer, rep: &mut Report) {
    let root_span = tracer.span("run", None);
    let root = root_span.id();
    let mut setups = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        match connect(tracer, root) {
            Ok((srv, mut publ, mut sub, dt)) => {
                setups.push(dt);
                rep.attempted += 1;
                let finished = publ.finish().is_ok()
                    && matches!(sub.collect_until_eos(), Ok(v) if v.is_empty());
                drop((publ, sub));
                match srv.stop() {
                    Ok((_, 0)) if finished => {}
                    other => {
                        rep.failed += 1;
                        rep.fail(format!("empty set-up round ended with {other:?}"));
                    }
                }
            }
            Err(e) => {
                rep.attempted += 1;
                rep.failed += 1;
                rep.fail(e);
            }
        }
    }
    let (srv, publ, sub, dt) = match connect(tracer, root) {
        Ok(c) => c,
        Err(e) => {
            rep.attempted += 1;
            rep.failed += 1;
            rep.fail(e);
            return;
        }
    };
    setups.push(dt);
    let shared: Shared = Arc::new((Mutex::new(Received::default()), Condvar::new()));
    let mut d = Driver {
        seed,
        tracer,
        root,
        publ,
        shared: shared.clone(),
        next: 0,
        sent: 0,
        publishes: 0,
        expected: Vec::new(),
        expected_windows: 0,
        queue_depth_max: 0.0,
        last_stats: Vec::new(),
    };

    std::thread::scope(|scope| {
        let sub_thread = scope.spawn(|| subscribe_loop(sub, shared.clone(), tracer));
        let mut failed = 0;

        // Closed loop: fixed-size jobs back to back until the budget is
        // spent (at least two).
        let budget = Duration::from_secs_f64(CLOSED_SHARE * seconds);
        let t0 = Instant::now();
        let mut closed = Vec::new();
        let mut closed_wall = Vec::new();
        while closed.len() < 2 || (t0.elapsed() < budget && closed.len() < 200) {
            let s = d.segment(CLOSED_TUPLES, None, f64::INFINITY, rep);
            let wall = s.done.saturating_duration_since(s.first_due);
            closed.push(s.records as f64 / wall.as_secs_f64());
            closed_wall.push(ms(wall));
            failed += s.failed;
        }

        // Open-loop ladder, lowest rung first, until a rung fails.
        let mut verdicts = Vec::new();
        let mut base_latency = Vec::new();
        for (k, &rate) in LADDER.iter().enumerate() {
            let secs = if k == 0 { BASE_SHARE } else { RUNG_SHARE } * seconds;
            let n = ((rate * secs) as usize).clamp(PUBLISH, RUNG_CAP) / PUBLISH * PUBLISH;
            let s = d.segment(n, Some(rate), 2.0 * LIMIT_MS, rep);
            failed += s.failed;
            let mut rung = Rung::new(rate);
            rung.add_pass(
                s.records,
                s.last_ack.saturating_duration_since(s.first_due)
                    + Duration::from_secs_f64(PUBLISH as f64 / rate),
                &s.late_ms,
                s.latency_ms,
                s.failed,
                s.aborted,
            );
            let passed = rung.report("served_q1", LIMIT_MS, &mut verdicts);
            if k == 0 {
                base_latency = rung.latency_ms;
            }
            if !passed {
                break;
            }
        }

        if let Err(e) = tracer.time("client.finish", root, || d.publ.finish()) {
            failed += 1;
            rep.fail(format!("finish: {e}"));
        }
        let _ = sub_thread.join();
        let r = shared.0.lock().expect("subscriber state");
        if let Some(e) = &r.error {
            failed += 1;
            rep.fail(format!("subscription dropped: {e}"));
        }
        if r.gaps > 0 {
            failed += r.gaps;
            rep.fail(format!("{} gap notices", r.gaps));
        }
        if let Err(e) = tracer.time("bench.check", root, || {
            common::compare(&r.tuples, &d.expected, true)
        }) {
            rep.fail(format!("served results vs run_batched: {e}"));
        }
        rep.attempted += d.publishes + d.expected_windows;
        rep.failed += failed;

        rep.set("throughput_rps", common::median(&closed));
        common::report_ladder(&verdicts, &base_latency, rep);
        println!(
            "served_q1: closed-loop walls {:?} ms, base-rung latency samples {}",
            closed_wall.iter().map(|w| w.round()).collect::<Vec<_>>(),
            base_latency.len()
        );

        // Per-layer numbers from the server's own counters.
        let stats = &d.last_stats;
        rep.set(
            "server.publish_frames",
            counter(stats, "server_publish_frames_total").unwrap_or(0) as f64,
        );
        rep.set(
            "server.results_frames",
            counter(stats, "server_results_frames_total").unwrap_or(0) as f64,
        );
        rep.set("server.subscriber_queue_depth_max", d.queue_depth_max);
        crate::layers::op_counters_from_stats(stats, rep);
        if tracer.enabled() {
            wire_replay(seed, &r.tuples, tracer, root, rep);
        }
    });
    drop(root_span);
    match srv.stop() {
        Ok((rss, errors)) => {
            rep.set("peak_rss_mb", rss);
            if errors > 0 {
                rep.failed += errors;
                rep.fail(format!("server recorded {errors} errors"));
            }
        }
        Err(e) => rep.fail(e),
    }
    rep.set("setup_s", common::median(&setups));
    let publish_us: Vec<f64> = tracer
        .durations_ms("client.publish")
        .iter()
        .map(|v| v * 1e3)
        .collect();
    rep.set("client.publish_p50_us", quantile(&publish_us, 0.5));
    rep.set("client.publish_p99_us", quantile(&publish_us, 0.99));
    rep.set(
        "client.next_event_wait_ms",
        tracer.durations_ms("client.next_event").iter().sum(),
    );
}

/// Replay the run's frames through the codec on this side: the
/// publish frames of one closed-loop job and the results frames of what
/// came back, each encoded and decoded five times (median per tuple).
fn wire_replay(seed: u64, results: &[Tuple], tracer: &Tracer, root: Option<u64>, rep: &mut Report) {
    let inputs = query::readings(seed, SALT, 0, CLOSED_TUPLES, &Keys::Uniform(GROUPS));
    let results = &results[..results.len().min(CLOSED_TUPLES)];
    let per = |total: Duration, n: usize| total.as_nanos() as f64 / n.max(1) as f64;
    let (mut enc, mut dec, mut renc, mut rdec) = (vec![], vec![], vec![], vec![]);
    let mut bytes = 0;
    let mut ok = true;
    for _ in 0..5 {
        let frames: Vec<Vec<u8>> = tracer.time("wire.publish_encode", root, || {
            let t = Instant::now();
            let frames: Vec<Vec<u8>> = inputs
                .chunks(PUBLISH)
                .enumerate()
                .map(|(j, c)| {
                    let mut f = Vec::new();
                    protocol::write_publish(&mut f, "in", 0, Some(j as u64 + 1), c)
                        .expect("encode publish");
                    f
                })
                .collect();
            enc.push(per(t.elapsed(), inputs.len()));
            frames
        });
        bytes = frames.iter().map(Vec::len).sum::<usize>();
        tracer.time("wire.publish_decode", root, || {
            let t = Instant::now();
            for f in &frames {
                ok &= matches!(
                    protocol::read_request(&mut f.as_slice()),
                    Ok(Request::Publish { .. })
                );
            }
            dec.push(per(t.elapsed(), inputs.len()));
        });
        let rframes: Vec<Vec<u8>> = tracer.time("wire.results_encode", root, || {
            let t = Instant::now();
            let frames: Vec<Vec<u8>> = results
                .chunks(PUBLISH)
                .enumerate()
                .map(|(j, c)| {
                    let mut f = Vec::new();
                    protocol::write_results(&mut f, 0, Some(j as u64), c).expect("encode results");
                    f
                })
                .collect();
            renc.push(per(t.elapsed(), results.len()));
            frames
        });
        tracer.time("wire.results_decode", root, || {
            let t = Instant::now();
            for f in &rframes {
                ok &= matches!(
                    protocol::read_response(&mut f.as_slice()),
                    Ok(Response::Results { .. })
                );
            }
            rdec.push(per(t.elapsed(), results.len()));
        });
    }
    rep.check(ok, || "wire replay failed to decode its own frames".into());
    rep.set("wire.publish_encode_ns_per_tuple", common::median(&enc));
    rep.set("wire.publish_decode_ns_per_tuple", common::median(&dec));
    rep.set("wire.results_encode_ns_per_tuple", common::median(&renc));
    rep.set("wire.results_decode_ns_per_tuple", common::median(&rdec));
    rep.set("wire.bytes_per_tuple", bytes as f64 / inputs.len() as f64);
}
