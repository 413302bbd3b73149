//! Pieces every workload shares: the seeded generator rng, exact
//! quantiles, the open-loop ladder bookkeeping, peak-RSS reads, result
//! comparison, and the metric table each run fills in.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use ustream_core::Tuple;

/// Shares of `--seconds` each phase may use: the closed-loop jobs, the
/// ladder's base rung (which supplies the latency samples), and each
/// higher rung.
pub const CLOSED_SHARE: f64 = 0.3;
pub const BASE_SHARE: f64 = 0.25;
pub const RUNG_SHARE: f64 = 0.05;
/// The in-process workloads interleave their closed-loop jobs with this
/// many slices of the base rung, so both sample the whole run rather
/// than one stretch of a machine whose speed drifts by the second.
pub const SLICES: u32 = 6;

/// SplitMix64: the benchmark's own generator, so inputs depend only on
/// the seed and this file, never on the repository's rng crates.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Zipf(`s`) sampler over `0..n` by inverse CDF (skewed group keys).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Exact quantile of `xs` (linear interpolation between order
/// statistics); 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sleep until `due`, spinning through the last stretch so open-loop
/// sends leave on schedule rather than on the scheduler's tick.
pub fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(1500) {
            std::thread::sleep(left - Duration::from_micros(1000));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The wire bytes of one tuple: values, ts, existence bits, and lineage.
/// Two result sets are byte-equal when these sequences are.
pub fn tuple_bytes(t: &Tuple) -> Vec<u8> {
    let mut out = Vec::new();
    ustream_server::wire::encode_tuple(&mut out, t);
    out
}

/// Compare `got` against the `run_batched` reference `want`, tuple by
/// tuple in wire bytes. `ordered` demands the same sequence; otherwise
/// both sides are compared as sorted multisets (the staged runtime
/// releases each interval in canonical order, not arrival order).
/// Returns a description of the first difference.
pub fn compare(got: &[Tuple], want: &[Tuple], ordered: bool) -> Result<(), String> {
    let mut g: Vec<Vec<u8>> = got.iter().map(tuple_bytes).collect();
    let mut w: Vec<Vec<u8>> = want.iter().map(tuple_bytes).collect();
    if !ordered {
        g.sort();
        w.sort();
    }
    if g.len() != w.len() {
        return Err(format!(
            "{} result tuples, run_batched has {}",
            g.len(),
            w.len()
        ));
    }
    match g.iter().zip(&w).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!("result tuple {i} differs from run_batched")),
    }
}

/// The window a result row belongs to.
pub fn window_of(t: &Tuple) -> u64 {
    t.get("window_start")
        .ok()
        .and_then(|v| v.as_time())
        .expect("result rows carry window_start")
}

/// One ladder rung's observations, pooled over the passes made at its
/// offered rate.
#[derive(Debug)]
pub struct Rung {
    /// Offered rate, records per second.
    pub rate: f64,
    /// Event-to-result latency per closed window, in ms.
    pub latency_ms: Vec<f64>,
    /// How late each send started against its due time, in ms.
    pub late_ms: Vec<f64>,
    achieved: Vec<f64>,
    pub backlog_grew: bool,
    pub failed: u64,
}

/// A rung's verdict against the workload's latency limit.
#[derive(Debug)]
pub struct Verdict {
    pub achieved_rps: f64,
    pub p99_ms: f64,
    pub late_p99_ms: f64,
    pub backlog_grew: bool,
    pub passed: bool,
}

impl Rung {
    pub fn new(rate: f64) -> Rung {
        Rung {
            rate,
            latency_ms: Vec::new(),
            late_ms: Vec::new(),
            achieved: Vec::new(),
            backlog_grew: false,
            failed: 0,
        }
    }

    /// Fold in one pass: `records` sent over `span` (first due time to
    /// the last send's return plus one send interval), each send's
    /// lateness in send order, the window latencies, and the failures.
    /// The backlog grew when sends in the last quarter of the pass ran
    /// later than those in the first quarter by more than 5 ms plus two
    /// send intervals plus a quarter of the pass (due-but-unsent work
    /// piled up; at twice the sustainable rate the gap reaches about 40%
    /// of the pass, while a host stall of a few hundred ms does not
    /// count), when the pass delivered less than nine tenths of the
    /// offered rate (a short pass ends before lateness can pile up), or
    /// when the pass was cut short for running too late.
    pub fn add_pass(
        &mut self,
        records: usize,
        span: Duration,
        late_ms: &[f64],
        latency_ms: Vec<f64>,
        failed: u64,
        aborted: bool,
    ) {
        let n = late_ms.len();
        if n > 0 {
            let q = (n / 4).max(1);
            let first = median(&late_ms[..q]);
            let last = median(&late_ms[n - q..]);
            let pass_ms = 1e3 * records as f64 / self.rate;
            let tolerance = 5.0 + 2.0 * pass_ms / n as f64 + 0.25 * pass_ms;
            self.backlog_grew |= last - first > tolerance;
        }
        let achieved = records as f64 / span.as_secs_f64().max(1e-9);
        self.backlog_grew |= aborted || achieved < 0.9 * self.rate;
        self.achieved.push(achieved);
        self.late_ms.extend_from_slice(late_ms);
        self.latency_ms.extend(latency_ms);
        self.failed += failed;
    }

    pub fn verdict(&self, limit_ms: f64) -> Verdict {
        let p99 = quantile(&self.latency_ms, 0.99);
        Verdict {
            achieved_rps: median(&self.achieved),
            p99_ms: p99,
            late_p99_ms: quantile(&self.late_ms, 0.99),
            backlog_grew: self.backlog_grew,
            passed: !self.backlog_grew && p99 <= limit_ms && self.failed == 0,
        }
    }

    /// Print the rung's verdict; true when it passed.
    pub fn report(&self, workload: &str, limit_ms: f64, verdicts: &mut Vec<Verdict>) -> bool {
        let v = self.verdict(limit_ms);
        println!(
            "{workload} rung {} /s: p99 {:.3} ms, late p99 {:.3} ms, backlog grew {}, {} windows -> {}",
            self.rate,
            v.p99_ms,
            v.late_p99_ms,
            v.backlog_grew,
            self.latency_ms.len(),
            if v.passed { "pass" } else { "fail" }
        );
        let passed = v.passed;
        verdicts.push(v);
        passed
    }
}

/// Fold a ladder's verdicts into the report: `sustained_rps` is the
/// achieved rate on the highest passing rung (the base rung's when none
/// passes), latencies come from the base rung.
pub fn report_ladder(verdicts: &[Verdict], base_latency: &[f64], rep: &mut Report) {
    let passing: Vec<&Verdict> = verdicts.iter().filter(|v| v.passed).collect();
    let top = passing.last().copied().or(verdicts.first());
    rep.set("sustained_rps", top.map_or(0.0, |v| v.achieved_rps));
    rep.set("gen.latency_p50_ms", quantile(base_latency, 0.5));
    rep.set("gen.latency_p90_ms", quantile(base_latency, 0.9));
    rep.set("gen.latency_p99_ms", quantile(base_latency, 0.99));
    rep.set("gen.latency_samples", base_latency.len() as f64);
    rep.set(
        "gen.late_p99_ms",
        passing.iter().map(|v| v.late_p99_ms).fold(0.0, f64::max),
    );
}

/// Latency samples from window arrivals: each window's result time minus
/// the due time of the send whose timestamps first reached its end.
/// `sends` lists `(due, max_ts)` in send order; `ends` maps each expected
/// window start to its end; `arrivals` maps window start to when its
/// first result row arrived. Returns the samples and the windows that
/// never arrived.
pub fn window_latencies(
    sends: &[(Instant, u64)],
    ends: &BTreeMap<u64, u64>,
    arrivals: &BTreeMap<u64, Instant>,
) -> (Vec<f64>, u64) {
    let mut out = Vec::with_capacity(ends.len());
    let mut missing = 0;
    for (start, end) in ends {
        let Some(arrived) = arrivals.get(start) else {
            missing += 1;
            continue;
        };
        let idx = sends.partition_point(|&(_, max_ts)| max_ts < *end);
        // Windows closed only by the trailing watermark advance have no
        // closing send inside the step; they carry no latency sample.
        if let Some((due, _)) = sends.get(idx) {
            out.push(ms(arrived.saturating_duration_since(*due)));
        }
    }
    (out, missing)
}

/// What one run reports: the gate, the counts, and the metric values.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub problems: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Default::default()
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a failed check: the run is no longer correct.
    pub fn fail(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("perfbench: check failed: {why}");
        self.correct = false;
        self.problems.push(why);
    }

    /// Fold one check into the gate.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_order_statistics() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 51.0);
        assert_eq!(quantile(&xs, 0.99), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn zipf_is_skewed_toward_low_keys() {
        let z = Zipf::new(64, 1.1);
        let mut rng = Rng::new(1, 2);
        let mut counts = [0usize; 64];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 5 * counts[63].max(1));
    }

    #[test]
    fn latencies_use_the_send_that_reached_the_window_end() {
        let t0 = Instant::now();
        let sends = vec![(t0, 9), (t0 + Duration::from_millis(10), 19)];
        let ends = BTreeMap::from([(0, 8), (8, 16), (16, 24)]);
        let arrivals = BTreeMap::from([
            (0, t0 + Duration::from_millis(2)),
            (8, t0 + Duration::from_millis(13)),
        ]);
        let (lat, missing) = window_latencies(&sends, &ends, &arrivals);
        assert_eq!(missing, 1);
        assert_eq!(lat.len(), 2);
        assert!((lat[0] - 2.0).abs() < 0.5 && (lat[1] - 3.0).abs() < 0.5);
    }
}
