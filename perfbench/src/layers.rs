//! Metric names, units, and the per-layer readings taken from the
//! program's own counters (`Client::stats_v2` or a session's
//! `telemetry()`).

use crate::common::Report;
use ustream_runtime::telemetry::SessionTelemetry;
use ustream_telemetry::{MetricSnapshot, MetricValue, QuantileSketch};

/// End-to-end metrics: `(name, unit)`. Every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("sustained_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not pass
/// through reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.publish_p50_us", "us"),
    ("client.publish_p99_us", "us"),
    ("client.next_event_wait_ms", "ms"),
    ("wire.publish_encode_ns_per_tuple", "ns"),
    ("wire.publish_decode_ns_per_tuple", "ns"),
    ("wire.results_encode_ns_per_tuple", "ns"),
    ("wire.results_decode_ns_per_tuple", "ns"),
    ("wire.bytes_per_tuple", "bytes"),
    ("server.publish_frames", "count"),
    ("server.results_frames", "count"),
    ("server.subscriber_queue_depth_max", "count"),
    ("session.push_ms", "ms"),
    ("session.advance_ms", "ms"),
    ("session.drain_ms", "ms"),
    ("session.finish_ms", "ms"),
    ("runtime.session_wall_ms", "ms"),
    ("runtime.speedup_vs_batched", "ratio"),
    ("runtime.shard_skew", "ratio"),
    ("runtime.exchange_forwarded_tuples", "count"),
    ("runtime.eager_forwards", "count"),
    ("runtime.watermark_lag_p99_ms", "ms"),
    ("runtime.pool_depth_max", "count"),
    ("core.op_busy_ms.select", "ms"),
    ("core.op_busy_ms.project", "ms"),
    ("core.op_busy_ms.aggregate", "ms"),
    ("core.op_busy_ms.join", "ms"),
    ("core.columnar_share", "ratio"),
    ("core.run_batched_ms", "ms"),
    ("inference.ingest_p50_ms", "ms"),
    ("inference.ingest_p99_ms", "ms"),
    ("inference.tuples_per_scan", "count"),
    ("inference.loc_error_ft", "ft"),
    ("gen.late_p99_ms", "ms"),
    ("gen.latency_p50_ms", "ms"),
    ("gen.latency_p90_ms", "ms"),
    ("gen.latency_p99_ms", "ms"),
    ("gen.latency_samples", "count"),
    ("trace.self_ms.client", "ms"),
    ("trace.self_ms.server", "ms"),
    ("trace.self_ms.wire", "ms"),
    ("trace.self_ms.session", "ms"),
    ("trace.self_ms.runtime", "ms"),
    ("trace.self_ms.core", "ms"),
    ("trace.self_ms.inference", "ms"),
    ("trace.self_ms.gen", "ms"),
    ("trace.self_ms.bench", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

const OPS: [&str; 4] = ["select", "project", "aggregate", "join"];

/// Per-operator busy time and the columnar share, from a `StatsV2`
/// snapshot (`engine_op_*` families, labelled by operator name).
pub fn op_counters_from_stats(stats: &[MetricSnapshot], rep: &mut Report) {
    let label = |m: &MetricSnapshot| {
        m.labels
            .iter()
            .find(|(k, _)| k == "op")
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    let sum = |family: &str, op: Option<&str>| -> u64 {
        stats
            .iter()
            .filter(|m| m.family == family && op.is_none_or(|o| label(m) == o))
            .map(|m| match m.value {
                MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    };
    for op in OPS {
        rep.set(
            &format!("core.op_busy_ms.{op}"),
            sum("engine_op_busy_ns_total", Some(op)) as f64 / 1e6,
        );
    }
    let col = sum("engine_op_columnar_batches_total", None) as f64;
    let row = sum("engine_op_row_batches_total", None) as f64;
    rep.set("core.columnar_share", col / (col + row).max(1.0));
}

/// Per-operator busy time, columnar share, and the runtime's routing,
/// exchange, lag, and pool readings from a session's telemetry.
pub fn from_telemetry(t: &SessionTelemetry, pool_depth_max: f64, rep: &mut Report) {
    for op in OPS {
        let ns: u64 = t
            .op_entries()
            .iter()
            .filter(|e| e.op == op)
            .map(|e| e.telem.busy_ns.get())
            .sum();
        rep.set(&format!("core.op_busy_ms.{op}"), ns as f64 / 1e6);
    }
    let (col, row) = t.op_entries().iter().fold((0u64, 0u64), |(c, r), e| {
        (
            c + e.telem.columnar_batches.get(),
            r + e.telem.row_batches.get(),
        )
    });
    rep.set(
        "core.columnar_share",
        col as f64 / (col + row).max(1) as f64,
    );

    let mut skew: f64 = 1.0;
    let (mut forwarded, mut eager) = (0, 0);
    let mut lag = QuantileSketch::new();
    for stage in 0..t.num_stages() {
        let routed: Vec<u64> = (0..t.num_shards())
            .map(|s| t.routed(stage, s).get())
            .collect();
        let (lo, hi) = (
            *routed.iter().min().unwrap_or(&0),
            *routed.iter().max().unwrap_or(&0),
        );
        if hi > 0 {
            skew = skew.max(hi as f64 / lo.max(1) as f64);
        }
        if stage > 0 {
            forwarded += t.exchange_forwarded(stage).get();
            eager += t.eager_forwards(stage).get();
        }
        lag = QuantileSketch::merged(&lag, t.watermark_lag(stage));
    }
    rep.set("runtime.shard_skew", skew);
    rep.set("runtime.exchange_forwarded_tuples", forwarded as f64);
    rep.set("runtime.eager_forwards", eager as f64);
    rep.set(
        "runtime.watermark_lag_p99_ms",
        lag.quantile(0.99).unwrap_or(0.0),
    );
    rep.set("runtime.pool_depth_max", pool_depth_max);
}

/// The deepest exchange pool across stages right now.
pub fn pool_depth(t: &SessionTelemetry) -> f64 {
    (0..t.num_stages())
        .map(|s| t.pool_depth(s).get() as f64)
        .fold(0.0, f64::max)
}
