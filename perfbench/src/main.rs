//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <served_q1|session_staged|rfid_q1|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates seeded inputs, runs the workload against the engine's public
//! API, checks every result against `QueryGraph::run_batched` over the
//! identical input, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off. With `--trace 1` the run is made twice on the same seed,
//! untraced and traced (half the seconds each); the metrics are the
//! per-layer ones, from the traced run's spans and the program's own
//! counters, plus the tracing overhead. Spans are written to
//! `.perfbench_out/` at exit. A failed check prints the result with
//! `"correct": false` and exits 1.

mod common;
mod inproc;
mod layers;
mod query;
mod rfid;
mod served;
mod staged;
mod trace;

use common::Report;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["served_q1", "session_staged", "rfid_q1"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an integer".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace").as_deref() {
        Ok("0") | Err(_) => false,
        Ok("1") => true,
        Ok(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(workload: &str, seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    let mut rep = Report::new();
    match workload {
        "served_q1" => served::run(seed, seconds, tracer, &mut rep),
        "session_staged" => {
            staged::run(seed, seconds, tracer, &mut rep);
        }
        "rfid_q1" => {
            rfid::run(seed, seconds, tracer, &mut rep);
        }
        _ => unreachable!("validated in parse"),
    }
    rep
}

/// Untraced and traced runs on the same seed; the per-layer report.
fn run_traced(workload: &str, seed: u64, seconds: f64) -> Report {
    let plain = run(
        workload,
        seed,
        seconds / 2.0,
        &Tracer::new(false, String::new()),
    );
    let run_id = format!("{workload}-{seed}-{}", std::process::id());
    let tracer = Tracer::new(true, run_id);
    let mut rep = run(workload, seed, seconds / 2.0, &tracer);
    rep.correct &= plain.correct;
    rep.attempted += plain.attempted;
    rep.failed += plain.failed;
    rep.problems.extend(plain.problems);

    let by_layer = tracer.self_ms_by_layer();
    for (name, _) in layers::PER_LAYER {
        if let Some(layer) = name.strip_prefix("trace.self_ms.") {
            rep.set(name, by_layer.get(layer).copied().unwrap_or(0.0));
        }
    }
    // Time inside the session's public calls, summed over the traced run.
    for call in ["push", "advance", "drain", "finish"] {
        let total: f64 = tracer.durations_ms(&format!("session.{call}")).iter().sum();
        rep.set(&format!("session.{call}_ms"), total);
    }
    if !rep.metrics.contains_key("core.run_batched_ms") {
        let batched = common::median(&tracer.durations_ms("core.run_batched"));
        rep.set("core.run_batched_ms", batched);
    }
    // The driving thread's `run` span minus what its layer spans cover.
    rep.set(
        "trace.unattributed_ms",
        by_layer.get("run").copied().unwrap_or(0.0),
    );
    let traced = rep.metrics.get("throughput_rps").copied().unwrap_or(0.0);
    let untraced = plain.metrics.get("throughput_rps").copied().unwrap_or(0.0);
    rep.set("trace.overhead_ratio", untraced / traced.max(1e-9));
    let path =
        std::path::Path::new(".perfbench_out").join(format!("trace-{}.jsonl", tracer.run_id));
    if let Err(e) = tracer.write(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    rep
}

/// The result line: the end-to-end or the per-layer metrics, each with
/// its unit. A metric the run did not produce reads 0.
fn result_json(rep: &Report, trace: bool) -> String {
    let names = if trace {
        layers::PER_LAYER
    } else {
        layers::END_TO_END
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = rep.metrics.get(*name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.correct,
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    )
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("__serve") {
        served::serve_child();
        return;
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for w in workloads {
        let rep = if args.trace {
            run_traced(w, args.seed, args.seconds)
        } else {
            run(
                w,
                args.seed,
                args.seconds,
                &Tracer::new(false, String::new()),
            )
        };
        for p in &rep.problems {
            println!("{w}: FAILED CHECK: {p}");
        }
        let mut line = result_json(&rep, args.trace);
        if args.workload == "all" {
            println!("{w}: {}", human(&rep, args.trace));
            line = format!("{{\"workload\": \"{w}\", {}", &line[1..]);
        }
        all_correct &= rep.correct;
        println!("{line}");
    }
    if !all_correct {
        std::process::exit(1);
    }
}

/// One readable line per metric (for `--workload all`).
fn human(rep: &Report, trace: bool) -> String {
    let names = if trace {
        layers::PER_LAYER
    } else {
        layers::END_TO_END
    };
    names
        .iter()
        .map(|(n, u)| format!("{n}={:.4} {u}", rep.metrics.get(*n).copied().unwrap_or(0.0)))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in layers::END_TO_END.iter().chain(layers::PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn workload_record_matches_the_ladders_and_limits() {
        let record = include_str!("../workloads.json");
        let ladder = |l: &[f64]| {
            let rungs: Vec<String> = l.iter().map(|r| format!("{}", *r as u64)).collect();
            format!("\"ladder_per_s\": [{}]", rungs.join(", "))
        };
        for (ladder, limit) in [
            (ladder(&served::LADDER), served::LIMIT_MS),
            (ladder(&staged::LADDER), staged::LIMIT_MS),
            (ladder(&rfid::LADDER), rfid::LIMIT_MS),
        ] {
            assert!(record.contains(&ladder), "workloads.json lacks {ladder}");
            let limit = format!("\"latency_limit_ms\": {limit}");
            assert!(record.contains(&limit), "workloads.json lacks {limit}");
        }
    }

    #[test]
    fn result_line_carries_every_metric() {
        let mut rep = Report::new();
        rep.set("throughput_rps", 12.5);
        let line = result_json(&rep, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, _) in layers::END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        assert!(line.contains("{\"value\": 12.5, \"unit\": \"1/s\"}"));
    }
}
