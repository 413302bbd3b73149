//! Batched execution (`run_batched`) must produce the same results as
//! single-threaded tuple-at-a-time push execution — the Fig. 2
//! architecture at stream speed, with identical semantics.

use uncertain_streams::core::ops::aggregate::{
    AggFunc, AggSpec, Strategy, WindowKind, WindowedAggregate,
};
use uncertain_streams::core::ops::select::{Predicate, Select};
use uncertain_streams::core::ops::Passthrough;
use uncertain_streams::core::schema::{DataType, Schema};
use uncertain_streams::core::{GroupKey, NodeId, QueryGraph, Tuple, Updf, Value};
use uncertain_streams::prob::dist::Dist;

fn build_graph() -> (QueryGraph, NodeId) {
    let mut g = QueryGraph::new();
    let select = g.add(Box::new(
        Select::new(Predicate::UncertainAbove("x".into(), 0.0), 0.1).without_conditioning(),
    ));
    let agg = g.add(Box::new(WindowedAggregate::new(
        WindowKind::Tumbling(1_000),
        |t: &Tuple| GroupKey::from_value(t.get("g").unwrap()).unwrap(),
        vec![AggSpec {
            field: "x".into(),
            func: AggFunc::Sum,
            out: "total".into(),
            strategy: Strategy::Clt,
        }],
    )));
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.connect(select, agg, 0).unwrap();
    g.connect(agg, sink, 0).unwrap();
    g.source("in", select);
    g.sink(sink);
    (g, sink)
}

fn inputs() -> Vec<Tuple> {
    let schema = Schema::builder()
        .field("g", DataType::Int)
        .field("x", DataType::Uncertain)
        .build();
    (0..500u64)
        .map(|i| {
            let mean = (i % 13) as f64 - 4.0; // some tuples mostly below 0
            Tuple::new(
                schema.clone(),
                vec![
                    Value::Int((i % 3) as i64),
                    Value::from(Updf::Parametric(Dist::gaussian(mean, 1.0))),
                ],
                i * 10,
            )
        })
        .collect()
}

/// One sink row in full canonical form: group, window start, member
/// count, scaled mean, timestamp, scaled existence, lineage ids.
type CanonicalRow = (String, u64, i64, i64, u64, i64, Vec<u64>);

/// Full canonical form including timestamps, existence probabilities, and
/// lineage ids — the strict equivalence the batched engine must uphold.
fn canonical(tuples: &[Tuple]) -> Vec<CanonicalRow> {
    let mut rows: Vec<_> = tuples
        .iter()
        .map(|t| {
            let total = t.updf("total").unwrap();
            (
                t.str("group").unwrap().to_string(),
                t.get("window_start").unwrap().as_time().unwrap(),
                t.int("n_tuples").unwrap(),
                (total.mean() * 1e6).round() as i64,
                t.ts,
                (t.existence * 1e9).round() as i64,
                t.lineage.ids().to_vec(),
            )
        })
        .collect();
    rows.sort();
    rows
}

/// Batched single-threaded execution must reproduce tuple-at-a-time
/// output *exactly*: same tuples, timestamps, existence probabilities,
/// and lineage, at every batch size. The same input tuples (cloned, so
/// lineage ids coincide) feed every run.
#[test]
fn batched_run_matches_tuple_at_a_time_exactly() {
    let shared_inputs = inputs();
    let (mut g1, sink1) = build_graph();
    let single = g1
        .run(vec![("in".into(), 0, shared_inputs.clone())])
        .unwrap();
    let reference = canonical(&single[&sink1]);
    assert!(!reference.is_empty());

    for bs in [1usize, 64, 1024] {
        let (mut g2, sink2) = build_graph();
        let batched = g2
            .run_batched(vec![("in".into(), 0, shared_inputs.clone())], bs)
            .unwrap();
        assert_eq!(
            reference,
            canonical(&batched[&sink2]),
            "batch size {bs} diverged from tuple-at-a-time"
        );
    }
}
