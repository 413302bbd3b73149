//! The benchmark's queries and their seeded inputs, built only from the
//! engine's public operator constructors.
//!
//! Q1 (§2 of the paper): probabilistic selection → projection → keyed
//! tumbling SUM. The staged variant feeds Q1's windowed aggregate into a
//! keyed equi-join against a reference stream, which the shard planner
//! cuts into two exchange-connected stages.

use crate::common::{Rng, Zipf};
use std::sync::Arc;
use ustream_core::lineage::Lineage;
use ustream_core::ops::aggregate::{AggFunc, AggSpec, Strategy, WindowKind, WindowedAggregate};
use ustream_core::ops::join::WindowJoin;
use ustream_core::ops::project::{Derivation, Project};
use ustream_core::ops::select::{Predicate, Select};
use ustream_core::ops::Passthrough;
use ustream_core::query::{NodeId, QueryGraph};
use ustream_core::schema::{DataType, Schema};
use ustream_core::{Tuple, Updf, Value};
use ustream_prob::dist::Dist;

/// Lineage ids of generated readings start here, far above the ids the
/// engine hands out itself, so the two ranges never meet.
pub const READING_LINEAGE: u64 = 1 << 40;
/// Lineage ids of generated reference tuples.
pub const REF_LINEAGE: u64 = 1 << 41;

pub fn reading_schema() -> Arc<Schema> {
    Schema::builder()
        .field("g", DataType::Int)
        .field("tag", DataType::Int)
        .field("x", DataType::Uncertain)
        .build()
}

/// How a reading's group key is drawn.
pub enum Keys<'a> {
    Uniform(u64),
    Skewed(&'a Zipf),
}

/// Readings `first..first + n`: reading `i` has ts `i` (one per ms of
/// event time), a group key, a tag, and a Gaussian payload. Each
/// reading's values depend only on `(seed, salt, i)`, so a run can
/// generate its stream in segments and still get the same stream.
pub fn readings(seed: u64, salt: u64, first: u64, n: usize, keys: &Keys) -> Vec<Tuple> {
    let schema = reading_schema();
    (first..first + n as u64)
        .map(|i| {
            let mut rng = Rng::new(seed, salt ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93));
            let g = match keys {
                Keys::Uniform(k) => rng.below(*k) as usize,
                Keys::Skewed(z) => z.sample(&mut rng),
            };
            let mean = rng.range(-2.0, 6.0);
            let sd = rng.range(0.5, 1.5);
            Tuple::derived(
                schema.clone(),
                vec![
                    Value::Int(g as i64),
                    Value::Int(rng.below(17) as i64),
                    Value::from(Updf::Parametric(Dist::gaussian(mean, sd))),
                ],
                i,
                1.0,
                Lineage::base(READING_LINEAGE + i),
            )
        })
        .collect()
}

/// The Q1 operators: P(x > 2) selection, a projection deriving a
/// certain and an uncertain attribute, and a tumbling group-by SUM under
/// the CLT strategy. Declarative forms throughout, so the columnar
/// kernels and key-column routing engage.
fn q1_ops(window_ms: u64) -> (Select, Project, WindowedAggregate) {
    let select = Select::new(Predicate::UncertainAbove("x".into(), 2.0), 0.05)
        .without_conditioning()
        .named("select");
    let project = Project::new(vec![
        Derivation::CertainLinear {
            input: "tag".into(),
            a: 2.5,
            b: 0.0,
            out: "weight".into(),
        },
        Derivation::Linear {
            input: "x".into(),
            a: 0.5,
            b: 1.0,
            out: "y".into(),
        },
    ])
    .named("project");
    let agg = WindowedAggregate::keyed_by_field(
        WindowKind::Tumbling(window_ms),
        "g",
        vec![AggSpec {
            field: "y".into(),
            func: AggFunc::Sum,
            out: "total".into(),
            strategy: Strategy::Clt,
        }],
    )
    .named("aggregate");
    (select, project, agg)
}

/// Q1 with source `in` and one sink.
pub fn q1_graph(window_ms: u64) -> (QueryGraph, NodeId) {
    let (select, project, agg) = q1_ops(window_ms);
    let mut g = QueryGraph::new();
    let select = g.add(Box::new(select));
    let project = g.add(Box::new(project));
    let agg = g.add(Box::new(agg));
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.connect(select, project, 0).expect("edge");
    g.connect(project, agg, 0).expect("edge");
    g.connect(agg, sink, 0).expect("edge");
    g.source("in", select);
    g.sink(sink);
    (g, sink)
}

/// Q1's aggregate feeding a keyed join on the group name against the
/// `refs` stream (port 1). Two keyed anchors: two plan stages.
pub fn staged_graph(window_ms: u64, join_range_ms: u64) -> (QueryGraph, NodeId) {
    let (select, project, agg) = q1_ops(window_ms);
    let join = WindowJoin::keyed_by_fields(join_range_ms, "group", "gname", 0.0).named("join");
    let mut g = QueryGraph::new();
    let select = g.add(Box::new(select));
    let project = g.add(Box::new(project));
    let agg = g.add(Box::new(agg));
    let join = g.add(Box::new(join));
    let sink = g.add(Box::new(Passthrough::new("sink")));
    g.connect(select, project, 0).expect("edge");
    g.connect(project, agg, 0).expect("edge");
    g.connect(agg, join, 0).expect("edge");
    g.connect(join, sink, 0).expect("edge");
    g.source("in", select);
    g.source("refs", join);
    g.sink(sink);
    (g, sink)
}

/// One reference tuple per group at ts 0, named the way the aggregate
/// renders its group key.
pub fn refs(groups: usize) -> Vec<Tuple> {
    let schema = Schema::builder()
        .field("rid", DataType::Int)
        .field("gname", DataType::Str)
        .build();
    (0..groups as u64)
        .map(|k| {
            Tuple::derived(
                schema.clone(),
                vec![Value::Int(k as i64), Value::from(format!("Int({k})"))],
                0,
                1.0,
                Lineage::base(REF_LINEAGE + k),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wire bytes of each tuple: values, ts, existence, lineage.
    fn input_bytes(tuples: &[Tuple]) -> Vec<Vec<u8>> {
        tuples.iter().map(crate::common::tuple_bytes).collect()
    }

    #[test]
    fn one_seed_regenerates_identical_readings_and_two_seeds_differ() {
        let z = Zipf::new(256, 1.1);
        for keys in [Keys::Uniform(4), Keys::Skewed(&z)] {
            let a = input_bytes(&readings(7, 1, 0, 2048, &keys));
            let b = input_bytes(&readings(7, 1, 0, 2048, &keys));
            let c = input_bytes(&readings(8, 1, 0, 2048, &keys));
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn segments_concatenate_to_the_whole_stream() {
        let keys = Keys::Uniform(4);
        let whole = input_bytes(&readings(3, 1, 0, 1000, &keys));
        let mut parts = readings(3, 1, 0, 400, &keys);
        parts.extend(readings(3, 1, 400, 600, &keys));
        assert_eq!(whole, input_bytes(&parts));
    }

    #[test]
    fn refs_match_the_aggregate_group_names() {
        let (mut g, sink) = staged_graph(100, 1_000_000);
        let out = g
            .run_batched(
                vec![
                    ("in".into(), 0, readings(1, 1, 0, 2000, &Keys::Uniform(8))),
                    ("refs".into(), 1, refs(8)),
                ],
                512,
            )
            .expect("run");
        assert!(!out[&sink].is_empty(), "the join must match aggregate rows");
    }
}
