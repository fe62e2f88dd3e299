//! The feedback contract: refining from a query's *result stream* must be
//! indistinguishable from refining with full data access. This is what
//! makes the simulation faithful — a deployed system only ever sees result
//! streams.

use sth::data::gauss::GaussSpec;
use sth::prelude::*;

#[test]
fn result_stream_feedback_equals_index_feedback() {
    let data = GaussSpec::paper().scaled(0.02).generate();
    let engine = KdCountTree::build(&data);

    let mut via_index = build_uninitialized(&data, 40);
    let mut via_results = build_uninitialized(&data, 40);

    let wl = WorkloadSpec { count: 120, ..WorkloadSpec::paper(0.015, 23) }
        .generate(data.domain(), None);
    for q in wl.queries() {
        // The deployed path: execute the query, wrap its result rows.
        let feedback = ResultSetCounter::from_counter(&engine, q.rect()).unwrap();
        via_results.refine(q.rect(), &feedback);
        // The simulation path: give the histogram the dataset-wide index.
        via_index.refine(q.rect(), &engine);
    }

    via_index.check_invariants().unwrap();
    via_results.check_invariants().unwrap();
    assert_eq!(via_index.bucket_count(), via_results.bucket_count());
    // Estimates agree on arbitrary probes, not just the training queries.
    let probes = WorkloadSpec { count: 60, ..WorkloadSpec::paper(0.02, 77) }
        .generate(data.domain(), None);
    for p in probes.queries() {
        let a = via_index.estimate(p.rect());
        let b = via_results.estimate(p.rect());
        assert!(
            (a - b).abs() < 1e-6 * (1.0 + a.abs()),
            "estimates diverge on {}: {a} vs {b}",
            p.rect()
        );
    }
}

#[test]
fn result_counter_only_sees_its_own_query() {
    // Counting a rectangle outside the executed query returns 0 through the
    // result counter — the histogram never asks for such rectangles, but
    // the counter's contract should be explicit.
    let data = GaussSpec::paper().scaled(0.01).generate();
    let q = Rect::from_bounds(
        &[100.0, 100.0, 0.0, 0.0, 0.0, 0.0],
        &[300.0, 300.0, 1000.0, 1000.0, 1000.0, 1000.0],
    );
    let engine = KdCountTree::build(&data);
    let feedback = ResultSetCounter::from_counter(&engine, &q).unwrap();
    let elsewhere = Rect::from_bounds(
        &[700.0, 700.0, 0.0, 0.0, 0.0, 0.0],
        &[900.0, 900.0, 1000.0, 1000.0, 1000.0, 1000.0],
    );
    assert_eq!(feedback.count(&elsewhere), 0);
    assert_eq!(feedback.count(&q), engine.count(&q));
}
