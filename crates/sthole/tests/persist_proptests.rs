//! Property tests for binary persistence: any trained histogram survives a
//! roundtrip with identical estimates, and continues to learn afterwards.

use sth_platform::check::prelude::*;
use sth_data::Dataset;
use sth_geometry::Rect;
use sth_histogram::StHoles;
use sth_index::ScanCounter;
use sth_query::{CardinalityEstimator, SelfTuning};

fn dataset(points: &[(f64, f64)]) -> Dataset {
    let xs = points.iter().map(|p| p.0).collect();
    let ys = points.iter().map(|p| p.1).collect();
    Dataset::from_columns("prop", Rect::cube(2, 0.0, 100.0), vec![xs, ys])
}

fn query_strategy() -> impl Strategy<Value = Rect> {
    (0.0f64..90.0, 0.0f64..90.0, 1.0f64..50.0, 1.0f64..50.0).prop_map(|(x, y, w, h)| {
        Rect::from_bounds(&[x, y], &[(x + w).min(100.0), (y + h).min(100.0)])
    })
}

check! {
    cases = 48;

    fn roundtrip_is_estimate_identical(
        points in collection::vec((0.0f64..100.0, 0.0f64..100.0), 10..120),
        queries in collection::vec(query_strategy(), 0..25),
        probes in collection::vec(query_strategy(), 1..10),
        budget in 1usize..15,
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), budget, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
        }
        let bytes = h.to_bytes();
        let back = StHoles::from_bytes(&bytes).expect("decode");
        prop_assert!(back.check_invariants().is_ok());
        prop_assert_eq!(back.bucket_count(), h.bucket_count());
        for p in &probes {
            prop_assert!((h.estimate(p) - back.estimate(p)).abs() < 1e-9);
        }
        // Encoding is deterministic (logical state → identical bytes).
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    fn decoded_histogram_keeps_learning_soundly(
        points in collection::vec((0.0f64..100.0, 0.0f64..100.0), 10..80),
        pre in collection::vec(query_strategy(), 0..10),
        post in collection::vec(query_strategy(), 1..10),
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 8, ds.len() as f64);
        for q in &pre {
            h.refine(q, &counter);
        }
        let mut back = StHoles::from_bytes(&h.to_bytes()).expect("decode");
        for q in &post {
            back.refine(q, &counter);
            prop_assert!(back.check_invariants().is_ok());
        }
    }
}
