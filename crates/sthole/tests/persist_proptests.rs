//! Property tests for binary persistence: any trained histogram survives a
//! roundtrip with bit-identical estimates, and keeps learning afterwards
//! exactly as the original does.

use sth_platform::check::prelude::*;
use sth_data::cross::CrossSpec;
use sth_data::Dataset;
use sth_geometry::Rect;
use sth_histogram::StHoles;
use sth_index::ScanCounter;
use sth_query::{CardinalityEstimator, SelfTuning, WorkloadSpec};

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
            prop_assert_eq!(h.estimate(p).to_bits(), back.estimate(p).to_bits());
        }
        // Decoding is exact: re-encoding gives the same bytes.
        prop_assert_eq!(back.to_bytes(), bytes);
    }
}

check! {
    cases = 24;

    fn decoded_histogram_keeps_learning_soundly(
        budget in 4usize..48,
        seed in 0u64..1000,
        warm_up in 0usize..80,
    ) {
        // Merge search breaks penalty ties by arena slot, so a decoded
        // histogram learns in lockstep with its original only if decoding
        // restores every slot.
        let ds = CrossSpec::cross2d().scaled(0.02).generate();
        let counter = ScanCounter::new(&ds);
        let wl = WorkloadSpec { count: warm_up + 60, ..WorkloadSpec::paper(0.01, seed) }
            .generate(ds.domain(), None);
        let (warm, post) = wl.queries().split_at(warm_up);
        let mut h = StHoles::with_total(ds.domain().clone(), budget, ds.len() as f64);
        for q in warm {
            h.refine(q.rect(), &counter);
        }
        let mut back = StHoles::from_bytes(&h.to_bytes()).expect("decode");
        for (i, q) in post.iter().enumerate() {
            h.refine(q.rect(), &counter);
            back.refine(q.rect(), &counter);
            prop_assert!(back.to_bytes() == h.to_bytes(), "diverged at query {i}");
        }
        prop_assert!(back.check_invariants().is_ok());
    }
}
