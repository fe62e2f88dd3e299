//! Property-based tests: the bucket tree stays structurally sound under
//! arbitrary query workloads, and estimation behaves like a measure.

use sth_platform::check::prelude::*;
use sth_data::Dataset;
use sth_geometry::Rect;
use sth_histogram::StHoles;
use sth_index::ScanCounter;
use sth_query::{CardinalityEstimator, Estimator, SelfTuning};

/// Builds a small 2-d dataset from a point list within [0, 100)².
fn dataset(points: &[(f64, f64)]) -> Dataset {
    let xs = points.iter().map(|p| p.0).collect();
    let ys = points.iter().map(|p| p.1).collect();
    Dataset::from_columns("prop", Rect::cube(2, 0.0, 100.0), vec![xs, ys])
}

fn point_strategy() -> impl Strategy<Value = (f64, f64)> {
    (0.0f64..100.0, 0.0f64..100.0)
}

fn query_strategy() -> impl Strategy<Value = Rect> {
    (0.0f64..90.0, 0.0f64..90.0, 1.0f64..60.0, 1.0f64..60.0).prop_map(|(x, y, w, h)| {
        Rect::from_bounds(&[x, y], &[(x + w).min(100.0), (y + h).min(100.0)])
    })
}

check! {
    cases = 64;

    fn invariants_hold_under_random_workloads(
        points in collection::vec(point_strategy(), 20..200),
        queries in collection::vec(query_strategy(), 1..40),
        budget in 1usize..12,
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), budget, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
            prop_assert!(h.check_invariants().is_ok(), "{}", h.check_invariants().unwrap_err());
            prop_assert!(h.bucket_count() <= budget);
        }
    }

    fn estimates_are_finite_and_nonnegative(
        points in collection::vec(point_strategy(), 20..100),
        queries in collection::vec(query_strategy(), 1..20),
        probes in collection::vec(query_strategy(), 1..20),
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 8, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
        }
        for p in &probes {
            let e = h.estimate(p);
            prop_assert!(e.is_finite());
            prop_assert!(e >= -1e-9, "negative estimate {e}");
            // Frequencies are clamped approximations, so an estimate can
            // exceed the true total a little, but never run away.
            prop_assert!(e <= 2.0 * ds.len() as f64 + 10.0, "estimate {e} vs total {}", ds.len());
        }
    }

    fn total_mass_is_preserved(
        points in collection::vec(point_strategy(), 20..100),
        queries in collection::vec(query_strategy(), 1..30),
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let domain = Rect::cube(2, 0.0, 100.0);
        let mut h = StHoles::with_total(domain.clone(), 6, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
            // Drilling replaces estimated mass with exact observed mass and
            // clamps parent frequencies at zero, so the whole-domain mass can
            // drift from the starting total — but it must stay bounded (no
            // runaway double counting) and non-negative.
            let whole = h.estimate(&domain);
            prop_assert!(whole.is_finite());
            prop_assert!(whole >= -1e-9);
            prop_assert!(whole <= 2.0 * ds.len() as f64 + 10.0, "mass blew up: {whole}");
        }
    }

    fn last_query_is_answered_exactly_when_budget_allows(
        points in collection::vec(point_strategy(), 20..150),
        queries in collection::vec(query_strategy(), 1..10),
    ) {
        // With a generous budget, the bucket drilled for the most recent
        // query must answer that query exactly (its holes partition q).
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 64, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
        }
        let last = queries.last().unwrap();
        let truth = ds.count_in_scan(last) as f64;
        let est = h.estimate(last);
        prop_assert!(
            (est - truth).abs() <= truth.max(1.0) * 0.35 + 2.0,
            "estimate {est} too far from truth {truth}\n{}",
            h.dump()
        );
    }

    fn frozen_estimate_is_bit_identical_to_live(
        points in collection::vec(point_strategy(), 20..150),
        queries in collection::vec(query_strategy(), 1..30),
        probes in collection::vec(query_strategy(), 1..25),
        budget in 2usize..24,
    ) {
        // The read-path contract: freezing is a pure representation change.
        // Every probe — including ones partially or fully outside drilled
        // regions — must produce the exact same f64, bit for bit.
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let domain = Rect::cube(2, 0.0, 100.0);
        let mut h = StHoles::with_total(domain.clone(), budget, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
        }
        let frozen = h.freeze();
        prop_assert!(frozen.check_invariants().is_ok(),
            "{}", frozen.check_invariants().unwrap_err());
        for p in probes.iter().chain(std::iter::once(&domain)) {
            let live = h.estimate(p);
            let snap = frozen.estimate(p);
            prop_assert!(
                live.to_bits() == snap.to_bits(),
                "frozen {snap} != live {live} for {p}\n{}",
                h.dump()
            );
        }
    }

    fn batch_kernel_is_bit_identical_to_scalar(
        points in collection::vec(point_strategy(), 20..150),
        queries in collection::vec(query_strategy(), 1..30),
        probes in collection::vec(query_strategy(), 0..40),
        budget in 2usize..24,
    ) {
        // The batch-kernel contract: the lane-oriented level-synchronous
        // traversal produces the exact f64 of the scalar frame-stack walk
        // for every query, bit for bit — including the empty batch, a
        // batch of one, and queries entirely outside the root hull.
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let domain = Rect::cube(2, 0.0, 100.0);
        let mut h = StHoles::with_total(domain.clone(), budget, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
        }
        let frozen = h.freeze();

        // Batch mix: random probes + the domain + boxes strictly outside
        // the root hull (zero overlap: the kernel must report exactly 0.0).
        let mut batch = probes.clone();
        batch.push(domain);
        batch.push(Rect::cube(2, 150.0, 250.0));
        batch.push(Rect::from_bounds(&[-50.0, -50.0], &[-1.0, -1.0]));

        let mut kernel_out = vec![f64::NAN; 3]; // stale garbage: must clear
        frozen.estimate_batch_kernel(&batch, &mut kernel_out);
        prop_assert!(kernel_out.len() == batch.len());
        let mut dispatch_out = Vec::new();
        frozen.estimate_batch(&batch, &mut dispatch_out);
        prop_assert!(dispatch_out.len() == batch.len());
        for (i, q) in batch.iter().enumerate() {
            let scalar = frozen.estimate(q);
            prop_assert!(
                kernel_out[i].to_bits() == scalar.to_bits(),
                "kernel {} != scalar {scalar} for {q}\n{}",
                kernel_out[i],
                h.dump()
            );
            prop_assert!(dispatch_out[i].to_bits() == scalar.to_bits());
        }

        // Degenerate batch shapes through the kernel entry point itself.
        let mut tiny = Vec::new();
        frozen.estimate_batch_kernel(&[], &mut tiny);
        prop_assert!(tiny.is_empty());
        let single = [batch[0].clone()];
        frozen.estimate_batch_kernel(&single, &mut tiny);
        prop_assert!(tiny.len() == 1);
        prop_assert!(tiny[0].to_bits() == frozen.estimate(&batch[0]).to_bits());
    }

    fn frozen_snapshot_is_immutable_under_further_refinement(
        points in collection::vec(point_strategy(), 20..100),
        queries in collection::vec(query_strategy(), 2..20),
        probe in query_strategy(),
    ) {
        // A snapshot taken mid-training keeps answering from its frozen
        // state no matter what happens to the live histogram afterwards.
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 8, ds.len() as f64);
        let split = queries.len() / 2;
        for q in &queries[..split] {
            h.refine(q, &counter);
        }
        let frozen = h.freeze();
        let before = frozen.estimate(&probe);
        for q in &queries[split..] {
            h.refine(q, &counter);
        }
        prop_assert!(frozen.estimate(&probe).to_bits() == before.to_bits());
        prop_assert!(frozen.check_invariants().is_ok());
    }

    fn estimation_is_monotone_in_query_box(
        points in collection::vec(point_strategy(), 20..100),
        queries in collection::vec(query_strategy(), 1..15),
        probe in query_strategy(),
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 8, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
        }
        // A larger box never has a smaller estimate.
        let grown = Rect::from_bounds(
            &[(probe.lo()[0] - 5.0).max(0.0), (probe.lo()[1] - 5.0).max(0.0)],
            &[(probe.hi()[0] + 5.0).min(100.0), (probe.hi()[1] + 5.0).min(100.0)],
        );
        prop_assert!(h.estimate(&grown) + 1e-6 >= h.estimate(&probe));
    }
}
