//! Oracle property tests for the incremental merge accelerator: the
//! heap-backed [`StHoles::best_merge`] must always agree with the
//! brute-force [`StHoles::best_merge_exhaustive`] rescan, no matter how
//! drills and merges interleave.

use sth_platform::check::prelude::*;
use sth_platform::rng::Rng;
use sth_data::Dataset;
use sth_geometry::Rect;
use sth_histogram::StHoles;
use sth_index::ScanCounter;
use sth_query::SelfTuning;

fn dataset(points: &[(f64, f64)]) -> Dataset {
    let xs = points.iter().map(|p| p.0).collect();
    let ys = points.iter().map(|p| p.1).collect();
    Dataset::from_columns("oracle", Rect::cube(2, 0.0, 100.0), vec![xs, ys])
}

fn point_strategy() -> impl Strategy<Value = (f64, f64)> {
    (0.0f64..100.0, 0.0f64..100.0)
}

fn query_strategy() -> impl Strategy<Value = Rect> {
    (0.0f64..90.0, 0.0f64..90.0, 1.0f64..60.0, 1.0f64..60.0).prop_map(|(x, y, w, h)| {
        Rect::from_bounds(&[x, y], &[(x + w).min(100.0), (y + h).min(100.0)])
    })
}

/// The accelerated search and the oracle must agree exactly: the cached
/// penalties are computed by the same arithmetic as the rescan, so even
/// the floats are bit-identical, and the heap reproduces the rescan's
/// tie-breaking order.
fn assert_agrees(h: &mut StHoles) -> Result<(), TestCaseError> {
    let oracle = h.best_merge_exhaustive();
    let fast = h.best_merge();
    prop_assert_eq!(&fast, &oracle, "\n{}", h.dump());
    Ok(())
}

check! {
    cases = 48;

    fn best_merge_agrees_with_oracle_under_random_workloads(
        points in collection::vec(point_strategy(), 20..200),
        queries in collection::vec(query_strategy(), 1..30),
        budget in 2usize..16,
    ) {
        // `refine` interleaves drilling (which dirties touched parents)
        // with compaction merges (which recycle slots and dirty the
        // survivors) — exactly the traffic the lazy heap must survive.
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), budget, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
            assert_agrees(&mut h)?;
        }
    }

    fn best_merge_agrees_after_decay_and_clone(
        points in collection::vec(point_strategy(), 20..120),
        queries in collection::vec(query_strategy(), 1..15),
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 10, ds.len() as f64);
        for (i, q) in queries.iter().enumerate() {
            h.refine(q, &counter);
            // Decay rescales every frequency, invalidating all cached
            // penalties at once.
            if i % 3 == 2 {
                h.decay(0.9);
                assert_agrees(&mut h)?;
            }
        }
        // A clone starts with cold acceleration state but must find the
        // same winner as the warm original.
        let mut cold = h.clone();
        prop_assert_eq!(cold.best_merge(), h.best_merge());
    }

    fn best_merge_agrees_after_persist_roundtrip(
        points in collection::vec(point_strategy(), 20..120),
        queries in collection::vec(query_strategy(), 1..15),
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 8, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
        }
        // The accelerator is not serialized; a decoded histogram rebuilds
        // it from scratch and must agree with its own oracle. (Bucket ids
        // are renumbered by the roundtrip, so only the winning *penalty*
        // is comparable against the warm original, not the ops' ids.)
        let mut back = StHoles::from_bytes(&h.to_bytes()).expect("roundtrip");
        assert_agrees(&mut back)?;
        let warm = h.best_merge().map(|m| m.penalty);
        let cold = back.best_merge().map(|m| m.penalty);
        prop_assert_eq!(cold, warm);
    }
}

check! {
    cases = 4;

    fn best_merge_agrees_with_oracle_at_high_fanout(
        ndim in 3usize..7,
        budget in 40usize..121,
        seed in 0u64..u64::MAX,
    ) {
        // Small queries in 3–6 d leave most holes directly under the root,
        // so its fanout climbs far past the 12 children where pruned
        // sibling-pair selection starts: the regime in which memoized
        // sibling fixpoints are reused and invalidated. Twice the budget in
        // queries keeps compaction recycling slots; periodic decay
        // rescales every frequency and drops all cached state.
        let mut rng = Rng::seed_from_u64(seed);
        let domain = Rect::cube(ndim, 0.0, 100.0);
        let columns = (0..ndim)
            .map(|_| (0..400).map(|_| rng.gen_range(0.0..100.0)).collect())
            .collect();
        let ds = Dataset::from_columns("oracle_nd", domain.clone(), columns);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(domain, budget, ds.len() as f64);
        // Refined in lockstep but never asked for a merge between refines,
        // so its memos carry over whole refines (a compaction's last merge
        // can free a child's slot that the next drill reuses at the same
        // position). Memos never influence results: it must stay
        // byte-identical to `h`.
        let mut shadow = h.clone();
        let mut max_fanout = 0;
        for i in 0..2 * budget + 40 {
            let lo: Vec<f64> = (0..ndim).map(|_| rng.gen_range(0.0..75.0)).collect();
            let hi: Vec<f64> = lo.iter().map(|&l| l + rng.gen_range(10.0..25.0)).collect();
            let q = Rect::from_bounds(&lo, &hi);
            h.refine(&q, &counter);
            shadow.refine(&q, &counter);
            assert_agrees(&mut h)?;
            max_fanout = max_fanout.max(h.arena().get(h.root()).children.len());
            if i % 40 == 39 {
                h.decay(0.9);
                shadow.decay(0.9);
                assert_agrees(&mut h)?;
            }
        }
        prop_assert!(max_fanout > 12, "root fanout peaked at {max_fanout}");
        prop_assert!(shadow.to_bytes() == h.to_bytes(), "the shadow histogram diverged");
        let mut cold = h.clone();
        prop_assert_eq!(cold.best_merge(), h.best_merge());
    }
}
