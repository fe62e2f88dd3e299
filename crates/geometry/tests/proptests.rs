//! Property-based tests for the geometry substrate.

use sth_platform::check::prelude::*;
use sth_geometry::{best_shrink, Rect};

/// Strategy producing a valid rectangle in `dim` dimensions with coordinates
/// in `[-100, 100]`.
fn rect_strategy(dim: usize) -> impl Strategy<Value = Rect> {
    collection::vec((-100.0f64..100.0, 0.0f64..50.0), dim).prop_map(|bounds| {
        let lo: Vec<f64> = bounds.iter().map(|(l, _)| *l).collect();
        let hi: Vec<f64> = bounds.iter().map(|(l, e)| l + e).collect();
        Rect::from_bounds(&lo, &hi)
    })
}

check! {
    fn intersection_is_commutative(a in rect_strategy(3), b in rect_strategy(3)) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        prop_assert!((a.overlap_volume(&b) - b.overlap_volume(&a)).abs() < 1e-9);
    }

    fn intersection_contained_in_both(a in rect_strategy(3), b in rect_strategy(3)) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert!(i.volume() <= a.volume() + 1e-9);
            prop_assert!(i.volume() <= b.volume() + 1e-9);
        }
    }

    fn overlap_volume_matches_intersection(a in rect_strategy(2), b in rect_strategy(2)) {
        let via_rect = a.intersection(&b).map_or(0.0, |i| i.volume());
        prop_assert!((via_rect - a.overlap_volume(&b)).abs() < 1e-6);
    }

    fn hull_contains_both(a in rect_strategy(4), b in rect_strategy(4)) {
        let h = a.hull(&b);
        prop_assert!(h.contains_rect(&a));
        prop_assert!(h.contains_rect(&b));
        prop_assert!(h.volume() + 1e-9 >= a.volume().max(b.volume()));
    }

    fn volume_is_nonnegative(a in rect_strategy(5)) {
        prop_assert!(a.volume() >= 0.0);
    }

    fn point_in_intersection_is_in_both(
        a in rect_strategy(3),
        b in rect_strategy(3),
        t in collection::vec(0.0f64..1.0, 3),
    ) {
        if let Some(i) = a.intersection(&b) {
            // Interpolate a point strictly inside the intersection.
            let p: Vec<f64> = (0..3)
                .map(|d| i.lo()[d] + t[d] * 0.999 * (i.hi()[d] - i.lo()[d]))
                .collect();
            if i.contains_point(&p) {
                prop_assert!(a.contains_point(&p));
                prop_assert!(b.contains_point(&p));
            }
        }
    }

    fn shrink_removes_overlap_and_shrinks_volume(
        c in rect_strategy(3),
        o in rect_strategy(3),
    ) {
        if let Some(s) = best_shrink(&c, &o) {
            let mut shrunk = c.clone();
            s.apply(&mut shrunk);
            prop_assert!(!shrunk.intersects(&o));
            prop_assert!(c.contains_rect(&shrunk));
            prop_assert!(shrunk.volume() <= c.volume() + 1e-9);
            prop_assert!((shrunk.volume() - s.remaining_volume).abs() < 1e-6);
        }
    }

    fn shrink_is_maximal_among_single_dim_cuts(
        c in rect_strategy(2),
        o in rect_strategy(2),
    ) {
        // Exhaustively enumerate all single-dimension cuts and verify none
        // beats the one chosen by best_shrink.
        if let Some(s) = best_shrink(&c, &o) {
            for d in 0..2 {
                for keep_low in [true, false] {
                    let (lo, hi) = if keep_low {
                        (c.lo()[d], o.lo()[d])
                    } else {
                        (o.hi()[d], c.hi()[d])
                    };
                    if lo >= hi || lo < c.lo()[d] || hi > c.hi()[d] {
                        continue;
                    }
                    let alt = c.with_dim(d, lo, hi);
                    if !alt.intersects(&o) {
                        prop_assert!(alt.volume() <= s.remaining_volume + 1e-6);
                    }
                }
            }
        }
    }
}
