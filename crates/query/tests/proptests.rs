//! Property tests for workload generation.

use sth_platform::check::prelude::*;
use sth_geometry::Rect;
use sth_query::{CenterDistribution, RangeQuery, WorkloadSpec};

check! {
    cases = 64;

    /// Every generated query has exactly the requested volume fraction and
    /// fits inside the domain, for arbitrary domains and fractions.
    fn queries_have_exact_volume_and_fit(
        dim in 1usize..6,
        lo in -50.0f64..50.0,
        extent in 1.0f64..2000.0,
        frac in 0.001f64..0.5,
        seed in 0u64..1000,
    ) {
        let domain = Rect::cube(dim, lo, lo + extent);
        let spec = WorkloadSpec {
            count: 20,
            volume_fraction: frac,
            centers: CenterDistribution::Uniform,
            seed,
        };
        let wl = spec.generate(&domain, None);
        prop_assert_eq!(wl.len(), 20);
        for q in wl.queries() {
            prop_assert!(domain.contains_rect(q.rect()), "{} escapes {domain}", q.rect());
            let got = q.volume_fraction(&domain);
            prop_assert!((got - frac).abs() < 1e-9, "volume {got} != {frac}");
        }
    }

    /// Centered queries fit the domain even when the center is outside it.
    fn centered_always_fits(
        cx in -200.0f64..1200.0,
        cy in -200.0f64..1200.0,
        w in 1.0f64..500.0,
        h in 1.0f64..500.0,
    ) {
        let domain = Rect::cube(2, 0.0, 1000.0);
        let q = RangeQuery::centered(&[cx, cy], &[w, h], &domain);
        prop_assert!(domain.contains_rect(q.rect()));
        prop_assert!((q.rect().volume() - w * h).abs() < 1e-6);
    }

    /// Permutations preserve the query multiset and are deterministic.
    fn permutation_roundtrip(seed in 0u64..500, perm_seed in 0u64..500) {
        let domain = Rect::cube(3, 0.0, 100.0);
        let wl = WorkloadSpec {
            count: 50,
            volume_fraction: 0.05,
            centers: CenterDistribution::Uniform,
            seed,
        }
        .generate(&domain, None);
        let p1 = wl.permuted(perm_seed);
        let p2 = wl.permuted(perm_seed);
        prop_assert_eq!(p1.queries(), p2.queries());
        let mut a: Vec<String> = wl.queries().iter().map(|q| format!("{}", q.rect())).collect();
        let mut b: Vec<String> = p1.queries().iter().map(|q| format!("{}", q.rect())).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        // Double reversal is identity.
        let double = wl.reversed().reversed();
        prop_assert_eq!(double.queries(), wl.queries());
    }

    /// Splitting then concatenating is the identity.
    fn split_concat_identity(split in 0usize..=60) {
        let domain = Rect::cube(2, 0.0, 10.0);
        let wl = WorkloadSpec {
            count: 60,
            volume_fraction: 0.1,
            centers: CenterDistribution::Uniform,
            seed: 5,
        }
        .generate(&domain, None);
        let (a, b) = wl.split_train(split);
        prop_assert_eq!(a.len(), split);
        let joined = a.concat(&b);
        prop_assert_eq!(joined.queries(), wl.queries());
    }
}
