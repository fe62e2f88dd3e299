//! Frequent-dimension-set mining with branch-and-bound on µ.
//!
//! Given one itemset per point — the set of dimensions in which the point is
//! within width `w` of the medoid — MineClus looks for the dimension set `D`
//! with support ≥ `min_support` maximizing `µ(support(D), |D|)`. Because µ
//! grows monotonically in both arguments and support is anti-monotone in
//! `D`, a depth-first enumeration with the optimistic bound
//! `µ(support(S), |S| + remaining)` prunes aggressively. The item universe
//! is the (small) dimension count, so this is exact, not heuristic.
//!
//! Points with equal itemsets are interchangeable to the search, so it runs
//! over the *distinct* itemsets, each weighted by the number of points that
//! carry it: a `d`-dimensional input has at most `2^d` of them (128 for
//! 7-d Sky, against tens of thousands of points). A node's support is the
//! sum of its groups' counts, the same integer a per-point count gives, so
//! the result is identical. Counting uses a dense `2^d` table up to 16
//! dimensions (`DENSE_MAX_DIMS`) and sorts a copy of the itemsets above.

use crate::{mu, DimSet};

/// Result of one mining run.
#[derive(Clone, Debug, PartialEq)]
pub struct MinedSet {
    /// The best dimension set.
    pub dims: DimSet,
    /// Its support (number of itemsets containing it).
    pub support: usize,
    /// µ(support, |dims|).
    pub score: f64,
}

/// Up to this many dimensions the distinct itemsets are counted in a dense
/// `2^ndim` table (512 KiB at 16); above it, by sorting a copy of the
/// itemsets.
const DENSE_MAX_DIMS: usize = 16;

/// One distinct itemset and the number of points carrying it.
type Group = (u64, usize);

/// Finds the dimension set with support ≥ `min_support` and size ≥
/// `min_dims` maximizing µ. Returns `None` when no set qualifies.
///
/// `masks` holds one dimension bitmask per point; `ndim` bounds the item
/// universe (bits at or above it are ignored); `beta` parameterizes µ.
pub fn mine_best_dimset(
    masks: &[u64],
    ndim: usize,
    min_support: usize,
    min_dims: usize,
    beta: f64,
) -> Option<MinedSet> {
    assert!(ndim <= DimSet::MAX_DIMS);
    if masks.is_empty() || min_support == 0 || min_support > masks.len() {
        return None;
    }
    let groups = count_distinct(masks, ndim);

    // Frequent single dimensions, ordered by descending support: exploring
    // high-support items first tightens the bound early.
    let mut singles: Vec<(usize, usize)> = (0..ndim)
        .map(|d| (d, groups.iter().filter(|&&(m, _)| m & (1u64 << d) != 0).map(|&(_, c)| c).sum()))
        .filter(|&(_, s)| s >= min_support)
        .collect();
    singles.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
    if singles.is_empty() {
        return None;
    }
    let order: Vec<usize> = singles.iter().map(|&(d, _)| d).collect();

    let mut best: Option<MinedSet> = None;
    let support = masks.len();
    dfs(&groups, &order, 0, DimSet::EMPTY, support, min_support, min_dims, beta, &mut best);
    best
}

/// The distinct itemsets of `masks`, restricted to the first `ndim` bits,
/// with their multiplicities.
fn count_distinct(masks: &[u64], ndim: usize) -> Vec<Group> {
    let universe = DimSet::all(ndim).bits();
    if ndim <= DENSE_MAX_DIMS {
        let mut table = vec![0usize; 1 << ndim];
        for &m in masks {
            table[(m & universe) as usize] += 1;
        }
        (0u64..).zip(table).filter(|&(_, count)| count > 0).collect()
    } else {
        let mut sorted: Vec<u64> = masks.iter().map(|&m| m & universe).collect();
        sorted.sort_unstable();
        sorted.chunk_by(|a, b| a == b).map(|run| (run[0], run.len())).collect()
    }
}

/// Visits the node `current`, supported by the itemsets `groups` with total
/// count `support`, then its extensions by `order[pos..]`.
#[allow(clippy::too_many_arguments)]
fn dfs(
    groups: &[Group],
    order: &[usize],
    pos: usize,
    current: DimSet,
    support: usize,
    min_support: usize,
    min_dims: usize,
    beta: f64,
    best: &mut Option<MinedSet>,
) {
    // Record the current node when admissible.
    if current.len() >= min_dims && support >= min_support {
        let score = mu(support, current.len(), beta);
        if best.as_ref().is_none_or(|b| score > b.score) {
            *best = Some(MinedSet { dims: current, support, score });
        }
    }
    if pos >= order.len() {
        return;
    }
    // Optimistic bound: support cannot grow, dimensionality can reach
    // |current| + remaining items.
    let remaining = order.len() - pos;
    let bound = mu(support, current.len() + remaining, beta);
    if let Some(b) = best {
        if bound <= b.score {
            return;
        }
    }
    // Branch 1: include order[pos].
    let d = order[pos];
    let bit = 1u64 << d;
    let filtered: Vec<Group> = groups.iter().copied().filter(|&(m, _)| m & bit != 0).collect();
    let filtered_support = filtered.iter().map(|&(_, c)| c).sum();
    if filtered_support >= min_support {
        let next = current.with(d);
        dfs(&filtered, order, pos + 1, next, filtered_support, min_support, min_dims, beta, best);
    }
    // Branch 2: skip order[pos].
    dfs(groups, order, pos + 1, current, support, min_support, min_dims, beta, best);
}

/// Ids of the points whose itemset contains `dims` — the members of the
/// cluster defined by a mined dimension set.
pub fn supporting_points(masks: &[u64], dims: DimSet) -> Vec<u32> {
    let bits = dims.bits();
    (0..masks.len() as u32).filter(|&i| masks[i as usize] & bits == bits).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_platform::check::prelude::*;
    use sth_platform::rng::{Rng, SliceRandom};

    /// The reference the weighted search is compared against: the same DFS
    /// run point by point, filtering the ids of the supporting points at
    /// every node.
    fn mine_best_dimset_per_point(
        masks: &[u64],
        ndim: usize,
        min_support: usize,
        min_dims: usize,
        beta: f64,
    ) -> Option<MinedSet> {
        assert!(ndim <= DimSet::MAX_DIMS);
        if masks.is_empty() || min_support == 0 || min_support > masks.len() {
            return None;
        }

        // Frequent single dimensions, ordered by descending support: exploring
        // high-support items first tightens the bound early.
        let mut singles: Vec<(usize, usize)> = (0..ndim)
            .map(|d| (d, masks.iter().filter(|&&m| m & (1u64 << d) != 0).count()))
            .filter(|&(_, s)| s >= min_support)
            .collect();
        singles.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
        if singles.is_empty() {
            return None;
        }
        let order: Vec<usize> = singles.iter().map(|&(d, _)| d).collect();

        let mut best: Option<MinedSet> = None;
        let all_ids: Vec<u32> = (0..masks.len() as u32).collect();
        dfs_per_point(
            masks, &order, 0, DimSet::EMPTY, &all_ids, min_support, min_dims, beta, &mut best,
        );
        best
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_per_point(
        masks: &[u64],
        order: &[usize],
        pos: usize,
        current: DimSet,
        support_ids: &[u32],
        min_support: usize,
        min_dims: usize,
        beta: f64,
        best: &mut Option<MinedSet>,
    ) {
        // Record the current node when admissible.
        if current.len() >= min_dims && support_ids.len() >= min_support {
            let score = mu(support_ids.len(), current.len(), beta);
            if best.as_ref().is_none_or(|b| score > b.score) {
                *best = Some(MinedSet { dims: current, support: support_ids.len(), score });
            }
        }
        if pos >= order.len() {
            return;
        }
        // Optimistic bound: support cannot grow, dimensionality can reach
        // |current| + remaining items.
        let remaining = order.len() - pos;
        let bound = mu(support_ids.len(), current.len() + remaining, beta);
        if let Some(b) = best {
            if bound <= b.score {
                return;
            }
        }
        // Branch 1: include order[pos].
        let d = order[pos];
        let bit = 1u64 << d;
        let filtered: Vec<u32> =
            support_ids.iter().copied().filter(|&i| masks[i as usize] & bit != 0).collect();
        if filtered.len() >= min_support {
            dfs_per_point(
                masks, order, pos + 1, current.with(d), &filtered, min_support, min_dims, beta,
                best,
            );
        }
        // Branch 2: skip order[pos].
        dfs_per_point(
            masks, order, pos + 1, current, support_ids, min_support, min_dims, beta, best,
        );
    }

    check! {
        cases = 64;

        /// Weighted mining over distinct itemsets returns exactly what
        /// per-point mining returns — dims, support and score bits — on
        /// inputs where a few itemsets repeat thousands of times, on both
        /// counting paths (≤ 16 and > 16 dimensions). Repeat counts are
        /// multiples of 500 and half the cases carry no noise, so distinct
        /// dimension sets often tie on µ and the `>` tie rule is exercised.
        /// Palette masks keep their bits above `ndim`, which both miners
        /// must ignore.
        fn weighted_mining_matches_per_point(
            ndim in 1usize..=20,
            palette in collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 1usize..=6), 1..6),
            noise in (0usize..800, 0u64..u64::MAX),
            support_frac in 0.0f64..0.7,
            min_dims in 1usize..=8,
            beta in 0.05f64..0.95,
        ) {
            let mut masks = Vec::new();
            for &(a, b, reps) in &palette {
                // Odd `a`: a sparser itemset, two random masks AND-ed.
                let mask = if a & 1 == 1 { a & b } else { a };
                masks.extend(std::iter::repeat_n(mask, 500 * reps));
            }
            let (noise_len, noise_seed) = noise;
            let mut rng = Rng::seed_from_u64(noise_seed);
            let noise_len = noise_len.saturating_sub(400);
            masks.extend((0..noise_len).map(|_| rng.next_u64() & DimSet::all(ndim).bits()));
            masks.shuffle(&mut rng);
            let min_support = (support_frac * masks.len() as f64) as usize;
            let key = |m: Option<MinedSet>| m.map(|m| (m.dims, m.support, m.score.to_bits()));
            prop_assert_eq!(
                key(mine_best_dimset(&masks, ndim, min_support, min_dims, beta)),
                key(mine_best_dimset_per_point(&masks, ndim, min_support, min_dims, beta))
            );
        }
    }

    #[test]
    fn finds_obvious_frequent_set() {
        // 8 points support {0,1}; 3 support {2} alone.
        let m01 = 0b011u64;
        let m2 = 0b100u64;
        let masks: Vec<u64> = std::iter::repeat_n(m01, 8).chain(std::iter::repeat_n(m2, 3)).collect();
        let best = mine_best_dimset(&masks, 3, 3, 1, 0.25).unwrap();
        assert_eq!(best.dims, DimSet::from_dims(&[0, 1]));
        assert_eq!(best.support, 8);
        assert_eq!(supporting_points(&masks, best.dims).len(), 8);
    }

    #[test]
    fn ties_keep_the_first_set_found() {
        // {0,1} and {2,3} tie on µ. The search reaches {0,1} first, and a
        // later set must score strictly higher to replace it; item 4 keeps
        // the bound above the tie, so {2,3} is scored, not pruned.
        let masks: Vec<u64> = [0b00011u64, 0b01100, 0b10000]
            .iter()
            .flat_map(|&m| std::iter::repeat_n(m, 500))
            .collect();
        for mined in [
            mine_best_dimset(&masks, 5, 500, 1, 0.25),
            mine_best_dimset_per_point(&masks, 5, 500, 1, 0.25),
        ] {
            assert_eq!(mined.unwrap().dims, DimSet::from_dims(&[0, 1]));
        }
    }

    #[test]
    fn beta_controls_dims_vs_size() {
        // 100 points support {0}; 30 also support {0,1}.
        let mut masks = vec![0b01u64; 70];
        masks.extend(vec![0b11u64; 30]);
        // With β = 0.5, an extra dim is worth a 2x smaller cluster: µ(100,1)=200
        // vs µ(30,2)=120 → pick the bigger 1-d set.
        let b1 = mine_best_dimset(&masks, 2, 10, 1, 0.5).unwrap();
        assert_eq!(b1.dims, DimSet::from_dims(&[0]));
        // With β = 0.1, dimensionality dominates: µ(100,1)=1000 vs µ(30,2)=3000.
        let b2 = mine_best_dimset(&masks, 2, 10, 1, 0.1).unwrap();
        assert_eq!(b2.dims, DimSet::from_dims(&[0, 1]));
    }

    #[test]
    fn respects_min_support_and_min_dims() {
        let masks = vec![0b11u64; 5];
        assert!(mine_best_dimset(&masks, 2, 6, 1, 0.25).is_none());
        let best = mine_best_dimset(&masks, 2, 2, 2, 0.25).unwrap();
        assert_eq!(best.dims.len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(mine_best_dimset(&[], 3, 1, 1, 0.25).is_none());
        assert!(mine_best_dimset(&[0b1], 3, 0, 1, 0.25).is_none());
    }

    #[test]
    fn exhaustive_correctness_small() {
        // Compare against brute force over all dimension subsets.
        use sth_platform::rng::Rng;
        let mut rng = Rng::seed_from_u64(99);
        for _ in 0..20 {
            let ndim = 5;
            let masks: Vec<u64> = (0..60).map(|_| rng.gen_range(0u64..32)).collect();
            let min_support = rng.gen_range(1..10);
            let beta = 0.25;
            let fast = mine_best_dimset(&masks, ndim, min_support, 1, beta);
            // Brute force.
            let mut best: Option<(u64, usize)> = None;
            for set in 1u64..32 {
                let support = masks.iter().filter(|&&m| m & set == set).count();
                if support >= min_support {
                    let score = mu(support, set.count_ones() as usize, beta);
                    if best.is_none_or(|(s, sup)| {
                        score > mu(sup, s.count_ones() as usize, beta)
                    }) {
                        best = Some((set, support));
                    }
                }
            }
            match (fast, best) {
                (None, None) => {}
                (Some(f), Some((bs, bsup))) => {
                    let brute_score = mu(bsup, bs.count_ones() as usize, beta);
                    assert!(
                        (f.score - brute_score).abs() < 1e-9,
                        "scores differ: fast {} brute {brute_score}",
                        f.score
                    );
                }
                (f, b) => panic!("disagreement: fast {f:?} brute {b:?}"),
            }
        }
    }
}
