//! The MineClus algorithm.

use sth_platform::obs;
use sth_platform::rng::{Rng, SliceRandom};
use sth_data::Dataset;

use crate::mining::{mine_best_dimset, supporting_points, MinedSet};
use crate::{remove_members, SubspaceCluster, SubspaceClustering};

/// MineClus parameters, named as in the paper (§5.2 "Clustering"):
/// * `alpha` — minimal cluster support as a fraction of the dataset; regions
///   holding fewer tuples are not clusters.
/// * `beta` — size-vs-dimensionality trade-off of the quality function µ.
/// * `width` — per-dimension half-width of the cluster box around a medoid
///   ("used to determine the minimal width of the clusters").
#[derive(Clone, Debug)]
pub struct MineClusConfig {
    /// Minimal support fraction α (of the full dataset size).
    pub alpha: f64,
    /// Quality trade-off β ∈ (0, 1).
    pub beta: f64,
    /// Half-width w of the box around a medoid, in domain units. The
    /// default (10% of the `[0,1000)` domain extent) comfortably covers the
    /// ±2σ core of the paper-scale Gaussian clusters; widths below ~6% of
    /// the extent fragment full-dimensional clusters into spurious subspace
    /// clusters and erase the initialization benefit (see the `tune` dev
    /// binary and EXPERIMENTS.md).
    pub width: f64,
    /// Maximum number of clusters to extract.
    pub max_clusters: usize,
    /// Random medoid trials per extraction round.
    pub medoid_trials: usize,
    /// Minimal cluster dimensionality (1 = any).
    pub min_dims: usize,
    /// RNG seed for medoid selection.
    pub seed: u64,
}

impl Default for MineClusConfig {
    fn default() -> Self {
        Self {
            alpha: 0.01,
            beta: 0.25,
            width: 100.0,
            max_clusters: 32,
            medoid_trials: 12,
            min_dims: 1,
            seed: 0x4C75,
        }
    }
}

impl MineClusConfig {
    /// The paper's Table 2 parameterization (`width` there is the full box
    /// width on a normalized domain; here in raw domain units).
    pub fn paper(alpha: f64, beta: f64, width: f64) -> Self {
        Self { alpha, beta, width, ..Self::default() }
    }
}

/// The MineClus projective clustering algorithm: iteratively pick random
/// medoids, mine the best dimension set around each (exact branch-and-bound
/// over the µ function), keep the best cluster of the round, remove its
/// points, repeat.
///
/// ```
/// use sth_data::cross::CrossSpec;
/// use sth_mineclus::{MineClus, MineClusConfig, SubspaceClustering};
///
/// // The 2-d Cross: two one-dimensional bands.
/// let data = CrossSpec::cross2d().scaled(0.05).generate();
/// let algo = MineClus::new(MineClusConfig { alpha: 0.05, width: 30.0, ..Default::default() });
/// let clusters = algo.cluster(&data);
///
/// // The top clusters are the bands: 1-dimensional subspace clusters.
/// assert!(clusters[0].is_subspace(data.ndim()));
/// assert_eq!(clusters[0].dims.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct MineClus {
    config: MineClusConfig,
}

impl MineClus {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: MineClusConfig) -> Self {
        assert!(config.alpha > 0.0 && config.alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(config.beta > 0.0 && config.beta < 1.0, "beta must be in (0, 1)");
        assert!(config.width > 0.0, "width must be positive");
        Self { config }
    }

    /// Access to the configuration.
    pub fn config(&self) -> &MineClusConfig {
        &self.config
    }

    /// Builds, for every active point, the itemset of dimensions in which it
    /// lies within `width` of the medoid. `cols` holds the active points'
    /// values, one column per dimension, so each dimension is one streaming
    /// pass that sets its bit with a branch-free compare the compiler
    /// vectorizes.
    fn itemsets(&self, cols: &[Vec<f64>], len: usize, medoid: &[f64]) -> Vec<u64> {
        let w = self.config.width;
        let mut masks = vec![0u64; len];
        for (d, (col, &m)) in cols.iter().zip(medoid).enumerate() {
            for (mask, &v) in masks.iter_mut().zip(col) {
                *mask |= (((v - m).abs() <= w) as u64) << d;
            }
        }
        masks
    }

    /// One extraction round: the best cluster over `medoid_trials` medoids.
    fn best_round(
        &self,
        data: &Dataset,
        active: &[u32],
        cols: &[Vec<f64>],
        min_support: usize,
        rng: &mut Rng,
    ) -> Option<(MinedSet, Vec<u32>)> {
        let mut best: Option<(MinedSet, Vec<u32>)> = None;
        let trials: Vec<u32> = {
            let mut pool = active.to_vec();
            pool.shuffle(rng);
            pool.truncate(self.config.medoid_trials);
            pool
        };
        obs::add(obs::Counter::ClusterTrials, trials.len() as u64);
        for medoid_id in trials {
            let medoid = data.row(medoid_id as usize);
            let masks = self.itemsets(cols, active.len(), &medoid);
            let Some(mined) = mine_best_dimset(
                &masks,
                data.ndim(),
                min_support,
                self.config.min_dims,
                self.config.beta,
            ) else {
                continue;
            };
            if best.as_ref().is_none_or(|(b, _)| mined.score > b.score) {
                let local = supporting_points(&masks, mined.dims);
                let members: Vec<u32> = local.iter().map(|&j| active[j as usize]).collect();
                best = Some((mined, members));
            }
        }
        best
    }
}

impl SubspaceClustering for MineClus {
    fn cluster(&self, data: &Dataset) -> Vec<SubspaceCluster> {
        let n = data.len();
        if n == 0 {
            return Vec::new();
        }
        let _span = obs::span("mineclus.cluster");
        let min_support = ((self.config.alpha * n as f64).ceil() as usize).max(2);
        let mut rng = Rng::seed_from_u64(self.config.seed);
        let mut active: Vec<u32> = (0..n as u32).collect();
        // The active points' values, one column per dimension, parallel to
        // `active` and compacted with it: n × d × 8 bytes while clustering.
        let mut cols: Vec<Vec<f64>> = (0..data.ndim()).map(|d| data.column(d).to_vec()).collect();
        let mut clusters = Vec::new();
        while clusters.len() < self.config.max_clusters && active.len() >= min_support {
            let round_start = obs::metrics_enabled().then(std::time::Instant::now);
            let round = self.best_round(data, &active, &cols, min_support, &mut rng);
            obs::incr(obs::Counter::ClusterRounds);
            if let Some(t0) = round_start {
                obs::record(obs::StatKind::ClusterRoundSecs, t0.elapsed().as_secs_f64());
            }
            let Some((mined, members)) = round else {
                break;
            };
            debug_assert!(members.len() >= min_support);
            remove_members(&mut active, &mut cols, &members);
            clusters.push(SubspaceCluster { points: members, dims: mined.dims, score: mined.score });
        }
        // Descending importance.
        clusters.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
        clusters
    }

    fn name(&self) -> &str {
        "mineclus"
    }
}

/// Convenience: clusters with default parameters tuned for the paper's
/// `[0, 1000)`-scaled datasets.
pub fn cluster_default(data: &Dataset) -> Vec<SubspaceCluster> {
    MineClus::new(MineClusConfig::default()).cluster(data)
}

#[allow(unused_imports)]
use crate::mu; // referenced by doc comments

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DimSet;
    use sth_data::cross::CrossSpec;
    use sth_data::gauss::GaussSpec;

    #[test]
    fn finds_cross_bands_as_subspace_clusters() {
        let spec = CrossSpec::cross2d().scaled(0.05); // 1.1k tuples
        let ds = spec.generate();
        let mc = MineClus::new(MineClusConfig {
            alpha: 0.05,
            width: 30.0,
            ..MineClusConfig::default()
        });
        let clusters = mc.cluster(&ds);
        assert!(clusters.len() >= 2, "found {} clusters", clusters.len());
        // The two biggest clusters must be the two 1-d bands.
        let band_dims: Vec<DimSet> =
            clusters.iter().take(2).map(|c| c.dims).collect();
        assert!(band_dims.contains(&DimSet::from_dims(&[0])), "dims found: {band_dims:?}");
        assert!(band_dims.contains(&DimSet::from_dims(&[1])), "dims found: {band_dims:?}");
        // Each band holds roughly the 500 tuples of its cluster.
        for c in clusters.iter().take(2) {
            assert!(c.len() > 350, "band cluster too small: {}", c.len());
        }
    }

    #[test]
    fn importance_order_is_descending() {
        let ds = GaussSpec::paper().scaled(0.02).generate();
        let clusters = cluster_default(&ds);
        assert!(!clusters.is_empty());
        for w in clusters.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn clusters_are_disjoint() {
        let ds = GaussSpec::paper().scaled(0.02).generate();
        let clusters = cluster_default(&ds);
        let mut seen = std::collections::HashSet::new();
        for c in &clusters {
            for &p in &c.points {
                assert!(seen.insert(p), "point {p} assigned to two clusters");
            }
        }
    }

    #[test]
    fn respects_alpha_threshold() {
        let ds = CrossSpec::cross2d().scaled(0.05).generate();
        let mc = MineClus::new(MineClusConfig {
            alpha: 0.2,
            width: 30.0,
            ..MineClusConfig::default()
        });
        let clusters = mc.cluster(&ds);
        let min_support = (0.2 * ds.len() as f64).ceil() as usize;
        for c in &clusters {
            assert!(c.len() >= min_support);
        }
    }

    #[test]
    fn deterministic() {
        let ds = GaussSpec::paper().scaled(0.01).generate();
        let a = cluster_default(&ds);
        let b = cluster_default(&ds);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.points, y.points);
            assert_eq!(x.dims, y.dims);
        }
    }

    #[test]
    fn empty_dataset_yields_no_clusters() {
        let ds = sth_data::Dataset::from_columns(
            "empty",
            sth_geometry::Rect::cube(2, 0.0, 1.0),
            vec![vec![], vec![]],
        );
        assert!(cluster_default(&ds).is_empty());
    }

    #[test]
    #[should_panic(expected = "beta must be in (0, 1)")]
    fn rejects_bad_beta() {
        let _ = MineClus::new(MineClusConfig { beta: 1.5, ..MineClusConfig::default() });
    }
}
