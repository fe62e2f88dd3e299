//! DOC: the randomized ancestor of MineClus (Procopiuc et al., SIGMOD 2002).
//!
//! Instead of mining the best dimension set exactly, DOC samples a medoid
//! plus a small *discriminating set* of points and keeps the dimensions in
//! which the whole discriminating set stays within `width` of the medoid.
//! Many trials are drawn; the best cluster under µ wins. Included as an
//! alternative initializer for the `ablation_initializer` bench.

use sth_platform::rng::{Rng, SliceRandom};
use sth_data::Dataset;

use crate::{mu, remove_members, DimSet, SubspaceCluster, SubspaceClustering};

/// DOC parameters.
#[derive(Clone, Debug)]
pub struct DocConfig {
    /// Minimal support fraction α.
    pub alpha: f64,
    /// µ trade-off β ∈ (0, 1).
    pub beta: f64,
    /// Half-width w of the cluster box.
    pub width: f64,
    /// Trials per extraction round (DOC's `2/α · (d/ln 2)`-ish constant,
    /// fixed here for determinism and speed).
    pub trials: usize,
    /// Size of the discriminating set per trial.
    pub discriminating_set: usize,
    /// Maximum number of clusters.
    pub max_clusters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DocConfig {
    fn default() -> Self {
        Self {
            alpha: 0.01,
            beta: 0.25,
            width: 60.0,
            trials: 256,
            discriminating_set: 3,
            max_clusters: 32,
            seed: 0xD0C5,
        }
    }
}

/// The randomized DOC projective clustering algorithm.
#[derive(Clone, Debug)]
pub struct Doc {
    config: DocConfig,
}

impl Doc {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: DocConfig) -> Self {
        assert!(config.alpha > 0.0 && config.alpha <= 1.0);
        assert!(config.beta > 0.0 && config.beta < 1.0);
        assert!(config.width > 0.0);
        assert!(config.discriminating_set >= 1);
        Self { config }
    }
}

impl SubspaceClustering for Doc {
    fn cluster(&self, data: &Dataset) -> Vec<SubspaceCluster> {
        let n = data.len();
        if n == 0 {
            return Vec::new();
        }
        let min_support = ((self.config.alpha * n as f64).ceil() as usize).max(2);
        let mut rng = Rng::seed_from_u64(self.config.seed);
        let mut active: Vec<u32> = (0..n as u32).collect();
        let mut clusters = Vec::new();

        while clusters.len() < self.config.max_clusters && active.len() >= min_support {
            let mut best: Option<(DimSet, Vec<u32>, f64)> = None;
            for _ in 0..self.config.trials {
                // Medoid + discriminating set.
                let medoid_id = *active.choose(&mut rng).unwrap();
                let medoid = data.row(medoid_id as usize);
                let mut disc: Vec<u32> = active.clone();
                disc.shuffle(&mut rng);
                disc.truncate(self.config.discriminating_set);
                // Dimensions where the whole discriminating set is tight
                // around the medoid.
                let mut dims = DimSet::EMPTY;
                for (d, &m) in medoid.iter().enumerate() {
                    let ok = disc
                        .iter()
                        .all(|&i| (data.value(i as usize, d) - m).abs() <= self.config.width);
                    if ok {
                        dims.insert(d);
                    }
                }
                if dims.is_empty() {
                    continue;
                }
                // Members: active points within width of the medoid in dims.
                let members: Vec<u32> = active
                    .iter()
                    .copied()
                    .filter(|&i| {
                        dims.iter().all(|d| {
                            (data.value(i as usize, d) - medoid[d]).abs() <= self.config.width
                        })
                    })
                    .collect();
                if members.len() < min_support {
                    continue;
                }
                let score = mu(members.len(), dims.len(), self.config.beta);
                if best.as_ref().is_none_or(|(_, _, s)| score > *s) {
                    best = Some((dims, members, score));
                }
            }
            let Some((dims, members, score)) = best else { break };
            remove_members(&mut active, &mut [], &members);
            clusters.push(SubspaceCluster { points: members, dims, score });
        }
        clusters.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
        clusters
    }

    fn name(&self) -> &str {
        "doc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_data::cross::CrossSpec;

    #[test]
    fn finds_dense_regions() {
        let ds = CrossSpec::cross2d().scaled(0.05).generate();
        let doc = Doc::new(DocConfig { alpha: 0.05, width: 30.0, ..DocConfig::default() });
        let clusters = doc.cluster(&ds);
        assert!(!clusters.is_empty());
        // Clusters must be reasonably large and disjoint.
        let mut seen = std::collections::HashSet::new();
        for c in &clusters {
            assert!(c.len() >= (0.05 * ds.len() as f64) as usize);
            for &p in &c.points {
                assert!(seen.insert(p));
            }
        }
    }

    #[test]
    fn deterministic() {
        let ds = CrossSpec::cross2d().scaled(0.02).generate();
        let doc = Doc::new(DocConfig::default());
        let a = doc.cluster(&ds);
        let b = doc.cluster(&ds);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.points, y.points);
        }
    }
}
