//! Subspace clustering for histogram initialization.
//!
//! The paper initializes STHoles with dense clusters found in *projections*
//! of the data. Its chosen algorithm is **MineClus** (Yiu & Mamoulis, ICDM
//! 2003), a frequent-pattern-based formulation of the DOC projective
//! clustering model; the paper's earlier study (SSDBM 2011) found it the
//! best initializer among six subspace clustering algorithms.
//!
//! This crate implements, from scratch:
//!
//! * [`MineClus`] — random medoids + frequent-dimension-set mining with
//!   branch-and-bound on the DOC quality function `µ(a, b) = a · (1/β)^b`,
//!   iterated with point removal;
//! * [`Doc`] — the randomized DOC ancestor (used by the
//!   `ablation_initializer` bench);
//! * [`Clique`] — a grid/density bottom-up subspace clusterer in the spirit
//!   of CLIQUE (same ablation);
//! * [`Proclus`] — the classic k-medoid projective clustering of Aggarwal
//!   et al. (same ablation);
//! * the shared [`SubspaceCluster`] output type and the [`DimSet`] bitmask.
//!
//! All algorithms are deterministic given their seed.

#![warn(missing_docs)]

mod clique;
mod cluster;
mod dimset;
mod doc;
mod mineclus;
mod mining;
mod proclus;

pub use clique::{Clique, CliqueConfig};
pub use cluster::SubspaceCluster;
pub use dimset::DimSet;
pub use doc::{Doc, DocConfig};
pub use mineclus::{cluster_default, MineClus, MineClusConfig};
pub use mining::{mine_best_dimset, MinedSet};
pub use proclus::{Proclus, ProclusConfig};

use sth_data::Dataset;

/// A subspace clustering algorithm: dataset in, scored clusters out.
pub trait SubspaceClustering {
    /// Clusters the dataset. The result is sorted by descending score
    /// (importance); higher scores mean more important clusters.
    fn cluster(&self, data: &Dataset) -> Vec<SubspaceCluster>;

    /// Algorithm name for reports.
    fn name(&self) -> &str;
}

/// The DOC/MineClus quality function `µ(a, b) = a · (1/β)^b`:
/// `a` points in `b` relevant dimensions. Bigger is better; `β ∈ (0, 1)`
/// trades cluster size against dimensionality (small β favors
/// higher-dimensional clusters).
#[inline]
pub fn mu(points: usize, dims: usize, beta: f64) -> f64 {
    debug_assert!(beta > 0.0 && beta < 1.0, "beta must be in (0, 1)");
    points as f64 * (1.0 / beta).powi(dims as i32)
}

/// Removes `members`, an ascending subsequence of `active`, from `active`
/// in one ordered pass, together with the same positions of every column
/// in `cols` (each parallel to `active`). The clusterers keep `active`
/// ascending, and members are collected from it in order.
pub(crate) fn remove_members(active: &mut Vec<u32>, cols: &mut [Vec<f64>], members: &[u32]) {
    let mut next = members.iter().peekable();
    let mut kept = 0;
    for j in 0..active.len() {
        if next.next_if_eq(&&active[j]).is_some() {
            continue;
        }
        active[kept] = active[j];
        for col in cols.iter_mut() {
            col[kept] = col[j];
        }
        kept += 1;
    }
    assert!(next.next().is_none(), "members must be an ascending subsequence of active");
    active.truncate(kept);
    for col in cols {
        col.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remove_members_compacts_columns_in_order() {
        let mut active = vec![1, 3, 4, 7, 9];
        let mut cols = vec![vec![10.0, 30.0, 40.0, 70.0, 90.0], vec![-1.0, -3.0, -4.0, -7.0, -9.0]];
        remove_members(&mut active, &mut cols, &[3, 7, 9]);
        assert_eq!(active, vec![1, 4]);
        assert_eq!(cols, vec![vec![10.0, 40.0], vec![-1.0, -4.0]]);
        remove_members(&mut active, &mut [], &[]);
        assert_eq!(active, vec![1, 4]);
    }

    #[test]
    #[should_panic(expected = "ascending subsequence")]
    fn remove_members_rejects_unordered_members() {
        remove_members(&mut vec![1, 3, 4], &mut [], &[4, 3]);
    }

    #[test]
    fn mu_tradeoff() {
        // With β = 0.25, one extra dimension is worth a 4x smaller cluster.
        assert_eq!(mu(400, 2, 0.25), mu(100, 3, 0.25));
        assert!(mu(101, 3, 0.25) > mu(400, 2, 0.25));
        // Smaller β emphasizes dimensionality more.
        assert!(mu(10, 4, 0.1) > mu(10, 4, 0.3));
    }
}
