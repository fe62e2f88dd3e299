//! Golden pins of MineClus output on its own, apart from any histogram:
//! the 7-d Sky input (subspace clusters over a heavy-tailed noise floor)
//! and the 6-d Gauss input (full-dimensional bells). Each pin hashes, for
//! every cluster of `cluster_default` in output order, the little-endian
//! `u64` sequence `dims.bits()`, `score.to_bits()`, `points.len()`, then
//! each point id. A change to itemset building, mining or point removal
//! that moves one member, one dimension or one score bit moves the hash.

use sth_data::gauss::GaussSpec;
use sth_data::sky::SkySpec;
use sth_data::Dataset;
use sth_mineclus::{cluster_default, SubspaceCluster};
use sth_platform::codec::fnv1a;

fn clustering_hash(clusters: &[SubspaceCluster]) -> u64 {
    let mut bytes = Vec::new();
    for c in clusters {
        bytes.extend_from_slice(&c.dims.bits().to_le_bytes());
        bytes.extend_from_slice(&c.score.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(c.points.len() as u64).to_le_bytes());
        for &p in &c.points {
            bytes.extend_from_slice(&u64::from(p).to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

fn check_pin(ds: &Dataset, tuples: usize, clusters: usize, golden: u64) {
    assert_eq!(ds.len(), tuples, "input size changed; the pin no longer applies");
    let found = cluster_default(ds);
    assert_eq!(found.len(), clusters, "cluster count drifted");
    let hash = clustering_hash(&found);
    assert_eq!(hash, golden, "MineClus output drifted from its pin (got {hash:#018x})");
}

/// Re-pin only on an intentional change to MineClus's output.
#[test]
fn sky_clusters_match_pin() {
    check_pin(&SkySpec::scaled(0.01).generate(), 17_471, 31, 0x6d97_8891_7bb7_fddf);
}

/// Re-pin only on an intentional change to MineClus's output.
#[test]
fn gauss_clusters_match_pin() {
    check_pin(&GaussSpec::paper().scaled(0.1).generate(), 11_000, 26, 0x73b5_16c9_ae52_eea8);
}
