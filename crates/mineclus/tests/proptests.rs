//! Property tests over the clustering algorithms' output contracts.

use sth_platform::check::prelude::*;
use sth_data::Dataset;
use sth_geometry::Rect;
use sth_mineclus::{
    Clique, CliqueConfig, Doc, DocConfig, MineClus, MineClusConfig, Proclus, ProclusConfig,
    SubspaceClustering,
};

fn dataset(points: &[(f64, f64, f64)]) -> Dataset {
    Dataset::from_columns(
        "prop",
        Rect::cube(3, 0.0, 1000.0),
        vec![
            points.iter().map(|p| p.0).collect(),
            points.iter().map(|p| p.1).collect(),
            points.iter().map(|p| p.2).collect(),
        ],
    )
}

/// A blob of points near a center plus uniform noise: something every
/// algorithm should be able to digest without violating its contracts.
fn blob_strategy() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    (
        (100.0f64..900.0, 100.0f64..900.0, 100.0f64..900.0),
        collection::vec((-40.0f64..40.0, -40.0f64..40.0, -40.0f64..40.0), 40..150),
        collection::vec((0.0f64..1000.0, 0.0f64..1000.0, 0.0f64..1000.0), 0..40),
    )
        .prop_map(|(center, offsets, noise)| {
            let mut pts: Vec<(f64, f64, f64)> = offsets
                .into_iter()
                .map(|(dx, dy, dz)| {
                    (
                        (center.0 + dx).clamp(0.0, 999.9),
                        (center.1 + dy).clamp(0.0, 999.9),
                        (center.2 + dz).clamp(0.0, 999.9),
                    )
                })
                .collect();
            pts.extend(noise);
            pts
        })
}

/// The contracts every algorithm must satisfy, regardless of input.
fn check_contracts(alg: &dyn SubspaceClustering, ds: &Dataset) -> Result<(), TestCaseError> {
    let clusters = alg.cluster(ds);
    let mut seen = std::collections::HashSet::new();
    let mut last_score = f64::INFINITY;
    for c in &clusters {
        prop_assert!(!c.is_empty(), "{}: empty cluster", alg.name());
        prop_assert!(!c.dims.is_empty(), "{}: cluster without dimensions", alg.name());
        prop_assert!(c.dims.iter().all(|d| d < ds.ndim()), "{}: out-of-range dim", alg.name());
        prop_assert!(c.score.is_finite() && c.score > 0.0, "{}: bad score", alg.name());
        prop_assert!(c.score <= last_score + 1e-9, "{}: not importance-sorted", alg.name());
        last_score = c.score;
        for &p in &c.points {
            prop_assert!((p as usize) < ds.len(), "{}: dangling point id", alg.name());
            prop_assert!(seen.insert(p), "{}: point {p} in two clusters", alg.name());
        }
        // Rectangle representations contain all members.
        let ebr = c.extended_br(ds).unwrap();
        let mbr = c.mbr(ds).unwrap();
        prop_assert!(ebr.contains_rect(&mbr), "{}: MBR escapes extended BR", alg.name());
        for &p in c.points.iter().step_by(7) {
            prop_assert!(mbr.contains_point(&ds.row(p as usize)), "{}: member outside MBR", alg.name());
        }
    }
    Ok(())
}

check! {
    cases = 16;

    fn mineclus_contracts(points in blob_strategy()) {
        let ds = dataset(&points);
        let alg = MineClus::new(MineClusConfig { alpha: 0.1, ..MineClusConfig::default() });
        check_contracts(&alg, &ds)?;
    }

    fn doc_contracts(points in blob_strategy()) {
        let ds = dataset(&points);
        let alg = Doc::new(DocConfig { alpha: 0.1, trials: 64, ..DocConfig::default() });
        check_contracts(&alg, &ds)?;
    }

    fn clique_contracts(points in blob_strategy()) {
        let ds = dataset(&points);
        let alg = Clique::new(CliqueConfig { tau: 0.05, ..CliqueConfig::default() });
        check_contracts(&alg, &ds)?;
    }

    fn proclus_contracts(points in blob_strategy()) {
        let ds = dataset(&points);
        let alg = Proclus::new(ProclusConfig { k: 4, iterations: 4, ..ProclusConfig::default() });
        check_contracts(&alg, &ds)?;
    }
}
