//! Evolving data: what happens to a trained histogram when the table
//! changes underneath it, and how frequency decay helps it re-learn.
//!
//! Static histograms must be rebuilt when the data changes; self-tuning
//! histograms adapt — but their old, now-wrong frequencies linger. Aging
//! them with [`StHoles::decay`] plus re-anchoring the total makes the
//! histogram converge on the new distribution faster.
//!
//! ```text
//! cargo run --release --example evolving_table
//! ```

use sth::data::cross::CrossSpec;
use sth::prelude::*;

/// Mean absolute error of `hist` over a workload against `engine`,
/// refining as it goes (the live-system behavior).
fn run_epoch(hist: &mut StHoles, workload: &Workload, engine: &KdCountTree) -> f64 {
    let mut err = 0.0;
    for q in workload.queries() {
        let truth = engine.count(q.rect()) as f64;
        err += (hist.estimate(q.rect()) - truth).abs();
        hist.refine(q.rect(), engine);
    }
    err / workload.len() as f64
}

fn main() {
    // Phase 1: the original table — the standard 2-d Cross.
    let old_data = CrossSpec::cross2d().scaled(0.25).generate();
    let old_engine = KdCountTree::build(&old_data);

    // Phase 2: the table is replaced by a *rotated* distribution: the bands
    // move to 1/4 and 3/4 of the domain (fresh seed, different geometry).
    let new_data = {
        use sth::data::{add_uniform_noise, DatasetBuilder};
        use sth::platform::rng::Rng;
        let domain = Rect::cube(2, 0.0, 1000.0);
        let mut b = DatasetBuilder::new("shifted-cross", domain.clone());
        let mut rng = Rng::seed_from_u64(0xE0E0);
        for (cx, horizontal) in [(250.0, false), (750.0, true)] {
            for _ in 0..2500 {
                let band = cx - 20.0 + rng.gen::<f64>() * 40.0;
                let span = rng.gen::<f64>() * 1000.0;
                if horizontal {
                    b.push_row(&[span, band]);
                } else {
                    b.push_row(&[band, span]);
                }
            }
        }
        add_uniform_noise(&mut b, &domain, 500, &mut rng);
        b.finish()
    };
    let new_engine = KdCountTree::build(&new_data);

    let workload = WorkloadSpec { count: 300, ..WorkloadSpec::paper(0.01, 44) }
        .generate(old_data.domain(), None);

    // Train on the old distribution.
    let mut stale = build_uninitialized(&old_data, 80);
    run_epoch(&mut stale, &workload, &old_engine);
    let mut decayed = stale.clone();
    let mut fresh = build_uninitialized(&new_data, 80);

    println!("histogram trained on the old table; table now replaced\n");
    println!("{:>6}  {:>12}  {:>14}  {:>12}", "epoch", "stale", "decay+anchor", "rebuilt");

    // The decayed variant ages its beliefs and re-anchors the cardinality
    // once, right after the switch; the stale one only re-anchors.
    decayed.decay(0.1);
    decayed.set_total(new_data.len() as f64);
    stale.set_total(new_data.len() as f64);

    for epoch in 1..=4 {
        let fresh_wl = WorkloadSpec { count: 300, ..WorkloadSpec::paper(0.01, 44 + epoch) }
            .generate(new_data.domain(), None);
        let e_stale = run_epoch(&mut stale, &fresh_wl, &new_engine);
        let e_decay = run_epoch(&mut decayed, &fresh_wl, &new_engine);
        let e_fresh = run_epoch(&mut fresh, &fresh_wl, &new_engine);
        println!("{epoch:>6}  {e_stale:>12.1}  {e_decay:>14.1}  {e_fresh:>12.1}");
        // Re-anchor periodically: STHoles' frequency clamping lets the total
        // mass drift upward when feedback contradicts stale beliefs; the
        // catalog's tuple count is always available to pull it back.
        decayed.set_total(new_data.len() as f64);
        stale.set_total(new_data.len() as f64);
    }
    println!(
        "\nSTHoles' drilling overwrites stale frequencies with observed counts, so even\n\
         the stale histogram adapts without a rebuild. Decaying old beliefs plus a\n\
         periodic cardinality re-anchor (both one-liners) converges about twice as\n\
         fast, approaching a from-scratch rebuild without ever dropping the synopsis."
    );
}
