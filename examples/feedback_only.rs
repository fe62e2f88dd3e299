//! Feedback-only operation: the histogram never touches the base table.
//!
//! In a production system the histogram sees only the *result streams* of
//! executed queries. This example wires STHoles to exactly that interface
//! — [`ResultSetCounter`] wraps one query's result rows, and every number
//! the histogram learns is computed from them — and demonstrates the
//! paper's stagnation phenomenon: with a tight bucket budget, pure
//! feedback learning plateaus at a high error, while a one-time offline
//! initialization (which *is* allowed to read the data, e.g. during a
//! maintenance window) escapes the local optimum.
//!
//! ```text
//! cargo run --release --example feedback_only
//! ```

use sth::data::gauss::GaussSpec;
use sth::prelude::*;

fn main() {
    let data = GaussSpec::paper().scaled(0.2).generate();
    let engine = KdCountTree::build(&data); // the "database"
    println!("dataset: {} tuples, {} attributes", data.len(), data.ndim());

    let budget = 60;
    let mut feedback_only = build_uninitialized(&data, budget);
    let mineclus = MineClus::new(MineClusConfig::default());
    let (mut initialized, report) = build_initialized(
        &data,
        budget,
        &mineclus,
        &InitConfig::default(),
        Some(10_000),
        &engine,
    );
    println!(
        "offline initialization: {} clusters, {:.2}s\n",
        report.fed, report.clustering_secs
    );

    let workload = WorkloadSpec { count: 1_500, ..WorkloadSpec::paper(0.01, 5) }
        .generate(data.domain(), None);

    println!("{:>8}  {:>14}  {:>14}", "queries", "feedback-only", "initialized");
    let mut err_f = 0.0;
    let mut err_i = 0.0;
    let mut window = 0;
    for (i, q) in workload.queries().iter().enumerate() {
        // The system executes the query; the histogram may only see the
        // result rows. Both estimates are recorded *before* refinement.
        let feedback = ResultSetCounter::from_counter(&engine, q.rect()).unwrap();
        let truth = feedback.len() as f64;
        err_f += (feedback_only.estimate(q.rect()) - truth).abs();
        err_i += (initialized.estimate(q.rect()) - truth).abs();
        window += 1;

        // Feedback-only refinement: counts come from the result stream.
        feedback_only.refine(q.rect(), &feedback);
        initialized.refine(q.rect(), &feedback);

        if (i + 1) % 300 == 0 {
            println!(
                "{:>8}  {:>14.1}  {:>14.1}",
                i + 1,
                err_f / window as f64,
                err_i / window as f64
            );
            err_f = 0.0;
            err_i = 0.0;
            window = 0;
        }
    }
    println!(
        "\nfinal bucket trees: feedback-only {} buckets ({} subspace), initialized {} buckets ({} subspace)",
        feedback_only.bucket_count(),
        feedback_only.subspace_bucket_count(),
        initialized.bucket_count(),
        initialized.subspace_bucket_count(),
    );
    println!("(watch the feedback-only error plateau: that is the stagnation of §3.2)");
}
