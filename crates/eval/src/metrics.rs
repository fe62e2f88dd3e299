//! Error metrics (Eq. 9 and Eq. 10 of the paper).

use sth_geometry::Rect;
use sth_index::{RangeCounter, ResultSetCounter};
use sth_platform::obs;
use sth_query::{Estimator, SelfTuning, Workload};

/// Mean Absolute Error over a workload (Eq. 9):
/// `E(H, W) = 1/|W| Σ |est(H, q) − real(q)|` for a *static* estimator.
///
/// Estimates go through [`Estimator::estimate_batch`] so snapshot-backed
/// estimators hit their batch kernel; per the trait contract the batched
/// values are identical to per-query `estimate` calls, and the error sum
/// still accumulates in workload order.
pub fn evaluate_static(
    estimator: &dyn Estimator,
    workload: &Workload,
    counter: &dyn RangeCounter,
) -> f64 {
    let truths: Vec<f64> =
        workload.queries().iter().map(|q| counter.count(q.rect()) as f64).collect();
    static_mae(estimator, workload, &truths)
}

/// [`evaluate_static`] against already-known truths, one per query of
/// `workload` in order — for a caller whose feedback loop has just probed
/// every query, so that normalizing costs no second probe.
pub(crate) fn static_mae(estimator: &dyn Estimator, workload: &Workload, truths: &[f64]) -> f64 {
    if workload.is_empty() {
        return 0.0;
    }
    debug_assert_eq!(truths.len(), workload.len(), "one truth per query");
    let rects: Vec<Rect> = workload.queries().iter().map(|q| q.rect().clone()).collect();
    let mut estimates = Vec::with_capacity(rects.len());
    estimator.estimate_batch(&rects, &mut estimates);
    debug_assert_eq!(estimates.len(), rects.len(), "estimate_batch contract violation");
    let mut sum = 0.0;
    for ((q, est), truth) in rects.iter().zip(&estimates).zip(truths) {
        debug_assert_eq!(estimator.ndim(), q.ndim());
        sum += (est - truth).abs();
    }
    sum / workload.len() as f64
}

/// Mean Absolute Error over a workload for a *self-tuning* estimator: each
/// query is estimated first, then (unless `refine` is false or the estimator
/// is frozen) its feedback refines the histogram — the paper's simulation
/// loop ("histogram refinement continues during the simulation").
pub fn evaluate_self_tuning(
    estimator: &mut dyn SelfTuning,
    workload: &Workload,
    counter: &dyn RangeCounter,
    refine: bool,
) -> f64 {
    self_tuning_mae(estimator, workload, counter, refine, &mut Vec::new())
}

/// [`evaluate_self_tuning`], also appending each query's truth to `truths`
/// in workload order.
pub(crate) fn self_tuning_mae(
    estimator: &mut dyn SelfTuning,
    workload: &Workload,
    counter: &dyn RangeCounter,
    refine: bool,
    truths: &mut Vec<f64>,
) -> f64 {
    if workload.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0;
    let audit = obs::audit_enabled();
    // One result-set buffer for the whole workload, refilled per query —
    // the simulation loop runs tens of thousands of queries, so per-query
    // row-buffer allocations add up.
    let mut result = ResultSetCounter::empty(1);
    for q in workload.queries() {
        obs::incr(obs::Counter::Queries);
        let truth;
        if refine {
            // Execute the query once: truth comes from that single
            // execution and is handed to the estimator, so nothing
            // downstream re-counts the query against the index.
            if result.refill_from_counter(counter, q.rect()) {
                // Feed the histogram from the result stream — the deployed
                // feedback path, and far cheaper than probing the index for
                // every candidate hole.
                truth = result.total() as f64;
                sum += (estimator.estimate(q.rect()) - truth).abs();
                estimator.refine_with_truth(q.rect(), &result, truth);
            } else {
                truth = counter.count(q.rect()) as f64;
                sum += (estimator.estimate(q.rect()) - truth).abs();
                let memo = QueryTruthMemo { inner: counter, rect: q.rect(), truth: truth as u64 };
                estimator.refine_with_truth(q.rect(), &memo, truth);
            }
            if audit {
                obs::incr(obs::Counter::AuditChecks);
                if let Err(e) = estimator.audit() {
                    panic!(
                        "STH_AUDIT: invariant violation after refining {}: {e}",
                        q.rect()
                    );
                }
            }
        } else {
            truth = counter.count(q.rect()) as f64;
            sum += (estimator.estimate(q.rect()) - truth).abs();
        }
        truths.push(truth);
    }
    sum / workload.len() as f64
}

/// Feedback wrapper for the row-less fallback path: answers a count for
/// the full query rectangle from the already-known truth (drilling's
/// root-level candidate is exactly the query) and delegates every
/// sub-rectangle to the underlying counter. Keeps "one index execution per
/// query" true even when result streams are unavailable.
struct QueryTruthMemo<'a> {
    inner: &'a dyn RangeCounter,
    rect: &'a Rect,
    truth: u64,
}

impl RangeCounter for QueryTruthMemo<'_> {
    fn count(&self, rect: &Rect) -> u64 {
        if rect == self.rect {
            self.truth
        } else {
            self.inner.count(rect)
        }
    }

    fn total(&self) -> u64 {
        self.inner.total()
    }
}

/// The error aggregate was asked to average zero runs/queries.
///
/// Averaging helpers used to divide by the input length unconditionally,
/// so an empty workload (a tenant with no queries, a sweep where every
/// run was filtered out) produced `NaN` — which then silently poisoned
/// every downstream aggregate it was folded into. The explicit error
/// makes the caller decide: skip the row, substitute a documented value,
/// or fail loudly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmptyWorkload;

impl std::fmt::Display for EmptyWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot average an error metric over an empty workload")
    }
}

impl std::error::Error for EmptyWorkload {}

/// Mean of per-run NAE values — the sweep-level aggregate the robustness
/// experiments report. Errors on an empty slice instead of returning the
/// `NaN` a bare `sum / len` would produce (see [`EmptyWorkload`]).
/// Non-finite *inputs* are passed through arithmetic untouched: an ∞ from
/// [`normalized_absolute_error`]'s perfect-H0 branch is a legitimate
/// "infinitely worse" verdict, not poison.
pub fn average_nae(naes: &[f64]) -> Result<f64, EmptyWorkload> {
    if naes.is_empty() {
        return Err(EmptyWorkload);
    }
    Ok(naes.iter().sum::<f64>() / naes.len() as f64)
}

/// Normalized Absolute Error (Eq. 10): the estimator's MAE divided by the
/// MAE of the trivial single-bucket histogram `H0` on the same workload.
/// Values < 1 beat "assume everything is uniform"; the paper plots this.
pub fn normalized_absolute_error(mae: f64, trivial_mae: f64) -> f64 {
    if trivial_mae <= 0.0 {
        // A workload H0 answers perfectly (e.g. truly uniform data): any
        // nonzero error is infinitely worse; zero error matches.
        return if mae <= 0.0 { 0.0 } else { f64::INFINITY };
    }
    mae / trivial_mae
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_baselines::TrivialHistogram;
    use sth_core::build_uninitialized;
    use sth_data::cross::CrossSpec;
    use sth_index::KdCountTree;
    use sth_query::WorkloadSpec;

    #[test]
    fn trivial_has_positive_error_on_clustered_data() {
        let ds = CrossSpec::cross2d().scaled(0.05).generate();
        let tree = KdCountTree::build(&ds);
        let wl = WorkloadSpec { count: 100, ..WorkloadSpec::paper(0.01, 11) }
            .generate(ds.domain(), None);
        let h0 = TrivialHistogram::for_dataset(&ds);
        let err = evaluate_static(&h0, &wl, &tree);
        assert!(err > 0.0);
    }

    #[test]
    fn self_tuning_improves_with_refinement() {
        let ds = CrossSpec::cross2d().scaled(0.05).generate();
        let tree = KdCountTree::build(&ds);
        let spec = WorkloadSpec { count: 400, ..WorkloadSpec::paper(0.01, 13) };
        let wl = spec.generate(ds.domain(), None);
        let (train, sim) = wl.split_train(300);

        // Refined histogram vs the same histogram left untrained.
        let mut trained = build_uninitialized(&ds, 50);
        evaluate_self_tuning(&mut trained, &train, &tree, true);
        let err_trained = evaluate_self_tuning(&mut trained, &sim, &tree, true);

        let mut raw = build_uninitialized(&ds, 50);
        let err_raw = evaluate_self_tuning(&mut raw, &sim, &tree, false);
        assert!(
            err_trained < err_raw,
            "training did not help: {err_trained} vs {err_raw}"
        );
    }

    /// A counter that can count but not materialize rows: forces the
    /// fallback branch of `evaluate_self_tuning`.
    struct RowlessKd<'a>(&'a KdCountTree);
    impl RangeCounter for RowlessKd<'_> {
        fn count(&self, rect: &sth_geometry::Rect) -> u64 {
            self.0.count(rect)
        }
        fn total(&self) -> u64 {
            self.0.total()
        }
    }

    #[test]
    fn one_index_execution_per_query_with_result_streams() {
        // The deployed-cost invariant: each query runs against the index
        // exactly once; drilling and the consistency layer answer from the
        // result stream. Before the truth-plumbing fix, ConsistentStHoles
        // re-counted every query for its constraint target.
        obs::force_metrics(true);
        let ds = CrossSpec::cross2d().scaled(0.05).generate();
        let tree = KdCountTree::build(&ds);
        let wl = WorkloadSpec { count: 40, ..WorkloadSpec::paper(0.01, 21) }
            .generate(ds.domain(), None);
        let mut est = sth_histogram::ConsistentStHoles::new(
            sth_histogram::StHoles::with_total(ds.domain().clone(), 20, ds.len() as f64),
            sth_histogram::ConsistencyConfig::default(),
        );
        let before = obs::snapshot();
        evaluate_self_tuning(&mut est, &wl, &tree, true);
        let d = obs::snapshot().delta(&before);
        assert_eq!(d.get(obs::Counter::Queries), 40);
        assert_eq!(d.get(obs::Counter::IndexProbes), 40, "exactly one probe per query");
        assert!(d.get(obs::Counter::ResultRecounts) > 0, "candidates answered from results");
    }

    #[test]
    fn one_index_execution_per_query_without_result_streams() {
        // Row-less fallback: the truth count is the probe, and the memo
        // answers drilling's full-query candidate — still one per query.
        // (Budget 0 keeps the tree at the root so the only candidate is the
        // query itself; before the fix this path probed twice per query.)
        obs::force_metrics(true);
        let ds = CrossSpec::cross2d().scaled(0.05).generate();
        let tree = KdCountTree::build(&ds);
        let wl = WorkloadSpec { count: 40, ..WorkloadSpec::paper(0.01, 23) }
            .generate(ds.domain(), None);
        let mut est = build_uninitialized(&ds, 0);
        let before = obs::snapshot();
        evaluate_self_tuning(&mut est, &wl, &RowlessKd(&tree), true);
        let d = obs::snapshot().delta(&before);
        assert_eq!(d.get(obs::Counter::IndexProbes), 40, "exactly one probe per query");
    }

    #[test]
    fn audit_mode_checks_every_refinement() {
        obs::force_metrics(true);
        obs::force_audit(true);
        let ds = CrossSpec::cross2d().scaled(0.05).generate();
        let tree = KdCountTree::build(&ds);
        let wl = WorkloadSpec { count: 20, ..WorkloadSpec::paper(0.01, 29) }
            .generate(ds.domain(), None);
        let mut est = build_uninitialized(&ds, 10);
        let before = obs::snapshot();
        evaluate_self_tuning(&mut est, &wl, &tree, true);
        let d = obs::snapshot().delta(&before);
        obs::force_audit(false);
        assert_eq!(d.get(obs::Counter::AuditChecks), 20);
    }

    #[test]
    fn nae_normalization() {
        assert_eq!(normalized_absolute_error(5.0, 10.0), 0.5);
        assert_eq!(normalized_absolute_error(0.0, 0.0), 0.0);
        assert!(normalized_absolute_error(1.0, 0.0).is_infinite());
    }

    #[test]
    fn average_nae_rejects_empty_input_instead_of_nan() {
        // Regression: `sum / len` over zero runs is NaN, and one NaN folded
        // into a sweep aggregate poisons every comparison after it.
        assert_eq!(average_nae(&[]), Err(EmptyWorkload));
        assert!(!EmptyWorkload.to_string().is_empty());
        assert_eq!(average_nae(&[0.5]), Ok(0.5));
        assert_eq!(average_nae(&[1.0, 2.0, 3.0]), Ok(2.0));
        // Legitimate infinities pass through; they are verdicts, not poison.
        assert_eq!(average_nae(&[1.0, f64::INFINITY]), Ok(f64::INFINITY));
    }

    #[test]
    fn empty_workload_is_zero_error() {
        let ds = CrossSpec::cross2d().scaled(0.01).generate();
        let tree = KdCountTree::build(&ds);
        let h0 = TrivialHistogram::for_dataset(&ds);
        let empty = sth_query::Workload::new(vec![]);
        assert_eq!(evaluate_static(&h0, &empty, &tree), 0.0);
    }
}
