//! The simulation loop shared by all experiments.

use std::time::Instant;

use sth_baselines::TrivialHistogram;
use sth_core::{build_initialized, build_uninitialized, InitConfig, InitReport};
use sth_mineclus::{MineClus, MineClusConfig};
use sth_query::{CenterDistribution, SelfTuning, Workload, WorkloadSpec};

use crate::metrics::{evaluate_self_tuning, normalized_absolute_error, self_tuning_mae, static_mae};
use crate::spec::PreparedDataset;

/// Which histogram variant to run.
#[derive(Clone, Debug)]
pub enum Variant {
    /// Plain STHoles learning from scratch — the paper's baseline.
    Uninitialized,
    /// STHoles initialized by subspace clustering — the paper's method.
    Initialized {
        /// MineClus parameters.
        mineclus: MineClusConfig,
        /// Rectangle/order options.
        init: InitConfig,
    },
}

impl Variant {
    /// Default initialized variant (MineClus defaults, extended BRs,
    /// importance order).
    pub fn initialized_default() -> Self {
        Variant::Initialized { mineclus: MineClusConfig::default(), init: InitConfig::default() }
    }

    /// Display label. Compositional: every non-default option contributes
    /// its own tag — `initialized`, `initialized(mbr)`,
    /// `initialized(mbr,reversed)`, … — so sweep tables never collapse two
    /// distinct configurations onto one label.
    pub fn label(&self) -> String {
        match self {
            Variant::Uninitialized => "uninitialized".into(),
            Variant::Initialized { init, .. } => {
                let mut tags: Vec<&str> = Vec::new();
                match init.br_mode {
                    sth_core::BrMode::Extended => {}
                    sth_core::BrMode::Minimal => tags.push("mbr"),
                }
                match init.order {
                    sth_core::InitOrder::Importance => {}
                    sth_core::InitOrder::Reversed => tags.push("reversed"),
                    sth_core::InitOrder::Random(_) => tags.push("random"),
                }
                if tags.is_empty() {
                    "initialized".into()
                } else {
                    format!("initialized({})", tags.join(","))
                }
            }
        }
    }
}

/// One simulation's parameters.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Bucket budget.
    pub buckets: usize,
    /// Training queries.
    pub train: usize,
    /// Simulation (error-measured) queries.
    pub sim: usize,
    /// Query volume fraction (0.01 = the paper's `[1%]`).
    pub volume_frac: f64,
    /// Workload seed.
    pub seed: u64,
    /// Center distribution.
    pub centers: CenterDistribution,
    /// Freeze learning after the training phase (Fig. 17 setup). All other
    /// experiments keep refining during simulation.
    pub freeze_after_training: bool,
    /// Tuples fed to clustering (None = all).
    pub cluster_sample: Option<usize>,
    /// Optional explicit training workload override (for permutation
    /// experiments); `sim` queries are still generated from `seed`.
    pub train_override: Option<Workload>,
}

impl RunConfig {
    /// Paper defaults: 1,000 + 1,000 queries, 1% volume, uniform centers.
    pub fn paper(buckets: usize, seed: u64) -> Self {
        Self {
            buckets,
            train: 1_000,
            sim: 1_000,
            volume_frac: 0.01,
            seed,
            centers: CenterDistribution::Uniform,
            freeze_after_training: false,
            cluster_sample: None,
            train_override: None,
        }
    }
}

/// What one simulation produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Variant label.
    pub variant: String,
    /// Bucket budget used.
    pub buckets: usize,
    /// Mean absolute error on the simulation workload (Eq. 9).
    pub mae: f64,
    /// Normalized absolute error (Eq. 10).
    pub nae: f64,
    /// Wall-clock seconds for clustering (0 for uninitialized).
    pub clustering_secs: f64,
    /// Wall-clock seconds for training + simulation.
    pub sim_secs: f64,
    /// Subspace buckets in the final histogram.
    pub subspace_buckets: usize,
    /// Initialization report, when applicable.
    pub init_report: Option<InitReport>,
    /// Per-run provenance: the exact inputs plus this run's share of the
    /// observability counters (empty when `STH_METRICS`/`STH_TRACE` are off).
    pub provenance: RunProvenance,
}

/// Everything needed to attribute a result to its inputs: the run
/// parameters, a wall-clock breakdown, and the run's counter snapshot.
/// Counters are thread-local and a run executes on one thread, so the
/// snapshot delta contains exactly this run's events — sweeps merge the
/// per-run snapshots in job order, deterministically.
#[derive(Clone, Debug)]
pub struct RunProvenance {
    /// Workload seed.
    pub seed: u64,
    /// Training queries.
    pub train: usize,
    /// Simulation queries.
    pub sim: usize,
    /// Query volume fraction.
    pub volume_frac: f64,
    /// Wall-clock seconds for the training phase.
    pub train_secs: f64,
    /// Wall-clock seconds for the measured simulation phase.
    pub sim_secs: f64,
    /// Counters and stats attributable to this run.
    pub counters: sth_platform::obs::Snapshot,
}

/// Runs one full simulation: build (± initialize), train, then measure the
/// NAE over the simulation workload.
pub fn run_simulation(prep: &PreparedDataset, variant: &Variant, cfg: &RunConfig) -> RunOutcome {
    use sth_platform::obs;

    let data = &*prep.data;
    let counter = &*prep.index;
    let obs_before = obs::snapshot();
    let _span = obs::span("eval.run_simulation");

    // Workload: train prefix + simulation suffix from one generator, as in
    // the paper ("the workload is the same for all histograms").
    let spec = WorkloadSpec {
        count: cfg.train + cfg.sim,
        volume_fraction: cfg.volume_frac,
        centers: cfg.centers,
        seed: cfg.seed,
    };
    let source = match cfg.centers {
        CenterDistribution::Uniform => None,
        CenterDistribution::DataFollowing => Some(data),
    };
    let wl = spec.generate(data.domain(), source);
    let (train, sim) = wl.split_train(cfg.train);
    let train = cfg.train_override.clone().unwrap_or(train);

    // Build.
    let (mut hist, init_report, clustering_secs) = match variant {
        Variant::Uninitialized => (build_uninitialized(data, cfg.buckets), None, 0.0),
        Variant::Initialized { mineclus, init } => {
            let mc = MineClus::new(mineclus.clone());
            let (h, report) =
                build_initialized(data, cfg.buckets, &mc, init, cfg.cluster_sample, counter);
            let secs = report.clustering_secs;
            (h, Some(report), secs)
        }
    };

    // Train + simulate.
    let t0 = Instant::now();
    evaluate_self_tuning(&mut hist, &train, counter, true);
    let train_secs = t0.elapsed().as_secs_f64();
    if cfg.freeze_after_training {
        hist.set_frozen(true);
    }
    let t1 = Instant::now();
    let mut truths = Vec::with_capacity(sim.len());
    let mae = self_tuning_mae(&mut hist, &sim, counter, true, &mut truths);
    let sim_only_secs = t1.elapsed().as_secs_f64();
    let sim_secs = t0.elapsed().as_secs_f64();

    // Normalize by H0 on the same simulation workload, against the truths
    // the loop's own probes returned.
    let h0 = TrivialHistogram::for_dataset(data);
    let trivial_mae = static_mae(&h0, &sim, &truths);
    let nae = normalized_absolute_error(mae, trivial_mae);

    let provenance = RunProvenance {
        seed: cfg.seed,
        train: cfg.train,
        sim: cfg.sim,
        volume_frac: cfg.volume_frac,
        train_secs,
        sim_secs: sim_only_secs,
        counters: obs::snapshot().delta(&obs_before),
    };
    if obs::event_enabled() {
        obs::event(
            "run",
            &[
                ("variant", obs::FieldValue::Str(&variant.label())),
                ("dataset", obs::FieldValue::Str(data.name())),
                ("seed", obs::FieldValue::Int(cfg.seed)),
                ("buckets", obs::FieldValue::Int(cfg.buckets as u64)),
                ("mae", obs::FieldValue::Num(mae)),
                ("nae", obs::FieldValue::Num(nae)),
                ("clustering_secs", obs::FieldValue::Num(clustering_secs)),
                ("train_secs", obs::FieldValue::Num(train_secs)),
                ("sim_secs", obs::FieldValue::Num(sim_only_secs)),
                ("obs", obs::FieldValue::Raw(&provenance.counters.to_json())),
            ],
        );
    }

    RunOutcome {
        variant: variant.label(),
        buckets: cfg.buckets,
        mae,
        nae,
        clustering_secs,
        sim_secs,
        subspace_buckets: hist.subspace_bucket_count(),
        init_report,
        provenance,
    }
}

/// Runs the cartesian product `variants × bucket_counts` in parallel via
/// [`sth_platform::par::scope_map`]: jobs are chunked over a bounded set of
/// scoped threads (`STH_THREADS` overrides the worker count) and results
/// come back in job order.
pub fn sweep(
    prep: &PreparedDataset,
    variants: &[Variant],
    bucket_counts: &[usize],
    base: &RunConfig,
) -> Vec<RunOutcome> {
    let mut jobs: Vec<(Variant, usize)> = Vec::new();
    for v in variants {
        for &b in bucket_counts {
            jobs.push((v.clone(), b));
        }
    }
    let outcomes = sth_platform::par::scope_map(&jobs, |(v, b)| {
        let cfg = RunConfig { buckets: *b, ..base.clone() };
        run_simulation(prep, v, &cfg)
    });
    // Per-worker counters merge in job order — the result is byte-identical
    // regardless of how many threads executed the fan-out.
    if sth_platform::obs::event_enabled() {
        use sth_platform::obs;
        let mut merged = obs::Snapshot::default();
        for o in &outcomes {
            merged.merge(&o.provenance.counters);
        }
        obs::event(
            "sweep",
            &[
                ("jobs", obs::FieldValue::Int(outcomes.len() as u64)),
                ("obs", obs::FieldValue::Raw(&merged.to_json())),
            ],
        );
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DatasetSpec, ExperimentCtx};

    fn tiny_ctx() -> ExperimentCtx {
        ExperimentCtx {
            scale: 0.05,
            train: 60,
            sim: 60,
            buckets: vec![20],
            cluster_sample: None,
            seed: 0xAB,
        }
    }

    #[test]
    fn initialized_beats_uninitialized_on_cross() {
        let ctx = tiny_ctx();
        let prep = ctx.prepare(DatasetSpec::Cross2d);
        let cfg = RunConfig {
            buckets: 20,
            train: ctx.train,
            sim: ctx.sim,
            ..RunConfig::paper(20, ctx.seed)
        };
        let uninit = run_simulation(&prep, &Variant::Uninitialized, &cfg);
        let init = run_simulation(&prep, &Variant::initialized_default(), &cfg);
        assert!(uninit.nae.is_finite() && init.nae.is_finite());
        assert!(
            init.nae < uninit.nae,
            "initialization did not help: init {} vs uninit {}",
            init.nae,
            uninit.nae
        );
        assert!(init.init_report.is_some());
        assert!(uninit.init_report.is_none());
    }

    #[test]
    fn sweep_covers_grid() {
        let ctx = tiny_ctx();
        let prep = ctx.prepare(DatasetSpec::Cross2d);
        let cfg = RunConfig { train: 30, sim: 30, ..RunConfig::paper(10, 1) };
        let out = sweep(
            &prep,
            &[Variant::Uninitialized, Variant::initialized_default()],
            &[10, 20],
            &cfg,
        );
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].variant, "uninitialized");
        assert_eq!(out[0].buckets, 10);
        assert_eq!(out[3].variant, "initialized");
        assert_eq!(out[3].buckets, 20);
    }

    #[test]
    fn freeze_after_training_stops_learning() {
        // One stochastic workload can (rarely) favor the frozen histogram,
        // so the comparison runs over a fixed seed ladder and asserts on
        // the mean with a seeded margin. The same ladder backs the
        // `freeze_is_no_better_on_average` property test.
        let ctx = tiny_ctx();
        let prep = ctx.prepare(DatasetSpec::Cross2d);
        let mut live_sum = 0.0;
        let mut frozen_sum = 0.0;
        for seed in crate::FREEZE_SEED_LADDER {
            let cfg = RunConfig {
                freeze_after_training: true,
                train: 5, // nearly no training
                sim: 60,
                ..RunConfig::paper(20, seed)
            };
            let frozen = run_simulation(&prep, &Variant::Uninitialized, &cfg);
            let live = run_simulation(
                &prep,
                &Variant::Uninitialized,
                &RunConfig { freeze_after_training: false, ..cfg },
            );
            assert!(live.nae.is_finite() && frozen.nae.is_finite());
            live_sum += live.nae;
            frozen_sum += frozen.nae;
        }
        let n = crate::FREEZE_SEED_LADDER.len() as f64;
        // Learning during simulation must help on average compared to
        // frozen-early; the margin absorbs per-seed noise.
        assert!(
            live_sum / n <= frozen_sum / n + 0.02,
            "learning during simulation did not help: live mean {} vs frozen mean {}",
            live_sum / n,
            frozen_sum / n
        );
    }

    #[test]
    fn labels_are_compositional_over_the_full_grid() {
        use sth_core::{BrMode, InitOrder};
        let cases = [
            (BrMode::Extended, InitOrder::Importance, "initialized"),
            (BrMode::Minimal, InitOrder::Importance, "initialized(mbr)"),
            (BrMode::Extended, InitOrder::Reversed, "initialized(reversed)"),
            (BrMode::Minimal, InitOrder::Reversed, "initialized(mbr,reversed)"),
            (BrMode::Extended, InitOrder::Random(3), "initialized(random)"),
            (BrMode::Minimal, InitOrder::Random(3), "initialized(mbr,random)"),
        ];
        let mut seen = std::collections::HashSet::new();
        for (br_mode, order, expected) in cases {
            let v = Variant::Initialized {
                mineclus: MineClusConfig::default(),
                init: InitConfig { br_mode, order, ..InitConfig::default() },
            };
            assert_eq!(v.label(), expected);
            assert!(seen.insert(v.label()), "duplicate label {}", v.label());
        }
        assert_eq!(Variant::Uninitialized.label(), "uninitialized");
    }

    #[test]
    fn run_provenance_carries_counters() {
        sth_platform::obs::force_metrics(true);
        let ctx = tiny_ctx();
        let prep = ctx.prepare(DatasetSpec::Cross2d);
        let cfg = RunConfig { train: 20, sim: 20, ..RunConfig::paper(10, 5) };
        let out = run_simulation(&prep, &Variant::initialized_default(), &cfg);
        let p = &out.provenance;
        assert_eq!(p.seed, 5);
        assert_eq!((p.train, p.sim), (20, 20));
        use sth_platform::obs::Counter;
        assert_eq!(p.counters.get(Counter::Queries), 40);
        assert!(p.counters.get(Counter::IndexProbes) >= 40);
        assert!(p.counters.get(Counter::Drills) > 0);
        assert!(p.counters.get(Counter::ClusterRounds) > 0);
        assert!(p.train_secs >= 0.0 && p.sim_secs >= 0.0);
    }

    #[test]
    fn simulation_probes_each_query_once() {
        // The H0 normalization reuses the simulation loop's truths instead
        // of counting every simulation query against the index again.
        use sth_platform::obs::{self, Counter};
        obs::force_metrics(true);
        let prep = tiny_ctx().prepare(DatasetSpec::Cross2d);
        let cfg = RunConfig { train: 30, sim: 20, ..RunConfig::paper(10, 7) };
        let out = run_simulation(&prep, &Variant::Uninitialized, &cfg);
        assert_eq!(out.provenance.counters.get(Counter::IndexProbes), 50);
        // The normalizer is still H0's error on the simulation workload.
        let wl = WorkloadSpec { count: 50, ..WorkloadSpec::paper(cfg.volume_frac, 7) }
            .generate(prep.data.domain(), None);
        let (_, sim) = wl.split_train(30);
        let h0 = TrivialHistogram::for_dataset(&prep.data);
        let trivial = crate::metrics::evaluate_static(&h0, &sim, &*prep.index);
        assert_eq!(out.nae.to_bits(), normalized_absolute_error(out.mae, trivial).to_bits());
    }
}
