//! The paper workloads: rounds of `sth_eval::run_simulation` — cluster →
//! initialize → train → simulate → H0 normalization — over a few inputs,
//! and, for checks and tracing, a replica of it built from the same public
//! calls.

use std::time::Instant;

use sth_baselines::TrivialHistogram;
use sth_core::{build_uninitialized, initialize_histogram, InitConfig};
use sth_eval::{
    evaluate_static, normalized_absolute_error, run_simulation, DatasetSpec, ExperimentCtx,
    PreparedDataset, RunConfig, Variant,
};
use sth_histogram::StHoles;
use sth_index::{RangeCounter, ResultSetCounter};
use sth_mineclus::{MineClus, MineClusConfig, SubspaceClustering};
use sth_platform::obs::{self, Counter};
use sth_query::{CardinalityEstimator, SelfTuning, Workload, WorkloadSpec};

use crate::report::Outcome;
use crate::stats;
use crate::trace::{Tracer, NONE};
use crate::{timed, Plan};

/// Rounds an untraced run makes at least: the second checks that a rerun
/// lands on the first one's bits.
const MIN_ROUNDS: usize = 2;

/// Size of one paper workload. A run simulates `inputs` workloads, each
/// of `queries` training plus `queries` simulation queries on its own
/// sub-seed, once per round. Six inputs average out most of the
/// difference between one seed's queries and another's.
#[derive(Clone, Copy, Debug)]
pub struct PaperSpec {
    pub dataset: DatasetSpec,
    /// Tuple-count scale relative to the paper's dataset.
    pub scale: f64,
    pub buckets: usize,
    pub queries: usize,
    pub inputs: usize,
    /// Seconds one untraced round takes on the reference machine; sets
    /// how many rounds fit in `--seconds`.
    pub round_s: f64,
}

/// Gauss 6-d, 11,000 tuples: the paper's headline setting, refine-bound.
pub const GAUSS: PaperSpec = PaperSpec {
    dataset: DatasetSpec::Gauss,
    scale: 0.1,
    buckets: 100,
    queries: 200,
    inputs: 6,
    round_s: 6.0,
};

/// Sky 7-d, about 87,000 tuples: the same pipeline, half of it MineClus
/// and index probes that return thousands of rows.
pub const SKY: PaperSpec = PaperSpec {
    dataset: DatasetSpec::Sky,
    scale: 0.05,
    buckets: 50,
    queries: 300,
    inputs: 6,
    round_s: 9.4,
};

impl PaperSpec {
    fn smoke(self) -> Self {
        Self {
            scale: self.scale * 0.1,
            queries: 40,
            inputs: 2,
            ..self
        }
    }

    fn config(&self, seed: u64) -> RunConfig {
        RunConfig {
            train: self.queries,
            sim: self.queries,
            ..RunConfig::paper(self.buckets, seed)
        }
    }
}

pub fn run(spec: PaperSpec, plan: &Plan) -> Outcome {
    let spec = if plan.smoke { spec.smoke() } else { spec };
    let ctx = ExperimentCtx {
        scale: spec.scale,
        cluster_sample: None,
        ..ExperimentCtx::paper()
    };
    let (prep, setup_s) = timed(|| ctx.prepare(spec.dataset));
    let mut setup_s = vec![setup_s];
    let inputs: Vec<RunConfig> = (0..spec.inputs)
        .map(|i| spec.config(plan.sub_seed(i)))
        .collect();
    let queries = 2 * spec.queries as u64;
    let mut out = Outcome::default();
    let (mut run_s, mut query_us) = (Vec::new(), Vec::new());
    let mut naes = vec![f64::NAN; inputs.len()];
    // A traced run follows each untraced simulation (the overhead
    // baseline, and the end-to-end numbers it prints) with the replica.
    let mut tr = Tracer::new(Instant::now());
    let mut traced_s = Vec::new();
    let mut sum = ReplicaOut::default();
    let rounds = if plan.trace {
        plan.reps(2.0 * spec.round_s, 1)
    } else {
        plan.reps(spec.round_s, MIN_ROUNDS)
    };
    // Every input once per round, so the rounds of one input are spread
    // over the run, and a set-up before each simulation, so the set-ups
    // are spread the same way.
    for round in 0..rounds {
        for (i, cfg) in inputs.iter().enumerate() {
            if round + i > 0 {
                setup_s.push(timed(|| ctx.prepare(spec.dataset)).1);
            }
            let (o, secs) = timed(|| run_simulation(&prep, &Variant::initialized_default(), cfg));
            run_s.push(secs);
            let loop_s = o.provenance.train_secs + o.provenance.sim_secs;
            query_us.push(1e6 * loop_s / queries as f64);
            out.attempted += queries;
            check_nae(&mut out, o.nae, cfg.seed, queries);
            if round == 0 {
                naes[i] = o.nae;
            } else {
                check_same_nae(&mut out, "rerun", o.nae, naes[i], cfg.seed, queries);
            }
            if plan.trace {
                obs::force_metrics(true);
                let (r, secs) = timed(|| replica(&prep, cfg, &mut tr));
                obs::force_metrics(false);
                traced_s.push(secs);
                out.attempted += queries;
                check_same_nae(&mut out, "replica", r.nae, o.nae, cfg.seed, queries);
                sum.add(&r);
            }
        }
    }
    if !plan.trace {
        // The replica goes through each layer's public calls by hand; it
        // must land on the very same bits as the packaged pipeline.
        let r = replica(&prep, &inputs[0], &mut Tracer::new(Instant::now()));
        out.attempted += queries;
        check_same_nae(&mut out, "replica", r.nae, naes[0], inputs[0].seed, queries);
    }
    if plan.trace {
        let runs = (rounds * inputs.len()) as f64;
        layers(&tr, &sum, runs, &mut out);
        out.layer(
            "trace.overhead_frac",
            stats::median(&traced_s) / stats::median(&run_s) - 1.0,
        );
        plan.keep_spans(&tr, &mut out);
    }
    out.median("setup_s", setup_s);
    out.median("run_s", run_s);
    out.median("query_us", query_us);
    out.mean("nae", naes);
    out
}

/// `run_simulation` is deterministic: every path to the same input must
/// land on the same bits.
fn check_same_nae(out: &mut Outcome, what: &str, nae: f64, want: f64, seed: u64, queries: u64) {
    if nae.to_bits() != want.to_bits() {
        out.failed += queries;
        out.errors.push(format!(
            "{what} NAE {nae} != run_simulation NAE {want} (seed {seed:#x})"
        ));
    }
}

fn check_nae(out: &mut Outcome, nae: f64, seed: u64, queries: u64) {
    // An initialized histogram that does not beat the one-bucket H0 is
    // broken, whatever the workload.
    if !(nae.is_finite() && nae > 0.0 && nae < 1.0) {
        out.failed += queries;
        out.errors
            .push(format!("NAE {nae} outside (0, 1) (seed {seed:#x})"));
    }
}

/// The per-layer metrics of `runs` traced replica runs.
fn layers(tr: &Tracer, sum: &ReplicaOut, runs: f64, out: &mut Outcome) {
    let per_run_s = |name: &str| tr.total_ns(name) as f64 * 1e-9 / runs;
    let q = sum.queries as f64;
    out.layer("query.generate_s", per_run_s("query.generate"));
    out.layer("mineclus.cluster_s", per_run_s("mineclus.cluster"));
    out.layer("mineclus.clusters", sum.clusters as f64 / runs);
    out.layer(
        "mineclus.trials",
        sum.cluster_obs.get(Counter::ClusterTrials) as f64 / runs,
    );
    out.layer("core.init_s", per_run_s("core.init"));
    out.layer("core.fed", sum.fed as f64 / runs);
    out.layer("index.probe_s", per_run_s("index.probe"));
    out.layer(
        "index.probe_us_p50",
        stats::quantile(&tr.durations("index.probe"), 0.5) * 1e-3,
    );
    out.layer("index.rows_per_query", sum.rows as f64 / q);
    out.layer(
        "index.probes_per_query",
        sum.feed_obs.get(Counter::IndexProbes) as f64 / q,
    );
    let refine = tr.durations("sthole.refine");
    out.layer("sthole.refine_s", per_run_s("sthole.refine"));
    out.layer("sthole.refine_us_p50", stats::quantile(&refine, 0.5) * 1e-3);
    out.layer(
        "sthole.refine_us_p99",
        stats::quantile(&refine, 0.99) * 1e-3,
    );
    out.layer(
        "sthole.drills_per_query",
        sum.feed_obs.get(Counter::Drills) as f64 / q,
    );
    out.layer(
        "sthole.merges_per_query",
        sum.feed_obs.get(Counter::Merges) as f64 / q,
    );
    out.layer(
        "sthole.heap_rebuilds",
        sum.feed_obs.get(Counter::HeapRebuilds) as f64 / runs,
    );
    out.layer("sthole.estimate_s", per_run_s("sthole.estimate"));
    out.layer("eval.normalize_s", per_run_s("eval.normalize"));
    let (wall, unaccounted) = tr.accounting("paper.run");
    out.layer("trace.unaccounted_frac", unaccounted as f64 / wall as f64);
}

#[derive(Default)]
struct ReplicaOut {
    nae: f64,
    clusters: usize,
    fed: usize,
    queries: u64,
    rows: u64,
    cluster_obs: obs::Snapshot,
    feed_obs: obs::Snapshot,
}

impl ReplicaOut {
    fn add(&mut self, r: &ReplicaOut) {
        self.clusters += r.clusters;
        self.fed += r.fed;
        self.queries += r.queries;
        self.rows += r.rows;
        self.cluster_obs.merge(&r.cluster_obs);
        self.feed_obs.merge(&r.feed_obs);
    }
}

/// `run_simulation` for the initialized default variant, one public call
/// per stage, with a span around each.
fn replica(prep: &PreparedDataset, cfg: &RunConfig, tr: &mut Tracer) -> ReplicaOut {
    let data = &*prep.data;
    let counter = &*prep.index;
    let run = tr.begin("paper.run");
    let wl = WorkloadSpec {
        count: cfg.train + cfg.sim,
        volume_fraction: cfg.volume_frac,
        centers: cfg.centers,
        seed: cfg.seed,
    }
    .generate(data.domain(), None);
    let (train, sim) = wl.split_train(cfg.train);
    tr.stage("query.generate", NONE);

    let obs0 = obs::snapshot();
    tr.skip();
    let clusters = MineClus::new(MineClusConfig::default()).cluster(data);
    tr.stage("mineclus.cluster", NONE);
    let mut hist = build_uninitialized(data, cfg.buckets);
    let fed = initialize_histogram(&mut hist, data, &clusters, &InitConfig::default(), counter);
    tr.stage("core.init", NONE);
    let obs1 = obs::snapshot();
    tr.skip();

    let mut result = ResultSetCounter::empty(1);
    let mut fb = Feedback {
        tr,
        result: &mut result,
        counter,
        next_id: 0,
        rows: 0,
    };
    fb.feed(&mut hist, &train);
    let mae = fb.feed(&mut hist, &sim);
    let (queries, rows) = (u64::from(fb.next_id), fb.rows);
    let obs2 = obs::snapshot();
    tr.skip();

    let trivial_mae = evaluate_static(&TrivialHistogram::for_dataset(data), &sim, counter);
    tr.stage("eval.normalize", NONE);
    tr.end(run);
    ReplicaOut {
        nae: normalized_absolute_error(mae, trivial_mae),
        clusters: clusters.len(),
        fed,
        queries,
        rows,
        cluster_obs: obs1.delta(&obs0),
        feed_obs: obs2.delta(&obs1),
    }
}

/// The feedback loop of `sth_eval::evaluate_self_tuning` (refining, no
/// audit): probe the index once, estimate, refine with the probe's rows.
struct Feedback<'a, 't> {
    tr: &'t mut Tracer,
    result: &'a mut ResultSetCounter,
    counter: &'a dyn RangeCounter,
    next_id: u32,
    rows: u64,
}

impl Feedback<'_, '_> {
    /// Returns the mean absolute error over `wl`, summed in query order.
    fn feed(&mut self, hist: &mut StHoles, wl: &Workload) -> f64 {
        let mut sum = 0.0;
        for q in wl.queries() {
            let id = self.next_id;
            self.next_id += 1;
            let materialized = self.result.refill_from_counter(self.counter, q.rect());
            self.tr.stage("index.probe", id);
            assert!(materialized, "the kd index always materializes result rows");
            let truth = self.result.total() as f64;
            self.rows += self.result.len() as u64;
            let est = hist.estimate(q.rect());
            self.tr.stage("sthole.estimate", id);
            sum += (est - truth).abs();
            hist.refine_with_truth(q.rect(), self.result, truth);
            self.tr.stage("sthole.refine", id);
        }
        sum / wl.len() as f64
    }
}
