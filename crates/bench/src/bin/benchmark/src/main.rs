//! End-to-end and per-layer benchmark of the paper pipeline and the
//! serving tier. README.md beside this package lists the workloads and
//! metrics; run it from the repository root with
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--trace-out FILE] [--smoke]
//! ```
//!
//! `BENCHMARK.json`'s runner calls it with `--workload W --seed N
//! --seconds S --trace 0|1`; a bare `--trace` is the same as `--trace 1`.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is 0 only when every
//! check passed and nothing failed.

mod hooks;
mod mixed;
mod paper;
mod read;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use sth_platform::rng::Rng;

/// The repository's experiment seed (`ExperimentCtx::paper().seed`).
const DEFAULT_SEED: u64 = 0xE0;
/// `run_seconds` of `BENCHMARK.json`, which its runner passes as
/// `--seconds`; a test keeps the two equal.
const DEFAULT_SECONDS: f64 = 20.0;
/// Store files go under this directory of the working directory; each run
/// removes its own subdirectory when it ends.
const WORK_DIR: &str = ".bench_work";

const USAGE: &str = "usage: benchmark [--workload paper_gauss|paper_sky|serve_read|serve_mixed] \
                     [--seed N] [--seconds S] [--trace [0|1]] [--trace-out FILE] [--smoke]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperGauss,
    PaperSky,
    ServeRead,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperGauss,
        Workload::PaperSky,
        Workload::ServeRead,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGauss => "paper_gauss",
            Workload::PaperSky => "paper_sky",
            Workload::ServeRead => "serve_read",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    fn run(self, plan: &Plan) -> report::Outcome {
        match self {
            Workload::PaperGauss => paper::run(paper::GAUSS, plan),
            Workload::PaperSky => paper::run(paper::SKY, plan),
            Workload::ServeRead => read::run(plan),
            Workload::ServeMixed => mixed::run(plan),
        }
    }
}

/// `f()` and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// One workload run as the command line asked for it.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub work_dir: PathBuf,
    pub trace_out: Option<PathBuf>,
}

impl Plan {
    /// Repetitions of a measurement whose one repetition takes about
    /// `rep_s` seconds on the reference machine: as many as fit in
    /// `--seconds`, and at least `min`; a smoke run makes `min`. The count
    /// depends on the arguments alone, never on the clock, so a faster or
    /// slower build takes its median out of the same number.
    pub fn reps(&self, rep_s: f64, min: usize) -> usize {
        if self.smoke {
            min
        } else {
            ((self.seconds / rep_s) as usize).max(min)
        }
    }

    /// Seed of input `i`, forked from the run seed.
    pub fn sub_seed(&self, i: usize) -> u64 {
        Rng::seed_from_u64(self.seed).fork(i as u64).next_u64()
    }

    /// Appends the tracer's spans to `--trace-out`, when given.
    pub fn keep_spans(&self, tr: &trace::Tracer, out: &mut report::Outcome) {
        if let Some(path) = &self.trace_out {
            if let Err(e) = tr.write_jsonl(path, self.workload.name()) {
                out.errors
                    .push(format!("writing spans to {}: {e}", path.display()));
            }
        }
    }
}

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        smoke: false,
    };
    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                let w = Workload::ALL.into_iter().find(|w| w.name() == v);
                a.workloads = vec![w.ok_or_else(|| format!("unknown workload {v:?}"))?];
            }
            "--seed" => {
                let v = value("--seed")?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                a.seed = parsed.map_err(|e| format!("bad --seed {v:?}: {e}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            // Bare, or with the runner's explicit 0 or 1.
            "--trace" => {
                a.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    // STH_SERVE_ENGINE=0, STH_SHARD_PUBLISH=0, STH_THREADS, STH_METRICS and
    // the rest all change the program under test.
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("STH_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "benchmark: refusing to run with {} set; STH_* variables change the program under test",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    let many = args.workloads.len() > 1;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for &workload in &args.workloads {
        let plan = Plan {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
            work_dir: work_dir.clone(),
            trace_out: args.trace_out.clone(),
        };
        let t = Instant::now();
        let mut out = workload.run(&plan);
        out.check_finite();
        print!("{}", out.render(workload.name(), args.trace));
        println!(
            "{:<12} took {:.1} s",
            workload.name(),
            t.elapsed().as_secs_f64()
        );
        correct &= out.correct();
        attempted += out.attempted;
        failed += out.failed;
        let prefix = if many {
            format!("{}.", workload.name())
        } else {
            String::new()
        };
        metrics.extend(
            out.metrics(args.trace)
                .into_iter()
                .map(|(n, u, v)| (format!("{prefix}{n}"), u, v)),
        );
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    // Gone only when no other run is using it.
    let _ = std::fs::remove_dir(WORK_DIR);
    println!("{}", report::json(correct, attempted, failed, &metrics));
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_explicit_values_and_bare_flags() {
        let a = args("--workload serve_read --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.trace),
            (vec![Workload::ServeRead], 7, 10.0, false)
        );
        let a = args("--trace 1 --seed 0xE0").unwrap();
        assert_eq!((a.workloads.len(), a.seed, a.trace), (4, 0xE0, true));
        let a = args("--trace --smoke").unwrap();
        assert!(a.trace && a.smoke);
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus").is_err());
    }

    #[test]
    fn repetitions_follow_the_arguments_alone() {
        let mut plan = Plan {
            workload: Workload::PaperGauss,
            seed: 1,
            seconds: 25.0,
            trace: false,
            smoke: false,
            work_dir: PathBuf::new(),
            trace_out: None,
        };
        assert_eq!(plan.reps(3.0, 3), 8);
        assert_eq!(plan.reps(30.0, 3), 3, "at least the minimum");
        plan.smoke = true;
        assert_eq!(plan.reps(0.1, 2), 2, "a smoke run makes the minimum");
    }

    /// Every workload at toy size, untraced and traced, passes every check
    /// and reports every metric.
    #[test]
    fn smoke_run_passes_every_check() {
        let work_dir = PathBuf::from(WORK_DIR).join(format!("test-{}", std::process::id()));
        for trace in [false, true] {
            for workload in Workload::ALL {
                let plan = Plan {
                    workload,
                    seed: 11,
                    seconds: DEFAULT_SECONDS,
                    trace,
                    smoke: true,
                    work_dir: work_dir.clone(),
                    trace_out: None,
                };
                let mut out = workload.run(&plan);
                out.check_finite();
                assert!(
                    out.correct(),
                    "{} (trace {trace}): {:?}",
                    workload.name(),
                    out.errors
                );
                assert_eq!(out.failed, 0, "{}", workload.name());
                assert!(out.attempted > 0, "{}", workload.name());
            }
        }
        let _ = std::fs::remove_dir_all(&work_dir);
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}
