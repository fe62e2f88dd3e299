//! Benchmark regression gate: compares a fresh `BENCH_*.json` run against
//! the committed baseline and fails on large median regressions in the
//! hot-path groups.
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json> [max_regression_pct]
//! ```
//!
//! Only the groups in `GATED_GROUPS` are gated — the operations the perf
//! work targets (refine, estimation, serving, the store, MineClus
//! clustering, the k-d index) plus the pinned cost of disabled telemetry;
//! the k-d-tree-vs-scan ablation is informational. The default allowance is 30%: fresh runs
//! come from `STH_BENCH_FAST=1` smoke mode on whatever machine is at hand,
//! so the gate hunts order-of-magnitude regressions (an accidentally
//! quadratic merge scan), not single-digit noise.

use std::process::ExitCode;

use sth_platform::bench::{compare_reports, parse_report};

const GATED_GROUPS: &[&str] = &[
    "refine",
    "estimate",
    "estimate_frozen",
    "batch_kernel",
    "serve_concurrent",
    "serve_engine",
    "registry_route",
    "store_ops",
    "mineclus",
    "index",
    "obs_overhead",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (baseline_path, fresh_path) = match (args.get(1), args.get(2)) {
        (Some(b), Some(f)) => (b, f),
        _ => {
            eprintln!("usage: bench_gate <baseline.json> <fresh.json> [max_regression_pct]");
            return ExitCode::FAILURE;
        }
    };
    let max_regression_pct: f64 = match args.get(3) {
        None => 30.0,
        Some(raw) => match raw.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("bench_gate: bad max_regression_pct {raw:?}");
                return ExitCode::FAILURE;
            }
        },
    };

    let load = |path: &str| -> Result<_, String> {
        let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_report(&json).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };

    let gate = compare_reports(&baseline, &fresh, GATED_GROUPS, max_regression_pct / 100.0);
    for line in &gate.lines {
        println!("bench_gate: {line}");
    }
    if gate.failures.is_empty() {
        println!(
            "bench_gate: OK ({} benchmarks within {max_regression_pct}% of baseline)",
            gate.lines.len()
        );
        ExitCode::SUCCESS
    } else {
        for line in &gate.failures {
            eprintln!("bench_gate: REGRESSION {line}");
        }
        eprintln!("bench_gate: FAILED ({} regressions)", gate.failures.len());
        ExitCode::FAILURE
    }
}
