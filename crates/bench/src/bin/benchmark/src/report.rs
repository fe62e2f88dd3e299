//! What a workload run produces, the metric catalogue, and the output
//! formats (a human table and the one-line JSON result).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("query_us", "us"),
    ("nae", "ratio"),
];

/// Per-layer metrics from a traced run: `(name, unit)`. Every workload
/// reports all of them; see [`Outcome::metrics`] for the layers it does
/// not exercise.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("query.generate_s", "s"),
    ("mineclus.cluster_s", "s"),
    ("mineclus.clusters", "count"),
    ("mineclus.trials", "count"),
    ("core.init_s", "s"),
    ("core.fed", "count"),
    ("index.probe_s", "s"),
    ("index.probe_us_p50", "us"),
    ("index.rows_per_query", "count"),
    ("index.probes_per_query", "count"),
    ("sthole.refine_s", "s"),
    ("sthole.refine_us_p50", "us"),
    ("sthole.refine_us_p99", "us"),
    ("sthole.drills_per_query", "count"),
    ("sthole.merges_per_query", "count"),
    ("sthole.heap_rebuilds", "count"),
    ("sthole.estimate_s", "s"),
    ("eval.normalize_s", "s"),
    ("sthole.batch_us_p50", "us"),
    ("sthole.batch_ns_per_query", "ns"),
    ("sthole.kernel_calls_per_service", "count"),
    ("sthole.lanes_pruned_per_query", "count"),
    ("serve.services", "count"),
    ("serve.queries_per_service", "count"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.busy_frac", "ratio"),
    ("serve.queue_us_p50", "us"),
    ("serve.latency_p90_us", "us"),
    ("serve.latency_p99_us", "us"),
    ("snap.pins", "count"),
    ("snap.repin_ns_p50", "ns"),
    ("store.append_us_p50", "us"),
    ("store.flush_ms_p50", "ms"),
    ("store.flushes", "count"),
    ("store.bytes_per_absorb", "bytes"),
    ("store.writes_per_absorb", "count"),
    ("store.open_ms", "ms"),
    ("registry.publish_us_p50", "us"),
    ("registry.shard_publish_frac", "ratio"),
    ("loadgen.late_frac", "ratio"),
    ("loadgen.late_us_p99", "us"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The result of running one workload once.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metric samples (one per in-process repetition) and the
    /// reported value, by name.
    pub e2e: BTreeMap<&'static str, (f64, Vec<f64>)>,
    /// Per-layer values by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted: queries offered, absorbed or simulated.
    pub attempted: u64,
    /// Operations that failed: shed, wrongly answered or unaccounted.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end metric reported as the mean of `samples`.
    pub fn mean(&mut self, name: &'static str, samples: Vec<f64>) {
        self.e2e.insert(name, (stats::mean(&samples), samples));
    }

    /// Records a timing reported as the median of `samples`, every
    /// repetition the run made (of every input). Contention on a shared
    /// host comes in spells that can outlast a run, so the fastest
    /// repetition is as much luck as the rest; the median of many is the
    /// steadier measure.
    pub fn median(&mut self, name: &'static str, samples: Vec<f64>) {
        self.e2e.insert(name, (stats::median(&samples), samples));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    fn e2e_value(&self, name: &str) -> f64 {
        self.e2e.get(name).map_or(f64::NAN, |(v, _)| *v)
    }

    /// `(name, unit, value)` for every metric of the JSON result: the
    /// end-to-end set untraced, the per-layer set traced. A layer the
    /// workload does not exercise reads 0 there, because the result
    /// carries every metric as a number; `render` marks it.
    pub fn metrics(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, self.layers.get(n).copied().unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n, u, self.e2e_value(n)))
                .collect()
        }
    }

    /// Flags every end-to-end metric and every recorded layer value that
    /// is not a finite number (a JSON result can carry only numbers) as a
    /// failed check.
    pub fn check_finite(&mut self) {
        let mut bad: Vec<(&str, f64)> = END_TO_END
            .iter()
            .map(|&(n, _)| (n, self.e2e_value(n)))
            .collect();
        bad.extend(self.layers.iter().map(|(&n, &v)| (n, v)));
        bad.retain(|(_, v)| !v.is_finite());
        for (name, v) in bad {
            self.errors
                .push(format!("metric {name} is not a finite number: {v}"));
        }
    }

    /// Human-readable lines: each end-to-end metric with the median, IQR
    /// and count of its samples (traced runs too, from their untraced
    /// repetitions), then, when traced, each per-layer value.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let mut s = String::new();
        for &(name, unit) in &END_TO_END {
            let value = self.e2e_value(name);
            let _ = write!(s, "{workload:<12} {name:<32} {value:>14.6} {unit:<6}");
            if let Some((_, samples)) = self.e2e.get(name) {
                let median = stats::median(samples);
                let (q1, q3) = stats::quartiles(samples);
                let _ = write!(
                    s,
                    "  samples: median {median:.6} IQR {:.6} ({:.1}%) n={}",
                    q3 - q1,
                    100.0 * (q3 - q1) / median,
                    samples.len()
                );
            }
            s.push('\n');
        }
        for &(name, unit) in PER_LAYER.iter().filter(|_| traced) {
            let _ = match self.layers.get(name) {
                Some(value) => writeln!(s, "{workload:<12} {name:<32} {value:>14.6} {unit}"),
                None => writeln!(
                    s,
                    "{workload:<12} {name:<32} {:>14} (not exercised; 0 in the JSON result)",
                    "n/a"
                ),
            };
        }
        let _ = writeln!(
            s,
            "{workload:<12} attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for e in &self.errors {
            let _ = writeln!(s, "{workload:<12} CHECK FAILED: {e}");
        }
        s
    }
}

/// The one-line JSON result. `metrics` holds `(name, unit, value)`.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, &str, f64)]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // Non-finite values were already flagged as failed checks; JSON has
        // no spelling for them.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_result_has_the_documented_shape() {
        let line = json(
            true,
            1000,
            0,
            &[
                ("latency_ms".into(), "ms", 1.2034),
                ("setup_s".into(), "s", 0.8127),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        // BENCHMARK.json sits at the repository root, five levels up.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = text.matches("\"name\":").count();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        // Workloads are named too.
        for w in crate::Workload::ALL {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name())),
                "{} undeclared",
                w.name()
            );
        }
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + crate::Workload::ALL.len()
        );
        let run_seconds = format!("\"run_seconds\": {},", crate::DEFAULT_SECONDS);
        assert!(
            text.contains(&run_seconds),
            "BENCHMARK.json lacks {run_seconds}"
        );
    }

    #[test]
    fn untouched_layers_read_zero_and_are_marked() {
        let mut o = Outcome::default();
        o.layer("core.fed", 3.0);
        let m = o.metrics(true);
        assert_eq!(m.len(), PER_LAYER.len());
        assert!(m.iter().all(|(n, _, v)| if *n == "core.fed" {
            *v == 3.0
        } else {
            *v == 0.0
        }));
        let text = o.render("w", true);
        assert_eq!(text.matches("not exercised").count(), PER_LAYER.len() - 1);
        o.check_finite();
        assert_eq!(
            o.errors.len(),
            END_TO_END.len(),
            "missing end-to-end metrics are failures; unexercised layers are not"
        );
    }
}
