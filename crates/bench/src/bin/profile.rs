//! Phase-level timing breakdown of one simulation (development tool).
//!
//! ```text
//! cargo run -p sth-bench --release --bin profile -- [scale] [queries] [buckets]
//! ```

use std::time::Instant;

use sth_core::build_uninitialized;
use sth_data::sky::SkySpec;
use sth_index::{KdCountTree, RangeCounter, ResultSetCounter};
use sth_query::{CardinalityEstimator, WorkloadSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(0.05);
    let queries: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100);
    let buckets: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100);

    let t = Instant::now();
    let data = SkySpec::scaled(scale).generate();
    println!("generate: {:>8.3}s ({} tuples)", t.elapsed().as_secs_f64(), data.len());

    let t = Instant::now();
    let index = KdCountTree::build(&data);
    println!("index:    {:>8.3}s", t.elapsed().as_secs_f64());

    let wl = WorkloadSpec { count: queries, ..WorkloadSpec::paper(0.01, 1) }
        .generate(data.domain(), None);

    let t = Instant::now();
    let mut total = 0u64;
    for q in wl.queries() {
        total += index.count(q.rect());
    }
    println!("kd count: {:>8.3}s ({queries} queries, avg result {})", t.elapsed().as_secs_f64(), total / queries as u64);

    let t = Instant::now();
    let mut rows_total = 0usize;
    for q in wl.queries() {
        rows_total += ResultSetCounter::from_counter(&index, q.rect()).unwrap().len();
    }
    println!("collect:  {:>8.3}s ({rows_total} rows)", t.elapsed().as_secs_f64());

    let mut hist = build_uninitialized(&data, buckets);
    let mut t_estimate = 0.0;
    let mut t_collect = 0.0;
    let mut t_drill = 0.0;
    let mut t_merge = 0.0;
    for q in wl.queries() {
        let t = Instant::now();
        let _ = hist.estimate(q.rect());
        t_estimate += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let result = ResultSetCounter::from_counter(&index, q.rect()).unwrap();
        t_collect += t.elapsed().as_secs_f64();
        let t = Instant::now();
        hist.drill_only(q.rect(), &result);
        t_drill += t.elapsed().as_secs_f64();
        let t = Instant::now();
        hist.compact_now();
        t_merge += t.elapsed().as_secs_f64();
    }
    println!("estimate: {:>8.3}s", t_estimate);
    println!("collect2: {:>8.3}s", t_collect);
    println!("drill:    {:>8.3}s", t_drill);
    println!("merge:    {:>8.3}s", t_merge);
    println!("buckets:  {}", hist.bucket_count());
}
