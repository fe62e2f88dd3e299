//! Mergeable log-linear value histograms (HDR-style) for the telemetry
//! tier: latency and size distributions with deterministic merge.
//!
//! [`super::StatAgg`] answers "how many / how big on average"; it cannot
//! answer "what was p99". Serving work is tail-dominated — a mean batch
//! latency hides exactly the stalls that matter — so the serve, store and
//! kernel paths record into *value histograms* instead: fixed log-linear
//! buckets with a bounded relative error, recorded lock-free into
//! thread-local dense arrays (see [`super::record_hist`]) and carried
//! through [`super::Snapshot`]'s `delta`/`merge` provenance machinery as
//! sparse [`ValueHist`]s.
//!
//! ## Bucketing scheme
//!
//! Values are non-negative integers (nanoseconds, lane counts, bytes).
//! The first `2^(SUB_BITS+1)` values get exact unit buckets; above that,
//! each power-of-two octave is split into `2^SUB_BITS` linear sub-buckets,
//! so any recorded value lands in a bucket whose width is at most
//! `value / 2^SUB_BITS` — a ≤ 1/32 (~3.1%) relative error at
//! `SUB_BITS = 5`, uniformly across the whole `u64` range. Bucket indexes
//! are pure functions of the value ([`bucket_index`]) and every bucket
//! knows its inclusive upper bound ([`bucket_high`]), which quantile
//! queries report. Everything is integer arithmetic: merges are `u64`
//! additions, so merge is exactly associative and commutative and a merge
//! of split recordings is bit-identical to recording the whole sequence
//! into one histogram — properties the snapshot proptests pin.

use std::fmt::Write as _;

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` linear
/// buckets, bounding relative error by `2^-SUB_BITS` (~3.1%).
pub const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Total number of buckets needed to cover all of `u64`.
/// Octaves `SUB_BITS..64` each contribute `SUB_COUNT` buckets on top of
/// the `2 * SUB_COUNT` exact unit buckets at the bottom.
pub const N_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_COUNT as usize;

/// Maps a value to its bucket index. Monotone non-decreasing; exact for
/// values below `2 * SUB_COUNT`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 2 * SUB_COUNT {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let octave = msb - SUB_BITS;
        let sub = (v >> octave) - SUB_COUNT;
        (((octave + 1) as usize) << SUB_BITS) + sub as usize
    }
}

/// Inclusive upper bound of bucket `i` — the value quantile queries
/// report for a hit in that bucket.
#[inline]
pub fn bucket_high(i: usize) -> u64 {
    if i < (2 * SUB_COUNT) as usize {
        i as u64
    } else {
        let octave = (i >> SUB_BITS) as u32 - 1;
        let sub = (i as u64 & (SUB_COUNT - 1)) + SUB_COUNT;
        // Saturate at the top octave: bucket N_BUCKETS-1 covers u64::MAX.
        ((sub + 1) << octave).wrapping_sub(1)
    }
}

/// Distribution quantiles every rendering reports, in order.
pub const QUANTILES: [(f64, &str); 4] =
    [(0.50, "p50"), (0.90, "p90"), (0.99, "p99"), (0.999, "p999")];

/// A sparse, mergeable log-linear value histogram.
///
/// Stores only occupied buckets as sorted `(bucket_index, count)` pairs,
/// so a typical latency distribution is a few dozen entries regardless of
/// the dense bucket space. All operations are integer-exact, making
/// `merge` associative/commutative and `delta` invertible (see module
/// docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValueHist {
    buckets: Vec<(u32, u64)>,
}

impl ValueHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a histogram from a value sequence (tests, small local uses).
    pub fn from_values(values: impl IntoIterator<Item = u64>) -> Self {
        let mut h = Self::new();
        for v in values {
            h.record(v);
        }
        h
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of one value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(v) as u32;
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(at) => self.buckets[at].1 += n,
            Err(at) => self.buckets.insert(at, (idx, n)),
        }
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|&(_, c)| c).sum()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Occupied `(bucket_index, count)` pairs, ascending by index.
    pub fn buckets(&self) -> &[(u32, u64)] {
        &self.buckets
    }

    /// Upper bound of the smallest occupied bucket (0 when empty).
    pub fn min(&self) -> u64 {
        self.buckets.first().map_or(0, |&(i, _)| bucket_high(i as usize))
    }

    /// Upper bound of the largest occupied bucket (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets.last().map_or(0, |&(i, _)| bucket_high(i as usize))
    }

    /// Value at quantile `q` in `(0, 1]`: the upper bound of the bucket
    /// containing the rank-`q·count` smallest recording (rank rounded
    /// half-up and clamped to `[1, count]`, computed exactly — see
    /// [`quantile_rank`]). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = quantile_rank(q, total);
        let mut seen = 0;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_high(i as usize);
            }
        }
        self.max()
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Adds another histogram's counts into this one. Exactly associative
    /// and commutative (integer adds on a shared bucket space).
    pub fn merge(&mut self, other: &ValueHist) {
        if other.buckets.is_empty() {
            return;
        }
        let mut out = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        out.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        out.push((ib, cb));
                        b.next();
                    } else {
                        out.push((ia, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&e), None) => {
                    out.push(e);
                    a.next();
                }
                (None, Some(&&e)) => {
                    out.push(e);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = out;
    }

    /// Recordings since `earlier` — a histogram whose buckets are a
    /// subset of this one's counts (the monotone thread-local case).
    /// Bucket-wise saturating subtraction; empty buckets are dropped, so
    /// `earlier.merge(delta)` reproduces `self` exactly.
    pub fn delta(&self, earlier: &ValueHist) -> ValueHist {
        let mut out = Vec::new();
        for &(i, c) in &self.buckets {
            let was = match earlier.buckets.binary_search_by_key(&i, |&(j, _)| j) {
                Ok(at) => earlier.buckets[at].1,
                Err(_) => 0,
            };
            let d = c.saturating_sub(was);
            if d > 0 {
                out.push((i, d));
            }
        }
        ValueHist { buckets: out }
    }

    /// Compact JSON rendering:
    /// `{"count": N, "p50": ..., "p90": ..., "p99": ..., "p999": ..., "max": ...}`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        let _ = write!(s, "{{\"count\": {}", self.count());
        for (q, name) in QUANTILES {
            let _ = write!(s, ", \"{}\": {}", name, self.quantile(q));
        }
        let _ = write!(s, ", \"max\": {}}}", self.max());
        s
    }

    /// One-line human rendering with raw (unitless) values:
    /// `n=… p50=… p90=… p99=… p999=… max=…`.
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(48);
        let _ = write!(s, "n={}", self.count());
        for (q, name) in QUANTILES {
            let _ = write!(s, " {}={}", name, self.quantile(q));
        }
        let _ = write!(s, " max={}", self.max());
        s
    }
}

/// The 1-based rank a quantile query walks to: `q * total` rounded
/// half-up and clamped to `[1, total]`, computed exactly in integer
/// arithmetic. The obvious `(q * total as f64).ceil()` breaks once
/// `total` exceeds 2^53: the product rounds *before* `ceil` sees it, so
/// a merged long-horizon histogram can land a full bucket early.
/// Decomposing `q` into its mantissa and exponent keeps every
/// intermediate exact for all `u64` totals.
fn quantile_rank(q: f64, total: u64) -> u64 {
    // Negated on purpose: NaN takes this branch too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(q > 0.0) {
        return 1; // also absorbs NaN, like the old clamp did
    }
    if q >= 1.0 {
        return total;
    }
    // q = m * 2^e exactly, with e < 0 since 0 < q < 1.
    let bits = q.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64;
    let frac = bits & ((1u64 << 52) - 1);
    let (m, e) = if exp == 0 { (frac, -1074) } else { (frac | (1u64 << 52), exp - 1075) };
    let shift = (-e) as u32; // >= 53 for normal q < 1
    let prod = m as u128 * total as u128; // < 2^117, exact
    let rank = if shift >= 128 {
        // q * total < 2^-11 here: rounds to 0, clamped up below.
        0
    } else {
        (prod + (1u128 << (shift - 1))) >> shift
    };
    rank.clamp(1, total as u128) as u64
}

/// The workspace-wide value-histogram catalogue: one variant per
/// distribution the serving stack tracks. The JSON name is
/// [`HistKind::name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum HistKind {
    /// Wall-clock nanoseconds per `FrozenHistogram::estimate_batch` call.
    BatchEstimateNs,
    /// Wall-clock nanoseconds per `StHoles` refine (drill + compact).
    RefineNs,
    /// Wall-clock nanoseconds per durable delta-log append.
    StoreAppendNs,
    /// Wall-clock nanoseconds per snapshot-generation flush.
    StoreFlushNs,
    /// Wall-clock nanoseconds per cold `Store::open` recovery.
    StoreRecoverNs,
    /// Active query lanes per node visited by the batch kernel.
    KernelNodeLanes,
    /// Queries per served batch (the serve loop's queue-depth proxy).
    ServeBatchFill,
    /// Nanoseconds a request waited in an engine queue before its service
    /// started (offered → popped); the admission-control signal the
    /// deadline check reads.
    ServeQueueNs,
}

impl HistKind {
    /// Every histogram kind, in JSON/report order.
    pub const ALL: [HistKind; 8] = [
        HistKind::BatchEstimateNs,
        HistKind::RefineNs,
        HistKind::StoreAppendNs,
        HistKind::StoreFlushNs,
        HistKind::StoreRecoverNs,
        HistKind::KernelNodeLanes,
        HistKind::ServeBatchFill,
        HistKind::ServeQueueNs,
    ];

    /// Stable snake_case name used in event-log JSON.
    pub const fn name(self) -> &'static str {
        match self {
            HistKind::BatchEstimateNs => "batch_estimate_ns",
            HistKind::RefineNs => "refine_ns",
            HistKind::StoreAppendNs => "store_append_ns",
            HistKind::StoreFlushNs => "store_flush_ns",
            HistKind::StoreRecoverNs => "store_recover_ns",
            HistKind::KernelNodeLanes => "kernel_node_lanes",
            HistKind::ServeBatchFill => "serve_batch_fill",
            HistKind::ServeQueueNs => "serve_queue_ns",
        }
    }
}

pub(super) const N_HISTS: usize = HistKind::ALL.len();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_are_exact_at_the_bottom() {
        for v in 0..(2 * SUB_COUNT) {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_high(v as usize), v);
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut vals: Vec<u64> = Vec::new();
        for shift in 0u32..64 {
            for off in [0u64, 1, 3] {
                vals.push((1u64 << shift).saturating_add(off << shift.saturating_sub(3)));
            }
        }
        vals.sort_unstable();
        vals.dedup();
        let mut prev = 0;
        for &v in &vals {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            assert!(i < N_BUCKETS, "index {i} out of range for {v}");
            let high = bucket_high(i);
            assert!(high >= v, "bucket high {high} below value {v}");
            // Relative error bound: the bucket's width is ≤ v / 2^SUB_BITS.
            assert!(
                high - v <= (v >> SUB_BITS) || v < 2 * SUB_COUNT,
                "bucket too wide at {v}: high {high}"
            );
            prev = i;
        }
        assert!(bucket_index(u64::MAX) < N_BUCKETS);
    }

    #[test]
    fn quantiles_walk_the_distribution() {
        let h = ValueHist::from_values([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(h.count(), 10);
        assert_eq!(h.p50(), 5);
        assert_eq!(h.quantile(0.1), 1);
        assert_eq!(h.p99(), 10);
        assert_eq!(h.max(), 10);
        assert_eq!(h.min(), 1);
        assert_eq!(ValueHist::new().p50(), 0);
    }

    #[test]
    fn quantile_rank_is_exact_beyond_f64_precision() {
        // Two buckets holding 2^62 and 2^62+1 recordings: the true
        // median rank is 2^62 + 1, which lands in the *second* bucket.
        // The old float path computed `0.5 * total as f64`, where
        // `total = 2^63 + 1` rounds to 2^63 — rank 2^62, first bucket.
        let mut h = ValueHist::new();
        h.record_n(1, 1u64 << 62);
        h.record_n(1_000, (1u64 << 62) + 1);
        let total = (1u64 << 63) + 1;
        assert_eq!(h.count(), total);
        let float_rank = ((0.5 * total as f64).ceil() as u64).clamp(1, total);
        assert!(
            float_rank <= 1u64 << 62,
            "f64 rank math no longer collapses at 2^63; refresh this regression"
        );
        assert_eq!(h.p50(), bucket_high(bucket_index(1_000)));
        // Below the split the exact rank stays in the first bucket.
        assert_eq!(h.quantile(0.25), 1);
    }

    #[test]
    fn quantile_rank_rounds_half_up_exactly() {
        assert_eq!(quantile_rank(0.5, 10), 5);
        assert_eq!(quantile_rank(0.1, 10), 1); // 0.1_f64 · 10 = 1 + 2^-52·ε
        assert_eq!(quantile_rank(0.99, 10), 10);
        assert_eq!(quantile_rank(1.0, 7), 7);
        assert_eq!(quantile_rank(f64::MIN_POSITIVE, u64::MAX), 1);
        assert_eq!(quantile_rank(0.999, u64::MAX), 18428297329635842047);
        assert_eq!(quantile_rank(f64::NAN, 5), 1);
    }

    #[test]
    fn merge_of_splits_equals_whole() {
        let all: Vec<u64> = (0..500u64).map(|i| i * i % 7919 + (i << (i % 20))).collect();
        let whole = ValueHist::from_values(all.iter().copied());
        let mut merged = ValueHist::from_values(all[..200].iter().copied());
        merged.merge(&ValueHist::from_values(all[200..].iter().copied()));
        assert_eq!(merged, whole);
    }

    #[test]
    fn delta_then_merge_roundtrips() {
        let earlier = ValueHist::from_values([5, 5, 80, 1_000_000]);
        let mut later = earlier.clone();
        later.record(5);
        later.record(12345);
        let d = later.delta(&earlier);
        assert_eq!(d.count(), 2);
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&d);
        assert_eq!(rebuilt, later);
    }

    #[test]
    fn json_and_render_are_stable() {
        let h = ValueHist::from_values([10, 20, 30]);
        let json = h.to_json();
        assert!(json.starts_with("{\"count\": 3"));
        assert!(json.contains("\"p50\": 20"));
        assert!(h.render().starts_with("n=3 p50=20"));
    }
}
