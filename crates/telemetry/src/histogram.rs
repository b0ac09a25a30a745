//! Log-bucketed histograms with exact count/sum/min/max and
//! approximate percentiles.
//!
//! Values are `u64` (the pipeline records nanoseconds and iteration
//! counts). Buckets follow an HDR-style layout: values below 8 get
//! exact unit buckets; every power-of-two octave above that is split
//! into 8 sub-buckets, bounding the relative quantile error at one
//! part in eight (~12 % worst case, ~6 % expected) while keeping the
//! whole `u64` range addressable with [`N_BUCKETS`] slots. Recording
//! is lock-free (relaxed atomics); snapshots are cheap copies whose
//! differences isolate what was recorded between them.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` slots.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;

/// Total bucket count covering the full `u64` range: `SUBS` unit
/// buckets plus `SUBS` per octave for exponents `SUB_BITS..=63`.
pub const N_BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// Maps a value to its bucket.
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = ((v >> (exp - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    SUBS + (exp - SUB_BITS) as usize * SUBS + sub
}

/// Inclusive lower bound of a bucket.
fn bucket_lower(index: usize) -> u64 {
    if index < SUBS {
        return index as u64;
    }
    let i = index - SUBS;
    let exp = (i / SUBS) as u32 + SUB_BITS;
    let sub = (i % SUBS) as u64;
    (1u64 << exp) + (sub << (exp - SUB_BITS))
}

/// Inclusive upper bound of a bucket.
fn bucket_upper(index: usize) -> u64 {
    if index + 1 < N_BUCKETS {
        bucket_lower(index + 1) - 1
    } else {
        u64::MAX
    }
}

/// A concurrent histogram; see the module docs for the bucket layout.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records `n` observations of the same value `v` (a batch whose
    /// members share one measurement). `n == 0` records nothing.
    /// Separate from [`record`](Histogram::record), which stays a leaf
    /// the compiler inlines into the detector's hot path.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        // Wraps like `n` single records would.
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Adds everything `local` recorded since its last publish and
    /// empties it: the same end state as recording each of its
    /// observations here, for one atomic update per touched bucket
    /// plus four instead of five per observation.
    pub fn absorb(&self, local: &mut LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for (shared, own) in self.buckets[local.lo..=local.hi]
            .iter()
            .zip(&mut local.buckets[local.lo..=local.hi])
        {
            let n = std::mem::take(own);
            if n > 0 {
                shared.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        self.min.fetch_min(local.min, Ordering::Relaxed);
        self.max.fetch_max(local.max, Ordering::Relaxed);
        local.clear_totals();
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy for querying.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A single-owner histogram with [`Histogram`]'s bucket layout and
/// plain integers instead of atomics: one thread records into it and
/// publishes the batch through [`Histogram::absorb`].
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// The lowest and highest bucket recorded since the last publish,
    /// so a publish visits only the buckets that can be nonzero.
    lo: usize,
    hi: usize,
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram::new()
    }
}

impl LocalHistogram {
    /// An empty histogram.
    pub fn new() -> LocalHistogram {
        let mut h = LocalHistogram {
            buckets: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            lo: 0,
            hi: 0,
        };
        h.clear_totals();
        h
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        let i = bucket_index(v);
        self.buckets[i] += 1;
        self.count += 1;
        // Wraps like the shared histogram's atomic sum.
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.lo = self.lo.min(i);
        self.hi = self.hi.max(i);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Observations recorded since the last publish.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Resets everything but the buckets, which `absorb` zeroes as it
    /// drains them.
    fn clear_totals(&mut self) {
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.lo = N_BUCKETS - 1;
        self.hi = 0;
    }
}

/// An immutable copy of a [`Histogram`]; supports percentile queries
/// and differences.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, if any observations were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`q` in `[0, 1]`), or `None` when empty.
    ///
    /// Interpolates linearly within the bucket holding the requested
    /// rank (observations are assumed uniform inside a bucket), then
    /// clamps into `[min, max]` — so a single-sample histogram answers
    /// every quantile exactly, extreme quantiles never overshoot an
    /// observed value, and mid-range quantiles of smooth data land
    /// well inside the bucket's relative-error bound instead of
    /// snapping to its midpoint.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are tracked exactly; don't pay bucket
        // resolution for them.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // `rank` is the `into`-th of `c` observations inside
                // this bucket; place it fractionally along the
                // bucket's value range.
                let into = rank - (seen - c);
                let lo = bucket_lower(i) as f64;
                let width = (bucket_upper(i) - bucket_lower(i)) as f64;
                let v = lo + width * (into as f64 / c as f64);
                return Some((v.round() as u64).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median.
    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<u64> {
        self.percentile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }

    /// Approximate number of observations at or below `threshold`
    /// (observations are assumed uniform inside the straddling
    /// bucket). This is what an SLO evaluator reads as its "good"
    /// count from a latency histogram.
    pub fn count_le(&self, threshold: u64) -> u64 {
        let idx = bucket_index(threshold);
        let mut total: u64 = self.buckets[..idx].iter().sum();
        let c = self.buckets[idx];
        if c > 0 {
            let lo = bucket_lower(idx);
            let span = (bucket_upper(idx) - lo + 1) as f64;
            let frac = (threshold - lo + 1) as f64 / span;
            total += (c as f64 * frac).round() as u64;
        }
        total.min(self.count)
    }

    /// The element-wise difference `self − earlier`, for two snapshots
    /// of the *same cumulative histogram* taken at different moments:
    /// the result describes only the observations recorded in between.
    /// Buckets, count and sum subtract saturating (a reset in between
    /// collapses toward empty instead of wrapping); min/max are
    /// re-derived from the surviving buckets at bucket resolution.
    pub fn saturating_sub(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(&earlier.buckets)
            .map(|(&a, &b)| a.saturating_sub(b))
            .collect();
        let count = self.count.saturating_sub(earlier.count);
        if count == 0 {
            return HistogramSnapshot::empty();
        }
        let first = buckets.iter().position(|&c| c > 0);
        let last = buckets.iter().rposition(|&c| c > 0);
        let (min, max) = match (first, last) {
            (Some(f), Some(l)) => (bucket_lower(f).max(self.min), bucket_upper(l).min(self.max)),
            _ => (self.min, self.max),
        };
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            min,
            max,
        }
    }

    /// Cumulative bucket counts as `(upper_bound, cumulative_count)`
    /// pairs, one per non-empty bucket, ascending — the shape a
    /// Prometheus `_bucket{le=...}` series wants.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut cum = 0u64;
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                cum += c;
                (bucket_upper(i), cum)
            })
            .collect()
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_exhaustive() {
        // Lower bounds strictly increase and indices round-trip.
        let mut prev = None;
        for i in 0..N_BUCKETS {
            let lo = bucket_lower(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            if let Some(p) = prev {
                assert!(lo > p);
            }
            prev = Some(lo);
        }
        for v in [0, 1, 7, 8, 9, 15, 16, 100, 1_000_000, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v);
            if i + 1 < N_BUCKETS {
                assert!(v < bucket_lower(i + 1));
            }
        }
    }

    #[test]
    fn record_n_equals_n_single_records() {
        let (batched, single) = (Histogram::new(), Histogram::new());
        for (v, n) in [(5u64, 3u64), (1_000, 32), (77, 0), (9, 1)] {
            batched.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
        }
        assert_eq!(batched.snapshot(), single.snapshot());
        assert_eq!(batched.count(), 36);
        assert_eq!(batched.snapshot().min(), Some(5), "n == 0 left no trace");
    }

    #[test]
    fn absorb_equals_recording_directly() {
        let (published, direct) = (Histogram::new(), Histogram::new());
        let mut local = LocalHistogram::new();
        // Nothing recorded: absorbing is a no-op, min/max untouched.
        published.absorb(&mut local);
        assert_eq!(published.snapshot(), direct.snapshot());
        for batch in [&[3u64, 900, 900, 7][..], &[], &[u64::MAX, 0, 12_345], &[42]] {
            for &v in batch {
                local.record(v);
                direct.record(v);
            }
            assert_eq!(local.count(), batch.len() as u64);
            published.absorb(&mut local);
            assert_eq!(local.count(), 0, "absorb drains the local histogram");
            assert_eq!(published.snapshot(), direct.snapshot());
        }
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new().snapshot();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn single_sample_answers_all_quantiles_exactly() {
        let h = Histogram::new();
        h.record(12_345);
        let s = h.snapshot();
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.percentile(q), Some(12_345), "q={q}");
        }
        assert_eq!(s.min(), Some(12_345));
        assert_eq!(s.max(), Some(12_345));
        assert_eq!(s.mean(), Some(12_345.0));
    }

    #[test]
    fn percentiles_track_uniform_data_within_bucket_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for (q, expect) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = s.percentile(q).unwrap() as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.15, "q={q}: got {got}, want ~{expect}");
        }
        assert_eq!(s.percentile(1.0), Some(10_000));
        assert_eq!(s.percentile(0.0), Some(1));
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(0.0), Some(0));
        assert_eq!(s.percentile(1.0), Some(7));
        assert_eq!(s.p50(), Some(3));
    }

    #[test]
    fn interpolated_percentiles_pin_exact_quantiles() {
        // Uniform 1..=10_000: the exact q-quantile is q·10_000. With
        // within-bucket linear interpolation P50 must land essentially
        // on the exact value (the old bucket-midpoint rule was ~2.7 %
        // off here) and P99 within the partially-filled-bucket error.
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.p50().unwrap() as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.005, "p50 = {p50}");
        let p99 = s.percentile(0.99).unwrap() as f64;
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.02, "p99 = {p99}");
        let p90 = s.p90().unwrap() as f64;
        assert!((p90 - 9_000.0).abs() / 9_000.0 < 0.01, "p90 = {p90}");

        // A skewed two-cluster distribution: 99 fast + 1 slow. The
        // 0.5-quantile must stay in the fast cluster, the 0.995 one in
        // the slow observation.
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        let p50 = s.p50().unwrap();
        assert!((900..=1_100).contains(&p50), "p50 = {p50}");
        assert_eq!(s.percentile(0.995), Some(1_000_000));
    }

    #[test]
    fn count_le_tracks_thresholds() {
        let h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count_le(u64::MAX), 1_000);
        assert_eq!(s.count_le(0), 0);
        for t in [100u64, 250, 500, 900] {
            let got = s.count_le(t) as f64;
            assert!(
                (got - t as f64).abs() / t as f64 <= 0.15,
                "count_le({t}) = {got}"
            );
        }
    }

    #[test]
    fn saturating_sub_isolates_the_delta() {
        let h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let before = h.snapshot();
        for v in [500u64, 600] {
            h.record(v);
        }
        let delta = h.snapshot().saturating_sub(&before);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum(), 1_100);
        assert!(delta.min().unwrap() <= 500);
        assert!(delta.max().unwrap() >= 600 || delta.max().unwrap() <= before.max);
        // Nothing new → empty delta; reversed order saturates empty.
        let same = h.snapshot().saturating_sub(&h.snapshot());
        assert_eq!(same.count(), 0);
        let reversed = before.saturating_sub(&h.snapshot());
        assert_eq!(reversed.count(), 0);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_total() {
        let h = Histogram::new();
        for v in [1u64, 5, 5, 100, 10_000] {
            h.record(v);
        }
        let cum = h.snapshot().cumulative_buckets();
        assert_eq!(cum.last().unwrap().1, 5);
        let mut prev = (0u64, 0u64);
        for &(le, c) in &cum {
            assert!(le > prev.0 && c >= prev.1, "{cum:?}");
            prev = (le, c);
        }
    }
}
