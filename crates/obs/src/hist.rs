//! Log-bucketed, lock-free, mergeable histograms.
//!
//! The bucket layout is fixed at compile time: [`SUB_BUCKETS`] buckets per
//! octave (powers of two), spanning `2^MIN_EXP ..= 2^MAX_EXP`, plus an
//! underflow and an overflow bucket. Two consequences the rest of the
//! crate leans on:
//!
//! * **bounded relative error** — a bucket's bounds differ by a factor of
//!   `2^(1/8) ≈ 1.09`, so a quantile reported at the geometric midpoint is
//!   within ~4.5% of the true sample value (and exact for a histogram with
//!   a single distinct value, because estimates clamp to the observed
//!   min/max);
//! * **exact merges** — every histogram shares the identical layout, so
//!   merging two snapshots is element-wise addition of counts: merging
//!   window A and window B gives bucket-for-bucket the same histogram as
//!   recording all of A's and B's samples into one histogram.
//!
//! [`Histogram`] is the concurrent form (atomic counters, `&self`
//! recording, safe to share across engine workers); [`HistogramSnapshot`]
//! is the plain-data form used for quantile math and merging (the SLO
//! tracker's windows are snapshots).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Sub-buckets per octave (power of two). 8 gives a `2^(1/8)` bucket
/// growth factor: ≤ ~9% bucket width, ≤ ~4.5% midpoint error.
pub const SUB_BUCKETS: usize = 8;
/// Smallest representable exponent: values below `2^MIN_EXP` (≈ 1e-9,
/// comfortably under a nanosecond when recording seconds) underflow.
const MIN_EXP: i32 = -30;
/// Largest representable exponent: values at or above `2^MAX_EXP`
/// (≈ 1.7e10) overflow.
const MAX_EXP: i32 = 34;
/// Total bucket count: the log-spaced range plus underflow and overflow.
pub const BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize * SUB_BUCKETS + 2;

/// Bucket index for a value. Bucket 0 is underflow (non-positive or tiny
/// values), bucket `BUCKETS - 1` is overflow.
fn bucket_index(value: f64) -> usize {
    let log = value.log2(); // NaN for negative, -inf for 0: both underflow
    if log.is_nan() || log < MIN_EXP as f64 {
        return 0;
    }
    let idx = ((log - MIN_EXP as f64) * SUB_BUCKETS as f64).floor() as usize + 1;
    idx.min(BUCKETS - 1)
}

/// Geometric midpoint of a regular bucket (1 ..= BUCKETS-2).
fn bucket_mid(index: usize) -> f64 {
    let exp = MIN_EXP as f64 + (index as f64 - 0.5) / SUB_BUCKETS as f64;
    exp.exp2()
}

fn atomic_f64_add(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

fn atomic_f64_min(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    while v < f64::from_bits(cur) {
        match bits.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

fn atomic_f64_max(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    while v > f64::from_bits(cur) {
        match bits.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

/// An exemplar: the trace id of one recent sample in a bucket, linking a
/// histogram's tail back to a kept trace in the tail sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// 128-bit trace id of the exemplified request.
    pub trace_id: u128,
    /// The recorded sample value (e.g. latency in seconds).
    pub value: f64,
}

impl Exemplar {
    /// The trace id as the 32-char lowercase hex used in expositions.
    pub fn trace_hex(&self) -> String {
        multidim_trace::trace_id_hex(self.trace_id)
    }
}

/// A thread-safe log-bucketed histogram. Recording is lock-free
/// (`&self`, relaxed atomics); reading goes through [`Histogram::snapshot`].
/// Exemplars (one recent traced sample per bucket) sit behind a single
/// mutex taken only on the [`Histogram::record_with_exemplar`] path.
pub struct Histogram {
    counts: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    exemplars: Mutex<std::collections::BTreeMap<usize, Exemplar>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("sum", &s.sum())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        // `[AtomicU64; BUCKETS]` has no Default for large N; build by hand.
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let counts: Box<[AtomicU64; BUCKETS]> = counts
            .into_boxed_slice()
            .try_into()
            .expect("length matches BUCKETS");
        Histogram {
            counts,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            exemplars: Mutex::new(std::collections::BTreeMap::new()),
        }
    }

    /// Record one sample. NaN samples are ignored; non-positive samples
    /// land in the underflow bucket.
    pub fn record(&self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, value);
        atomic_f64_min(&self.min_bits, value);
        atomic_f64_max(&self.max_bits, value);
    }

    /// Record one sample that belongs to a kept trace: like
    /// [`Histogram::record`], and additionally remembers `trace_id` as
    /// the exemplar for the sample's bucket (latest write wins). Callers
    /// should only pass ids of traces the tail sampler *kept*, so every
    /// published exemplar resolves to a stored trace.
    pub fn record_with_exemplar(&self, value: f64, trace_id: u128) {
        if value.is_nan() {
            return;
        }
        self.record(value);
        let bucket = bucket_index(value);
        self.exemplars
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(bucket, Exemplar { trace_id, value });
    }

    /// The exemplar stored for `bucket`, if any.
    pub fn exemplar(&self, bucket: usize) -> Option<Exemplar> {
        self.exemplars
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&bucket)
            .copied()
    }

    /// Every stored exemplar as `(bucket, exemplar)`, ascending bucket.
    pub fn exemplars(&self) -> Vec<(usize, Exemplar)> {
        self.exemplars
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(b, e)| (*b, *e))
            .collect()
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A plain-data copy for quantile math and merging. Concurrent
    /// recorders may land between field reads; each field is individually
    /// consistent, which is all quantile estimation needs.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: counts.iter().sum(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            counts,
        }
    }

    /// Estimated quantile (`q` in `[0, 1]`) of everything recorded so
    /// far; `None` when empty. Shorthand for `snapshot().quantile(q)`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }
}

/// Plain-data histogram state: bucket counts plus exact count/sum/min/max.
/// Produced by [`Histogram::snapshot`] or built up directly with
/// [`HistogramSnapshot::record`]; merge freely — all snapshots share one
/// bucket layout.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::new()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn new() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample (single-threaded counterpart of
    /// [`Histogram::record`]).
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all samples, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The raw bucket counts (length [`BUCKETS`]): underflow, the
    /// log-spaced range, overflow.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Fold another snapshot into this one. Identical layouts make this
    /// exact: the result is bucket-for-bucket what one histogram over the
    /// union of both sample sets would hold.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimated quantile (`q` in `[0, 1]`, clamped): the sample at rank
    /// `round(q * (count - 1))`, reported at its bucket's geometric
    /// midpoint and clamped to the observed `[min, max]`. `None` when the
    /// snapshot is empty.
    ///
    /// The clamp makes degenerate cases exact: a single sample (or any
    /// all-equal sample set) reports the sample itself at every quantile,
    /// and the extremes (`q = 0`, `q = 1`) report exact min/max.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count as f64 - 1.0)).round() as u64;
        if rank == 0 {
            return Some(self.min);
        }
        if rank == self.count - 1 {
            return Some(self.max);
        }
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                let est = if i == 0 {
                    self.min // underflow: no midpoint, use the exact floor
                } else if i == BUCKETS - 1 {
                    self.max // overflow: use the exact ceiling
                } else {
                    bucket_mid(i)
                };
                return Some(est.clamp(self.min, self.max));
            }
        }
        Some(self.max) // unreachable if counts is consistent with count
    }

    /// The bucket index holding the sample at quantile `q` — the bucket
    /// whose exemplar (if any) exemplifies that quantile. `None` when
    /// empty. Uses the same rank rule as [`HistogramSnapshot::quantile`].
    pub fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count as f64 - 1.0)).round() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                return Some(i);
            }
        }
        None // unreachable if counts is consistent with count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count(), 0);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let h = Histogram::new();
        h.record(0.00137);
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), Some(0.00137), "q={q}");
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.sum(), 0.00137);
        assert_eq!(s.min(), Some(0.00137));
        assert_eq!(s.max(), Some(0.00137));
    }

    #[test]
    fn quantiles_are_within_bucket_error() {
        // Uniform 1..=1000: every estimate must be within the bucket
        // growth factor of the true order statistic.
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let s = h.snapshot();
        let tol = 2f64.powf(1.0 / SUB_BUCKETS as f64); // one bucket width
        for (q, truth) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let est = s.quantile(q).unwrap();
            assert!(
                est / truth < tol && truth / est < tol,
                "q={q}: est {est} vs truth {truth}"
            );
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(1000.0));
    }

    #[test]
    fn bucket_boundaries_are_stable() {
        // Exact powers of two sit on bucket boundaries; they must land in
        // the bucket whose lower bound they are, and the estimate must
        // stay within one bucket of the value.
        for exp in [-20i32, -8, -1, 0, 1, 10, 30] {
            let v = (exp as f64).exp2();
            let idx = bucket_index(v);
            assert!(idx > 0 && idx < BUCKETS - 1, "2^{exp} in range");
            // The next representable value below must land one bucket down.
            let below = v * (1.0 - 1e-12);
            assert_eq!(bucket_index(below), idx - 1, "2^{exp} is a lower bound");
            let h = Histogram::new();
            h.record(v);
            h.record(v);
            let est = h.quantile(0.5).unwrap();
            assert_eq!(est, v, "all-equal clamps to the exact value");
        }
    }

    #[test]
    fn underflow_and_overflow_are_counted_and_clamped() {
        let h = Histogram::new();
        h.record(0.0); // underflow
        h.record(-5.0); // underflow
        h.record(1e300); // overflow
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.quantile(0.0), Some(-5.0));
        assert_eq!(s.quantile(1.0), Some(1e300));
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn merge_equals_merged_samples() {
        // Two windows merged must be bucket-for-bucket identical to one
        // histogram over the concatenated samples (exact, not approximate).
        let a_samples: Vec<f64> = (1..=500).map(|i| i as f64 * 0.37).collect();
        let b_samples: Vec<f64> = (1..=700).map(|i| i as f64 * 1.13).collect();
        let mut a = HistogramSnapshot::new();
        let mut b = HistogramSnapshot::new();
        let mut all = HistogramSnapshot::new();
        for &v in &a_samples {
            a.record(v);
            all.record(v);
        }
        for &v in &b_samples {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.bucket_counts(), all.bucket_counts());
        assert_eq!(merged.count(), all.count());
        assert_eq!(merged.min(), all.min());
        assert_eq!(merged.max(), all.max());
        // Sums agree up to float addition order.
        assert!((merged.sum() - all.sum()).abs() < 1e-6 * all.sum().abs());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(merged.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn exemplars_track_buckets_latest_wins() {
        let h = Histogram::new();
        assert!(h.exemplars().is_empty());
        h.record(0.010); // no exemplar: plain record
        h.record_with_exemplar(0.010, 0xaaaa);
        h.record_with_exemplar(0.010, 0xbbbb); // same bucket: replaces
        h.record_with_exemplar(0.080, 0xcccc); // different bucket
        let ex = h.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].1.trace_id, 0xbbbb);
        assert_eq!(ex[0].1.value, 0.010);
        assert_eq!(ex[1].1.trace_id, 0xcccc);
        assert_eq!(h.exemplar(ex[1].0).unwrap().trace_id, 0xcccc);
        assert_eq!(h.exemplar(0), None);
        // The p99 bucket's exemplar resolves to the tail sample.
        let s = h.snapshot();
        let p99_bucket = s.quantile_bucket(0.99).unwrap();
        assert_eq!(h.exemplar(p99_bucket).unwrap().trace_id, 0xcccc);
        assert_eq!(ex[1].1.trace_hex(), format!("{:032x}", 0xcccc_u128));
    }

    #[test]
    fn quantile_bucket_matches_quantile_estimate() {
        let mut s = HistogramSnapshot::new();
        assert_eq!(s.quantile_bucket(0.5), None);
        for i in 1..=1000 {
            s.record(i as f64 * 0.001);
        }
        for q in [0.5, 0.9, 0.99] {
            let bucket = s.quantile_bucket(q).unwrap();
            let est = s.quantile(q).unwrap();
            // The reported quantile lies inside (or clamps against) the
            // bucket the index points to.
            assert!(bucket > 0 && bucket < BUCKETS - 1);
            let width = 2f64.powf(1.0 / SUB_BUCKETS as f64);
            assert!(est / bucket_mid(bucket) <= width && bucket_mid(bucket) / est <= width);
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        h.record((t * 1000 + i) as f64 + 0.5);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 8000);
        assert_eq!(snap.min(), Some(0.5));
        assert_eq!(snap.max(), Some(7999.5));
    }
}
