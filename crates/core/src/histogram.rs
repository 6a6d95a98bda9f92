//! Lock-free log-bucketed latency histograms — the always-on substrate for
//! the invocation-lifecycle observability layer.
//!
//! Each [`Histogram`] is a fixed-size array of relaxed atomics: recording a
//! sample is a handful of `fetch_add`/`fetch_min`/`fetch_max` operations
//! with no allocation, no locks, and no fences, so it is safe to leave on
//! the hot path (workers record one batch per completed invocation).
//! Workers write to per-worker *shards* ([`PhaseHistograms`] instances);
//! readers merge shard [`HistogramSnapshot`]s, which is where all the
//! (cheap, non-hot-path) aggregation happens.
//!
//! Bucketing: values 0..15 ns get exact unit buckets; above that each
//! power-of-two octave is split into 4 sub-buckets (2 significant bits),
//! bounding the relative quantile error at 25 % while covering the full
//! `u64` nanosecond range in [`BUCKETS`] = 256 slots.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets in every histogram: 16 unit buckets + 60 octaves × 4
/// sub-buckets.
pub const BUCKETS: usize = 256;

/// The bucket index a value lands in.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns < 16 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros() as usize; // >= 4
    let sub = ((ns >> (octave - 2)) & 3) as usize;
    (octave - 4) * 4 + sub + 16
}

/// The inclusive `[lo, hi]` value range covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS);
    if i < 16 {
        return (i as u64, i as u64);
    }
    let b = i - 16;
    let octave = b / 4 + 4;
    let sub = (b % 4) as u64;
    let width = 1u64 << (octave - 2);
    let lo = (1u64 << octave) + sub * width;
    (lo, lo + (width - 1))
}

/// A lock-free histogram of nanosecond values.
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// Record one sample. Hot path: five relaxed atomic RMWs, nothing else.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.counts[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// A point-in-time copy. Concurrent recording may tear between fields
    /// (`count` can lag a bucket increment by one sample); merged totals
    /// are exact once writers quiesce.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (dst, src) in counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A mergeable point-in-time copy of a [`Histogram`] (or of several merged
/// shards).
#[derive(Clone, Copy)]
pub struct HistogramSnapshot {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .finish_non_exhaustive()
    }
}

impl PartialEq for HistogramSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.counts == other.counts
    }
}

impl Eq for HistogramSnapshot {}

impl HistogramSnapshot {
    /// Fold another snapshot (e.g. a sibling worker shard) into this one.
    /// Merging is commutative and associative: any merge order over the
    /// same shard set produces the identical snapshot.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (ns).
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values (ns), or `None` if empty.
    pub fn mean(&self) -> Option<u64> {
        self.sum.checked_div(self.count)
    }

    /// Estimated `q`-quantile in nanoseconds (`q` in `[0, 1]`): the upper
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`, clamped into `[min, max]` so the estimate can
    /// never leave the range of genuinely recorded values. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = bucket_bounds(i);
                return hi.clamp(self.min, self.max);
            }
        }
        // Tearing during a live snapshot can leave count > Σcounts; fall
        // back to the observed maximum.
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        // Every bucket's range is non-empty, contiguous with its neighbour,
        // and maps back to itself through bucket_of.
        let mut expect_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect_lo, "bucket {i} not contiguous");
            assert!(hi >= lo);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
            expect_lo = hi.wrapping_add(1);
        }
        assert_eq!(expect_lo, 0, "last bucket must end at u64::MAX");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn recorded_values_land_in_their_bucket() {
        // Deterministic pseudo-random sample set (no external crates): the
        // same splitmix-style generator the fault plan uses.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x
        };
        let h = Histogram::default();
        for _ in 0..10_000 {
            let v = next() >> (next() % 60); // cover many magnitudes
            let b = bucket_of(v);
            let (lo, hi) = bucket_bounds(b);
            assert!((lo..=hi).contains(&v), "{v} outside bucket {b}");
            h.record(v);
        }
        assert_eq!(h.snapshot().count(), 10_000);
    }

    #[test]
    fn quantiles_bounded_by_min_and_max() {
        let h = Histogram::default();
        let values = [3u64, 17, 17, 90, 1_000, 12_345, 999_999_999];
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        // The top bucket's bound is clamped to the recorded maximum.
        assert_eq!(s.quantile(1.0), 999_999_999);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let est = s.quantile(q);
            assert!((3..=999_999_999).contains(&est), "q={q} est={est}");
        }
        // The p50 estimate is within one bucket (≤25 % relative error) of
        // the true median (90).
        let p50 = s.quantile(0.5);
        let (lo, hi) = bucket_bounds(bucket_of(90));
        assert!((lo..=hi).contains(&p50), "p50={p50}");
    }

    #[test]
    fn merge_is_order_independent_and_lossless() {
        let shards: Vec<Histogram> = (0..4).map(|_| Histogram::default()).collect();
        let mut n = 0u64;
        for (i, sh) in shards.iter().enumerate() {
            for k in 0..100 {
                sh.record((i as u64 + 1) * 1000 + k * 37);
                n += 1;
            }
        }
        let snaps: Vec<_> = shards.iter().map(Histogram::snapshot).collect();
        let merge_in = |order: &[usize]| {
            let mut acc = HistogramSnapshot::default();
            for &i in order {
                acc.merge(&snaps[i]);
            }
            acc
        };
        let a = merge_in(&[0, 1, 2, 3]);
        let b = merge_in(&[3, 1, 0, 2]);
        let c = merge_in(&[2, 3, 1, 0]);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.count(), n);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.quantile(0.99), 0);
    }

    #[test]
    fn concurrent_recording_loses_no_samples() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::default());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..25_000u64 {
                        h.record(t * 1_000_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100_000);
        assert_eq!(s.counts.iter().sum::<u64>(), 100_000);
    }
}
