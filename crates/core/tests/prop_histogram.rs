//! Seeded property tests for the lock-free latency histogram: bucket
//! placement, merge laws, and quantile bounds over random sample sets.

use sledge_core::{bucket_bounds, bucket_of, Histogram, HistogramSnapshot, BUCKETS};
use sledge_testkit::{cases, Rng};

fn record_all(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::default();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// A u64 of random magnitude: uniform bits shifted right by a random
/// amount, so every bucket is drawn from and not only the top few.
fn any_magnitude(rng: &mut Rng) -> u64 {
    rng.next_u64() >> rng.range(0, 64)
}

/// Every u64 lands in exactly one bucket, and that bucket's bounds
/// contain it.
#[test]
fn every_value_lands_in_its_bucket() {
    cases(256, 0xB0C4_E700, |rng| {
        let v = any_magnitude(rng);
        let b = bucket_of(v);
        assert!(b < BUCKETS);
        let (lo, hi) = bucket_bounds(b);
        assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}] (bucket {b})");
    });
}

/// The bucket upper bound over-estimates the true value by at most 25%
/// (the log-bucketing resolution guarantee the quantiles rely on).
#[test]
fn bucket_relative_error_is_bounded() {
    cases(256, 0xE220_2B0D, |rng| {
        let v = any_magnitude(rng).clamp(16, u64::MAX - 1);
        let (_, hi) = bucket_bounds(bucket_of(v));
        let err = (hi - v) as f64 / v as f64;
        assert!(err <= 0.25, "{v}: upper bound {hi} is {err:.3} rel error");
    });
}

/// Merging snapshots is order-independent and lossless: any permutation
/// of per-shard snapshots merges to the same totals as recording every
/// sample into one histogram.
#[test]
fn merge_is_order_independent() {
    cases(256, 0x3E26_E000, |rng| {
        // Values bounded so the summed total stays far from u64 overflow
        // (full-range bucket placement is covered above).
        let shards = rng.vec(1, 6, |r| r.vec(0, 64, |r| r.range(0, 1 << 48)));
        let all: Vec<u64> = shards.iter().flatten().copied().collect();
        let reference = record_all(&all);

        let snaps: Vec<HistogramSnapshot> = shards.iter().map(|s| record_all(s)).collect();
        // Two permutations: a rotation, and a rotation of the reverse.
        let mut order: Vec<usize> = (0..snaps.len()).collect();
        order.rotate_left(rng.index(0, snaps.len()));
        let mut merged_a = HistogramSnapshot::default();
        for &i in &order {
            merged_a.merge(&snaps[i]);
        }
        order.reverse();
        order.rotate_left(rng.index(0, snaps.len()));
        let mut merged_b = HistogramSnapshot::default();
        for &i in &order {
            merged_b.merge(&snaps[i]);
        }

        assert_eq!(merged_a, reference);
        assert_eq!(merged_b, reference);
        assert_eq!(merged_a.count(), all.len() as u64);
    });
}

/// Quantiles are bracketed by the recorded extremes, are monotone in q,
/// and p50/p99 sit within the log-bucket error of a true percentile.
#[test]
fn quantiles_within_min_max() {
    cases(256, 0x9A27_11E5, |rng| {
        let mut values = rng.vec(1, 200, |r| r.range(0, 1 << 40));
        let snap = record_all(&values);
        values.sort_unstable();
        let min = values[0];
        let max = *values.last().unwrap();

        let p50 = snap.quantile(0.5);
        let p99 = snap.quantile(0.99);
        assert!(min <= p50, "p50 {p50} below min {min}");
        assert!(p50 <= p99, "p50 {p50} above p99 {p99}");
        assert!(p99 <= max, "p99 {p99} above max {max}");

        // The reported p50 must not under-estimate the true median: it is
        // the upper bound of the median's bucket (clamped to max).
        let true_p50 = values[(values.len() - 1) / 2];
        let (_, hi) = bucket_bounds(bucket_of(true_p50));
        assert!(p50 <= hi.min(max).max(min));
    });
}
