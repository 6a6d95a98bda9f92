//! Order statistics: per-segment percentiles and the median across segments
//! that every reported timing is.

/// Nearest-rank percentile `q` (0 < q ≤ 1) of an ascending, non-empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, the mean of the middle two for an even count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Percentile `q` of each non-empty segment, then the median across segments.
/// One disturbed segment (a steal burst on this guest) moves one of ten
/// values, not the result.
pub fn segment_median(segments: &[Vec<u64>], q: f64) -> Option<f64> {
    let per_segment: Vec<f64> = segments
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| {
            let mut s = s.clone();
            s.sort_unstable();
            percentile(&s, q) as f64
        })
        .collect();
    median(&per_segment)
}

/// Percentile `q` over all samples at once, for call-timing loops.
pub fn percentile_of(samples: &[u64], q: f64) -> u64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    percentile(&s, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.9), 9);
        assert_eq!(percentile(&v, 0.99), 10);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(percentile(&v, 0.01), 1);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn segment_median_ignores_one_disturbed_segment_and_empty_ones() {
        let mut segments: Vec<Vec<u64>> = (0..9).map(|_| vec![10, 11, 12, 13, 14]).collect();
        segments.push(vec![900, 950, 1000, 1100, 20_000]);
        segments.push(Vec::new());
        assert_eq!(segment_median(&segments, 0.5), Some(12.0));
        assert_eq!(segment_median(&[Vec::new()], 0.5), None);
    }

    #[test]
    fn segment_median_sorts_each_segment() {
        assert_eq!(
            segment_median(&[vec![9, 1, 5], vec![2, 8, 4]], 0.5),
            Some(4.5)
        );
    }
}
