//! Order statistics for the reported figures.

/// A percentile read off a sample, with the size of its tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the percentile (nearest rank).
    pub value: f64,
    /// How many samples lie strictly above the percentile's rank: the
    /// evidence the percentile rests on.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`; the rank is
/// `ceil(p/100 · n)`, counted from 1. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: sorted[rank - 1],
        beyond: n - rank,
    })
}

/// The median (p50, nearest rank); 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |p| p.value)
}

/// Per-position minimum over repeats of one operation sequence:
/// `repeats[r][i]` is operation `i`'s sample in repeat `r`. Every
/// repeat must have the same length.
pub fn position_minima(repeats: &[Vec<f64>]) -> Vec<f64> {
    let n = repeats.first().map_or(0, Vec::len);
    assert!(
        repeats.iter().all(|r| r.len() == n),
        "repeats differ in length"
    );
    (0..n)
        .map(|i| repeats.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The smallest sample; infinity for an empty sample.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Geometric mean of positive values; 0 for an empty sample.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0f64, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole` as a percentage; 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// `total / count`; 0 when nothing was counted.
pub fn per(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_indexing_and_tail_counts() {
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        // rank ceil(0.5 * 20) = 10 -> value 10, ten samples above it.
        assert_eq!(
            percentile(&samples, 50.0),
            Some(Percentile {
                value: 10.0,
                beyond: 10
            })
        );
        // rank ceil(0.9 * 20) = 18 -> value 18, two samples above it.
        assert_eq!(
            percentile(&samples, 90.0),
            Some(Percentile {
                value: 18.0,
                beyond: 2
            })
        );
        // rank ceil(0.99 * 20) = 20 -> the maximum, nothing above it.
        assert_eq!(
            percentile(&samples, 99.0),
            Some(Percentile {
                value: 20.0,
                beyond: 0
            })
        );
        assert_eq!(percentile(&samples, 100.0).unwrap().value, 20.0);
    }

    #[test]
    fn percentile_ignores_input_order_and_handles_edges() {
        assert_eq!(percentile(&[], 50.0), None);
        let one = percentile(&[7.0], 90.0).unwrap();
        assert_eq!((one.value, one.beyond), (7.0, 0));
        // A tiny p still selects the first rank, never rank 0.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.1).unwrap().value, 1.0);
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        // Even count: nearest rank takes the lower middle.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn p90_of_a_thousand_rests_on_a_hundred_samples() {
        let samples: Vec<f64> = (0..1000).map(|i| f64::from((i * 7919) % 1000)).collect();
        let p90 = percentile(&samples, 90.0).unwrap();
        assert_eq!(p90.value, 899.0);
        assert_eq!(p90.beyond, 100);
    }

    #[test]
    fn position_minima_take_each_operation_over_its_repeats() {
        let repeats = vec![
            vec![1.0, 50.0, 3.0],
            vec![2.0, 5.0, 30.0],
            vec![9.0, 6.0, 4.0],
        ];
        assert_eq!(position_minima(&repeats), vec![1.0, 5.0, 3.0]);
        assert_eq!(position_minima(&[]), Vec::<f64>::new());
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn means_and_ratios() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(pct(1.0, 4.0), 25.0);
        assert_eq!(pct(1.0, 0.0), 0.0);
        assert_eq!(per(10.0, 4), 2.5);
        assert_eq!(per(10.0, 0), 0.0);
    }
}
