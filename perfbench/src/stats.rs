//! Order statistics for the reported metrics.

/// Percentile `p` (0–100) of `values` by linear interpolation between
/// closest ranks (the "linear" rule of NumPy and R type 7). Returns 0
/// for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Share of the sorted group values [`trimmed_mean`] drops at each end
/// for the windowed statistics: two of ten groups.
const TRIM: f64 = 0.2;

/// Mean of `values` without the lowest and the highest `trim` share of
/// them (0 for an empty slice).
///
/// Across groups it ignores a few groups a stall slowed, like a median,
/// but unlike a median it moves smoothly with the share of groups a
/// slow stretch of the host covers: on a shared host a run's groups
/// fall into fast and slow stretches, and a median jumps from one level
/// to the other as that share crosses one half.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim.clamp(0.0, 0.5)).floor() as usize;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        return median(values);
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Completion rate over `windows` consecutive groups of equal item
/// count, trimmed mean across groups. `ends` are the items' completion
/// times in seconds since the timed phase began, ascending.
pub fn windowed_rate(ends: &[f64], windows: usize) -> f64 {
    let n = ends.len();
    let windows = windows.clamp(1, n.max(1));
    let mut rates = Vec::with_capacity(windows);
    let mut prev_end = 0.0;
    let mut prev_idx = 0usize;
    for w in 1..=windows {
        let idx = w * n / windows;
        if idx == prev_idx {
            continue;
        }
        let end = ends[idx - 1];
        let span = end - prev_end;
        if span > 0.0 {
            rates.push((idx - prev_idx) as f64 / span);
        }
        prev_end = end;
        prev_idx = idx;
    }
    trimmed_mean(&rates, TRIM)
}

/// Percentile `p` of consecutive groups of equal count, trimmed mean
/// across groups, like [`windowed_rate`].
pub fn windowed_percentile(values: &[f64], p: f64, windows: usize) -> f64 {
    let n = values.len();
    let windows = windows.clamp(1, n.max(1));
    let per: Vec<f64> = (0..windows)
        .map(|w| percentile(&values[w * n / windows..(w + 1) * n / windows], p))
        .collect();
    trimmed_mean(&per, TRIM)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many of `n` samples lie strictly above the `p`-th percentile
    /// rank — the samples that percentile rests on.
    fn samples_beyond(n: usize, p: f64) -> usize {
        let at = ((p / 100.0) * n as f64).ceil() as usize;
        n.saturating_sub(at)
    }

    /// Fewest samples for which the `p`-th percentile has at least `k`
    /// samples beyond it.
    fn min_samples_for(p: f64, k: usize) -> usize {
        (1..)
            .find(|&n| samples_beyond(n, p) >= k)
            .expect("unbounded search")
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        // rank 0.9 * 3 = 2.7 → 3 + 0.7 * (4 - 3)
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_matches_python_quantiles_inclusive() {
        // statistics.quantiles(range(1, 11), n=4, method="inclusive")
        // gives [3.25, 5.5, 7.75].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&v, 25.0) - 3.25).abs() < 1e-12);
        assert!((percentile(&v, 50.0) - 5.5).abs() < 1e-12);
        assert!((percentile(&v, 75.0) - 7.75).abs() < 1e-12);
    }

    #[test]
    fn p90_needs_one_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(0, 90.0), 0);
        assert_eq!(min_samples_for(90.0, 10), 100);
        assert_eq!(min_samples_for(50.0, 10), 20);
    }

    #[test]
    fn min_items_per_group_keep_ten_beyond_p90() {
        assert!(samples_beyond(crate::MIN_ITEMS, 90.0) >= 10);
    }

    #[test]
    fn windowed_percentile_ignores_a_few_slow_groups() {
        // 10 groups of 20 items at 1 ms; two groups stalled at 50 ms.
        let mut v = vec![1.0; 200];
        for x in &mut v[60..100] {
            *x = 50.0;
        }
        assert!(percentile(&v, 90.0) > 40.0);
        assert_eq!(windowed_percentile(&v, 90.0, 10), 1.0);
        let ramp: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(windowed_percentile(&ramp, 50.0, 1), median(&ramp));
        assert_eq!(windowed_percentile(&[], 90.0, 10), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        let v = [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 100.0];
        // Drops 1, 2 and 9, 100: mean of 3..=8.
        assert_eq!(trimmed_mean(&v, 0.2), 5.5);
        assert_eq!(trimmed_mean(&v, 0.0), 14.5);
        assert_eq!(trimmed_mean(&[3.0, 1.0], 0.5), 2.0);
        assert_eq!(trimmed_mean(&[], 0.2), 0.0);
        assert_eq!(trimmed_mean(&[7.0], 0.2), 7.0);
    }

    #[test]
    fn windowed_percentile_moves_smoothly_with_slow_groups() {
        // k of 10 groups run 1.5x slower: a median of the groups jumps
        // from 1 to 1.5 between k = 4 and k = 6, the trimmed mean climbs
        // in equal steps from k = 2 to k = 8.
        let at = |k: usize| {
            let v: Vec<f64> = (0..1000)
                .map(|i| if i / 100 < k { 1.5 } else { 1.0 })
                .collect();
            windowed_percentile(&v, 50.0, 10)
        };
        assert_eq!(at(2), 1.0);
        assert_eq!(at(8), 1.5);
        for k in 2..8 {
            assert!((at(k + 1) - at(k) - 0.5 / 6.0).abs() < 1e-12, "k = {k}");
        }
    }

    #[test]
    fn windowed_rate_is_robust_to_one_stalled_window() {
        // 100 items, one every 10 ms, except a 500 ms stall before
        // item 50: the mean rate drops by a third, the trimmed mean of
        // the windows does not.
        let mut ends = Vec::new();
        let mut t = 0.0;
        for i in 0..100 {
            t += if i == 50 { 0.51 } else { 0.01 };
            ends.push(t);
        }
        let mean = 100.0 / t;
        assert!(mean < 70.0);
        assert!((windowed_rate(&ends, 10) - 100.0).abs() < 1e-6);
        assert_eq!(windowed_rate(&[], 10), 0.0);
        assert!((windowed_rate(&[0.5], 10) - 2.0).abs() < 1e-12);
    }
}
