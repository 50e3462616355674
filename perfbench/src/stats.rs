//! Order statistics over timing samples.

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`.
///
/// Refuses (returns `None`) when fewer than [`MIN_SAMPLES_BEYOND`] samples
/// lie strictly above the chosen rank, so a tail is never read off a
/// handful of points — p90 needs 100 samples, p99 needs 1000.  The median
/// of any non-empty set with at least 20 samples passes.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    (sorted.len() - rank >= MIN_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// Median of a non-empty set (mean of the two middle values for an even
/// count), for small repeated measurements such as set-up times where no
/// tail is read.
///
/// # Panics
/// Panics on an empty set.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Equal stretches a measuring window is cut into by [`quieter_half`].
pub const STRETCHES: usize = 6;

/// The values of the quieter half of a run.
///
/// `samples` are `(t, cost)` pairs: when the sample started, in seconds
/// into a measuring window of `window_s` seconds, and a cost where lower is
/// better.  The window is cut into [`STRETCHES`] equal stretches (samples
/// past its end join the last).  The stretches that hold samples are ranked
/// by their median cost, and the samples of the cheaper half (rounded up)
/// are returned.  Other tenants of a shared host only ever slow a stretch
/// down, so the cheaper half shows the program rather than its neighbours.
#[must_use]
pub fn quieter_half(samples: &[(f64, f64)], window_s: f64) -> Vec<f64> {
    let mut stretches = vec![Vec::new(); STRETCHES];
    for &(t, cost) in samples {
        let index = (t / window_s * STRETCHES as f64) as usize;
        stretches[index.min(STRETCHES - 1)].push(cost);
    }
    stretches.retain(|stretch| !stretch.is_empty());
    stretches.sort_by(|a, b| median(a).total_cmp(&median(b)));
    let keep = stretches.len().div_ceil(2);
    stretches.into_iter().take(keep).flatten().collect()
}

/// Arithmetic mean (zero for an empty set).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&samples, 90.0),
            None,
            "99 samples leave 9 beyond p90"
        );
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&samples, 90.0),
            Some(90.0),
            "100 samples leave 10"
        );
        assert_eq!(percentile(&samples, 99.0), None);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
    }

    #[test]
    fn percentile_is_nearest_rank_and_order_free() {
        let mut samples: Vec<f64> = (1..=40).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 50.0), Some(20.0));
        assert_eq!(percentile(&samples, 25.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&samples, 0.0), None);
        assert_eq!(percentile(&samples, f64::NAN), None);
    }

    #[test]
    fn quieter_half_keeps_the_cheaper_stretches() {
        // Every other stretch of a 6 s window runs twice as slow.
        let samples: Vec<(f64, f64)> = (0..60)
            .map(|i| {
                let t = f64::from(i) * 0.1;
                let slow = (t as usize) % 2 == 1;
                (t, if slow { 2.0 } else { 1.0 } + f64::from(i) * 1e-3)
            })
            .collect();
        let quiet = quieter_half(&samples, 6.0);
        assert_eq!(quiet.len(), 30);
        assert!(quiet.iter().all(|&cost| cost < 2.0), "{quiet:?}");
        // Samples past the window join the last stretch; an odd count of
        // non-empty stretches keeps the larger half.
        let late = [(0.5, 1.0), (2.5, 3.0), (9.0, 2.0)];
        assert_eq!(quieter_half(&late, 6.0), [1.0, 2.0]);
        assert!(quieter_half(&[], 6.0).is_empty());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
