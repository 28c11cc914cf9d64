//! Order statistics over latency samples.

/// One nearest-rank percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value (same unit as the samples).
    pub value: f64,
    /// Number of samples the percentile was read from.
    pub samples: usize,
    /// Samples strictly beyond the reported rank — how much tail evidence
    /// backs the reading (a p99 needs at least ten to mean anything).
    pub beyond: usize,
}

/// Nearest-rank `pct`-th percentile of `sorted` (ascending): the value at
/// 1-based rank `ceil(pct/100 · n)`, clamped to `1..=n`. `None` for an
/// empty sample.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile { value: sorted[rank - 1], samples: n, beyond: n - rank })
}

/// Sorts `samples` ascending (total order; latency samples are finite).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median by nearest rank (`None` for an empty sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples.to_vec()), 50.0).map(|p| p.value)
}

/// Arithmetic mean (`0.0` for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Rank agreement between a model and a measurement: over every pair of
/// items that both the model and the measurement tell apart, the share
/// ordered the same way (1.0 = identical ranking, 0.0 = reversed).
/// `None` when no pair is told apart by both.
pub fn rank_agreement(items: &[(u64, f64)]) -> Option<f64> {
    let (mut agree, mut disagree) = (0u64, 0u64);
    for (i, &(ma, xa)) in items.iter().enumerate() {
        for &(mb, xb) in &items[i + 1..] {
            if ma == mb || xa == xb {
                continue;
            }
            if (ma < mb) == (xa < xb) {
                agree += 1;
            } else {
                disagree += 1;
            }
        }
    }
    let pairs = agree + disagree;
    (pairs > 0).then(|| agree as f64 / pairs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_agreement_counts_concordant_pairs_and_skips_ties() {
        assert_eq!(rank_agreement(&[(1, 1.0), (2, 2.0), (3, 3.0)]), Some(1.0));
        assert_eq!(rank_agreement(&[(1, 3.0), (2, 2.0), (3, 1.0)]), Some(0.0));
        // (1,2) agree, (1,3) agree, (2,3) disagree.
        assert_eq!(rank_agreement(&[(1, 1.0), (2, 3.0), (3, 2.0)]), Some(2.0 / 3.0));
        // Modeled ties are not comparable.
        assert_eq!(rank_agreement(&[(5, 1.0), (5, 2.0)]), None);
        assert_eq!(rank_agreement(&[(5, 1.0), (5, 2.0), (9, 3.0)]), Some(1.0));
    }

    #[test]
    fn nearest_rank_reads_the_ranked_sample_and_its_tail() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&s, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&s, 99.0).unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (99.0, 100, 1));
        let p100 = percentile(&s, 100.0).unwrap();
        assert_eq!((p100.value, p100.beyond), (100.0, 0));
    }

    #[test]
    fn nearest_rank_rounds_the_rank_up_and_clamps() {
        let s = [10.0, 20.0, 30.0];
        // ceil(0.5 * 3) = 2
        assert_eq!(percentile(&s, 50.0).unwrap().value, 20.0);
        // ceil(0.99 * 3) = 3
        assert_eq!(percentile(&s, 99.0).unwrap().value, 30.0);
        // rank 0 clamps to the smallest sample
        assert_eq!(percentile(&s, 0.0).unwrap().value, 10.0);
        assert_eq!(percentile(&[], 50.0), None);
        let one = percentile(&[7.0], 99.0).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (7.0, 1, 0));
    }

    #[test]
    fn p99_has_ten_samples_beyond_it_from_a_thousand() {
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0).unwrap().beyond, 10);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
