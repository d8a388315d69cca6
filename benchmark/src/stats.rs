//! Order statistics over small samples.

/// Sorts ascending; timings and rates are always finite here.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
}

/// Nearest-rank percentile (`p` in `0..=100`) of an ascending slice;
/// `0.0` for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of nanosecond samples, in the unit `per` nanoseconds make
/// (`1e3` → µs, `1e6` → ms).
pub fn median_ns(samples: &[u64], per: f64) -> f64 {
    percentile_ns(samples, 50.0, per)
}

/// [`percentile`] over nanosecond samples, scaled like [`median_ns`].
pub fn percentile_ns(samples: &[u64], p: f64, per: f64) -> f64 {
    let mut values: Vec<f64> = samples.iter().map(|&ns| ns as f64 / per).collect();
    sort(&mut values);
    percentile(&values, p)
}

/// The second-best of the rounds: second-highest when higher is better,
/// second-lowest otherwise (the only value when there is one round).
///
/// Disturbances on a shared host are one-sided — a round is slowed for
/// tens of seconds, and now and then one runs unusually fast — so the
/// second-best ignores one fast outlier and every disturbed round but
/// the best two. README.md has the measurements behind the choice.
pub fn second_best(rounds: &[f64], higher_is_better: bool) -> f64 {
    let mut sorted = rounds.to_vec();
    sort(&mut sorted);
    if higher_is_better {
        sorted.reverse();
    }
    sorted[1.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median_ns(&[3000, 1000, 2000], 1e3), 2.0);
    }

    #[test]
    fn second_best_follows_the_direction() {
        let rounds = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(second_best(&rounds, true), 4.0);
        assert_eq!(second_best(&rounds, false), 2.0);
        assert_eq!(second_best(&[7.0], true), 7.0);
    }
}
