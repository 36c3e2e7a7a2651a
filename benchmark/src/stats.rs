//! The estimators every timing metric goes through.

/// Median of `xs` (mean of the middle pair for an even count); 0 for an
/// empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The quiet-round median: the minimum over rounds of each round's
/// median sample.
///
/// Neighbours slow this VM by up to 1.6x for seconds at a time, and
/// process CPU time rises with wall time while they do, so neither a
/// pooled median nor a CPU-time clock is steady. A slow spell covers
/// whole rounds; the quietest round's median is what the code costs when
/// the host leaves it alone, and it is still a median, so one lucky pass
/// cannot set it.
pub fn quiet_round_median(rounds: &[Vec<f64>]) -> f64 {
    rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| median(r))
        .fold(f64::INFINITY, f64::min)
}

/// The percentile ladder a tail may be reported at.
const LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// The highest percentile of [`LADDER`] that `n` samples support: at
/// least ten samples must lie beyond it, or the figure is one outlier's
/// value. `None` below twenty samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

/// The `q`-quantile of `xs` by nearest rank, or `None` when fewer than
/// ten samples would lie beyond it.
pub fn supported_percentile(xs: &[f64], q: f64) -> Option<f64> {
    if highest_supported_percentile(xs.len())? < q {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * q).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_round_ignores_slow_rounds_and_lucky_passes() {
        // Rounds 0 and 2 ran beside a noisy neighbour; round 1 holds one
        // implausibly fast pass that a plain minimum would report.
        let rounds = vec![
            vec![16.0, 15.5, 17.0],
            vec![10.1, 2.0, 10.3],
            vec![13.0, 14.0, 12.5],
        ];
        assert_eq!(quiet_round_median(&rounds), 10.1);
        let pooled: Vec<f64> = rounds.concat();
        assert!(median(&pooled) > 12.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&xs, 0.99), Some(990.0));
        assert_eq!(supported_percentile(&xs[..999], 0.99), None);
        assert_eq!(supported_percentile(&xs[..999], 0.9), Some(900.0));
    }
}
