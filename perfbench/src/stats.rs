//! Order statistics over measured samples.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, q)
}

/// The median of `values` (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank `q`-quantile of `values` where each value stands for
/// `weight` equal samples.
pub fn weighted_quantile(values: &[(f64, u64)], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = sorted.iter().map(|&(_, w)| w).sum();
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total.max(1));
    let mut seen = 0u64;
    for &(value, weight) in &sorted {
        seen += weight;
        if seen >= rank {
            return value;
        }
    }
    0.0
}

/// Samples strictly above the nearest-rank `q`-quantile: the tail a
/// percentile rests on.
pub fn beyond(count: u64, q: f64) -> u64 {
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count.max(1));
    count.saturating_sub(rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(beyond(100, 0.9), 10);
    }

    #[test]
    fn weights_act_as_repeated_samples() {
        let w = [(1.0, 9), (10.0, 1)];
        assert_eq!(weighted_quantile(&w, 0.5), 1.0);
        assert_eq!(weighted_quantile(&w, 0.95), 10.0);
    }
}
