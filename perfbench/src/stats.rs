//! Summary statistics: medians over repetitions and the tail-percentile
//! rule.

/// Percentiles the tail metric may report, lowest first.
pub const LADDER: [f64; 4] = [0.50, 0.90, 0.99, 0.999];

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples, computed exactly
/// as `resched_serve::percentile` does (`⌈n·q⌉`, clamped into `1..=n`).
pub fn nearest_rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n.max(1))
}

/// The highest [`LADDER`] percentile whose nearest-rank sample has at least
/// [`MIN_BEYOND`] samples above it, or `None` when even the median lacks
/// them (fewer than 20 samples).
pub fn tail_quantile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n >= MIN_BEYOND && n - nearest_rank(n, q) >= MIN_BEYOND)
}

/// Median of `xs` (mean of the two middle values for an even count), or
/// 0.0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `xs`, or 0.0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank quantile of unsorted `xs`, or 0.0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), q) - 1]
}
