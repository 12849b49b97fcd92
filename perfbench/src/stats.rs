//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of unsorted samples by linear
/// interpolation between closest ranks; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A quantile read off a fixed-bucket histogram (`bounds` are inclusive
/// upper bounds, `counts` has one extra overflow slot), interpolating
/// linearly inside the bucket that holds the rank. The overflow bucket
/// reports its lower edge.
pub fn histogram_quantile(bounds: &[u64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && (seen + c) as f64 >= rank {
            let lo = if i == 0 { 0 } else { bounds[i - 1] } as f64;
            let Some(&hi) = bounds.get(i) else {
                return lo;
            };
            let within = (rank - seen as f64) / c as f64;
            return lo + (hi as f64 - lo) * within;
        }
        seen += c;
    }
    bounds.last().copied().unwrap_or(0) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_bucket() {
        // 10 samples in (0,100], 10 in (100,200].
        let q = histogram_quantile(&[100, 200], &[10, 10, 0], 0.75);
        assert!((q - 150.0).abs() < 1e-9, "{q}");
        assert_eq!(histogram_quantile(&[100], &[0, 0], 0.5), 0.0);
        assert_eq!(histogram_quantile(&[100], &[0, 5], 0.5), 100.0);
    }
}
