//! Order statistics and trimmed means over host-time samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks — the same rule as Python's `statistics.quantiles(method=
/// "inclusive")`. 0 on an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean after dropping the lowest and highest `cut` share of the
/// samples. 0 on an empty sample.
pub fn trimmed_mean(samples: &[f64], cut: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = (sorted.len() as f64 * cut.clamp(0.0, 0.49)) as usize;
    let kept = &sorted[k..sorted.len() - k];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(
            trimmed_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0], 0.1),
            4.5
        );
        assert_eq!(trimmed_mean(&[], 0.1), 0.0);
    }
}
