//! Order statistics over raw samples.

/// Percentile `q` (0..=1) of `samples` by linear interpolation between
/// the two nearest ranks; 0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
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

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Samples strictly above percentile `q` — a named tail percentile is
/// only reported with at least ten of these behind it.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = percentile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

pub fn sum(samples: &[f64]) -> f64 {
    samples.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn beyond_counts_the_tail() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(&s, 0.9), 10);
    }
}
