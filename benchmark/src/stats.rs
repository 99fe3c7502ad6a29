//! Order statistics over the samples of one run.

use serde::Value;

/// Quantile `q` (0..=1) by linear interpolation between closest ranks.
/// Returns NaN for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Median of a sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Smallest value of a sample (NaN when empty).
pub fn min(samples: &[f64]) -> f64 {
    quantile(samples, 0.0)
}

/// Sample count, quartiles and — where at least ten samples lie beyond it —
/// the 90th percentile, as a JSON map for the run's detail line.
pub fn summary(samples: &[f64]) -> Value {
    let mut entries = vec![
        ("n".to_string(), Value::Int(samples.len() as i128)),
        ("p25".to_string(), Value::Num(quantile(samples, 0.25))),
        ("p50".to_string(), Value::Num(median(samples))),
        ("p75".to_string(), Value::Num(quantile(samples, 0.75))),
    ];
    if samples.len() >= 100 {
        entries.push(("p90".to_string(), Value::Num(quantile(samples, 0.9))));
    }
    Value::Map(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), 2.5);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 4.0);
        assert_eq!(quantile(&samples, 0.25), 1.75);
        assert!(median(&[]).is_nan());
    }
}
