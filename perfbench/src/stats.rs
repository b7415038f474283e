//! Order statistics over measured samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// A tail percentile with the sample count it rests on.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Which percentile (e.g. 99.0).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken over.
    pub count: usize,
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, so a tail is never one or two outliers.
pub fn tail(xs: &[f64]) -> Tail {
    const CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];
    let n = xs.len() as f64;
    let pct = CANDIDATES
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: percentile(xs, pct),
        count: xs.len(),
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=112).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 101.0);
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs).pct, 99.0);
        assert_eq!(tail(&[1.0, 2.0]).pct, 50.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
