//! Order statistics over op samples: medians, quantiles and the tail rule.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted`, linearly interpolated between
/// closest ranks. `sorted` must be non-empty and ascending.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `values` sorted ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// A tail percentile as the tail rule reports it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The reported value.
    pub value: f64,
    /// The percentile reported: 0.9, or less when the sample is too small
    /// for the p90, down to the median (0.5).
    pub q: f64,
    /// Samples strictly above the reported value.
    pub beyond: usize,
}

impl Tail {
    /// The sample note of a tail over `n` samples.
    pub fn note(&self, n: usize) -> String {
        if self.q == 0.9 {
            format!("p90 of {n} samples, {} beyond it", self.beyond)
        } else if self.q > 0.5 {
            format!(
                "p{:.1} of {n} samples, the highest percentile up to the p90 with {} beyond it",
                self.q * 100.0,
                self.beyond
            )
        } else {
            format!("no tail: {n} samples leave fewer than 10 beyond the median; reporting it")
        }
    }
}

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail rule: of a non-empty sample, report the p90 when at least ten
/// samples lie strictly beyond it, else the highest percentile that has ten
/// samples beyond it, and the median when even that is not above the median.
/// A run a little short of the 92 samples the p90 needs so reports a
/// percentile just below it, not a jump to the median.
pub fn p90(values: &[f64]) -> Tail {
    let s = sorted(values);
    let beyond = |value: f64| s.iter().filter(|&&v| v > value).count();
    let (n, min) = (s.len() as f64, TAIL_MIN_BEYOND as f64);
    // Position q (n - 1) leaves ten samples beyond it while below n - min.
    let q = if 0.9 * (n - 1.0) < n - min { 0.9 } else { (n - min - 1.0) / (n - 1.0).max(1.0) };
    if q > 0.5 {
        let value = quantile(&s, q);
        if beyond(value) >= TAIL_MIN_BEYOND {
            return Tail { value, q, beyond: beyond(value) };
        }
    }
    let median = quantile(&s, 0.5);
    Tail { value: median, q: 0.5, beyond: beyond(median) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_p90() {
        // 1..=100: p90 = 90.1, and 91..=100 lie beyond it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = p90(&hundred);
        assert_eq!((t.q, t.beyond), (0.9, 10));
        assert!((t.value - 90.1).abs() < 1e-9);
        // 92 samples are the fewest that leave ten beyond the p90.
        let t = p90(&(1..=92).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.q, t.beyond), (0.9, 10));

        // Ninety samples leave only nine beyond the p90: report the highest
        // percentile with ten beyond it, the 80th value.
        let ninety: Vec<f64> = (1..=90).map(f64::from).collect();
        let t = p90(&ninety);
        assert!((t.q - 79.0 / 89.0).abs() < 1e-12);
        assert_eq!((t.value, t.beyond), (80.0, 10));
        assert!(t.note(90).starts_with("p88.8 of 90 samples"), "{}", t.note(90));
    }

    #[test]
    fn small_samples_report_the_median() {
        // Twenty samples: ten beyond the 10th value is below the median.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = p90(&twenty);
        assert_eq!((t.q, t.value, t.beyond), (0.5, 10.5, 10));
        let t = p90(&[4.0, 2.0, 9.0]);
        assert_eq!((t.q, t.value), (0.5, 4.0));
        assert!(t.note(3).starts_with("no tail"));
        assert_eq!(p90(&[7.0]).value, 7.0);
    }

    #[test]
    fn ties_at_the_p90_do_not_count_as_beyond() {
        // A flat tail: no sample exceeds the p90, so the median stands in.
        let flat = vec![3.0; 200];
        let t = p90(&flat);
        assert_eq!((t.q, t.beyond, t.value), (0.5, 0, 3.0));
    }
}
