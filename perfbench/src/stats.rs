//! Sample statistics: nearest-rank percentiles over measured timings.

/// A bag of measurements (any unit) with order statistics.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The nearest-rank `p`-th percentile (`0 < p ≤ 100`), or 0 for an
    /// empty sample.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile_sorted(&self.values, p)
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// Nearest-rank percentile of an ascending sample: the smallest element
/// with at least `p`% of the sample at or below it. 0 for an empty sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median of a small list (set-up repetitions, probe repetitions).
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}

/// Splits `[0, span)` into `windows` equal windows, applies `f` to the
/// values of the events timed in each (with the window's length), and
/// returns the median over windows. A burst of interference from a shared
/// host then moves one window instead of the whole run's figure.
pub fn windowed_median(
    events: &[(f64, f64)],
    span: f64,
    windows: usize,
    f: impl Fn(&mut Samples, f64) -> f64,
) -> f64 {
    let len = span / windows as f64;
    let mut per = vec![Samples::new(); windows];
    for &(t, v) in events {
        per[((t / len) as usize).min(windows - 1)].push(v);
    }
    median_of(&per.iter_mut().map(|s| f(s, len)).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The defining property of the nearest-rank percentile, checked by
    /// counting instead of indexing: at least `p`% of the sample lies at or
    /// below the answer, and fewer than `p`% lies strictly below it.
    fn is_exact_quantile(sample: &[f64], p: f64, q: f64) -> bool {
        let n = sample.len() as f64;
        let at_or_below = sample.iter().filter(|&&x| x <= q).count() as f64;
        let below = sample.iter().filter(|&&x| x < q).count() as f64;
        sample.contains(&q) && at_or_below >= p / 100.0 * n && below < p / 100.0 * n
    }

    #[test]
    fn percentile_matches_exact_sorted_sample_quantiles() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000] {
            let mut s = Samples::new();
            let mut raw = Vec::new();
            for _ in 0..n {
                // Coarse values force ties, which the definition must survive.
                let v = rng.gen_range(0..20usize) as f64 * 0.5;
                s.push(v);
                raw.push(v);
            }
            for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
                let q = s.percentile(p);
                assert!(is_exact_quantile(&raw, p, q), "n={n} p={p} q={q}");
            }
        }
    }

    #[test]
    fn percentile_small_cases() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&sorted, 50.0), 2.0);
        assert_eq!(percentile_sorted(&sorted, 51.0), 3.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 4.0);
        assert_eq!(percentile_sorted(&sorted, 0.1), 1.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_median_discards_one_bad_window() {
        // Five 1 s windows: four with 10 events of value 1, one with 2
        // events of value 50.
        let mut events = Vec::new();
        for w in 0..5 {
            let (n, v) = if w == 2 { (2, 50.0) } else { (10, 1.0) };
            for i in 0..n {
                events.push((w as f64 + i as f64 / n as f64, v));
            }
        }
        let rate = windowed_median(&events, 5.0, 5, |s, len| s.len() as f64 / len);
        assert_eq!(rate, 10.0);
        let p50 = windowed_median(&events, 5.0, 5, |s, _| s.median());
        assert_eq!(p50, 1.0);
    }
}
