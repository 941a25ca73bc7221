//! Order statistics for the benchmark's own samples.
//!
//! Quantiles follow Python's `statistics.quantiles` (the exclusive method),
//! which is what the driver computes over the per-seed values of a metric, so
//! a number printed here can be checked against the driver's by hand.

/// Sort ascending; samples are wall-clock durations, never NaN.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Quantile `p` in `[0, 1]` of a sorted slice by the exclusive method:
/// interpolate at 1-based rank `(n+1)·p` between its two neighbours, and —
/// as Python does — extrapolate from the outermost pair when the rank falls
/// outside `[1, n]`.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted {
        [] => f64::NAN,
        [only] => *only,
        _ => {
            let n = sorted.len();
            let pos = (n as f64 + 1.0) * p;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
        }
    }
}

pub fn median(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.5)
}

/// The percentile ladder timings are reported on, in per-mille so the
/// "samples beyond" count is exact integer arithmetic.
const LADDER_PERMILLE: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile of the ladder (50, 75, 90, 95, 99, 99.9) that
/// still has at least ten samples beyond it — the tail a sample of `n`
/// timings can support. The median is always reportable.
pub fn highest_supported_percentile(n: usize) -> f64 {
    LADDER_PERMILLE
        .iter()
        .filter(|&&pm| n as u64 * (1000 - pm) / 1000 >= 10)
        .map(|&pm| pm as f64 / 10.0)
        .fold(50.0, f64::max)
}

/// Median and tail of one timing series.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Value at the percentile the workload fixes for its tail.
    pub tail: f64,
    /// Whether `n` supports that percentile (ten samples beyond it).
    pub tail_supported: bool,
}

/// Summarise `samples`, reading the tail at the fixed percentile `tail_pct`.
/// A fixed percentile keeps the metric the same quantity from run to run;
/// `tail_supported` says whether this run had the samples to back it.
pub fn summarize(samples: &[f64], tail_pct: f64) -> Summary {
    let s = sorted(samples.to_vec());
    Summary {
        n: s.len(),
        p50: median(&s),
        // Clamped: a tail the sample cannot support must not extrapolate.
        tail: quantile(&s, tail_pct / 100.0).min(s.last().copied().unwrap_or(f64::NAN)),
        tail_supported: highest_supported_percentile(s.len()) >= tail_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quartiles(xs: &[f64]) -> [f64; 3] {
        [0.25, 0.5, 0.75].map(|p| quantile(xs, p))
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&sorted(vec![3.0, 1.0, 2.0])), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: it extrapolates.
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 5.0, 9.0]), 5.0);
        assert_eq!(median(&[1.0, 5.0, 7.0, 9.0]), 6.0);
        assert_eq!(median(&[4.0]), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), 50.0);
        assert_eq!(highest_supported_percentile(39), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        let s = summarize(&(1..=100).map(f64::from).collect::<Vec<_>>(), 95.0);
        assert!(!s.tail_supported, "100 samples leave only 5 beyond p95");
        assert_eq!(summarize(&[1.0, 2.0, 9.0], 100.0).tail, 9.0, "the tail never extrapolates");
        assert!(summarize(&vec![1.0; 200], 95.0).tail_supported);
    }
}
