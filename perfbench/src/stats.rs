//! Order statistics for the benchmark's reports.
//!
//! Percentiles are nearest-rank over the sorted sample. A tail percentile is
//! only reported when it has at least [`MIN_BEYOND`] samples beyond it, so a
//! "p99" of 200 samples (two samples beyond) is never presented as a tail.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: f64 = 10.0;

/// Percentiles a tail may be reported at, ascending.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Median of `values` (mean of the middle pair for an even count).
/// Returns NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it among `n` samples, if any.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Samples beyond percentile `p` of `n`, rounded against float error.
fn beyond(n: usize, p: f64) -> f64 {
    (n as f64 * (100.0 - p) / 100.0 * 1e6).round() / 1e6
}

/// Median and supported tail of one sample set, with its size.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The reported tail percentile (see [`supported_percentile`]).
    pub tail_pct: Option<f64>,
    pub tail: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = supported_percentile(v.len());
        Summary {
            n: v.len(),
            p50: percentile_sorted(&v, 50.0),
            tail_pct,
            tail: tail_pct.map_or(f64::NAN, |p| percentile_sorted(&v, p)),
        }
    }
}

/// Percentile `pct` of `values`, or NaN when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn tail_at(values: &[f64], pct: f64) -> f64 {
    if beyond(values.len(), pct) < MIN_BEYOND {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, pct)
}

/// Percentile `pct` of each consecutive window of `window` samples (the
/// remainder joins the last window). The median of these moves less for
/// one disturbed window than a pooled tail does. A window too small to
/// support `pct` gives NaN.
pub fn window_tails(in_order: &[f64], window: usize, pct: f64) -> Vec<f64> {
    let windows = (in_order.len() / window.max(1)).max(1);
    (0..windows)
        .map(|i| {
            let end = if i + 1 == windows {
                in_order.len()
            } else {
                (i + 1) * window
            };
            tail_at(&in_order[i * window..end], pct)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(9), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(9_999), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_states_count_and_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, Some(99.0));
        assert_eq!(s.tail, 990.0);
        assert_eq!(tail_at(&v, 99.0), 990.0);
        assert_eq!(Summary::of(&v[..500]).tail_pct, Some(95.0));
        assert!(
            tail_at(&v[..500], 99.0).is_nan(),
            "p99 of 500 samples is unsupported"
        );
    }

    #[test]
    fn window_tails_split_in_order() {
        // Three windows of 1000; the middle one is disturbed.
        let mut v: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
        for x in &mut v[1000..2000] {
            *x *= 10.0;
        }
        assert_eq!(window_tails(&v, 1000, 99.0), vec![989.0, 9890.0, 989.0]);
        assert_eq!(median(&window_tails(&v, 1000, 99.0)), 989.0);
        // 2500 samples: two windows, the second holding 1500.
        let second = tail_at(&v[1000..2500], 99.0);
        assert_eq!(window_tails(&v[..2500], 1000, 99.0), vec![989.0, second]);
        assert!(window_tails(&v[..500], 1000, 99.0)[0].is_nan());
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
