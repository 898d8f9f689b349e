//! Order statistics over per-rep samples, and interpolated quantiles of a
//! `LogHistogram` read from outside through its sparse bucket export.

use ssmfp_cluster::LogHistogram;

/// Median and quartiles of one metric's per-rep samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub reps: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

/// The value at fraction `q` of the sorted samples, linearly interpolated
/// between neighbours (so one sample is its own median and quartiles).
fn at(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarises `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        reps: sorted.len(),
        q1: at(&sorted, 0.25),
        median: at(&sorted, 0.50),
        q3: at(&sorted, 0.75),
    })
}

/// Linear sub-buckets per power of two in `LogHistogram`'s documented
/// log-linear layout (values below it have exact buckets).
const SUB: usize = 16;

/// `[lower, upper)` value range of bucket `idx` in that layout.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, idx as u64 + 1);
    }
    let group = ((idx - SUB) / SUB) as u32;
    let sub = ((idx - SUB) % SUB) as u64;
    let width = 1u64 << group;
    let lower = (SUB as u64 + sub) << group;
    (lower, lower.saturating_add(width))
}

/// The value at quantile `q`, interpolated inside the bucket that holds
/// the rank. `LogHistogram::quantile` answers with the bucket midpoint,
/// which moves in ≈6 % steps; spreading the rank across the bucket gives
/// a reading that moves with the samples, so a median over reps is not
/// pinned to the bucket grid. 0 for an empty histogram.
pub fn hist_quantile(h: &LogHistogram, q: f64) -> f64 {
    let count = h.count();
    if count == 0 {
        return 0.0;
    }
    let rank = (q * count as f64).clamp(0.0, count as f64);
    let mut seen = 0u64;
    for (idx, c) in h.nonzero_buckets() {
        if (seen + c) as f64 >= rank {
            let (lo, hi) = bucket_bounds(idx);
            let hi = hi.min(h.max().saturating_add(1));
            let inside = (rank - seen as f64) / c as f64;
            return lo as f64 + (hi.saturating_sub(lo)) as f64 * inside;
        }
        seen += c;
    }
    h.max() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.reps, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        let even = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert_eq!(even.q1, 1.75);
        assert_eq!(even.q3, 3.25);
        let one = summarize(&[7.5]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (7.5, 7.5, 7.5));
        assert!(summarize(&[]).is_none());
    }

    /// The harness re-derives the bucket grid from the documented layout;
    /// this pins it to the histogram's own bucketing.
    #[test]
    fn bucket_bounds_match_the_histogram_layout() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            33,
            100,
            1000,
            1248,
            65_535,
            1 << 40,
        ] {
            let mut h = LogHistogram::new();
            h.record(v);
            let (idx, _) = h.nonzero_buckets()[0];
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                lo <= v && v < hi,
                "{v} outside [{lo}, {hi}) of bucket {idx}"
            );
        }
    }

    #[test]
    fn interpolated_quantile_tracks_a_uniform_ramp() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 5000.0), (0.9, 9000.0), (0.99, 9900.0)] {
            let got = hist_quantile(&h, q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
            // Same bucket as the histogram's own midpoint answer.
            let mid = h.quantile(q) as f64;
            assert!(
                (got - mid).abs() / mid < 0.07,
                "q{q}: {got} vs midpoint {mid}"
            );
        }
        assert_eq!(hist_quantile(&LogHistogram::new(), 0.5), 0.0);
    }
}
