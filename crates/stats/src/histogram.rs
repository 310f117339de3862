//! Fixed-range, equal-width histograms.
//!
//! Used to bin continuous ACS observations into categorical HMM emission
//! symbols, and to summarize execution-time distributions in the
//! evaluation harness.

use std::fmt;

/// An equal-width histogram over a fixed `[lo, hi]` range.
///
/// Out-of-range samples clamp into the first/last bin, so every sample is
/// counted — important when binning ACS values whose theoretical range is
/// unbounded in heavy-traffic intervals.
///
/// # Examples
///
/// ```
/// use sstd_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for x in [1.0, 2.5, 2.6, 9.9, 42.0] {
///     h.record(x);
/// }
/// assert_eq!(h.total(), 5);
/// assert_eq!(h.count(1), 2);      // [2, 4)
/// assert_eq!(h.count(4), 2);      // [8, 10] + clamped 42.0
/// assert_eq!(h.bin_of(3.0), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi]` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, if `lo >= hi`, or if either bound is not
    /// finite.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "lo must be below hi");
        Self { lo, hi, counts: vec![0; bins] }
    }

    /// Index of the bin `x` falls into (clamped to the ends).
    #[must_use]
    pub fn bin_of(&self, x: f64) -> usize {
        if x.is_nan() {
            return 0;
        }
        let n = self.counts.len();
        // Scale before dividing: `(x - lo) * n / (hi - lo)` keeps exact
        // bin boundaries on the right side of the floor, whereas dividing
        // by a pre-rounded width `(hi - lo) / n` pushed values like `0.3`
        // (with range `[0, 1]` and 10 bins) into the bin below.
        let idx = ((x - self.lo) * n as f64 / (self.hi - self.lo)).floor();
        if idx < 0.0 {
            0
        } else {
            (idx as usize).min(n - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        let b = self.bin_of(x);
        self.counts[b] += 1;
    }

    /// Count in bin `bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is not below the bin count.
    #[must_use]
    pub fn count(&self, bin: usize) -> u64 {
        self.counts[bin]
    }

    /// Total recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Midpoint of bin `bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is not below the bin count.
    #[must_use]
    pub fn bin_center(&self, bin: usize) -> f64 {
        assert!(bin < self.counts.len(), "bin out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (bin as f64 + 0.5)
    }

    /// Empirical probability of each bin (uniform when empty).
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![1.0 / self.counts.len() as f64; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f64 / total as f64).collect()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hist[{}..{}] ", self.lo, self.hi)?;
        for c in &self.counts {
            write!(f, "{c} ")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_bins() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.bin_of(0.0), 0);
        assert_eq!(h.bin_of(0.25), 1);
        assert_eq!(h.bin_of(0.999), 3);
        assert_eq!(h.bin_of(1.0), 3, "upper bound clamps into last bin");
    }

    #[test]
    fn clamping_out_of_range() {
        let mut h = Histogram::new(-1.0, 1.0, 2);
        h.record(-5.0);
        h.record(5.0);
        h.record(f64::NAN);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_center(4), 9.0);
    }

    #[test]
    fn decimal_boundaries_land_in_their_own_bin() {
        // Regression: with 10 bins over [0, 1], the width 0.1 is not
        // exactly representable, so `(0.3 - 0) / 0.1` evaluated to
        // 2.999…96 and 0.3 was counted into bin 2 instead of bin 3.
        let h = Histogram::new(0.0, 1.0, 10);
        for k in 0..10 {
            let x = k as f64 / 10.0;
            assert_eq!(h.bin_of(x), k, "boundary {x} must open bin {k}");
        }
        let shifted = Histogram::new(-0.5, 0.5, 10);
        assert_eq!(shifted.bin_of(-0.2), 3);
        assert_eq!(shifted.bin_of(0.3), 8);
    }

    #[test]
    fn bin_centers_map_to_their_own_bin() {
        for bins in [1usize, 3, 7, 10, 16] {
            let h = Histogram::new(-2.5, 7.5, bins);
            for k in 0..bins {
                assert_eq!(h.bin_of(h.bin_center(k)), k, "{bins} bins, center {k}");
            }
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut h = Histogram::new(0.0, 1.0, 3);
        for i in 0..10 {
            h.record(i as f64 / 10.0);
        }
        let p: f64 = h.probabilities().iter().sum();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_probabilities_uniform() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.probabilities(), vec![0.25; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
