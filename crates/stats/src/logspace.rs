//! Numerically stable log-space reductions.

/// Computes `ln Σ exp(xs[i])` without overflow/underflow.
///
/// Returns `f64::NEG_INFINITY` for an empty slice or a slice of
/// `-∞` values — the natural identity for log-space sums.
///
/// # Examples
///
/// ```
/// use sstd_stats::log_sum_exp;
///
/// let xs = [0.0_f64.ln(), 1.0_f64.ln(), 2.0_f64.ln()];
/// assert!((log_sum_exp(&xs) - 3.0_f64.ln()).abs() < 1e-12);
/// assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
/// ```
#[must_use]
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        // All -inf (or empty): sum of zeros. (+inf propagates as +inf.)
        return max.max(f64::NEG_INFINITY);
    }
    let sum: f64 = xs.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lse_handles_large_magnitudes() {
        // exp(1000) would overflow; LSE must not.
        let xs = [1000.0, 1000.0];
        assert!((log_sum_exp(&xs) - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
        let ys = [-1000.0, -1000.0];
        assert!((log_sum_exp(&ys) - (-1000.0 + 2.0_f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn lse_of_single_element_is_identity() {
        assert_eq!(log_sum_exp(&[3.25]), 3.25);
    }

    #[test]
    fn lse_all_neg_inf() {
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY; 3]), f64::NEG_INFINITY);
    }
}
