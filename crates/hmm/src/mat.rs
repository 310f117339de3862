//! Flat row-major matrix storage for the HMM numeric kernels.
//!
//! The kernels in this crate
//! ([`forward_backward_into`](crate::forward_backward_into),
//! [`BaumWelch`](crate::BaumWelch), [`viterbi`](crate::viterbi)) index
//! dense `T×N` and `N×N` tables in tight loops. `Vec<Vec<f64>>` costs one
//! pointer chase per row access and one heap allocation per row; [`Mat`]
//! stores the same table as a single contiguous buffer, so row access is
//! a slice index and the whole table is one allocation that a workspace
//! can reuse across calls.

use std::ops::{Index, IndexMut};

/// A dense row-major `rows × cols` matrix of `f64` backed by one
/// contiguous buffer.
///
/// Rows are exposed as plain slices, so code written against
/// `Vec<Vec<f64>>` (`for row in m.iter() { row.iter().sum() }`) keeps
/// working against `&Mat`.
///
/// # Examples
///
/// ```
/// use sstd_hmm::Mat;
///
/// let m = Mat::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8]]);
/// assert_eq!(m[(0, 1)], 0.1);
/// assert_eq!(m.row(1), &[0.2, 0.8]);
/// let sums: Vec<f64> = m.iter().map(|row| row.iter().sum()).collect();
/// assert_eq!(sums, vec![1.0, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Mat {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Mat {
    /// Creates a `rows × cols` matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Creates an empty `0 × 0` matrix (no allocation); grow it later
    /// with [`resize`](Self::resize).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a matrix from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { data, rows: rows.len(), cols }
    }

    /// Number of rows.
    #[must_use]
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// The whole buffer in row-major order.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The whole buffer in row-major order, mutably — what the kernels
    /// slice once before their loops instead of indexing per element.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshapes to `rows × cols`, keeping the existing buffer when it is
    /// large enough (entries are *not* reset — callers overwrite or
    /// [`fill`](Self::fill) before reading).
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Sets every entry to `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Rows `r` and `r + 1` as simultaneously borrowed mutable slices —
    /// the access pattern of the forward (`α_t` from `α_{t−1}`) and
    /// backward (`β_t` from `β_{t+1}`) recurrences.
    ///
    /// # Panics
    ///
    /// Panics if `r + 1` is out of range.
    pub fn adjacent_rows_mut(&mut self, r: usize) -> (&mut [f64], &mut [f64]) {
        assert!(r + 1 < self.rows, "row {} out of range for {} rows", r + 1, self.rows);
        let c = self.cols;
        let (lo, hi) = self.data.split_at_mut((r + 1) * c);
        (&mut lo[r * c..], &mut hi[..c])
    }

    /// Iterates over rows as slices.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &[f64]> + ExactSizeIterator + '_ {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index ({r}, {c}) out of range");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index ({r}, {c}) out of range");
        &mut self.data[r * self.cols + c]
    }
}

impl<'a> IntoIterator for &'a Mat {
    type Item = &'a [f64];
    type IntoIter = std::iter::Take<std::slice::ChunksExact<'a, f64>>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_index() {
        let mut m = Mat::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(0), &[0.0; 3]);
    }

    #[test]
    fn from_rows_roundtrip() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let m = Mat::from_rows(&rows);
        assert!(m.iter().eq(rows.iter().map(Vec::as_slice)));
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Mat::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn resize_reuses_buffer() {
        let mut m = Mat::zeros(4, 2);
        let cap = {
            m.resize(2, 2);
            m.data.capacity()
        };
        m.resize(4, 2); // grow back within capacity
        assert_eq!(m.data.capacity(), cap);
        assert_eq!(m.rows(), 4);
    }

    #[test]
    fn adjacent_rows_are_disjoint() {
        let mut m = Mat::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let (a, b) = m.adjacent_rows_mut(1);
        assert_eq!(a, &[2.0, 2.0]);
        assert_eq!(b, &[3.0, 3.0]);
        b[0] = 9.0;
        assert_eq!(m[(2, 0)], 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn adjacent_rows_bound_checked() {
        let mut m = Mat::zeros(2, 2);
        let _ = m.adjacent_rows_mut(1);
    }

    #[test]
    fn iter_yields_row_slices() {
        let m = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let sums: Vec<f64> = m.iter().map(|r| r.iter().sum()).collect();
        assert_eq!(sums, vec![3.0, 7.0]);
        assert_eq!((&m).into_iter().count(), 2);
    }

    #[test]
    fn empty_mat_iterates_nothing() {
        let m = Mat::new();
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.rows(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_bound_checked() {
        let m = Mat::zeros(2, 2);
        let _ = m[(2, 0)];
    }
}
