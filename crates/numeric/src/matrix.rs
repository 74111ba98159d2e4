//! Dense, row-major, `f64` matrices.
//!
//! [`Matrix`] is deliberately small and concrete: the workspace only ever
//! needs modest dimensions (circuit MNA systems of a few dozen unknowns,
//! DoE model matrices of at most a few hundred rows), so a contiguous
//! row-major `Vec<f64>` with straightforward `O(n^3)` kernels is both
//! simple and fast enough.

use crate::{NumericError, Result};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major matrix of `f64` values.
///
/// # Example
///
/// ```
/// use ehsim_numeric::Matrix;
///
/// # fn main() -> Result<(), ehsim_numeric::NumericError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = (&a * &b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Dimension`] if the rows have differing
    /// lengths or if `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(NumericError::dimension("at least one row", "0 rows"));
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(NumericError::dimension("at least one column", "0 columns"));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(NumericError::dimension(
                    format!("{cols} columns"),
                    format!("{} columns in row {i}", r.len()),
                ));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Dimension`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(NumericError::dimension(
                format!("{} elements", rows * cols),
                format!("{}", data.len()),
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The rows in order, each as a slice of `cols()` entries.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (0..self.rows).map(move |i| &self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Borrow of row `i` as a slice, or `None` if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> Option<&[f64]> {
        (i < self.rows).then(|| &self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Mutable borrow of row `i` as a slice, or `None` if
    /// `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> Option<&mut [f64]> {
        if i < self.rows {
            Some(&mut self.data[i * self.cols..(i + 1) * self.cols])
        } else {
            None
        }
    }

    /// Copy of column `j`, or `None` if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Option<Vec<f64>> {
        (j < self.cols).then(|| self.iter_rows().map(|row| row[j]).collect())
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Dimension`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(NumericError::dimension(
                format!("vector of length {}", self.cols),
                format!("length {}", x.len()),
            ));
        }
        let mut y = vec![0.0; self.rows];
        for (yi, row) in y.iter_mut().zip(self.iter_rows()) {
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *yi = acc;
        }
        Ok(y)
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Dimension`] if `x.len() != self.rows()`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(NumericError::dimension(
                format!("vector of length {}", self.rows),
                format!("length {}", x.len()),
            ));
        }
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for j in 0..self.cols {
                y[j] += self[(i, j)] * xi;
            }
        }
        Ok(y)
    }

    /// In-place scaling by a scalar.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns `self * s` without modifying `self`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(s);
        out
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        self.iter_rows()
            .map(|row| row.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Dimension`] if the matrix is not square.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(NumericError::dimension(
                "square matrix",
                format!("{}x{}", self.rows, self.cols),
            ));
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Elementwise maximum absolute difference to another matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Dimension`] on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f64> {
        self.check_same_shape(other)?;
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .fold(0.0, |m, (a, b)| m.max((a - b).abs())))
    }

    /// Extracts the contiguous sub-matrix with rows `r0..r1` and columns
    /// `c0..c1` (half-open ranges; an empty range gives an empty side).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Dimension`] if a range is reversed or
    /// ends past the matrix.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Result<Matrix> {
        if !(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols) {
            return Err(NumericError::dimension(
                format!("ranges within {}x{}", self.rows, self.cols),
                format!("rows {r0}..{r1}, columns {c0}..{c1}"),
            ));
        }
        Ok(Matrix::from_fn(r1 - r0, c1 - c0, |i, j| {
            self[(r0 + i, c0 + j)]
        }))
    }

    /// Whether all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    fn check_same_shape(&self, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(NumericError::dimension(
                format!("{}x{}", self.rows, self.cols),
                format!("{}x{}", other.rows, other.cols),
            ));
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Result<Matrix>;

    fn add(self, rhs: &Matrix) -> Result<Matrix> {
        self.check_same_shape(rhs)?;
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

impl Sub for &Matrix {
    type Output = Result<Matrix>;

    fn sub(self, rhs: &Matrix) -> Result<Matrix> {
        self.check_same_shape(rhs)?;
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

impl Mul for &Matrix {
    type Output = Result<Matrix>;

    fn mul(self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(NumericError::dimension(
                format!("inner dimension {}", self.cols),
                format!("{} rows", rhs.rows),
            ));
        }
        let n = rhs.cols;
        let mut out = Matrix::zeros(self.rows, n);
        // i-k-j loop order keeps the inner loop contiguous in both
        // operands, which matters for the repeated squarings in `expm`.
        for (i, a_row) in self.iter_rows().enumerate() {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (&aik, rhs_row) in a_row.iter().zip(rhs.iter_rows()) {
                if aik == 0.0 {
                    continue;
                }
                for (o, r) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += aik * r;
                }
            }
        }
        Ok(out)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix {}x{} ", self.rows, self.cols)?;
        f.debug_list().entries(self.iter_rows()).finish()
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.5e}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert!(approx_eq(i.trace().unwrap(), 3.0));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, NumericError::Dimension { .. }));
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = (&a * &b).unwrap();
        assert!(approx_eq(c[(0, 0)], 19.0));
        assert!(approx_eq(c[(0, 1)], 22.0));
        assert!(approx_eq(c[(1, 0)], 43.0));
        assert!(approx_eq(c[(1, 1)], 50.0));
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!((&a * &b).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, -1.0, 2.0], &[0.0, 3.0, 1.0]]).unwrap();
        let x = [2.0, 1.0, -1.0];
        let y = a.matvec(&x).unwrap();
        assert!(approx_eq(y[0], -1.0));
        assert!(approx_eq(y[1], 2.0));
    }

    #[test]
    fn matvec_transposed_matches_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let x = [1.0, -1.0, 2.0];
        let direct = a.matvec_transposed(&x).unwrap();
        let via_t = a.transpose().matvec(&x).unwrap();
        assert!(approx_eq(direct[0], via_t[0]));
        assert!(approx_eq(direct[1], via_t[1]));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn rows_and_columns_are_borrowed_in_range_only() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        assert_eq!(a.row(2), Some(&[5.0, 6.0][..]));
        assert_eq!(a.row(3), None);
        assert_eq!(a.row(usize::MAX), None);
        assert_eq!(a.col(1), Some(vec![2.0, 4.0, 6.0]));
        assert_eq!(a.col(2), None);
        if let Some(r) = a.row_mut(0) {
            r[1] = -2.0;
        }
        assert_eq!(a[(0, 1)], -2.0);
        assert!(a.row_mut(3).is_none());
        let rows: Vec<&[f64]> = a.iter_rows().collect();
        assert_eq!(rows, [&[1.0, -2.0][..], &[3.0, 4.0], &[5.0, 6.0]]);
        // A matrix without columns still has its rows, each empty.
        assert_eq!(Matrix::zeros(2, 0).iter_rows().count(), 2);
    }

    #[test]
    fn trace_of_a_non_square_matrix_is_a_dimension_error() {
        assert!(matches!(
            Matrix::zeros(2, 3).trace(),
            Err(NumericError::Dimension { .. })
        ));
        assert_eq!(Matrix::zeros(0, 0).trace(), Ok(0.0));
    }

    #[test]
    fn submatrix_out_of_range_is_a_dimension_error() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        for (r0, r1, c0, c1) in [(0, 4, 0, 1), (0, 1, 0, 5), (2, 1, 0, 1), (0, 1, 3, 2)] {
            assert!(
                matches!(
                    a.submatrix(r0, r1, c0, c1),
                    Err(NumericError::Dimension { .. })
                ),
                "rows {r0}..{r1}, columns {c0}..{c1}"
            );
        }
        assert_eq!(a.submatrix(0, 3, 4, 4).unwrap().shape(), (3, 0));
    }

    #[test]
    fn norms_on_known_matrix() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]).unwrap();
        assert!(approx_eq(a.norm_inf(), 7.0));
        assert!(approx_eq(a.norm_max(), 4.0));
        assert!(approx_eq(a.norm_frobenius(), 30.0_f64.sqrt()));
    }

    #[test]
    fn submatrix_extracts_block() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = a.submatrix(1, 3, 2, 4).unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert!(approx_eq(s[(0, 0)], 6.0));
        assert!(approx_eq(s[(1, 1)], 11.0));
    }

    #[test]
    fn diagonal_builds_square() {
        let d = Matrix::diagonal(&[1.0, 2.0, 3.0]);
        assert!(approx_eq(d.trace().unwrap(), 6.0));
        assert!(approx_eq(d[(0, 1)], 0.0));
    }

    #[test]
    fn display_and_debug_nonempty() {
        let a = Matrix::identity(2);
        assert!(!format!("{a}").is_empty());
        assert!(!format!("{a:?}").is_empty());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(3, 3, |i, j| (i * j) as f64);
        let s = (&a + &b).unwrap();
        let back = (&s - &b).unwrap();
        assert!(back.max_abs_diff(&a).unwrap() < 1e-15);
    }
}
