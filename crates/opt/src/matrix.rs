//! A small dense row-major `f64` matrix.
//!
//! Utility tables in WOLT are dense (every user has a candidate utility for
//! every extender, `-inf`/`0` standing in for unreachable pairs), so a flat
//! `Vec<f64>` with row-major indexing is the right representation: cache
//! friendly for the row scans the Hungarian algorithm performs, and trivially
//! serializable for experiment records.

use crate::OptError;
use std::fmt;
use std::ops::{Index, IndexMut};
use wolt_support::json::{FromJson, Json, JsonError, ToJson};

/// Dense row-major matrix of `f64` values.
///
/// In WOLT, rows index users and columns index extenders, so `m[(i, j)]`
/// reads "the utility (or rate) of user `i` on extender `j`".
///
/// # Example
///
/// ```
/// use wolt_opt::Matrix;
///
/// # fn main() -> Result<(), wolt_opt::OptError> {
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with `fill`.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::EmptyMatrix`] if either dimension is zero.
    pub fn filled(rows: usize, cols: usize, fill: f64) -> Result<Self, OptError> {
        if rows == 0 || cols == 0 {
            return Err(OptError::EmptyMatrix);
        }
        Ok(Self {
            rows,
            cols,
            data: vec![fill; rows * cols],
        })
    }

    /// Creates a matrix of zeros.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::EmptyMatrix`] if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self, OptError> {
        Self::filled(rows, cols, 0.0)
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::EmptyMatrix`] if `rows` is empty or the first row
    /// is empty, and [`OptError::RaggedRows`] if row lengths differ.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, OptError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(OptError::EmptyMatrix);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (idx, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(OptError::RaggedRows {
                    expected: cols,
                    found: row.len(),
                    row: idx,
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every cell.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::EmptyMatrix`] if either dimension is zero.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(
        rows: usize,
        cols: usize,
        mut f: F,
    ) -> Result<Self, OptError> {
        if rows == 0 || cols == 0 {
            return Err(OptError::EmptyMatrix);
        }
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Value at `(row, col)`, or `None` if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Transposed copy of the matrix.
    pub fn transposed(&self) -> Matrix {
        let mut data = vec![0.0; self.data.len()];
        for i in 0..self.rows {
            for j in 0..self.cols {
                data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        Matrix {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }

    /// True if every cell is finite (no NaN or infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl ToJson for Matrix {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rows", self.rows.to_json()),
            ("cols", self.cols.to_json()),
            ("data", self.data.to_json()),
        ])
    }
}

impl FromJson for Matrix {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let rows = usize::from_json(value.field("rows")?)?;
        let cols = usize::from_json(value.field("cols")?)?;
        let data: Vec<f64> = Vec::from_json(value.field("data")?)?;
        if rows == 0 || cols == 0 {
            return Err(JsonError::shape("matrix dimensions must be positive"));
        }
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(JsonError::shape(format!(
                "matrix data length {} != {rows} x {cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds ({} x {})",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds ({} x {})",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.3}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert_eq!(
            err,
            OptError::RaggedRows {
                expected: 1,
                found: 2,
                row: 1
            }
        );
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Matrix::from_rows(&[]).unwrap_err(), OptError::EmptyMatrix);
        assert_eq!(Matrix::zeros(0, 3).unwrap_err(), OptError::EmptyMatrix);
        assert_eq!(Matrix::zeros(3, 0).unwrap_err(), OptError::EmptyMatrix);
    }

    #[test]
    fn from_fn_fills_cells() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64).unwrap();
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(0, 1)], 1.0);
        assert_eq!(m[(1, 0)], 10.0);
        assert_eq!(m[(1, 1)], 11.0);
    }

    #[test]
    fn transpose_involutive() {
        let m = Matrix::from_fn(3, 2, |i, j| (i + 2 * j) as f64).unwrap();
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed()[(1, 2)], m[(2, 1)]);
    }

    #[test]
    fn get_bounds_checked() {
        let m = Matrix::zeros(2, 2).unwrap();
        assert_eq!(m.get(1, 1), Some(0.0));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.get(0, 2), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_panics_out_of_bounds() {
        let m = Matrix::zeros(2, 2).unwrap();
        let _ = m[(2, 0)];
    }

    #[test]
    fn json_round_trip() {
        let m = Matrix::from_fn(2, 2, |i, j| (i + j) as f64).unwrap();
        let json = m.to_json().to_compact();
        let back = Matrix::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(m, back);
        // Shape violations are rejected, not trusted.
        let bad = Json::parse(r#"{"rows":2,"cols":2,"data":[1.0]}"#).unwrap();
        assert!(Matrix::from_json(&bad).is_err());
        let empty = Json::parse(r#"{"rows":0,"cols":0,"data":[]}"#).unwrap();
        assert!(Matrix::from_json(&empty).is_err());
    }
}
