//! Rectangular maximum-weight assignment via the Hungarian algorithm.
//!
//! WOLT's Phase I (Theorem 2 of the paper) is *exactly* an assignment
//! problem: pick which user serves each extender so that the sum of
//! utilities `u_ij = min(c_j/|A|, r_ij)` is maximal, with each extender
//! receiving exactly one user and each user serving at most one extender.
//! The paper cites the Hungarian algorithm and its O(|A|³) runtime; this
//! module implements the shortest-augmenting-path formulation with dual
//! potentials (Jonker–Volgenant style), which achieves that bound.
//!
//! The solver works on one flat table of costs in the *oriented* layout,
//! whose rows are the matrix's smaller side: in WOLT's Phase I, one row
//! per extender and one column per user. Each augmenting-path search is a
//! Dijkstra over the columns; its state is allocated once per solve, and
//! each of its passes relaxes the free columns and picks the nearest in
//! one sweep of selects over a contiguous row of costs.
//!
//! The public entry point, [`max_weight_assignment`], accepts rectangular
//! matrices (more users than extenders or vice versa) and utilities of
//! `f64::NEG_INFINITY`/NaN meaning "this (user, extender) pair is
//! infeasible" (e.g. the user is out of WiFi range of the extender).

use crate::Matrix;

/// Result of a maximum-weight assignment.
///
/// Produced by [`max_weight_assignment`]. `pairs` lists the matched
/// `(row, col)` pairs; `row_to_col`/`col_to_row` give O(1) lookups in both
/// directions (`None` for unmatched rows/columns, which occur when the
/// matrix is rectangular or when a row has no feasible column).
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Matched `(row, col)` pairs, in increasing row order.
    pub pairs: Vec<(usize, usize)>,
    /// Sum of utilities over `pairs`.
    pub total: f64,
    /// For each row, the matched column (if any).
    pub row_to_col: Vec<Option<usize>>,
    /// For each column, the matched row (if any).
    pub col_to_row: Vec<Option<usize>>,
}

impl Assignment {
    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pair was matched.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Solves the maximum-weight assignment problem on a rectangular utility
/// matrix.
///
/// Rows that cannot be feasibly matched (all their utilities are
/// `NEG_INFINITY`/NaN, or the matrix has more rows than columns) are left
/// unmatched. The returned [`Assignment`] always matches
/// `min(rows, cols)` pairs minus any forced-infeasible ones.
///
/// Runs in O(n³) time for an n×n matrix (O(min² · max) for rectangular
/// inputs after the internal orientation step).
///
/// # Example
///
/// ```
/// use wolt_opt::{hungarian::max_weight_assignment, Matrix};
///
/// # fn main() -> Result<(), wolt_opt::OptError> {
/// let u = Matrix::from_rows(&[vec![3.0, 1.0], vec![2.0, 4.0]])?;
/// let a = max_weight_assignment(&u);
/// assert_eq!(a.pairs, vec![(0, 0), (1, 1)]);
/// assert_eq!(a.total, 7.0);
/// # Ok(())
/// # }
/// ```
pub fn max_weight_assignment(utility: &Matrix) -> Assignment {
    let (rows, cols) = (utility.rows(), utility.cols());
    // The augmenting-path core needs no more rows than columns, so it runs
    // on the transposed problem when there are more rows than columns.
    let flipped = rows > cols;
    let (n, m) = if flipped { (cols, rows) } else { (rows, cols) };
    let matched_row = match_rows(&oriented_costs(utility, flipped), n, m);

    // Collect matches in the input's coordinates, dropping pairs that
    // landed on infeasible cells.
    let mut pairs = Vec::with_capacity(n);
    for (j, &i) in matched_row.iter().enumerate().skip(1) {
        if i == 0 {
            continue;
        }
        let (row, col) = if flipped {
            (j - 1, i - 1)
        } else {
            (i - 1, j - 1)
        };
        if utility[(row, col)].is_finite() {
            pairs.push((row, col));
        }
    }
    pairs.sort_unstable();

    let mut row_to_col = vec![None; rows];
    let mut col_to_row = vec![None; cols];
    let mut total = 0.0;
    for &(r, c) in &pairs {
        row_to_col[r] = Some(c);
        col_to_row[c] = Some(r);
        total += utility[(r, c)];
    }

    Assignment {
        pairs,
        total,
        row_to_col,
        col_to_row,
    }
}

/// The minimization costs of `utility`'s cells as one row-major table in
/// the oriented layout: transposed when `flipped`, so that its rows are
/// the smaller side.
///
/// A finite utility `u` costs `max_u - u`. An infeasible cell costs a
/// large *finite* penalty, so the algorithm can always complete a
/// perfect matching on the rows; pairs that end up on a penalty cell are
/// stripped from the result afterwards.
fn oriented_costs(utility: &Matrix, flipped: bool) -> Vec<f64> {
    let (rows, cols) = (utility.rows(), utility.cols());
    let (mut max_u, mut min_u) = (f64::NEG_INFINITY, f64::INFINITY);
    for i in 0..rows {
        for &u in utility.row(i).iter().filter(|u| u.is_finite()) {
            max_u = max_u.max(u);
            min_u = min_u.min(u);
        }
    }
    if !max_u.is_finite() {
        // No finite cell: every cost is the penalty.
        (max_u, min_u) = (0.0, 0.0);
    }
    let span = (max_u - min_u).max(1.0);
    let forbidden_cost = span * (rows + cols + 1) as f64;

    let mut cost = vec![0.0; rows * cols];
    for i in 0..rows {
        for (j, &u) in utility.row(i).iter().enumerate() {
            let cell = if flipped { j * rows + i } else { i * cols + j };
            cost[cell] = if u.is_finite() {
                max_u - u
            } else {
                forbidden_cost
            };
        }
    }
    cost
}

/// Shortest-augmenting-path Hungarian with potentials over the row-major
/// `n × m` table `cost` (`n <= m`). Columns are 1-indexed, with index 0
/// the virtual source column. Returns each column's matched row,
/// 1-indexed, with 0 for none (entry 0 is the virtual column's).
fn match_rows(cost: &[f64], n: usize, m: usize) -> Vec<usize> {
    debug_assert!(n <= m && cost.len() == n * m);
    let inf = f64::INFINITY;
    let mut pot_row = vec![0.0; n + 1];
    let mut pot_col = vec![0.0; m + 1];
    let mut matched_row = vec![0usize; m + 1]; // matched_row[j] = row matched to col j (0 = none)
    let mut way = vec![0usize; m + 1];
    // One row's search state, allocated once and refilled for each row.
    let mut min_to_col = vec![inf; m + 1];
    let mut used = vec![false; m + 1];
    let mut used_cols = Vec::with_capacity(n + 1);

    for i in 1..=n {
        matched_row[0] = i;
        let mut j0 = 0usize;
        min_to_col.fill(inf);
        used.fill(false);
        used_cols.clear();
        loop {
            used[j0] = true;
            used_cols.push(j0);
            let i0 = matched_row[j0];
            let pot_i0 = pot_row[i0];
            let mut delta = inf;
            let mut j1 = 0usize;
            // Relax every free column from row i0 and find the nearest
            // one, the first strictly smaller, in one pass of selects.
            let columns = cost[(i0 - 1) * m..i0 * m]
                .iter()
                .zip(&pot_col[1..])
                .zip(&used[1..])
                .zip(&mut min_to_col[1..])
                .zip(&mut way[1..]);
            for (j, ((((&c, &pot_j), &used_j), min_j), way_j)) in columns.enumerate() {
                let cur = c - pot_i0 - pot_j;
                let relax = !used_j & (cur < *min_j);
                *min_j = if relax { cur } else { *min_j };
                *way_j = if relax { j0 } else { *way_j };
                let nearer = !used_j & (*min_j < delta);
                delta = if nearer { *min_j } else { delta };
                j1 = if nearer { j + 1 } else { j1 };
            }
            // Each used column's row is distinct, so every row gets one
            // add. A used column's distance is never read again in this
            // row's search, so every distance can drop by delta.
            for &j in &used_cols {
                pot_row[matched_row[j]] += delta;
                pot_col[j] -= delta;
            }
            for min_j in &mut min_to_col {
                *min_j -= delta;
            }
            j0 = j1;
            if matched_row[j0] == 0 {
                break;
            }
        }
        // Unwind the alternating path to augment the matching.
        loop {
            let j1 = way[j0];
            matched_row[j0] = matched_row[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    matched_row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;

    fn assignment_for(rows: &[Vec<f64>]) -> Assignment {
        max_weight_assignment(&Matrix::from_rows(rows).unwrap())
    }

    #[test]
    fn one_by_one() {
        let a = assignment_for(&[vec![5.0]]);
        assert_eq!(a.pairs, vec![(0, 0)]);
        assert_eq!(a.total, 5.0);
    }

    #[test]
    fn square_diagonal_dominant() {
        let a = assignment_for(&[
            vec![10.0, 1.0, 1.0],
            vec![1.0, 10.0, 1.0],
            vec![1.0, 1.0, 10.0],
        ]);
        assert_eq!(a.pairs, vec![(0, 0), (1, 1), (2, 2)]);
        assert_eq!(a.total, 30.0);
    }

    #[test]
    fn square_antidiagonal_optimal() {
        let a = assignment_for(&[vec![1.0, 10.0], vec![10.0, 1.0]]);
        assert_eq!(a.pairs, vec![(0, 1), (1, 0)]);
        assert_eq!(a.total, 20.0);
    }

    #[test]
    fn paper_fig3_phase1_utilities() {
        // Fig. 3a rates: c = (60, 20), r = [[15, 10], [40, 20]].
        // Phase I utilities u_ij = min(c_j/2, r_ij):
        //   user 1: min(30,15)=15, min(10,10)=10
        //   user 2: min(30,40)=30, min(10,20)=10
        let a = assignment_for(&[vec![15.0, 10.0], vec![30.0, 10.0]]);
        assert_eq!(a.total, 40.0);
        // The optimal matching puts user 2 (index 1) on extender 1 (index 0).
        assert_eq!(a.row_to_col[1], Some(0));
        assert_eq!(a.row_to_col[0], Some(1));
    }

    #[test]
    fn rectangular_more_rows_selects_best_subset() {
        // 3 users, 2 extenders: only the two best users get matched.
        let a = assignment_for(&[vec![1.0, 1.0], vec![5.0, 6.0], vec![7.0, 2.0]]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.total, 13.0); // user 2 -> ext 1 (6), user 3 -> ext 0 (7)
        assert_eq!(a.row_to_col[0], None);
    }

    #[test]
    fn rectangular_more_cols_matches_all_rows() {
        let a = assignment_for(&[vec![1.0, 9.0, 3.0]]);
        assert_eq!(a.pairs, vec![(0, 1)]);
        assert_eq!(a.total, 9.0);
    }

    #[test]
    fn infeasible_cells_avoided() {
        let ninf = f64::NEG_INFINITY;
        let a = assignment_for(&[vec![ninf, 4.0], vec![3.0, ninf]]);
        assert_eq!(a.pairs, vec![(0, 1), (1, 0)]);
        assert_eq!(a.total, 7.0);
    }

    #[test]
    fn fully_infeasible_row_left_unmatched() {
        let ninf = f64::NEG_INFINITY;
        let a = assignment_for(&[vec![ninf, ninf], vec![3.0, 5.0]]);
        assert_eq!(a.len(), 1);
        assert_eq!(a.row_to_col[0], None);
        assert_eq!(a.total, 5.0);
    }

    #[test]
    fn nan_treated_as_infeasible() {
        let a = assignment_for(&[vec![f64::NAN, 2.0], vec![1.0, f64::NAN]]);
        assert_eq!(a.pairs, vec![(0, 1), (1, 0)]);
        assert_eq!(a.total, 3.0);
    }

    #[test]
    fn negative_utilities_supported() {
        let a = assignment_for(&[vec![-1.0, -5.0], vec![-5.0, -2.0]]);
        assert_eq!(a.pairs, vec![(0, 0), (1, 1)]);
        assert_eq!(a.total, -3.0);
    }

    #[test]
    fn ties_still_produce_valid_matching() {
        let a = assignment_for(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.total, 2.0);
        // Each column used exactly once.
        let mut cols: Vec<_> = a.pairs.iter().map(|p| p.1).collect();
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1]);
    }

    #[test]
    fn lookups_consistent_with_pairs() {
        let a = assignment_for(&[vec![4.0, 1.0, 2.0], vec![2.0, 8.0, 3.0]]);
        for &(r, c) in &a.pairs {
            assert_eq!(a.row_to_col[r], Some(c));
            assert_eq!(a.col_to_row[c], Some(r));
        }
    }

    #[test]
    fn matches_brute_force_on_random_square_matrices() {
        use wolt_support::rng::{Rng, SeedableRng};
        let mut rng = wolt_support::rng::ChaCha8Rng::seed_from_u64(42);
        for n in 2..=6 {
            for _ in 0..20 {
                let m = Matrix::from_fn(n, n, |_, _| rng.gen_range(0.0..100.0)).unwrap();
                let hung = max_weight_assignment(&m);
                let (_, best) = brute::best_perfect_matching(&m);
                assert!(
                    (hung.total - best).abs() < 1e-6,
                    "hungarian {} != brute {} on {m}",
                    hung.total,
                    best
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_on_random_rectangular_matrices() {
        use wolt_support::rng::{Rng, SeedableRng};
        let mut rng = wolt_support::rng::ChaCha8Rng::seed_from_u64(7);
        for (rows, cols) in [(2usize, 5usize), (5, 2), (3, 4), (4, 3), (6, 3)] {
            for _ in 0..20 {
                let m = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(0.0..50.0)).unwrap();
                let hung = max_weight_assignment(&m);
                let (_, best) = brute::best_perfect_matching(&m);
                assert!(
                    (hung.total - best).abs() < 1e-6,
                    "hungarian {} != brute {} on {m}",
                    hung.total,
                    best
                );
            }
        }
    }
}
