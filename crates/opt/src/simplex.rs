//! Euclidean projection onto the probability simplex.
//!
//! WOLT's Phase II (Problem 2 in the paper) relaxes each user's association
//! indicator row `x_i· ∈ {0,1}^|A|` with `Σ_j x_ij = 1` to the probability
//! simplex `{x ≥ 0, Σx = 1}`. Our projected-gradient solver (the stand-in
//! for the paper's interior-point method) needs an exact projection back
//! onto that simplex after every gradient step; this module implements the
//! standard O(n log n) sort-based algorithm (Held, Wolfe & Crowder 1974;
//! popularized by Duchi et al. 2008).
//!
//! A user that is out of WiFi range of extender `j` must keep `x_ij = 0`,
//! so each row's simplex spans only its allowed (reachable) coordinates.
//! [`Supports`] lists those coordinates row by row and describes the
//! packed layout the solver works in: one value per allowed coordinate,
//! each row's values contiguous. [`project_simplex_with_scratch`] is the
//! solver's in-place kernel over one such row; it returns
//! [`project_simplex`]'s result bit for bit, without allocating. It sorts
//! a row of at most 16 values with a fixed sorting network on the stack,
//! and a longer one (a user that reaches more than 16 extenders) with a
//! general sort in reused scratch.

/// Projects `v` in place onto the probability simplex
/// `{x : x_i ≥ 0, Σ x_i = 1}`.
///
/// # Panics
///
/// Panics if `v` is empty or contains non-finite values.
///
/// # Example
///
/// ```
/// use wolt_opt::simplex::project_simplex;
///
/// let mut v = vec![0.8, 0.8];
/// project_simplex(&mut v);
/// assert!((v[0] - 0.5).abs() < 1e-12);
/// assert!((v[1] - 0.5).abs() < 1e-12);
/// ```
pub fn project_simplex(v: &mut [f64]) {
    assert!(!v.is_empty(), "cannot project an empty vector");
    assert!(
        v.iter().all(|x| x.is_finite()),
        "cannot project non-finite values"
    );
    if already_on_simplex(v) {
        return;
    }

    let mut sorted: Vec<f64> = v.to_vec();
    sorted.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite values compare"));
    let tau = threshold(&sorted);
    for x in v.iter_mut() {
        *x = (*x - tau).max(0.0);
    }
}

/// Projects `v` in place onto the probability simplex, bit for bit as
/// [`project_simplex`] does. A row of at most 16 values is sorted on the
/// stack by a fixed sorting network. A longer row is sorted in `scratch`,
/// working space for `v.len()` values; reused across calls, it stops
/// allocating once it fits the longest row.
///
/// # Panics
///
/// Panics if `v` is empty or contains non-finite values.
pub fn project_simplex_with_scratch(v: &mut [f64], scratch: &mut Vec<f64>) {
    assert!(
        !v.is_empty(),
        "cannot project onto simplex with no allowed coordinate"
    );
    assert!(
        v.iter().all(|x| x.is_finite()),
        "cannot project non-finite values"
    );
    if already_on_simplex(v) {
        return;
    }
    // Any descending order of finite values gives the reference's
    // threshold: orders differ only in where -0.0 and +0.0 fall, and
    // neither moves a prefix sum or a comparison. The network and the
    // sort are two such orders.
    let tau = if v.len() <= NETWORK_LEN {
        // The -inf padding sorts after every finite value.
        let mut sorted: [f64; NETWORK_LEN] =
            std::array::from_fn(|k| v.get(k).copied().unwrap_or(f64::NEG_INFINITY));
        sort_descending_16(&mut sorted);
        threshold(&sorted[..v.len()])
    } else {
        scratch.clear();
        scratch.extend_from_slice(v);
        scratch.sort_unstable_by(|a, b| b.total_cmp(a));
        threshold(scratch)
    };
    for x in v.iter_mut() {
        *x = (*x - tau).max(0.0);
    }
}

/// The longest row [`project_simplex_with_scratch`] sorts with
/// [`sort_descending_16`].
const NETWORK_LEN: usize = 16;

/// Sorts `v` in descending order with Batcher's odd–even merge sort for
/// 16 inputs: 63 compare-exchanges at fixed positions, fully unrolled.
/// Each one swaps its pair when the first is smaller, so the result is a
/// permutation of `v`. The swaps are selects marked unpredictable: as
/// plain `if`s they compiled to branches, which mispredict on real rows
/// and made the projection slower than the general sort. Inlined, the
/// 16 values stay in registers.
#[inline(always)]
fn sort_descending_16(v: &mut [f64; NETWORK_LEN]) {
    #[inline(always)]
    fn compare_exchange(v: &mut [f64; NETWORK_LEN], a: usize, b: usize) {
        let (x, y) = (v[a], v[b]);
        let swap = x < y;
        v[a] = std::hint::select_unpredictable(swap, y, x);
        v[b] = std::hint::select_unpredictable(swap, x, y);
    }
    macro_rules! network {
        ($(($a:literal, $b:literal)),* $(,)?) => {
            $(compare_exchange(v, $a, $b);)*
        };
    }
    // Sort pairs, then merge into sorted runs of 4, 8 and 16.
    network! {
        (0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15),
        (0, 2), (1, 3), (4, 6), (5, 7), (8, 10), (9, 11), (12, 14), (13, 15),
        (1, 2), (5, 6), (9, 10), (13, 14),
        (0, 4), (1, 5), (2, 6), (3, 7), (8, 12), (9, 13), (10, 14), (11, 15),
        (2, 4), (3, 5), (10, 12), (11, 13),
        (1, 2), (3, 4), (5, 6), (9, 10), (11, 12), (13, 14),
        (0, 8), (1, 9), (2, 10), (3, 11), (4, 12), (5, 13), (6, 14), (7, 15),
        (4, 8), (5, 9), (6, 10), (7, 11),
        (2, 4), (3, 5), (6, 8), (7, 9), (10, 12), (11, 13),
        (1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12), (13, 14),
    }
}

/// The row structure of a block variable over a product of simplices:
/// each row's support, the ascending list of coordinates (out of `cols`)
/// its simplex spans, stored back to back.
///
/// A *packed* vector over these supports holds one value per listed
/// coordinate, row after row: row `i`'s values are contiguous, in the
/// order of [`Supports::row`]`(i)`. With [`Supports::full`] that is the
/// flat row-major layout of a `rows × cols` block.
///
/// # Example
///
/// ```
/// use wolt_opt::simplex::Supports;
///
/// let mut supports = Supports::new(3);
/// supports.push_row([0, 2]);
/// supports.push_row([1]);
/// let mut x = vec![5.0, 5.0, -2.0]; // (row 0: coordinates 0 and 2), (row 1: coordinate 1)
/// supports.project(&mut x, &mut Vec::new());
/// assert_eq!(supports.unpack(&x), vec![vec![0.5, 0.0, 0.5], vec![0.0, 1.0, 0.0]]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supports {
    cols: usize,
    coords: Vec<usize>,
    /// `coords[starts[i]..starts[i + 1]]` is row `i`'s support.
    starts: Vec<usize>,
}

impl Supports {
    /// No rows yet, over coordinates `0..cols`.
    pub fn new(cols: usize) -> Self {
        Self {
            cols,
            coords: Vec::new(),
            starts: vec![0],
        }
    }

    /// Supports from their packed layout, for a caller that builds it in
    /// one pass: `coords` lists every row's support in turn, and row `i`
    /// spans `coords[starts[i]..starts[i + 1]]`.
    ///
    /// # Panics
    ///
    /// Panics unless `starts` begins at 0, never decreases and ends at
    /// `coords.len()`.
    pub fn from_packed(cols: usize, coords: Vec<usize>, starts: Vec<usize>) -> Self {
        assert!(
            starts.first() == Some(&0)
                && starts.last() == Some(&coords.len())
                && starts.windows(2).all(|w| w[0] <= w[1]),
            "row starts must run from 0 to the packed length without decreasing"
        );
        Self {
            cols,
            coords,
            starts,
        }
    }

    /// `rows` rows, each spanning all `cols` coordinates.
    pub fn full(rows: usize, cols: usize) -> Self {
        let mut supports = Self::new(cols);
        for _ in 0..rows {
            supports.push_row(0..cols);
        }
        supports
    }

    /// Appends a row spanning `coords`, which must be ascending and below
    /// `cols`: [`crate::ProjectedGradient::maximize`] rejects supports
    /// that are not.
    pub fn push_row(&mut self, coords: impl IntoIterator<Item = usize>) {
        self.coords.extend(coords);
        self.starts.push(self.coords.len());
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.starts.len() - 1
    }

    /// Length of a packed vector: the supports' total size.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when no row lists a coordinate.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Row `i`'s support, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[usize] {
        &self.coords[self.span(i)]
    }

    /// Where row `i`'s values lie in a packed vector, and its support in
    /// [`Supports::row`]: a slice of the same range of any vector laid out
    /// entry by entry like the packed one reads row `i`'s entries.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn span(&self, i: usize) -> std::ops::Range<usize> {
        self.starts[i]..self.starts[i + 1]
    }

    /// What makes these supports unusable for a solve, if anything: a row
    /// that lists no coordinate, or one out of range or out of order.
    pub(crate) fn defect(&self) -> Option<&'static str> {
        for span in self.starts.windows(2) {
            let row = &self.coords[span[0]..span[1]];
            if row.is_empty() {
                return Some("a support row allows no coordinate");
            }
            if row.windows(2).any(|w| w[0] >= w[1]) || row[row.len() - 1] >= self.cols {
                return Some("a support row is not ascending within its columns");
            }
        }
        None
    }

    /// Projects every row of the packed vector `x` in place onto its
    /// simplex with [`project_simplex_with_scratch`].
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than [`Supports::len`], or a row is empty
    /// or holds a non-finite value.
    pub fn project(&self, x: &mut [f64], scratch: &mut Vec<f64>) {
        for span in self.starts.windows(2) {
            project_simplex_with_scratch(&mut x[span[0]..span[1]], scratch);
        }
    }

    /// The packed vector `x` as dense rows of `cols` values: each row's
    /// values at its support's coordinates and exactly `0.0` elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than [`Supports::len`] or a coordinate is
    /// out of range.
    pub fn unpack(&self, x: &[f64]) -> Vec<Vec<f64>> {
        self.starts
            .windows(2)
            .map(|span| {
                let mut row = vec![0.0; self.cols];
                for (&j, &v) in self.coords[span[0]..span[1]]
                    .iter()
                    .zip(&x[span[0]..span[1]])
                {
                    row[j] = v;
                }
                row
            })
            .collect()
    }
}

/// The projection's fast-path tolerance: a row with no negative coordinate
/// whose sum is this close to 1 is left as it is.
const ON_SIMPLEX_TOL: f64 = 1e-12;

/// The solver's stationarity tolerance, at the projection's own
/// resolution: a rejected full-step trial that lies this close (max-abs)
/// to the iterate shows the iterate is a fixed point of
/// `x ↦ P(x + step·∇f(x))`, so the solve ends there.
pub(crate) const STATIONARY_TOL: f64 = 1e-12;

/// The projection's fast path: `v` has no negative coordinate and already
/// sums to 1 (within [`ON_SIMPLEX_TOL`]).
fn already_on_simplex(v: &[f64]) -> bool {
    v.iter().all(|&x| x >= 0.0) && (v.iter().sum::<f64>() - 1.0).abs() < ON_SIMPLEX_TOL
}

/// The projection threshold of a vector sorted in descending order:
/// `tau = (prefix_sum(rho) - 1) / rho` for the largest `rho` with
/// `sorted[rho-1] - tau > 0`.
fn threshold(sorted: &[f64]) -> f64 {
    let mut prefix = 0.0;
    let mut tau = 0.0;
    for (k, &u) in sorted.iter().enumerate() {
        prefix += u;
        let candidate = (prefix - 1.0) / (k + 1) as f64;
        if u - candidate > 0.0 {
            tau = candidate;
        }
    }
    tau
}

/// Returns `true` if `x` lies on the probability simplex up to `tol`:
/// all coordinates ≥ `-tol` and the sum within `tol` of 1.
pub fn is_on_simplex(x: &[f64], tol: f64) -> bool {
    if x.is_empty() {
        return false;
    }
    let sum: f64 = x.iter().sum();
    (sum - 1.0).abs() <= tol && x.iter().all(|&v| v >= -tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn identity_on_simplex_points() {
        let mut v = vec![0.2, 0.3, 0.5];
        project_simplex(&mut v);
        assert_close(v[0], 0.2);
        assert_close(v[1], 0.3);
        assert_close(v[2], 0.5);
    }

    #[test]
    fn uniform_from_equal_values() {
        let mut v = vec![10.0; 4];
        project_simplex(&mut v);
        for &x in &v {
            assert_close(x, 0.25);
        }
    }

    #[test]
    fn single_coordinate_becomes_one() {
        let mut v = vec![-3.7];
        project_simplex(&mut v);
        assert_close(v[0], 1.0);
    }

    #[test]
    fn dominant_coordinate_saturates() {
        let mut v = vec![100.0, 0.0, 0.0];
        project_simplex(&mut v);
        assert_close(v[0], 1.0);
        assert_close(v[1], 0.0);
        assert_close(v[2], 0.0);
    }

    #[test]
    fn negative_values_clamped() {
        let mut v = vec![-1.0, 0.5, 0.6];
        project_simplex(&mut v);
        assert_close(v[0], 0.0);
        assert!(is_on_simplex(&v, 1e-12));
        // Remaining mass split to keep the relative order: 0.45 / 0.55.
        assert_close(v[1], 0.45);
        assert_close(v[2], 0.55);
    }

    #[test]
    fn result_always_on_simplex() {
        let cases = [
            vec![0.1, 0.9, 2.3, -4.0],
            vec![1e6, -1e6],
            vec![0.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0, 1.0],
        ];
        for case in cases {
            let mut v = case.clone();
            project_simplex(&mut v);
            assert!(is_on_simplex(&v, 1e-9), "{case:?} -> {v:?}");
        }
    }

    #[test]
    fn projection_is_idempotent() {
        let mut v = vec![3.0, -1.0, 0.2, 0.9];
        project_simplex(&mut v);
        let once = v.clone();
        project_simplex(&mut v);
        for (a, b) in once.iter().zip(&v) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn projection_minimizes_distance_vs_grid() {
        // Check the optimality of the projection against a dense grid
        // search over the 2-simplex.
        let target = [0.9, -0.3, 0.7];
        let mut v = target.to_vec();
        project_simplex(&mut v);
        let proj_dist: f64 = target.iter().zip(&v).map(|(t, p)| (t - p).powi(2)).sum();
        let steps = 200;
        for i in 0..=steps {
            for j in 0..=(steps - i) {
                let x = [
                    i as f64 / steps as f64,
                    j as f64 / steps as f64,
                    (steps - i - j) as f64 / steps as f64,
                ];
                let d: f64 = target.iter().zip(&x).map(|(t, p)| (t - p).powi(2)).sum();
                assert!(proj_dist <= d + 1e-6, "grid point {x:?} beats projection");
            }
        }
    }

    #[test]
    fn masked_projection_zeroes_masked_coordinates() {
        let mut supports = Supports::new(3);
        supports.push_row([0, 2]);
        let mut x = vec![5.0, 5.0];
        supports.project(&mut x, &mut Vec::new());
        let v = &supports.unpack(&x)[0];
        assert_eq!(v[1].to_bits(), 0.0f64.to_bits());
        assert_close(v[0], 0.5);
        assert_close(v[2], 0.5);
    }

    #[test]
    fn masked_projection_single_allowed() {
        let mut supports = Supports::new(2);
        supports.push_row([1]);
        let mut x = vec![-9.0];
        supports.project(&mut x, &mut Vec::new());
        assert_eq!(supports.unpack(&x), vec![vec![0.0, 1.0]]);
    }

    #[test]
    fn packed_supports_equal_row_by_row_ones() {
        let mut rows = Supports::new(4);
        rows.push_row([0, 2]);
        rows.push_row([1, 2, 3]);
        assert_eq!(
            Supports::from_packed(4, vec![0, 2, 1, 2, 3], vec![0, 2, 5]),
            rows
        );
    }

    #[test]
    #[should_panic(expected = "row starts")]
    fn packed_supports_reject_starts_that_miss_the_packed_length() {
        Supports::from_packed(4, vec![0, 2, 1], vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "no allowed coordinate")]
    fn masked_projection_rejects_empty_mask() {
        project_simplex_with_scratch(&mut [], &mut Vec::new());
    }

    #[test]
    fn sorting_network_sorts_every_zero_one_input() {
        // A comparator network that sorts every 0/1 input sorts every
        // input (Knuth's 0-1 principle).
        for bits in 0..1u32 << NETWORK_LEN {
            let mut v: [f64; NETWORK_LEN] = std::array::from_fn(|k| f64::from((bits >> k) & 1));
            sort_descending_16(&mut v);
            assert!(v.windows(2).all(|w| w[0] >= w[1]), "{bits:#06x} -> {v:?}");
            assert_eq!(v.iter().sum::<f64>(), f64::from(bits.count_ones()));
        }
    }

    #[test]
    fn is_on_simplex_detects_violations() {
        assert!(is_on_simplex(&[1.0], 1e-9));
        assert!(is_on_simplex(&[0.5, 0.5], 1e-9));
        assert!(!is_on_simplex(&[0.5, 0.6], 1e-9));
        assert!(!is_on_simplex(&[1.5, -0.5], 1e-9));
        assert!(!is_on_simplex(&[], 1e-9));
    }
}
