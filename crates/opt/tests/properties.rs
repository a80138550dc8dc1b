//! Property-based tests for the optimization substrate, on the in-tree
//! `wolt_support::check` harness.

use wolt_opt::brute;
use wolt_opt::hungarian::max_weight_assignment;
use wolt_opt::simplex::{is_on_simplex, project_simplex, Supports};
use wolt_opt::Matrix;
use wolt_support::check::Runner;
use wolt_support::rng::{ChaCha8Rng, Rng};

fn small_matrix(rng: &mut ChaCha8Rng) -> Matrix {
    let r = rng.gen_range(1..=5usize);
    let c = rng.gen_range(1..=5usize);
    Matrix::from_fn(r, c, |_, _| rng.gen_range(0.0..1000.0)).expect("well-formed dims")
}

fn small_vec(rng: &mut ChaCha8Rng, len_lo: usize, len_hi: usize, bound: f64) -> Vec<f64> {
    let n = rng.gen_range(len_lo..len_hi);
    (0..n).map(|_| rng.gen_range(-bound..bound)).collect()
}

/// The Hungarian solver returns a matching: each row and column used at
/// most once, exactly min(rows, cols) pairs on all-finite matrices.
#[test]
fn hungarian_returns_valid_matching() {
    Runner::new("hungarian_returns_valid_matching").run(small_matrix, |m| {
        let a = max_weight_assignment(m);
        if a.len() != m.rows().min(m.cols()) {
            return Err(format!(
                "matching size {} != min(rows, cols) {}",
                a.len(),
                m.rows().min(m.cols())
            ));
        }
        let mut rows_seen = vec![false; m.rows()];
        let mut cols_seen = vec![false; m.cols()];
        for &(r, c) in &a.pairs {
            if rows_seen[r] {
                return Err(format!("row {r} matched twice"));
            }
            if cols_seen[c] {
                return Err(format!("col {c} matched twice"));
            }
            rows_seen[r] = true;
            cols_seen[c] = true;
        }
        let sum: f64 = a.pairs.iter().map(|&(r, c)| m[(r, c)]).sum();
        if (sum - a.total).abs() < 1e-9 {
            Ok(())
        } else {
            Err(format!("reported total {} != pair sum {sum}", a.total))
        }
    });
}

/// Hungarian matches brute force exactly on small instances.
#[test]
fn hungarian_is_optimal() {
    Runner::new("hungarian_is_optimal").run(small_matrix, |m| {
        let hung = max_weight_assignment(m);
        let (_, best) = brute::best_perfect_matching(m);
        if (hung.total - best).abs() < 1e-6 {
            Ok(())
        } else {
            Err(format!("hungarian={} brute={best}", hung.total))
        }
    });
}

/// Hungarian total is invariant under transposition.
#[test]
fn hungarian_transpose_invariant() {
    Runner::new("hungarian_transpose_invariant").run(small_matrix, |m| {
        let a = max_weight_assignment(m);
        let b = max_weight_assignment(&m.transposed());
        if (a.total - b.total).abs() < 1e-6 {
            Ok(())
        } else {
            Err(format!("direct={} transposed={}", a.total, b.total))
        }
    });
}

/// Adding a constant to every utility shifts the optimum by
/// `constant * matching size` but preserves the argmax.
#[test]
fn hungarian_shift_invariant() {
    Runner::new("hungarian_shift_invariant").run(
        |rng| (small_matrix(rng), rng.gen_range(0.0..100.0)),
        |(m, shift)| {
            let a = max_weight_assignment(m);
            let shifted = Matrix::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)] + shift).unwrap();
            let b = max_weight_assignment(&shifted);
            let k = m.rows().min(m.cols()) as f64;
            if (b.total - (a.total + shift * k)).abs() < 1e-6 {
                Ok(())
            } else {
                Err(format!(
                    "shifted total {} != {} + {shift} * {k}",
                    b.total, a.total
                ))
            }
        },
    );
}

/// Simplex projection always lands on the simplex.
#[test]
fn projection_feasible() {
    Runner::new("projection_feasible").run(
        |rng| small_vec(rng, 1, 10, 100.0),
        |v| {
            let mut x = v.clone();
            project_simplex(&mut x);
            if is_on_simplex(&x, 1e-9) {
                Ok(())
            } else {
                Err(format!("projection left the simplex: {x:?}"))
            }
        },
    );
}

/// Projection is idempotent.
#[test]
fn projection_idempotent() {
    Runner::new("projection_idempotent").run(
        |rng| small_vec(rng, 1, 10, 100.0),
        |v| {
            let mut x = v.clone();
            project_simplex(&mut x);
            let once = x.clone();
            project_simplex(&mut x);
            for (a, b) in once.iter().zip(&x) {
                if (a - b).abs() >= 1e-9 {
                    return Err(format!("second projection moved {a} to {b}"));
                }
            }
            Ok(())
        },
    );
}

/// Projection preserves coordinate order (it is a monotone map).
#[test]
fn projection_monotone() {
    Runner::new("projection_monotone").run(
        |rng| small_vec(rng, 2, 8, 50.0),
        |v| {
            let mut x = v.clone();
            project_simplex(&mut x);
            for i in 0..v.len() {
                for j in 0..v.len() {
                    if v[i] > v[j] && x[i] < x[j] - 1e-12 {
                        return Err(format!(
                            "order inverted: v[{i}]={} > v[{j}]={} but x[{i}]={} < x[{j}]={}",
                            v[i], v[j], x[i], x[j]
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Packed projection over a row's support, unpacked, puts zero mass on
/// the coordinates the support leaves out and is feasible on the rest.
#[test]
fn masked_projection_feasible() {
    Runner::new("masked_projection_feasible").run(
        |rng| {
            let v = small_vec(rng, 2, 8, 50.0);
            let seed = rng.gen_range(0..1000u64);
            (v, seed)
        },
        |(v, seed)| {
            // Derive a mask with at least one allowed coordinate.
            let mut mask: Vec<bool> = v
                .iter()
                .enumerate()
                .map(|(i, _)| (seed >> (i % 10)) & 1 == 1)
                .collect();
            if !mask.iter().any(|&b| b) {
                mask[0] = true;
            }
            let mut supports = Supports::new(v.len());
            supports.push_row((0..v.len()).filter(|&i| mask[i]));
            let mut packed = packed_row(v, &supports);
            supports.project(&mut packed, &mut Vec::new());
            let x = &supports.unpack(&packed)[0];
            if !is_on_simplex(x, 1e-9) {
                return Err(format!("masked projection left the simplex: {x:?}"));
            }
            for (xi, mi) in x.iter().zip(&mask) {
                if !mi && *xi != 0.0 {
                    return Err(format!("masked-out coordinate carries mass {xi}"));
                }
            }
            Ok(())
        },
    );
}

/// The values of the one-row `supports`' listed coordinates of `row`.
fn packed_row(row: &[f64], supports: &Supports) -> Vec<f64> {
    supports.row(0).iter().map(|&j| row[j]).collect()
}

/// A row and the coordinates its simplex spans, drawn to reach every
/// branch of the projection: ties, signed zeros, rows already on the
/// simplex (the fast path), a single listed coordinate, unlisted
/// coordinates holding non-zero values, and rows on both sides of the
/// 16 values the kernel sorts with its network.
fn indexed_projection_case(rng: &mut ChaCha8Rng) -> (Vec<f64>, Vec<usize>) {
    let n = rng.gen_range(1..=40usize);
    let mut active: Vec<usize> = if rng.gen_range(0..5u32) == 0 {
        vec![rng.gen_range(0..n)]
    } else {
        (0..n).filter(|_| rng.gen_range(0..3u32) > 0).collect()
    };
    if active.is_empty() {
        active.push(rng.gen_range(0..n));
    }
    const TIES: [f64; 6] = [0.0, -0.0, 0.25, 0.5, 1.0, -1.0];
    let mut row: Vec<f64> = (0..n)
        .map(|_| match rng.gen_range(0..3u32) {
            0 => rng.gen_range(-50.0..50.0),
            1 => TIES[rng.gen_range(0..TIES.len())],
            _ => rng.gen_range(-1.0..1.0),
        })
        .collect();
    if rng.gen_range(0..4u32) == 0 {
        // On the simplex over its support: eighths summing to exactly 1,
        // an empty share written as +0.0 or -0.0.
        for &j in &active {
            row[j] = if rng.gen_range(0..2u32) == 0 {
                0.0
            } else {
                -0.0
            };
        }
        for _ in 0..8 {
            row[active[rng.gen_range(0..active.len())]] += 0.125;
        }
    }
    (row, active)
}

/// The packed kernel, run in place over a row's listed values and
/// unpacked, is bit for bit the reference projection of the gathered
/// sub-vector, scattered into a zeroed row.
#[test]
fn indexed_projection_matches_reference_bitwise() {
    Runner::new("indexed_projection_matches_reference_bitwise")
        .cases(512)
        .run(indexed_projection_case, |(row, active)| {
            let mut sub: Vec<f64> = active.iter().map(|&j| row[j]).collect();
            project_simplex(&mut sub);
            let mut expect = vec![0.0; row.len()];
            for (&j, &v) in active.iter().zip(&sub) {
                expect[j] = v;
            }

            let mut supports = Supports::new(row.len());
            supports.push_row(active.iter().copied());
            let mut packed = packed_row(row, &supports);
            // Stale scratch contents must not reach the result.
            let mut scratch = vec![f64::NAN; 3];
            supports.project(&mut packed, &mut scratch);
            let got = &supports.unpack(&packed)[0];
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            if bits(got) == bits(&expect) {
                Ok(())
            } else {
                Err(format!("indexed {got:?} != reference {expect:?}"))
            }
        });
}
