//! Minimal dense linear algebra for least-squares solving.
//!
//! The models in this workspace have at most a dozen features, so a simple
//! Cholesky solve of the normal equations is both fast and accurate enough.
//! No external linear-algebra crate is needed. Both solvers work in flat
//! row-major buffers: [`solve_least_squares`] streams the observations
//! through one reused augmented-row buffer, and [`solve_exact`] eliminates
//! in the caller's buffers, so a least-median-of-squares fit reuses them
//! across all its draws.

use crate::error::FitError;

/// Solves the least-squares problem `min ||X·b − y||²`, where each row of
/// `X` is one observation of `rows` behind an intercept column of ones:
/// `b[0]` is the intercept and `b[1..]` the `features` coefficients.
///
/// The observations stream once, in order, through one augmented-row
/// buffer into the normal equations `XᵀX b = Xᵀy`, which are factored by
/// Cholesky; if the Gram matrix is not positive definite (collinear
/// features), the solve retries with escalating ridge regularisation
/// before giving up.
///
/// # Errors
///
/// - [`FitError::InsufficientData`] if there are fewer rows than
///   parameters (`features + 1`).
/// - [`FitError::SingularSystem`] if the system stays singular after the
///   strongest regularisation attempt.
///
/// # Panics
///
/// Panics if a row does not hold `features` values.
pub(crate) fn solve_least_squares<'a>(
    features: usize,
    rows: impl IntoIterator<Item = (&'a [f64], f64)>,
) -> Result<Vec<f64>, FitError> {
    let p = features + 1;
    // One buffer: the augmented row, the Gram matrix XᵀX (symmetric p×p),
    // the moment vector Xᵀy and the Cholesky work matrix.
    let mut buf = vec![0.0; 2 * p * p + 2 * p];
    let (row, rest) = buf.split_at_mut(p);
    let (gram, rest) = rest.split_at_mut(p * p);
    let (moment, work) = rest.split_at_mut(p);
    row[0] = 1.0;
    let mut n = 0;
    for (x, target) in rows {
        row[1..].copy_from_slice(x);
        // Every entry sums its products in row order, and `x·y` is `y·x`
        // bit for bit, so the full square comes out exactly symmetric.
        for ((&ri, m), g) in row.iter().zip(moment.iter_mut()).zip(gram.chunks_exact_mut(p)) {
            *m += ri * target;
            for (g, &rj) in g.iter_mut().zip(row.iter()) {
                *g += ri * rj;
            }
        }
        n += 1;
    }
    if n < p {
        return Err(FitError::InsufficientData { needed: p, available: n });
    }

    // Scale-aware ridge ladder.
    let diag_max = (0..p).map(|i| gram[i * p + i]).fold(0.0_f64, f64::max).max(1e-12);
    let mut b = vec![0.0; p];
    for &ridge_scale in &[0.0, 1e-10, 1e-7, 1e-4] {
        work.copy_from_slice(gram);
        let ridge = ridge_scale * diag_max;
        for i in 0..p {
            work[i * p + i] += ridge;
        }
        b.copy_from_slice(moment);
        if cholesky_solve(work, p, &mut b) && b.iter().all(|v| v.is_finite()) {
            return Ok(b);
        }
    }
    Err(FitError::SingularSystem)
}

/// In-place Cholesky factorisation of the symmetric positive-definite matrix
/// `a` (p×p, row-major) followed by forward/back substitution, turning the
/// right-hand side `x` into the solution. Returns `false` if the matrix is
/// not positive definite.
fn cholesky_solve(a: &mut [f64], p: usize, x: &mut [f64]) -> bool {
    // Factor: a becomes lower-triangular L with A = L·Lᵀ.
    for i in 0..p {
        for j in 0..=i {
            let mut sum = a[i * p + j];
            for k in 0..j {
                sum -= a[i * p + k] * a[j * p + k];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return false;
                }
                a[i * p + j] = sum.sqrt();
            } else {
                a[i * p + j] = sum / a[j * p + j];
            }
        }
    }
    // Solve L z = x, overwriting x with z.
    for i in 0..p {
        let mut sum = x[i];
        for k in 0..i {
            sum -= a[i * p + k] * x[k];
        }
        x[i] = sum / a[i * p + i];
    }
    // Solve Lᵀ b = z, overwriting z with b.
    for i in (0..p).rev() {
        let mut sum = x[i];
        for k in (i + 1)..p {
            sum -= a[k * p + i] * x[k];
        }
        x[i] = sum / a[i * p + i];
    }
    true
}

/// Solves the exactly determined system `A b = y` of an LMS elemental fit
/// in place: `a` holds the `p` observations as rows (p×p, row-major) and
/// is destroyed, and `y` (length `p`) becomes the solution. Returns
/// `false` when the system is singular or the solution is not finite.
///
/// # Panics
///
/// Panics if `a` is not `y.len()`² long.
pub(crate) fn solve_exact(a: &mut [f64], y: &mut [f64]) -> bool {
    let p = y.len();
    assert_eq!(a.len(), p * p, "elemental system must be square");
    if p == 0 {
        return false;
    }
    // Gaussian elimination with partial pivoting; of equal pivot
    // candidates the last wins.
    for col in 0..p {
        let (pivot, pval) = (col..p)
            .map(|r| (r, a[r * p + col].abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .expect("col < p");
        if pval < 1e-12 {
            return false;
        }
        if pivot != col {
            let (upper, lower) = a.split_at_mut(pivot * p);
            upper[col * p..col * p + p].swap_with_slice(&mut lower[..p]);
            y.swap(col, pivot);
        }
        for r in (col + 1)..p {
            let f = a[r * p + col] / a[col * p + col];
            for c in col..p {
                a[r * p + c] -= f * a[col * p + c];
            }
            y[r] -= f * y[col];
        }
    }
    // Back substitution, overwriting y with the solution.
    for i in (0..p).rev() {
        let mut sum = y[i];
        for k in (i + 1)..p {
            sum -= a[i * p + k] * y[k];
        }
        y[i] = sum / a[i * p + i];
    }
    y.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flat rows and their targets as the `(row, target)` stream the
    /// solver takes.
    fn stream<'a>(
        xs: &'a [f64],
        features: usize,
        y: &'a [f64],
    ) -> impl Iterator<Item = (&'a [f64], f64)> {
        xs.chunks_exact(features).zip(y.iter().copied())
    }

    #[test]
    fn exact_linear_recovery() {
        // y = 2x0 - 3x1 + 1 (the intercept column is implicit).
        let xs: Vec<f64> =
            (0..20).flat_map(|i| [f64::from(i), f64::from(i % 5)]).collect();
        let y: Vec<f64> = xs.chunks_exact(2).map(|r| 1.0 + 2.0 * r[0] - 3.0 * r[1]).collect();
        let b = solve_least_squares(2, stream(&xs, 2, &y)).unwrap();
        assert!((b[0] - 1.0).abs() < 1e-8);
        assert!((b[1] - 2.0).abs() < 1e-8);
        assert!((b[2] + 3.0).abs() < 1e-8);
    }

    #[test]
    fn collinear_features_fall_back_to_ridge() {
        // x1 duplicates x0 exactly: the Gram matrix is singular, but the
        // ridge ladder must still produce a finite solution with the right
        // combined slope.
        let xs: Vec<f64> = (0..30).flat_map(|i| [f64::from(i), f64::from(i)]).collect();
        let y: Vec<f64> = xs.chunks_exact(2).map(|r| 4.0 * r[0]).collect();
        let b = solve_least_squares(2, stream(&xs, 2, &y)).unwrap();
        assert!((b[1] + b[2] - 4.0).abs() < 1e-3, "combined slope {}", b[1] + b[2]);
    }

    #[test]
    fn underdetermined_rejected() {
        let xs = [2.0, 3.0];
        assert!(matches!(
            solve_least_squares(2, stream(&xs, 2, &[1.0])),
            Err(FitError::InsufficientData { needed: 3, available: 1 })
        ));
    }

    #[test]
    fn exact_solver_2x2() {
        // 2b0 + b1 = 5; b0 - b1 = 1 → b0 = 2, b1 = 1.
        let mut a = [2.0, 1.0, 1.0, -1.0];
        let mut b = [5.0, 1.0];
        assert!(solve_exact(&mut a, &mut b));
        assert!((b[0] - 2.0).abs() < 1e-12);
        assert!((b[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_solver_rejects_singular() {
        let mut a = [1.0, 2.0, 2.0, 4.0];
        assert!(!solve_exact(&mut a, &mut [1.0, 2.0]));
    }
}
