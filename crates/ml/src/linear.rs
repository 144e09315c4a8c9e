//! Linear models: ordinary least squares and least median of squares.

use std::cmp::Ordering;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::error::FitError;
use crate::linalg::{solve_exact, solve_least_squares};
use crate::{mae, Regressor};

/// A fitted linear model `ŷ = intercept + Σ coeffs[i]·x[i]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    intercept: f64,
    coeffs: Vec<f64>,
}

impl LinearModel {
    /// A constant model (all-zero coefficients) over `num_features` inputs —
    /// the degenerate leaf used when a model-tree leaf has no variance.
    #[must_use]
    pub fn constant(num_features: usize, value: f64) -> Self {
        LinearModel { intercept: value, coeffs: vec![0.0; num_features] }
    }

    /// Builds a model from explicit parameters.
    #[must_use]
    pub fn from_parts(intercept: f64, coeffs: Vec<f64>) -> Self {
        LinearModel { intercept, coeffs }
    }

    /// The model of a solution `[intercept, coeffs…]`, reusing its buffer.
    fn from_solution(mut b: Vec<f64>) -> Self {
        let intercept = b.remove(0);
        LinearModel { intercept, coeffs: b }
    }

    /// Fits by ordinary least squares.
    ///
    /// # Errors
    ///
    /// Propagates [`FitError`] when the data is insufficient or singular.
    pub fn fit_ols(data: &Dataset) -> Result<Self, FitError> {
        solve_least_squares(data.num_features(), data.iter()).map(Self::from_solution)
    }

    /// Fits by least median of squares (Rousseeuw), the robust regression
    /// that survives up to 50 % outliers.
    ///
    /// Draws `samples` random elemental subsets of `p + 1` observations,
    /// solves each exactly, and keeps the candidate with the smallest median
    /// squared residual; then refits OLS on the inliers (residual within
    /// 2.5 robust standard deviations) for efficiency.
    ///
    /// Every draw reuses one set of buffers, and a draw runs the median
    /// selection only if it could still beat the best median so far: its
    /// residual pass counts the residuals below that median, and with at
    /// most `n / 2` of them the `n / 2`-th smallest residual cannot be
    /// below it (DESIGN.md §13.6). Skipping those selections changes
    /// neither the draws nor the result.
    ///
    /// # Errors
    ///
    /// Propagates [`FitError`] when the data is insufficient.
    pub fn fit_lms(data: &Dataset, samples: usize, seed: u64) -> Result<Self, FitError> {
        let p = data.num_features() + 1; // parameters incl. intercept
        if data.len() < p + 2 {
            return Err(FitError::InsufficientData { needed: p + 2, available: data.len() });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let n = data.len();
        let mid = n / 2;

        let mut idx = Vec::with_capacity(p);
        let mut a = vec![0.0; p * p];
        let mut b = vec![0.0; p];
        let mut residuals = vec![0.0_f64; n];
        // The best median so far and its solution.
        let mut best_med: Option<f64> = None;
        let mut best = vec![0.0; p];
        for _ in 0..samples.max(1) {
            // Draw p distinct row indices.
            idx.clear();
            while idx.len() < p {
                let i = rng.gen_range(0..n);
                if !idx.contains(&i) {
                    idx.push(i);
                }
            }
            for (r, &i) in idx.iter().enumerate() {
                let (row, y) = data.get(i);
                a[r * p] = 1.0;
                a[r * p + 1..r * p + p].copy_from_slice(row);
                b[r] = y;
            }
            if !solve_exact(&mut a, &mut b) {
                continue;
            }

            // After the first selection the draw can win only if more than
            // `mid` residuals sort below the best median; the pass stops
            // once the rest could not get it there.
            let mut not_below = 0;
            for (slot, (row, y)) in residuals.iter_mut().zip(data.iter()) {
                let e = b[0] + dot(&b[1..], row) - y;
                *slot = e * e;
                if best_med.is_some_and(|m| slot.total_cmp(&m) != Ordering::Less) {
                    not_below += 1;
                    if not_below == n - mid {
                        break;
                    }
                }
            }
            if not_below == n - mid {
                continue;
            }
            let med = median_in_place(&mut residuals);
            if best_med.is_none_or(|m| med < m) {
                best_med = Some(med);
                best.copy_from_slice(&b);
            }
        }

        let med = best_med.ok_or(FitError::SingularSystem)?;
        // Rousseeuw's robust scale estimate.
        let s0 = 1.4826 * (1.0 + 5.0 / (n as f64 - p as f64)) * med.sqrt();
        let threshold = (2.5 * s0).max(1e-9);
        let is_inlier = |&(row, y): &(&[f64], f64)| {
            let pred = best[0] + dot(&best[1..], row);
            (pred - y).abs() <= threshold
        };
        if data.iter().filter(is_inlier).count() > p {
            if let Ok(b) = solve_least_squares(p - 1, data.iter().filter(is_inlier)) {
                return Ok(Self::from_solution(b));
            }
        }
        Ok(Self::from_solution(best))
    }

    /// The fitted intercept.
    #[must_use]
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The fitted coefficients, one per feature.
    #[must_use]
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }
}

impl Regressor for LinearModel {
    fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coeffs.len(), "feature arity mismatch");
        self.intercept + dot(&self.coeffs, x)
    }

    fn num_features(&self) -> usize {
        self.coeffs.len()
    }
}

/// Fits both OLS and LMS and returns whichever has the lower mean absolute
/// error on the training data — the paper's §4.2 selection rule ("we try
/// linear and least median square approaches and pick the one with the
/// lowest error").
///
/// # Errors
///
/// Fails only if *both* fits fail.
pub fn fit_best_linear(data: &Dataset, seed: u64) -> Result<LinearModel, FitError> {
    let ols = LinearModel::fit_ols(data);
    let lms = LinearModel::fit_lms(data, 60, seed);
    match (ols, lms) {
        (Ok(a), Ok(b)) => {
            if mae(&a, data) <= mae(&b, data) {
                Ok(a)
            } else {
                Ok(b)
            }
        }
        (Ok(a), Err(_)) => Ok(a),
        (Err(_), Ok(b)) => Ok(b),
        (Err(e), Err(_)) => Err(e),
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

fn median_in_place(v: &mut [f64]) -> f64 {
    let mid = v.len() / 2;
    let (_, m, _) = v.select_nth_unstable_by(mid, f64::total_cmp);
    *m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(noise: impl Fn(usize) -> f64) -> Dataset {
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()]);
        for i in 0..60 {
            let x0 = f64::from(i as u32) * 0.5;
            let x1 = f64::from((i * 7 % 13) as u32);
            d.push(&[x0, x1], 2.0 + 1.5 * x0 - 0.5 * x1 + noise(i)).unwrap();
        }
        d
    }

    #[test]
    fn ols_recovers_exact_coefficients() {
        let d = linear_data(|_| 0.0);
        let m = LinearModel::fit_ols(&d).unwrap();
        assert!((m.intercept() - 2.0).abs() < 1e-8);
        assert!((m.coeffs()[0] - 1.5).abs() < 1e-8);
        assert!((m.coeffs()[1] + 0.5).abs() < 1e-8);
    }

    #[test]
    fn lms_ignores_gross_outliers() {
        // 20 % of points corrupted by +100.
        let d = linear_data(|i| if i % 5 == 0 { 100.0 } else { 0.0 });
        let lms = LinearModel::fit_lms(&d, 100, 42).unwrap();
        assert!((lms.coeffs()[0] - 1.5).abs() < 0.05, "slope {}", lms.coeffs()[0]);
        // OLS, by contrast, is badly biased.
        let ols = LinearModel::fit_ols(&d).unwrap();
        assert!((ols.intercept() - 2.0).abs() > 1.0);
    }

    #[test]
    fn best_linear_picks_robust_fit_under_outliers() {
        let d = linear_data(|i| if i % 5 == 0 { 100.0 } else { 0.0 });
        let m = fit_best_linear(&d, 1).unwrap();
        assert!((m.coeffs()[0] - 1.5).abs() < 0.05);
    }

    #[test]
    fn best_linear_picks_ols_on_clean_data() {
        let d = linear_data(|_| 0.0);
        let m = fit_best_linear(&d, 1).unwrap();
        assert!((m.intercept() - 2.0).abs() < 1e-6);
    }

    /// The LMS draw loop without pruning: every successful draw runs the
    /// median selection. Returns the winning median and solution.
    fn unpruned_best(data: &Dataset, samples: usize, seed: u64) -> Option<(f64, Vec<f64>)> {
        let p = data.num_features() + 1;
        let n = data.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut best: Option<(f64, Vec<f64>)> = None;
        for _ in 0..samples {
            let mut idx = Vec::new();
            while idx.len() < p {
                let i = rng.gen_range(0..n);
                if !idx.contains(&i) {
                    idx.push(i);
                }
            }
            let mut a = Vec::new();
            let mut b = Vec::new();
            for &i in &idx {
                let (row, y) = data.get(i);
                a.push(1.0);
                a.extend_from_slice(row);
                b.push(y);
            }
            if !solve_exact(&mut a, &mut b) {
                continue;
            }
            let mut residuals: Vec<f64> = data
                .iter()
                .map(|(row, y)| {
                    let e = b[0] + dot(&b[1..], row) - y;
                    e * e
                })
                .collect();
            let med = median_in_place(&mut residuals);
            if best.as_ref().is_none_or(|(m, _)| med < *m) {
                best = Some((med, b));
            }
        }
        best
    }

    #[test]
    fn pruned_lms_matches_the_unpruned_draw_loop() {
        // Small odd and even row counts put many draws right at the
        // pruning boundary (exactly `n / 2` or `n / 2 + 1` residuals below
        // the best median); integer data makes exact ties common.
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..300 {
            let n = 5 + case % 12;
            let mut d = Dataset::new(vec!["x0".into(), "x1".into()]);
            for _ in 0..n {
                let x = [f64::from(rng.gen_range(0..6u32)), f64::from(rng.gen_range(0..4u32))];
                let y = if rng.gen_bool(0.6) {
                    1.0 + x[0] - 2.0 * x[1]
                } else {
                    f64::from(rng.gen_range(-9..9))
                };
                d.push(&x, y).unwrap();
            }
            let want = unpruned_best(&d, 40, case as u64).map(|(med, b)| {
                let s0 = 1.4826 * (1.0 + 5.0 / (n as f64 - 3.0)) * med.sqrt();
                let threshold = (2.5 * s0).max(1e-9);
                let inliers: Vec<usize> = (0..n)
                    .filter(|&i| {
                        let (row, y) = d.get(i);
                        (b[0] + dot(&b[1..], row) - y).abs() <= threshold
                    })
                    .collect();
                let refit = (inliers.len() > 3)
                    .then(|| LinearModel::fit_ols(&d.subset(&inliers)).ok())
                    .flatten();
                refit.unwrap_or_else(|| LinearModel::from_solution(b))
            });
            let got = LinearModel::fit_lms(&d, 40, case as u64).ok();
            assert_eq!(got, want, "case {case}, n = {n}");
        }
    }

    #[test]
    fn insufficient_data_errors() {
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(&[1.0], 1.0).unwrap();
        assert!(LinearModel::fit_ols(&d).is_err());
        assert!(LinearModel::fit_lms(&d, 10, 0).is_err());
    }

    #[test]
    fn constant_model() {
        let m = LinearModel::constant(3, 7.5);
        assert_eq!(m.predict(&[1.0, 2.0, 3.0]), 7.5);
        assert_eq!(m.num_features(), 3);
    }

    #[test]
    #[should_panic(expected = "feature arity mismatch")]
    fn predict_wrong_arity_panics() {
        let m = LinearModel::constant(2, 0.0);
        let _ = m.predict(&[1.0]);
    }
}
