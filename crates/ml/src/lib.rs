//! Regression substrate for the CoolAir reproduction.
//!
//! The paper's Cooling Modeler "uses Weka to generate these regressions. For
//! behaviors that are non-linear (e.g., power consumption as a function of
//! free cooling speed), we generate piece-wise linear models using M5P. For
//! linear behaviors, we try linear and least median square approaches and
//! pick the one with the lowest error" (§4.2). Weka is a Java library and is
//! not available here, so this crate implements the three learners from
//! scratch:
//!
//! - [`LinearModel::fit_ols`] — ordinary least squares via normal equations
//!   and Cholesky factorisation (with a ridge fallback for rank-deficient
//!   designs);
//! - [`LinearModel::fit_lms`] — least median of squares, the
//!   high-breakdown-point robust regression Weka exposes as
//!   `LeastMedSq`, via random elemental subsets plus an inlier refit;
//! - [`ModelTree`] — an M5P-style model tree: standard-deviation-reduction
//!   splits, linear models in the leaves, subtree pruning, and smoothing.
//!
//! [`fit_best_linear`] reproduces the paper's "try both, keep the better"
//! selection rule, and [`ErrorCdf`] provides the prediction-error CDFs of
//! Figure 5.
//!
//! # Example
//!
//! ```
//! use coolair_ml::{Dataset, LinearModel, Regressor};
//!
//! let mut data = Dataset::new(vec!["x".into()]);
//! for i in 0..20 {
//!     let x = f64::from(i);
//!     data.push(&[x], 3.0 * x + 1.0)?;
//! }
//! let model = LinearModel::fit_ols(&data)?;
//! assert!((model.predict(&[10.0]) - 31.0).abs() < 1e-6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod dataset;
mod error;
mod eval;
mod linalg;
mod linear;
mod m5p;

pub use dataset::Dataset;
pub use error::FitError;
pub use eval::{holdout_split, kfold_cv, ErrorCdf};
pub use linear::{fit_best_linear, LinearModel};
pub use m5p::{BatchScratch, M5pConfig, ModelTree};

/// A fitted regression model mapping a feature vector to a prediction.
///
/// Implemented by [`LinearModel`] and [`ModelTree`]; the Cooling Predictor
/// holds its per-regime models as `Box<dyn Regressor>` so linear and
/// piecewise-linear regimes mix freely.
pub trait Regressor: std::fmt::Debug + Send + Sync {
    /// Predicts the target for one feature vector.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len()` differs from the number of
    /// features the model was trained on.
    fn predict(&self, x: &[f64]) -> f64;

    /// Number of input features the model expects.
    fn num_features(&self) -> usize;

    /// Predicts every row of a row-major feature matrix (`xs.len()` must be
    /// a multiple of [`Regressor::num_features`]), appending nothing and
    /// leaving one prediction per row in `out`.
    ///
    /// `out` is a caller-owned scratch buffer: it is cleared and refilled,
    /// so reusing the same `Vec` across calls amortises its allocation to
    /// zero. The default implementation loops [`Regressor::predict`];
    /// [`ModelTree`] replaces it with a batched partition walk.
    ///
    /// # Panics
    ///
    /// Panics if the model has zero features or `xs.len()` is not a
    /// multiple of the feature count.
    fn predict_batch(&self, xs: &[f64], out: &mut Vec<f64>) {
        let p = self.num_features();
        assert!(p > 0, "predict_batch needs at least one feature");
        assert_eq!(xs.len() % p, 0, "feature matrix arity mismatch");
        out.clear();
        out.extend(xs.chunks_exact(p).map(|row| self.predict(row)));
    }
}

/// Root-mean-square error of `model` over `data`.
#[must_use]
pub fn rmse<M: Regressor + ?Sized>(model: &M, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let sse: f64 = data
        .iter()
        .map(|(x, y)| {
            let e = model.predict(x) - y;
            e * e
        })
        .sum();
    (sse / data.len() as f64).sqrt()
}

/// Mean absolute error of `model` over `data`.
#[must_use]
pub fn mae<M: Regressor + ?Sized>(model: &M, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let sae: f64 = data.iter().map(|(x, y)| (model.predict(x) - y).abs()).sum();
    sae / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_and_mae_zero_on_exact_fit() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..10 {
            d.push(&[f64::from(i)], 2.0 * f64::from(i)).unwrap();
        }
        let m = LinearModel::fit_ols(&d).unwrap();
        assert!(rmse(&m, &d) < 1e-9);
        assert!(mae(&m, &d) < 1e-9);
    }

    #[test]
    fn metrics_empty_dataset() {
        let d = Dataset::new(vec!["x".into()]);
        let m = LinearModel::constant(1, 0.0);
        assert_eq!(rmse(&m, &d), 0.0);
        assert_eq!(mae(&m, &d), 0.0);
    }

    #[test]
    fn default_predict_batch_matches_per_row() {
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()]);
        for i in 0..30 {
            let a = f64::from(i) * 0.3;
            let b = f64::from((i * 5) % 7);
            d.push(&[a, b], 1.0 + 2.0 * a - b).unwrap();
        }
        let m = LinearModel::fit_ols(&d).unwrap();
        let mut out = Vec::new();
        m.predict_batch(d.features(), &mut out);
        assert_eq!(out.len(), d.len());
        for ((row, _), got) in d.iter().zip(&out) {
            assert_eq!(m.predict(row).to_bits(), got.to_bits());
        }
    }
}
