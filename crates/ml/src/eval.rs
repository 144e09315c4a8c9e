//! Model evaluation: error CDFs (Figure 5) and holdout splitting.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;

/// An empirical CDF of absolute prediction errors.
///
/// Figure 5 of the paper plots exactly this: "the CDFs for the prediction
/// error (in °C)" of the temperature models, 2 and 10 minutes ahead, with
/// and without regime transitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorCdf {
    sorted_abs_errors: Vec<f64>,
}

impl ErrorCdf {
    /// Builds a CDF from raw (signed or absolute) errors.
    ///
    /// # Panics
    ///
    /// Panics if any error is NaN.
    #[must_use]
    pub fn from_errors(errors: impl IntoIterator<Item = f64>) -> Self {
        let mut v: Vec<f64> = errors.into_iter().map(f64::abs).collect();
        assert!(v.iter().all(|e| !e.is_nan()), "errors must not be NaN");
        v.sort_by(f64::total_cmp);
        ErrorCdf { sorted_abs_errors: v }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted_abs_errors.len()
    }

    /// `true` when no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted_abs_errors.is_empty()
    }

    /// Fraction of samples with absolute error ≤ `threshold` (the paper's
    /// "95 % of the 2-minutes predictions are within 1 °C" statements).
    #[must_use]
    pub fn fraction_within(&self, threshold: f64) -> f64 {
        if self.sorted_abs_errors.is_empty() {
            return 1.0;
        }
        let n = self.sorted_abs_errors.partition_point(|&e| e <= threshold);
        n as f64 / self.sorted_abs_errors.len() as f64
    }

    /// The `q`-quantile of absolute error, `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted_abs_errors.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let idx = ((self.sorted_abs_errors.len() - 1) as f64 * q).round() as usize;
        self.sorted_abs_errors[idx]
    }

    /// Median absolute error.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean absolute error.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.sorted_abs_errors.is_empty() {
            return 0.0;
        }
        self.sorted_abs_errors.iter().sum::<f64>() / self.sorted_abs_errors.len() as f64
    }

    /// Sampled (error, fraction) pairs for plotting — `points` evenly spaced
    /// positions along the sorted errors.
    #[must_use]
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        let n = self.sorted_abs_errors.len();
        if n == 0 || points == 0 {
            return Vec::new();
        }
        (1..=points)
            .map(|i| {
                let idx = (i * n / points).max(1) - 1;
                (self.sorted_abs_errors[idx], (idx + 1) as f64 / n as f64)
            })
            .collect()
    }
}

/// Mean absolute error of `fit`'s models across `k` cross-validation folds
/// (deterministic shuffling by `seed`). Folds where fitting fails are
/// skipped; returns `None` when every fold fails or the data is too small.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn kfold_cv<M, F>(data: &Dataset, k: usize, seed: u64, fit: F) -> Option<f64>
where
    M: crate::Regressor,
    F: Fn(&Dataset) -> Result<M, crate::FitError>,
{
    assert!(k >= 2, "need at least two folds");
    if data.len() < k {
        return None;
    }
    let mut idx: Vec<usize> = (0..data.len()).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));

    let mut total_err = 0.0;
    let mut total_n = 0usize;
    for fold in 0..k {
        let test_idx: Vec<usize> =
            idx.iter().copied().skip(fold).step_by(k).collect();
        let train_idx: Vec<usize> = idx
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| i % k != fold)
            .map(|(_, v)| v)
            .collect();
        let train = data.subset(&train_idx);
        let test = data.subset(&test_idx);
        let Ok(model) = fit(&train) else { continue };
        for (x, y) in test.iter() {
            total_err += (model.predict(x) - y).abs();
            total_n += 1;
        }
    }
    if total_n == 0 {
        None
    } else {
        Some(total_err / total_n as f64)
    }
}

/// Splits `data` into (train, test) with `test_fraction` of rows held out,
/// shuffled deterministically by `seed`.
///
/// # Panics
///
/// Panics if `test_fraction` is outside `(0, 1)`.
#[must_use]
pub fn holdout_split(data: &Dataset, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
    assert!(
        test_fraction > 0.0 && test_fraction < 1.0,
        "test fraction must be in (0,1): {test_fraction}"
    );
    let mut idx: Vec<usize> = (0..data.len()).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    let n_test = ((data.len() as f64) * test_fraction).round() as usize;
    let (test_idx, train_idx) = idx.split_at(n_test.min(data.len()));
    (data.subset(train_idx), data.subset(test_idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_fractions() {
        let cdf = ErrorCdf::from_errors([0.1, -0.5, 1.0, 2.0]);
        assert_eq!(cdf.len(), 4);
        assert!((cdf.fraction_within(0.5) - 0.5).abs() < 1e-12);
        assert!((cdf.fraction_within(1.0) - 0.75).abs() < 1e-12);
        assert_eq!(cdf.fraction_within(5.0), 1.0);
        assert_eq!(cdf.fraction_within(0.0), 0.0);
    }

    #[test]
    fn quantiles() {
        let cdf = ErrorCdf::from_errors((1..=100).map(f64::from));
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 100.0);
        assert!((cdf.median() - 50.0).abs() <= 1.0);
        assert!((cdf.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_cdf_behaviour() {
        let cdf = ErrorCdf::from_errors([]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_within(1.0), 1.0);
        assert_eq!(cdf.mean(), 0.0);
        assert!(cdf.curve(10).is_empty());
    }

    #[test]
    fn curve_is_monotone() {
        let cdf = ErrorCdf::from_errors((0..500).map(|i| f64::from(i) * 0.01));
        let curve = cdf.curve(20);
        assert_eq!(curve.len(), 20);
        for pair in curve.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn holdout_split_partitions() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..100 {
            d.push(&[f64::from(i)], f64::from(i)).unwrap();
        }
        let (train, test) = holdout_split(&d, 0.2, 9);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
        // Deterministic.
        let (train2, _) = holdout_split(&d, 0.2, 9);
        assert_eq!(train.targets(), train2.targets());
        // Disjoint: every original target appears exactly once.
        let mut all: Vec<f64> = train.targets().iter().chain(test.targets()).copied().collect();
        all.sort_by(f64::total_cmp);
        let expected: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn kfold_prefers_true_model_class() {
        use crate::LinearModel;
        // Clean linear data: OLS cross-validates essentially perfectly.
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..60 {
            let x = f64::from(i) * 0.25;
            d.push(&[x], 2.0 * x + 1.0).unwrap();
        }
        let err = kfold_cv(&d, 5, 7, LinearModel::fit_ols).unwrap();
        assert!(err < 1e-6, "cv error {err}");
    }

    #[test]
    fn kfold_handles_small_data() {
        use crate::LinearModel;
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(&[1.0], 1.0).unwrap();
        assert!(kfold_cv(&d, 5, 0, LinearModel::fit_ols).is_none());
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn kfold_rejects_one_fold() {
        use crate::LinearModel;
        let d = Dataset::new(vec!["x".into()]);
        let _ = kfold_cv(&d, 1, 0, LinearModel::fit_ols);
    }

    #[test]
    #[should_panic(expected = "test fraction")]
    fn holdout_rejects_bad_fraction() {
        let d = Dataset::new(vec!["x".into()]);
        let _ = holdout_split(&d, 1.5, 0);
    }
}
