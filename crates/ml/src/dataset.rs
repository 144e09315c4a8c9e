//! Training data container.

use crate::error::FitError;

/// A regression dataset: named features, rows, and a scalar target per row.
///
/// The Cooling Modeler accumulates one `Dataset` per cooling regime (and per
/// regime transition) from the monitoring stream, then fits the regime's
/// temperature/humidity/power models from it. The rows live in one flat
/// row-major buffer, so a dataset costs two growing `Vec`s however many
/// rows it holds, and a fit walks contiguous memory.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    feature_names: Vec<String>,
    /// Row-major features: `len() × num_features()` values.
    features: Vec<f64>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset with the given feature names.
    #[must_use]
    pub fn new(feature_names: Vec<String>) -> Self {
        Dataset { feature_names, features: Vec::new(), targets: Vec::new() }
    }

    /// Appends one observation, copying `row` into the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::DimensionMismatch`] if `row` has the wrong arity
    /// and [`FitError::NonFiniteData`] if any value (or the target) is not
    /// finite.
    pub fn push(&mut self, row: &[f64], target: f64) -> Result<(), FitError> {
        if row.len() != self.feature_names.len() {
            return Err(FitError::DimensionMismatch {
                expected: self.feature_names.len(),
                got: row.len(),
            });
        }
        if !target.is_finite() || row.iter().any(|v| !v.is_finite()) {
            return Err(FitError::NonFiniteData);
        }
        self.features.extend_from_slice(row);
        self.targets.push(target);
        Ok(())
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// `true` when there are no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Number of features per observation.
    #[must_use]
    pub fn num_features(&self) -> usize {
        self.feature_names.len()
    }

    /// The feature names.
    #[must_use]
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The `i`-th observation as `(features, target)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> (&[f64], f64) {
        let p = self.num_features();
        (&self.features[i * p..i * p + p], self.targets[i])
    }

    /// Iterates over `(features, target)` pairs; a dataset with no
    /// features yields `len()` empty rows.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> + '_ {
        let p = self.num_features();
        let mut rest = self.features.as_slice();
        self.targets.iter().map(move |&y| {
            let (row, tail) = rest.split_at(p);
            rest = tail;
            (row, y)
        })
    }

    /// The whole feature matrix, row-major (`len() × num_features()`).
    #[must_use]
    pub fn features(&self) -> &[f64] {
        &self.features
    }

    /// The targets.
    #[must_use]
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Mean of the targets (0 for an empty dataset).
    #[must_use]
    pub fn target_mean(&self) -> f64 {
        if self.targets.is_empty() {
            0.0
        } else {
            self.targets.iter().sum::<f64>() / self.targets.len() as f64
        }
    }

    /// Population standard deviation of the targets.
    #[must_use]
    pub fn target_std(&self) -> f64 {
        if self.targets.len() < 2 {
            return 0.0;
        }
        let mean = self.target_mean();
        let var = self.targets.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>()
            / self.targets.len() as f64;
        var.sqrt()
    }

    /// A new dataset containing the observations at `indices` (in order),
    /// in one contiguous copy.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset {
            feature_names: self.feature_names.clone(),
            features: Vec::with_capacity(indices.len() * self.num_features()),
            targets: Vec::with_capacity(indices.len()),
        };
        for &i in indices {
            let (row, y) = self.get(i);
            out.features.extend_from_slice(row);
            out.targets.push(y);
        }
        out
    }

    /// Splits rows by `feature <= threshold` into (left, right) index sets.
    #[must_use]
    pub fn split_indices(&self, feature: usize, threshold: f64) -> (Vec<usize>, Vec<usize>) {
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (i, (row, _)) in self.iter().enumerate() {
            if row[feature] <= threshold {
                left.push(i);
            } else {
                right.push(i);
            }
        }
        (left, right)
    }
}

impl<'a> Extend<(&'a [f64], f64)> for Dataset {
    /// Extends the dataset, skipping rows that fail validation.
    fn extend<T: IntoIterator<Item = (&'a [f64], f64)>>(&mut self, iter: T) {
        for (row, y) in iter {
            let _ = self.push(row, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        d.push(&[1.0, 2.0], 3.0).unwrap();
        d.push(&[4.0, 5.0], 9.0).unwrap();
        d.push(&[0.0, 0.0], 0.0).unwrap();
        d
    }

    #[test]
    fn push_and_access() {
        let d = sample();
        assert_eq!(d.len(), 3);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.get(1), (&[4.0, 5.0][..], 9.0));
        assert_eq!(d.iter().count(), 3);
        assert_eq!(d.features(), &[1.0, 2.0, 4.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn zero_feature_rows_are_empty() {
        let mut d = Dataset::new(Vec::new());
        d.push(&[], 1.0).unwrap();
        d.push(&[], 2.0).unwrap();
        assert_eq!(d.len(), 2);
        let rows: Vec<(&[f64], f64)> = d.iter().collect();
        assert_eq!(rows, [(&[][..], 1.0), (&[][..], 2.0)]);
    }

    #[test]
    fn rejects_wrong_arity() {
        let mut d = sample();
        assert!(matches!(
            d.push(&[1.0], 1.0),
            Err(FitError::DimensionMismatch { expected: 2, got: 1 })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let mut d = sample();
        assert!(matches!(d.push(&[f64::NAN, 0.0], 1.0), Err(FitError::NonFiniteData)));
        assert!(matches!(d.push(&[0.0, 0.0], f64::INFINITY), Err(FitError::NonFiniteData)));
        assert_eq!(d.len(), 3, "a rejected row leaves no trace");
        assert_eq!(d.features().len(), 6);
    }

    #[test]
    fn target_statistics() {
        let d = sample();
        assert!((d.target_mean() - 4.0).abs() < 1e-12);
        let expected_var = ((3.0f64 - 4.0).powi(2) + (9.0f64 - 4.0).powi(2) + 16.0) / 3.0;
        assert!((d.target_std() - expected_var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn subset_and_split() {
        let d = sample();
        let (l, r) = d.split_indices(0, 1.0);
        assert_eq!(l, vec![0, 2]);
        assert_eq!(r, vec![1]);
        let sub = d.subset(&l);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.get(0).1, 3.0);
        assert_eq!(sub.features(), &[1.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn extend_skips_invalid() {
        let mut d = sample();
        d.extend([(&[1.0, 1.0][..], 2.0), (&[f64::NAN, 1.0][..], 2.0)]);
        assert_eq!(d.len(), 4);
    }
}
