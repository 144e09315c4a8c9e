//! M5P-style model trees: piecewise-linear regression.
//!
//! The Cooling Modeler uses M5P for non-linear behaviours such as cooling
//! power as a function of fan speed (§4.2). This is a from-scratch
//! implementation of the core M5 algorithm (Quinlan) with the M5P (prime)
//! refinements that matter for prediction quality:
//!
//! 1. grow a tree by maximising standard-deviation reduction (SDR) at each
//!    split, stopping when a node is small or nearly pure;
//! 2. fit a linear model in every node;
//! 3. prune bottom-up: replace a subtree by its node's linear model when the
//!    model's (complexity-penalised) error is no worse;
//! 4. optionally smooth leaf predictions along the path to the root.

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::error::FitError;
use crate::linear::LinearModel;
use crate::{mae, Regressor};

/// Hyper-parameters for [`ModelTree::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct M5pConfig {
    /// Minimum observations a node needs to be considered for splitting.
    pub min_split: usize,
    /// Minimum observations each child must retain.
    pub min_leaf: usize,
    /// Maximum tree depth (root = 0).
    pub max_depth: usize,
    /// Stop splitting when a node's target standard deviation falls below
    /// this fraction of the root's (M5 uses 5 %).
    pub purity_fraction: f64,
    /// Pruning error multiplier: a subtree survives only if its error is
    /// less than `prune_factor` × the node model's error (values < 1 prune
    /// aggressively, > 1 keep more structure).
    pub prune_factor: f64,
    /// Smoothing constant `k` of the M5 smoothing formula; 0 disables.
    pub smoothing: f64,
}

impl Default for M5pConfig {
    fn default() -> Self {
        M5pConfig {
            min_split: 8,
            min_leaf: 4,
            max_depth: 6,
            purity_fraction: 0.05,
            prune_factor: 1.0,
            smoothing: 15.0,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        model: LinearModel,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Node-level model used for smoothing.
        model: LinearModel,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted M5P model tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelTree {
    root: Node,
    num_features: usize,
    config: M5pConfig,
}

impl ModelTree {
    /// Fits a model tree to `data` with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::InsufficientData`] when `data` has fewer than
    /// `min_leaf` rows, and propagates lower-level failures.
    pub fn fit(data: &Dataset, config: M5pConfig) -> Result<Self, FitError> {
        if data.len() < config.min_leaf.max(1) {
            return Err(FitError::InsufficientData {
                needed: config.min_leaf.max(1),
                available: data.len(),
            });
        }
        let root_std = data.target_std();
        let root = build(data, &config, root_std, 0, &mut SplitScratch::default())?;
        Ok(ModelTree { root, num_features: data.num_features(), config })
    }

    /// Fits with default hyper-parameters.
    ///
    /// # Errors
    ///
    /// See [`ModelTree::fit`].
    pub fn fit_default(data: &Dataset) -> Result<Self, FitError> {
        Self::fit(data, M5pConfig::default())
    }

    /// Number of leaves in the fitted tree.
    #[must_use]
    pub fn num_leaves(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// Maximum depth of the fitted tree (a single leaf has depth 0).
    #[must_use]
    pub fn depth(&self) -> usize {
        fn depth(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + depth(left).max(depth(right)),
            }
        }
        depth(&self.root)
    }

    /// Predicts every row of a row-major feature matrix with one batched
    /// tree walk: rows are partitioned in place at each split, each leaf
    /// model is applied to its whole group, and smoothing is blended back
    /// up per node — bit-identical to calling [`Regressor::predict`] per
    /// row, but with one descent per *group* instead of per row and no
    /// allocations beyond the caller's buffers.
    ///
    /// `scratch` and `out` are caller-owned and reused across calls (they
    /// are cleared and refilled); holding them for the lifetime of a
    /// prediction loop amortises their allocations to zero.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` is not a multiple of the feature count, the
    /// model has zero features, or the batch exceeds `u32::MAX` rows.
    pub fn predict_batch(&self, xs: &[f64], scratch: &mut BatchScratch, out: &mut Vec<f64>) {
        let p = self.num_features;
        assert!(p > 0, "predict_batch needs at least one feature");
        assert_eq!(xs.len() % p, 0, "feature matrix arity mismatch");
        let n = xs.len() / p;
        assert!(u32::try_from(n).is_ok(), "batch too large");
        out.clear();
        out.resize(n, 0.0);
        scratch.idx.clear();
        scratch.idx.extend(0..n as u32);
        walk_batch(&self.root, xs, p, self.config.smoothing, &mut scratch.idx, out);
    }
}

/// Reusable row-index scratch for [`ModelTree::predict_batch`]; keep one
/// per prediction loop and pass it to every call so the batched walk never
/// allocates.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    idx: Vec<u32>,
}

impl Regressor for ModelTree {
    fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_features, "feature arity mismatch");
        predict_smoothed(&self.root, x, self.config.smoothing)
    }

    fn num_features(&self) -> usize {
        self.num_features
    }

    fn predict_batch(&self, xs: &[f64], out: &mut Vec<f64>) {
        // One scratch allocation per batch (not per row); callers that care
        // use the inherent `predict_batch` with their own scratch.
        let mut scratch = BatchScratch::default();
        ModelTree::predict_batch(self, xs, &mut scratch, out);
    }
}

/// The batched walk behind [`ModelTree::predict_batch`]: `idx` holds the
/// rows that reach `node`; splits partition it in place (unstable — `out`
/// is indexed by row id, so order inside a group is irrelevant) and the
/// smoothing blend is applied to the whole group on the way back up, in
/// the same bottom-up order as [`predict_smoothed`].
fn walk_batch(node: &Node, xs: &[f64], p: usize, k: f64, idx: &mut [u32], out: &mut [f64]) {
    match node {
        Node::Leaf { model } => {
            for &r in idx.iter() {
                let r = r as usize;
                out[r] = model.predict(&xs[r * p..r * p + p]);
            }
        }
        Node::Split { feature, threshold, model, left, right } => {
            let mut i = 0;
            let mut j = idx.len();
            while i < j {
                let r = idx[i] as usize;
                if xs[r * p + *feature] <= *threshold {
                    i += 1;
                } else {
                    j -= 1;
                    idx.swap(i, j);
                }
            }
            let (li, ri) = idx.split_at_mut(i);
            walk_batch(left, xs, p, k, li, out);
            walk_batch(right, xs, p, k, ri, out);
            if k > 0.0 {
                let w = k / (k + 40.0);
                for &r in idx.iter() {
                    let r = r as usize;
                    let row = &xs[r * p..r * p + p];
                    out[r] = w * model.predict(row) + (1.0 - w) * out[r];
                }
            }
        }
    }
}

/// M5 smoothing: the leaf prediction is blended with each ancestor's model
/// prediction on the way back up, weighted by subtree size vs `k`.
fn predict_smoothed(node: &Node, x: &[f64], k: f64) -> f64 {
    // Descend collecting the path.
    match node {
        Node::Leaf { model } => model.predict(x),
        Node::Split { feature, threshold, model, left, right } => {
            let child = if x[*feature] <= *threshold { left } else { right };
            let child_pred = predict_smoothed(child, x, k);
            if k <= 0.0 {
                child_pred
            } else {
                // Weight: the classic formula uses n (training rows below);
                // we approximate with a fixed blend since leaf sizes are not
                // stored — the node model gets k/(k+n̄) weight via the
                // configured constant. A light touch keeps transitions
                // continuous without washing out the piecewise structure.
                let w = k / (k + 40.0);
                w * model.predict(x) + (1.0 - w) * child_pred
            }
        }
    }
}

fn fit_node_model(data: &Dataset) -> Result<LinearModel, FitError> {
    match LinearModel::fit_ols(data) {
        Ok(m) => Ok(m),
        Err(FitError::InsufficientData { .. } | FitError::SingularSystem) => {
            Ok(LinearModel::constant(data.num_features(), data.target_mean()))
        }
        Err(e) => Err(e),
    }
}

fn build(
    data: &Dataset,
    cfg: &M5pConfig,
    root_std: f64,
    depth: usize,
    scratch: &mut SplitScratch,
) -> Result<Node, FitError> {
    let model = fit_node_model(data)?;

    let sd = data.target_std();
    let too_small = data.len() < cfg.min_split;
    let pure = sd < cfg.purity_fraction * root_std;
    let too_deep = depth >= cfg.max_depth;
    if too_small || pure || too_deep {
        return Ok(Node::Leaf { model });
    }

    let Some((feature, threshold)) = best_split(data, sd, cfg, scratch) else {
        return Ok(Node::Leaf { model });
    };
    let (li, ri) = data.split_indices(feature, threshold);
    let (ld, rd) = (data.subset(&li), data.subset(&ri));
    let left = build(&ld, cfg, root_std, depth + 1, scratch)?;
    let right = build(&rd, cfg, root_std, depth + 1, scratch)?;

    // Prune: keep the subtree only if it beats this node's own linear model.
    let node = Node::Split {
        feature,
        threshold,
        model: model.clone(),
        left: Box::new(left),
        right: Box::new(right),
    };
    let subtree_err = subtree_mae(&node, data);
    let leaf_err = mae(&model, data);
    if subtree_err < cfg.prune_factor * leaf_err {
        Ok(node)
    } else {
        Ok(Node::Leaf { model })
    }
}

/// Unsmoothed subtree MAE (pruning uses raw piecewise predictions).
fn subtree_mae(node: &Node, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let sum: f64 = data.iter().map(|(x, y)| (predict_smoothed(node, x, 0.0) - y).abs()).sum();
    sum / data.len() as f64
}

/// The split search's buffers, reused at every node of one fit.
#[derive(Default)]
struct SplitScratch {
    /// Each row's `(feature value, target)`, sorted by value.
    pairs: Vec<(f64, f64)>,
    /// Running `(Σy, Σy²)` over `pairs`.
    prefix: Vec<(f64, f64)>,
}

/// Finds the (feature, threshold) pair maximising the reduction of
/// `parent_sd`, the standard deviation of `data`'s targets, respecting the
/// minimum-leaf constraint.
fn best_split(
    data: &Dataset,
    parent_sd: f64,
    cfg: &M5pConfig,
    scratch: &mut SplitScratch,
) -> Option<(usize, f64)> {
    let n = data.len();
    if parent_sd <= 0.0 {
        return None;
    }
    let mut best: Option<(f64, usize, f64)> = None;
    let SplitScratch { pairs, prefix } = scratch;

    for feature in 0..data.num_features() {
        // Sort (value, target) by value; candidate thresholds are midpoints.
        // The sort is stable, so tied values keep their row order and the
        // prefix sums their bits.
        pairs.clear();
        pairs.extend(data.iter().map(|(row, y)| (row[feature], y)));
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Prefix sums for O(1) variance at each cut.
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        prefix.clear();
        prefix.extend(pairs.iter().map(|&(_, y)| {
            sum += y;
            sum_sq += y * y;
            (sum, sum_sq)
        }));
        let (total, total_sq) = *prefix.last().unwrap();

        for cut in cfg.min_leaf..=(n - cfg.min_leaf) {
            if cut == 0 || cut == n {
                continue;
            }
            // Skip ties: cannot split between equal values.
            if pairs[cut - 1].0 == pairs[cut].0 {
                continue;
            }
            let (ls, lsq) = prefix[cut - 1];
            let (rs, rsq) = (total - ls, total_sq - lsq);
            let nl = cut as f64;
            let nr = (n - cut) as f64;
            let var_l = (lsq / nl - (ls / nl).powi(2)).max(0.0);
            let var_r = (rsq / nr - (rs / nr).powi(2)).max(0.0);
            let sdr = parent_sd - (nl / n as f64) * var_l.sqrt() - (nr / n as f64) * var_r.sqrt();
            if best.as_ref().is_none_or(|(b, _, _)| sdr > *b) {
                let threshold = 0.5 * (pairs[cut - 1].0 + pairs[cut].0);
                best = Some((sdr, feature, threshold));
            }
        }
    }
    best.filter(|(sdr, _, _)| *sdr > 1e-9 * parent_sd).map(|(_, f, t)| (f, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmse;

    /// The paper's motivating non-linearity: fan power ≈ cubic in speed.
    fn fan_power_data() -> Dataset {
        let mut d = Dataset::new(vec!["speed".into()]);
        for i in 0..=100 {
            let s = f64::from(i) / 100.0;
            let power = 8.0 + 417.0 * s.powi(3);
            d.push(&[s], power).unwrap();
        }
        d
    }

    #[test]
    fn model_tree_beats_ols_on_cubic() {
        let d = fan_power_data();
        let tree = ModelTree::fit_default(&d).unwrap();
        let line = LinearModel::fit_ols(&d).unwrap();
        let tree_err = rmse(&tree, &d);
        let line_err = rmse(&line, &d);
        assert!(
            tree_err < 0.5 * line_err,
            "tree rmse {tree_err:.2} not well below linear rmse {line_err:.2}"
        );
        assert!(tree.num_leaves() >= 2, "tree never split");
    }

    #[test]
    fn piecewise_constant_target_recovers_steps() {
        // y = 0 for x<0.5, 10 for x>=0.5: a two-leaf tree nails it.
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..100 {
            let x = f64::from(i) / 100.0;
            d.push(&[x], if x < 0.5 { 0.0 } else { 10.0 }).unwrap();
        }
        let tree = ModelTree::fit(
            &d,
            M5pConfig { smoothing: 0.0, ..M5pConfig::default() },
        )
        .unwrap();
        assert!(tree.predict(&[0.2]).abs() < 0.5);
        assert!((tree.predict(&[0.8]) - 10.0).abs() < 0.5);
    }

    #[test]
    fn pure_target_yields_single_leaf() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..50 {
            d.push(&[f64::from(i)], 5.0).unwrap();
        }
        let tree = ModelTree::fit_default(&d).unwrap();
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.depth(), 0);
        assert!((tree.predict(&[25.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn linear_target_prunes_to_leaf_quality() {
        // A plain line: the tree may or may not split, but must match OLS
        // accuracy (pruning should collapse useless structure).
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..80 {
            let x = f64::from(i) * 0.1;
            d.push(&[x], 3.0 * x - 2.0).unwrap();
        }
        let tree = ModelTree::fit_default(&d).unwrap();
        assert!(rmse(&tree, &d) < 0.2, "rmse {}", rmse(&tree, &d));
    }

    #[test]
    fn respects_max_depth() {
        let d = fan_power_data();
        let tree =
            ModelTree::fit(&d, M5pConfig { max_depth: 2, ..M5pConfig::default() }).unwrap();
        assert!(tree.depth() <= 2);
        assert!(tree.num_leaves() <= 4);
    }

    #[test]
    fn insufficient_data_rejected() {
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(&[1.0], 1.0).unwrap();
        assert!(matches!(
            ModelTree::fit_default(&d),
            Err(FitError::InsufficientData { .. })
        ));
    }

    #[test]
    fn multifeature_split_selects_informative_feature() {
        // Feature 1 is pure noise; feature 0 carries the step.
        let mut d = Dataset::new(vec!["signal".into(), "noise".into()]);
        for i in 0..200 {
            let x = f64::from(i) / 200.0;
            let nz = f64::from((i * 31) % 17) / 17.0;
            d.push(&[x, nz], if x < 0.4 { 1.0 } else { 8.0 }).unwrap();
        }
        let tree =
            ModelTree::fit(&d, M5pConfig { smoothing: 0.0, ..M5pConfig::default() }).unwrap();
        assert!((tree.predict(&[0.1, 0.9]) - 1.0).abs() < 0.5);
        assert!((tree.predict(&[0.9, 0.1]) - 8.0).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "feature arity mismatch")]
    fn predict_wrong_arity_panics() {
        let tree = ModelTree::fit_default(&fan_power_data()).unwrap();
        let _ = tree.predict(&[0.5, 0.5]);
    }

    #[test]
    fn batch_matches_per_row_bit_for_bit() {
        // Both with and without smoothing: the batched partition walk must
        // produce the exact bits of the per-row recursive descent.
        for smoothing in [0.0, 15.0] {
            let tree = ModelTree::fit(
                &fan_power_data(),
                M5pConfig { smoothing, ..M5pConfig::default() },
            )
            .unwrap();
            let xs: Vec<f64> = (0..=200).map(|i| f64::from(i) / 200.0).collect();
            let mut scratch = BatchScratch::default();
            let mut out = Vec::new();
            tree.predict_batch(&xs, &mut scratch, &mut out);
            assert_eq!(out.len(), xs.len());
            for (x, got) in xs.iter().zip(&out) {
                let want = tree.predict(&[*x]);
                assert_eq!(
                    want.to_bits(),
                    got.to_bits(),
                    "x={x} smoothing={smoothing}: {want} != {got}"
                );
            }
        }
    }

    #[test]
    fn batch_scratch_reuse_and_trait_dispatch() {
        let tree = ModelTree::fit_default(&fan_power_data()).unwrap();
        let mut scratch = BatchScratch::default();
        let mut out = Vec::new();
        // Two calls with different batch sizes through the same buffers.
        tree.predict_batch(&[0.1, 0.9], &mut scratch, &mut out);
        assert_eq!(out.len(), 2);
        tree.predict_batch(&[0.5], &mut scratch, &mut out);
        assert_eq!(out.len(), 1);
        // Trait-object dispatch agrees with the inherent path.
        let dyn_tree: &dyn Regressor = &tree;
        let mut via_trait = Vec::new();
        dyn_tree.predict_batch(&[0.1, 0.5, 0.9], &mut via_trait);
        for (x, got) in [0.1, 0.5, 0.9].iter().zip(&via_trait) {
            assert_eq!(tree.predict(&[*x]).to_bits(), got.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "feature matrix arity mismatch")]
    fn batch_wrong_arity_panics() {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..20 {
            d.push(&[f64::from(i), 0.0], f64::from(i)).unwrap();
        }
        let tree = ModelTree::fit_default(&d).unwrap();
        let mut out = Vec::new();
        tree.predict_batch(&[1.0, 2.0, 3.0], &mut BatchScratch::default(), &mut out);
    }
}
