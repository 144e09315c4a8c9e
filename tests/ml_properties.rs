//! Property-based tests for the ML substrate's statistical guarantees.

use coolair_suite::ml::{
    fit_best_linear, kfold_cv, Dataset, FitError, LinearModel, M5pConfig, ModelTree, Regressor,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn dataset_from(rows: &[(f64, f64)], f: impl Fn(f64, f64) -> f64) -> Dataset {
    let mut d = Dataset::new(vec!["a".into(), "b".into()]);
    for &(a, b) in rows {
        d.push(&[a, b], f(a, b)).expect("finite");
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// OLS exactly interpolates data generated by any linear function,
    /// whatever the coefficients.
    #[test]
    fn ols_recovers_arbitrary_linear_functions(
        c0 in -20.0..20.0f64,
        c1 in -20.0..20.0f64,
        c2 in -20.0..20.0f64,
    ) {
        let rows: Vec<(f64, f64)> =
            (0..30).map(|i| (f64::from(i) * 0.3, f64::from((i * 11) % 7))).collect();
        let d = dataset_from(&rows, |a, b| c0 + c1 * a + c2 * b);
        let m = LinearModel::fit_ols(&d).unwrap();
        for (x, y) in d.iter() {
            prop_assert!((m.predict(x) - y).abs() < 1e-5);
        }
    }

    /// LMS has a high breakdown point: up to ~30 % of wildly corrupted rows
    /// must not move the recovered slope materially.
    #[test]
    fn lms_breakdown_resistance(
        outlier_mag in 50.0..5000.0f64,
        stride in 4usize..8,
    ) {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..60usize {
            let x = i as f64 * 0.5;
            let corrupt = i % stride == 0;
            let y = 3.0 * x + 1.0 + if corrupt { outlier_mag } else { 0.0 };
            d.push(&[x], y).unwrap();
        }
        let m = LinearModel::fit_lms(&d, 120, 9).unwrap();
        prop_assert!(
            (m.coeffs()[0] - 3.0).abs() < 0.1,
            "slope {} under {}-magnitude outliers",
            m.coeffs()[0],
            outlier_mag
        );
    }

    /// The best-linear selector never does worse than the better of its two
    /// candidates on training MAE.
    #[test]
    fn best_linear_is_no_worse_than_components(noise_seed in 0u64..50) {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..40usize {
            let x = i as f64;
            // Deterministic pseudo-noise from the seed.
            let n = (((i as u64 + 1) * (noise_seed + 3)) % 13) as f64 / 13.0 - 0.5;
            d.push(&[x], 2.0 * x + n).unwrap();
        }
        let best = fit_best_linear(&d, 5).unwrap();
        let ols = LinearModel::fit_ols(&d).unwrap();
        let best_err = coolair_suite::ml::mae(&best, &d);
        let ols_err = coolair_suite::ml::mae(&ols, &d);
        prop_assert!(best_err <= ols_err + 1e-9);
    }

    /// An M5P tree's predictions on the training domain stay within the
    /// envelope of the training targets (no wild leaf extrapolation inside
    /// the fitted range).
    #[test]
    fn m5p_predictions_bounded_on_training_domain(knee in 0.2..0.8f64) {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..=100usize {
            let x = i as f64 / 100.0;
            let y = if x < knee { 10.0 * x } else { 10.0 * knee + 2.0 * (x - knee) };
            d.push(&[x], y).unwrap();
        }
        let tree = ModelTree::fit(&d, M5pConfig { smoothing: 0.0, ..M5pConfig::default() }).unwrap();
        let (lo, hi) = d.targets().iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &y| {
            (l.min(y), h.max(y))
        });
        for i in 0..=50usize {
            let x = i as f64 / 50.0;
            let p = tree.predict(&[x]);
            prop_assert!(p >= lo - 1.0 && p <= hi + 1.0, "prediction {p} outside [{lo}, {hi}]");
        }
    }

    /// Cross-validation error is non-negative and finite whenever it is
    /// defined.
    #[test]
    fn kfold_error_is_sane(n in 10usize..60, k in 2usize..6) {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..n {
            d.push(&[i as f64], (i as f64).sin()).unwrap();
        }
        if let Some(err) = kfold_cv(&d, k, 3, LinearModel::fit_ols) {
            prop_assert!(err.is_finite());
            prop_assert!(err >= 0.0);
        }
    }
}

/// The exact bits of a fitted linear model, or its error.
fn model_bits(fit: Result<LinearModel, FitError>) -> String {
    match fit {
        Ok(m) => {
            let coeffs: Vec<String> =
                m.coeffs().iter().map(|c| format!("{:016x}", c.to_bits())).collect();
            format!("{:016x} [{}]", m.intercept().to_bits(), coeffs.join(" "))
        }
        Err(e) => format!("{e:?}"),
    }
}

/// 200 rows over three features; a fifth of them carry a gross outlier.
fn outlier_rows(rng: &mut StdRng) -> Dataset {
    let mut d = Dataset::new(vec!["x0".into(), "x1".into(), "x2".into()]);
    for _ in 0..200 {
        let x: [f64; 3] =
            [rng.gen_range(0.0..10.0), rng.gen_range(-5.0..5.0), rng.gen_range(0.0..1.0)];
        let noise = rng.gen_range(-0.1..0.1);
        let outlier = if rng.gen_bool(0.2) { rng.gen_range(50.0..100.0) } else { 0.0 };
        d.push(&x, 1.5 + 2.0 * x[0] - 0.5 * x[1] + 0.25 * x[2] + noise + outlier)
            .expect("finite");
    }
    d
}

/// 100 rows over one integer feature: 40 sit on the point (5, 13) where
/// the lines `y = 3 + 2x` and `y = 23 − 2x` cross, 20 lie on each line
/// elsewhere and 20 are noise. Each line holds 60 rows, so every draw of
/// two rows on one line fits it exactly with a zero median, and the LMS
/// result is the first such draw's line. Under LMS seed 3 the first such
/// draw fits the second line and the last one the first, so a tie that
/// replaced the best would move the result.
fn tied_line_rows(rng: &mut StdRng) -> Dataset {
    let mut rows: Vec<(f64, f64)> = Vec::new();
    rows.extend((0..40).map(|_| (5.0, 13.0)));
    for line in [(3.0, 2.0), (23.0, -2.0)] {
        for _ in 0..20 {
            let x = f64::from([0, 1, 2, 3, 4, 6, 7, 8, 9, 10][rng.gen_range(0..10usize)]);
            rows.push((x, line.0 + line.1 * x));
        }
    }
    rows.extend((0..20).map(|_| (f64::from(rng.gen_range(0..=10u32)), rng.gen_range(-20.0..40.0))));
    rows.shuffle(rng);
    let mut d = Dataset::new(vec!["x".into()]);
    for (x, y) in rows {
        d.push(&[x], y).expect("finite");
    }
    d
}

/// 80 rows over two features, the second constant: it is collinear with
/// the intercept, so every elemental LMS draw is singular and OLS takes
/// its ridge fallback.
fn constant_column_rows(rng: &mut StdRng) -> Dataset {
    let mut d = Dataset::new(vec!["x".into(), "const".into()]);
    for _ in 0..80 {
        let x = rng.gen_range(0.0..20.0);
        d.push(&[x, 2.5], 1.0 + 3.0 * x + rng.gen_range(-0.5..0.5)).expect("finite");
    }
    d
}

/// OLS, LMS and the best-linear selection keep the exact coefficient bits
/// they had before the flat datasets, the reused least-squares buffers and
/// the pruned LMS selections.
#[test]
fn linear_fits_keep_their_pinned_bits() {
    type Rows = fn(&mut StdRng) -> Dataset;
    // (name, rows, LMS seed, pinned OLS / LMS / best-linear bits)
    let cases: [(&str, Rows, u64, [&str; 3]); 3] = [
        (
            "outliers",
            outlier_rows,
            7,
            [
                "4026f46ac7b95086 [3ffddace8f9c4af0 3fdac987a1eb2775 401edd99e7d59da4]",
                "3ff8171f96a688e3 [3ffff9ba44817257 bfdfdfe6be50ce3d 3fce8092f9fb0543]",
                "3ff8171f96a688e3 [3ffff9ba44817257 bfdfdfe6be50ce3d 3fce8092f9fb0543]",
            ],
        ),
        (
            "tied lines",
            tied_line_rows,
            3,
            [
                "402cbd70836198fd [bfe025380de7f95c]",
                "4036fffffffffff7 [bfffffffffffffe4]",
                "4036fffffffffff7 [bfffffffffffffe4]",
            ],
        ),
        (
            "constant column",
            constant_column_rows,
            7,
            [
                "404e7b1f680bfaf0 [40080d0917803928 c037ffffffffffff]",
                "SingularSystem",
                "404e7b1f680bfaf0 [40080d0917803928 c037ffffffffffff]",
            ],
        ),
    ];
    let mut mismatches = Vec::new();
    for (i, (name, rows, lms_seed, want)) in cases.into_iter().enumerate() {
        let d = rows(&mut StdRng::seed_from_u64(100 + i as u64));
        let got = [
            model_bits(LinearModel::fit_ols(&d)),
            model_bits(LinearModel::fit_lms(&d, 60, lms_seed)),
            model_bits(fit_best_linear(&d, lms_seed)),
        ];
        for (fit, (got, want)) in ["ols", "lms", "best"].iter().zip(got.iter().zip(want)) {
            if got != want {
                mismatches.push(format!("{name} {fit}: {got} (pinned {want})"));
            }
        }
    }
    assert!(mismatches.is_empty(), "fitted bits changed:\n{}", mismatches.join("\n"));
}

/// An M5P tree fitted to features with many tied values predicts the
/// exact bits it did before the split search reused its buffers: a stable
/// sort keeps tied rows in row order, and so every prefix sum's bits.
#[test]
fn model_tree_on_tied_values_keeps_its_pinned_bits() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut d = Dataset::new(vec!["fan".into(), "level".into()]);
    for _ in 0..600 {
        let fan = f64::from(rng.gen_range(0..=8u32)) / 8.0;
        let level = f64::from(rng.gen_range(0..4u32));
        let y = 8.0 + 417.0 * fan * fan * fan + 20.0 * level + rng.gen_range(-3.0..3.0);
        d.push(&[fan, level], y).expect("finite");
    }
    let mut got = Vec::new();
    for smoothing in [0.0, 15.0] {
        let tree = ModelTree::fit(&d, M5pConfig { smoothing, ..M5pConfig::default() }).unwrap();
        // FNV-1a over the prediction bits on a 41 × 9 grid.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..=40 {
            for j in 0..=8 {
                let x = [f64::from(i) / 40.0, f64::from(j) * 0.5];
                for byte in tree.predict(&x).to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        got.push(format!("{} leaves, {hash:016x}", tree.num_leaves()));
    }
    assert_eq!(
        got,
        ["20 leaves, 3e3335fd04553c38", "20 leaves, da4baceb9fb6b5f9"],
        "tree predictions changed"
    );
}
