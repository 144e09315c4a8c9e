//! Order statistics, the seed mixer, and process memory.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks (the "R-7" / NumPy default definition): rank
/// `q·(n−1)` in the sorted sample. `None` for an empty sample.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values` (`None` when empty).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// SplitMix64: the benchmark's only source of entropy. Every derived seed
/// is `mix(seed ^ stream)`, so each input stream is a pure function of the
/// `--seed` argument and a fixed stream tag.
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded stream of `mix` outputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream tagged `stream` under the run's `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM` from
/// `/proc/self/status`), or `None` where that file is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_hand_computed_values() {
        let v = [7.0, 1.0, 3.0, 5.0];
        // Sorted 1 3 5 7; rank q·3.
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(7.0));
        assert_eq!(median(&v), Some(4.0)); // rank 1.5 → 3 + 0.5·2
        assert_eq!(quantile(&v, 0.25), Some(2.5)); // rank 0.75 → 1 + 0.75·2
        assert_eq!(quantile(&v, 0.75), Some(5.5)); // rank 2.25 → 5 + 0.25·2
        assert_eq!(median(&[2.0, 9.0, 4.0]), Some(4.0));
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[3.5], 0.99), Some(3.5));
    }

    #[test]
    fn p99_of_one_to_hundred_interpolates() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // rank 0.99·99 = 98.01 → 99 + 0.01·1
        let p99 = quantile(&v, 0.99).unwrap();
        assert!((p99 - 99.01).abs() < 1e-9, "{p99}");
        assert_eq!(quantile(&v, 0.5), Some(50.5));
    }

    #[test]
    fn rng_streams_are_pure_functions_of_seed_and_tag() {
        let a: Vec<u64> = {
            let mut r = Rng::new(5, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(5, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(5, 2);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut items: Vec<u32> = (0..30).collect();
        Rng::new(9, 3).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
    }
}
