//! Stable content hashing for job specs and artifacts, and the seeded
//! random stream campaigns draw from.
//!
//! The digest must be identical across runs, processes and platforms —
//! `std::hash` explicitly is not — so we hash the canonical JSON rendering
//! of a spec with FNV-1a. JSON is canonical here because the workspace's
//! serializer emits struct fields in declaration order and `f64` values in
//! exact round-trip form, making the rendering a pure function of the
//! value.

use serde::Serialize;

/// A 64-bit stable content digest, rendered as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u64);

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::str::FromStr for Digest {
    type Err = String;

    /// Parses the 16-lowercase-hex-digit rendering produced by `Display`
    /// (the form artifact filenames and URLs carry).
    fn from_str(s: &str) -> Result<Self, String> {
        if s.len() == 16 && s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
            u64::from_str_radix(s, 16).map(Digest).map_err(|e| e.to_string())
        } else {
            Err(format!("digest wants 16 lowercase hex digits, got '{s}'"))
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The stable digest of any serializable value: FNV-1a over its canonical
/// JSON rendering.
///
/// # Panics
///
/// Panics if the value cannot be serialized (job specs are plain data and
/// always can be).
#[must_use]
pub fn stable_digest<T: Serialize + ?Sized>(value: &T) -> Digest {
    let json = serde_json::to_string(value).expect("job specs serialize to JSON");
    Digest(fnv1a(json.as_bytes()))
}

/// SplitMix64: the seeded random stream of every campaign (tune proposals,
/// fleet placement, learn sampling) and of the fault model's sensor noise.
/// Pure 64-bit integer arithmetic gives the same stream on every
/// platform, which bit-identical resume depends on.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Spec {
        name: String,
        seed: u64,
        stride: f64,
    }

    #[test]
    fn digest_is_stable_across_calls() {
        let s = Spec { name: "Newark".into(), seed: 42, stride: 0.1 };
        assert_eq!(stable_digest(&s), stable_digest(&s));
    }

    #[test]
    fn digest_distinguishes_values() {
        let a = Spec { name: "Newark".into(), seed: 42, stride: 0.1 };
        let b = Spec { name: "Newark".into(), seed: 43, stride: 0.1 };
        assert_ne!(stable_digest(&a), stable_digest(&b));
    }

    #[test]
    fn digest_renders_as_16_hex_digits() {
        let d = stable_digest(&7u8);
        let hex = d.to_string();
        assert_eq!(hex.len(), 16);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn digest_round_trips_through_its_string_form() {
        let d = stable_digest(&("Newark", 42u64));
        assert_eq!(d.to_string().parse::<Digest>().unwrap(), d);
        assert!("short".parse::<Digest>().is_err());
        assert!("XYZ4567890123456".parse::<Digest>().is_err());
        assert!("ABCDEF0123456789".parse::<Digest>().is_err(), "uppercase rejected");
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a("a") reference value.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn splitmix_stream_is_deterministic_and_seed_sensitive() {
        let draws = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<u64>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        // Reference value: the first output for seed 0.
        assert_eq!(draws(0)[0], 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn splitmix_draws_stay_in_range() {
        let mut r = SplitMix64::new(42);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&r.next_f64()));
        }
        for n in [1usize, 2, 7, 100] {
            assert!(r.below(n) < n);
        }
    }
}
