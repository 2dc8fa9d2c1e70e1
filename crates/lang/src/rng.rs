//! Deterministic seed derivation.
//!
//! Every random decision in the workspace flows from a single 64-bit
//! workspace seed, mixed with stable *stream identifiers* (country index,
//! site index, page section, element ordinal, …) through splitmix64. The
//! same `(seed, streams…)` always yields the same `StdRng`, which makes the
//! whole corpus — and therefore every table and figure — byte-reproducible.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The default workspace seed used by examples, benches and the `repro`
/// binary. Chosen arbitrarily; any seed reproduces the paper's *shapes*.
pub const DEFAULT_SEED: u64 = 0x4C61_6E67_4372_5558; // "LangCrUX"

/// One round of splitmix64 — a small, well-distributed 64-bit mixer.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a child seed from a base seed and a list of stream identifiers.
///
/// Mixing is order-sensitive: `derive(s, &[1, 2]) != derive(s, &[2, 1])`.
pub fn derive(base: u64, streams: &[u64]) -> u64 {
    let mut state = splitmix64(base);
    for &s in streams {
        state = splitmix64(state ^ s.wrapping_mul(0xD134_2543_DE82_EF95));
    }
    state
}

/// Build a [`StdRng`] for a derived stream.
pub fn rng_for(base: u64, streams: &[u64]) -> StdRng {
    StdRng::seed_from_u64(derive(base, streams))
}

/// 64-bit FNV-1a over arbitrary bytes: the workspace's one identity hash
/// (stream ids, serve cache keys, committed byte digests).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Hash a string into a stable stream id (FNV-1a), so hostnames and other
/// textual keys can participate in seed derivation.
pub fn stream_id(s: &str) -> u64 {
    fnv1a64(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive(42, &[1, 2, 3]), derive(42, &[1, 2, 3]));
        let mut a = rng_for(7, &[1]);
        let mut b = rng_for(7, &[1]);
        let xa: u64 = a.gen();
        let xb: u64 = b.gen();
        assert_eq!(xa, xb);
    }

    #[test]
    fn derivation_is_order_sensitive() {
        assert_ne!(derive(42, &[1, 2]), derive(42, &[2, 1]));
    }

    #[test]
    fn streams_decorrelate() {
        // Adjacent stream ids must give different seeds.
        let seeds: Vec<u64> = (0..100).map(|i| derive(DEFAULT_SEED, &[i])).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn stream_id_stable_and_distinct() {
        assert_eq!(stream_id("example.bd"), stream_id("example.bd"));
        assert_ne!(stream_id("example.bd"), stream_id("example.th"));
        assert_ne!(stream_id(""), stream_id(" "));
    }

    #[test]
    fn splitmix_avalanche_smoke() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = splitmix64(0x1234_5678);
        let b = splitmix64(0x1234_5679);
        let diff = (a ^ b).count_ones();
        assert!((16..=48).contains(&diff), "diff = {diff}");
    }
}
