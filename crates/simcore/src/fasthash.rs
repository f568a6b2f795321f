//! A fast, deterministic multiply-rotate hasher for the simulator's hot
//! keyed tables: C4P's sticky allocations and rate EMAs, the telemetry
//! stores' connection index, the streaming delay matrix's connection
//! index, and the plan cache's plans and drain memo.
//!
//! `std`'s default SipHash is DoS-resistant but costs ~10× more per key
//! than the tables here need: every key is a small fixed tuple of dense
//! ids, fully attacker-free inside the simulator, and the hot loops hash
//! each key once or more per flow, connection or iteration. The mixer
//! below is the same splitmix-style arithmetic as `c4_netsim::mix64`,
//! folded per write — deterministic across runs and platforms, so every
//! table lookup is a pure function of its inputs.

use std::hash::{BuildHasherDefault, Hasher};

/// Accumulating multiply-rotate hasher; one `mix` per written word.
#[derive(Default)]
pub struct Mix64Hasher(u64);

impl Mix64Hasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(27);
    }
}

impl Hasher for Mix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so low bits (HashMap bucket selection) depend on
        // every input word.
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^ (x >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut v = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                v |= (b as u64) << (8 * i);
            }
            self.mix(v);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// The hasher state for [`FastMap`].
pub type FastState = BuildHasherDefault<Mix64Hasher>;

/// A `HashMap` keyed with [`Mix64Hasher`] — drop-in for the default map on
/// simulator-internal keys.
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastState>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spreading() {
        let hash_of = |v: u64| {
            let mut h = Mix64Hasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash_of(42), hash_of(42));
        // Consecutive keys land in different low-bit buckets.
        let low: std::collections::HashSet<u64> = (0..64).map(|v| hash_of(v) & 63).collect();
        assert!(low.len() > 32, "low bits too clustered: {}", low.len());
    }

    #[test]
    fn byte_writes_cover_all_input() {
        let digest = |bytes: &[u8]| {
            let mut h = Mix64Hasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(digest(b"abcdefgh-1"), digest(b"abcdefgh-2"));
        assert_ne!(digest(b"a"), digest(b"b"));
    }

    #[test]
    fn map_works_end_to_end() {
        let mut m: FastMap<(u32, u32), u32> = FastMap::default();
        for i in 0..1000u32 {
            m.insert((i, i * 7), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(13, 91)), Some(&13));
    }
}
