//! "1-to-10-byte decimal" keys (§6.1): decimal string representations of
//! uniform random numbers in `[0, 2^31)`. About 80% of these keys are 9 or
//! 10 bytes long, which exercises variable-length key support and forces
//! layer-1 trie nodes. Also 8-byte random alphabetical keys for the
//! hash-table comparison (§6.4).

use crate::Rng64;

/// Renders `v mod 2^31` as its decimal byte string (1–10 bytes).
#[inline]
pub fn decimal_key(v: u64) -> Vec<u8> {
    let v = v % 2_147_483_648;
    let mut buf = [0u8; 10];
    let mut n = v;
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf[i..].to_vec()
}

/// An 8-byte random alphabetical key (`a..=z`), as used for the §6.4
/// hash-table benchmark ("digit-only keys caused collisions").
#[inline]
pub fn alpha_key(rng: &mut Rng64) -> [u8; 8] {
    let mut k = [0u8; 8];
    for b in &mut k {
        *b = b'a' + rng.below(26) as u8;
    }
    k
}

/// A reproducible stream of decimal keys.
#[derive(Clone, Debug)]
pub struct DecimalKeys {
    rng: Rng64,
    /// Number of distinct underlying integers (keyspace size).
    pub keyspace: u64,
}

impl DecimalKeys {
    /// Keys drawn uniformly from a `keyspace`-sized integer range (the
    /// paper varies the range per experiment).
    pub fn new(seed: u64, keyspace: u64) -> Self {
        DecimalKeys {
            rng: Rng64::new(seed),
            keyspace: keyspace.max(1),
        }
    }

    /// The next random key.
    #[inline]
    pub fn next_key(&mut self) -> Vec<u8> {
        decimal_key(self.rng.below(self.keyspace))
    }

    /// The `i`-th key of a deterministic enumeration of the keyspace
    /// (useful for prefilling stores with exactly-known contents).
    #[inline]
    pub fn nth_key(&self, i: u64) -> Vec<u8> {
        // Feistel-free mixing: deterministic bijection-ish spread.
        let mut r = Rng64::new(i.wrapping_mul(0x2545F4914F6CDD1D));
        decimal_key(r.below(self.keyspace))
    }
}

impl Iterator for DecimalKeys {
    type Item = Vec<u8>;
    fn next(&mut self) -> Option<Vec<u8>> {
        Some(self.next_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_rendering() {
        assert_eq!(decimal_key(0), b"0");
        assert_eq!(decimal_key(7), b"7");
        assert_eq!(decimal_key(1234567890), b"1234567890");
        assert_eq!(decimal_key(2_147_483_647), b"2147483647");
        assert_eq!(decimal_key(2_147_483_648), b"0", "wraps at 2^31");
    }

    #[test]
    fn length_distribution_matches_paper() {
        // §6.1: "80% of the keys are 9 or 10 bytes long" — i.e. the
        // majority of keys are long enough to force layer-1 trie nodes.
        // Uniform draws over [0, 2^31) give ~95% at 9-10 digits; the
        // paper's 80% suggests a slightly different draw, but the
        // property that matters (most keys exceed one slice) holds.
        let mut gen = DecimalKeys::new(1, 2_147_483_648);
        let mut long = 0;
        const N: usize = 100_000;
        for _ in 0..N {
            if gen.next_key().len() >= 9 {
                long += 1;
            }
        }
        let frac = long as f64 / N as f64;
        assert!(frac > 0.75, "9/10-byte fraction = {frac}");
    }

    #[test]
    fn keys_are_at_most_ten_bytes() {
        let mut gen = DecimalKeys::new(2, 2_147_483_648);
        for _ in 0..10_000 {
            let k = gen.next_key();
            assert!((1..=10).contains(&k.len()));
            assert!(k.iter().all(|b| b.is_ascii_digit()));
        }
    }

    #[test]
    fn alpha_keys_are_alphabetic() {
        let mut rng = Rng64::new(5);
        for _ in 0..1000 {
            let k = alpha_key(&mut rng);
            assert!(k.iter().all(|b| b.is_ascii_lowercase()));
        }
    }

    #[test]
    fn nth_key_is_deterministic() {
        let gen = DecimalKeys::new(1, 1 << 20);
        assert_eq!(gen.nth_key(12345), gen.nth_key(12345));
        assert_ne!(gen.nth_key(1), gen.nth_key(2));
    }
}
