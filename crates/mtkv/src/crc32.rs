//! CRC-32 (IEEE 802.3 polynomial) for log-record and value-payload
//! integrity, implemented in-crate to stay within the approved
//! dependency set. The value-tier read path checksums every cache
//! read — whole payloads, often kilobytes — and the log every record,
//! so this is a hot path: buffers of 16 bytes and up take a
//! carry-less-multiply folding routine (PCLMULQDQ, ~16 bytes per cycle)
//! when the CPU has it; shorter buffers, the sub-16-byte tail and CPUs
//! without it go through slicing-by-8, whose eight derived tables fold
//! eight bytes per step with independent lookups instead of the classic
//! one-lookup-per-byte dependency chain.

const POLY: u32 = 0xEDB88320;

fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        for i in 0..256usize {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xff) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// Advances the raw CRC state `c` (inverted convention: start from
/// `!0`, finish with `!c`) across `data` — slicing-by-8.
fn update(mut c: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes(ch[..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(ch[4..].try_into().unwrap());
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 16
        && std::is_x86_feature_detected!("pclmulqdq")
        && std::is_x86_feature_detected!("sse4.1")
    {
        let split = data.len() & !15;
        // SAFETY: required CPU features verified just above; the slice
        // passed is a multiple of 16 bytes and at least 16 long.
        let folded = unsafe { pclmul::crc32_fold(&data[..split]) };
        return !update(!folded, &data[split..]);
    }
    !update(!0, data)
}

/// Carry-less-multiply CRC folding — Intel's "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ" applied to the bit-reflected
/// IEEE polynomial; the folding constants are the well-known ones also
/// used by zlib and the Linux kernel. From 128 bytes up, four 128-bit
/// lanes fold 64 input bytes per iteration and are then folded
/// together; shorter input folds one lane 16 bytes at a time. The lane
/// is then reduced to 64 bits and finished with a Barrett reduction.
#[cfg(target_arch = "x86_64")]
mod pclmul {
    use std::arch::x86_64::*;

    // x^t mod P (bit-reflected) for the folding distances.
    const K1: i64 = 0x154442bd4; // t = 4·128 + 64
    const K2: i64 = 0x1c6e41596; // t = 4·128
    const K3: i64 = 0x1751997d0; // t = 128 + 64
    const K4: i64 = 0x0ccaa009e; // t = 128
    const K5: i64 = 0x163cd6124; // t = 64
    const P_X: i64 = 0x1DB710641; // P(x), reflected, with the x^32 term
    const U_PRIME: i64 = 0x1F7011641; // floor(x^64 / P(x)), reflected

    #[inline]
    unsafe fn take16(data: &mut &[u8]) -> __m128i {
        let v = _mm_loadu_si128(data.as_ptr() as *const __m128i);
        *data = &data[16..];
        v
    }

    /// Folds 128-bit lane `a` forward across 16 bytes into `b`.
    #[inline]
    unsafe fn fold16(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// CRC-32 of `data` from initial state `!0` (the one-shot value).
    /// `data.len()` must be a multiple of 16 and at least 16.
    #[target_feature(enable = "sse2", enable = "sse4.1", enable = "pclmulqdq")]
    pub unsafe fn crc32_fold(mut data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 16 && data.len().is_multiple_of(16));
        let k3k4 = _mm_set_epi64x(K4, K3);
        // The initial state folds into the first lane.
        let init = _mm_cvtsi32_si128(!0i32);
        let mut x = if data.len() >= 128 {
            let mut x3 = _mm_xor_si128(take16(&mut data), init);
            let mut x2 = take16(&mut data);
            let mut x1 = take16(&mut data);
            let mut x0 = take16(&mut data);
            let k1k2 = _mm_set_epi64x(K2, K1);
            while data.len() >= 64 {
                x3 = fold16(x3, take16(&mut data), k1k2);
                x2 = fold16(x2, take16(&mut data), k1k2);
                x1 = fold16(x1, take16(&mut data), k1k2);
                x0 = fold16(x0, take16(&mut data), k1k2);
            }
            let x = fold16(x3, x2, k3k4);
            let x = fold16(x, x1, k3k4);
            fold16(x, x0, k3k4)
        } else {
            _mm_xor_si128(take16(&mut data), init)
        };
        while data.len() >= 16 {
            x = fold16(x, take16(&mut data), k3k4);
        }
        // Reduce 128 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction 64 → 32 bits (bit-reflected variant: the
        // result sits in the upper half of the 64-bit product).
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        !(_mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414FA339
        );
    }

    fn reference(data: &[u8]) -> u32 {
        // Canonical byte-at-a-time bitwise recurrence.
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    fn xorshift_data(n: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(n);
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            data.push(x as u8);
        }
        data
    }

    #[test]
    fn matches_bytewise_reference_every_short_length() {
        // Every length through the slicing path, the one-lane and the
        // four-lane fold, including every tail residue mod 16, from
        // every start offset within a 16-byte block.
        let data = xorshift_data(1100 + 16);
        for start in 0..16 {
            for len in 0..=1100 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), reference(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn matches_bytewise_reference_large_buffers() {
        // Payload-sized buffers: multiple 64-byte folding rounds plus
        // every interesting tail shape.
        let data = xorshift_data(8200);
        for len in [1024, 1031, 2048, 4096, 4103, 8192, 8200] {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
        // Unaligned starts: the folding loads must not require
        // 16-byte-aligned input.
        for start in 1..17 {
            let s = &data[start..start + 4096];
            assert_eq!(crc32(s), reference(s), "start {start}");
        }
    }

    #[test]
    fn detects_corruption() {
        let a = crc32(b"some log record payload");
        let b = crc32(b"some log record payloae");
        assert_ne!(a, b);
    }
}
