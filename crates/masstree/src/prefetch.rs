//! Node prefetching (§4.2 of the paper).
//!
//! Masstree's performance is dominated by DRAM fetch latency during tree
//! descent. Prefetching every cache line of a node in parallel before using
//! it lets a whole wide node arrive in roughly one DRAM latency, which is
//! why fanout 15 beats narrower trees. On x86_64 this issues `prefetcht0`
//! for each 64-byte line; elsewhere it is a no-op (the algorithms remain
//! correct, only the memory-level parallelism is lost).

/// Cache line size assumed by the layout (§6.1: the evaluation machine has
/// 64-byte lines).
pub const CACHE_LINE: usize = 64;

/// How many cache lines a `size`-byte object at address `addr` touches,
/// from the line holding `addr` through the one holding its last byte.
/// An object that is not line-aligned can touch one line more than
/// `size / 64` rounded up (a 32-byte header at an address ≡ 48 mod 64
/// touches two).
#[inline(always)]
pub(crate) fn line_count(addr: usize, size: usize) -> usize {
    if size == 0 {
        return 0;
    }
    (addr + size - 1) / CACHE_LINE - addr / CACHE_LINE + 1
}

/// Prefetches every cache line of the `size`-byte object at `p`.
///
/// Prefetch is an architectural hint with no memory effects: it cannot
/// fault and is safe for arbitrary addresses, so this function is safe
/// despite taking a raw pointer.
#[allow(clippy::not_unsafe_ptr_arg_deref)]
#[inline(always)]
pub fn prefetch_object(p: *const u8, size: usize) {
    // One prefetch per 64 bytes from `p` (a fixed count, so a constant
    // `size` unrolls), plus the line an unaligned object spills into.
    let whole = size.div_ceil(CACHE_LINE);
    for i in 0..whole {
        prefetch_line(p.wrapping_add(i * CACHE_LINE));
    }
    if line_count(p as usize, size) > whole {
        prefetch_line(p.wrapping_add(whole * CACHE_LINE));
    }
}

/// Prefetches the cache line holding `p`.
#[inline(always)]
fn prefetch_line(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it has no memory effects and is
    // architecturally safe even for invalid addresses. `p` is in
    // practice inside a live node or value.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetches a whole typed object (every line it spans).
#[inline(always)]
pub fn prefetch<T>(p: *const T) {
    prefetch_object(p.cast::<u8>(), size_of::<T>());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_side_effect_free() {
        let data = [0u8; 512];
        prefetch_object(data.as_ptr(), data.len());
        prefetch(&data);
        assert_eq!(data, [0u8; 512]);
    }

    #[test]
    fn line_count_covers_straddling_objects() {
        // A 32-byte header 16-byte aligned past the middle of a line
        // reaches into the next one.
        assert_eq!(line_count(48, 32), 2);
        assert_eq!(line_count(0, 64), 1);
        assert_eq!(line_count(64, 65), 2);
        assert_eq!(line_count(100, 1), 1);
        assert_eq!(line_count(127, 2), 2);
        assert_eq!(line_count(1, 128), 3);
        assert_eq!(line_count(200, 0), 0);
        // Line-aligned objects (slab nodes) keep the old count.
        for lines in 1..8 {
            assert_eq!(line_count(4096, lines * CACHE_LINE), lines);
        }
        // `prefetch_object` covers every line with its whole lines from
        // `p` plus at most one spill line.
        for addr in 0..2 * CACHE_LINE {
            for size in 1..5 * CACHE_LINE {
                let whole = size.div_ceil(CACHE_LINE);
                let n = line_count(addr, size);
                assert!(n == whole || n == whole + 1, "{addr} {size}");
            }
        }
    }
}
