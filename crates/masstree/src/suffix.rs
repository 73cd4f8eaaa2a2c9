//! Key suffixes (§4.2 of the paper).
//!
//! A border-node slot whose key runs past the layer's 8-byte slice keeps
//! the rest of the key — its suffix — through the slot's `ksuf` word. As
//! the paper's `keysuffix_t` does, short suffixes live in the node: a
//! suffix of 1–8 bytes is stored in the word itself, and the slot's
//! `keylen` code (the key's remaining length, 9–16) says how many of the
//! word's bytes count. An inline suffix is never allocated, retired or
//! freed. A longer suffix ([`KEYLEN_SUFFIX_BLOCK`]) gets one immutable,
//! epoch-reclaimed block with an inline length header, and the word holds
//! the block's pointer, so reading it costs one extra memory reference —
//! the bound the paper's analysis relies on.
//!
//! # Validate before dereferencing
//!
//! Because one word holds either form, a `(code, word)` pair read
//! optimistically can be torn: a removed key's slot, reused for a key of
//! the other kind, can show a block code beside inline bytes. So a reader
//! never dereferences a block until the version check covering its read
//! has passed — and, for a hinted read of a node that may have been
//! recycled, the generation check too. Point reads go through
//! `BorderNode::match_key`, which reads, validates, then compares; scans
//! read a validated snapshot first. Writers read under the node lock,
//! which holds the pair still.

use core::alloc::Layout;
use core::ptr;
use std::alloc::{alloc, dealloc, handle_alloc_error};

use crate::key::{keylen_code, KEYLEN_SUFFIX, KEYLEN_SUFFIX_BLOCK, SLICE_LEN};

/// Header of a suffix block; `len` bytes of key data follow it inline.
#[repr(C)]
pub(crate) struct KeySuffix {
    len: u32,
    // Suffix bytes are stored immediately after the header.
    _data: [u8; 0],
}

impl KeySuffix {
    fn layout(len: usize) -> Layout {
        Layout::new::<KeySuffix>()
            .extend(Layout::array::<u8>(len).expect("suffix too large"))
            .expect("suffix layout overflow")
            .0
            .pad_to_align()
    }

    /// Allocates a suffix block holding a copy of `bytes`. The block's
    /// contents never change after this call.
    fn alloc(bytes: &[u8]) -> *mut KeySuffix {
        let len = u32::try_from(bytes.len()).expect("suffix longer than u32::MAX");
        let layout = Self::layout(bytes.len());
        // SAFETY: `layout` has non-zero size (the header is non-empty).
        let raw = unsafe { alloc(layout) };
        if raw.is_null() {
            handle_alloc_error(layout);
        }
        let p = raw.cast::<KeySuffix>();
        // SAFETY: `p` is valid for writes of a `KeySuffix` header plus
        // `bytes.len()` trailing bytes per the layout above.
        unsafe {
            ptr::addr_of_mut!((*p).len).write(len);
            ptr::copy_nonoverlapping(bytes.as_ptr(), raw.add(size_of::<KeySuffix>()), bytes.len());
        }
        p
    }

    /// Returns the block's suffix bytes.
    ///
    /// # Safety
    ///
    /// `p` must point to a live block returned by [`KeySuffix::alloc`]
    /// that stays live for `'a`.
    #[inline]
    unsafe fn bytes<'a>(p: *const KeySuffix) -> &'a [u8] {
        // SAFETY: caller guarantees `p` is live; the data bytes follow the
        // header per `alloc`.
        unsafe {
            let len = (*p).len as usize;
            core::slice::from_raw_parts(p.cast::<u8>().add(size_of::<KeySuffix>()), len)
        }
    }

    /// Frees a block returned by [`KeySuffix::alloc`].
    ///
    /// # Safety
    ///
    /// `p` must have been returned by [`KeySuffix::alloc`] and must not be
    /// used (or freed) again afterwards.
    unsafe fn free(p: *mut KeySuffix) {
        // SAFETY: caller guarantees `p` came from `alloc`, whose layout is
        // reproduced here from the stored length.
        unsafe {
            let len = (*p).len as usize;
            dealloc(p.cast::<u8>(), Self::layout(len));
        }
    }
}

/// The block a suffix word of code [`KEYLEN_SUFFIX_BLOCK`] points to.
fn block(word: u64) -> *mut KeySuffix {
    ptr::with_exposed_provenance_mut(word as usize)
}

/// The `(keylen code, suffix word)` of a key whose remainder at its layer
/// is `rest`: no suffix (word 0) when the slice holds it all, the suffix
/// bytes themselves up to 8 of them, else a freshly allocated block.
pub(crate) fn encode(rest: &[u8]) -> (u8, u64) {
    let code = keylen_code(rest.len());
    let word = match code {
        KEYLEN_SUFFIX_BLOCK => KeySuffix::alloc(&rest[SLICE_LEN..]).expose_provenance() as u64,
        KEYLEN_SUFFIX.. => {
            let mut buf = [0u8; SLICE_LEN];
            buf[..rest.len() - SLICE_LEN].copy_from_slice(&rest[SLICE_LEN..]);
            // Native order keeps the word's memory in key order, which
            // is what `bytes` hands out.
            u64::from_ne_bytes(buf)
        }
        _ => 0,
    };
    (code, word)
}

/// The suffix bytes of a slot with suffix code `code` and suffix word
/// `*word` — the one place a block is dereferenced.
///
/// # Safety
///
/// `code` and `*word` must be one slot's pair as a single tenant wrote
/// it: read under the node lock, or read optimistically and validated
/// (version, plus generation for a hinted read) **before** this call. A
/// block must stay live while the result is borrowed: the pinned guard
/// the pair was read under keeps a retired block alive.
#[inline]
pub(crate) unsafe fn bytes(code: u8, word: &u64) -> &[u8] {
    debug_assert!((KEYLEN_SUFFIX..=KEYLEN_SUFFIX_BLOCK).contains(&code));
    if code == KEYLEN_SUFFIX_BLOCK {
        // SAFETY: a validated block code, so the word is a live block's
        // pointer per the caller's contract.
        unsafe { KeySuffix::bytes(block(*word)) }
    } else {
        // SAFETY: the word's own first `code - 8` bytes, stored in key
        // order by `encode`.
        unsafe {
            core::slice::from_raw_parts(
                ptr::from_ref(word).cast::<u8>(),
                usize::from(code) - SLICE_LEN,
            )
        }
    }
}

/// Frees the block of a slot whose pair is `(code, word)`, if it has one.
///
/// # Safety
///
/// The pair must be consistent and the block unreachable, never to be
/// freed again.
pub(crate) unsafe fn free(code: u8, word: u64) {
    if code == KEYLEN_SUFFIX_BLOCK {
        // SAFETY: per caller contract.
        unsafe { KeySuffix::free(block(word)) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `rest`, checks what `bytes` reads back, frees the block.
    fn roundtrip_of(rest: &[u8]) -> u8 {
        let (code, word) = encode(rest);
        // SAFETY: a freshly encoded pair; its block is freed only below.
        unsafe {
            assert_eq!(bytes(code, &word), &rest[SLICE_LEN..]);
            free(code, word);
        }
        code
    }

    #[test]
    fn roundtrip() {
        for len in 1..=8 {
            let rest: Vec<u8> = (0..SLICE_LEN + len).map(|i| b'a' + i as u8).collect();
            assert_eq!(roundtrip_of(&rest), (SLICE_LEN + len) as u8, "inline");
        }
        assert_eq!(roundtrip_of(b"01234567hello suffix"), KEYLEN_SUFFIX_BLOCK);
    }

    #[test]
    fn empty_suffix() {
        // A key the slice holds whole has no suffix to store.
        assert_eq!(encode(b"01234567"), (8, 0));
        assert_eq!(encode(b""), (0, 0));
    }

    #[test]
    fn large_suffix() {
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        assert_eq!(roundtrip_of(&data), KEYLEN_SUFFIX_BLOCK);
    }

    #[test]
    fn many_blocks_do_not_alias() {
        let rests: Vec<Vec<u8>> = (0u32..64)
            .map(|i| format!("01234567-block-{i:04}").into_bytes())
            .collect();
        let pairs: Vec<(u8, u64)> = rests.iter().map(|r| encode(r)).collect();
        for (rest, (code, word)) in rests.iter().zip(&pairs) {
            assert_eq!(*code, KEYLEN_SUFFIX_BLOCK);
            // SAFETY: all blocks live.
            unsafe { assert_eq!(bytes(*code, word), &rest[SLICE_LEN..]) };
        }
        for (code, word) in pairs {
            // SAFETY: freeing each block exactly once.
            unsafe { free(code, word) };
        }
    }
}
