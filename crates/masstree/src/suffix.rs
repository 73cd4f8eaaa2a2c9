//! Variable-length key-suffix blocks (§4.2 of the paper).
//!
//! A border-node slot whose key extends past the 8-byte slice stores the
//! remainder in a heap block referenced from the node. The paper's
//! `keysuffix_t` adaptively inlines suffixes in the node; we use one
//! immutable, epoch-reclaimed block per slot. Blocks are single
//! allocations with an inline length header, so reading a suffix costs at
//! most one extra memory reference — the bound the paper's analysis
//! relies on.

use core::alloc::Layout;
use core::ptr;
use std::alloc::{alloc, dealloc, handle_alloc_error};

/// Header of a suffix block; `len` bytes of key data follow it inline.
#[repr(C)]
pub struct KeySuffix {
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

    /// Allocates a suffix block holding a copy of `bytes`.
    ///
    /// The returned pointer is freed with [`KeySuffix::free`]. The block's
    /// contents never change after this call, so concurrent readers need no
    /// synchronization beyond an acquire load of the pointer itself.
    pub fn alloc(bytes: &[u8]) -> *mut KeySuffix {
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

    /// Returns the suffix bytes.
    ///
    /// # Safety
    ///
    /// `p` must point to a live block returned by [`KeySuffix::alloc`] that
    /// has not been freed, and must remain live for `'a` (in the tree this
    /// is guaranteed by epoch reclamation while a `Guard` is held).
    #[inline]
    pub unsafe fn bytes<'a>(p: *const KeySuffix) -> &'a [u8] {
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
    pub unsafe fn free(p: *mut KeySuffix) {
        // SAFETY: caller guarantees `p` came from `alloc`, whose layout is
        // reproduced here from the stored length.
        unsafe {
            let len = (*p).len as usize;
            dealloc(p.cast::<u8>(), Self::layout(len));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let p = KeySuffix::alloc(b"hello suffix");
        // SAFETY: freshly allocated, not yet freed.
        unsafe {
            assert_eq!(KeySuffix::bytes(p), b"hello suffix");
            KeySuffix::free(p);
        }
    }

    #[test]
    fn empty_suffix() {
        let p = KeySuffix::alloc(b"");
        // SAFETY: freshly allocated, not yet freed.
        unsafe {
            assert_eq!(KeySuffix::bytes(p), b"");
            KeySuffix::free(p);
        }
    }

    #[test]
    fn large_suffix() {
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let p = KeySuffix::alloc(&data);
        // SAFETY: freshly allocated, not yet freed.
        unsafe {
            assert_eq!(KeySuffix::bytes(p), &data[..]);
            KeySuffix::free(p);
        }
    }

    #[test]
    fn many_blocks_do_not_alias() {
        let blocks: Vec<*mut KeySuffix> = (0u32..64)
            .map(|i| KeySuffix::alloc(&i.to_be_bytes()))
            .collect();
        for (i, &p) in blocks.iter().enumerate() {
            // SAFETY: all blocks live.
            unsafe {
                assert_eq!(KeySuffix::bytes(p), &(i as u32).to_be_bytes());
            }
        }
        for p in blocks {
            // SAFETY: freeing each block exactly once.
            unsafe { KeySuffix::free(p) };
        }
    }
}
