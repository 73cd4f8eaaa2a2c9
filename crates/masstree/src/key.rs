//! Key slicing for the trie of B+-trees (§4.1–4.2 of the paper).
//!
//! A Masstree is a trie with fanout 2^64: layer `h` of the trie is indexed
//! by key bytes `[8h, 8h+8)`. Each 8-byte slice is loaded as a **big-endian**
//! `u64` ("ikey") so that native integer comparison produces the same order
//! as lexicographic byte-string comparison — the paper's most valuable
//! coding trick ("IntCmp", §4.2, worth 13–19%). Short slices are padded with
//! zero bytes; the per-slot `keylen` field disambiguates keys whose padded
//! slices collide (e.g. the 8-byte key `"ABCDEFG\0"` vs the 7-byte key
//! `"ABCDEFG"`).

/// Number of key bytes consumed per trie layer.
pub const SLICE_LEN: usize = 8;

/// Per-slot key-length codes stored in a border node's `keylen` array.
///
/// * `0..=8` — the key terminates in this layer and its slice holds that
///   many significant bytes.
/// * [`KEYLEN_SUFFIX`] — the key extends past this slice; the remainder is
///   stored in the slot's suffix block.
/// * [`KEYLEN_UNSTABLE`] — a writer is converting this slot's value into a
///   next-layer link; readers must retry (§4.6.3).
/// * [`KEYLEN_LAYER`] — the slot's `lv` holds a pointer to the next trie
///   layer's root node.
pub const KEYLEN_SUFFIX: u8 = 9;
/// Slot is mid-conversion to a layer link; readers retry.
pub const KEYLEN_UNSTABLE: u8 = 254;
/// Slot's `lv` is a next-layer root pointer.
pub const KEYLEN_LAYER: u8 = 255;

/// Extracts the 8-byte slice of `key` starting at `offset` as a big-endian
/// integer, zero-padded on the right if fewer than 8 bytes remain.
#[inline]
pub fn slice_at(key: &[u8], offset: usize) -> u64 {
    // Offsets at or past the end are legal: the slice is all padding (0).
    let rest = &key[offset.min(key.len())..];
    if rest.len() >= SLICE_LEN {
        // Fast path: a full slice is present.
        u64::from_be_bytes(rest[..SLICE_LEN].try_into().unwrap())
    } else {
        let mut buf = [0u8; SLICE_LEN];
        buf[..rest.len()].copy_from_slice(rest);
        u64::from_be_bytes(buf)
    }
}

/// A cursor over a full key, tracking the current trie layer.
///
/// `ikey()` yields the current layer's slice; [`KeyCursor::advance`] moves
/// one layer (8 bytes) deeper. The cursor never outlives the borrowed key
/// bytes, so values extracted from the tree cannot dangle into it.
#[derive(Clone, Copy, Debug)]
pub struct KeyCursor<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> KeyCursor<'a> {
    /// Creates a cursor positioned at layer 0.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        KeyCursor { bytes, offset: 0 }
    }

    /// Creates a cursor positioned at an arbitrary byte offset (must be a
    /// multiple of [`SLICE_LEN`]). Used by hinted reads (`hint.rs`) to
    /// resume at the trie layer a leaf hint was captured in; offsets at
    /// or past the end of the key are legal (the slice is all padding).
    #[inline]
    pub fn with_offset(bytes: &'a [u8], offset: usize) -> Self {
        debug_assert_eq!(offset % SLICE_LEN, 0, "offset must be layer-aligned");
        KeyCursor { bytes, offset }
    }

    /// The full key this cursor walks.
    #[inline]
    pub fn full_key(&self) -> &'a [u8] {
        self.bytes
    }

    /// Current byte offset (8 × layer depth).
    #[inline]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Current trie layer (offset / 8).
    #[inline]
    pub fn layer(&self) -> usize {
        self.offset / SLICE_LEN
    }

    /// The current layer's 8-byte slice as a big-endian integer.
    #[inline]
    pub fn ikey(&self) -> u64 {
        slice_at(self.bytes, self.offset)
    }

    /// Number of key bytes remaining at the current layer.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.offset)
    }

    /// Number of significant bytes in the current slice (0..=8).
    #[inline]
    pub fn slice_len(&self) -> usize {
        self.remaining().min(SLICE_LEN)
    }

    /// True if the key extends past the current slice.
    #[inline]
    pub fn has_suffix(&self) -> bool {
        self.remaining() > SLICE_LEN
    }

    /// The bytes of the key past the current slice (empty if none).
    #[inline]
    pub fn suffix(&self) -> &'a [u8] {
        let start = (self.offset + SLICE_LEN).min(self.bytes.len());
        &self.bytes[start..]
    }

    /// The `keylen` code this key would occupy in a border node at the
    /// current layer: its slice length if it terminates here, else
    /// [`KEYLEN_SUFFIX`].
    #[inline]
    pub fn keylen_code(&self) -> u8 {
        if self.has_suffix() {
            KEYLEN_SUFFIX
        } else {
            self.slice_len() as u8
        }
    }

    /// Descends one trie layer (8 bytes deeper into the key).
    ///
    /// Every point-op descent (get, put, remove, conditional update,
    /// batch engine) crosses layers through here, so this is also the
    /// per-layer stage mark for sampled request traces: the first
    /// deeper-layer hop records `descent_deep`, separating layer-0
    /// B+-tree time from trie-recursion time in SLOWOP lines. One
    /// thread-local flag check when no span is armed.
    #[inline]
    pub fn advance(&mut self) {
        mtobs::span::mark(mtobs::Stage::DescentDeep);
        self.offset += SLICE_LEN;
    }
}

/// Collapses the keylen codes that share a slice's ">8 bytes" slot
/// ([`KEYLEN_SUFFIX`], [`KEYLEN_UNSTABLE`], [`KEYLEN_LAYER`]) onto a single
/// comparison rank so border-node search can order same-ikey slots.
///
/// Within one ikey the possible residents are the inline lengths `0..=8`
/// plus exactly one ">8" entry (a suffixed key or a layer link), so ranks
/// `0..=9` totally order them.
#[inline]
pub fn keylen_rank(code: u8) -> u8 {
    if code >= KEYLEN_SUFFIX {
        KEYLEN_SUFFIX
    } else {
        code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_at_full() {
        let k = b"ABCDEFGHIJ";
        assert_eq!(slice_at(k, 0), u64::from_be_bytes(*b"ABCDEFGH"));
        assert_eq!(slice_at(k, 8), u64::from_be_bytes(*b"IJ\0\0\0\0\0\0"));
    }

    #[test]
    fn slice_at_pads_with_zero() {
        assert_eq!(slice_at(b"A", 0), u64::from_be_bytes(*b"A\0\0\0\0\0\0\0"));
        assert_eq!(slice_at(b"", 0), 0);
        assert_eq!(slice_at(b"ABC", 8), 0);
    }

    #[test]
    fn integer_compare_matches_lexicographic() {
        // The central "IntCmp" property: byte order == integer order.
        let pairs: &[(&[u8], &[u8])] = &[
            (b"A", b"B"),
            (b"A", b"AB"),
            (b"ABCDEFG", b"ABCDEFG\0"),
            (b"\x00", b"\x01"),
            (b"", b"\x00"),
            (b"zzz", b"zzzz"),
        ];
        for (a, b) in pairs {
            assert!(a < b, "test precondition");
            let (ia, ib) = (slice_at(a, 0), slice_at(b, 0));
            // Equal slices are allowed only when keylen disambiguates.
            if ia == ib {
                assert!(a.len().min(8) < b.len().min(8));
            } else {
                assert!(ia < ib, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn cursor_walks_layers() {
        let key = b"0123456789abcdefXY";
        let mut c = KeyCursor::new(key);
        assert_eq!(c.layer(), 0);
        assert_eq!(c.slice_len(), 8);
        assert!(c.has_suffix());
        assert_eq!(c.suffix(), b"89abcdefXY");
        assert_eq!(c.keylen_code(), KEYLEN_SUFFIX);
        c.advance();
        assert_eq!(c.layer(), 1);
        assert_eq!(c.ikey(), u64::from_be_bytes(*b"89abcdef"));
        assert!(c.has_suffix());
        c.advance();
        assert_eq!(c.slice_len(), 2);
        assert!(!c.has_suffix());
        assert_eq!(c.keylen_code(), 2);
        assert_eq!(c.suffix(), b"");
    }

    #[test]
    fn cursor_exact_multiple_of_eight() {
        // A 16-byte key at layer 2 has an empty slice: keylen code 0.
        let key = b"0123456789abcdef";
        let mut c = KeyCursor::new(key);
        c.advance();
        assert_eq!(c.slice_len(), 8);
        assert_eq!(c.keylen_code(), 8);
        c.advance();
        assert_eq!(c.slice_len(), 0);
        assert_eq!(c.keylen_code(), 0);
        assert_eq!(c.ikey(), 0);
    }

    #[test]
    fn keylen_rank_groups_layer_markers() {
        assert_eq!(keylen_rank(0), 0);
        assert_eq!(keylen_rank(8), 8);
        assert_eq!(keylen_rank(KEYLEN_SUFFIX), 9);
        assert_eq!(keylen_rank(KEYLEN_LAYER), 9);
        assert_eq!(keylen_rank(KEYLEN_UNSTABLE), 9);
    }

    #[test]
    fn empty_key_is_representable() {
        let c = KeyCursor::new(b"");
        assert_eq!(c.ikey(), 0);
        assert_eq!(c.keylen_code(), 0);
        assert!(!c.has_suffix());
    }
}
