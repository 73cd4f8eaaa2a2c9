//! Multi-column versioned values (§4.7 of the paper).
//!
//! A value is a version number plus an array of variable-length byte
//! columns. The paper stores both in one memory block; here a value is
//! **two allocations**: a fixed 32-byte [`ColValue`] header (version,
//! column count, data-block pointer and length), boxed in the tree's
//! leaf, and one data block holding the column offsets and bytes back
//! to back. A read therefore touches the header and then the data
//! block; batched reads prefetch both ([`ColValue::prefetch_data`]).
//! Values are immutable once built; a put constructs a new value,
//! copying unmodified columns from the old one, and installs it with a
//! single pointer store, so concurrent readers see all or none of a
//! multi-column modification.

/// A fixed-size pointer into the value-separation tier (`vtier`): the
/// leaf keeps this 24-byte record instead of the column bytes for
/// values past the separation threshold (WiscKey-style key/value
/// separation). `crc` covers the payload at `vseg-<seg>[off .. off+len]`
/// so every resolution is integrity-checked before any byte is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ValuePtr {
    /// Value-segment id (`vseg-<seg>` in the store's log directory).
    pub seg: u64,
    /// Byte offset of the payload within the segment.
    pub off: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC32 of the payload bytes.
    pub crc: u32,
}

impl ValuePtr {
    /// Serializes into `out` (24 bytes, little-endian).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seg.to_le_bytes());
        out.extend_from_slice(&self.off.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.crc.to_le_bytes());
    }

    /// Deserializes from the front of `p`, advancing it 24 bytes.
    pub fn decode(p: &mut &[u8]) -> Option<ValuePtr> {
        let seg = u64::from_le_bytes(p.get(..8)?.try_into().ok()?);
        *p = &p[8..];
        let off = u64::from_le_bytes(p.get(..8)?.try_into().ok()?);
        *p = &p[8..];
        let len = u32::from_le_bytes(p.get(..4)?.try_into().ok()?);
        *p = &p[4..];
        let crc = u32::from_le_bytes(p.get(..4)?.try_into().ok()?);
        *p = &p[4..];
        Some(ValuePtr { seg, off, len, crc })
    }
}

/// Sentinel in the `ncols` field marking an **indirect** value: `buf`
/// holds an encoded [`ValuePtr`] instead of column data. Indirect
/// values never reach user callbacks — the session resolves them
/// through the value tier first — so `col`/`cols` on one safely report
/// "no columns" rather than misreading the pointer bytes as offsets.
const INDIRECT_TAG: u32 = u32::MAX;

/// A versioned, multi-column value: this header plus its data block.
///
/// Layout of `buf` (the data block): `ncols × u32` column end-offsets,
/// then the column bytes back to back. The header itself is a separate
/// heap object, boxed inside the tree's leaf.
///
/// When `ncols` is [`INDIRECT_TAG`] the value is *indirect*: `buf`
/// instead holds a [`ValuePtr`] into the value-separation tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColValue {
    version: u64,
    ncols: u32,
    buf: Box<[u8]>,
}

impl ColValue {
    /// Builds a value from complete column contents.
    pub fn new(version: u64, cols: &[&[u8]]) -> ColValue {
        ColValue::build(version, cols.len(), |i| cols[i])
    }

    /// Builds a value of `ncols` columns, column `i` being `col(i)`:
    /// the block is sized and filled straight from the source slices,
    /// so the only allocation is the value's own storage (`col` is
    /// evaluated more than once per column and must be pure).
    fn build<'a>(version: u64, ncols: usize, col: impl Fn(usize) -> &'a [u8]) -> ColValue {
        let data_len: usize = (0..ncols).map(|i| col(i).len()).sum();
        let mut buf = Vec::with_capacity(4 * ncols + data_len);
        let mut end = 0u32;
        for i in 0..ncols {
            end += col(i).len() as u32;
            buf.extend_from_slice(&end.to_le_bytes());
        }
        for i in 0..ncols {
            buf.extend_from_slice(col(i));
        }
        ColValue {
            version,
            ncols: ncols as u32,
            buf: buf.into_boxed_slice(),
        }
    }

    /// A single-column value (the plain key-value case).
    pub fn single(version: u64, data: &[u8]) -> ColValue {
        ColValue::new(version, &[data])
    }

    /// Builds a value from column bytes packed back to back in `data`,
    /// described by per-column lengths — the shape of a value-tier
    /// payload. One allocation and one copy of `data`, versus the
    /// slice-vector detour of decode-then-[`ColValue::new`]; this sits
    /// on the cold-tier cache-miss path. `None` when the lengths do
    /// not cover `data` exactly.
    pub fn from_packed(
        version: u64,
        lens: impl ExactSizeIterator<Item = u32>,
        data: &[u8],
    ) -> Option<ColValue> {
        let ncols = lens.len();
        let mut buf = Vec::with_capacity(4 * ncols + data.len());
        let mut end = 0u64;
        for len in lens {
            end += u64::from(len);
            if end > data.len() as u64 {
                return None;
            }
            buf.extend_from_slice(&(end as u32).to_le_bytes());
        }
        if end != data.len() as u64 {
            return None;
        }
        buf.extend_from_slice(data);
        Some(ColValue {
            version,
            ncols: ncols as u32,
            buf: buf.into_boxed_slice(),
        })
    }

    /// [`ColValue::from_packed`], reusing `spare` as the backing block
    /// when its length matches exactly (a `Box<[u8]>` has no spare
    /// capacity, so only an exact fit avoids reallocation). Recycling
    /// evicted cache blocks this way takes the allocator out of the
    /// cold-read fill loop.
    pub(crate) fn from_packed_reusing(
        version: u64,
        lens: impl ExactSizeIterator<Item = u32>,
        data: &[u8],
        spare: Option<Box<[u8]>>,
    ) -> Option<ColValue> {
        let ncols = lens.len();
        let need = 4 * ncols + data.len();
        let Some(mut buf) = spare.filter(|b| b.len() == need) else {
            return ColValue::from_packed(version, lens, data);
        };
        let mut end = 0u64;
        for (i, len) in lens.enumerate() {
            end += u64::from(len);
            if end > data.len() as u64 {
                return None;
            }
            buf[4 * i..4 * i + 4].copy_from_slice(&(end as u32).to_le_bytes());
        }
        if end != data.len() as u64 {
            return None;
        }
        buf[4 * ncols..].copy_from_slice(data);
        Some(ColValue {
            version,
            ncols: ncols as u32,
            buf,
        })
    }

    /// Surrenders the backing block (for recycling through the value
    /// cache's buffer pool).
    pub(crate) fn into_buf(self) -> Box<[u8]> {
        self.buf
    }

    /// Copy-on-write update: returns a new value with `updates` applied
    /// (extending the column array if an update targets a column past the
    /// current end) and the remaining columns copied from `self`.
    pub fn with_updates(&self, version: u64, updates: &[(usize, &[u8])]) -> ColValue {
        let ncols = self.ncols().max(updated_cols(updates));
        ColValue::build(version, ncols, |i| {
            updated(updates, i).unwrap_or_else(|| self.col(i).unwrap_or(&[]))
        })
    }

    /// Builds a fresh value from updates alone (no previous value).
    pub fn from_updates(version: u64, updates: &[(usize, &[u8])]) -> ColValue {
        ColValue::build(version, updated_cols(updates), |i| {
            updated(updates, i).unwrap_or(&[])
        })
    }

    /// An indirect value: a fixed-size pointer record into the value
    /// tier in place of the column bytes. `col`/`cols` report no
    /// columns; callers resolve through [`crate::vtier::ValueTier`].
    pub fn indirect(version: u64, ptr: ValuePtr) -> ColValue {
        let mut buf = Vec::with_capacity(24);
        ptr.encode(&mut buf);
        ColValue {
            version,
            ncols: INDIRECT_TAG,
            buf: buf.into_boxed_slice(),
        }
    }

    /// True when this value is a pointer record (see [`ColValue::ptr`]).
    #[inline]
    pub fn is_indirect(&self) -> bool {
        self.ncols == INDIRECT_TAG
    }

    /// The value-tier pointer of an indirect value (`None` for inline).
    pub fn ptr(&self) -> Option<ValuePtr> {
        if !self.is_indirect() {
            return None;
        }
        let mut p: &[u8] = &self.buf;
        ValuePtr::decode(&mut p)
    }

    /// Prefetches every cache line of the data block (column offsets
    /// and bytes, or an indirect value's pointer record): the second
    /// allocation a read of this value touches, after the header.
    #[inline]
    pub fn prefetch_data(&self) {
        masstree::prefetch::prefetch_object(self.buf.as_ptr(), self.buf.len());
    }

    /// The value's version number (used by log replay ordering, §5).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of columns (0 for an unresolved indirect value).
    #[inline]
    pub fn ncols(&self) -> usize {
        if self.is_indirect() {
            0
        } else {
            self.ncols as usize
        }
    }

    /// Total column-data bytes (for an indirect value, the payload
    /// length the pointer names). Drives the separation threshold.
    pub fn data_bytes(&self) -> usize {
        if self.is_indirect() {
            self.ptr().map(|p| p.len as usize).unwrap_or(0)
        } else {
            self.buf.len() - 4 * self.ncols as usize
        }
    }

    #[inline]
    fn col_end(&self, i: usize) -> usize {
        let off = 4 * i;
        u32::from_le_bytes(self.buf[off..off + 4].try_into().unwrap()) as usize
    }

    /// Column `i`'s bytes, or `None` if out of range.
    pub fn col(&self, i: usize) -> Option<&[u8]> {
        if i >= self.ncols() {
            return None;
        }
        let data_base = 4 * self.ncols as usize;
        let start = if i == 0 { 0 } else { self.col_end(i - 1) };
        let end = self.col_end(i);
        Some(&self.buf[data_base + start..data_base + end])
    }

    /// All columns, copied out.
    pub fn cols(&self) -> Vec<Vec<u8>> {
        (0..self.ncols())
            .map(|i| self.col(i).unwrap().to_vec())
            .collect()
    }

    /// Approximate heap footprint (for checkpoint sizing).
    pub fn heap_bytes(&self) -> usize {
        self.buf.len() + size_of::<ColValue>()
    }
}

/// Column count a set of updates implies (one past the highest id).
fn updated_cols(updates: &[(usize, &[u8])]) -> usize {
    updates.iter().map(|(i, _)| i + 1).max().unwrap_or(0)
}

/// Column `i`'s new bytes, if `updates` touches it (the last update to
/// a column wins within one put).
fn updated<'a>(updates: &[(usize, &'a [u8])], i: usize) -> Option<&'a [u8]> {
    updates.iter().rev().find(|(j, _)| *j == i).map(|(_, d)| *d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_column_roundtrip() {
        let v = ColValue::single(7, b"hello");
        assert_eq!(v.version(), 7);
        assert_eq!(v.ncols(), 1);
        assert_eq!(v.col(0), Some(&b"hello"[..]));
        assert_eq!(v.col(1), None);
    }

    #[test]
    fn multi_column_roundtrip() {
        let v = ColValue::new(1, &[b"aa", b"", b"cccc"]);
        assert_eq!(v.ncols(), 3);
        assert_eq!(v.col(0), Some(&b"aa"[..]));
        assert_eq!(v.col(1), Some(&b""[..]));
        assert_eq!(v.col(2), Some(&b"cccc"[..]));
    }

    #[test]
    fn with_updates_copies_unmodified() {
        let v = ColValue::new(1, &[b"a", b"b", b"c"]);
        let v2 = v.with_updates(2, &[(1, b"NEW")]);
        assert_eq!(v2.version(), 2);
        assert_eq!(v2.col(0), Some(&b"a"[..]));
        assert_eq!(v2.col(1), Some(&b"NEW"[..]));
        assert_eq!(v2.col(2), Some(&b"c"[..]));
        // Original untouched (copy-on-write).
        assert_eq!(v.col(1), Some(&b"b"[..]));
    }

    #[test]
    fn with_updates_extends_columns() {
        let v = ColValue::single(1, b"x");
        let v2 = v.with_updates(2, &[(3, b"far")]);
        assert_eq!(v2.ncols(), 4);
        assert_eq!(v2.col(0), Some(&b"x"[..]));
        assert_eq!(v2.col(1), Some(&b""[..]));
        assert_eq!(v2.col(3), Some(&b"far"[..]));
    }

    #[test]
    fn from_updates_fills_gaps() {
        let v = ColValue::from_updates(5, &[(2, b"two"), (0, b"zero")]);
        assert_eq!(v.ncols(), 3);
        assert_eq!(v.col(0), Some(&b"zero"[..]));
        assert_eq!(v.col(1), Some(&b""[..]));
        assert_eq!(v.col(2), Some(&b"two"[..]));
    }

    #[test]
    fn indirect_value_roundtrips_pointer() {
        let p = ValuePtr {
            seg: 3,
            off: 4096,
            len: 512,
            crc: 0xdead_beef,
        };
        let v = ColValue::indirect(9, p);
        assert!(v.is_indirect());
        assert_eq!(v.version(), 9);
        assert_eq!(v.ptr(), Some(p));
        assert_eq!(v.ncols(), 0);
        assert_eq!(v.col(0), None);
        assert!(v.cols().is_empty());
        assert_eq!(v.data_bytes(), 512);
        let inline = ColValue::single(1, b"xy");
        assert!(!inline.is_indirect());
        assert_eq!(inline.ptr(), None);
        assert_eq!(inline.data_bytes(), 2);
    }

    #[test]
    fn last_update_wins_within_one_put() {
        let v = ColValue::from_updates(1, &[(0, b"first"), (0, b"second")]);
        assert_eq!(v.col(0), Some(&b"second"[..]));
    }
}
