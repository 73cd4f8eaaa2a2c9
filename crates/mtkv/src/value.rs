//! Multi-column versioned values (§4.7 of the paper).
//!
//! A value is a version number plus an array of variable-length byte
//! columns, stored as the paper stores it: in **one memory block**. A
//! 16-byte header (version, column count, buffer length) is followed by
//! the buffer: `ncols × u32` column end-offsets, then the column bytes
//! back to back. The tree's leaf holds one thin pointer to the block
//! (the [`Stored`] impl below); the buffer length in the header is what
//! turns that pointer back into a `&ColValue`. A 64-byte single-column
//! value is one 88-byte block in a 96-byte allocator chunk (a separate
//! 32-byte header and data block would take 48 + 80), and a batched read
//! fetches all of it with the tree's one value prefetch.
//!
//! Values are immutable once built; a put constructs a new value,
//! copying unmodified columns from the old one, and installs it with a
//! single pointer store, so concurrent readers see all or none of a
//! multi-column modification.

use std::alloc::Layout;
use std::mem::MaybeUninit;
use std::ptr;

use masstree::prefetch::prefetch_object;
use masstree::Stored;

use crate::log::LogRecordRef;

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
    /// The 24-byte little-endian encoding.
    pub fn to_bytes(&self) -> [u8; 24] {
        let mut b = [0u8; 24];
        b[..8].copy_from_slice(&self.seg.to_le_bytes());
        b[8..16].copy_from_slice(&self.off.to_le_bytes());
        b[16..20].copy_from_slice(&self.len.to_le_bytes());
        b[20..].copy_from_slice(&self.crc.to_le_bytes());
        b
    }

    /// Serializes into `out` (24 bytes, little-endian).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
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

/// Sentinel in the `ncols` field marking a remove's **tombstone**: an
/// empty buffer that recovery's replay leaves for a remove record and
/// sweeps once replay ends. Distinct from a live value with zero columns,
/// which a put of no columns stores and recovery must keep.
const TOMBSTONE_TAG: u32 = u32::MAX - 1;

/// Bytes before the buffer: version (8), column count (4), buffer
/// length (4).
const HEADER: usize = 16;

/// How much of a block the tree's value stage prefetches
/// ([`Stored::prefetch`]): the header and a 64-byte single-column value
/// (84 bytes) whatever the block's offset within its first line.
const PREFETCH_HEAD: usize = 128;

/// A versioned, multi-column value: one block, this header followed by
/// its buffer.
///
/// Layout of `buf`: `ncols × u32` column end-offsets, then the column
/// bytes back to back. When `ncols` is [`INDIRECT_TAG`] the value is
/// *indirect*: `buf` instead holds a [`ValuePtr`] into the
/// value-separation tier; when it is [`TOMBSTONE_TAG`], `buf` is empty
/// and the value is a remove's tombstone.
///
/// `ColValue` is unsized; the constructors return `Box<ColValue>`, which
/// the tree takes as is (`Masstree<ColValue>::put`) and the value tier
/// hands to its readers.
#[repr(C)]
pub struct ColValue {
    version: u64,
    ncols: u32,
    /// Length of `buf`: what [`Stored::deref`] reads to rebuild a
    /// `&ColValue` from the leaf's thin pointer.
    len: u32,
    buf: [u8],
}

/// Writes a new block's buffer front to back (see [`ColValue::alloc`]).
struct Fill<'a> {
    buf: &'a mut [MaybeUninit<u8>],
    at: usize,
}

impl Fill<'_> {
    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.at..self.at + bytes.len()].write_copy_of_slice(bytes);
        self.at += bytes.len();
    }
}

impl ColValue {
    /// The allocation of a block whose buffer holds `len` bytes. This is
    /// `Layout::for_value` of the finished value (header plus buffer,
    /// rounded up to the header's 8-byte alignment), so `Box` frees the
    /// block with the layout it was allocated with.
    fn layout(len: usize) -> Layout {
        Layout::from_size_align(HEADER + len, align_of::<u64>())
            .expect("value block size overflows")
            .pad_to_align()
    }

    /// Allocates one block with a `len`-byte buffer and lets `fill`
    /// write every buffer byte, in order — the only allocation a value
    /// makes.
    fn alloc(version: u64, ncols: u32, len: usize, fill: impl FnOnce(&mut Fill<'_>)) -> Box<Self> {
        let len32 = u32::try_from(len).expect("value block of 4 GiB or more");
        let layout = Self::layout(len);
        // SAFETY: the layout is never zero-sized (it holds the header).
        let raw = unsafe { std::alloc::alloc(layout) };
        if raw.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        let p = ptr::slice_from_raw_parts_mut(raw, len) as *mut ColValue;
        // SAFETY: `raw` is a fresh, 8-aligned allocation of `HEADER +
        // len` bytes or more that nothing else can see: the header
        // fields are in bounds, and the buffer is `len` bytes starting
        // at `HEADER`, written only as `MaybeUninit`.
        let buf = unsafe {
            (&raw mut (*p).version).write(version);
            (&raw mut (*p).ncols).write(ncols);
            (&raw mut (*p).len).write(len32);
            std::slice::from_raw_parts_mut(raw.add(HEADER).cast::<MaybeUninit<u8>>(), len)
        };
        let mut w = Fill { buf, at: 0 };
        fill(&mut w);
        assert_eq!(w.at, len, "value block left partly unwritten");
        // SAFETY: every byte is initialised, and `p` carries the buffer
        // length as its metadata, so `Box` frees with `Self::layout(len)`.
        unsafe { Box::from_raw(p) }
    }

    /// The fat pointer to the block at `p`, its buffer length read from
    /// the header.
    ///
    /// # Safety
    ///
    /// `p` is a live block from [`ColValue::alloc`].
    unsafe fn fat(p: *mut ()) -> *mut ColValue {
        let head = ptr::slice_from_raw_parts_mut(p.cast::<u8>(), 0) as *mut ColValue;
        // SAFETY: the header is initialised and in bounds; reading a
        // field through the raw pointer makes no reference.
        let len = unsafe { (*head).len } as usize;
        ptr::slice_from_raw_parts_mut(p.cast::<u8>(), len) as *mut ColValue
    }

    /// Builds a value from complete column contents.
    pub fn new(version: u64, cols: &[&[u8]]) -> Box<ColValue> {
        ColValue::build(version, cols.len(), |i| cols[i])
    }

    /// Builds a value of `ncols` columns, column `i` being `col(i)`:
    /// the block is sized and filled straight from the source slices
    /// (`col` is evaluated more than once per column and must be pure).
    fn build<'a>(version: u64, ncols: usize, col: impl Fn(usize) -> &'a [u8]) -> Box<ColValue> {
        let data_len: usize = (0..ncols).map(|i| col(i).len()).sum();
        ColValue::alloc(version, ncols as u32, 4 * ncols + data_len, |w| {
            let mut end = 0u32;
            for i in 0..ncols {
                end += col(i).len() as u32;
                w.put(&end.to_le_bytes());
            }
            for i in 0..ncols {
                w.put(col(i));
            }
        })
    }

    /// A single-column value (the plain key-value case).
    pub fn single(version: u64, data: &[u8]) -> Box<ColValue> {
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
        lens: impl ExactSizeIterator<Item = u32> + Clone,
        data: &[u8],
    ) -> Option<Box<ColValue>> {
        let ncols = packed_cols(lens.clone(), data)?;
        Some(ColValue::alloc(
            version,
            ncols,
            4 * lens.len() + data.len(),
            |w| {
                let mut end = 0u32;
                for len in lens {
                    end += len;
                    w.put(&end.to_le_bytes());
                }
                w.put(data);
            },
        ))
    }

    /// Overwrites this block in place with what
    /// [`ColValue::from_packed`] would build, if its buffer has exactly
    /// the length that needs. A session's cold reads rewrite the blocks
    /// its last cold read left behind this way, which takes the
    /// allocator out of the cold-read loop. False, leaving the block
    /// unchanged, when the lengths do not cover `data` or the sizes
    /// differ.
    pub(crate) fn refill_packed(
        &mut self,
        version: u64,
        lens: impl ExactSizeIterator<Item = u32> + Clone,
        data: &[u8],
    ) -> bool {
        let Some(ncols) = packed_cols(lens.clone(), data) else {
            return false;
        };
        let offsets = 4 * lens.len();
        if offsets + data.len() != self.buf.len() {
            return false;
        }
        self.version = version;
        self.ncols = ncols;
        let (ends, bytes) = self.buf.split_at_mut(offsets);
        let mut end = 0u32;
        for (slot, len) in ends.chunks_exact_mut(4).zip(lens) {
            end += len;
            slot.copy_from_slice(&end.to_le_bytes());
        }
        bytes.copy_from_slice(data);
        true
    }

    /// Copy-on-write update: returns a new value with `updates` applied
    /// (extending the column array if an update targets a column past the
    /// current end) and the remaining columns copied from `self`.
    pub fn with_updates(&self, version: u64, updates: &[(usize, &[u8])]) -> Box<ColValue> {
        let ncols = self.ncols().max(updated_cols(updates));
        ColValue::build(version, ncols, |i| {
            updated(updates, i).unwrap_or_else(|| self.col(i).unwrap_or(&[]))
        })
    }

    /// Builds a fresh value from updates alone (no previous value).
    pub fn from_updates(version: u64, updates: &[(usize, &[u8])]) -> Box<ColValue> {
        ColValue::build(version, updated_cols(updates), |i| {
            updated(updates, i).unwrap_or(&[])
        })
    }

    /// The value a replayed log record leaves behind, built in one block
    /// straight from the record's borrowed bytes: an inline put's columns
    /// (read as [`ColValue::from_updates`] reads its updates), an indirect
    /// put's pointer, or — for a remove, and only there — the tombstone
    /// ([`ColValue::is_tombstone`]) recovery sweeps once replay ends.
    pub fn from_record(rec: &LogRecordRef<'_>) -> Box<ColValue> {
        if let Some(ptr) = rec.ptr() {
            return ColValue::indirect(rec.version(), ptr);
        }
        if rec.is_remove() {
            return ColValue::alloc(rec.version(), TOMBSTONE_TAG, 0, |_| {});
        }
        let cols = || rec.cols().map(|(i, d)| (usize::from(i), d));
        let ncols = cols().map(|(i, _)| i + 1).max().unwrap_or(0);
        ColValue::build(rec.version(), ncols, |i| {
            let last = cols().filter(|&(j, _)| j == i).last();
            last.map_or(&[], |(_, d)| d)
        })
    }

    /// An indirect value: a fixed-size pointer record into the value
    /// tier in place of the column bytes. `col`/`cols` report no
    /// columns; callers resolve through [`crate::vtier::ValueTier`].
    pub fn indirect(version: u64, ptr: ValuePtr) -> Box<ColValue> {
        let rec = ptr.to_bytes();
        ColValue::alloc(version, INDIRECT_TAG, rec.len(), |w| w.put(&rec))
    }

    /// True when this value is a pointer record (see [`ColValue::ptr`]).
    #[inline]
    pub fn is_indirect(&self) -> bool {
        self.ncols == INDIRECT_TAG
    }

    /// True when this value is a remove's tombstone (see
    /// [`ColValue::from_record`]); it reports no columns.
    #[inline]
    pub fn is_tombstone(&self) -> bool {
        self.ncols == TOMBSTONE_TAG
    }

    /// The value-tier pointer of an indirect value (`None` for inline).
    pub fn ptr(&self) -> Option<ValuePtr> {
        if !self.is_indirect() {
            return None;
        }
        let mut p: &[u8] = &self.buf;
        ValuePtr::decode(&mut p)
    }

    /// Prefetches the lines of the block past the ones the tree's value
    /// stage already asked for ([`Stored::prefetch`] covers the first
    /// 128 bytes): nothing for a value of 64 bytes or less.
    #[inline]
    pub fn prefetch_rest(&self) {
        let size = size_of_val(self);
        if size > PREFETCH_HEAD {
            let head = (self as *const ColValue).cast::<u8>();
            prefetch_object(head.wrapping_add(PREFETCH_HEAD), size - PREFETCH_HEAD);
        }
    }

    /// The value's version number (used by log replay ordering, §5).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of columns (0 for an unresolved indirect value and for a
    /// tombstone).
    #[inline]
    pub fn ncols(&self) -> usize {
        match self.ncols {
            INDIRECT_TAG | TOMBSTONE_TAG => 0,
            n => n as usize,
        }
    }

    /// Total column-data bytes (for an indirect value, the payload
    /// length the pointer names). Drives the separation threshold.
    pub fn data_bytes(&self) -> usize {
        if self.is_indirect() {
            self.ptr().map(|p| p.len as usize).unwrap_or(0)
        } else {
            self.buf.len() - 4 * self.ncols()
        }
    }

    /// Length of the buffer behind the header (column offsets plus
    /// column bytes, or the pointer record).
    #[inline]
    pub(crate) fn buf_len(&self) -> usize {
        self.buf.len()
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
        let data_base = 4 * self.ncols();
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

    /// Bytes the block occupies: header plus buffer, as allocated.
    pub fn heap_bytes(&self) -> usize {
        size_of_val(self)
    }
}

// SAFETY: `into_raw` hands over a block from `ColValue::alloc` (non-null,
// 8-aligned, never written again); `deref` and `drop_raw` rebuild the
// same fat pointer from the header's `len`, and `Box` frees it with
// `Layout::for_value`, which is the `ColValue::layout` it was allocated
// with. A value is plain bytes, so it is `Send + Sync`.
unsafe impl Stored for ColValue {
    type Owned = Box<ColValue>;

    #[inline]
    fn into_raw(v: Box<ColValue>) -> *mut () {
        Box::into_raw(v).cast::<()>()
    }

    #[inline]
    unsafe fn deref<'a>(p: *const ()) -> &'a ColValue {
        // SAFETY: per the caller contract, `p` is a live block.
        unsafe { &*ColValue::fat(p.cast_mut()) }
    }

    unsafe fn drop_raw(p: *mut ()) {
        // SAFETY: per the caller contract, `p` is a live block nothing
        // reads again.
        drop(unsafe { Box::from_raw(ColValue::fat(p)) });
    }

    #[inline]
    fn prefetch(p: *const ()) {
        prefetch_object(p.cast::<u8>(), PREFETCH_HEAD);
    }
}

impl ToOwned for ColValue {
    type Owned = Box<ColValue>;

    fn to_owned(&self) -> Box<ColValue> {
        ColValue::alloc(self.version, self.ncols, self.buf.len(), |w| {
            w.put(&self.buf)
        })
    }
}

impl Clone for Box<ColValue> {
    fn clone(&self) -> Self {
        (**self).to_owned()
    }
}

impl PartialEq for ColValue {
    fn eq(&self, other: &Self) -> bool {
        self.version == other.version && self.ncols == other.ncols && self.buf == other.buf
    }
}

impl Eq for ColValue {}

impl std::fmt::Debug for ColValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColValue")
            .field("version", &self.version)
            .field("ncols", &self.ncols)
            .field("buf", &&self.buf)
            .finish()
    }
}

/// The column count of a packed payload, if `lens` covers `data`
/// exactly.
fn packed_cols(lens: impl Iterator<Item = u32>, data: &[u8]) -> Option<u32> {
    let (mut n, mut total) = (0u32, 0u64);
    for len in lens {
        n += 1;
        total += u64::from(len);
    }
    (total == data.len() as u64).then_some(n)
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
        let mut enc = Vec::new();
        p.encode(&mut enc);
        assert_eq!(ValuePtr::decode(&mut &enc[..]), Some(p));
    }

    #[test]
    fn from_record_reads_columns_as_from_updates_does() {
        use crate::log::LogRecord;
        // A gap (column 1) and a column named twice.
        let updates: [(usize, &[u8]); 3] = [(2, b"two"), (0, b"zero"), (2, b"last")];
        let cols = updates
            .iter()
            .map(|&(i, d)| (i as u16, d.to_vec()))
            .collect();
        let (timestamp, version, key) = (1, 7, b"k".to_vec());
        let mut buf = Vec::new();
        LogRecord::Put {
            timestamp,
            version,
            key,
            cols,
        }
        .encode(&mut buf);
        let (rec, _) = LogRecord::decode_ref(&buf).unwrap();
        let want = ColValue::from_updates(version, &updates);
        assert_eq!(ColValue::from_record(&rec), want);
        // A remove record builds a tombstone.
        buf.clear();
        let key = b"k".to_vec();
        LogRecord::Remove {
            timestamp,
            version,
            key,
        }
        .encode(&mut buf);
        let gone = ColValue::from_record(&LogRecord::decode_ref(&buf).unwrap().0);
        assert!(gone.is_tombstone());
        assert_eq!((gone.ncols(), gone.data_bytes(), gone.buf_len()), (0, 0, 0));
        check_block(&gone);
    }

    #[test]
    fn last_update_wins_within_one_put() {
        let v = ColValue::from_updates(1, &[(0, b"first"), (0, b"second")]);
        assert_eq!(v.col(0), Some(&b"second"[..]));
    }

    /// Checks one built value against the columns it should hold: every
    /// accessor, the block's size and alignment, the thin-pointer round
    /// trip the tree makes, and `Clone` / `Eq`.
    fn check(v: &ColValue, version: u64, model: &[Vec<u8>]) {
        assert_eq!(v.version(), version);
        assert!(!v.is_indirect());
        assert_eq!(v.ptr(), None);
        assert_eq!(v.ncols(), model.len());
        for (i, col) in model.iter().enumerate() {
            assert_eq!(v.col(i), Some(&col[..]), "column {i}");
        }
        assert_eq!(v.col(model.len()), None);
        assert_eq!(v.cols(), model);
        let data: usize = model.iter().map(Vec::len).sum();
        assert_eq!(v.data_bytes(), data);
        assert_eq!(v.buf_len(), 4 * model.len() + data);
        check_block(v);
    }

    fn check_block(v: &ColValue) {
        let size = size_of_val(v);
        assert_eq!(size, ColValue::layout(v.buf_len()).size());
        assert_eq!(Layout::for_value(v), ColValue::layout(v.buf_len()));
        assert_eq!(v.heap_bytes(), size);
        assert_eq!(size % 8, 0);
        assert!(size >= HEADER + v.buf_len() && size < HEADER + v.buf_len() + 8);
        assert_eq!(
            (v as *const ColValue).cast::<u8>() as usize % 8,
            0,
            "8-aligned"
        );
        let copy = v.to_owned();
        assert_eq!(*copy, *v);
        let thin = <ColValue as Stored>::into_raw(copy);
        // SAFETY: `thin` is a live block from `into_raw`, dropped once.
        unsafe {
            assert_eq!(<ColValue as Stored>::deref(thin), v);
            assert_eq!(size_of_val(<ColValue as Stored>::deref(thin)), size);
            <ColValue as Stored>::drop_raw(thin);
        }
    }

    #[test]
    fn every_constructor_builds_one_exact_block() {
        let lens = [0usize, 1, 7, 8, 63, 64, 1000, 1024, 1025, 3000];
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for ncols in 0..=8usize {
            for round in 0..6 {
                let model: Vec<Vec<u8>> = (0..ncols)
                    .map(|_| {
                        let len = lens[next() as usize % lens.len()];
                        (0..len).map(|_| next() as u8).collect()
                    })
                    .collect();
                let refs: Vec<&[u8]> = model.iter().map(Vec::as_slice).collect();
                let version = next();

                let v = ColValue::new(version, &refs);
                check(&v, version, &model);
                if ncols == 1 {
                    check(&ColValue::single(version, refs[0]), version, &model);
                }

                let packed: Vec<u8> = model.concat();
                let plens = model.iter().map(|c| c.len() as u32);
                let p = ColValue::from_packed(version, plens.clone(), &packed).unwrap();
                check(&p, version, &model);
                assert!(
                    ColValue::from_packed(version, plens, &[&packed[..], b"x"].concat()).is_none()
                );

                let updates: Vec<(usize, &[u8])> = refs.iter().copied().enumerate().collect();
                check(&ColValue::from_updates(version, &updates), version, &model);

                // Rewrite a column (or add one) over a copy of the model.
                let new_col = vec![round as u8; lens[round]];
                let at = (next() as usize) % (ncols + 1);
                let mut after = model.clone();
                if at == ncols {
                    after.push(new_col.clone());
                } else {
                    after[at] = new_col.clone();
                }
                check(
                    &v.with_updates(version + 1, &[(at, &new_col)]),
                    version + 1,
                    &after,
                );

                let c = v.clone();
                assert_eq!(c, v);
                assert_ne!(c.with_updates(version, &[(ncols, b"z")]), v);
                assert_ne!(*ColValue::new(version.wrapping_add(1), &refs), *v);
            }
        }
        for seg in [0u64, 1, u64::MAX] {
            let ptr = ValuePtr {
                seg,
                off: seg ^ 0x1234,
                len: 1500,
                crc: 7,
            };
            let v = ColValue::indirect(3, ptr);
            assert_eq!((v.ptr(), v.ncols(), v.data_bytes()), (Some(ptr), 0, 1500));
            assert_eq!(v.buf_len(), 24);
            check_block(&v);
            assert_eq!(v.clone(), v);
        }
    }

    #[test]
    fn refill_rewrites_a_block_of_the_same_length_only() {
        let mut v = ColValue::from_packed(1, [1u32, 2, 5].into_iter(), b"abcdefgh").unwrap();
        let lens = [4u32, 0, 4];
        assert!(v.refill_packed(9, lens.into_iter(), b"wxyz1234"));
        check(&v, 9, &[b"wxyz".to_vec(), Vec::new(), b"1234".to_vec()]);
        // A different buffer length or lengths that miss the data leave
        // the block as it was.
        assert!(!v.refill_packed(10, [8u32].into_iter(), b"12345678"));
        assert!(!v.refill_packed(10, [4u32, 0, 3].into_iter(), b"wxyz1234"));
        check(&v, 9, &[b"wxyz".to_vec(), Vec::new(), b"1234".to_vec()]);
    }

    #[test]
    fn a_64_byte_value_is_one_88_byte_block() {
        let v = ColValue::single(1, &[0u8; 64]);
        assert_eq!(size_of_val(&*v), 88);
    }
}
