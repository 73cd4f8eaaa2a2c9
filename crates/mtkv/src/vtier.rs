//! The value-separation tier: append-only **value segments** for
//! values past the separation threshold (WiscKey-style key/value
//! separation grafted onto Masstree).
//!
//! The tree leaf keeps a fixed-size [`ValuePtr`] record; the column
//! bytes live in `vseg-<seg>` files in the store's log directory,
//! reusing the segmented-log discipline: append-only writes, rotation
//! at a size threshold, fsync-before-ack ordering (the tier is forced
//! **before** the write-ahead log on every durability path, so a
//! durable pointer record always names durable payload bytes), and
//! evidence-based reclamation (a segment is deleted only once a
//! durable checkpoint provably supersedes every pointer into it — see
//! `Store::run_durability_cycle`).
//!
//! Payload encoding: `ncols u16 | ncols × (len u32) | column bytes`.
//! The pointer carries the payload length and CRC32, so the segment
//! files need no framing of their own and every read is
//! integrity-checked end to end: a torn tail, a hole, or a flipped bit
//! yields a typed [`ValueError`], never wrong bytes.
//!
//! Reads keep no copy of their own: every read CRC-checks its payload
//! and decodes it straight out of a shared `mmap` of the segment into
//! a block the caller owns. The page cache is the only value cache —
//! a hot value is held once, in the segment pages the kernel keeps
//! resident, never again as a decoded copy on the heap. So a cold read
//! costs memory latency, not I/O, and a batch
//! ([`ValueTier::resolve_many`]) pays it once: it prefetches every
//! payload's cache lines first, then verifies each in request order.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use masstree::prefetch::prefetch_object;
use parking_lot::Mutex;

use crate::crc32::crc32;
use crate::value::{ColValue, ValuePtr};

/// Default rotation threshold for value segments.
pub const DEFAULT_VALUE_SEGMENT_BYTES: u64 = 64 << 20;

/// How far [`ValueTier::resolve_many`]'s prefetch runs ahead of its
/// verification, in payload bytes: well inside L2, so a batch of large
/// payloads never evicts its own lines before it checks them, while a
/// 16-row scan chunk of 1 KiB values or a point get is prefetched whole.
const PREFETCH_AHEAD_BYTES: usize = 64 << 10;

/// Why an indirect value could not be served. Every variant means the
/// bytes were **refused**, never silently wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueError {
    /// The segment file is missing, or the pointer reaches past its
    /// end — the classic crash shape "pointer durable, payload fsync
    /// lost", which by the tier-before-log force ordering can only
    /// happen to writes that were never acked.
    TornOrMissing,
    /// The payload bytes are present and checksum-clean but their
    /// column framing is inconsistent with the pointer's length.
    BadLength,
    /// The payload bytes disagree with the pointer's CRC32.
    ChecksumMismatch,
    /// The segment file could not be read (I/O error).
    Io,
}

impl std::fmt::Display for ValueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValueError::TornOrMissing => write!(f, "value segment torn or missing"),
            ValueError::BadLength => write!(f, "value payload length inconsistent"),
            ValueError::ChecksumMismatch => write!(f, "value payload checksum mismatch"),
            ValueError::Io => write!(f, "value segment read error"),
        }
    }
}

impl std::error::Error for ValueError {}

/// The on-disk path of value segment `seg` under `dir`. The `vseg-`
/// prefix keeps these files invisible to `recovery::log_files` (log
/// logic never touches them) while sharing the directory.
pub fn vseg_path(dir: &Path, seg: u64) -> PathBuf {
    dir.join(format!("vseg-{seg}"))
}

/// Makes a newly created segment's name durable.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Value-segment ids present in `dir`, ascending.
pub fn vseg_ids(dir: &Path) -> Vec<u64> {
    let mut ids = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Some(rest) = e.file_name().to_str().and_then(|n| n.strip_prefix("vseg-")) {
                if let Ok(id) = rest.parse::<u64>() {
                    ids.push(id);
                }
            }
        }
    }
    ids.sort_unstable();
    ids
}

/// Encodes a payload (`ncols u16 | ncols × len u32 | bytes`) from
/// column slices.
pub fn encode_payload(cols: &[&[u8]], out: &mut Vec<u8>) {
    out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
    for c in cols {
        out.extend_from_slice(&(c.len() as u32).to_le_bytes());
    }
    for c in cols {
        out.extend_from_slice(c);
    }
}

/// Decodes a payload (`ncols u16 | ncols × len u32 | bytes`) into a
/// [`ColValue`]: the column bytes are copied once from the segment
/// bytes into the value's single block, with no intermediate slice
/// vector. A `spare` block of the same size is rewritten in place
/// ([`ColValue::refill_packed`]), so a read that finds one allocates
/// nothing. `None` when the framing is inconsistent with the buffer
/// length (surfaced as [`ValueError::BadLength`]).
fn decode_payload_value(
    buf: &[u8],
    version: u64,
    spare: Option<Box<ColValue>>,
) -> Option<Box<ColValue>> {
    let ncols = u16::from_le_bytes(buf.get(..2)?.try_into().ok()?) as usize;
    let lens = buf
        .get(2..2 + 4 * ncols)?
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()));
    let data = &buf[2 + 4 * ncols..];
    if let Some(mut v) = spare {
        if v.refill_packed(version, lens.clone(), data) {
            return Some(v);
        }
    }
    ColValue::from_packed(version, lens, data)
}

/// Per-segment payload byte accounting, driving GC candidate selection
/// and the `live_segment_bytes` stat.
#[derive(Debug, Default, Clone, Copy)]
struct SegAccount {
    /// Total payload bytes ever appended to the segment.
    total: u64,
    /// Bytes whose pointer record has been superseded (replaced,
    /// removed, or relocated by GC).
    dead: u64,
}

/// The active segment's appender.
struct Appender {
    file: File,
    seg: u64,
    /// Bytes written to the active segment (page cache; ≥ durable).
    written: u64,
    /// Bytes of the active segment known durable (post-fsync).
    durable: u64,
}

/// A read-only shared mapping of one value-segment file, made by the
/// reader on the segment's first mapped read and shared with the
/// sessions' mapping tables ([`ResolveScratch`]). Serving payloads from
/// the page cache through a mapping removes the `pread` syscall and its
/// kernel copy from every read — payloads are prefetched, CRC-checked
/// and decoded straight out of the mapped bytes.
///
/// Safety invariant: accesses are bounds-checked against `len`, the
/// file's size when the mapping was made. Segment files only ever grow
/// (append-only, never truncated), so a mapped byte can never be
/// beyond end-of-file — the SIGBUS case is structurally unreachable.
/// Reads past `len` (a pointer into bytes appended after mapping) fall
/// back to `pread`, or remap at the new length.
struct SegMap {
    ptr: *const u8,
    len: usize,
}

// The mapping is immutable shared memory; the raw pointer is only a
// lifetime-erased &[u8].
unsafe impl Send for SegMap {}
unsafe impl Sync for SegMap {}

mod sys_mmap {
    // Bound by hand (the workspace carries no libc crate): these two
    // symbols come from the C library every binary already links.
    extern "C" {
        pub fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        pub fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }
    pub const PROT_READ: i32 = 1;
    pub const MAP_SHARED: i32 = 1;
}

impl SegMap {
    fn new(file: &File, len: usize) -> Option<SegMap> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return None;
        }
        let ptr = unsafe {
            sys_mmap::mmap(
                std::ptr::null_mut(),
                len,
                sys_mmap::PROT_READ,
                sys_mmap::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return None;
        }
        Some(SegMap {
            ptr: ptr as *const u8,
            len,
        })
    }

    fn bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for SegMap {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `len` are the mapping `mmap` returned, and
        // `bytes()` borrows end with `self`: nothing reads it after this.
        unsafe {
            sys_mmap::munmap(self.ptr as *mut core::ffi::c_void, self.len);
        }
    }
}

/// One cached open segment: the file handle plus its lazily-established
/// mapping (grown by remapping when reads reach appended bytes).
struct SegHandle {
    file: Arc<File>,
    map: Option<Arc<SegMap>>,
}

/// A standalone value-segment reader with a per-segment handle table —
/// used by recovery (before a store exists) and embedded in
/// [`ValueTier`] for the read path.
pub struct SegReader {
    dir: PathBuf,
    handles: Mutex<HashMap<u64, SegHandle>>,
    /// Bumped whenever a cached handle is dropped ([`SegReader::forget`]:
    /// GC deleted the segment). Externally held mappings
    /// ([`ResolveScratch`]) compare against this, so a session never
    /// serves bytes from its mapping of a deleted segment.
    gen: AtomicU64,
}

impl SegReader {
    pub fn new(dir: &Path) -> SegReader {
        SegReader {
            dir: dir.to_path_buf(),
            handles: Mutex::new(HashMap::new()),
            gen: AtomicU64::new(0),
        }
    }

    /// Invalidation generation for externally cached mappings: any
    /// `Arc<SegMap>` obtained under an older generation may map a
    /// deleted segment file and must be dropped.
    fn generation(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    /// `seg`'s entry in the locked handle table, opening the file on
    /// first use.
    fn open_in<'a>(
        &self,
        handles: &'a mut HashMap<u64, SegHandle>,
        seg: u64,
    ) -> Result<&'a mut SegHandle, ValueError> {
        use std::collections::hash_map::Entry;
        match handles.entry(seg) {
            Entry::Occupied(h) => Ok(h.into_mut()),
            Entry::Vacant(slot) => {
                let file = match File::open(vseg_path(&self.dir, seg)) {
                    Ok(f) => f,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        return Err(ValueError::TornOrMissing)
                    }
                    Err(_) => return Err(ValueError::Io),
                };
                Ok(slot.insert(SegHandle {
                    file: Arc::new(file),
                    map: None,
                }))
            }
        }
    }

    fn handle(&self, seg: u64) -> Result<Arc<File>, ValueError> {
        let mut handles = self.handles.lock();
        Ok(Arc::clone(&self.open_in(&mut handles, seg)?.file))
    }

    /// A mapping of segment `seg` covering bytes `..end`, or `None`
    /// when the tier must fall back to `pread` (file shorter than
    /// `end` — bytes appended after the handle was mapped and not yet
    /// remapped-over, or mmap unavailable). One hold of the handle
    /// table's lock opens the file if need be and maps it. An existing
    /// mapping is replaced only once the file has outgrown it by a full
    /// remap stride: reads chasing a growing active tail `pread`
    /// instead of thrashing `mmap`/`munmap` on every fresh append.
    fn mapped(&self, seg: u64, end: u64) -> Option<Arc<SegMap>> {
        /// File growth required before an existing mapping is redone.
        /// ≤16 remaps over a default segment's lifetime, while at most
        /// this many tail bytes are served by `pread` in the meantime.
        const REMAP_STRIDE: u64 = 4 << 20;
        let mut handles = self.handles.lock();
        let h = self.open_in(&mut handles, seg).ok()?;
        if let Some(m) = &h.map {
            if end <= m.len as u64 {
                return Some(Arc::clone(m));
            }
        }
        let flen = h.file.metadata().ok()?.len();
        if end > flen {
            return None;
        }
        if let Some(m) = &h.map {
            if flen < m.len as u64 + REMAP_STRIDE {
                return None;
            }
        }
        let m = Arc::new(SegMap::new(&h.file, flen as usize)?);
        h.map = Some(Arc::clone(&m));
        Some(m)
    }

    /// Drops the cached handle for `seg` (after segment deletion).
    pub fn forget(&self, seg: u64) {
        self.handles.lock().remove(&seg);
        self.gen.fetch_add(1, Ordering::Release);
    }

    /// Reads and integrity-checks the payload `ptr` names with one
    /// `pread`. The returned bytes are exactly what was appended or a
    /// typed error — never a prefix, never corrupt.
    pub fn read(&self, ptr: ValuePtr) -> Result<Vec<u8>, ValueError> {
        let mut buf = vec![0u8; ptr.len as usize];
        match self.handle(ptr.seg)?.read_exact_at(&mut buf, ptr.off) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(ValueError::TornOrMissing)
            }
            Err(_) => return Err(ValueError::Io),
        }
        if crc32(&buf) != ptr.crc {
            return Err(ValueError::ChecksumMismatch);
        }
        Ok(buf)
    }

    /// [`SegReader::read`] decoded into a [`ColValue`] at `version`,
    /// rewriting `spare` when it fits (see [`decode_payload_value`]).
    /// Prefers the segment mapping — CRC and decode run straight over
    /// the mapped bytes, skipping the syscall and the staging `Vec`.
    fn read_value(
        &self,
        ptr: ValuePtr,
        version: u64,
        spare: Option<Box<ColValue>>,
    ) -> Result<Box<ColValue>, ValueError> {
        if let Some(m) = self.mapped(ptr.seg, ptr.off + u64::from(ptr.len)) {
            let payload = &m.bytes()[ptr.off as usize..][..ptr.len as usize];
            if crc32(payload) != ptr.crc {
                return Err(ValueError::ChecksumMismatch);
            }
            return decode_payload_value(payload, version, spare).ok_or(ValueError::BadLength);
        }
        let buf = self.read(ptr)?;
        decode_payload_value(&buf, version, spare).ok_or(ValueError::BadLength)
    }
}

/// Value-tier observability counters, served through the network
/// `Stats` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValueTierStats {
    /// Reads that resolved an indirect value. Each one CRC-checks its
    /// payload and decodes it out of the segment.
    pub indirect_reads: u64,
    /// Live payload bytes GC has relocated out of condemned segments.
    pub gc_rewritten_bytes: u64,
    /// Payload bytes still referenced across all value segments.
    pub live_segment_bytes: u64,
    /// Indirect reads that failed integrity checks (typed error).
    pub unresolved_reads: u64,
    /// Value segments on disk.
    pub segments: u64,
    /// Batched resolutions ([`ValueTier::resolve_many`] calls): one per
    /// cold point get, batch read or scan chunk that met a cold value.
    pub readahead_batches: u64,
    /// Payload bytes batched resolutions verified straight out of a
    /// session mapping.
    pub coalesced_bytes: u64,
    /// Segment reads issued: one per pointer a batch verified out of a
    /// session mapping, plus one per single read (including a batch's
    /// fallback for a pointer its mappings could not serve). Nothing is
    /// cached: concurrent reads of one pointer each count one.
    pub segment_reads: u64,
}

/// A caller's reusable state for [`ValueTier::resolve_many`], one per
/// session scratch: the session's segment mappings and the decoded
/// values themselves. The values belong to the caller, and the next
/// batch rewrites their blocks in place ([`ColValue::refill_packed`]):
/// with warm mappings and payloads of the sizes the last batch read, a
/// batch allocates nothing.
#[derive(Default)]
pub struct ResolveScratch {
    maps: SessionMaps,
    /// The last batch's values, positionally (`None`: unresolvable).
    out: Vec<Option<Box<ColValue>>>,
    /// Blocks of earlier batches no read has rewritten yet; after each
    /// batch at most as many as it had requests.
    spare: Vec<Box<ColValue>>,
}

impl ResolveScratch {
    /// Request `i`'s value from the last batch: `None` when its payload
    /// could not be verified.
    pub fn get(&self, i: usize) -> Option<&ColValue> {
        self.out.get(i)?.as_deref()
    }

    /// Forgets the last batch's values (a store with no value tier
    /// resolves nothing).
    pub(crate) fn clear(&mut self) {
        self.out.clear();
    }
}

/// Mappings a session holds: few enough to scan, since a batch in
/// request order switches segment at almost every pointer.
const SESSION_MAPS: usize = 8;

/// A session's table of segment mappings, keyed by segment id and taken
/// from [`SegReader::mapped`]. A lookup that hits takes no lock, clones
/// no `Arc` and allocates nothing. The whole table is **discarded** once
/// the reader's generation moves ([`SegReader::forget`]: GC deleted a
/// segment) — a mapping keeps a deleted file's bytes readable, and a
/// pointer into it must come back unresolved.
#[derive(Default)]
struct SessionMaps {
    /// Reader generation every entry was taken under (or later).
    gen: u64,
    slots: [Option<(u64, Arc<SegMap>)>; SESSION_MAPS],
    /// Slot the next new segment replaces (round robin).
    next: usize,
}

impl SessionMaps {
    /// `ptr`'s payload bytes out of the session's mapping of its
    /// segment. On a miss, `fill` asks the reader for a mapping that
    /// covers them; `None` means the payload must be read on its own.
    fn payload(&mut self, reader: &SegReader, ptr: ValuePtr, fill: bool) -> Option<&[u8]> {
        let gen = reader.generation();
        if gen != self.gen {
            *self = SessionMaps {
                gen,
                ..SessionMaps::default()
            };
        }
        let end = ptr.off + u64::from(ptr.len);
        let i = match self.slots.iter().position(
            |slot| matches!(slot, Some((seg, m)) if *seg == ptr.seg && end <= m.len as u64),
        ) {
            Some(i) => i,
            None if fill => {
                // `gen` was loaded before `mapped()`: if a deletion raced
                // in between, the stale stamp just empties the table at
                // the next lookup — it never serves old bytes.
                let m = reader.mapped(ptr.seg, end)?;
                let i = match self
                    .slots
                    .iter()
                    .position(|s| s.as_ref().is_some_and(|s| s.0 == ptr.seg))
                {
                    Some(i) => i,
                    None => {
                        let i = self.next;
                        self.next = (i + 1) % SESSION_MAPS;
                        i
                    }
                };
                self.slots[i] = Some((ptr.seg, m));
                i
            }
            None => return None,
        };
        let (_, m) = self.slots[i].as_ref()?;
        Some(&m.bytes()[ptr.off as usize..end as usize])
    }
}

/// A spare block whose buffer is exactly `need` bytes, if one is on
/// hand. Payloads of one workload tend to share a size, so the search
/// from the back usually stops at the first block it looks at.
fn take_spare(spare: &mut Vec<Box<ColValue>>, need: usize) -> Option<Box<ColValue>> {
    let i = spare.iter().rposition(|v| v.buf_len() == need)?;
    Some(spare.swap_remove(i))
}

/// The value tier attached to a store: appender + reader + per-segment
/// accounting.
pub struct ValueTier {
    dir: PathBuf,
    segment_bytes: u64,
    appender: Mutex<Appender>,
    reader: SegReader,
    accounts: Mutex<HashMap<u64, SegAccount>>,
    /// GC-condemned segments: seg → condemn timestamp (`clock::now`).
    /// Deleted once a durable checkpoint with `start_ts ≥` the stamp
    /// exists (see `Store::run_durability_cycle` for the proof).
    condemned: Mutex<HashMap<u64, u64>>,
    /// Active segment id: GC never condemns it.
    active_seg: AtomicU64,
    /// Durable bytes of the active segment.
    active_durable: AtomicU64,
    indirect_reads: AtomicU64,
    gc_rewritten: AtomicU64,
    unresolved: AtomicU64,
    readahead_batches: AtomicU64,
    coalesced_bytes: AtomicU64,
    segment_reads: AtomicU64,
    /// Observability hub of the owning store (set at attach time):
    /// single-pointer reads record their segment read + decode latency
    /// as `vseg_fill`, batches as `vseg_readahead`.
    obs: std::sync::OnceLock<Arc<mtobs::Obs>>,
}

impl ValueTier {
    /// Mounts the tier over `dir` and opens a **fresh** active segment
    /// one past the highest existing id — old tails are never appended
    /// to (their durable length is crash evidence).
    pub fn open(dir: &Path, segment_bytes: u64) -> std::io::Result<ValueTier> {
        std::fs::create_dir_all(dir)?;
        let ids = vseg_ids(dir);
        let mut accounts = HashMap::new();
        for &id in &ids {
            let total = std::fs::metadata(vseg_path(dir, id))
                .map(|m| m.len())
                .unwrap_or(0);
            accounts.insert(id, SegAccount { total, dead: 0 });
        }
        let next = ids.last().map(|&i| i + 1).unwrap_or(0);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(vseg_path(dir, next))?;
        fsync_dir(dir)?;
        accounts.insert(next, SegAccount::default());
        Ok(ValueTier {
            dir: dir.to_path_buf(),
            segment_bytes: segment_bytes.max(1),
            active_seg: AtomicU64::new(next),
            active_durable: AtomicU64::new(0),
            appender: Mutex::new(Appender {
                file,
                seg: next,
                written: 0,
                durable: 0,
            }),
            reader: SegReader::new(dir),
            accounts: Mutex::new(accounts),
            condemned: Mutex::new(HashMap::new()),
            indirect_reads: AtomicU64::new(0),
            gc_rewritten: AtomicU64::new(0),
            unresolved: AtomicU64::new(0),
            readahead_batches: AtomicU64::new(0),
            coalesced_bytes: AtomicU64::new(0),
            segment_reads: AtomicU64::new(0),
            obs: std::sync::OnceLock::new(),
        })
    }

    /// Attaches the owning store's observability hub (first call wins).
    pub fn set_obs(&self, obs: Arc<mtobs::Obs>) {
        let _ = self.obs.set(obs);
    }

    /// Appends a payload to the active segment (page cache only — call
    /// [`ValueTier::force`] before acking any pointer that names it).
    /// Rotates past the size threshold, fsyncing the sealed segment so
    /// "below the active segment" always means "fully durable".
    pub fn append(&self, payload: &[u8]) -> std::io::Result<ValuePtr> {
        let mut ap = self.appender.lock();
        if ap.written > 0 && ap.written + payload.len() as u64 > self.segment_bytes {
            ap.file.sync_data()?;
            let next = ap.seg + 1;
            let file = OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(vseg_path(&self.dir, next))?;
            fsync_dir(&self.dir)?;
            *ap = Appender {
                file,
                seg: next,
                written: 0,
                durable: 0,
            };
            self.accounts.lock().insert(next, SegAccount::default());
            self.active_seg.store(next, Ordering::Release);
            self.active_durable.store(0, Ordering::Release);
        }
        ap.file.write_all(payload)?;
        let ptr = ValuePtr {
            seg: ap.seg,
            off: ap.written,
            len: payload.len() as u32,
            crc: crc32(payload),
        };
        ap.written += payload.len() as u64;
        if let Some(acct) = self.accounts.lock().get_mut(&ap.seg) {
            acct.total += payload.len() as u64;
        }
        Ok(ptr)
    }

    /// Forces the active segment to storage. Must complete **before**
    /// the write-ahead log force on every durability-ack path: a
    /// durable pointer record then always names durable payload bytes.
    /// Returns false on failure (callers must not ack).
    pub fn force(&self) -> bool {
        let mut ap = self.appender.lock();
        if ap.durable == ap.written {
            return true;
        }
        match ap.file.sync_data() {
            Ok(()) => {
                ap.durable = ap.written;
                self.active_durable.store(ap.durable, Ordering::Release);
                true
            }
            Err(_) => false,
        }
    }

    /// `(active segment, durable bytes of it)`: what a machine crash now
    /// would keep of the tier. Segments below the active one are sealed
    /// and fully durable. Crash tests tear the active segment's tail
    /// past this point.
    pub fn progress(&self) -> (u64, u64) {
        (
            self.active_seg.load(Ordering::Acquire),
            self.active_durable.load(Ordering::Acquire),
        )
    }

    /// Resolves one indirect value into a fresh block: one CRC-checked
    /// read straight out of the segment mapping (or `pread` past it).
    /// For one-off reads (`get_checked`, a cold column merge); reads
    /// that recur run through [`ValueTier::resolve_many`], whose blocks
    /// the caller keeps. Errors are typed and counted; wrong bytes are
    /// impossible (CRC + length cover every path).
    pub fn resolve(&self, ptr: ValuePtr, version: u64) -> Result<Box<ColValue>, ValueError> {
        self.indirect_reads.fetch_add(1, Ordering::Relaxed);
        self.read_one(ptr, version, None)
    }

    /// Resolves a batch of indirect values into `scratch`, where
    /// [`ResolveScratch::get`] hands them out positionally until the
    /// next batch. Two passes walk the batch in request order: the
    /// first prefetches each payload's cache lines out of the session's
    /// mapping of its segment, running at most [`PREFETCH_AHEAD_BYTES`]
    /// ahead of the second, which CRC-checks each payload and decodes it
    /// into a block of an earlier batch when one of its size is on hand.
    /// The batch thus waits for about one round of memory misses, not
    /// one per payload. A payload no mapping can serve is read on its
    /// own ([`ValueTier::read_one`]); an unresolvable one reads `None`
    /// (counted in `unresolved_reads`), exactly as a single resolve
    /// would have failed.
    pub fn resolve_many(&self, reqs: &[(ValuePtr, u64)], scratch: &mut ResolveScratch) {
        let ResolveScratch { maps, out, spare } = scratch;
        spare.extend(out.drain(..).flatten());
        let obs = self.obs.get();
        let t0 = obs.map(|_| std::time::Instant::now());
        // `ahead` is the next payload to prefetch; `in_flight` the bytes
        // prefetched and not yet verified — always at least the payload
        // being verified.
        let (mut ahead, mut in_flight) = (0, 0usize);
        let (mut mapped_reads, mut verified_bytes) = (0u64, 0u64);
        for (i, &(ptr, version)) in reqs.iter().enumerate() {
            while ahead < reqs.len() {
                let len = reqs[ahead].0.len as usize;
                if ahead > i && in_flight + len > PREFETCH_AHEAD_BYTES {
                    break;
                }
                if let Some(b) = maps.payload(&self.reader, reqs[ahead].0, true) {
                    prefetch_object(b.as_ptr(), b.len().min(PREFETCH_AHEAD_BYTES));
                }
                in_flight += len;
                ahead += 1;
            }
            in_flight -= ptr.len as usize;
            let v = maps.payload(&self.reader, ptr, false).and_then(|payload| {
                mapped_reads += 1;
                verified_bytes += payload.len() as u64;
                let block = take_spare(spare, payload.len().saturating_sub(2));
                (crc32(payload) == ptr.crc)
                    .then(|| decode_payload_value(payload, version, block))
                    .flatten()
            });
            // A payload no session mapping covers, or one that fails its
            // CRC or framing there, is read on its own: counted in
            // `unresolved_reads` if that read fails too.
            out.push(v.or_else(|| self.read_one(ptr, version, None).ok()));
        }
        // Blocks this batch found no use for wait for the next one, but
        // never more of them than this batch had requests.
        spare.truncate(reqs.len());
        self.indirect_reads
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
        self.segment_reads
            .fetch_add(mapped_reads, Ordering::Relaxed);
        self.coalesced_bytes
            .fetch_add(verified_bytes, Ordering::Relaxed);
        self.readahead_batches.fetch_add(1, Ordering::Relaxed);
        if let (Some(obs), Some(t0)) = (obs, t0) {
            obs.global()
                .record(mtobs::Kind::VsegReadahead, t0.elapsed().as_nanos() as u64);
        }
    }

    /// One pointer read on its own, through [`SegReader::read_value`]
    /// (which re-resolves the handle and mapping, so it heals a stale
    /// session mapping), decoded into `spare` when it fits. Counted in
    /// `unresolved_reads` on failure and recorded as `vseg_fill`.
    /// [`ValueTier::resolve`] and every pointer a batch's mappings
    /// cannot serve land here.
    fn read_one(
        &self,
        ptr: ValuePtr,
        version: u64,
        spare: Option<Box<ColValue>>,
    ) -> Result<Box<ColValue>, ValueError> {
        let t0 = self.obs.get().map(|obs| (obs, std::time::Instant::now()));
        self.segment_reads.fetch_add(1, Ordering::Relaxed);
        let out = self.reader.read_value(ptr, version, spare);
        if out.is_err() {
            self.unresolved.fetch_add(1, Ordering::Relaxed);
        }
        if let Some((obs, t0)) = t0 {
            obs.global()
                .record(mtobs::Kind::VsegFill, t0.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Reads a payload's raw bytes (GC relocation).
    pub fn read_raw(&self, ptr: ValuePtr) -> Result<Vec<u8>, ValueError> {
        self.reader.read(ptr)
    }

    /// Marks the payload `ptr` names as dead: its pointer record was
    /// replaced, removed, or relocated.
    pub fn note_dead(&self, ptr: ValuePtr) {
        if let Some(acct) = self.accounts.lock().get_mut(&ptr.seg) {
            acct.dead = (acct.dead + ptr.len as u64).min(acct.total);
        }
    }

    /// Counts `n` relocated payload bytes (GC observability).
    pub fn note_rewritten(&self, n: u64) {
        self.gc_rewritten.fetch_add(n, Ordering::Relaxed);
    }

    /// Replaces the per-segment live accounting wholesale (recovery:
    /// totals come from the file lengths, live bytes from a tree scan).
    pub fn rebuild_accounts(&self, live_by_seg: &HashMap<u64, u64>) {
        let mut accounts = self.accounts.lock();
        for (seg, acct) in accounts.iter_mut() {
            let live = live_by_seg.get(seg).copied().unwrap_or(0).min(acct.total);
            acct.dead = acct.total - live;
        }
    }

    /// Sealed segments (below the active one) whose dead fraction is at
    /// least `dead_fraction`, in ascending id order — GC rewrite
    /// candidates. Already-condemned segments are excluded.
    pub fn gc_candidates(&self, dead_fraction: f64) -> Vec<u64> {
        let active = self.active_seg.load(Ordering::Acquire);
        let condemned = self.condemned.lock();
        let accounts = self.accounts.lock();
        let mut out: Vec<u64> = accounts
            .iter()
            .filter(|(&seg, acct)| seg < active && acct.total > 0 && !condemned.contains_key(&seg))
            .filter(|(_, acct)| acct.dead as f64 / acct.total as f64 >= dead_fraction)
            .map(|(&seg, _)| seg)
            .collect();
        out.sort_unstable();
        out
    }

    /// Condemns `seg` at timestamp `now`: every live pointer into it
    /// has been relocated (and the relocations logged), so once a
    /// durable checkpoint with `start_ts ≥ now` exists, no recovery or
    /// replay can reference it again and the file may be deleted.
    pub fn condemn(&self, seg: u64, now: u64) {
        self.condemned.lock().insert(seg, now);
    }

    /// Deletes condemned segments whose stamp is at or before
    /// `covered_ts` (the just-published checkpoint's `start_ts`).
    /// Returns the number of files removed.
    pub fn delete_condemned(&self, covered_ts: u64) -> u64 {
        let ripe: Vec<u64> = self
            .condemned
            .lock()
            .iter()
            .filter(|&(_, &ts)| ts <= covered_ts)
            .map(|(&seg, _)| seg)
            .collect();
        let mut deleted = 0;
        for seg in ripe {
            if std::fs::remove_file(vseg_path(&self.dir, seg)).is_ok() {
                deleted += 1;
            }
            self.condemned.lock().remove(&seg);
            self.accounts.lock().remove(&seg);
            self.reader.forget(seg);
        }
        deleted
    }

    /// Current counters + derived live/segment totals.
    pub fn stats(&self) -> ValueTierStats {
        let accounts = self.accounts.lock();
        let live: u64 = accounts.values().map(|a| a.total - a.dead).sum();
        let segments = accounts.len() as u64;
        ValueTierStats {
            indirect_reads: self.indirect_reads.load(Ordering::Relaxed),
            gc_rewritten_bytes: self.gc_rewritten.load(Ordering::Relaxed),
            live_segment_bytes: live,
            unresolved_reads: self.unresolved.load(Ordering::Relaxed),
            segments,
            readahead_batches: self.readahead_batches.load(Ordering::Relaxed),
            coalesced_bytes: self.coalesced_bytes.load(Ordering::Relaxed),
            segment_reads: self.segment_reads.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mtkv-vtier-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn payload_roundtrip() {
        let mut buf = Vec::new();
        encode_payload(&[b"alpha", b"", b"gamma-gamma"], &mut buf);
        let v = decode_payload_value(&buf, 3, None).unwrap();
        assert_eq!(v.cols(), [&b"alpha"[..], b"", b"gamma-gamma"]);
        // A block of the same size is rewritten in place.
        let at = &*v as *const ColValue as *const u8;
        let mut other = Vec::new();
        encode_payload(&[b"omega", b"!", b"delta-delt"], &mut other);
        let w = decode_payload_value(&other, 4, Some(v)).unwrap();
        assert_eq!(&*w as *const ColValue as *const u8, at);
        assert_eq!(
            (w.version(), w.cols()),
            (
                4,
                vec![b"omega".to_vec(), b"!".to_vec(), b"delta-delt".to_vec()]
            )
        );
        // Trailing garbage is refused, not ignored.
        buf.push(0);
        assert!(decode_payload_value(&buf, 3, None).is_none());
    }

    #[test]
    fn append_read_rotate() {
        let dir = tmpdir("rot");
        let tier = ValueTier::open(&dir, 64).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..10u32 {
            let mut p = Vec::new();
            encode_payload(&[&i.to_le_bytes(), &[i as u8; 30]], &mut p);
            ptrs.push(tier.append(&p).unwrap());
        }
        assert!(tier.force());
        assert!(
            ptrs.last().unwrap().seg > ptrs[0].seg,
            "rotation happened: {ptrs:?}"
        );
        for (i, ptr) in ptrs.iter().enumerate() {
            let v = tier.resolve(*ptr, i as u64).unwrap();
            assert_eq!(v.col(0), Some(&(i as u32).to_le_bytes()[..]));
            assert_eq!(v.col(1), Some(&[i as u8; 30][..]));
        }
        let s = tier.stats();
        assert_eq!(s.indirect_reads, 10);
        assert!(s.segments >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn typed_errors_never_wrong_bytes() {
        let dir = tmpdir("err");
        let tier = ValueTier::open(&dir, 1 << 20).unwrap();
        let mut p = Vec::new();
        encode_payload(&[b"payload-bytes"], &mut p);
        let ptr = tier.append(&p).unwrap();
        assert!(tier.force());
        // Checksum mismatch.
        let bad = ValuePtr {
            crc: ptr.crc ^ 1,
            ..ptr
        };
        assert_eq!(
            tier.resolve(bad, 1).unwrap_err(),
            ValueError::ChecksumMismatch
        );
        // Past the end of the segment.
        let torn = ValuePtr {
            off: ptr.off + 7,
            ..ptr
        };
        assert!(matches!(
            tier.resolve(torn, 1).unwrap_err(),
            ValueError::TornOrMissing | ValueError::ChecksumMismatch
        ));
        // Missing segment.
        let gone = ValuePtr {
            seg: ptr.seg + 99,
            ..ptr
        };
        assert_eq!(
            tier.resolve(gone, 1).unwrap_err(),
            ValueError::TornOrMissing
        );
        assert_eq!(tier.stats().unresolved_reads, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_many_reads_each_pointer_once_into_reused_blocks() {
        let dir = tmpdir("many");
        let tier = ValueTier::open(&dir, 1 << 20).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..32u32 {
            let mut p = Vec::new();
            encode_payload(&[&i.to_le_bytes(), &[i as u8; 100]], &mut p);
            ptrs.push(tier.append(&p).unwrap());
        }
        assert!(tier.force());
        let reqs: Vec<(ValuePtr, u64)> = ptrs.iter().map(|&p| (p, 7)).collect();
        let mut scratch = ResolveScratch::default();
        let blocks = |scratch: &ResolveScratch| {
            let mut at: Vec<*const ColValue> = (0..32)
                .map(|i| {
                    let v = scratch.get(i).expect("all resolvable");
                    assert_eq!(v.col(0), Some(&(i as u32).to_le_bytes()[..]));
                    assert_eq!(v.col(1), Some(&[i as u8; 100][..]));
                    v as *const _
                })
                .collect();
            assert!(scratch.get(32).is_none());
            at.sort_unstable();
            at
        };
        tier.resolve_many(&reqs, &mut scratch);
        let first = blocks(&scratch);
        let s = tier.stats();
        // One segment read per pointer, every byte of each verified.
        assert_eq!(s.segment_reads, 32, "{s:?}");
        assert_eq!(s.readahead_batches, 1);
        let payload_bytes: u64 = ptrs.iter().map(|p| u64::from(p.len)).sum();
        assert_eq!(s.coalesced_bytes, payload_bytes);
        // Second pass: read and checked again, into the first pass's
        // blocks.
        tier.resolve_many(&reqs, &mut scratch);
        assert_eq!(
            blocks(&scratch),
            first,
            "the second batch allocated blocks of its own"
        );
        assert_eq!(tier.stats().segment_reads, 64);
        assert_eq!(tier.stats().unresolved_reads, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A batch in no particular order over more segments than a session
    /// keeps mappings for, with repeated pointers and one past its
    /// segment's end: every intact payload reads right, the torn one
    /// reads `None`.
    #[test]
    fn resolve_many_shuffled_batch_over_segments_reads_right_bytes() {
        let dir = tmpdir("shuffle");
        let tier = ValueTier::open(&dir, 500).unwrap();
        let mut truth = Vec::new();
        for i in 0..24u8 {
            let mut p = Vec::new();
            encode_payload(&[&[i; 200]], &mut p);
            truth.push((tier.append(&p).unwrap(), i));
        }
        assert!(tier.force());
        let mut segs: Vec<u64> = truth.iter().map(|(p, _)| p.seg).collect();
        segs.dedup();
        assert!(segs.len() > SESSION_MAPS, "{segs:?}");
        // Each pointer twice, shuffled by a fixed stride.
        let mut batch: Vec<(ValuePtr, u8)> = (0..48).map(|k| truth[k * 7 % 24]).collect();
        let (last, _) = truth[23];
        let torn = ValuePtr {
            off: last.off + u64::from(last.len),
            ..last
        };
        batch.insert(17, (torn, 0));
        let reqs: Vec<(ValuePtr, u64)> = batch.iter().map(|&(p, _)| (p, 3)).collect();
        let mut scratch = ResolveScratch::default();
        tier.resolve_many(&reqs, &mut scratch);
        for (i, &(ptr, b)) in batch.iter().enumerate() {
            match scratch.get(i) {
                Some(v) => assert_eq!((ptr != torn, v.col(0)), (true, Some(&[b; 200][..]))),
                None => assert_eq!(ptr, torn, "request {i} unresolved"),
            }
        }
        assert_eq!(tier.stats().unresolved_reads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A batch far longer than the prefetch run-ahead still reads every
    /// payload right.
    #[test]
    fn resolve_many_batch_past_the_prefetch_budget_reads_right_bytes() {
        let dir = tmpdir("budget");
        let tier = ValueTier::open(&dir, 1 << 20).unwrap();
        let ptrs: Vec<ValuePtr> = (0..200u32)
            .map(|i| {
                let mut p = Vec::new();
                encode_payload(&[&i.to_le_bytes(), &[i as u8; 1020]], &mut p);
                tier.append(&p).unwrap()
            })
            .collect();
        assert!(tier.force());
        let total: usize = ptrs.iter().map(|p| p.len as usize).sum();
        assert!(total > 2 * PREFETCH_AHEAD_BYTES);
        let reqs: Vec<(ValuePtr, u64)> = ptrs.iter().rev().map(|&p| (p, 1)).collect();
        let mut scratch = ResolveScratch::default();
        tier.resolve_many(&reqs, &mut scratch);
        for (i, k) in (0..200u32).rev().enumerate() {
            let v = scratch.get(i).expect("resolvable");
            assert_eq!(v.col(0), Some(&k.to_le_bytes()[..]));
            assert_eq!(v.col(1), Some(&[k as u8; 1020][..]));
        }
        let s = tier.stats();
        assert_eq!((s.segment_reads, s.unresolved_reads), (200, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_many_torn_window_falls_back_per_pointer() {
        let dir = tmpdir("torn");
        let tier = ValueTier::open(&dir, 1 << 20).unwrap();
        let mut p = Vec::new();
        encode_payload(&[b"intact-payload"], &mut p);
        let good = tier.append(&p).unwrap();
        assert!(tier.force());
        // A pointer reaching past the segment end is refused; the
        // intact payload before it must still resolve.
        let torn = ValuePtr {
            off: good.off + good.len as u64,
            len: 512,
            ..good
        };
        let mut scratch = ResolveScratch::default();
        tier.resolve_many(&[(good, 1), (torn, 1)], &mut scratch);
        assert!(
            scratch.get(0).is_some(),
            "intact payload survives the torn window"
        );
        assert!(scratch.get(1).is_none());
        assert_eq!(tier.stats().unresolved_reads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_many_concurrent_opposite_order_batches_read_right_bytes() {
        // Two sessions resolve the same pointers at once, one batch in
        // forward order and one in reverse, each into its own scratch:
        // both read every payload right, every time.
        let dir = tmpdir("abba");
        let tier = Arc::new(ValueTier::open(&dir, 1 << 20).unwrap());
        let mut ptrs = Vec::new();
        for i in 0..64u8 {
            let mut p = Vec::new();
            encode_payload(&[&[i; 64]], &mut p);
            ptrs.push(tier.append(&p).unwrap());
        }
        assert!(tier.force());
        let fwd: Vec<(ValuePtr, u64)> = ptrs.iter().map(|&p| (p, 1)).collect();
        let rev: Vec<(ValuePtr, u64)> = ptrs.iter().rev().map(|&p| (p, 1)).collect();
        std::thread::scope(|s| {
            for (reqs, reversed) in [(&fwd, false), (&rev, true)] {
                let tier = Arc::clone(&tier);
                s.spawn(move || {
                    let mut scratch = ResolveScratch::default();
                    for _ in 0..500 {
                        tier.resolve_many(reqs, &mut scratch);
                        for i in 0..64 {
                            let b = if reversed { 63 - i } else { i } as u8;
                            let v = scratch.get(i).expect("resolvable");
                            assert_eq!(v.col(0), Some(&[b; 64][..]));
                        }
                    }
                });
            }
        });
        assert_eq!(tier.stats().unresolved_reads, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// GC purges a segment a session has mapped: the session's mapping
    /// must not outlive the file, and its mapping of another segment
    /// still serves.
    #[test]
    fn resolve_many_scratch_map_invalidated_by_purge() {
        let dir = tmpdir("scratchmap");
        // Two payloads fill segment S; the third rotates to a new one.
        let tier = ValueTier::open(&dir, 600).unwrap();
        let payload = |b: u8| {
            let mut p = Vec::new();
            encode_payload(&[&[b; 256]], &mut p);
            p
        };
        let first = tier.append(&payload(1)).unwrap();
        let second = tier.append(&payload(2)).unwrap();
        let next = tier.append(&payload(3)).unwrap();
        assert!(tier.force());
        assert_eq!(first.seg, second.seg);
        assert_ne!(next.seg, first.seg);
        let mut scratch = ResolveScratch::default();
        // The session maps S whole while resolving the first payload,
        // and the next segment beside it; the second payload's bytes
        // are in S's mapping too.
        tier.resolve_many(&[(first, 1), (next, 1)], &mut scratch);
        assert!(scratch.get(0).is_some() && scratch.get(1).is_some());
        let before = tier.stats();
        assert_eq!(before.segment_reads, 2, "both served from mappings");
        // GC condemns S and deletes it. The unlinked file's bytes stay
        // readable through the session's mapping, which must not serve
        // them.
        tier.note_dead(first);
        tier.note_dead(second);
        assert_eq!(tier.gc_candidates(0.99), vec![first.seg]);
        tier.condemn(first.seg, 100);
        assert_eq!(tier.delete_condemned(100), 1);
        tier.resolve_many(&[(second, 2), (next, 2)], &mut scratch);
        assert!(scratch.get(0).is_none(), "served a deleted segment's bytes");
        assert_eq!(scratch.get(1).and_then(|v| v.col(0)), Some(&[3; 256][..]));
        assert_eq!(tier.stats().unresolved_reads, 1);
        assert_eq!(
            tier.resolve(second, 2).unwrap_err(),
            ValueError::TornOrMissing
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every reader of a storm on one cold pointer gets the payload
    /// from a segment read of its own: nothing is cached, so the tier
    /// counts exactly one read per resolve.
    #[test]
    fn miss_storm_serves_every_reader_from_a_hit_or_its_own_read() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 16;
        let dir = tmpdir("storm");
        // One fresh payload per round, so each round's storm starts on
        // a pointer nobody has resolved yet.
        let tier = Arc::new(ValueTier::open(&dir, 1 << 20).unwrap());
        let ptrs: Vec<ValuePtr> = (0..ROUNDS as u8)
            .map(|r| {
                let mut p = Vec::new();
                encode_payload(&[&[r; 4096]], &mut p);
                tier.append(&p).unwrap()
            })
            .collect();
        assert!(tier.force());
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        for (r, &ptr) in ptrs.iter().enumerate() {
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    let tier = Arc::clone(&tier);
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let v = tier.resolve(ptr, 9).unwrap();
                        assert_eq!(v.col(0), Some(&[r as u8; 4096][..]));
                    });
                }
            });
        }
        let s = tier.stats();
        assert_eq!(s.segment_reads, (THREADS * ROUNDS) as u64, "{s:?}");
        assert_eq!(s.unresolved_reads, 0, "{s:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn condemn_delete_cycle() {
        let dir = tmpdir("gc");
        let tier = ValueTier::open(&dir, 32).unwrap();
        let mut p = Vec::new();
        encode_payload(&[&[7u8; 40]], &mut p);
        let a = tier.append(&p).unwrap(); // fills segment, next append rotates
        let b = tier.append(&p).unwrap();
        assert!(tier.force());
        assert_ne!(a.seg, b.seg);
        tier.note_dead(a);
        assert_eq!(tier.gc_candidates(0.99), vec![a.seg]);
        tier.condemn(a.seg, 100);
        assert_eq!(tier.delete_condemned(50), 0, "not yet covered");
        assert_eq!(tier.delete_condemned(100), 1);
        assert!(!vseg_path(&dir, a.seg).exists());
        assert_eq!(
            tier.resolve(a, 1).unwrap_err(),
            ValueError::TornOrMissing,
            "deleted segment reads are typed errors"
        );
        assert!(tier.resolve(b, 2).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
