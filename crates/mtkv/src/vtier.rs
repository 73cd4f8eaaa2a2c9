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
//! Reads resolve through a budgeted **value cache** of decoded
//! values, so a hot working set larger than RAM still serves point
//! gets mostly from memory (ZipCache's DRAM-over-SSD model).

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::crc32::crc32;
use crate::value::{ColValue, ValuePtr};

/// Default rotation threshold for value segments.
pub const DEFAULT_VALUE_SEGMENT_BYTES: u64 = 64 << 20;
/// Default decoded-value cache budget.
pub const DEFAULT_VALUE_CACHE_BYTES: usize = 64 << 20;

/// Misses within this many bytes of each other coalesce into one
/// clustered segment read ([`ValueTier::resolve_many`]): the gap bytes
/// are other rows' payloads, and dragging them through one `pread`
/// costs far less than a second syscall. One page covers the common
/// "adjacent rows, small interleaved writes" shape without inflating
/// windows across unrelated regions.
const COALESCE_GAP: u64 = 4096;

/// Upper bound on a single clustered read's window — the readahead
/// byte budget. Bounds the reusable scratch buffer against a
/// pathological batch whose misses span a whole segment.
const READAHEAD_WINDOW_BYTES: u64 = 1 << 20;

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

/// Decodes a payload into borrowed column slices. `None` when the
/// framing is inconsistent with the buffer length (surfaced as
/// [`ValueError::BadLength`]).
pub fn decode_payload(buf: &[u8]) -> Option<Vec<&[u8]>> {
    let ncols = u16::from_le_bytes(buf.get(..2)?.try_into().ok()?) as usize;
    let mut p = buf.get(2..)?;
    let mut lens = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        lens.push(u32::from_le_bytes(p.get(..4)?.try_into().ok()?) as usize);
        p = &p[4..];
    }
    let mut cols = Vec::with_capacity(ncols);
    for len in lens {
        cols.push(p.get(..len)?);
        p = &p[len..];
    }
    if !p.is_empty() {
        return None; // trailing garbage: framing inconsistent
    }
    Some(cols)
}

/// Decodes a payload straight into a cacheable [`ColValue`] — the bulk
/// twin of [`decode_payload`] for the cache-miss read path: the column
/// bytes are copied once from the read buffer into the value's single
/// block, with no intermediate slice vector. An evicted block of the
/// same size (`spare`, uniquely owned) is rewritten in place
/// ([`ColValue::refill_packed`]), so a fill that finds one allocates
/// nothing.
fn decode_payload_value(
    buf: &[u8],
    version: u64,
    spare: Option<Arc<ColValue>>,
) -> Option<Arc<ColValue>> {
    let ncols = u16::from_le_bytes(buf.get(..2)?.try_into().ok()?) as usize;
    let lens = buf
        .get(2..2 + 4 * ncols)?
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()));
    let data = &buf[2 + 4 * ncols..];
    if let Some(mut v) = spare {
        if Arc::get_mut(&mut v).is_some_and(|b| b.refill_packed(version, lens.clone(), data)) {
            return Some(v);
        }
    }
    ColValue::from_packed(version, lens, data).map(Arc::from)
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

/// A read-only shared mapping of one value-segment file, established
/// lazily on the first clustered read. Serving windows from the page
/// cache through a mapping removes the `pread` syscall and its kernel
/// copy from every cache miss — payloads are CRC-checked and decoded
/// straight out of the mapped bytes.
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

#[cfg(unix)]
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
    #[cfg(unix)]
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

    #[cfg(not(unix))]
    fn new(_file: &File, _len: usize) -> Option<SegMap> {
        None
    }

    fn bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for SegMap {
    fn drop(&mut self) {
        #[cfg(unix)]
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

/// A standalone value-segment reader with a per-segment handle cache —
/// used by recovery (before a store exists) and embedded in
/// [`ValueTier`] for the read path.
pub struct SegReader {
    dir: PathBuf,
    handles: Mutex<FxMap<u64, SegHandle>>,
    /// Bumped whenever a cached handle is dropped ([`SegReader::forget`]:
    /// GC deleted the segment). Externally held mapping caches
    /// ([`ResolveScratch`]) compare against this, so a session never
    /// serves bytes from its mapping of a deleted segment.
    gen: AtomicU64,
}

impl SegReader {
    pub fn new(dir: &Path) -> SegReader {
        SegReader {
            dir: dir.to_path_buf(),
            handles: Mutex::new(FxMap::default()),
            gen: AtomicU64::new(0),
        }
    }

    /// Invalidation generation for externally cached mappings: any
    /// `Arc<SegMap>` obtained under an older generation may map a
    /// deleted segment file and must be dropped.
    fn generation(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    fn handle(&self, seg: u64) -> Result<Arc<File>, ValueError> {
        let mut handles = self.handles.lock();
        if let Some(h) = handles.get(&seg) {
            return Ok(Arc::clone(&h.file));
        }
        let f = match File::open(vseg_path(&self.dir, seg)) {
            Ok(f) => Arc::new(f),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(ValueError::TornOrMissing)
            }
            Err(_) => return Err(ValueError::Io),
        };
        handles.insert(
            seg,
            SegHandle {
                file: Arc::clone(&f),
                map: None,
            },
        );
        Ok(f)
    }

    /// A mapping of segment `seg` covering bytes `..end`, or `None`
    /// when the tier must fall back to `pread` (file shorter than
    /// `end` — bytes appended after the handle was mapped and not yet
    /// remapped-over, or mmap unavailable). An existing mapping is
    /// replaced only once the file has outgrown it by a full remap
    /// stride: reads chasing a growing active tail `pread` instead of
    /// thrashing `mmap`/`munmap` on every fresh append.
    fn mapped(&self, seg: u64, end: u64) -> Option<Arc<SegMap>> {
        /// File growth required before an existing mapping is redone.
        /// ≤16 remaps over a default segment's lifetime, while at most
        /// this many tail bytes are served by `pread` in the meantime.
        const REMAP_STRIDE: u64 = 4 << 20;
        self.handle(seg).ok()?;
        let mut handles = self.handles.lock();
        let h = handles.get_mut(&seg)?;
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

    /// Reads and integrity-checks the payload `ptr` names. The returned
    /// bytes are exactly what was appended or a typed error — never a
    /// prefix, never corrupt.
    pub fn read(&self, ptr: ValuePtr) -> Result<Vec<u8>, ValueError> {
        let f = self.handle(ptr.seg)?;
        let mut buf = vec![0u8; ptr.len as usize];
        match f.read_exact_at(&mut buf, ptr.off) {
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
    pub fn read_value(
        &self,
        ptr: ValuePtr,
        version: u64,
        spare: Option<Arc<ColValue>>,
    ) -> Result<Arc<ColValue>, ValueError> {
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

    /// Reads a raw clustered window (`buf.len()` bytes at `off`) from
    /// segment `seg` — the readahead primitive under
    /// [`ValueTier::resolve_many`]. No integrity check here: the window
    /// spans several payloads plus the gaps between them; each payload
    /// is CRC-checked individually as it is carved out.
    pub fn read_clustered(&self, seg: u64, off: u64, buf: &mut [u8]) -> Result<(), ValueError> {
        let f = self.handle(seg)?;
        match f.read_exact_at(buf, off) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                Err(ValueError::TornOrMissing)
            }
            Err(_) => Err(ValueError::Io),
        }
    }
}

/// The budgeted cache of decoded indirect values, keyed by
/// `(seg, off)`. Segment ids are never reused within a store lifetime,
/// so a key can never alias two different payloads.
///
/// Sharded second-chance (CLOCK) replacement rather than strict LRU:
/// the hit path — the hot path of every indirect read — is one sharded
/// lock, one hash lookup, and a flag store. A strict LRU's per-hit
/// recency reordering costs two ordered-map updates under one global
/// lock and dominates cache-hit latency at point-get rates.
struct ValueCache {
    shards: Vec<Mutex<CacheShard>>,
}

/// One *contended* in-flight cold-pointer fill, shared by every
/// concurrent reader of the same pointer: the first reader (the
/// leader) performs the segment read and publishes the result; the
/// rest block on the condvar and receive the same `Result` — a miss
/// storm on one evicted key costs exactly one segment read.
///
/// The uncontended path never allocates one of these: a leader
/// registers a free `None` marker in its shard's fill table, and this
/// rendezvous block is created lazily by the **first waiter** to join
/// (see [`CacheShard::fills`]). Solo misses — the overwhelmingly
/// common case — pay two map operations and nothing else.
struct InFlight {
    done: Mutex<Option<Result<Arc<ColValue>, ValueError>>>,
    cv: Condvar,
}

impl InFlight {
    fn wait(&self) -> Result<Arc<ColValue>, ValueError> {
        let mut done = self.done.lock();
        while done.is_none() {
            self.cv.wait(&mut done);
        }
        done.clone().unwrap()
    }
}

/// Leader-side completion obligation for an in-flight fill: if the
/// leader unwinds before publishing (a panic inside the segment read),
/// the drop publishes an I/O error so waiters wake with a typed
/// failure instead of blocking forever on an abandoned entry.
struct LeadGuard<'a> {
    cache: &'a ValueCache,
    key: (u64, u64),
    published: bool,
}

impl LeadGuard<'_> {
    fn publish(mut self, res: &Result<Arc<ColValue>, ValueError>) {
        self.cache.finish_lead(self.key, res);
        self.published = true;
    }
}

impl Drop for LeadGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.cache.finish_lead(self.key, &Err(ValueError::Io));
        }
    }
}

/// What an atomic probe-and-register found for a cold pointer.
enum Probe {
    /// Decoded value already cached.
    Hit(Arc<ColValue>),
    /// Another reader is filling this pointer; wait on the rendezvous.
    Join(Arc<InFlight>),
    /// This caller leads the fill: read, decode, then
    /// [`LeadGuard::publish`] (cache insert + marker removal are one
    /// atomic step, so later probes can never re-read). Carries an
    /// evicted block for the decode to rewrite when the shard pool had
    /// one of the right size.
    Lead(Option<Arc<ColValue>>),
}

struct CacheShard {
    map: FxMap<(u64, u64), CacheEntry>,
    /// In-flight fills by pointer key. `None` until a waiter actually
    /// joins: the rendezvous block (and its condvar) is lazily created
    /// by the first joiner, so an uncontended miss registers and
    /// removes a bare marker under the locks it was already taking.
    fills: FxMap<(u64, u64), Option<Arc<InFlight>>>,
    /// Clock ring of insertion order. May hold stale keys (evicted or
    /// removed out of band) — they are skipped when the hand passes.
    ring: VecDeque<(u64, u64)>,
    bytes: usize,
    budget: usize,
    /// Evicted values the sweep held the last reference to, rewritten
    /// in place by new fills of the same size — at steady state (evict
    /// one ≈1 KB value, decode another) the allocator drops out of the
    /// miss path entirely. Every block here is uniquely owned.
    pool: Vec<Arc<ColValue>>,
}

/// Per-shard cap on pooled blocks. Bounds idle pool memory at
/// `CACHE_SHARDS × cap × payload size` while still covering a whole
/// clustered window's worth of fills per shard.
const POOL_CAP: usize = 16;

struct CacheEntry {
    val: Arc<ColValue>,
    bytes: usize,
    /// Second-chance bit: set on hit, cleared (once) by the clock hand
    /// before the entry becomes evictable.
    referenced: bool,
}

impl CacheShard {
    /// Probe under an already-held lock — callers batch several probes
    /// of one shard (a clustered window's worth) per lock hold.
    fn get_locked(&mut self, key: (u64, u64)) -> Option<Arc<ColValue>> {
        let e = self.map.get_mut(&key)?;
        e.referenced = true;
        Some(Arc::clone(&e.val))
    }

    /// Inserts (or replaces) without sweeping — callers batch several
    /// inserts under one lock hold and call [`CacheShard::sweep`] once.
    fn insert_locked(&mut self, key: (u64, u64), val: Arc<ColValue>) {
        if self.budget == 0 {
            return;
        }
        let bytes = val.heap_bytes();
        let old = self.map.insert(
            key,
            CacheEntry {
                val,
                bytes,
                referenced: false,
            },
        );
        match old {
            // Replacing in place: the key is already on the ring.
            Some(old) => self.bytes -= old.bytes,
            None => self.ring.push_back(key),
        }
        self.bytes += bytes;
    }

    /// Advances the clock hand until back under budget: a stale ring
    /// key is dropped, a referenced entry gets its second chance, an
    /// unreferenced one is evicted. Terminates: every step either
    /// shrinks the ring or clears a flag that is never re-set here.
    /// An evicted value nobody else holds goes to the shard's recycling
    /// pool.
    fn sweep(&mut self) {
        while self.bytes > self.budget && self.map.len() > 1 {
            let Some(k) = self.ring.pop_front() else {
                break;
            };
            match self.map.entry(k) {
                std::collections::hash_map::Entry::Vacant(_) => {}
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if e.get().referenced {
                        e.get_mut().referenced = false;
                        self.ring.push_back(k);
                    } else {
                        let mut ent = e.remove();
                        self.bytes -= ent.bytes;
                        if self.pool.len() < POOL_CAP && Arc::get_mut(&mut ent.val).is_some() {
                            self.pool.push(ent.val);
                        }
                    }
                }
            }
        }
    }

    /// Takes a pooled block whose buffer is exactly `need` bytes, if
    /// one is on hand (linear scan — the pool is tiny and shards see
    /// uniform payload sizes in practice).
    fn pool_take(&mut self, need: usize) -> Option<Arc<ColValue>> {
        let i = self.pool.iter().position(|v| v.buf_len() == need)?;
        Some(self.pool.swap_remove(i))
    }
}

const CACHE_SHARDS: usize = 16;

/// Multiply-xor hasher (FxHash-style) for maps keyed by fixed-width
/// internal ids. SipHash costs more than the rest of the lookup on the
/// cache and segment-handle maps, which sit on the indirect read path.
/// Not DoS-resistant — the keys are internally generated segment ids
/// and offsets, never attacker-chosen bytes.
#[derive(Default)]
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type FxMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FxHasher>>;

/// Shards by segment id and **64 KiB offset region**, not the exact
/// offset: a leaf-sized clustered window (~tens of KB) spans one or
/// two regions, so the batched probe and fill passes run whole windows
/// under one or two lock acquisitions instead of one per payload. The
/// region is deliberately small — a 64 MB segment holds ~1000 of them,
/// so shard budgets stay balanced (coarser regions measurably skew
/// per-shard load and shrink the effective cache).
fn shard_of(key: (u64, u64)) -> usize {
    let mix = (key.0 ^ (key.1 >> 16).rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (mix >> 60) as usize % CACHE_SHARDS
}

impl ValueCache {
    fn new(budget: usize) -> ValueCache {
        let per_shard = budget / CACHE_SHARDS;
        ValueCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| {
                    Mutex::new(CacheShard {
                        map: FxMap::default(),
                        fills: FxMap::default(),
                        ring: VecDeque::new(),
                        bytes: 0,
                        budget: per_shard,
                        pool: Vec::new(),
                    })
                })
                .collect(),
        }
    }

    /// Atomically probes the cache and, on a miss, joins or starts the
    /// in-flight fill for `key` — one shard lock for both steps, so a
    /// probe can never slip between another leader's insert and its
    /// marker removal (those are also one atomic step,
    /// [`ValueCache::finish_lead`]): every reader sees a hit, an
    /// in-flight fill to join, or cleanly leads a fresh fill. `need`
    /// is the buffer length of the block the fill would build, so a
    /// leader can take a recycled block from the shard pool under the
    /// same lock.
    fn probe_or_lead(&self, key: (u64, u64), need: usize) -> Probe {
        let mut shard = self.shards[shard_of(key)].lock();
        if let Some(e) = shard.map.get_mut(&key) {
            e.referenced = true;
            return Probe::Hit(Arc::clone(&e.val));
        }
        match shard.fills.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                // First joiner materializes the rendezvous block; the
                // leader only ever pays for it when contention is real.
                let fl = e.get_mut().get_or_insert_with(|| {
                    Arc::new(InFlight {
                        done: Mutex::new(None),
                        cv: Condvar::new(),
                    })
                });
                return Probe::Join(Arc::clone(fl));
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(None);
            }
        }
        Probe::Lead(shard.pool_take(need))
    }

    /// Publishes the leader's result: inserts the decoded value (on
    /// success) and removes the fill marker in **one** locked step, so
    /// any probe ordered after this sees the cache hit; then wakes
    /// waiters, if the marker ever grew a rendezvous block.
    fn finish_lead(&self, key: (u64, u64), res: &Result<Arc<ColValue>, ValueError>) {
        let waiters = {
            let mut shard = self.shards[shard_of(key)].lock();
            if let Ok(v) = res {
                shard.insert_locked(key, Arc::clone(v));
                shard.sweep();
            }
            shard.fills.remove(&key).flatten()
        };
        if let Some(fl) = waiters {
            let mut done = fl.done.lock();
            *done = Some(res.clone());
            fl.cv.notify_all();
        }
    }

    fn insert(&self, key: (u64, u64), val: Arc<ColValue>) {
        let mut shard = self.shards[shard_of(key)].lock();
        shard.insert_locked(key, val);
        shard.sweep();
    }

    fn remove(&self, key: (u64, u64)) {
        let mut shard = self.shards[shard_of(key)].lock();
        if let Some(e) = shard.map.remove(&key) {
            shard.bytes -= e.bytes;
        }
        // The ring entry goes stale and is skipped by the clock hand.
    }
}

/// Value-tier observability counters, served through the network
/// `Stats` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValueTierStats {
    /// Reads that resolved an indirect value (cache hit or disk).
    pub indirect_reads: u64,
    /// Indirect reads served by the decoded-value cache.
    pub value_cache_hits: u64,
    /// Live payload bytes GC has relocated out of condemned segments.
    pub gc_rewritten_bytes: u64,
    /// Payload bytes still referenced across all value segments.
    pub live_segment_bytes: u64,
    /// Indirect reads that failed integrity checks (typed error).
    pub unresolved_reads: u64,
    /// Value segments on disk.
    pub segments: u64,
    /// Batched resolutions ([`ValueTier::resolve_many`] calls) that had
    /// at least one cache miss and issued clustered reads.
    pub readahead_batches: u64,
    /// Clustered segment reads: one `pread` covering a coalesced run of
    /// missed pointers (plus the gaps between them).
    pub clustered_reads: u64,
    /// Bytes fetched by clustered reads — payloads and skipped gaps.
    pub coalesced_bytes: u64,
    /// Cold misses that piggybacked on another reader's in-flight
    /// segment read instead of issuing their own (miss coalescing).
    pub shared_misses: u64,
    /// Segment `pread`s actually issued, across single fills, clustered
    /// windows, and torn-window fallbacks. Under a miss storm on one
    /// key this advances once while `shared_misses` counts the crowd.
    pub segment_reads: u64,
}

/// Reusable buffers for [`ValueTier::resolve_many`], owned by the
/// caller (one per session scratch) so the all-hit steady state
/// allocates nothing: the miss list and the clustered-window read
/// buffer both retain capacity across batches.
#[derive(Default)]
pub struct ResolveScratch {
    /// Cache misses: `(ptr, version, index into the request batch)`,
    /// sorted by `(seg, off)` before coalescing.
    misses: Vec<(ValuePtr, u64, u32)>,
    /// One clustered window's raw segment bytes (`pread` fallback when
    /// the segment has no mapping).
    buf: Vec<u8>,
    /// Last segment mapping used, keyed by `(reader generation,
    /// segment id)` — consecutive windows usually hit the same segment,
    /// skipping the reader's handle-table locks. Replaced whenever a
    /// window needs a different (or longer) mapping, and **discarded**
    /// when the reader's generation has moved ([`SegReader::forget`]:
    /// GC deleted a segment) — a mapping keeps a deleted file's bytes
    /// readable, and a pointer into it must come back unresolved.
    map: Option<(u64, u64, Arc<SegMap>)>,
}

/// The value tier attached to a store: appender + reader + cache +
/// per-segment accounting.
pub struct ValueTier {
    dir: PathBuf,
    segment_bytes: u64,
    appender: Mutex<Appender>,
    reader: SegReader,
    cache: ValueCache,
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
    cache_hits: AtomicU64,
    gc_rewritten: AtomicU64,
    unresolved: AtomicU64,
    readahead_batches: AtomicU64,
    clustered_reads: AtomicU64,
    coalesced_bytes: AtomicU64,
    shared_misses: AtomicU64,
    segment_reads: AtomicU64,
    /// Observability hub of the owning store (set at attach time):
    /// cache-miss fills record their segment-read + decode latency as
    /// `vseg_fill`.
    obs: std::sync::OnceLock<Arc<mtobs::Obs>>,
}

impl ValueTier {
    /// Mounts the tier over `dir` and opens a **fresh** active segment
    /// one past the highest existing id — old tails are never appended
    /// to (their durable length is crash evidence).
    pub fn open(dir: &Path, segment_bytes: u64, cache_budget: usize) -> std::io::Result<ValueTier> {
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
            cache: ValueCache::new(cache_budget),
            accounts: Mutex::new(accounts),
            condemned: Mutex::new(HashMap::new()),
            indirect_reads: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            gc_rewritten: AtomicU64::new(0),
            unresolved: AtomicU64::new(0),
            readahead_batches: AtomicU64::new(0),
            clustered_reads: AtomicU64::new(0),
            coalesced_bytes: AtomicU64::new(0),
            shared_misses: AtomicU64::new(0),
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

    /// Resolves an indirect value: decoded-value cache first, then an
    /// integrity-checked segment read shared through the per-shard
    /// in-flight table — concurrent readers of the same cold pointer
    /// join the first reader's read instead of stampeding the segment
    /// file. Errors are typed and counted; wrong bytes are impossible
    /// (CRC + length cover every path).
    pub fn resolve(&self, ptr: ValuePtr, version: u64) -> Result<Arc<ColValue>, ValueError> {
        self.indirect_reads.fetch_add(1, Ordering::Relaxed);
        let key = (ptr.seg, ptr.off);
        let obs = self.obs.get();
        let fill_t0 = obs.map(|_| std::time::Instant::now());
        match self
            .cache
            .probe_or_lead(key, (ptr.len as usize).saturating_sub(2))
        {
            Probe::Hit(v) => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                Ok(v)
            }
            Probe::Join(fl) => {
                // Another reader is already filling this pointer: share
                // its one segment read instead of issuing a duplicate.
                self.shared_misses.fetch_add(1, Ordering::Relaxed);
                let out = fl.wait();
                if out.is_err() {
                    self.unresolved.fetch_add(1, Ordering::Relaxed);
                }
                if let (Some(obs), Some(t0)) = (obs, fill_t0) {
                    obs.global()
                        .record(mtobs::Kind::VsegSharedMiss, t0.elapsed().as_nanos() as u64);
                }
                out
            }
            Probe::Lead(spare) => {
                // Leading the fill: publish on every exit — the guard
                // covers unwinds — so waiters can never block on an
                // abandoned marker. The publish itself performs the
                // cache insert, atomically with the marker removal.
                let lead = LeadGuard {
                    cache: &self.cache,
                    key,
                    published: false,
                };
                self.segment_reads.fetch_add(1, Ordering::Relaxed);
                let out = self.reader.read_value(ptr, version, spare);
                if out.is_err() {
                    self.unresolved.fetch_add(1, Ordering::Relaxed);
                }
                lead.publish(&out);
                if let (Some(obs), Some(t0)) = (obs, fill_t0) {
                    obs.global()
                        .record(mtobs::Kind::VsegFill, t0.elapsed().as_nanos() as u64);
                }
                out
            }
        }
    }

    /// Batched [`ValueTier::resolve`]: probes the cache for every
    /// request, then resolves the misses with **clustered segment
    /// reads** — misses sorted by `(seg, off)`, adjacent and
    /// near-adjacent ranges (gap ≤ one page) coalesced into a single
    /// `pread` per window bounded by the readahead byte budget, each
    /// payload CRC-checked and decoded out of the window into the
    /// cache. Results land in `out` positionally; `None` means the
    /// payload was unresolvable (counted in `unresolved_reads`),
    /// exactly as a single resolve would have failed. With warm
    /// `out`/`scratch` buffers the all-hit path allocates nothing.
    pub fn resolve_many(
        &self,
        reqs: &[(ValuePtr, u64)],
        out: &mut Vec<Option<Arc<ColValue>>>,
        scratch: &mut ResolveScratch,
    ) {
        out.clear();
        scratch.misses.clear();
        self.indirect_reads
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
        let mut hits = 0u64;
        // Locked-run probing: requests arrive in key order, which for
        // clustered payloads is near offset order, and region sharding
        // maps an offset run to one shard — so consecutive probes
        // usually reuse the held guard instead of relocking per row.
        let mut cur: Option<(usize, parking_lot::MutexGuard<CacheShard>)> = None;
        for (i, &(ptr, version)) in reqs.iter().enumerate() {
            let key = (ptr.seg, ptr.off);
            let s = shard_of(key);
            match &cur {
                Some((held, _)) if *held == s => {}
                _ => {
                    // Release the held shard *before* acquiring the next
                    // one: a plain `cur = Some(..)` evaluates the new
                    // lock first, holding two shards at once — two
                    // batches whose probe sequences cross shards in
                    // opposite orders (shard_of is a hash) would
                    // deadlock ABBA-style.
                    drop(cur.take());
                    cur = Some((s, self.cache.shards[s].lock()));
                }
            }
            match cur.as_mut().unwrap().1.get_locked(key) {
                Some(v) => {
                    hits += 1;
                    out.push(Some(v));
                }
                None => {
                    scratch.misses.push((ptr, version, i as u32));
                    out.push(None);
                }
            }
        }
        drop(cur);
        if hits > 0 {
            self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        }
        if scratch.misses.is_empty() {
            return;
        }
        let obs = self.obs.get();
        let t0 = obs.map(|_| std::time::Instant::now());
        scratch
            .misses
            .sort_unstable_by_key(|&(p, _, _)| (p.seg, p.off));
        let mut w = 0;
        while w < scratch.misses.len() {
            let (p0, _, _) = scratch.misses[w];
            let (seg, start) = (p0.seg, p0.off);
            let mut end = p0.off + p0.len as u64;
            let mut x = w + 1;
            while x < scratch.misses.len() {
                let (p, _, _) = scratch.misses[x];
                let pend = p.off + p.len as u64;
                if p.seg != seg
                    || p.off > end + COALESCE_GAP
                    || pend - start > READAHEAD_WINDOW_BYTES
                {
                    break;
                }
                end = end.max(pend);
                x += 1;
            }
            self.fill_window(
                &scratch.misses[w..x],
                end,
                &mut scratch.buf,
                &mut scratch.map,
                out,
            );
            w = x;
        }
        self.readahead_batches.fetch_add(1, Ordering::Relaxed);
        if let (Some(obs), Some(t0)) = (obs, t0) {
            obs.global()
                .record(mtobs::Kind::VsegReadahead, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Resolves one coalesced run of misses — one segment, sorted by
    /// offset, so the window starts at the first miss and runs to `end`
    /// — with a single clustered segment read, carving, CRC-checking,
    /// and caching each payload out of the window. A failed window read
    /// falls back to per-pointer reads: a tear inside the window must
    /// not condemn the intact payloads before it.
    fn fill_window(
        &self,
        misses: &[(ValuePtr, u64, u32)],
        end: u64,
        buf: &mut Vec<u8>,
        map_cache: &mut Option<(u64, u64, Arc<SegMap>)>,
        out: &mut [Option<Arc<ColValue>>],
    ) {
        let (seg, start) = (misses[0].0.seg, misses[0].0.off);
        let len = (end - start) as usize;
        self.segment_reads.fetch_add(1, Ordering::Relaxed);
        self.clustered_reads.fetch_add(1, Ordering::Relaxed);
        self.coalesced_bytes
            .fetch_add(len as u64, Ordering::Relaxed);
        // Mapped segments serve the window with zero copies — carve,
        // CRC, and decode run directly over the page cache. Otherwise
        // `pread` into the reusable scratch buffer (grow-only: the read
        // overwrites `..len` in full, so re-zeroing a previously larger
        // window would only burn memory bandwidth on bytes about to be
        // replaced). The cached mapping is honored only while the
        // reader's generation stands still: `forget` (GC deleted a
        // segment) means the mapping may cover a deleted file, and the
        // scratch must not serve its bytes.
        let gen = self.reader.generation();
        let mapped = match &*map_cache {
            Some((mgen, mseg, m)) if *mgen == gen && *mseg == seg && end <= m.len as u64 => {
                Some(Arc::clone(m))
            }
            _ => {
                let m = self.reader.mapped(seg, end);
                if let Some(m) = &m {
                    // `gen` was loaded before `mapped()`: if a deletion
                    // raced in between, the stale stamp just makes the
                    // next window re-fetch — never serves old bytes.
                    *map_cache = Some((gen, seg, Arc::clone(m)));
                }
                m
            }
        };
        if mapped.is_none() {
            if buf.len() < len {
                buf.resize(len, 0);
            }
            if self
                .reader
                .read_clustered(seg, start, &mut buf[..len])
                .is_err()
            {
                for &(ptr, version, i) in misses {
                    self.fill_single(ptr, version, i, out);
                }
                return;
            }
        }
        let window: &[u8] = match &mapped {
            Some(m) => &m.bytes()[start as usize..end as usize],
            None => &buf[..len],
        };
        // One pass — CRC, decode, insert — under locked shard runs:
        // region sharding puts a whole window's keys in one or two
        // shards, so a run holds one lock, recycles evicted blocks
        // through the shard pool into the decodes, and pays one
        // eviction sweep per run instead of one per payload. A payload
        // that fails CRC or decode inside the window retries through a
        // fresh per-pointer read (symmetric with the torn-window
        // fallback above): window-local damage — or a mapping that went
        // stale mid-batch — must not condemn a payload the segment can
        // still serve. The shard guard is dropped first; no disk I/O
        // under a cache lock.
        let mut cur: Option<(usize, parking_lot::MutexGuard<CacheShard>)> = None;
        for &(ptr, version, i) in misses {
            let lo = (ptr.off - start) as usize;
            let payload = &window[lo..lo + ptr.len as usize];
            if crc32(payload) != ptr.crc {
                if let Some((_, mut done)) = cur.take() {
                    done.sweep();
                }
                self.fill_single(ptr, version, i, out);
                continue;
            }
            let key = (ptr.seg, ptr.off);
            let s = shard_of(key);
            match &cur {
                Some((held, _)) if *held == s => {}
                _ => {
                    if let Some((_, mut done)) = cur.take() {
                        done.sweep();
                    }
                    cur = Some((s, self.cache.shards[s].lock()));
                }
            }
            let guard = &mut cur.as_mut().unwrap().1;
            let spare = guard.pool_take(payload.len().saturating_sub(2));
            match decode_payload_value(payload, version, spare) {
                Some(v) => {
                    guard.insert_locked(key, Arc::clone(&v));
                    out[i as usize] = Some(v);
                }
                None => {
                    if let Some((_, mut done)) = cur.take() {
                        done.sweep();
                    }
                    self.fill_single(ptr, version, i, out);
                }
            }
        }
        if let Some((_, mut done)) = cur.take() {
            done.sweep();
        }
    }

    /// Per-pointer fallback fill: one fresh segment read through
    /// [`SegReader::read_value`] (which re-resolves the handle and
    /// mapping, so it heals stale-mapping failures), caching on success
    /// and counting `unresolved_reads` on failure — the same outcome a
    /// single [`ValueTier::resolve`] miss would produce.
    fn fill_single(&self, ptr: ValuePtr, version: u64, i: u32, out: &mut [Option<Arc<ColValue>>]) {
        self.segment_reads.fetch_add(1, Ordering::Relaxed);
        match self.reader.read_value(ptr, version, None) {
            Ok(v) => {
                self.cache.insert((ptr.seg, ptr.off), Arc::clone(&v));
                out[i as usize] = Some(v);
            }
            Err(_) => {
                self.unresolved.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Reads a payload without touching the cache (GC relocation).
    pub fn read_raw(&self, ptr: ValuePtr) -> Result<Vec<u8>, ValueError> {
        self.reader.read(ptr)
    }

    /// Marks the payload `ptr` names as dead (its pointer record was
    /// replaced, removed, or relocated) and drops any cached copy.
    pub fn note_dead(&self, ptr: ValuePtr) {
        if let Some(acct) = self.accounts.lock().get_mut(&ptr.seg) {
            acct.dead = (acct.dead + ptr.len as u64).min(acct.total);
        }
        self.cache.remove((ptr.seg, ptr.off));
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
            value_cache_hits: self.cache_hits.load(Ordering::Relaxed),
            gc_rewritten_bytes: self.gc_rewritten.load(Ordering::Relaxed),
            live_segment_bytes: live,
            unresolved_reads: self.unresolved.load(Ordering::Relaxed),
            segments,
            readahead_batches: self.readahead_batches.load(Ordering::Relaxed),
            clustered_reads: self.clustered_reads.load(Ordering::Relaxed),
            coalesced_bytes: self.coalesced_bytes.load(Ordering::Relaxed),
            shared_misses: self.shared_misses.load(Ordering::Relaxed),
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
        let cols = decode_payload(&buf).unwrap();
        assert_eq!(cols, vec![&b"alpha"[..], &b""[..], &b"gamma-gamma"[..]]);
        // Trailing garbage is refused, not ignored.
        buf.push(0);
        assert!(decode_payload(&buf).is_none());
    }

    #[test]
    fn append_read_rotate() {
        let dir = tmpdir("rot");
        let tier = ValueTier::open(&dir, 64, 1 << 20).unwrap();
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
        let tier = ValueTier::open(&dir, 1 << 20, 0).unwrap();
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
    fn cache_budget_evicts_lru() {
        let dir = tmpdir("lru");
        // Budget fits roughly two decoded values.
        let tier = ValueTier::open(&dir, 1 << 20, 700).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..4u8 {
            let mut p = Vec::new();
            encode_payload(&[&[i; 256]], &mut p);
            ptrs.push(tier.append(&p).unwrap());
        }
        assert!(tier.force());
        for (i, ptr) in ptrs.iter().enumerate() {
            tier.resolve(*ptr, i as u64).unwrap();
        }
        // Hot key stays cached; re-resolving the cold first one misses.
        tier.resolve(ptrs[3], 3).unwrap();
        let before = tier.stats().value_cache_hits;
        tier.resolve(ptrs[3], 3).unwrap();
        assert_eq!(tier.stats().value_cache_hits, before + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_never_holds_more_than_its_budget() {
        // Each entry is charged what its block occupies, and the sweep
        // evicts until the charges fit again, so the blocks a shard
        // keeps never add up to more than its budget.
        const BUDGET: usize = 4096;
        let cache = ValueCache::new(CACHE_SHARDS * BUDGET);
        let mut shard = cache.shards[0].lock();
        let mut seed = 7u64;
        for i in 0..2_000u64 {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let len = (seed >> 33) as usize % 1500;
            shard.insert_locked((0, i), Arc::from(ColValue::single(i, &vec![i as u8; len])));
            // Some second chances, so the hand has to skip entries.
            if i % 3 == 0 {
                shard.get_locked((0, i / 2));
            }
            shard.sweep();
            let held: usize = shard.map.values().map(|e| size_of_val(&*e.val)).sum();
            assert_eq!(shard.bytes, held, "charged bytes are the blocks' sizes");
            assert!(
                held <= BUDGET,
                "{held} bytes held against a {BUDGET}-byte budget"
            );
        }
        // Evicted blocks nobody else held went to the pool, uniquely owned.
        assert_eq!(shard.pool.len(), POOL_CAP);
        assert!(shard.pool.iter_mut().all(|v| Arc::get_mut(v).is_some()));
    }

    #[test]
    fn resolve_many_clusters_contiguous_misses() {
        let dir = tmpdir("many");
        let tier = ValueTier::open(&dir, 1 << 20, 1 << 20).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..32u32 {
            let mut p = Vec::new();
            encode_payload(&[&i.to_le_bytes(), &[i as u8; 100]], &mut p);
            ptrs.push(tier.append(&p).unwrap());
        }
        assert!(tier.force());
        let reqs: Vec<(ValuePtr, u64)> = ptrs.iter().map(|&p| (p, 7)).collect();
        let mut out = Vec::new();
        let mut scratch = ResolveScratch::default();
        tier.resolve_many(&reqs, &mut out, &mut scratch);
        assert_eq!(out.len(), 32);
        for (i, v) in out.iter().enumerate() {
            let v = v.as_ref().expect("all resolvable");
            assert_eq!(v.col(0), Some(&(i as u32).to_le_bytes()[..]));
            assert_eq!(v.col(1), Some(&[i as u8; 100][..]));
        }
        let s = tier.stats();
        // All 32 payloads are contiguous in one segment: one clustered
        // read covers them all.
        assert_eq!(s.clustered_reads, 1, "{s:?}");
        assert_eq!(s.segment_reads, 1, "{s:?}");
        assert_eq!(s.readahead_batches, 1);
        assert!(s.coalesced_bytes >= 32 * 100);
        // Second pass: pure cache hits, no new reads.
        tier.resolve_many(&reqs, &mut out, &mut scratch);
        let s2 = tier.stats();
        assert_eq!(s2.segment_reads, 1);
        assert_eq!(s2.value_cache_hits, s.value_cache_hits + 32);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_many_gap_and_budget_split_windows() {
        let dir = tmpdir("gap");
        let tier = ValueTier::open(&dir, 64 << 20, 1 << 20).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..3u8 {
            let mut p = Vec::new();
            encode_payload(&[&[i; 64]], &mut p);
            ptrs.push(tier.append(&p).unwrap());
            // Pad past the coalescing gap so each miss is its own window.
            let mut pad = Vec::new();
            encode_payload(&[&vec![0xEE; COALESCE_GAP as usize + 64]], &mut pad);
            tier.append(&pad).unwrap();
        }
        assert!(tier.force());
        let reqs: Vec<(ValuePtr, u64)> = ptrs.iter().map(|&p| (p, 1)).collect();
        let mut out = Vec::new();
        let mut scratch = ResolveScratch::default();
        tier.resolve_many(&reqs, &mut out, &mut scratch);
        assert!(out.iter().all(|v| v.is_some()));
        let s = tier.stats();
        assert_eq!(s.clustered_reads, 3, "gap splits windows: {s:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_many_torn_window_falls_back_per_pointer() {
        let dir = tmpdir("torn");
        let tier = ValueTier::open(&dir, 1 << 20, 0).unwrap();
        let mut p = Vec::new();
        encode_payload(&[b"intact-payload"], &mut p);
        let good = tier.append(&p).unwrap();
        assert!(tier.force());
        // A pointer reaching past the segment end tears any window that
        // includes it; the intact payload before it must still resolve.
        let torn = ValuePtr {
            off: good.off + good.len as u64,
            len: 512,
            ..good
        };
        let mut out = Vec::new();
        let mut scratch = ResolveScratch::default();
        tier.resolve_many(&[(good, 1), (torn, 1)], &mut out, &mut scratch);
        assert!(out[0].is_some(), "intact payload survives the torn window");
        assert!(out[1].is_none());
        assert_eq!(tier.stats().unresolved_reads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_many_opposing_probe_orders_do_not_deadlock() {
        // Regression: the probe loop must drop its held shard guard
        // before locking the next shard. Holding-while-acquiring lets
        // two batches whose key sequences cross shards in opposite
        // orders deadlock ABBA-style — this hammers exactly that shape
        // (forward vs reverse key order over a warm cache, so both
        // threads live entirely in the locked-run probe loop).
        let dir = tmpdir("abba");
        let tier = Arc::new(ValueTier::open(&dir, 1 << 20, 1 << 20).unwrap());
        let mut ptrs = Vec::new();
        for i in 0..64u8 {
            let mut p = Vec::new();
            encode_payload(&[&[i; 64]], &mut p);
            ptrs.push(tier.append(&p).unwrap());
        }
        assert!(tier.force());
        let fwd: Vec<(ValuePtr, u64)> = ptrs.iter().map(|&p| (p, 1)).collect();
        let rev: Vec<(ValuePtr, u64)> = ptrs.iter().rev().map(|&p| (p, 1)).collect();
        let mut out = Vec::new();
        let mut scratch = ResolveScratch::default();
        tier.resolve_many(&fwd, &mut out, &mut scratch);
        std::thread::scope(|s| {
            for reqs in [&fwd, &rev] {
                let tier = Arc::clone(&tier);
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut scratch = ResolveScratch::default();
                    for _ in 0..500 {
                        tier.resolve_many(reqs, &mut out, &mut scratch);
                        assert!(out.iter().all(|v| v.is_some()));
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// GC purges a segment a session has mapped: the session's cached
    /// mapping must not outlive the file.
    #[test]
    fn resolve_many_scratch_map_invalidated_by_purge() {
        let dir = tmpdir("scratchmap");
        // Two payloads fill segment S; the third rotates to a new one.
        let tier = ValueTier::open(&dir, 600, 0).unwrap();
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
        let mut out = Vec::new();
        let mut scratch = ResolveScratch::default();
        // The session maps S whole while resolving the first payload;
        // the second payload's bytes are in that mapping too.
        tier.resolve_many(&[(first, 1)], &mut out, &mut scratch);
        assert!(out[0].is_some());
        assert!(scratch.map.as_ref().is_some_and(|m| m.1 == first.seg));
        // GC condemns S and deletes it. The unlinked file's bytes stay
        // readable through the session's mapping, which must not serve
        // them.
        tier.note_dead(first);
        tier.note_dead(second);
        assert_eq!(tier.gc_candidates(0.99), vec![first.seg]);
        tier.condemn(first.seg, 100);
        assert_eq!(tier.delete_condemned(100), 1);
        tier.resolve_many(&[(second, 2)], &mut out, &mut scratch);
        assert!(out[0].is_none(), "served a deleted segment's bytes");
        assert_eq!(tier.stats().unresolved_reads, 1);
        assert_eq!(
            tier.resolve(second, 2).unwrap_err(),
            ValueError::TornOrMissing
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn miss_storm_shares_one_segment_read() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 16;
        let dir = tmpdir("storm");
        // One fresh payload per round, so each round's storm starts on
        // a pointer nobody has resolved yet. A cache shard serves a
        // 64 KiB region of a segment, and each shard's budget holds all
        // the payloads: no fill is evicted before its round ends.
        let tier = Arc::new(ValueTier::open(&dir, 1 << 20, 4 << 20).unwrap());
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
        // Exactly one segment read per round, however the storm
        // interleaved; everyone else hit the cache or shared the read.
        assert_eq!(s.segment_reads, ROUNDS as u64, "{s:?}");
        assert_eq!(
            s.value_cache_hits + s.shared_misses,
            ((THREADS - 1) * ROUNDS) as u64,
            "{s:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn condemn_delete_cycle() {
        let dir = tmpdir("gc");
        let tier = ValueTier::open(&dir, 32, 0).unwrap();
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
