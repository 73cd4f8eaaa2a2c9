//! # mtcache — the hot-path cache tier
//!
//! A **per-worker** cache mapping hot keys to [`LeafHint`]s — remembered
//! `(border node, version, trie-layer offset)` lookup endpoints — so a
//! hit jumps straight to the right border node and serves the value with
//! zero descent (`masstree::hint`). Only reads consult the table: writes
//! always descend from the root, as the paper's do, and never record a
//! hint. The tier is deliberately *not* shared:
//!
//! * **Per-core replacement** — each worker session owns its own table,
//!   so lookups and replacement touch no shared cache lines and need no
//!   synchronization with other workers ("Beyond Worst-case Analysis of
//!   Multicore Caching Strategies": shared replacement state is where
//!   multicore caches lose their scalability).
//! * **Validation instead of invalidation** — hints are conjectures
//!   revalidated on every use against the node's OCC version word, so no
//!   writer ever has to notify any cache. A stale hint simply fails
//!   validation and falls back to a normal descent, which refreshes it.
//!   Staleness is impossible by construction; the price is a bounded
//!   validation-failure rate under churn, which [`CacheStats`] exposes.
//!
//! # Structure — built for the memory hierarchy
//!
//! The table is a fixed-size, set-associative array ([`ASSOC`]-way) with
//! **CLOCK** replacement per set, laid out so the common paths touch as
//! few cache lines as possible:
//!
//! * per-slot **hash tags** live in their own compact array — a probe
//!   that misses costs one cache line per set;
//! * keys are stored **inline** in 64-byte slots (≤ [`MAX_KEY`] bytes;
//!   longer keys are simply not cached) — a hit costs the tag line plus
//!   one slot line, no pointer chases;
//! * the **admission sketch** (aging byte counters) is touched only on
//!   *misses* — that is where admission decisions happen — so hits skip
//!   it entirely. A key earns a slot only after
//!   [`CacheConfig::admit_threshold`] miss observations within the aging
//!   window, which keeps one-shot cold keys from ever churning the
//!   table (no allocation, no eviction, not even a slot write).
//!
//! # Adaptive bypass
//!
//! A hint table cannot help a workload with no reuse — but it can hurt
//! it (every lookup pays hash + probe). The cache therefore watches its
//! own windowed hit rate and, when it stays below a floor, recommends
//! **bypass**: the owner (the `mtkv` session) then routes traffic
//! straight to the tree, sampling roughly 1 in 64 operations through
//! the cache so a workload that turns skewed is noticed and the table
//! re-engages. Uniform traffic thus pays a few nanoseconds, not a probe.

use core::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use masstree::prefetch::prefetch;
use masstree::LeafHint;

/// Ways per set. Eight entries' tags share one cache line, so a probe
/// that misses touches a single line.
const ASSOC: usize = 8;

/// Longest key stored (inline) in the table; longer keys are never
/// cached. 30 bytes keeps a slot — hint, bookkeeping and key — in
/// exactly one cache line, and covers the store's benchmark and YCSB
/// key shapes with room to spare.
pub const MAX_KEY: usize = 30;

/// How many stat events accumulate locally before they are flushed to
/// the shared [`CacheStatsShared`] sink (keeps the hot path free of
/// shared-line traffic).
const STATS_FLUSH_EVERY: u64 = 256;

/// Lookups per hit-rate window while engaged.
const WINDOW: u32 = 4096;
/// Lookups per window while bypassed (these are 1-in-64 samples, so a
/// short window re-evaluates the workload after ~32k operations).
const BYPASS_WINDOW: u32 = 512;
/// Windowed hit rate below which bypass is recommended. A hit saves a
/// few serial cache misses (~200 ns) while every engaged lookup pays
/// the probe (~25-40 ns), so the cost-benefit crossover sits near a
/// 15-20% hit rate; below an eighth the table reliably costs more than
/// it saves.
const BYPASS_BELOW: f64 = 1.0 / 8.0;

/// Tuning for a session's hint cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Hint slots in the table (rounded up to a power of two, min one
    /// set). Each slot is one cache line.
    pub capacity: usize,
    /// Miss observations of a key (within the admission sketch's aging
    /// window) before it earns a table slot. 1 admits on first sight;
    /// the default 2 keeps one-shot cold keys out.
    pub admit_threshold: u8,
    /// Admission sketch counters (rounded up to a power of two). Small
    /// is good: the sketch is touched on every miss, so it should stay
    /// cache-resident.
    pub counters: usize,
    /// Miss observations between sketch agings (every counter is
    /// halved), bounding how long dead keys keep their admission credit.
    pub age_every: u32,
    /// Whether the adaptive bypass governor may disengage the table on
    /// reuse-free workloads (see the module docs).
    pub adaptive_bypass: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::with_capacity(4096)
    }
}

impl CacheConfig {
    /// A config sized for `capacity` hint slots, sketch scaled to match
    /// (but kept small enough to stay cache-resident).
    ///
    /// The aging window is a small fraction (1/16) of the counter count:
    /// a reuse-free stream then lands ~0.06 stray bumps per counter per
    /// window, so with the default threshold of 2 a key must genuinely
    /// recur in the miss stream — within a short window — to earn a
    /// slot. That concentrates the table on the head of the popularity
    /// distribution, whose slots and nodes stay cache-resident (cheap
    /// hits, no churn); it deliberately does NOT chase the lukewarm
    /// tail, whose hits would be DRAM-cold and whose admission would
    /// evict head entries. (Misses, not hits, feed the sketch: a cached
    /// hot key stops contributing the moment it stops missing.)
    pub fn with_capacity(capacity: usize) -> CacheConfig {
        let counters = (capacity * 2).clamp(1024, 16384);
        CacheConfig {
            capacity,
            admit_threshold: 2,
            counters,
            age_every: (counters / 16).max(64) as u32,
            adaptive_bypass: true,
        }
    }
}

/// Event counters for one cache (plain integers: the table is
/// per-worker). `lookups = hits + stale + misses`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookup attempts (sampled ones only, while bypassed).
    pub lookups: u64,
    /// Lookups served by a validated hint (zero descent).
    pub hits: u64,
    /// Lookups whose hint failed validation (split, delete, reuse, or a
    /// racing writer) and fell back to a full descent.
    pub stale: u64,
    /// Lookups with no table entry.
    pub misses: u64,
    /// Hints admitted into the table.
    pub admitted: u64,
    /// Hints refreshed in place (entry already present).
    pub refreshed: u64,
    /// Record attempts rejected (key longer than [`MAX_KEY`]).
    pub rejected: u64,
    /// Entries evicted by CLOCK to make room.
    pub evicted: u64,
    /// Entries dropped by explicit invalidation (`remove`).
    pub invalidated: u64,
    /// Scans resumed at a validated anchor (zero descent).
    pub scan_resumes: u64,
    /// Scan resumptions that fell back to a full descent (no anchor, or
    /// a stale one).
    pub scan_stale: u64,
    /// Server-side scan-token cursors evicted (LRU) at the
    /// per-connection cap. Counted by the network layer — the cache
    /// carries the field so evictions aggregate through the same
    /// per-worker-flush path as every other counter.
    pub scan_evictions: u64,
}

impl CacheStats {
    fn diff(&self, since: &CacheStats) -> CacheStats {
        CacheStats {
            lookups: self.lookups - since.lookups,
            hits: self.hits - since.hits,
            stale: self.stale - since.stale,
            misses: self.misses - since.misses,
            admitted: self.admitted - since.admitted,
            refreshed: self.refreshed - since.refreshed,
            rejected: self.rejected - since.rejected,
            evicted: self.evicted - since.evicted,
            invalidated: self.invalidated - since.invalidated,
            scan_resumes: self.scan_resumes - since.scan_resumes,
            scan_stale: self.scan_stale - since.scan_stale,
            scan_evictions: self.scan_evictions - since.scan_evictions,
        }
    }
}

/// A store-wide aggregation sink: per-worker caches flush their local
/// counters here in batches (every [`STATS_FLUSH_EVERY`] events and on
/// drop), so system-level stats — the network `Stats` request — see
/// every session's traffic without putting shared atomics on the
/// per-lookup hot path.
#[derive(Debug, Default)]
pub struct CacheStatsShared {
    lookups: AtomicU64,
    hits: AtomicU64,
    stale: AtomicU64,
    misses: AtomicU64,
    admitted: AtomicU64,
    refreshed: AtomicU64,
    rejected: AtomicU64,
    evicted: AtomicU64,
    invalidated: AtomicU64,
    scan_resumes: AtomicU64,
    scan_stale: AtomicU64,
    scan_evictions: AtomicU64,
}

impl CacheStatsShared {
    fn add(&self, d: &CacheStats) {
        self.lookups.fetch_add(d.lookups, Ordering::Relaxed);
        self.hits.fetch_add(d.hits, Ordering::Relaxed);
        self.stale.fetch_add(d.stale, Ordering::Relaxed);
        self.misses.fetch_add(d.misses, Ordering::Relaxed);
        self.admitted.fetch_add(d.admitted, Ordering::Relaxed);
        self.refreshed.fetch_add(d.refreshed, Ordering::Relaxed);
        self.rejected.fetch_add(d.rejected, Ordering::Relaxed);
        self.evicted.fetch_add(d.evicted, Ordering::Relaxed);
        self.invalidated.fetch_add(d.invalidated, Ordering::Relaxed);
        self.scan_resumes
            .fetch_add(d.scan_resumes, Ordering::Relaxed);
        self.scan_stale.fetch_add(d.scan_stale, Ordering::Relaxed);
        self.scan_evictions
            .fetch_add(d.scan_evictions, Ordering::Relaxed);
    }

    /// Direct bump for counters owned by layers above the cache (the
    /// network server's scan-token LRU) that have no per-session local
    /// batch to flush through.
    pub fn add_scan_evictions(&self, n: u64) {
        self.scan_evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time aggregate across all flushed sessions.
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            refreshed: self.refreshed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            scan_resumes: self.scan_resumes.load(Ordering::Relaxed),
            scan_stale: self.scan_stale.load(Ordering::Relaxed),
            scan_evictions: self.scan_evictions.load(Ordering::Relaxed),
        }
    }
}

/// One table slot: hint + inline key, exactly one cache line together
/// with its bookkeeping (the alignment makes "one line" literal — an
/// unaligned slot would straddle two). Vacancy is tracked by the tag
/// array (`tag == 0`); the hint is `MaybeUninit` purely to fit the line
/// (an `Option` discriminant would push the slot to 72 bytes) and is
/// written before the tag ever becomes nonzero.
#[repr(align(64))]
struct Slot<V> {
    hint: MaybeUninit<LeafHint<V>>,
    key_len: u8,
    referenced: bool,
    key: [u8; MAX_KEY],
}

impl<V> Slot<V> {
    fn vacant() -> Slot<V> {
        Slot {
            hint: MaybeUninit::uninit(),
            key_len: 0,
            referenced: false,
            key: [0; MAX_KEY],
        }
    }

    #[inline]
    fn key_bytes(&self) -> &[u8] {
        &self.key[..self.key_len as usize]
    }
}

/// One set's hash tags, cache-line-aligned so a probe reads exactly one
/// line (`0` = vacant way).
#[derive(Clone)]
#[repr(align(64))]
struct TagSet([u64; ASSOC]);

/// Result of a table lookup.
pub enum Lookup<V> {
    /// An entry matched; validate this hint against the tree.
    Hit(LeafHint<V>),
    /// No usable entry. `admit` reports whether the key has earned a
    /// slot in the admission sketch — only then is it worth capturing a
    /// hint and calling [`HintCache::record`].
    Miss {
        /// The key crossed the admission threshold.
        admit: bool,
    },
}

/// A per-worker hint table. All methods take `&mut self` — ownership is
/// the synchronization (sessions wrap it in a cheap uncontended mutex
/// only to stay `Sync`).
pub struct HintCache<V> {
    /// Per-set hash tags; scanned before slots are touched so a miss
    /// costs one cache line per set.
    tags: Vec<TagSet>,
    slots: Vec<Slot<V>>,
    /// CLOCK hand per set.
    hands: Vec<u8>,
    set_mask: usize,
    /// Admission sketch: aging byte counters indexed by key hash,
    /// touched only on misses.
    counters: Vec<u8>,
    counter_mask: usize,
    admit_threshold: u8,
    age_every: u32,
    since_age: u32,
    // Adaptive-bypass governor.
    adaptive: bool,
    window_lookups: u32,
    window_hits: u32,
    bypass: bool,
    stats: CacheStats,
    flushed: CacheStats,
    events: u64,
    shared: Option<Arc<CacheStatsShared>>,
}

/// Key hash: 8-byte-chunk multiply-mix (FxHash-style, ~3× cheaper than
/// byte-at-a-time FNV on the 10-30-byte keys this table sees), with a
/// finalizer so the set index (taken from middle bits) is well mixed.
#[inline]
fn hash_key(key: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h: u64 = key.len() as u64;
    let mut chunks = key.chunks_exact(8);
    for c in &mut chunks {
        let x = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(23) ^ x).wrapping_mul(K);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rest.len()].copy_from_slice(rest);
        h = (h.rotate_left(23) ^ u64::from_le_bytes(buf)).wrapping_mul(K);
    }
    h ^= h >> 29;
    h = h.wrapping_mul(K);
    h ^= h >> 32;
    // Never 0: 0 tags a vacant slot.
    h | 1
}

impl<V> HintCache<V> {
    pub fn new(cfg: &CacheConfig) -> HintCache<V> {
        Self::build(cfg, None)
    }

    /// A cache that flushes its counters into `shared` (batched).
    pub fn with_shared(cfg: &CacheConfig, shared: Arc<CacheStatsShared>) -> HintCache<V> {
        Self::build(cfg, Some(shared))
    }

    fn build(cfg: &CacheConfig, shared: Option<Arc<CacheStatsShared>>) -> HintCache<V> {
        let sets = (cfg.capacity.max(ASSOC) / ASSOC).next_power_of_two();
        let slots = sets * ASSOC;
        let counters = cfg.counters.max(64).next_power_of_two();
        HintCache {
            tags: vec![TagSet([0; ASSOC]); sets],
            slots: (0..slots).map(|_| Slot::vacant()).collect(),
            hands: vec![0; sets],
            set_mask: sets - 1,
            counters: vec![0; counters],
            counter_mask: counters - 1,
            admit_threshold: cfg.admit_threshold.max(1),
            age_every: cfg.age_every.max(1),
            since_age: 0,
            adaptive: cfg.adaptive_bypass,
            window_lookups: 0,
            window_hits: 0,
            bypass: false,
            stats: CacheStats::default(),
            flushed: CacheStats::default(),
            events: 0,
            shared,
        }
    }

    /// Hint slots in the table.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn set_base(&self, hash: u64) -> usize {
        ((hash as usize >> 3) & self.set_mask) * ASSOC
    }

    #[inline]
    fn tag(&self, slot: usize) -> u64 {
        self.tags[slot / ASSOC].0[slot % ASSOC]
    }

    #[inline]
    fn set_tag(&mut self, slot: usize, tag: u64) {
        self.tags[slot / ASSOC].0[slot % ASSOC] = tag;
    }

    #[inline]
    fn find(&self, hash: u64, key: &[u8]) -> Option<usize> {
        let base = self.set_base(hash);
        let set = &self.tags[base / ASSOC].0;
        for (way, &t) in set.iter().enumerate() {
            if t == hash && self.slots[base + way].key_bytes() == key {
                return Some(base + way);
            }
        }
        None
    }

    #[inline]
    fn tick(&mut self) {
        self.events += 1;
        if self.events.is_multiple_of(STATS_FLUSH_EVERY) {
            self.flush_stats();
        }
    }

    /// Advances the governor's window with one lookup (`hit` = the tag
    /// probe matched).
    #[inline]
    fn govern(&mut self, hit: bool) {
        self.window_lookups += 1;
        self.window_hits += hit as u32;
        let window = if self.bypass { BYPASS_WINDOW } else { WINDOW };
        if self.window_lookups >= window {
            let rate = self.window_hits as f64 / self.window_lookups as f64;
            self.bypass = self.adaptive && rate < BYPASS_BELOW;
            self.window_lookups = 0;
            self.window_hits = 0;
        }
    }

    /// True when the governor recommends routing traffic straight to
    /// the tree (sampling ~1/64 of it back through [`HintCache::lookup`]
    /// so a workload shift is noticed).
    #[inline]
    pub fn bypass_recommended(&self) -> bool {
        self.bypass
    }

    /// Looks up a hint for `key` on behalf of a read (writes never
    /// consult the table). A hit touches the tag line and one slot line
    /// — the admission sketch is only consulted (and bumped) on misses,
    /// where admission decisions happen. The caller validates a
    /// returned hint and reports the outcome via
    /// [`HintCache::note_hit`] / [`HintCache::note_stale`].
    pub fn lookup(&mut self, key: &[u8]) -> Lookup<V> {
        self.stats.lookups += 1;
        self.tick();
        if key.len() > MAX_KEY {
            // Uncacheable: don't feed the sketch (it would earn useless
            // admission credit and send every later get through a
            // doomed `record`) and don't probe.
            self.stats.misses += 1;
            self.govern(false);
            return Lookup::Miss { admit: false };
        }
        let hash = hash_key(key);
        // Fetch the set's slot lines in parallel with the tag line: on
        // a hit the matching slot has already arrived by the time the
        // tag scan picks its way (8 lines of bandwidth for one serial
        // DRAM latency saved — the hint path lives and dies by its
        // serial memory chain).
        let base = self.set_base(hash);
        for way in 0..ASSOC {
            prefetch(&self.slots[base + way]);
        }
        if let Some(i) = self.find(hash, key) {
            self.govern(true);
            let s = &mut self.slots[i];
            s.referenced = true;
            // SAFETY: a nonzero tag is only ever published after the
            // slot's hint and key are written (`record`), and cleared
            // before vacating (`invalidate`).
            return Lookup::Hit(unsafe { s.hint.assume_init() });
        }
        self.govern(false);
        self.stats.misses += 1;
        // Sampled hot-key accounting: saturating bump, periodic halving.
        let c = &mut self.counters[hash as usize & self.counter_mask];
        *c = c.saturating_add(1);
        let admit = *c >= self.admit_threshold;
        self.since_age += 1;
        if self.since_age >= self.age_every {
            self.since_age = 0;
            for c in &mut self.counters {
                *c >>= 1;
            }
        }
        Lookup::Miss { admit }
    }

    /// Counts a validated hit (zero-descent lookup).
    pub fn note_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Counts a validation failure (the caller fell back to a descent).
    /// The entry stays — the caller's follow-up [`HintCache::record`]
    /// refreshes it in place.
    pub fn note_stale(&mut self) {
        self.stats.stale += 1;
        // A stale probe was still a table hit structurally; feeding it
        // to the governor as a hit is correct — bypass is about table
        // coldness, not tree churn.
    }

    /// Counts a scan resumed at a validated anchor (zero descent).
    pub fn note_scan_resumed(&mut self) {
        self.stats.scan_resumes += 1;
    }

    /// Counts a scan resumption that fell back to a full descent.
    pub fn note_scan_fallback(&mut self) {
        self.stats.scan_stale += 1;
    }

    /// Offers a freshly captured hint. Present entries are refreshed in
    /// place; new keys take a vacant way or evict their set's CLOCK
    /// victim. Callers gate fresh inserts on `Lookup::Miss { admit }`;
    /// keys longer than [`MAX_KEY`] are rejected (never cached).
    pub fn record(&mut self, key: &[u8], hint: LeafHint<V>) {
        if key.len() > MAX_KEY {
            self.stats.rejected += 1;
            return;
        }
        let hash = hash_key(key);
        if let Some(i) = self.find(hash, key) {
            let s = &mut self.slots[i];
            s.hint = MaybeUninit::new(hint);
            s.referenced = true;
            self.stats.refreshed += 1;
            return;
        }
        let base = self.set_base(hash);
        let slot = match (base..base + ASSOC).find(|&i| self.tag(i) == 0) {
            Some(i) => i,
            None => {
                // CLOCK within the set: clear ref bits until a cold
                // entry turns up (bounded by two sweeps).
                let set = base / ASSOC;
                loop {
                    let way = self.hands[set] as usize;
                    self.hands[set] = ((way + 1) % ASSOC) as u8;
                    let s = &mut self.slots[base + way];
                    if s.referenced {
                        s.referenced = false;
                    } else {
                        self.stats.evicted += 1;
                        break base + way;
                    }
                }
            }
        };
        let s = &mut self.slots[slot];
        s.hint = MaybeUninit::new(hint);
        s.key_len = key.len() as u8;
        s.key[..key.len()].copy_from_slice(key);
        s.referenced = true;
        self.set_tag(slot, hash);
        self.stats.admitted += 1;
    }

    /// Drops `key`'s entry (a removed key's hint is dead weight — though
    /// never unsafe: validation would simply report the key absent).
    pub fn invalidate(&mut self, key: &[u8]) {
        if key.len() > MAX_KEY {
            return;
        }
        let hash = hash_key(key);
        if let Some(i) = self.find(hash, key) {
            self.set_tag(i, 0);
            self.slots[i] = Slot::vacant();
            self.stats.invalidated += 1;
        }
    }

    /// This cache's local counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Pushes unflushed counter deltas to the shared sink (no-op without
    /// one). Called automatically every [`STATS_FLUSH_EVERY`] events and
    /// on drop.
    pub fn flush_stats(&mut self) {
        if let Some(shared) = &self.shared {
            shared.add(&self.stats.diff(&self.flushed));
            self.flushed = self.stats;
        }
    }
}

impl<V> Drop for HintCache<V> {
    fn drop(&mut self) {
        self.flush_stats();
    }
}

/// Per-session cache of resumable scan positions: a handful of
/// [`ScanCursor`]s keyed by the full-key bound the next chunk is
/// expected to start from. Sequential chunked range reads (`getrange(k,
/// n)` repeated with `k` = previous end) then transparently resume at
/// the remembered border node instead of re-descending from the root.
///
/// Like the hint table, the cache is per-worker and validation-based: a
/// cursor's anchor is revalidated by the tree on every resume, so a
/// stale entry costs one fallback descent, never a wrong answer.
///
/// Entries recycle their buffers on takeover (the expected-bound string
/// and the cursor's own bound vector keep their capacity), so a warm
/// cursor cache allocates nothing in steady state.
pub struct CursorCache<V> {
    entries: Vec<CursorEntry<V>>,
    clock: u64,
}

struct CursorEntry<V> {
    /// Full-key start the cached cursor continues from (empty = vacant;
    /// an empty *live* bound is representable via `live`).
    expected: Vec<u8>,
    cursor: masstree::ScanCursor<V>,
    reverse: bool,
    live: bool,
    stamp: u64,
}

/// Cursors cached per session; chunked scans rarely interleave more
/// than a couple of independent range streams per connection.
const CURSOR_WAYS: usize = 4;

impl<V> CursorCache<V> {
    pub fn new() -> CursorCache<V> {
        CursorCache {
            entries: Vec::new(),
            clock: 0,
        }
    }

    /// Takes the cursor expected to continue at `start` in the given
    /// direction, if one is cached (the entry becomes vacant — put the
    /// cursor back with [`CursorCache::put`] when the chunk completes).
    pub fn take(&mut self, start: &[u8], reverse: bool) -> Option<masstree::ScanCursor<V>> {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.live && e.reverse == reverse && e.expected == start)?;
        e.live = false;
        // Swap in a placeholder (empty bounds allocate nothing).
        Some(core::mem::replace(
            &mut e.cursor,
            masstree::ScanCursor::forward(&[]),
        ))
    }

    /// Caches `cursor` under its current bound (the key the next chunk
    /// of the same stream will start from). Exhausted cursors are not
    /// worth a slot. Reuses a vacant entry's buffers, or evicts the
    /// least-recently-stored entry once `CURSOR_WAYS` are live.
    pub fn put(&mut self, cursor: masstree::ScanCursor<V>) {
        if cursor.is_done() {
            return;
        }
        self.clock += 1;
        let stamp = self.clock;
        let slot = match self.entries.iter_mut().position(|e| !e.live) {
            Some(i) => i,
            None if self.entries.len() < CURSOR_WAYS => {
                self.entries.push(CursorEntry {
                    expected: Vec::new(),
                    cursor: masstree::ScanCursor::forward(&[]),
                    reverse: false,
                    live: false,
                    stamp: 0,
                });
                self.entries.len() - 1
            }
            None => {
                let (i, _) = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.stamp)
                    .expect("ways is nonzero");
                i
            }
        };
        let e = &mut self.entries[slot];
        e.expected.clear();
        e.expected.extend_from_slice(cursor.bound());
        e.reverse = cursor.is_reverse();
        e.live = true;
        e.stamp = stamp;
        e.cursor = cursor;
    }

    /// [`CursorCache::take`], falling back to a cursor **re-aimed** at
    /// `start` when no cached continuation matches. The fallback claims
    /// a vacant entry's buffers first, then (below capacity) a fresh
    /// cursor, and only at full capacity recycles the least-recently
    /// stored live entry — so starting a new stream never destroys
    /// another live stream's continuation while slots remain, and a
    /// warm cache still allocates nothing (every entry's buffers keep
    /// their capacity). The second return value reports whether a
    /// cached continuation was found.
    pub fn take_or_start(
        &mut self,
        start: &[u8],
        reverse: bool,
    ) -> (masstree::ScanCursor<V>, bool) {
        if let Some(c) = self.take(start, reverse) {
            return (c, true);
        }
        // Vacant entry (a previously taken/expired slot): reuse its
        // cursor's buffers.
        if let Some(e) = self.entries.iter_mut().find(|e| !e.live) {
            let mut c = core::mem::replace(&mut e.cursor, masstree::ScanCursor::forward(&[]));
            c.reset(start, reverse);
            return (c, false);
        }
        if self.entries.len() >= CURSOR_WAYS {
            // Full: recycle the least-recently stored live stream.
            if let Some(e) = self.entries.iter_mut().min_by_key(|e| e.stamp) {
                e.live = false;
                let mut c = core::mem::replace(&mut e.cursor, masstree::ScanCursor::forward(&[]));
                c.reset(start, reverse);
                return (c, false);
            }
        }
        let mut c = masstree::ScanCursor::forward(&[]);
        c.reset(start, reverse);
        (c, false)
    }

    /// Drops every cached cursor (e.g. after a bulk delete, where the
    /// anchors are all dead weight).
    pub fn clear(&mut self) {
        for e in &mut self.entries {
            e.live = false;
        }
    }
}

impl<V> Default for CursorCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masstree::Masstree;

    fn hint_for(tree: &Masstree<u64>, key: &[u8]) -> LeafHint<u64> {
        let g = masstree::pin();
        tree.get_capturing_hint(key, &g).1
    }

    fn admit_of<V>(l: Lookup<V>) -> bool {
        match l {
            Lookup::Miss { admit } => admit,
            Lookup::Hit(_) => panic!("expected a miss"),
        }
    }

    #[test]
    fn slot_is_one_cache_line() {
        assert!(std::mem::size_of::<Slot<u64>>() <= 64, "one line per slot");
    }

    #[test]
    fn admission_keeps_one_shot_keys_out() {
        let tree: Masstree<u64> = Masstree::new();
        {
            let g = masstree::pin();
            tree.put(b"k", 1, &g);
        }
        let mut c: HintCache<u64> = HintCache::new(&CacheConfig::default());
        let h = hint_for(&tree, b"k");
        // First sight: one sketch observation (< threshold 2) → the
        // caller is told not to bother recording.
        assert!(!admit_of(c.lookup(b"k")));
        // Second sight: earned admission.
        assert!(admit_of(c.lookup(b"k")));
        c.record(b"k", h);
        assert_eq!(c.stats().admitted, 1);
        assert!(matches!(c.lookup(b"k"), Lookup::Hit(_)));
    }

    #[test]
    fn long_keys_are_never_cached() {
        let tree: Masstree<u64> = Masstree::new();
        let long = vec![b'x'; MAX_KEY + 1];
        {
            let g = masstree::pin();
            tree.put(&long, 1, &g);
        }
        let mut c: HintCache<u64> = HintCache::new(&CacheConfig::default());
        // Lookups never grant a long key admission credit...
        assert!(matches!(c.lookup(&long), Lookup::Miss { admit: false }));
        assert!(matches!(c.lookup(&long), Lookup::Miss { admit: false }));
        // ...and a (hypothetical) record attempt is rejected outright.
        c.record(&long, hint_for(&tree, &long));
        assert_eq!(c.stats().rejected, 1);
        assert!(matches!(c.lookup(&long), Lookup::Miss { .. }));
    }

    #[test]
    fn record_refreshes_in_place_and_invalidate_drops() {
        let tree: Masstree<u64> = Masstree::new();
        {
            let g = masstree::pin();
            tree.put(b"k", 1, &g);
        }
        let mut c: HintCache<u64> = HintCache::new(&CacheConfig::with_capacity(64));
        let h = hint_for(&tree, b"k");
        c.lookup(b"k");
        c.lookup(b"k");
        c.record(b"k", h);
        c.record(b"k", h);
        assert_eq!(c.stats().admitted, 1);
        assert_eq!(c.stats().refreshed, 1);
        c.invalidate(b"k");
        assert!(matches!(c.lookup(b"k"), Lookup::Miss { .. }));
        assert_eq!(c.stats().invalidated, 1);
    }

    #[test]
    fn clock_evicts_cold_entries_under_pressure() {
        let tree: Masstree<u64> = Masstree::new();
        {
            let g = masstree::pin();
            for i in 0..64u64 {
                tree.put(format!("p{i:03}").as_bytes(), i, &g);
            }
        }
        // A tiny single-set table with admit-on-first-sight.
        let cfg = CacheConfig {
            capacity: ASSOC,
            admit_threshold: 1,
            counters: 64,
            age_every: 1_000_000,
            adaptive_bypass: false,
        };
        let mut c: HintCache<u64> = HintCache::new(&cfg);
        // Overfill: every key hashes somewhere in the one set.
        for i in 0..32u64 {
            let k = format!("p{i:03}");
            c.lookup(k.as_bytes());
            c.record(k.as_bytes(), hint_for(&tree, k.as_bytes()));
        }
        assert!(c.stats().evicted >= 32 - ASSOC as u64);
        // Table still serves the most recent keys.
        let present = (0..32u64)
            .filter(|i| matches!(c.lookup(format!("p{i:03}").as_bytes()), Lookup::Hit(_)))
            .count();
        assert!(present > 0 && present <= ASSOC);
    }

    #[test]
    fn aging_halves_counters() {
        let cfg = CacheConfig {
            capacity: 64,
            admit_threshold: 2,
            counters: 64,
            age_every: 8,
            ..CacheConfig::default()
        };
        let mut c: HintCache<u64> = HintCache::new(&cfg);
        for _ in 0..7 {
            c.lookup(b"hot");
        }
        let idx = hash_key(b"hot") as usize & c.counter_mask;
        assert_eq!(c.counters[idx], 7);
        c.lookup(b"hot"); // 8th miss triggers aging after the bump
        assert_eq!(c.counters[idx], 4);
    }

    #[test]
    fn governor_bypasses_reuse_free_traffic_and_recovers() {
        let cfg = CacheConfig {
            capacity: 256,
            admit_threshold: 2,
            counters: 256,
            age_every: 1024,
            adaptive_bypass: true,
        };
        let mut c: HintCache<u64> = HintCache::new(&cfg);
        assert!(!c.bypass_recommended());
        // A full window of pure misses → bypass.
        for i in 0..WINDOW {
            c.lookup(format!("cold{i:08}").as_bytes());
        }
        assert!(c.bypass_recommended(), "cold window must engage bypass");
        // Hot sampled traffic exits bypass within a (short) window.
        let tree: Masstree<u64> = Masstree::new();
        {
            let g = masstree::pin();
            tree.put(b"hot", 1, &g);
        }
        c.lookup(b"hot");
        c.lookup(b"hot");
        c.record(b"hot", hint_for(&tree, b"hot"));
        for _ in 0..BYPASS_WINDOW {
            c.lookup(b"hot");
        }
        assert!(!c.bypass_recommended(), "hot samples must re-engage");
    }

    #[test]
    fn shared_sink_aggregates_across_caches() {
        let shared = Arc::new(CacheStatsShared::default());
        let cfg = CacheConfig::default();
        {
            let mut a: HintCache<u64> = HintCache::with_shared(&cfg, Arc::clone(&shared));
            let mut b: HintCache<u64> = HintCache::with_shared(&cfg, Arc::clone(&shared));
            for _ in 0..10 {
                a.lookup(b"x");
                b.lookup(b"y");
            }
            // Drop flushes the unflushed tail.
        }
        let s = shared.snapshot();
        assert_eq!(s.lookups, 20);
        assert_eq!(s.misses, 20);
    }
}
