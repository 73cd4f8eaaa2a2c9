//! The Masstree storage system (§3 and §5): `get_c`/`put_c`/`remove`/
//! `getrange_c` over multi-column values, with per-worker value logging
//! and an **online durability subsystem**.
//!
//! Workers register a [`Session`]; each session owns one segmented log
//! chain (per-core logs in the paper). Puts apply to the shared tree,
//! append to the session's log buffer, and return without waiting for
//! storage; logging threads batch and force every 200 ms (`log.rs`).
//!
//! A store configured with a checkpoint interval also owns a
//! **background checkpointer** thread (§4.4): it periodically writes a
//! fuzzy checkpoint of the live tree with the existing multi-threaded
//! checkpointer (writers keep logging throughout — no stalls), publishes
//! the manifest atomically, truncates every log segment the checkpoint
//! covers, and prunes superseded checkpoints. Log space and recovery
//! time are thereby bounded by the checkpoint cadence instead of process
//! uptime.

use std::path::{Path, PathBuf};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use masstree::hint::{HintResult, HintedGet};
use masstree::{HintBatchScratch, LeafHint, Masstree};
use mtcache::{CacheConfig, CacheStats, CacheStatsShared, HintCache, Lookup};
use mtobs::{Kind as ObsKind, Obs, Recorder, Stage};
use parking_lot::{Condvar, Mutex};

use crate::checkpoint::{
    prune_checkpoints, write_checkpoint_with, CheckpointMeta, PartWriter, PART_WRITERS,
};
use crate::log::{BarrierOutcome, CrashPoint, LogRecord, LogWriter, PendingRecords, SegmentWalker};
use crate::value::{ColValue, ValuePtr};
use crate::vtier::{self, ResolveScratch, ValueError, ValueTier, ValueTierStats};

/// Tuning for the online durability subsystem. A checkpoint's writer
/// count is not a setting: it is [`crate::checkpoint::PART_WRITERS`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Rotation threshold for each session's log segments.
    pub segment_bytes: u64,
    /// How often the background checkpointer runs (`None`: no background
    /// thread; checkpoints happen only via [`Store::checkpoint_now`]).
    /// The paper checkpoints about once a minute.
    pub checkpoint_interval: Option<Duration>,
    /// Complete checkpoints to keep on disk (older ones are pruned).
    pub keep_checkpoints: usize,
    /// Value-separation threshold: a put whose resulting value has at
    /// least this many data bytes goes to the value tier (the leaf
    /// keeps a fixed-size pointer record). `None` keeps every value
    /// inline — the pre-separation write path, byte for byte.
    pub value_threshold: Option<usize>,
    /// Rotation threshold for value segments.
    pub value_segment_bytes: u64,
    /// Byte budget of the in-memory cache indirect reads go through
    /// before touching disk.
    pub value_cache_bytes: usize,
    /// Dead fraction at which a sealed value segment becomes a GC
    /// rewrite candidate.
    pub gc_dead_fraction: f64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            segment_bytes: crate::log::DEFAULT_SEGMENT_BYTES,
            checkpoint_interval: None,
            keep_checkpoints: 2,
            value_threshold: None,
            value_segment_bytes: vtier::DEFAULT_VALUE_SEGMENT_BYTES,
            value_cache_bytes: vtier::DEFAULT_VALUE_CACHE_BYTES,
            gc_dead_fraction: 0.5,
        }
    }
}

impl DurabilityConfig {
    /// A config with a small rotation threshold (tests, benchmarks).
    pub fn tiny_segments(segment_bytes: u64) -> DurabilityConfig {
        DurabilityConfig {
            segment_bytes,
            ..DurabilityConfig::default()
        }
    }

    /// A config with the background checkpointer enabled.
    pub fn with_interval(mut self, interval: Duration) -> DurabilityConfig {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Enables the value-separation tier: values of at least
    /// `threshold` data bytes spill to value segments, and indirect
    /// reads go through a cache capped at `cache_bytes`.
    pub fn with_value_separation(mut self, threshold: usize, cache_bytes: usize) -> Self {
        self.value_threshold = Some(threshold);
        self.value_cache_bytes = cache_bytes;
        self
    }
}

/// A snapshot of the durability subsystem, served to clients through the
/// network `Stats`/`Flush` admin requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Checkpoints completed this store lifetime.
    pub checkpoints: u64,
    /// `start_ts` of the newest completed checkpoint (0 if none yet).
    pub last_checkpoint_start_ts: u64,
    /// Total bytes across the live log segments.
    pub log_bytes: u64,
    /// Live log segment files.
    pub log_segments: u64,
    /// Segments deleted by checkpoint truncation this lifetime.
    pub segments_truncated: u64,
}

/// The background checkpointer thread's handle.
struct BgCheckpointer {
    thread: Option<std::thread::JoinHandle<()>>,
    thread_id: std::thread::ThreadId,
    signal: Arc<BgSignal>,
}

struct BgSignal {
    lock: Mutex<bool>, // true = stop requested
    cond: Condvar,
}

/// What a durability cycle reuses from one cycle to the next, kept
/// under the lock that serializes cycles and allocated by the first one:
/// the part writers' buffers, and the truncation pass's read window.
#[derive(Default)]
struct CycleBuffers {
    parts: [PartWriter; PART_WRITERS],
    walker: SegmentWalker,
}

/// The shared store: one Masstree of [`ColValue`]s plus logging and
/// online durability state.
pub struct Store {
    pub(crate) tree: Masstree<ColValue>,
    /// Global value-version source: per-value versions are strictly
    /// increasing because every put draws a fresh version (§5).
    next_version: AtomicU64,
    log_dir: Option<PathBuf>,
    next_log_id: AtomicU64,
    config: DurabilityConfig,
    /// Checkpoints completed this lifetime (the "checkpoint epoch").
    ckpt_epoch: AtomicU64,
    /// `start_ts` of the newest completed checkpoint.
    last_ckpt_start_ts: AtomicU64,
    /// Segments deleted by truncation this lifetime.
    truncated: AtomicU64,
    /// Serializes durability cycles (background vs. `checkpoint_now`),
    /// and holds the buffers they reuse.
    cycle_lock: Mutex<CycleBuffers>,
    bg: Mutex<Option<BgCheckpointer>>,
    /// Weak handles to every session's log (tagged with the session id),
    /// so a durability cycle can group-commit all of them past a
    /// checkpoint before truncating, and exempt live sessions from the
    /// whole-chain truncation rule.
    log_handles: Mutex<Vec<(u64, crate::log::LogForceHandle)>>,
    /// Set (permanently) when any session's logger dies without
    /// completing its shutdown protocol — I/O error or simulated crash.
    /// The dead session's torn chain stays on disk with a last durable
    /// timestamp that may sit below any later checkpoint's `start_ts`,
    /// so a future recovery cutoff could reject that checkpoint;
    /// durability cycles therefore stop truncating log segments (the
    /// logs remain the authoritative copy) until a recovery reseals the
    /// directory. Shared with every logger via
    /// `LogWriter::open_segmented_poisoned` because the writer can be
    /// dropped before the next cycle would observe the crash.
    log_poison: Arc<AtomicBool>,
    /// Hot-path cache tier (`mtcache`): when set, every new [`Session`]
    /// gets its own per-worker leaf-hint cache with this tuning.
    session_cache: Mutex<Option<CacheConfig>>,
    /// Store-wide aggregation sink for the per-session cache counters
    /// (served through the network `Stats` request).
    cache_shared: Arc<CacheStatsShared>,
    /// Weak handles to every live session's cache, so a store-level
    /// stats read ([`Store::cache_stats`]) can flush **all** sessions'
    /// batched local counters into the shared sink — not just the
    /// requesting session's.
    cache_registry: Mutex<Vec<Weak<SessionCache>>>,
    /// Latency observability hub (`mtobs`): every session registers a
    /// per-worker histogram recorder here (the [`Store::cache_stats`]
    /// registry discipline), background subsystems record into its
    /// global set, and wire-level `StatsEx` / the metrics endpoint
    /// snapshot-merge the lot.
    obs: Arc<Obs>,
    /// The value-separation tier (`vtier`): cold value segments, the
    /// budgeted resolution cache, and segment liveness accounting.
    /// `None` when separation is off and no value segments exist.
    vtier: Option<Arc<ValueTier>>,
    /// The GC relocator's own log chain, created lazily on the first
    /// relocation: rewritten pointers are WAL-logged like any other
    /// put, so a crash mid-GC replays them (version-gated) instead of
    /// leaving the tree pointing into a segment a later pass deletes.
    gc_log: Mutex<Option<LogWriter>>,
    /// Batch-planning totals reported by the batch executors
    /// ([`Store::note_batch_plan`]): phases executed, and how many of
    /// them a same-key conflict forced.
    batch_phases: AtomicU64,
    batch_conflict_splits: AtomicU64,
    /// Test hook: the next checkpoint part writer to start panics.
    #[cfg(test)]
    inject_writer_panic: AtomicBool,
    /// Test counter: rows the durability cycles' walks visited.
    #[cfg(test)]
    pub(crate) walked_rows: AtomicU64,
}

impl Store {
    /// An in-memory store (no logging) — used for tree-only benchmarks.
    pub fn in_memory() -> Arc<Store> {
        Arc::new(Store::new_with(
            Masstree::new(),
            1,
            None,
            DurabilityConfig::default(),
        ))
    }

    /// A persistent store logging into `dir` (one segmented log chain
    /// per session), with default durability tuning (64 MiB segments, no
    /// background checkpointer).
    pub fn persistent(dir: &Path) -> std::io::Result<Arc<Store>> {
        Self::persistent_with(dir, DurabilityConfig::default())
    }

    /// A persistent store with explicit durability tuning. When
    /// `config.checkpoint_interval` is set, a background checkpointer
    /// thread runs the checkpoint → truncate → prune cycle on that
    /// cadence until the store is dropped.
    pub fn persistent_with(dir: &Path, config: DurabilityConfig) -> std::io::Result<Arc<Store>> {
        std::fs::create_dir_all(dir)?;
        let mut store = Store::new_with(Masstree::new(), 1, Some(dir.to_path_buf()), config);
        store.attach_value_tier()?;
        let store = Arc::new(store);
        store.spawn_background_checkpointer();
        Ok(store)
    }

    fn new_with(
        tree: Masstree<ColValue>,
        next_version: u64,
        log_dir: Option<PathBuf>,
        config: DurabilityConfig,
    ) -> Store {
        let next_log_id = log_dir.as_deref().map(next_log_id_in).unwrap_or(0);
        Store {
            tree,
            next_version: AtomicU64::new(next_version),
            log_dir,
            next_log_id: AtomicU64::new(next_log_id),
            config,
            ckpt_epoch: AtomicU64::new(0),
            last_ckpt_start_ts: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            cycle_lock: Mutex::new(CycleBuffers::default()),
            bg: Mutex::new(None),
            log_handles: Mutex::new(Vec::new()),
            log_poison: Arc::default(),
            session_cache: Mutex::new(None),
            cache_shared: Arc::default(),
            cache_registry: Mutex::new(Vec::new()),
            obs: Arc::default(),
            vtier: None,
            gc_log: Mutex::new(None),
            batch_phases: AtomicU64::new(0),
            batch_conflict_splits: AtomicU64::new(0),
            #[cfg(test)]
            inject_writer_panic: AtomicBool::new(false),
            #[cfg(test)]
            walked_rows: AtomicU64::new(0),
        }
    }

    /// Consumes the injected part-writer panic, if one is armed.
    #[cfg(test)]
    pub(crate) fn take_injected_writer_panic(&self) -> bool {
        self.inject_writer_panic.swap(false, Ordering::Relaxed)
    }

    /// The store's observability hub: per-worker latency histograms,
    /// background-subsystem timings, sampled traces.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    pub(crate) fn with_state(
        tree: Masstree<ColValue>,
        next_version: u64,
        config: DurabilityConfig,
    ) -> Store {
        Store::new_with(tree, next_version, None, config)
    }

    /// Re-attaches logging (used after recovery).
    pub(crate) fn set_log_dir(&mut self, dir: PathBuf) {
        self.next_log_id
            .store(next_log_id_in(&dir), Ordering::Relaxed);
        self.log_dir = Some(dir);
    }

    /// Mounts the value tier over the log directory when the config
    /// enables separation **or** value segments already exist on disk
    /// (a recovered store must keep resolving old pointers even with
    /// the threshold now off). No-op for in-memory stores and when
    /// neither condition holds — the all-inline path stays untouched.
    pub(crate) fn attach_value_tier(&mut self) -> std::io::Result<()> {
        let Some(dir) = self.log_dir.clone() else {
            return Ok(());
        };
        if self.config.value_threshold.is_none() && vtier::vseg_ids(&dir).is_empty() {
            return Ok(());
        }
        let tier = ValueTier::open(
            &dir,
            self.config.value_segment_bytes,
            self.config.value_cache_bytes,
        )?;
        tier.set_obs(Arc::clone(&self.obs));
        self.vtier = Some(Arc::new(tier));
        Ok(())
    }

    /// The mounted value tier, if any.
    pub fn value_tier(&self) -> Option<&Arc<ValueTier>> {
        self.vtier.as_ref()
    }

    /// Value-tier observability counters (zeros when no tier mounted).
    pub fn value_tier_stats(&self) -> ValueTierStats {
        self.vtier.as_ref().map(|t| t.stats()).unwrap_or_default()
    }

    /// Resolves an indirect value's payload through the tier cache.
    pub(crate) fn resolve_indirect(
        &self,
        ptr: ValuePtr,
        version: u64,
    ) -> Result<Arc<ColValue>, ValueError> {
        match &self.vtier {
            Some(t) => t.resolve(ptr, version),
            None => Err(ValueError::TornOrMissing),
        }
    }

    /// Batched [`Store::resolve_indirect`]: one cache probe per request,
    /// misses coalesced into clustered segment reads (see
    /// [`ValueTier::resolve_many`]). Without a mounted tier every
    /// request resolves to `None`, matching the single-resolve error.
    pub(crate) fn resolve_indirect_many(
        &self,
        reqs: &[(ValuePtr, u64)],
        out: &mut Vec<Option<Arc<ColValue>>>,
        scratch: &mut ResolveScratch,
    ) {
        match &self.vtier {
            Some(t) => t.resolve_many(reqs, out, scratch),
            None => {
                out.clear();
                out.resize(reqs.len(), None);
            }
        }
    }

    /// Forces the value tier (ordered **before** any WAL force on every
    /// ack path: a durable pointer record then always names a durable
    /// payload). Trivially true when no tier is mounted.
    #[must_use]
    pub fn force_value_tier(&self) -> bool {
        self.vtier.as_ref().map(|t| t.force()).unwrap_or(true)
    }

    /// Builds the inline result of applying `updates` over `old`,
    /// resolving an indirect base through the tier first so column
    /// merges see the real columns (and reporting the superseded
    /// pointer through `dead_ptr` for liveness accounting). An
    /// unresolvable base — torn or corrupt payload — is treated as
    /// absent rather than failing the put: the write is the newest
    /// intent and wins.
    fn build_value(
        &self,
        old: Option<&ColValue>,
        updates: &[(usize, &[u8])],
        version: u64,
        dead_ptr: &mut Option<ValuePtr>,
    ) -> Box<ColValue> {
        match old {
            None => ColValue::from_updates(version, updates),
            Some(prev) => match prev.ptr() {
                None => prev.with_updates(version, updates),
                Some(p) => {
                    *dead_ptr = Some(p);
                    match self.resolve_indirect(p, prev.version()) {
                        Ok(base) => base.with_updates(version, updates),
                        Err(_) => ColValue::from_updates(version, updates),
                    }
                }
            },
        }
    }

    /// Spills `newval` to the value tier when separation is on and the
    /// value's data bytes reach the threshold: the payload is appended
    /// to the active value segment and an indirect pointer record is
    /// returned in its place (which the WAL then logs as a
    /// `PutIndirect`). Below the threshold — or with separation off, or
    /// on an append failure — the value stays inline, which is always
    /// correct.
    fn separate_value(&self, newval: Box<ColValue>, version: u64) -> Box<ColValue> {
        let (Some(threshold), Some(tier)) = (self.config.value_threshold, &self.vtier) else {
            return newval;
        };
        if newval.is_indirect() || newval.data_bytes() < threshold {
            return newval;
        }
        let cols: Vec<&[u8]> = (0..newval.ncols())
            .map(|i| newval.col(i).unwrap_or(&[]))
            .collect();
        let mut payload = Vec::with_capacity(newval.data_bytes() + 4 * cols.len() + 2);
        vtier::encode_payload(&cols, &mut payload);
        match tier.append(&payload) {
            Ok(ptr) => ColValue::indirect(version, ptr),
            Err(_) => newval,
        }
    }

    /// The write path's value factory, run at a put's linearization
    /// point (under the owning border node's lock): draws the version,
    /// builds the resulting value over `old`, spills it to the value
    /// tier when it qualifies, and — when the session logs — queues the
    /// WAL record straight from the new value's column slices. The
    /// record carries the **full resulting value**, not the update
    /// delta: replay is version-gated and order-insensitive (parallel
    /// recovery), and a delta applied without the records it merged
    /// over would silently drop the other columns.
    fn make_value(
        &self,
        old: Option<&ColValue>,
        key: &[u8],
        updates: &[(usize, &[u8])],
        dead_ptr: &mut Option<ValuePtr>,
        wal: Option<&mut PendingRecords>,
    ) -> Box<ColValue> {
        let version = self.draw_version();
        let newval = self.build_value(old, updates, version, dead_ptr);
        let newval = self.separate_value(newval, version);
        if let Some(wal) = wal {
            wal.put(version, key, &newval);
        }
        newval
    }

    /// Credits a superseded pointer's bytes to its segment's dead count.
    fn note_dead_ptr(&self, ptr: Option<ValuePtr>) {
        if let (Some(p), Some(t)) = (ptr, &self.vtier) {
            t.note_dead(p);
        }
    }

    /// Starts the background checkpointer if the config asks for one.
    /// The thread holds only a `Weak` reference, so it never keeps the
    /// store alive; it exits when the store is dropped or stopped.
    pub(crate) fn spawn_background_checkpointer(self: &Arc<Store>) {
        let Some(interval) = self.config.checkpoint_interval else {
            return;
        };
        if self.log_dir.is_none() {
            return;
        }
        let signal = Arc::new(BgSignal {
            lock: Mutex::new(false),
            cond: Condvar::new(),
        });
        let sig2 = Arc::clone(&signal);
        let weak: Weak<Store> = Arc::downgrade(self);
        let thread = std::thread::Builder::new()
            .name("mt-checkpointer".into())
            .spawn(move || loop {
                {
                    let mut stop = sig2.lock.lock();
                    if !*stop {
                        sig2.cond.wait_for(&mut stop, interval);
                    }
                    if *stop {
                        return;
                    }
                }
                let Some(store) = weak.upgrade() else { return };
                // Errors are not fatal to the loop: a transient I/O
                // failure or a panicked part writer just means this
                // cycle's checkpoint is skipped and the logs keep
                // everything.
                let _ = store.run_durability_cycle();
            })
            .expect("spawn checkpointer");
        *self.bg.lock() = Some(BgCheckpointer {
            thread_id: thread.thread().id(),
            thread: Some(thread),
            signal,
        });
    }

    /// Stops the background checkpointer (idempotent). Called on drop;
    /// also usable by tests that want a quiescent store.
    pub fn stop_background_checkpointer(&self) {
        let Some(mut bg) = self.bg.lock().take() else {
            return;
        };
        *bg.signal.lock.lock() = true;
        bg.signal.cond.notify_all();
        if let Some(t) = bg.thread.take() {
            // The last Arc can be dropped *by* the checkpointer thread
            // itself (it upgrades its Weak for the duration of a cycle);
            // a thread cannot join itself, so detach in that case — the
            // stop flag above makes it exit on its next loop iteration.
            if bg.thread_id == std::thread::current().id() {
                drop(t);
            } else {
                let _ = t.join();
            }
        }
    }

    /// One durability cycle (§4.4, run by the background checkpointer
    /// and by [`Store::checkpoint_now`]): write a fuzzy checkpoint of
    /// the live tree in parallel with request processing, publish its
    /// manifest atomically, truncate every log segment it covers, and
    /// prune superseded checkpoints.
    fn run_durability_cycle(self: &Arc<Self>) -> std::io::Result<CheckpointMeta> {
        let dir = self
            .log_dir
            .clone()
            .ok_or_else(|| std::io::Error::other("in-memory store has no durability"))?;
        let mut cycle = self.cycle_lock.lock();
        // Fixed before the part walks, which collect the references.
        let gc_candidates = self.vtier.as_ref().map_or_else(Vec::new, |tier| {
            tier.gc_candidates(self.config.gc_dead_fraction)
        });
        let ckpt_t0 = Instant::now();
        let meta = write_checkpoint_with(self, &dir, &mut cycle.parts, &gc_candidates)?;
        self.obs
            .global()
            .record(ObsKind::Checkpoint, ckpt_t0.elapsed().as_nanos() as u64);
        // Publish the epoch only after the manifest rename: `Flush`
        // waiters observing the new epoch may rely on the checkpoint
        // being durable.
        self.last_ckpt_start_ts
            .store(meta.start_ts, Ordering::Release);
        self.ckpt_epoch.fetch_add(1, Ordering::Release);
        // Group-commit barrier before truncation: force every live log
        // so each durably holds a record stamped after `start_ts`. Any
        // future recovery cutoff is then ≥ start_ts, so the checkpoint
        // we are about to make the *only* copy of the covered records
        // can never be rejected. Cleanly closed logs are excluded from
        // the cutoff and need no barrier (their handles are pruned as a
        // side effect); a log whose durability the barrier could NOT
        // confirm — dead on an I/O error, or a close whose final sync is
        // still in flight — blocks truncation for this cycle, because a
        // crash would leave its chain's last durable timestamp below
        // `start_ts` and recovery would reject the checkpoint.
        // Payloads before pointers: any WAL record the barrier is about
        // to make durable may carry a value pointer.
        let tier_forced = self.force_value_tier();
        let barrier_t0 = Instant::now();
        let mut barrier_confirmed = true;
        let live_sessions: Vec<u64> = {
            let mut handles = self.log_handles.lock();
            // A request on every log first, then a wait on each: every
            // logger thread runs its own sync meanwhile, so the barrier
            // costs the slowest sync, not the sum.
            let requests: Vec<_> = handles.iter().map(|(_, h)| h.request_barrier()).collect();
            let mut filed = requests.into_iter();
            handles.retain(
                |(_, h)| match h.wait_barrier(filed.next().expect("one per handle")) {
                    BarrierOutcome::Synced => true,
                    BarrierOutcome::Closed => false,
                    BarrierOutcome::Unconfirmed => {
                        barrier_confirmed = false;
                        true
                    }
                },
            );
            handles.iter().map(|&(id, _)| id).collect()
        };
        self.obs
            .global()
            .record(ObsKind::Barrier, barrier_t0.elapsed().as_nanos() as u64);
        // The poison flag covers crashes the barrier can no longer see
        // (a logger that died and whose writer was already dropped): its
        // torn chain pins future cutoffs, so truncation stays off until
        // a recovery reseals the directory. Pruning stays off with it:
        // records truncated in earlier *healthy* cycles now exist only
        // in the checkpoints of that era, and an older checkpoint may be
        // the only one whose `start_ts` a post-crash cutoff accepts
        // (recovery falls back to the newest checkpoint at or before the
        // cutoff) — deleting it would orphan those records.
        let gates_held =
            tier_forced && barrier_confirmed && !self.log_poison.load(Ordering::Acquire);
        if gates_held {
            let truncate_t0 = Instant::now();
            let tr = crate::log::truncate_covered_segments_excluding(
                &mut cycle.walker,
                &dir,
                meta.start_ts,
                &live_sessions,
            )?;
            self.truncated
                .fetch_add(tr.segments_deleted, Ordering::Relaxed);
            prune_checkpoints(&dir, self.config.keep_checkpoints.max(1))?;
            self.obs
                .global()
                .record(ObsKind::Truncate, truncate_t0.elapsed().as_nanos() as u64);
        }
        // Value-segment GC rides the same cadence and the same gates. The
        // whole pass counts as one timing sample, trivial passes
        // included, so the histogram reflects the real cadence.
        if let Some(tier) = &self.vtier {
            let gc_t0 = Instant::now();
            let refs = cycle.parts.iter_mut().flat_map(|p| p.gc_refs.drain(..));
            self.run_value_gc(tier, gates_held, meta.start_ts, &gc_candidates, refs);
            self.obs
                .global()
                .record(ObsKind::GcPass, gc_t0.elapsed().as_nanos() as u64);
        }
        Ok(meta)
    }

    /// One value-tier GC pass, run under the cycle lock after the
    /// checkpoint publishes.
    ///
    /// **Deletion** (phase A) enforces the liveness rule: a condemned
    /// segment is deleted only once a confirmed-barrier checkpoint with
    /// `start_ts ≥` its condemn time has published — every relocation
    /// out of it was then visible to that checkpoint's scan, its WAL
    /// records are stamped before `start_ts`, and no future recovery
    /// cutoff (all ≥ `start_ts` by the barrier) can replay a pointer
    /// into it. The gates match truncation's exactly: an unconfirmed
    /// barrier or a poisoned log both mean old log records — which may
    /// hold old pointers — can still replay.
    ///
    /// **Relocation** (phase B) rewrites the still-live values of the
    /// `candidates` (mostly-dead sealed segments) to the active segment
    /// via conditional puts (`put_with` declines unless the key still
    /// holds the exact version the walk saw — an unconditional put would
    /// resurrect concurrently removed keys), logs each rewrite as a
    /// `PutIndirect` to the GC's own log chain, and condemns segments
    /// that relocated cleanly.
    ///
    /// The references (`refs`) come from the checkpoint's part walks,
    /// and they are complete. A key present for the whole walk is
    /// visited exactly once. No new pointer into a candidate can appear
    /// during the walk: new payloads go to the active segment, and GC
    /// relocation, the only other writer of such pointers, runs here,
    /// after the walk and under `cycle_lock`. Stale references, from
    /// keys written or removed during the walk, fail the version check.
    fn run_value_gc(
        &self,
        tier: &ValueTier,
        gates_held: bool,
        covered_ts: u64,
        candidates: &[u64],
        refs: impl Iterator<Item = (Vec<u8>, u64, ValuePtr)>,
    ) {
        if gates_held {
            tier.delete_condemned(covered_ts);
        }
        if candidates.is_empty() {
            return;
        }
        // Candidates a live value could not leave this pass.
        let mut kept: Vec<u64> = Vec::new();
        let mut relocated = false;
        for (key, seen_version, p) in refs {
            // An unreadable live value keeps its segment: the pointer
            // still resolves nowhere else.
            let Some(np) = tier.read_raw(p).ok().and_then(|b| tier.append(&b).ok()) else {
                kept.push(p.seg);
                continue;
            };
            let mut new_version = None;
            let relocate = |old: Option<&ColValue>| {
                // A concurrent writer may already have superseded it.
                old.filter(|v| v.version() == seen_version && v.is_indirect())?;
                let nv = self.draw_version();
                new_version = Some(nv);
                Some(ColValue::indirect(nv, np))
            };
            self.tree.put_with(&key, relocate, &masstree::pin());
            if let Some(version) = new_version {
                let logged = self.with_gc_log(|log| {
                    log.append_now(|timestamp| LogRecord::PutIndirect {
                        timestamp,
                        version,
                        key: key.clone(),
                        ptr: np,
                    });
                });
                if !logged {
                    // Unlogged relocation: recovery would replay the
                    // old pointer. Both copies stay; the segment
                    // cannot be condemned this pass.
                    kept.push(p.seg);
                    continue;
                }
                tier.note_dead(p);
                tier.note_rewritten(p.len as u64);
                relocated = true;
            } else {
                // Lost the race (superseded or removed): our fresh copy
                // is garbage.
                tier.note_dead(np);
            }
        }
        // Durability order as on the ack path: payloads first, then the
        // WAL records whose pointers name them. A failed force leaves
        // both copies in place — safe, just not reclaimable.
        let mut wal_ok = false;
        if relocated && (!tier.force() || !self.with_gc_log(|log| wal_ok = log.force()) || !wal_ok)
        {
            return;
        }
        let now = crate::clock::now();
        for seg in candidates.iter().filter(|seg| !kept.contains(seg)) {
            tier.condemn(*seg, now);
        }
    }

    /// Runs `f` with the GC's log writer, creating the chain on first
    /// use (its own session id, with the same durably-synced
    /// `SessionCreate` journal entry as a worker session). Returns
    /// false — and skips `f` — when the chain cannot be established.
    fn with_gc_log(&self, f: impl FnOnce(&LogWriter)) -> bool {
        let Some(dir) = &self.log_dir else {
            return false;
        };
        let mut slot = self.gc_log.lock();
        if slot.is_none() {
            let id = self.next_log_id.fetch_add(1, Ordering::Relaxed);
            let Ok(log) = LogWriter::open_segmented_poisoned(
                dir,
                id,
                self.config.segment_bytes,
                Arc::clone(&self.log_poison),
            ) else {
                return false;
            };
            log.append_now(|timestamp| LogRecord::SessionCreate { timestamp });
            if !log.force() {
                return false;
            }
            let mut handles = self.log_handles.lock();
            handles.retain(|(_, h)| h.is_alive());
            handles.push((id, log.force_handle()));
            *slot = Some(log);
        }
        f(slot.as_ref().expect("created above"));
        true
    }

    /// Runs one full durability cycle synchronously: checkpoint,
    /// truncate covered segments, prune old checkpoints. Serialized with
    /// the background checkpointer. Errors for in-memory stores.
    pub fn checkpoint_now(self: &Arc<Self>) -> std::io::Result<CheckpointMeta> {
        self.run_durability_cycle()
    }

    /// Checkpoints completed this store lifetime.
    pub fn checkpoint_epoch(&self) -> u64 {
        self.ckpt_epoch.load(Ordering::Acquire)
    }

    /// A snapshot of the durability subsystem (log bytes are measured
    /// from the directory, so the numbers reflect truncation).
    pub fn durability_stats(&self) -> DurabilityStats {
        let mut stats = DurabilityStats {
            checkpoints: self.ckpt_epoch.load(Ordering::Acquire),
            last_checkpoint_start_ts: self.last_ckpt_start_ts.load(Ordering::Acquire),
            segments_truncated: self.truncated.load(Ordering::Relaxed),
            ..DurabilityStats::default()
        };
        if let Some(dir) = &self.log_dir {
            for path in crate::recovery::log_files(dir) {
                stats.log_segments += 1;
                stats.log_bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            }
        }
        stats
    }

    /// The directory this store logs into (`None` for in-memory stores).
    pub fn log_dir(&self) -> Option<&Path> {
        self.log_dir.as_deref()
    }

    /// Enables (or disables, with `None`) the hot-path cache tier for
    /// **future** sessions: each one gets its own per-worker leaf-hint
    /// cache (`mtcache`) consulted by `get`/`get_with`/`multi_get*` and
    /// maintained by `put`/`remove`. Existing sessions are unaffected;
    /// the network server creates one session per connection, so setting
    /// this before `Server::start` gives every connection a cache.
    pub fn set_session_cache(&self, config: Option<CacheConfig>) {
        *self.session_cache.lock() = config;
    }

    /// Aggregated cache counters across **every live session** plus
    /// everything already-closed sessions flushed: live sessions'
    /// batched local counters are flushed into the shared sink first
    /// (via the registry of weak cache handles), so the snapshot
    /// reflects all traffic up to this call — not just traffic that
    /// happened to cross a session's 256-event flush threshold.
    pub fn cache_stats(&self) -> CacheStats {
        self.flush_session_caches();
        self.cache_shared.snapshot()
    }

    /// Counts scan-token cursor evictions (the network server's
    /// per-connection LRU cap) into the store-wide cache stats, where
    /// they surface as `cache_scan_evictions`.
    pub fn note_scan_evictions(&self, n: u64) {
        self.cache_shared.add_scan_evictions(n);
    }

    /// Adds one executed batch plan ([`crate::PhasePlanner`]) to the
    /// store-wide totals: its phase count and its conflict splits.
    pub fn note_batch_plan(&self, phases: u64, conflict_splits: u64) {
        self.batch_phases.fetch_add(phases, Ordering::Relaxed);
        self.batch_conflict_splits
            .fetch_add(conflict_splits, Ordering::Relaxed);
    }

    /// `(phases, conflict_splits)` over every batch plan executed so
    /// far: `conflict_splits / phases` is the share of execution phases
    /// that exist only because a client touched one key twice.
    pub fn batch_plan_stats(&self) -> (u64, u64) {
        (
            self.batch_phases.load(Ordering::Relaxed),
            self.batch_conflict_splits.load(Ordering::Relaxed),
        )
    }

    /// Flushes every live session's local cache counters to the shared
    /// sink. Each flush takes that session's (uncontended) cache lock
    /// briefly; dead registry entries are pruned as a side effect.
    pub fn flush_session_caches(&self) {
        let mut registry = self.cache_registry.lock();
        registry.retain(|weak| match weak.upgrade() {
            Some(sc) => {
                sc.table.lock().flush_stats();
                true
            }
            None => false,
        });
    }

    /// Registers a worker, creating its segmented log chain if the store
    /// is persistent.
    ///
    /// The new log chain opens with a **durably synced**
    /// [`LogRecord::SessionCreate`] entry before this returns: every
    /// operation the session can ever perform therefore happens-after a
    /// nonempty chain exists on disk, which is what lets recovery treat
    /// an *empty* chain as evidence (not trust) that the session never
    /// ran anything — see `recovery.rs`'s cutoff rule. Errors if the
    /// entry cannot be made durable (the session would be unaccountable).
    pub fn session(self: &Arc<Store>) -> std::io::Result<Session> {
        let log = match &self.log_dir {
            None => None,
            Some(dir) => {
                let id = self.next_log_id.fetch_add(1, Ordering::Relaxed);
                let log = LogWriter::open_segmented_poisoned(
                    dir,
                    id,
                    self.config.segment_bytes,
                    Arc::clone(&self.log_poison),
                )?;
                log.append_now(|timestamp| LogRecord::SessionCreate { timestamp });
                if !log.force() {
                    return Err(std::io::Error::other(
                        "session-create journal entry could not be made durable",
                    ));
                }
                let mut handles = self.log_handles.lock();
                // Opportunistic sweep: without it a store that never
                // checkpoints would accumulate one dead handle per
                // session forever.
                handles.retain(|(_, h)| h.is_alive());
                handles.push((id, log.force_handle()));
                Some(log)
            }
        };
        let mut session = Session {
            store: Arc::clone(self),
            log,
            cache: None,
            obs: self.obs.recorder(),
            readahead: Mutex::new(ReadaheadScratch::default()),
            batch: Mutex::new(BatchScratch::default()),
            write: Mutex::new(WriteScratch::default()),
        };
        if let Some(cfg) = self.session_cache.lock().clone() {
            session.enable_cache(cfg);
        }
        Ok(session)
    }

    /// Direct tree access (benchmarks, checkpointer).
    pub fn tree(&self) -> &Masstree<ColValue> {
        &self.tree
    }

    pub(crate) fn draw_version(&self) -> u64 {
        self.next_version.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs one structural maintenance pass (empty-layer GC, §4.6.5).
    pub fn maintain(&self) {
        let guard = masstree::pin();
        self.tree.maintain(&guard);
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.stop_background_checkpointer();
    }
}

/// First unused session id in `dir`: one past the highest session
/// appearing in any existing `log-<session>.<seg>` (or legacy
/// `log-<session>`) file.
///
/// Session ids (and so log files) are **never reused** across store
/// lifetimes: recovery trusts a trailing clean-close sentinel to mean
/// "this file is complete", so appending a new session to an old file
/// would be unsound — a crash before the new writer's first flush would
/// leave the previous lifetime's sentinel as the final on-disk record,
/// wrongly excluding the (actually crashed) log from the recovery
/// cutoff.
fn next_log_id_in(dir: &Path) -> u64 {
    crate::recovery::session_segments(dir)
        .keys()
        .last()
        .map(|s| s + 1)
        .unwrap_or(0)
}

/// One batched put: a key and its column updates.
pub type PutOp<'a> = (&'a [u8], &'a [(usize, &'a [u8])]);

/// A resumable-scan cursor over the store's tree (see
/// [`Session::scan_cursor`] / [`Session::get_range_resumed`]).
pub type ScanCursor = masstree::ScanCursor<ColValue>;

/// A session's hint-cache state: the table plus a lock-free mirror of
/// its adaptive-bypass recommendation, so reuse-free workloads pay one
/// relaxed counter bump instead of a lock + probe per get. Point reads
/// only: range reads never consult it.
struct SessionCache {
    /// Mirror of [`HintCache::bypass_recommended`], refreshed after
    /// every locked cache interaction.
    bypass: AtomicBool,
    /// Sampling counter while bypassed: every 64th operation still goes
    /// through the table so a workload that turns skewed is noticed.
    probe_tick: AtomicU64,
    /// The table itself. The mutex exists only to keep `Session: Sync`;
    /// a session is a per-worker handle, so the lock is uncontended on
    /// the hot path. It is never held while user callbacks run.
    table: Mutex<HintCache<ColValue>>,
}

/// Reusable buffers for [`Session::multi_get_with`]: hint-cache lookup
/// results (hints + admission flags) and the tree-side hinted-batch
/// scratch, the raw result pointers buffered before emission,
/// and the batch's cold-pointer resolution. All retain capacity across
/// batches, making the batch read allocation-free in steady state with
/// or without a cache (the raw pointers are written and read back
/// within one epoch-pinned call, and cleared at the top of the next —
/// see `tests/alloc_count.rs`).
#[derive(Default)]
struct BatchScratch {
    admits: Vec<bool>,
    hints: Vec<Option<LeafHint<ColValue>>>,
    engine: HintBatchScratch<ColValue>,
    out: Vec<Option<NonNull<ColValue>>>,
    /// The batch's cold pointers, fed through one
    /// [`ValueTier::resolve_many`] (clustered segment reads on misses)
    /// instead of one segment read per key — the server's per-wakeup
    /// merged get runs land here.
    cold_reqs: Vec<(ValuePtr, u64)>,
    cold_out: Vec<Option<Arc<ColValue>>>,
    resolve: ResolveScratch,
}

// SAFETY: the raw pointers are inert between calls (never dereferenced
// outside the pinned call that wrote them); ColValue is Send + Sync.
unsafe impl Send for BatchScratch {}

/// Reusable buffers for the leaf-batched scan readahead path
/// ([`Session::get_range_with`] / [`Session::get_range_resumed`]): one
/// chunk's row keys (copied out — the scan's assembled key bytes are
/// valid only per visitor call), raw value pointers (written
/// and read back under the collecting call's epoch guard, like
/// [`BatchScratch::out`]), and the value tier's batched-resolution
/// requests/results. All retain capacity across chunks, keeping warm
/// readahead scans allocation-free (tests/alloc_count.rs).
#[derive(Default)]
struct ReadaheadScratch {
    /// Collected row keys, concatenated; row `i` ends at `key_ends[i]`.
    keys: Vec<u8>,
    key_ends: Vec<usize>,
    /// One pointer per collected row (`None` = indirect row with a
    /// malformed pointer record, skipped at emit like the inline path).
    vals: Vec<Option<NonNull<ColValue>>>,
    /// The chunk's cold pointers and their row indices, in row order.
    reqs: Vec<(ValuePtr, u64)>,
    req_rows: Vec<u32>,
    resolved: Vec<Option<Arc<ColValue>>>,
    engine: ResolveScratch,
    /// The cursor every [`Session::get_range_with`] call runs on, with
    /// or without a hint cache: `ScanCursor::reset` re-aims it at the
    /// call's start key and keeps its bound buffer's capacity, so
    /// one-shot scans stay allocation-free.
    spare_cursor: Option<ScanCursor>,
}

// SAFETY: same contract as BatchScratch — the raw pointers are inert
// between calls.
unsafe impl Send for ReadaheadScratch {}

/// Reusable buffers for the write path (`put` / `multi_put_with` /
/// `remove`): the batch's keys, drawn versions and superseded value
/// pointers, plus the WAL records its values encode as they are built. All keep their capacity across calls, so a
/// steady-state write allocates the new value's own storage and nothing
/// else (tests/alloc_count.rs).
#[derive(Default)]
struct WriteScratch {
    /// Emptied and re-lent under each batch's key lifetime
    /// ([`crate::recycle`]).
    keys: Vec<&'static [u8]>,
    versions: Vec<u64>,
    dead_ptrs: Vec<Option<ValuePtr>>,
    wal: PendingRecords,
}

/// Runs `f` on a session's reusable scratch — or on a fresh one when it
/// is busy: a read or write issued from inside another one's visitor.
fn with_scratch<T: Default, R>(scratch: &Mutex<T>, f: impl FnOnce(&mut T) -> R) -> R {
    match scratch.try_lock() {
        Some(mut s) => f(&mut s),
        None => f(&mut T::default()),
    }
}

impl SessionCache {
    /// True when this operation should skip the cache entirely (bypass
    /// engaged and this is not one of the 1-in-64 samples).
    #[inline]
    fn skip_this_op(&self) -> bool {
        self.bypass.load(Ordering::Relaxed)
            && self.probe_tick.fetch_add(1, Ordering::Relaxed) & 63 != 0
    }

    #[inline]
    fn sync_bypass(&self, table: &HintCache<ColValue>) {
        self.bypass
            .store(table.bypass_recommended(), Ordering::Relaxed);
    }
}

/// A per-worker handle: operations + this worker's log + (optionally)
/// this worker's hot-path hint cache.
pub struct Session {
    store: Arc<Store>,
    log: Option<LogWriter>,
    /// Per-worker leaf-hint cache (`mtcache`). `Arc` so the store's
    /// registry can flush counters without owning the session.
    cache: Option<Arc<SessionCache>>,
    /// Per-worker latency recorder (`mtobs`): wait-free histogram
    /// recording on this worker's own cache lines; merged store-wide
    /// on stats reads. Folds into the hub's retained sink on drop.
    obs: Recorder,
    /// Reusable scan-readahead buffers (`try_lock`ed per range read; a
    /// range read issued from inside another one's visitor works on a
    /// fresh set). Lives on the session, not the optional hint cache:
    /// readahead applies to cache-less sessions too.
    readahead: Mutex<ReadaheadScratch>,
    /// Reusable batch-read buffers (`try_lock`ed per
    /// [`Session::multi_get_with`]; a batch read issued from inside
    /// another one's visitor works on a fresh set).
    batch: Mutex<BatchScratch>,
    /// Reusable write-path buffers (`try_lock`ed per write; a write
    /// issued from inside another write's visitor works on a fresh
    /// set).
    write: Mutex<WriteScratch>,
}

impl Session {
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// This session's latency recorder — the network server records
    /// its merged-run timings (`MultiGet`/`MultiPut`) here so they
    /// land on the same per-worker cache lines as the session's own
    /// op recordings.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Attaches a per-worker hint cache to this session: point lookups
    /// (`get`/`get_with`/`multi_get*`) consult it, falling back to a
    /// full descent on validation failure and refreshing the cache with
    /// the descent's endpoint. Writes never consult it: they always
    /// descend (`remove` only drops the key's entry), and neither do
    /// range reads, which resume only through an explicit
    /// [`ScanCursor`]. See `mtcache` and `masstree::anchor` for why no
    /// hinted read can ever be stale.
    pub fn enable_cache(&mut self, config: CacheConfig) {
        let sc = Arc::new(SessionCache {
            bypass: AtomicBool::new(false),
            probe_tick: AtomicU64::new(0),
            table: Mutex::new(HintCache::with_shared(
                &config,
                Arc::clone(&self.store.cache_shared),
            )),
        });
        let mut registry = self.store.cache_registry.lock();
        registry.retain(|w| w.strong_count() > 0);
        registry.push(Arc::downgrade(&sc));
        self.cache = Some(sc);
    }

    /// This session's local cache counters (`None` when no cache is
    /// attached). Flushes to the store-wide sink as a side effect.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|sc| {
            let mut c = sc.table.lock();
            c.flush_stats();
            c.stats()
        })
    }

    /// Completes a point read: an indirect hit is resolved through the
    /// value tier before the callback sees it, so user callbacks only
    /// ever observe real columns. An unresolvable payload (torn or
    /// corrupt — counted in the tier's `unresolved_reads`) reads as
    /// absent here; [`Session::get_checked`] surfaces the typed error.
    /// Inline values pass straight through — one branch, no copy.
    #[inline]
    fn with_resolved<R>(
        &self,
        hit: Option<&ColValue>,
        f: impl FnOnce(Option<&ColValue>) -> R,
    ) -> R {
        match hit {
            Some(v) if v.is_indirect() => {
                let resolved = v.ptr().map(|p| self.store.resolve_indirect(p, v.version()));
                mtobs::span::mark(Stage::ValueResolve);
                match resolved {
                    Some(Ok(arc)) => f(Some(&arc)),
                    _ => f(None),
                }
            }
            other => f(other),
        }
    }

    /// One leaf-batched readahead scan round: collects up to `want`
    /// rows from `cursor` into the session's readahead scratch (key
    /// bytes copied, value refs as raw pointers — both consumed below under
    /// this call's `guard`), batch-resolves the chunk's cold pointers
    /// through [`ValueTier::resolve_many`] (clustered segment reads on
    /// misses), then emits the rows to `f` in original key order. Rows
    /// whose payload cannot be verified are skipped: scans deliver only
    /// rows whose bytes are integrity-checked. Returns `(rows collected, rows
    /// emitted, scan resumed at its anchor)`; collected < want with an
    /// un-done cursor never happens, so callers loop on the emit
    /// deficit without re-checking.
    fn scan_round_readahead<F>(
        &self,
        cursor: &mut ScanCursor,
        want: usize,
        ra: &mut ReadaheadScratch,
        guard: &masstree::Guard,
        f: &mut F,
    ) -> (usize, usize, bool)
    where
        F: FnMut(&[u8], &ColValue),
    {
        ra.keys.clear();
        ra.key_ends.clear();
        ra.vals.clear();
        ra.reqs.clear();
        ra.req_rows.clear();
        let out = self.store.tree.scan_resume(cursor, guard, |k, v| {
            ra.keys.extend_from_slice(k);
            ra.key_ends.push(ra.keys.len());
            if v.is_indirect() {
                match v.ptr() {
                    Some(p) => {
                        ra.req_rows.push(ra.vals.len() as u32);
                        ra.reqs.push((p, v.version()));
                        ra.vals.push(Some(NonNull::from(v)));
                    }
                    // Malformed pointer record: unresolvable, skipped.
                    None => ra.vals.push(None),
                }
            } else {
                ra.vals.push(Some(NonNull::from(v)));
            }
            ra.vals.len() < want
        });
        if !ra.reqs.is_empty() {
            self.store
                .resolve_indirect_many(&ra.reqs, &mut ra.resolved, &mut ra.engine);
            mtobs::span::mark(Stage::ValueResolve);
        }
        let mut emitted = 0usize;
        let mut r = 0usize;
        let mut key_start = 0usize;
        for (i, &end) in ra.key_ends.iter().enumerate() {
            let key = &ra.keys[key_start..end];
            key_start = end;
            if r < ra.req_rows.len() && ra.req_rows[r] as usize == i {
                if let Some(v) = &ra.resolved[r] {
                    f(key, v);
                    emitted += 1;
                }
                r += 1;
            } else if let Some(p) = ra.vals[i] {
                // SAFETY: collected above under this call's pinned
                // guard; epoch reclamation keeps the value live.
                let v = unsafe { p.as_ref() };
                f(key, v);
                emitted += 1;
            }
        }
        // Let go of the resolved values now: a block the value cache
        // evicts later is then the cache's alone, and its pool can
        // recycle it into the next fill.
        ra.resolved.clear();
        (ra.vals.len(), emitted, out.resumed)
    }

    /// `get_c(k)`: reads the requested columns (all if `cols` is `None`).
    /// Returns `None` if the key is absent.
    ///
    /// Copies every selected column; use [`Session::get_with`] on hot
    /// paths that only need to *look at* the value.
    pub fn get(&self, key: &[u8], cols: Option<&[usize]>) -> Option<Vec<Vec<u8>>> {
        self.get_with(key, |hit| {
            hit.map(|v| match cols {
                None => v.cols(),
                Some(ids) => ids
                    .iter()
                    .map(|&i| v.col(i).unwrap_or(&[]).to_vec())
                    .collect(),
            })
        })
    }

    /// Borrowed `get_c(k)`: runs `f` against the live [`ColValue`] (or
    /// `None` if the key is absent) **without copying anything** — column
    /// slices come straight out of the value's one block (§4.7; see
    /// `value.rs` for the layout).
    ///
    /// The borrow is scoped to the callback because it is protected by an
    /// epoch guard pinned for the duration of the call: the value cannot
    /// be reclaimed while `f` runs, even if a concurrent put replaces it
    /// or a remove unlinks it, and it may be reclaimed as soon as `f`
    /// returns. In steady state this path performs **zero heap
    /// allocations** (see `tests/alloc_count.rs`).
    pub fn get_with<R>(&self, key: &[u8], f: impl FnOnce(Option<&ColValue>) -> R) -> R {
        let t0 = Instant::now();
        let guard = masstree::pin();
        // `hinted` classifies the op for the latency histograms: a
        // validated zero-descent hit records as `get_hit`, everything
        // else as `get_descent` (or `get_cold` when the value resolves
        // through the value tier).
        let mut hinted = false;
        let hit = 'probe: {
            let Some(sc) = &self.cache else {
                break 'probe self.store.tree.get(key, &guard);
            };
            if sc.skip_this_op() {
                break 'probe self.store.tree.get(key, &guard);
            }
            // Hot-path cache tier: try the remembered border node first —
            // a validated hint serves the value with zero descent; any
            // validation failure falls back to the normal descent and
            // refreshes the hint. The cache lock is released before `f`
            // runs (callbacks may re-enter the session).
            let mut c = sc.table.lock();
            let probe = c.lookup(key);
            mtobs::span::mark(Stage::CacheLookup);
            let hit = match probe {
                Lookup::Hit(hint) => match self.store.tree.get_at_hint(key, &hint, &guard) {
                    HintedGet::Hit(v) => {
                        c.note_hit();
                        hinted = true;
                        v
                    }
                    HintedGet::Stale => {
                        c.note_stale();
                        let (v, fresh) = self.store.tree.get_capturing_hint(key, &guard);
                        c.record(key, fresh);
                        v
                    }
                },
                // Admitted keys capture a hint on the way down; cold keys
                // take the plain descent untaxed.
                Lookup::Miss { admit: true } => {
                    let (v, fresh) = self.store.tree.get_capturing_hint(key, &guard);
                    c.record(key, fresh);
                    v
                }
                Lookup::Miss { admit: false } => self.store.tree.get(key, &guard),
            };
            sc.sync_bypass(&c);
            drop(c);
            hit
        };
        let cold = hit.is_some_and(|v| v.is_indirect());
        let r = self.with_resolved(hit, f);
        let kind = if cold {
            ObsKind::GetCold
        } else if hinted {
            ObsKind::GetHit
        } else {
            ObsKind::GetDescent
        };
        self.obs.record_op(kind, t0.elapsed().as_nanos() as u64);
        r
    }

    /// `put_c(k, v)`: atomically updates the given columns, copying the
    /// rest from the current value (§4.7). Returns the value version.
    ///
    /// The version is drawn inside the tree's per-key critical section,
    /// so version order equals the tree's serialization order — which is
    /// what makes version-ordered log replay reconstruct exactly the
    /// pre-crash state (§5).
    pub fn put(&self, key: &[u8], updates: &[(usize, &[u8])]) -> u64 {
        let t0 = Instant::now();
        let version = with_scratch(&self.write, |w| self.put_logged(key, updates, &mut w.wal));
        self.obs
            .record_op(ObsKind::Put, t0.elapsed().as_nanos() as u64);
        version
    }

    /// [`Session::put`] minus the timing: applies the put, queueing its
    /// WAL record in `wal`, and appends it to the log.
    fn put_logged(&self, key: &[u8], updates: &[(usize, &[u8])], wal: &mut PendingRecords) -> u64 {
        let mut version = 0;
        let mut dead_ptr: Option<ValuePtr> = None;
        {
            let guard = masstree::pin();
            let mut write = |old: Option<&ColValue>| {
                let logging = self.log.as_ref().map(|_| &mut *wal);
                let newval = self
                    .store
                    .make_value(old, key, updates, &mut dead_ptr, logging);
                version = newval.version();
                Some(newval)
            };
            self.store.tree.put_with(key, &mut write, &guard);
        }
        self.store.note_dead_ptr(dead_ptr);
        if let Some(log) = &self.log {
            log.append_pending(wal);
        }
        version
    }

    /// Whole-value put with a single column (plain key-value usage).
    pub fn put_single(&self, key: &[u8], data: &[u8]) -> u64 {
        self.put(key, &[(0, data)])
    }

    /// Batched `get_c`: looks up every key with one interleaved,
    /// software-pipelined tree traversal (see `masstree::batch`), under a
    /// single epoch pin. Results are positionally matched to `keys`;
    /// column selection follows [`Session::get`].
    pub fn multi_get(&self, keys: &[&[u8]], cols: Option<&[usize]>) -> Vec<Option<Vec<Vec<u8>>>> {
        let project = |v: &ColValue| match cols {
            None => v.cols(),
            Some(ids) => ids
                .iter()
                .map(|&i| v.col(i).unwrap_or(&[]).to_vec())
                .collect(),
        };
        let mut out = Vec::with_capacity(keys.len());
        self.multi_get_with(keys, |_, hit| out.push(hit.map(project)));
        out
    }

    /// Borrowed batched `get_c`: one interleaved, software-pipelined tree
    /// traversal under a single epoch pin, visiting `f(i, hit)` once per
    /// key in input order with the value borrowed in place — the batch
    /// analogue of [`Session::get_with`], and like it **zero-allocation**
    /// in steady state (results are buffered in the session's reusable
    /// scratch, nothing is copied). The network server serializes
    /// responses straight out of this visitor.
    ///
    /// Each borrowed value is valid only for its `f` call (the guard is
    /// released when `multi_get_with` returns; copy out anything that
    /// must outlive it).
    pub fn multi_get_with<F>(&self, keys: &[&[u8]], f: F)
    where
        F: FnMut(usize, Option<&ColValue>),
    {
        with_scratch(&self.batch, |bs| self.multi_get_on(keys, bs, f))
    }

    /// [`Session::multi_get_with`] on one batch scratch, in four steps:
    /// collect every result pointer, start fetching the rest of each
    /// large value, resolve the cold pointers as one batch, then emit in
    /// input order. Emission waits for the whole batch so that the value
    /// fetches of all keys (the first 128 bytes of each block prefetched
    /// by the tree engine, the rest here) overlap instead of missing one
    /// key after another (see `masstree::batch`, "The value stage").
    fn multi_get_on<F>(&self, keys: &[&[u8]], bs: &mut BatchScratch, mut f: F)
    where
        F: FnMut(usize, Option<&ColValue>),
    {
        let guard = masstree::pin();
        let BatchScratch {
            admits,
            hints,
            engine,
            out,
            cold_reqs,
            cold_out,
            resolve,
        } = bs;
        // 1. Collect. Results are buffered as raw pointers, read back
        // only below under this same guard, so `f` also runs after the
        // cache lock is released.
        out.clear();
        match self.cache.as_deref().filter(|sc| !sc.skip_this_op()) {
            None => self
                .store
                .tree
                .multi_get_with(keys, &guard, |_, v| out.push(v.map(NonNull::from))),
            // Hinted batch: keys with valid hints complete with zero
            // descent; the misses run through the interleaved traversal
            // engine and refresh their hints.
            Some(sc) => {
                admits.clear();
                admits.resize(keys.len(), false);
                hints.clear();
                hints.resize(keys.len(), None);
                let mut c = sc.table.lock();
                for (i, k) in keys.iter().enumerate() {
                    match c.lookup(k) {
                        Lookup::Hit(h) => hints[i] = Some(h),
                        Lookup::Miss { admit } => admits[i] = admit,
                    }
                }
                self.store
                    .tree
                    .multi_get_hinted_with(keys, hints, engine, &guard, |i, v, fate| {
                        match fate {
                            HintResult::Hit => c.note_hit(),
                            HintResult::Refreshed(h) => {
                                if hints[i].is_some() {
                                    c.note_stale();
                                    c.record(keys[i], h);
                                } else if admits[i] {
                                    c.record(keys[i], h);
                                }
                            }
                        }
                        out.push(v.map(NonNull::from));
                    });
                sc.sync_bypass(&c);
            }
        }
        // 2. The rest of each value: an inline value's lines past the
        // 128 bytes the engine prefetched start arriving now (a 64-byte
        // value has none). Cold pointers are gathered instead, so every
        // indirect hit in this run resolves through one `resolve_many` —
        // concurrent cold keys coalesce into clustered segment reads
        // instead of stampeding the tier with one read per key.
        cold_reqs.clear();
        for p in out.iter() {
            // SAFETY: written above under this call's pinned guard;
            // epoch reclamation keeps the value live until it drops.
            let Some(v) = p.map(|p| unsafe { p.as_ref() }) else {
                continue;
            };
            if !v.is_indirect() {
                v.prefetch_rest();
            } else if let Some(ptr) = v.ptr() {
                cold_reqs.push((ptr, v.version()));
            }
        }
        // 3. Resolve.
        if !cold_reqs.is_empty() {
            self.store
                .resolve_indirect_many(cold_reqs, cold_out, resolve);
            mtobs::span::mark(Stage::ValueResolve);
        }
        // 4. Emit, in input order.
        let mut r = 0usize;
        for (i, p) in out.iter().enumerate() {
            // SAFETY: as above — same pinned guard.
            match p.map(|p| unsafe { p.as_ref() }) {
                Some(v) if v.is_indirect() => {
                    // Resolution order matches collection order; a
                    // malformed pointer record never made it into the
                    // batch and reads as absent, like `with_resolved`.
                    let resolved = if v.ptr().is_some() {
                        let x = cold_out.get(r).and_then(|o| o.as_deref());
                        r += 1;
                        x
                    } else {
                        None
                    };
                    f(i, resolved);
                }
                other => f(i, other),
            }
        }
        // As after a readahead scan: the cache's evicted blocks recycle
        // only once no batch still holds them.
        cold_out.clear();
    }

    /// Batched `put_c`: applies every `(key, column updates)` pair with
    /// one interleaved tree traversal, drawing each value version inside
    /// that key's critical section (so version order still equals the
    /// tree's serialization order, as replay requires — §5). Returns one
    /// version per op, positionally matched.
    ///
    /// Within one batch the order in which *duplicate* keys apply is
    /// unspecified; callers needing per-key ordering put same-key
    /// writes in different batches ([`crate::PhasePlanner`] does). Log
    /// records carry versions, and replay is version-ordered, so
    /// recovery is unaffected either way.
    pub fn multi_put(&self, ops: &[PutOp<'_>]) -> Vec<u64> {
        let mut versions = Vec::with_capacity(ops.len());
        self.multi_put_with(ops, |_, version| versions.push(version));
        versions
    }

    /// Visitor form of [`Session::multi_put`]: calls `f(i, version)`
    /// once per op, in input order, after the whole batch has been
    /// applied and logged. The batch's bookkeeping lives in per-session
    /// scratch and its WAL records are appended under one log-buffer
    /// lock, so a steady-state call allocates nothing beyond the new
    /// values themselves.
    pub fn multi_put_with(&self, ops: &[PutOp<'_>], f: impl FnMut(usize, u64)) {
        with_scratch(&self.write, |w| self.multi_put_on(ops, w, f))
    }

    fn multi_put_on(&self, ops: &[PutOp<'_>], w: &mut WriteScratch, mut f: impl FnMut(usize, u64)) {
        let WriteScratch {
            keys: spare_keys,
            versions,
            dead_ptrs,
            wal,
        } = w;
        let mut keys: Vec<&[u8]> = crate::recycle(std::mem::take(spare_keys));
        keys.extend(ops.iter().map(|&(k, _)| k));
        versions.clear();
        versions.resize(ops.len(), 0);
        dead_ptrs.clear();
        dead_ptrs.resize(ops.len(), None);
        {
            let guard = masstree::pin();
            let store = &self.store;
            let logging = self.log.is_some();
            let mut factory = |i: usize, old: Option<&ColValue>| {
                let (key, updates) = ops[i];
                let wal = logging.then_some(&mut *wal);
                let newval = store.make_value(old, key, updates, &mut dead_ptrs[i], wal);
                versions[i] = newval.version();
                newval
            };
            self.store.tree.multi_put_with(&keys, &mut factory, &guard);
        }
        *spare_keys = crate::recycle(keys);
        for dead in dead_ptrs.drain(..) {
            self.store.note_dead_ptr(dead);
        }
        if let Some(log) = &self.log {
            log.append_pending(wal);
        }
        for (i, &version) in versions.iter().enumerate() {
            f(i, version);
        }
    }

    /// `remove(k)`. Returns true if the key existed.
    ///
    /// Drops the key's hint-cache entry (if any): a removed key's hint
    /// would never be *wrong* — hinted reads search the node's live
    /// state, so they'd correctly report absence — but it is dead weight
    /// in the table. Puts, by contrast, deliberately leave hints alone:
    /// a value update keeps the hint valid (it points at the same border
    /// node), and an insert that splits the node bumps the version the
    /// next hinted read validates against.
    pub fn remove(&self, key: &[u8]) -> bool {
        let t0 = Instant::now();
        let guard = masstree::pin();
        if let Some(sc) = &self.cache {
            sc.table.lock().invalidate(key);
        }
        // Draw the version at the removal's linearization point (under
        // the node lock) so replay ordering matches live ordering.
        let removed = self
            .store
            .tree
            .remove_with(key, |_| self.store.draw_version(), &guard);
        let existed = match removed {
            None => false,
            Some((prev, version)) => {
                // A removed indirect value's payload bytes are dead.
                self.store.note_dead_ptr(prev.ptr());
                if let Some(log) = &self.log {
                    with_scratch(&self.write, |w| {
                        w.wal.remove(version, key);
                        log.append_pending(&mut w.wal);
                    });
                }
                true
            }
        };
        self.obs
            .record_op(ObsKind::Remove, t0.elapsed().as_nanos() as u64);
        existed
    }

    /// `getrange_c(k, n)`: up to `n` key/column rows at or after `key`,
    /// in key order. Not atomic w.r.t. concurrent writers (§3).
    ///
    /// Copies every row; use [`Session::get_range_with`] on hot paths.
    pub fn get_range(
        &self,
        key: &[u8],
        n: usize,
        cols: Option<&[usize]>,
    ) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
        let mut out = Vec::with_capacity(n.min(1024));
        self.get_range_with(key, n, |k, v| {
            let row = match cols {
                None => v.cols(),
                Some(ids) => ids
                    .iter()
                    .map(|&i| v.col(i).unwrap_or(&[]).to_vec())
                    .collect(),
            };
            out.push((k.to_vec(), row));
        });
        out
    }

    /// Borrowed `getrange_c(k, n)`: visits up to `n` rows at or after
    /// `key` in key order as `f(key, value)`, with both the key bytes
    /// (assembled in the scan's reusable scratch) and the value borrowed
    /// — nothing is copied and, with a warm scratch, nothing is
    /// allocated. Returns the number of rows visited.
    ///
    /// Every call descends from `key`, cached session or not; a caller
    /// that streams a range in chunks and wants each chunk to re-enter
    /// where the last one stopped holds a [`Session::scan_cursor`] and
    /// calls [`Session::get_range_resumed`] instead.
    ///
    /// Both borrows are valid only for the duration of each `f` call.
    /// Not atomic w.r.t. concurrent writers (§3), like
    /// [`Session::get_range`].
    pub fn get_range_with<F>(&self, key: &[u8], n: usize, mut f: F) -> usize
    where
        F: FnMut(&[u8], &ColValue),
    {
        if n == 0 {
            return 0;
        }
        let t0 = Instant::now();
        let seen = with_scratch(&self.readahead, |ra| {
            // The scratch's own cursor, re-aimed so it reuses its bound
            // buffer (no per-call Vec).
            let mut cur = ra
                .spare_cursor
                .take()
                .unwrap_or_else(|| ScanCursor::forward(key));
            cur.reset(key);
            let seen = self.scan_rounds(&mut cur, n, ra, &mut f);
            ra.spare_cursor = Some(cur);
            seen
        });
        self.obs
            .record_op(ObsKind::Scan, t0.elapsed().as_nanos() as u64);
        seen
    }

    /// Creates an explicit resumable-scan cursor starting at `start`
    /// (inclusive, ascending). Feed it to
    /// [`Session::get_range_resumed`] repeatedly to stream a range in
    /// chunks without paying a descent per chunk.
    pub fn scan_cursor(&self, start: &[u8]) -> ScanCursor {
        ScanCursor::forward(start)
    }

    /// Borrowed chunked `getrange_c`: visits up to `n` rows continuing
    /// from `cursor`, advancing it to the new stop point. When the
    /// cursor's validated anchor holds, the chunk starts at the
    /// remembered border node with zero descent; otherwise it descends
    /// from the cursor's bound — either way the rows are exactly what a
    /// fresh scan from that bound would yield. Returns the number of
    /// rows visited (0 once the cursor [`ScanCursor::is_done`]).
    pub fn get_range_resumed<F>(&self, cursor: &mut ScanCursor, n: usize, mut f: F) -> usize
    where
        F: FnMut(&[u8], &ColValue),
    {
        if n == 0 || cursor.is_done() {
            return 0;
        }
        let t0 = Instant::now();
        let seen = with_scratch(&self.readahead, |ra| {
            self.scan_rounds(cursor, n, ra, &mut f)
        });
        self.obs
            .record_op(ObsKind::Scan, t0.elapsed().as_nanos() as u64);
        seen
    }

    /// The one range-read loop: leaf-batched readahead rounds from
    /// `cursor` until `n` rows are visited or the range ends. One round
    /// in the common case; extra rounds only refill the deficit when
    /// unresolvable rows were skipped. A cursor that arrives with an
    /// anchor counts its first round as a resume or a stale fallback
    /// (store-wide); a one-shot scan has no anchor and counts nothing.
    fn scan_rounds<F>(
        &self,
        cursor: &mut ScanCursor,
        n: usize,
        ra: &mut ReadaheadScratch,
        f: &mut F,
    ) -> usize
    where
        F: FnMut(&[u8], &ColValue),
    {
        let guard = masstree::pin();
        let mut seen = 0usize;
        let mut anchored = cursor.has_anchor();
        while seen < n && !cursor.is_done() {
            let (collected, emitted, resumed) =
                self.scan_round_readahead(cursor, n - seen, ra, &guard, f);
            if anchored {
                self.store.cache_shared.add_scan_resume(resumed);
                anchored = false;
            }
            seen += emitted;
            if collected == 0 {
                break;
            }
        }
        seen
    }

    /// Blocks until everything this session logged is durable.
    ///
    /// Returns `true` when the sync completed (trivially so for
    /// in-memory sessions, which have nothing to flush). `false` means
    /// the logger thread died — on an I/O error such as a full disk, or
    /// a simulated crash — and the logged records may never reach
    /// storage; callers acking durability (the network `Flush` handler)
    /// must report the failure instead of swallowing it.
    #[must_use = "false means the records were NOT made durable"]
    pub fn force_log(&self) -> bool {
        let t0 = Instant::now();
        // Tier first, WAL second: when this ack lands, every durable
        // pointer record names an already-durable payload. The converse
        // order could ack a pointer whose payload a crash then tears —
        // an acked-write loss the recovery read-verify can't repair.
        if !self.store.force_value_tier() {
            return false;
        }
        let ok = match &self.log {
            Some(log) => log.force(),
            None => true,
        };
        mtobs::span::mark(Stage::WalAck);
        self.obs
            .record(ObsKind::WalForce, t0.elapsed().as_nanos() as u64);
        ok
    }

    /// `get_c(k)` with typed value-tier errors: like [`Session::get`],
    /// but an indirect value whose payload cannot be verified reports
    /// **which way it failed** ([`ValueError`]) instead of reading as
    /// absent. The property suite drives every-byte corruption through
    /// this: wrong bytes are never returned, only typed errors.
    pub fn get_checked(
        &self,
        key: &[u8],
        cols: Option<&[usize]>,
    ) -> Result<Option<Vec<Vec<u8>>>, ValueError> {
        let project = |v: &ColValue| match cols {
            None => v.cols(),
            Some(ids) => ids
                .iter()
                .map(|&i| v.col(i).unwrap_or(&[]).to_vec())
                .collect(),
        };
        let guard = masstree::pin();
        match self.store.tree.get(key, &guard) {
            None => Ok(None),
            Some(v) => match v.ptr() {
                None => Ok(Some(project(v))),
                Some(p) => {
                    let arc = self.store.resolve_indirect(p, v.version())?;
                    Ok(Some(project(&arc)))
                }
            },
        }
    }

    /// Kills this session's logger **without** the clean-shutdown
    /// protocol — no final drain, no clean-close sentinel — abandoning
    /// the in-memory log buffer exactly as a dying process would. For
    /// crash-torture tests; see [`LogWriter::simulate_crash`]. Returns
    /// where the on-disk state stands (`None` for in-memory sessions).
    pub fn simulate_crash(mut self) -> Option<CrashPoint> {
        self.log.take().map(|l| l.simulate_crash())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_put_get() {
        let store = Store::in_memory();
        let s = store.session().unwrap();
        s.put(b"k1", &[(0, b"hello"), (1, b"world")]);
        assert_eq!(
            s.get(b"k1", None),
            Some(vec![b"hello".to_vec(), b"world".to_vec()])
        );
        assert_eq!(s.get(b"k1", Some(&[1])), Some(vec![b"world".to_vec()]));
        assert_eq!(s.get(b"nope", None), None);
    }

    #[test]
    fn column_update_preserves_others() {
        let store = Store::in_memory();
        let s = store.session().unwrap();
        s.put(b"k", &[(0, b"a"), (1, b"b")]);
        s.put(b"k", &[(1, b"B!")]);
        assert_eq!(s.get(b"k", None), Some(vec![b"a".to_vec(), b"B!".to_vec()]));
    }

    #[test]
    fn versions_increase() {
        let store = Store::in_memory();
        let s = store.session().unwrap();
        let v1 = s.put(b"k", &[(0, b"1")]);
        let v2 = s.put(b"k", &[(0, b"2")]);
        assert!(v2 > v1);
    }

    #[test]
    fn remove_reports_existence() {
        let store = Store::in_memory();
        let s = store.session().unwrap();
        assert!(!s.remove(b"k"));
        s.put_single(b"k", b"v");
        assert!(s.remove(b"k"));
        assert_eq!(s.get(b"k", None), None);
    }

    #[test]
    fn get_range_returns_rows_in_order() {
        let store = Store::in_memory();
        let s = store.session().unwrap();
        for i in 0..100u32 {
            s.put(format!("key{i:03}").as_bytes(), &[(0, &i.to_le_bytes())]);
        }
        let rows = s.get_range(b"key010", 5, Some(&[0]));
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].0, b"key010");
        assert_eq!(rows[4].0, b"key014");
        assert_eq!(rows[2].1[0], 12u32.to_le_bytes());
    }

    #[test]
    fn multi_get_matches_sequential_get() {
        let store = Store::in_memory();
        let s = store.session().unwrap();
        for i in 0..200u32 {
            s.put(
                format!("mk{i:04}").as_bytes(),
                &[(0, &i.to_le_bytes()), (1, b"x")],
            );
        }
        let keys: Vec<Vec<u8>> = (0..250u32)
            .map(|i| format!("mk{i:04}").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let batch = s.multi_get(&refs, Some(&[0]));
        for (k, got) in refs.iter().zip(batch) {
            assert_eq!(got, s.get(k, Some(&[0])));
        }
        // Full-value variant matches too.
        let full = s.multi_get(&refs, None);
        for (k, got) in refs.iter().zip(full) {
            assert_eq!(got, s.get(k, None));
        }
    }

    #[test]
    fn multi_put_draws_increasing_versions_and_applies() {
        let store = Store::in_memory();
        let s = store.session().unwrap();
        let keys: Vec<Vec<u8>> = (0..64u32)
            .map(|i| format!("bp{i:03}").into_bytes())
            .collect();
        let payloads: Vec<[u8; 4]> = (0..64u32).map(|i| i.to_le_bytes()).collect();
        let updates: Vec<[(usize, &[u8]); 1]> =
            payloads.iter().map(|p| [(0usize, p.as_slice())]).collect();
        let ops: Vec<PutOp<'_>> = keys
            .iter()
            .zip(&updates)
            .map(|(k, u)| (k.as_slice(), u.as_slice()))
            .collect();
        let versions = s.multi_put(&ops);
        assert_eq!(versions.len(), 64);
        let mut sorted = versions.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "every op drew a distinct version");
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(
                s.get(k, Some(&[0])),
                Some(vec![(i as u32).to_le_bytes().to_vec()])
            );
        }
        // A second batch over the same keys updates and draws later versions.
        let versions2 = s.multi_put(&ops);
        assert!(versions2.iter().min() > versions.iter().max());
    }

    #[test]
    fn cached_session_matches_uncached() {
        let store = Store::in_memory();
        let plain = store.session().unwrap();
        store.set_session_cache(Some(CacheConfig {
            admit_threshold: 1,
            ..CacheConfig::default()
        }));
        let cached = store.session().unwrap();
        assert!(cached.cache_stats().is_some(), "config applied to session");
        assert!(plain.cache_stats().is_none(), "older session unaffected");
        for i in 0..500u32 {
            cached.put(format!("ck{i:04}").as_bytes(), &[(0, &i.to_le_bytes())]);
        }
        // Repeated point gets: second pass must be served by hints and
        // agree with the uncached session.
        for _pass in 0..2 {
            for i in 0..500u32 {
                let k = format!("ck{i:04}");
                assert_eq!(
                    plain.get(k.as_bytes(), None),
                    cached.get(k.as_bytes(), None)
                );
            }
        }
        // Absent keys too.
        assert_eq!(cached.get(b"ck9999", None), None);
        // Batched path consults the same cache.
        let keys: Vec<Vec<u8>> = (0..600u32)
            .map(|i| format!("ck{i:04}").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        assert_eq!(cached.multi_get(&refs, None), plain.multi_get(&refs, None));
        let s = cached.cache_stats().unwrap();
        assert!(s.hits > 0, "repeat gets must hit: {s:?}");
        assert_eq!(s.lookups, s.hits + s.stale + s.misses);

        // remove() drops the entry and subsequent reads agree.
        assert!(cached.remove(b"ck0001"));
        assert_eq!(cached.get(b"ck0001", None), None);
        assert_eq!(plain.get(b"ck0001", None), None);
        let s = cached.cache_stats().unwrap();
        assert!(s.invalidated >= 1);

        // Updates through ANOTHER session are visible to hinted reads
        // immediately (version validation, not message passing).
        plain.put(b"ck0002", &[(0, b"fresh")]);
        assert_eq!(
            cached.get(b"ck0002", Some(&[0])).unwrap()[0],
            b"fresh".to_vec()
        );

        // Store-wide counters aggregate this session's flushed stats.
        drop(cached);
        let agg = store.cache_stats();
        assert!(agg.lookups > 0 && agg.hits > 0, "{agg:?}");
    }

    #[test]
    fn writes_never_touch_the_read_hint_table() {
        // Admit-on-first-sight with bypass off: any probe or capture a
        // write made would show up in these counters.
        let store = Store::in_memory();
        store.set_session_cache(Some(CacheConfig {
            admit_threshold: 1,
            adaptive_bypass: false,
            ..CacheConfig::default()
        }));
        let s = store.session().unwrap();
        let keys: Vec<Vec<u8>> = (0..200u32)
            .map(|i| format!("wk{i:04}").into_bytes())
            .collect();
        let update: [(usize, &[u8]); 1] = [(0, b"w")];
        let ops: Vec<PutOp<'_>> = keys.iter().map(|k| (k.as_slice(), &update[..])).collect();
        for _round in 0..3 {
            for k in &keys {
                s.put(k, &[(0, b"v")]);
            }
            s.multi_put(&ops);
        }
        for k in keys.iter().step_by(2) {
            assert!(s.remove(k));
        }
        let c = s.cache_stats().expect("cache attached");
        assert!(
            c.lookups == 0 && c.admitted == 0,
            "writes must neither probe nor fill the hint table: {c:?}"
        );
    }

    #[test]
    fn a_barrier_across_many_sessions_confirms_every_live_log() {
        // 40 logs, every third closed before the cycle, so `Closed`
        // outcomes sit between `Synced` ones in the positional `retain`.
        // Truncation runs only when every live log's barrier is
        // confirmed.
        const SESSIONS: usize = 40;
        let dir = std::env::temp_dir().join(format!("mtkv-barrier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::persistent_with(&dir, DurabilityConfig::tiny_segments(4096)).unwrap();
        let mut sessions: Vec<Option<Session>> = (0..SESSIONS)
            .map(|_| Some(store.session().unwrap()))
            .collect();
        for (i, s) in sessions.iter().enumerate() {
            let s = s.as_ref().unwrap();
            for j in 0..50u32 {
                s.put(format!("b{i:02}-{j:03}").as_bytes(), &[(0, &[0u8; 64])]);
            }
        }
        for s in sessions.iter_mut().step_by(3) {
            s.take();
        }
        store.checkpoint_now().unwrap();
        assert_eq!(store.checkpoint_epoch(), 1);
        assert!(
            store.durability_stats().segments_truncated > 0,
            "a live log's barrier went unconfirmed"
        );
        for (i, s) in sessions.iter().enumerate() {
            if let Some(s) = s {
                assert!(s.force_log(), "session {i} log alive after barrier");
            }
        }
        drop(sessions);
        drop(store);
        let (store, _report) = crate::recovery::recover(&dir, &dir).unwrap();
        let s = store.session().unwrap();
        for i in 0..SESSIONS {
            assert!(s.get(format!("b{i:02}-049").as_bytes(), None).is_some());
        }
        drop(s);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn value_gc_makes_no_walk_of_its_own() {
        // A quiet value-separated store of N keys whose first segments
        // are mostly dead: one cycle hands at most 2N + PART_WRITERS rows
        // to its walks (the pre-scan, then the parts, each of which also
        // sees the key that ends it), yet relocates every live value out
        // of the GC candidates. The value cache is off, so every check
        // reads the segments the tree points into.
        const N: u32 = 3_000;
        let dir = std::env::temp_dir().join(format!("mtkv-gc-walks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = DurabilityConfig::tiny_segments(1 << 20).with_value_separation(32, 0);
        config.value_segment_bytes = 16 << 10;
        config.gc_dead_fraction = 0.3;
        let store = Store::persistent_with(&dir, config).unwrap();
        let s = store.session().unwrap();
        let key = |i: u32| format!("gw{i:05}").into_bytes();
        let value = |i: u32, gen: u8| {
            let mut v = vec![gen; 64];
            v[..4].copy_from_slice(&i.to_le_bytes());
            v
        };
        for i in 0..N {
            s.put(&key(i), &[(0, &value(i, 0))]);
        }
        // Two keys in three move on: the first generation's segments
        // are mostly dead but still hold live values.
        for i in (0..N).filter(|i| i % 3 != 0) {
            s.put(&key(i), &[(0, &value(i, 1))]);
        }
        assert!(s.force_log());
        let tier = Arc::clone(store.value_tier().unwrap());
        let candidates = tier.gc_candidates(0.3);
        assert!(!candidates.is_empty(), "no GC candidate");
        let check_values = || {
            for i in 0..N {
                let gen = u8::from(i % 3 != 0);
                let got = s.get_checked(&key(i), None).expect("value resolves");
                assert_eq!(got, Some(vec![value(i, gen)]), "key {i}");
            }
        };

        store.walked_rows.store(0, Ordering::Relaxed);
        store.checkpoint_now().unwrap();
        let walked = store.walked_rows.load(Ordering::Relaxed);
        let bound = 2 * u64::from(N) + PART_WRITERS as u64;
        assert!(
            walked <= bound,
            "one cycle's walks visited {walked} rows, more than {bound} for {N} keys"
        );
        let left = tier.gc_candidates(0.3);
        for seg in &candidates {
            assert!(!left.contains(seg), "candidate {seg} not condemned");
            assert!(
                vtier::vseg_path(&dir, *seg).exists(),
                "{seg} deleted too soon"
            );
        }
        check_values();
        // The next covered cycle deletes the condemned segments.
        store.checkpoint_now().unwrap();
        for seg in &candidates {
            assert!(!vtier::vseg_path(&dir, *seg).exists(), "{seg} kept");
        }
        check_values();
        drop(s);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_part_writer_fails_only_its_own_cycle() {
        // A part writer that panics fails that cycle's checkpoint (no
        // manifest); the background checkpointer must live on, publish
        // the next cycle and sweep the failed cycle's directory.
        let dir = std::env::temp_dir().join(format!("mtkv-writer-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DurabilityConfig::tiny_segments(4096).with_interval(Duration::from_millis(5));
        let store = Store::persistent_with(&dir, config).unwrap();
        let s = store.session().unwrap();
        for i in 0..2_000u32 {
            s.put(format!("wp{i:05}").as_bytes(), &[(0, &i.to_le_bytes()[..])]);
        }
        assert!(s.force_log());
        let wait_until = |done: &dyn Fn() -> bool| {
            let t0 = Instant::now();
            while !done() && t0.elapsed() < Duration::from_secs(20) {
                std::thread::sleep(Duration::from_millis(1));
            }
            done()
        };
        store.inject_writer_panic.store(true, Ordering::Relaxed);
        assert!(
            wait_until(&|| !store.inject_writer_panic.load(Ordering::Relaxed)),
            "no part writer started"
        );
        let epoch = store.checkpoint_epoch();
        assert!(
            wait_until(&|| store.checkpoint_epoch() > epoch),
            "the background checkpointer stopped at epoch {epoch} after a part writer panicked"
        );
        store.stop_background_checkpointer();
        store.checkpoint_now().unwrap();
        for e in std::fs::read_dir(&dir).unwrap().flatten() {
            let name = e.file_name().into_string().unwrap();
            if name.starts_with("ckpt-") {
                assert!(e.path().join("MANIFEST").is_file(), "{name} left behind");
            }
        }
        drop(s);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_column_updates_do_not_tear() {
        // Two writers update different columns of one key; every observed
        // value must contain a valid (col0, col1) pair — all-or-nothing
        // multi-column puts (§4.7).
        let store = Store::in_memory();
        let w1 = store.session().unwrap();
        let w2 = store.session().unwrap();
        w1.put(b"k", &[(0, b"0"), (1, b"0")]);
        let t1 = std::thread::spawn(move || {
            for i in 0..20_000u32 {
                w1.put(b"k", &[(0, format!("{i}").as_bytes())]);
            }
        });
        let t2 = std::thread::spawn(move || {
            for i in 0..20_000u32 {
                w2.put(b"k", &[(1, format!("{i}").as_bytes())]);
            }
        });
        let reader = store.session().unwrap();
        for _ in 0..10_000 {
            let cols = reader.get(b"k", None).unwrap();
            assert_eq!(cols.len(), 2);
            // Both columns always parse: no torn/missing column states.
            let _: u32 = std::str::from_utf8(&cols[0]).unwrap().parse().unwrap();
            let _: u32 = std::str::from_utf8(&cols[1]).unwrap().parse().unwrap();
        }
        t1.join().unwrap();
        t2.join().unwrap();
        let cols = reader.get(b"k", None).unwrap();
        assert_eq!(cols[0], b"19999");
        assert_eq!(cols[1], b"19999");
    }
}
