//! Interleaved batch traversal engine: software-pipelined `multi_get` /
//! `multi_put` (§4.2's prefetch rationale, applied *across* operations).
//!
//! A single tree descent stalls on DRAM once per level: prefetching a
//! whole wide node hides latency within one node visit, but the next
//! level's address is unknown until the current node has been read. With
//! a *batch* of independent operations, the engine keeps one cursor per
//! operation and advances them round-robin: as soon as cursor `i`
//! computes its next node it issues the prefetch and yields, so the DRAM
//! fetch overlaps with cursors `i+1..n` doing useful work. Per-level
//! stalls become memory-level parallelism across the whole group.
//!
//! # Cursor state machine
//!
//! Each cursor holds its key position ([`KeyCursor`]), the current trie
//! layer's root, and a [`Phase`]:
//!
//! ```text
//! EnterLayer ──stable──▶ (descend loop) ──prefetch child──▶ ChildFetch
//!      ▲                       │  border                        │
//!      │ layer link /          ▼                                │ validate
//!      │ new layer      BorderRead (get) / BorderLock (put)  ◀──┘ parent
//!      │                       │
//!      └───────────────────────┴──▶ Done
//! ```
//!
//! Yield points are exactly the places a sequential traversal would miss
//! cache: after prefetching a layer root, after prefetching a child,
//! after prefetching a leaf-list neighbour during a B-link walk, and —
//! instead of spinning — whenever a version is dirty ([`
//! crate::version::VersionCell::try_stable`] fails) or a border lock is
//! contended. OCC retries are handled per cursor: one operation
//! restarting (deleted node, split underneath it) never disturbs the
//! rest of the group.
//!
//! # The value stage
//!
//! A get cursor does not stop at the border node's slot: once the read
//! validates, it prefetches the value the slot points to before it
//! reports `Done`, and the hinted path does the same for every validated
//! hint. The value's lines then arrive while the rest of the group is
//! still descending, rather than when the caller first reads it.
//!
//! What "the value" covers is `V`'s [`Stored::prefetch`]: a sized type's
//! whole box, and for the storage layer's `ColValue` — one block holding
//! the header, column offsets and bytes — the block's first 128 bytes,
//! which is all of a 64-byte single-column value wherever the block
//! starts within its line. A larger value has lines past that, and only
//! the caller knows it is reading them. So a caller should *buffer* a
//! batch's results before reading any of them: reading each value as the
//! engine hands it out would fetch the rest of one value after another,
//! a dependent miss per key with nothing else in flight. `mtkv`'s
//! `Session::multi_get_with` collects every result pointer first,
//! prefetches the remaining lines of each inline value (cold pointers go
//! to the value tier as one batch), and only then emits in input order.
//!
//! Writers complete their border-node work (lock, insert, split, layer
//! creation) inline within a single step, reusing the exact same
//! `put.rs` primitives as the sequential path; no lock is ever held
//! across a yield, so cursors cannot deadlock each other.

use core::sync::atomic::Ordering;

use crossbeam::epoch::Guard;

use crate::hint::{HintResult, HintedGet, LeafHint};
use crate::key::KeyCursor;
use crate::node::{BorderNode, NodePtr, RootSlot, SlotMatch};
use crate::put::{BorderWrite, ValueFactory};
use crate::stats::Stats;
use crate::stored::Stored;
use crate::tree::Masstree;
use crate::tree::Restart;
use crate::version::Version;

/// Maximum operations interleaved in one group. Larger groups add
/// memory-level parallelism until the outstanding-miss limit of the core
/// is reached; 32 is comfortably past that knee on current x86.
pub const MAX_GROUP: usize = 32;

/// What a finished cursor produced: the raw value pointer (current value
/// for gets, previous value for puts), if any.
type RawResult = Option<*mut ()>;

/// Whether a cursor performs a lookup or an insert/update.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Get,
    Put,
}

/// Where the current trie layer's root pointer lives, for lazy root
/// healing and split ascents (put cursors only).
enum LayerSlot<V: ?Sized> {
    Tree,
    Link {
        node: *const BorderNode<V>,
        slot: usize,
    },
}

impl<V: ?Sized + Stored> LayerSlot<V> {
    fn as_root_slot<'t>(&self, tree: &'t Masstree<V>) -> RootSlot<'t, V> {
        match self {
            LayerSlot::Tree => RootSlot::Tree(&tree.root),
            LayerSlot::Link { node, slot } => RootSlot::LayerLink {
                node: *node,
                slot: *slot,
            },
        }
    }
}

/// The per-cursor resume point. Every variant names a node that has
/// already been prefetched by the transition that created the variant.
enum Phase<V: ?Sized> {
    /// About to read the current layer root (`Cursor::root`).
    EnterLayer,
    /// `parent` (validated at version `pv`) chose `child`; the child's
    /// cache lines are in flight.
    ChildFetch {
        parent: NodePtr<V>,
        pv: Version,
        child: NodePtr<V>,
    },
    /// Reader positioned at a border node. `pending` is the stable
    /// version if the descent already provided one, else the step must
    /// (re-)stabilize first — e.g. after a B-link walk.
    BorderRead {
        n: *const BorderNode<V>,
        pending: Option<Version>,
    },
    /// Writer waiting to lock this border node.
    BorderLock { n: *const BorderNode<V> },
    /// Finished.
    Done,
}

/// One in-flight operation.
struct Cursor<'k, V: ?Sized> {
    idx: usize,
    mode: Mode,
    k: KeyCursor<'k>,
    /// Root of the trie layer currently being descended.
    root: NodePtr<V>,
    /// The pointer through which this layer was entered (healed via CAS
    /// if the descent climbs past it — §4.6.4 lazy root update).
    entered: NodePtr<V>,
    slot: LayerSlot<V>,
    phase: Phase<V>,
    result: RawResult,
    /// For get cursors: the leaf hint captured at the validated endpoint
    /// (`hint.rs`), so hinted batch lookups can refresh their tables.
    hint: Option<LeafHint<V>>,
}

impl<'k, V: ?Sized + Stored> Cursor<'k, V> {
    fn new(idx: usize, mode: Mode, key: &'k [u8], tree: &Masstree<V>) -> Self {
        let root = tree.load_root();
        root.prefetch();
        Cursor {
            idx,
            mode,
            k: KeyCursor::new(key),
            root,
            entered: root,
            slot: LayerSlot::Tree,
            phase: Phase::EnterLayer,
            result: None,
            hint: None,
        }
    }

    /// Restarts the whole operation from the top of the trie (deleted
    /// node or removed layer — the per-cursor equivalent of the
    /// sequential paths' `'restart` loop).
    fn full_restart(&mut self, tree: &Masstree<V>) -> Phase<V> {
        Stats::bump(&tree.stats.op_restarts);
        self.k = KeyCursor::new(self.k.full_key());
        self.root = tree.load_root();
        self.entered = self.root;
        self.slot = LayerSlot::Tree;
        self.root.prefetch();
        Phase::EnterLayer
    }

    /// Retries the current layer from its (possibly updated) root.
    fn layer_retry(&mut self) -> Phase<V> {
        self.root.prefetch();
        Phase::EnterLayer
    }

    /// Descends into the next trie layer through `link` found in border
    /// node `node` at `slot`.
    fn enter_layer(
        &mut self,
        link: NodePtr<V>,
        node: *const BorderNode<V>,
        slot: usize,
    ) -> Phase<V> {
        self.root = link;
        self.entered = link;
        self.slot = LayerSlot::Link { node, slot };
        self.k.advance();
        self.root.prefetch();
        Phase::EnterLayer
    }

    /// Runs the in-cache part of `find_border`'s inner loop from `(n, v)`
    /// until the next cold-node yield point or the border is reached.
    fn descend_from(&mut self, tree: &Masstree<V>, n: NodePtr<V>, mut v: Version) -> Phase<V> {
        loop {
            if v.is_deleted() {
                return self.full_restart(tree);
            }
            if v.is_border() {
                // SAFETY: live node (guard pinned by the engine),
                // ISBORDER verified via `v`.
                let bn = unsafe { n.as_border() } as *const BorderNode<V>;
                return match self.mode {
                    Mode::Get => Phase::BorderRead {
                        n: bn,
                        pending: Some(v),
                    },
                    Mode::Put => {
                        // Heal a stale layer-root pointer before the write
                        // completes (put_inner does the same after
                        // find_border).
                        if self.root != self.entered {
                            self.slot
                                .as_root_slot(tree)
                                .cas(self.entered.raw(), self.root.raw());
                            self.entered = self.root;
                        }
                        Phase::BorderLock { n: bn }
                    }
                };
            }
            // SAFETY: live node, interior per the check above.
            let inter = unsafe { n.as_interior() };
            let (_, childp) = inter.find_child(self.k.ikey());
            if childp.is_null() {
                // Torn read during a concurrent reshape; revalidate.
                let v2 = inter.version().stable();
                if v.has_split(v2) {
                    Stats::bump(&tree.stats.descend_retries_root);
                    return self.layer_retry();
                }
                Stats::bump(&tree.stats.descend_retries_local);
                v = v2;
                continue;
            }
            let child = NodePtr::from_raw(childp);
            child.prefetch();
            // Yield: the child's lines are in flight; run other cursors
            // while DRAM does its thing.
            return Phase::ChildFetch {
                parent: n,
                pv: v,
                child,
            };
        }
    }

    /// Advances the cursor by one pipeline step. Returns `true` when the
    /// operation completed (result stored in `self.result`).
    ///
    /// `factory` produces a put's value under the border-node lock (get
    /// cursors never call it).
    fn step(
        &mut self,
        tree: &Masstree<V>,
        factory: &mut dyn FnMut(usize, Option<&V>) -> V::Owned,
        guard: &Guard,
    ) -> bool {
        let next = match core::mem::replace(&mut self.phase, Phase::Done) {
            Phase::EnterLayer => {
                let n = self.root;
                // SAFETY: the layer root is live: tree root, published
                // layer link, or parent pointer, all kept live by the
                // pinned guard.
                let Some(v) = (unsafe { n.version() }).try_stable() else {
                    Stats::bump(&tree.stats.batch_dirty_yields);
                    self.phase = Phase::EnterLayer;
                    return false;
                };
                if !v.is_root() {
                    // A split installed a new root above us; climb.
                    // SAFETY: `n` is live (guard pinned).
                    let p = unsafe { n.parent() };
                    if p.is_null() {
                        self.full_restart(tree)
                    } else {
                        self.root = NodePtr::from_interior(p);
                        self.root.prefetch();
                        Phase::EnterLayer
                    }
                } else {
                    self.descend_from(tree, n, v)
                }
            }
            Phase::ChildFetch { parent, pv, child } => {
                // SAFETY: a child pointer read from a live interior node
                // is live under the pinned guard.
                let Some(vc) = (unsafe { child.version() }).try_stable() else {
                    Stats::bump(&tree.stats.batch_dirty_yields);
                    self.phase = Phase::ChildFetch { parent, pv, child };
                    return false;
                };
                // Hand-over-hand validation: re-check the parent before
                // committing to the child.
                // SAFETY: `parent` is live under the pinned guard.
                let v2 = unsafe { parent.version() }.load(Ordering::Acquire);
                if !pv.has_changed(v2) {
                    self.descend_from(tree, child, vc)
                } else {
                    // SAFETY: as above.
                    let v2 = unsafe { parent.version() }.stable();
                    if pv.has_split(v2) {
                        Stats::bump(&tree.stats.descend_retries_root);
                        self.layer_retry()
                    } else {
                        Stats::bump(&tree.stats.descend_retries_local);
                        self.descend_from(tree, parent, v2)
                    }
                }
            }
            Phase::BorderRead { n, pending } => {
                // SAFETY: border nodes stay live (possibly deleted but
                // unreclaimed) under the pinned guard.
                let bn = unsafe { &*n };
                let v = match pending {
                    Some(v) => v,
                    None => match bn.version().try_stable() {
                        Some(v) => v,
                        None => {
                            Stats::bump(&tree.stats.batch_dirty_yields);
                            self.phase = Phase::BorderRead { n, pending: None };
                            return false;
                        }
                    },
                };
                self.read_border(tree, bn, v)
            }
            Phase::BorderLock { n } => {
                // SAFETY: as in BorderRead.
                let bn = unsafe { &*n };
                if bn.version().try_lock().is_none() {
                    // Contended: run other cursors instead of spinning.
                    core::hint::spin_loop();
                    self.phase = Phase::BorderLock { n };
                    return false;
                }
                self.write_border(tree, bn, factory, guard)
            }
            Phase::Done => Phase::Done,
        };
        self.phase = next;
        matches!(self.phase, Phase::Done)
    }

    /// The validated-read body of Figure 7, one border visit per call.
    fn read_border(&mut self, tree: &Masstree<V>, bn: &BorderNode<V>, v: Version) -> Phase<V> {
        if v.is_deleted() {
            return self.full_restart(tree);
        }
        let perm = bn.permutation();
        // Version re-check (Figure 7's `n.version ⊕ v > locked`).
        let valid = || !v.has_changed(bn.version().load(Ordering::Acquire));
        let Some(m) = bn.match_key(perm, &self.k, valid) else {
            Stats::bump(&tree.stats.read_retries);
            let vs = bn.version().stable();
            // Walk right while the key's range moved (B-link). The
            // neighbour is cold: prefetch it and yield.
            if !vs.is_deleted() {
                let next = bn.next.load(Ordering::Acquire);
                if !next.is_null() {
                    // SAFETY: leaf-list pointers reference live nodes
                    // under the pinned epoch.
                    let nx = unsafe { &*next };
                    if self.k.ikey() >= nx.lowkey.load(Ordering::Relaxed) {
                        Stats::bump(&tree.stats.read_advances);
                        crate::prefetch::prefetch(next);
                        return Phase::BorderRead {
                            n: next,
                            pending: None,
                        };
                    }
                }
            }
            return Phase::BorderRead {
                n: bn,
                pending: Some(vs),
            };
        };
        match m {
            SlotMatch::Absent { conclusive } => {
                self.result = None;
                self.hint = Some(LeafHint::capture_absent(
                    bn,
                    v,
                    perm,
                    self.k.offset(),
                    conclusive,
                ));
                Phase::Done
            }
            SlotMatch::Value { slot, code, lv } => {
                // The value stage: start fetching the value itself now,
                // so its lines arrive while the rest of the group is
                // still descending instead of when the caller reads it.
                V::prefetch(lv);
                self.result = Some(lv);
                self.hint = Some(LeafHint::capture(bn, v, perm, slot, code, self.k.offset()));
                Phase::Done
            }
            // Reader layer descent does not track the slot for healing
            // (matching `get`), but recording it is free.
            SlotMatch::Layer { slot, root } => self.enter_layer(NodePtr::from_raw(root), bn, slot),
            SlotMatch::Unstable => {
                core::hint::spin_loop();
                Phase::BorderRead {
                    n: bn,
                    pending: Some(v),
                }
            }
        }
    }

    /// The locked write completion: the walk-right plus the **shared**
    /// border-level put completion (`put.rs`'s `put_at_border`, the same
    /// code the sequential put runs), executed within one step so no
    /// lock spans a yield.
    fn write_border(
        &mut self,
        tree: &Masstree<V>,
        bn: &BorderNode<V>,
        factory: &mut dyn FnMut(usize, Option<&V>) -> V::Owned,
        guard: &Guard,
    ) -> Phase<V> {
        // `lock_border_for_ikey`'s walk-right, starting already locked:
        // chase a concurrent split's leaf chain (rare — stay inline).
        let bn = match tree.walk_right_locked(bn, self.k.ikey()) {
            Ok(bn) => bn,
            Err(Restart) => return self.full_restart(tree),
        };
        let mut fac = IdxFactory {
            idx: self.idx,
            f: factory,
        };
        let root_slot = self.slot.as_root_slot(tree);
        match tree.put_at_border(bn, &self.k, &root_slot, &mut fac, guard) {
            BorderWrite::Done { prev } => {
                self.result = prev.map(|p| (p as *const V).cast_mut().cast::<()>());
                Phase::Done
            }
            BorderWrite::Layer { root, node, slot } => self.enter_layer(root, node, slot),
        }
    }
}

/// Adapts the batch engine's indexed factory to `put.rs`'s
/// [`ValueFactory`] (which stores the produced value).
struct IdxFactory<'a, V: ?Sized + Stored> {
    idx: usize,
    f: &'a mut dyn FnMut(usize, Option<&V>) -> V::Owned,
}

impl<V: ?Sized + Stored> ValueFactory<V> for IdxFactory<'_, V> {
    fn make(&mut self, old: Option<&V>) -> *mut () {
        V::into_raw((self.f)(self.idx, old))
    }
}

/// Reusable buffers for [`Masstree::multi_get_hinted_with`]: raw result
/// pointers (type-erased so the buffer can outlive any one call's epoch
/// guard), refreshed hints, and the engine's miss list. All three keep
/// their capacity across calls, so a warm scratch makes the hinted
/// batch read allocation-free.
///
/// The raw pointers are only ever *read back* within the same call that
/// wrote them — while that call's guard is pinned — and are cleared at
/// the top of every call, so a stale pointer from a previous epoch can
/// never be dereferenced.
pub struct HintBatchScratch<V: ?Sized> {
    results: Vec<*const ()>,
    refreshed: Vec<Option<LeafHint<V>>>,
    misses: Vec<usize>,
}

impl<V: ?Sized> HintBatchScratch<V> {
    /// An empty scratch (buffers grow on first use, then are reused).
    pub fn new() -> HintBatchScratch<V> {
        HintBatchScratch {
            results: Vec::new(),
            refreshed: Vec::new(),
            misses: Vec::new(),
        }
    }
}

impl<V: ?Sized> Default for HintBatchScratch<V> {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: the stored raw pointers are inert between calls (never
// dereferenced outside the call that wrote them, under its own pinned
// guard); moving the buffers across threads is therefore safe whenever
// the value type itself is.
unsafe impl<V: ?Sized + Send + Sync> Send for HintBatchScratch<V> {}

/// Round-robin scheduler core: calls `step(i)` for every unfinished
/// slot `0..n` per sweep until all have reported completion, so each
/// cursor's prefetch overlaps all other cursors' work. Completion
/// tracking is a bitmask (groups are capped at [`MAX_GROUP`] ≤ 64), so
/// scheduling allocates nothing. Shared by the put path (`run_group`
/// over a cursor slice) and the get path (`multi_get_with` over its
/// fixed cursor array).
fn run_round_robin(n: usize, mut step: impl FnMut(usize) -> bool) {
    debug_assert!(n <= 64);
    let mut pending: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    while pending != 0 {
        for i in 0..n {
            if pending & (1 << i) != 0 && step(i) {
                pending &= !(1 << i);
            }
        }
    }
}

/// Round-robin scheduler over a cursor slice.
fn run_group<V: ?Sized + Stored>(
    tree: &Masstree<V>,
    cursors: &mut [Cursor<'_, V>],
    factory: &mut dyn FnMut(usize, Option<&V>) -> V::Owned,
    guard: &Guard,
) {
    run_round_robin(cursors.len(), |i| cursors[i].step(tree, factory, guard));
}

impl<V: ?Sized + Stored> Masstree<V> {
    /// Looks up a batch of keys with interleaved, software-pipelined
    /// descents, returning one result per key in input order.
    ///
    /// Semantically identical to calling [`Masstree::get`] once per key
    /// under the same guard; with batches of ≥ 8 independent keys the
    /// interleaving hides most per-level DRAM latency behind other
    /// operations' compute (§4.2 applied across operations).
    pub fn multi_get<'g>(&self, keys: &[&[u8]], guard: &'g Guard) -> Vec<Option<&'g V>> {
        let mut out = Vec::with_capacity(keys.len());
        self.multi_get_with(keys, guard, |_, hit| out.push(hit));
        out
    }

    /// Visitor form of [`Masstree::multi_get`]: calls `f(i, hit)` once
    /// per key, in input order, with the looked-up value borrowed under
    /// the guard. This is the zero-copy batch read path: cursors live in
    /// a fixed stack array and results are handed out as each group of
    /// [`MAX_GROUP`] keys finishes, so a steady-state call performs **no
    /// heap allocation**. In a batch of two or more keys every present
    /// value's prefetch has been issued by the time `f` sees it (see
    /// "The value stage" in the module docs; a single key takes the
    /// plain [`Masstree::get`]). A caller that follows a pointer inside
    /// the value should buffer the results before reading them, as the
    /// storage layer's `multi_get_with` does.
    pub fn multi_get_with<'g, F>(&self, keys: &[&[u8]], guard: &'g Guard, mut f: F)
    where
        F: FnMut(usize, Option<&'g V>),
    {
        if keys.len() < 2 {
            if let Some(k) = keys.first() {
                f(0, self.get(k, guard));
            }
            return;
        }
        let mut noop = |_: usize, _: Option<&V>| unreachable!("get cursors take no values");
        for (ci, chunk) in keys.chunks(MAX_GROUP).enumerate() {
            let base = ci * MAX_GROUP;
            let mut cursors: [Option<Cursor<'_, V>>; MAX_GROUP] = [const { None }; MAX_GROUP];
            for (i, k) in chunk.iter().enumerate() {
                cursors[i] = Some(Cursor::new(base + i, Mode::Get, k, self));
            }
            run_round_robin(chunk.len(), |i| {
                cursors[i]
                    .as_mut()
                    .expect("chunk cursors are initialized")
                    .step(self, &mut noop, guard)
            });
            self.stats
                .batched_ops
                .fetch_add(chunk.len() as u64, Ordering::Relaxed);
            for (i, slot) in cursors[..chunk.len()].iter().enumerate() {
                let c = slot.as_ref().expect("chunk cursors are initialized");
                // SAFETY: a validated value pointer for this key; epoch
                // reclamation keeps it live for `'g`.
                f(base + i, c.result.map(|p| unsafe { V::deref(p) }));
            }
        }
    }

    /// Hinted batch lookup: each key first tries its [`LeafHint`]
    /// (validated with zero descent — see `hint.rs`); the misses run
    /// through the interleaved batch traversal engine, capturing fresh
    /// hints at their validated endpoints. `f(i, value, fate)` is called
    /// once per key **in input order**; [`HintResult::Refreshed`]
    /// carries the replacement hint the caller should remember for that
    /// key.
    ///
    /// Results are identical to [`Masstree::multi_get_with`] under the
    /// same guard — a validated hint is indistinguishable from a full
    /// descent. The result and refreshed-hint buffers live in the
    /// caller's reusable [`HintBatchScratch`] and keep their capacity
    /// across calls, so a warm scratch makes the whole hinted batch read
    /// perform **zero heap allocations**, like `multi_get_with`.
    pub fn multi_get_hinted_with<'g, F>(
        &self,
        keys: &[&[u8]],
        hints: &[Option<LeafHint<V>>],
        scratch: &mut HintBatchScratch<V>,
        guard: &'g Guard,
        mut f: F,
    ) where
        F: FnMut(usize, Option<&'g V>, HintResult<V>),
    {
        assert_eq!(keys.len(), hints.len(), "one hint slot per key");
        // Warm every hinted node before validating any of them, so the
        // validations overlap each other's (rare) DRAM fetches.
        for h in hints.iter().flatten() {
            h.node().prefetch();
        }
        scratch.results.clear();
        scratch.results.resize(keys.len(), core::ptr::null());
        scratch.refreshed.clear();
        scratch.refreshed.resize(keys.len(), None);
        scratch.misses.clear();
        for (i, (key, hint)) in keys.iter().zip(hints).enumerate() {
            match hint {
                Some(h) => match self.get_at_hint(key, h, guard) {
                    // Present values keep their pointer (and start their
                    // value stage, as in `read_border`); absent stays
                    // null — `misses` records which nulls are pending.
                    HintedGet::Hit(Some(v)) => {
                        let p = (v as *const V).cast::<()>();
                        V::prefetch(p);
                        scratch.results[i] = p;
                    }
                    HintedGet::Hit(None) => {}
                    HintedGet::Stale => scratch.misses.push(i),
                },
                None => scratch.misses.push(i),
            }
        }
        // The misses take the normal interleaved engine, one cursor per
        // key, each capturing a fresh hint at its endpoint.
        let mut noop = |_: usize, _: Option<&V>| unreachable!("get cursors take no values");
        for ci in (0..scratch.misses.len()).step_by(MAX_GROUP) {
            let chunk = &scratch.misses[ci..scratch.misses.len().min(ci + MAX_GROUP)];
            let mut cursors: [Option<Cursor<'_, V>>; MAX_GROUP] = [const { None }; MAX_GROUP];
            for (ci, &i) in chunk.iter().enumerate() {
                cursors[ci] = Some(Cursor::new(i, Mode::Get, keys[i], self));
            }
            run_round_robin(chunk.len(), |ci| {
                cursors[ci]
                    .as_mut()
                    .expect("chunk cursors are initialized")
                    .step(self, &mut noop, guard)
            });
            self.stats
                .batched_ops
                .fetch_add(chunk.len() as u64, Ordering::Relaxed);
            for (ci, &i) in chunk.iter().enumerate() {
                let c = cursors[ci].as_ref().expect("chunk cursors are initialized");
                scratch.results[i] = c.result.map_or(core::ptr::null(), |p| p.cast_const());
                debug_assert!(c.hint.is_some(), "finished get cursors capture a hint");
                scratch.refreshed[i] = c.hint;
            }
        }
        for i in 0..keys.len() {
            let p = scratch.results[i];
            // SAFETY: a validated value pointer for this key (written
            // above, under this same guard); epoch reclamation keeps it
            // live for `'g`. Stale pointers from previous calls were
            // cleared by the resize.
            let v = if p.is_null() {
                None
            } else {
                Some(unsafe { V::deref(p) })
            };
            match scratch.refreshed[i] {
                Some(h) => f(i, v, HintResult::Refreshed(h)),
                None => f(i, v, HintResult::Hit),
            }
        }
    }

    /// Inserts or updates a batch of keys with interleaved descents.
    /// `keys[i]` receives `values[i]`; returns the previous value per key
    /// (as [`Masstree::put`] does), in input order.
    ///
    /// Keys may repeat within a batch, but the order in which duplicate
    /// keys' writes apply is unspecified — callers needing per-key
    /// ordering must split such batches (the network server does).
    pub fn multi_put<'g>(
        &self,
        keys: &[&[u8]],
        values: Vec<V::Owned>,
        guard: &'g Guard,
    ) -> Vec<Option<&'g V>> {
        assert_eq!(keys.len(), values.len(), "one value per key");
        let mut slots: Vec<Option<V::Owned>> = values.into_iter().map(Some).collect();
        self.multi_put_with(
            keys,
            |i, _old| slots[i].take().expect("value factory called once per op"),
            guard,
        )
    }

    /// Batch analogue of [`Masstree::put_with`]: for each key, `factory`
    /// is called exactly once — with the key's index and current value —
    /// under the owning border node's lock, and its result is installed
    /// atomically. Returns the previous value per key, in input order.
    pub fn multi_put_with<'g, F>(
        &self,
        keys: &[&[u8]],
        mut factory: F,
        guard: &'g Guard,
    ) -> Vec<Option<&'g V>>
    where
        F: FnMut(usize, Option<&V>) -> V::Owned,
    {
        let mut out = Vec::with_capacity(keys.len());
        if keys.len() < 2 {
            if let Some(k) = keys.first() {
                out.push(self.put_with(k, |old| Some(factory(0, old)), guard));
            }
            return out;
        }
        for (base, chunk) in keys.chunks(MAX_GROUP).enumerate() {
            let offset = base * MAX_GROUP;
            let mut cursors: Vec<Cursor<'_, V>> = chunk
                .iter()
                .enumerate()
                .map(|(i, k)| Cursor::new(offset + i, Mode::Put, k, self))
                .collect();
            run_group(self, &mut cursors, &mut factory, guard);
            self.stats
                .batched_ops
                .fetch_add(chunk.len() as u64, Ordering::Relaxed);
            for c in cursors {
                // SAFETY: the previous value, kept live for `'g` by epoch
                // reclamation (it was retired under this guard).
                out.push(c.result.map(|p| unsafe { V::deref(p) }));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_get_matches_get() {
        let tree: Masstree<u64> = Masstree::new();
        let g = crate::pin();
        for i in 0..500u64 {
            tree.put(format!("key{i:05}").as_bytes(), i, &g);
        }
        let keys: Vec<Vec<u8>> = (0..600u64)
            .map(|i| format!("key{:05}", i * 7 % 600).into_bytes())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let batch = tree.multi_get(&refs, &g);
        for (k, got) in refs.iter().zip(&batch) {
            assert_eq!(*got, tree.get(k, &g));
        }
        assert!(tree.stats().snapshot().batched_ops >= 600);
    }

    #[test]
    fn multi_get_with_visits_in_order() {
        let tree: Masstree<u64> = Masstree::new();
        let g = crate::pin();
        for i in 0..200u64 {
            tree.put(format!("ord{i:04}").as_bytes(), i, &g);
        }
        let keys: Vec<Vec<u8>> = (0..100u64)
            .map(|i| format!("ord{:04}", i * 3).into_bytes())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let mut seen = Vec::new();
        tree.multi_get_with(&refs, &g, |i, v| seen.push((i, v.copied())));
        assert_eq!(seen.len(), refs.len());
        for (pos, (i, v)) in seen.iter().enumerate() {
            assert_eq!(pos, *i, "visited in input order");
            assert_eq!(*v, tree.get(&keys[pos], &g).copied());
        }
    }

    #[test]
    fn multi_put_inserts_and_updates() {
        let tree: Masstree<u64> = Masstree::new();
        let g = crate::pin();
        let keys: Vec<Vec<u8>> = (0..300u64)
            .map(|i| format!("k{i:04}").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let prev = tree.multi_put(&refs, (0..300u64).collect(), &g);
        assert!(prev.iter().all(|p| p.is_none()), "fresh inserts");
        let prev = tree.multi_put(&refs, (0..300u64).map(|i| i + 1000).collect(), &g);
        for (i, p) in prev.iter().enumerate() {
            assert_eq!(p.copied(), Some(i as u64), "update returns old value");
        }
        for (i, k) in refs.iter().enumerate() {
            assert_eq!(tree.get(k, &g).copied(), Some(i as u64 + 1000));
        }
    }

    #[test]
    fn multi_ops_cross_layers() {
        // Keys sharing a 24-byte prefix force three trie layers.
        let tree: Masstree<u64> = Masstree::new();
        let g = crate::pin();
        let keys: Vec<Vec<u8>> = (0..200u64)
            .map(|i| format!("prefixprefixprefixprefix{i:06}").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        tree.multi_put(&refs, (0..200u64).collect(), &g);
        let got = tree.multi_get(&refs, &g);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(v.copied(), Some(i as u64));
        }
        // Absent keys under the same prefix return None.
        let miss = b"prefixprefixprefixprefix999999".as_slice();
        assert_eq!(tree.multi_get(&[miss, miss], &g), vec![None, None]);
    }

    #[test]
    fn multi_put_with_sees_old_values() {
        let tree: Masstree<u64> = Masstree::new();
        let g = crate::pin();
        let keys = [b"a".as_slice(), b"b".as_slice(), b"c".as_slice()];
        tree.multi_put(&keys, vec![1, 2, 3], &g);
        tree.multi_put_with(
            &keys,
            |i, old| old.copied().unwrap_or(0) * 10 + i as u64,
            &g,
        );
        assert_eq!(tree.get(b"a", &g).copied(), Some(10));
        assert_eq!(tree.get(b"b", &g).copied(), Some(21));
        assert_eq!(tree.get(b"c", &g).copied(), Some(32));
    }
}
