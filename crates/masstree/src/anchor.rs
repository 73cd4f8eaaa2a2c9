//! The validated-anchor core: **one** validation story for every hinted
//! read entry into the tree.
//!
//! A [`DescentAnchor`] is a remembered descent endpoint — a border node,
//! the slab generation and OCC version it was observed under, and the
//! trie-layer byte offset the node indexes. Both reads that skip the
//! root-to-leaf descent route through this type:
//!
//! * **point reads** ([`crate::hint::LeafHint`], which wraps an anchor
//!   plus a permutation snapshot for its exact-match fast path) validate
//!   with [`DescentAnchor::enter`] / [`DescentAnchor::still_valid`] —
//!   the Figure 7 bracket, generalized;
//! * **scans** ([`crate::scan::ScanCursor`]) re-enter their last border
//!   node with [`DescentAnchor::enter_for_scan`], which tolerates
//!   concurrent *inserts* (the per-node snapshot re-validates anyway)
//!   but rejects splits and deletions, the changes that move key ranges.
//!
//! Writes never enter through an anchor: every put, remove and update
//! descends from the root and locks its border node as §4.6 describes.
//!
//! Validation failure is always safe: the caller falls back to a normal
//! descent, which refreshes the anchor. See `hint.rs` for the read-side
//! soundness argument; the scan-side argument is documented on
//! [`DescentAnchor::enter_for_scan`].

use core::marker::PhantomData;
use core::sync::atomic::Ordering;

use crossbeam::epoch::Guard;

use crate::node::BorderNode;
use crate::version::Version;

/// A generation-stamped reference to a border node, safe to hold across
/// (and outside) epoch guards. Dereferenced only through the validation
/// protocol in this module; see the `hint.rs` module docs for why the
/// raw pointer can never be *used* after free.
///
/// The generation snapshot is truncated to 32 bits (a stale anchor
/// validates against recycled memory only if the node's memory was
/// freed exactly a multiple of 2³² times between capture and use —
/// the same flavor of assumption the version counters already make,
/// with a far wider margin), which keeps a [`crate::hint::LeafHint`]
/// at 32 bytes.
pub struct NodeRef<V> {
    pub(crate) ptr: *const BorderNode<V>,
    pub(crate) gen: u32,
    _marker: PhantomData<fn(V) -> V>,
}

impl<V> NodeRef<V> {
    #[inline]
    pub(crate) fn new(ptr: *const BorderNode<V>, gen: u32) -> Self {
        NodeRef {
            ptr,
            gen,
            _marker: PhantomData,
        }
    }

    /// Prefetches the node's cache lines (useful before validating a
    /// batch of anchors).
    #[inline]
    pub fn prefetch(&self) {
        crate::prefetch::prefetch(self.ptr);
    }
}

impl<V> Clone for NodeRef<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for NodeRef<V> {}
impl<V> core::fmt::Debug for NodeRef<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "NodeRef({:p}@g{})", self.ptr, self.gen)
    }
}

// SAFETY: a NodeRef is an opaque token; the pointer is only dereferenced
// under the validation protocol, which is sound from any thread (all
// node fields are atomics in type-stable memory).
unsafe impl<V: Send + Sync> Send for NodeRef<V> {}
// SAFETY: as above.
unsafe impl<V: Send + Sync> Sync for NodeRef<V> {}

/// A validated descent endpoint: border node + slab generation + the
/// version it was observed under + the trie-layer byte offset the node
/// indexes. The unit of "conjecture, then validate" shared by hinted
/// reads and resumable scans.
pub struct DescentAnchor<V> {
    pub(crate) ptr: *const BorderNode<V>,
    pub(crate) gen: u32,
    pub(crate) version: Version,
    pub(crate) offset: u32,
    pub(crate) _marker: PhantomData<fn(V) -> V>,
}

impl<V> Clone for DescentAnchor<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for DescentAnchor<V> {}
impl<V> core::fmt::Debug for DescentAnchor<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "DescentAnchor({:p}@g{}, v{:#x}, off {})",
            self.ptr, self.gen, self.version.0, self.offset
        )
    }
}

// SAFETY: as for NodeRef — an opaque token, dereferenced only under the
// validation protocol.
unsafe impl<V: Send + Sync> Send for DescentAnchor<V> {}
// SAFETY: as above.
unsafe impl<V: Send + Sync> Sync for DescentAnchor<V> {}

impl<V> DescentAnchor<V> {
    /// Captures an anchor at a border node observed under `version`
    /// (which must be a validated, non-deleted snapshot) while indexing
    /// the trie layer at byte `offset`.
    #[inline]
    pub(crate) fn capture(bn: &BorderNode<V>, version: Version, offset: usize) -> Self {
        debug_assert!(!version.is_deleted(), "anchors capture live endpoints");
        DescentAnchor {
            ptr: bn as *const BorderNode<V>,
            gen: bn.generation() as u32,
            version,
            offset: offset as u32,
            _marker: PhantomData,
        }
    }

    /// The generation-stamped node this anchor remembers.
    #[inline]
    pub fn node(&self) -> NodeRef<V> {
        NodeRef::new(self.ptr, self.gen)
    }

    /// The trie-layer byte offset the anchored node indexes (8 × layer
    /// depth).
    #[inline]
    pub fn offset(&self) -> usize {
        self.offset as usize
    }

    /// **Read-side leading validation**: dereference the conjecture and
    /// prove the node is *exactly* as captured — same slab incarnation
    /// (generation) and unchanged version (modulo the lock bit). An
    /// unchanged version proves no split, no deletion, no freed-slot
    /// reuse: the node still covers the same key range in the same trie
    /// layer, so reads against it are indistinguishable from a fresh
    /// descent. Also issues the whole-node prefetch a descent would.
    ///
    /// The guard does not protect the validation itself (type-stable
    /// atomics do); it scopes the returned reference and everything the
    /// caller reads through it, exactly as in `get`.
    #[inline]
    pub(crate) fn enter<'g>(&self, _guard: &'g Guard) -> Option<&'g BorderNode<V>> {
        // SAFETY: slab node memory is type-stable and only ever mutated
        // with atomic stores after first initialization, so forming a
        // shared reference and loading atomics is race-free even if the
        // node was freed or its memory recycled; the generation/version
        // checks below detect those cases before anything is trusted.
        let bn = unsafe { &*self.ptr };
        // Fetch the whole node now: validation reads line 0 while the
        // `lv`/suffix lines arrive in parallel — a hinted read must not
        // pay the serial line-by-line stalls a prefetched descent never
        // pays.
        crate::prefetch::prefetch(self.ptr);
        let v = bn.version().load(Ordering::Acquire);
        if self.version.has_changed(v) || bn.generation() as u32 != self.gen {
            return None;
        }
        Some(bn)
    }

    /// **Trailing re-validation** (Figure 7's `n.version ⊕ v > locked`,
    /// plus the reuse generation): an exact match brackets every read
    /// the caller performed since [`DescentAnchor::enter`] — in
    /// particular, a freed-slot reuse racing a fast-path `lv` read marks
    /// INSERTING before touching the slot, which this check observes.
    #[inline]
    pub(crate) fn still_valid(&self, bn: &BorderNode<V>) -> bool {
        let v2 = bn.version().load(Ordering::Acquire);
        !self.version.has_changed(v2) && bn.generation() as u32 == self.gen
    }

    /// **Scan-side leading validation**: like [`DescentAnchor::enter`]
    /// but tolerant of concurrent *inserts and removes* — a scan's
    /// per-node snapshot re-validates its own reads, so resumption only
    /// needs the node to still cover the same key range in the same
    /// layer. That holds exactly when the memory is the same incarnation
    /// (generation) and the node has neither split nor been deleted
    /// since capture (`lowkey` is constant for a node's lifetime; only
    /// splits move its upper bound, and both bump `vsplit`/DELETED).
    ///
    /// Ordering: the version is loaded *before* the generation — a
    /// matching generation read second proves no free happened up to
    /// that point, so the version value belongs to the captured
    /// incarnation. And a non-deleted version observed after the
    /// caller's pin proves the node was not yet retired, so the epoch
    /// protects the whole resumed walk.
    #[inline]
    pub(crate) fn enter_for_scan<'g>(&self, _guard: &'g Guard) -> Option<&'g BorderNode<V>> {
        // SAFETY: as in `enter`.
        let bn = unsafe { &*self.ptr };
        crate::prefetch::prefetch(self.ptr);
        let v = bn.version().load(Ordering::Acquire);
        if self.version.has_split(v) || bn.generation() as u32 != self.gen {
            return None;
        }
        Some(bn)
    }
}
