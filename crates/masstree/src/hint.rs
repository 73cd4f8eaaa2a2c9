//! Leaf hints: version-validated shortcuts to border nodes.
//!
//! A full `get` pays a root-to-leaf descent — several dependent node
//! visits, each a potential DRAM stall. On skewed workloads the same
//! handful of border nodes is re-traversed millions of times. A
//! [`LeafHint`] remembers where a previous lookup ended — the border
//! node, the version it validated under, and the trie-layer offset — so
//! a later lookup of the same key can jump straight to that node,
//! revalidate, and serve the value with **zero descent**.
//!
//! A `LeafHint` is a [`DescentAnchor`] (the shared validated-anchor
//! core, `anchor.rs`) plus a permutation/slot snapshot powering an
//! exact-match **fast path**. All generation/version validation — the
//! leading check and the trailing Figure 7 bracket — lives in
//! `DescentAnchor`; this module only adds the read-specific slot logic.
//! Hints are captured only by reads: writes always descend (§4.6), and
//! never record or consume a hint.
//!
//! # Why hinted reads can never be stale
//!
//! A hint is a *conjecture*, never an authority. [`Masstree::get_at_hint`]
//! re-proves it on every use:
//!
//! 1. **Reuse check** — the node's slab generation
//!    ([`crate::node::NodeHeader::generation`]) must equal the hint's
//!    snapshot. The generation is bumped when a node's memory is freed,
//!    so a hint can never validate against recycled memory.
//! 2. **Version check** — the node's version word must be unchanged
//!    (modulo the lock bit) since capture. Any split, node deletion,
//!    layer conversion under a freed slot, or freed-slot reuse bumps or
//!    dirties the version, so an unchanged version proves the node still
//!    covers the key's range in its trie layer.
//! 3. **Live search** — the key is looked up in the node's *current*
//!    permutation, exactly as Figure 7 does. Plain inserts and removes
//!    do not bump the version (by design, §4.6), but they publish new
//!    permutations, so the search observes them: a hinted read of a key
//!    inserted after capture finds it, and of a key removed after
//!    capture correctly reports absence. Value updates replace the slot
//!    pointer in place, so a hinted read always returns the *newest*
//!    value.
//! 4. **Re-validation** — version and generation are re-checked after
//!    the reads (the Figure 7 discipline). Any failure returns
//!    [`HintedGet::Stale`] and the caller falls back to a normal
//!    descent, which refreshes the hint.
//!
//! Staleness is therefore impossible by construction: a hinted read
//! either proves it executed against the same unchanged border node a
//! descent would have reached — making it indistinguishable from a
//! plain `get` — or it refuses to answer.
//!
//! # Why dangling hints are safe
//!
//! Node memory is type-stable (the slab never returns it to the OS) and,
//! after first initialization, mutated **only with atomic stores** —
//! including reinitialization when recycled (`node.rs`). Reading through
//! a stale pointer is therefore always race-free; the generation
//! protocol makes it *detectable*. Ordering closes the races: the
//! generation bump (release, in `NodePtr::free`) happens-before any
//! recycled-node store (release) via the slab free-list hand-off, so a
//! hinted reader (acquire loads) that observes any post-reuse value also
//! observes the bump and bails. A reader that observes only pre-free
//! values sees a consistent old node — and every in-tree node is marked
//! DELETED before retirement, a version change the hint detects. Value
//! and suffix dereferences are protected by the epoch guard exactly as
//! in `get`: a pointer loaded from a slot the current permutation
//! publishes cannot be reclaimed before the guard unpins.

use core::marker::PhantomData;
use core::sync::atomic::Ordering;

use crossbeam::epoch::Guard;

use crate::anchor::DescentAnchor;
pub use crate::anchor::NodeRef;
use crate::key::{keylen_rank, KeyCursor, KEYLEN_SUFFIX};
use crate::node::{BorderNode, BorderSearch, ExtractedLv};
use crate::permutation::Permutation;
use crate::suffix::KeySuffix;
use crate::tree::Masstree;
use crate::version::Version;

/// Slot sentinel in a hint captured for an *absent* key.
const NO_SLOT: u8 = u8::MAX;

/// Permutation sentinel that can never equal a live permutation word
/// (it would mean 15 live keys all in slot 15): hints carrying it never
/// take the fast path. Used when absence was concluded from a *suffix
/// mismatch* — such a slot can later be converted into a layer that
/// contains the key without any version or permutation movement, so the
/// absence must be re-established against live state on every use.
const PERM_NEVER: u64 = u64::MAX;

/// A remembered lookup endpoint: a [`DescentAnchor`] (border node + the
/// version it validated under + the trie-layer byte offset) plus the
/// permutation snapshot, matched slot and keylen code (or [`NO_SLOT`]
/// for an absent key). 32 bytes. Captured by
/// [`Masstree::get_capturing_hint`] / [`Masstree::multi_get_hinted`];
/// consumed by [`Masstree::get_at_hint`].
///
/// The permutation/slot/keylen snapshot powers the **fast path**: if
/// the node's version *and* permutation are exactly unchanged since
/// capture, the entry set is provably identical — the remembered slot
/// still holds the remembered key (slot contents are immutable while it
/// stays published, and every reuse dirties the version), so the read
/// is just `lv[slot]`, skipping the border search *and* the suffix
/// comparison. Only the value pointer is re-read, so in-place updates
/// are always observed.
pub struct LeafHint<V> {
    pub(crate) ptr: *const BorderNode<V>,
    pub(crate) perm: u64,
    pub(crate) gen: u32,
    pub(crate) version: Version,
    pub(crate) offset: u32,
    pub(crate) slot: u8,
    pub(crate) keylen: u8,
    pub(crate) _marker: PhantomData<fn(V) -> V>,
}

// SAFETY: as for NodeRef — an opaque token, dereferenced only under the
// validation protocol.
unsafe impl<V: Send + Sync> Send for LeafHint<V> {}
// SAFETY: as above.
unsafe impl<V: Send + Sync> Sync for LeafHint<V> {}

impl<V> Clone for LeafHint<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for LeafHint<V> {}
impl<V> core::fmt::Debug for LeafHint<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "LeafHint({:?}, v{:#x}, off {})",
            self.node(),
            self.version.0,
            self.offset
        )
    }
}

impl<V> LeafHint<V> {
    /// Captures a hint for a key found at `slot` (with keylen `code`).
    #[inline]
    pub(crate) fn capture(
        bn: &BorderNode<V>,
        version: Version,
        perm: Permutation,
        slot: usize,
        code: u8,
        offset: usize,
    ) -> Self {
        LeafHint {
            ptr: bn as *const BorderNode<V>,
            perm: perm.raw(),
            gen: bn.generation() as u32,
            version,
            offset: offset as u32,
            slot: slot as u8,
            keylen: code,
            _marker: PhantomData,
        }
    }

    /// Captures a hint recording that the key is absent from `bn`.
    ///
    /// `conclusive` distinguishes *how* absence was established: a
    /// search miss (no slot with the key's rank at all) is stable under
    /// an unchanged permutation and may use the fast path; a suffix
    /// *mismatch* (the rank-9 slot holds a different key) is not — a
    /// layer conversion can add the key below that slot without moving
    /// the version or permutation — so it gets [`PERM_NEVER`] and
    /// always revalidates through the live search.
    #[inline]
    pub(crate) fn capture_absent(
        bn: &BorderNode<V>,
        version: Version,
        perm: Permutation,
        offset: usize,
        conclusive: bool,
    ) -> Self {
        LeafHint {
            ptr: bn as *const BorderNode<V>,
            perm: if conclusive { perm.raw() } else { PERM_NEVER },
            gen: bn.generation() as u32,
            version,
            offset: offset as u32,
            slot: NO_SLOT,
            keylen: 0,
            _marker: PhantomData,
        }
    }

    /// The generation-stamped node this hint remembers.
    #[inline]
    pub fn node(&self) -> NodeRef<V> {
        NodeRef::new(self.ptr, self.gen)
    }

    /// The shared validated-anchor view of this hint — what hinted
    /// reads validate against.
    #[inline]
    pub fn anchor(&self) -> DescentAnchor<V> {
        DescentAnchor {
            ptr: self.ptr,
            gen: self.gen,
            version: self.version,
            offset: self.offset,
            _marker: PhantomData,
        }
    }
}

/// Outcome of a hinted lookup.
pub enum HintedGet<'g, V> {
    /// The hint validated; this is the answer a full descent would give
    /// (`None` = key absent).
    Hit(Option<&'g V>),
    /// Validation failed (split, node deletion, reuse, layer change, or
    /// a racing writer): the caller must fall back to a normal descent.
    Stale,
}

/// What happened to the hint during [`Masstree::get_with_hint`] /
/// [`Masstree::multi_get_hinted`].
pub enum HintResult<V> {
    /// The provided hint validated and served the operation.
    Hit,
    /// The operation fell back to a full descent (no hint, or a stale
    /// one); here is a fresh hint for this key, captured at the
    /// descent's validated endpoint.
    Refreshed(LeafHint<V>),
}

impl<V: Send + Sync + 'static> Masstree<V> {
    /// Attempts to serve `get(key)` from a leaf hint with **zero
    /// descent**: jump to the remembered border node, prove it unchanged
    /// (generation + version, via the shared [`DescentAnchor`] core),
    /// search its live permutation, re-validate. Returns
    /// [`HintedGet::Stale`] if the proof fails; the result is never
    /// silently stale (see the module docs).
    ///
    /// The guard keeps any returned value alive; validation itself does
    /// not rely on it.
    pub fn get_at_hint<'g>(
        &self,
        key: &[u8],
        hint: &LeafHint<V>,
        guard: &'g Guard,
    ) -> HintedGet<'g, V> {
        let anchor = hint.anchor();
        // Leading validation (shared anchor core): same incarnation,
        // version unchanged since capture.
        let Some(bn) = anchor.enter(guard) else {
            return HintedGet::Stale;
        };
        // The node is (still) the border node responsible for this key's
        // slice in its trie layer: unchanged version ⇒ no split, no
        // deletion (`lowkey` is constant for a node's lifetime, and only
        // splits move its upper bound).
        let perm_now = bn.permutation();
        let out: Option<*mut ()>;
        if perm_now.raw() == hint.perm {
            // Fast path: version AND permutation exactly match capture,
            // so the entry set is identical to capture time — any route
            // back to the same permutation passes through a freed-slot
            // reuse, which dirties the version. The remembered slot
            // (verified against the whole key at capture) therefore
            // still holds this key: read its value pointer directly, no
            // search, no suffix comparison. In-place value updates are
            // observed because only `lv` is re-read.
            if hint.slot == NO_SLOT {
                out = None;
            } else {
                let slot = hint.slot as usize;
                // `lv` before `keylen` (the `extract_lv` ordering): if
                // the keylen still shows the captured code, the `lv`
                // read happened before any layer conversion overwrote
                // it.
                let lv1 = bn.lv[slot].load(Ordering::Acquire);
                let code = bn.keylen[slot].load(Ordering::Acquire);
                if code != hint.keylen {
                    // Layer conversion (UNSTABLE/LAYER) in flight — it
                    // mutates the slot without a version bump. Fall
                    // back to the descent.
                    return HintedGet::Stale;
                }
                // Start the value fetch under the trailing validation.
                crate::prefetch::prefetch(lv1.cast::<u8>());
                out = Some(lv1);
            }
        } else {
            // Slow path: the permutation moved (inserts/removes don't
            // bump the version). The node still covers the key's range,
            // so search the *live* permutation exactly as a descent
            // would — a key inserted after capture is found, a removed
            // one correctly reports absent.
            let k = KeyCursor::with_offset(key, hint.offset as usize);
            let ikey = k.ikey();
            let rank = keylen_rank(k.keylen_code());
            match bn.search(perm_now, ikey, rank) {
                BorderSearch::Missing { .. } => out = None,
                BorderSearch::Found { slot, .. } => {
                    let (code, ex) = bn.extract_lv(slot);
                    match ex {
                        // Mid-conversion or a layer link: the answer
                        // lives a layer deeper — let the full descent
                        // handle it.
                        ExtractedLv::Unstable | ExtractedLv::Layer(_) => return HintedGet::Stale,
                        ExtractedLv::Value(p) => {
                            if code == KEYLEN_SUFFIX {
                                let sp = bn.suffix[slot].load(Ordering::Acquire);
                                if sp.is_null() {
                                    // Torn with a concurrent reuse.
                                    return HintedGet::Stale;
                                }
                                // SAFETY: suffix blocks are immutable
                                // and epoch-reclaimed; one reachable
                                // from the live permutation is live
                                // under the pinned guard (same argument
                                // as Figure 7's read).
                                let sb = unsafe { KeySuffix::bytes(sp) };
                                if sb == k.suffix() {
                                    out = Some(p);
                                } else {
                                    out = None;
                                }
                            } else if code as usize == k.slice_len() && !k.has_suffix() {
                                out = Some(p);
                            } else {
                                // keylen changed under us (slot reuse in
                                // flight); don't spin — fall back.
                                return HintedGet::Stale;
                            }
                        }
                    }
                }
            }
        }
        // Trailing re-validation (shared anchor core): brackets every
        // read above.
        if !anchor.still_valid(bn) {
            return HintedGet::Stale;
        }
        // SAFETY: a validated value pointer read from a slot the live
        // permutation publishes; its retirement cannot precede our pin
        // (the publishing store did not), so epoch reclamation keeps it
        // live for `'g`.
        HintedGet::Hit(out.map(|p| unsafe { &*p.cast::<V>() }))
    }

    /// `get(key)` through an optional hint: validates the hint first,
    /// falls back to a full capturing descent on miss. Returns the value
    /// and what happened to the hint — [`HintResult::Refreshed`] carries
    /// the replacement hint the caller should remember.
    pub fn get_with_hint<'g>(
        &self,
        key: &[u8],
        hint: Option<&LeafHint<V>>,
        guard: &'g Guard,
    ) -> (Option<&'g V>, HintResult<V>) {
        if let Some(h) = hint {
            if let HintedGet::Hit(v) = self.get_at_hint(key, h, guard) {
                return (v, HintResult::Hit);
            }
        }
        let (v, fresh) = self.get_capturing_hint(key, guard);
        (v, HintResult::Refreshed(fresh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pin;

    #[test]
    fn hint_roundtrips_and_serves_updates() {
        let tree: Masstree<u64> = Masstree::new();
        let g = pin();
        tree.put(b"alpha", 1, &g);
        let (v, hint) = tree.get_capturing_hint(b"alpha", &g);
        assert_eq!(v.copied(), Some(1));
        // A value update does not bump the node version: the hint stays
        // valid and serves the NEW value.
        tree.put(b"alpha", 2, &g);
        match tree.get_at_hint(b"alpha", &hint, &g) {
            HintedGet::Hit(v) => assert_eq!(v.copied(), Some(2)),
            HintedGet::Stale => panic!("update must not invalidate the hint"),
        }
    }

    #[test]
    fn hint_observes_remove_and_reinsert() {
        let tree: Masstree<u64> = Masstree::new();
        let g = pin();
        tree.put(b"k1", 10, &g);
        tree.put(b"k2", 20, &g);
        let (_, hint) = tree.get_capturing_hint(b"k1", &g);
        tree.remove(b"k1", &g);
        // Removes publish a new permutation without a version bump; the
        // hinted read searches live state and reports absence.
        match tree.get_at_hint(b"k1", &hint, &g) {
            HintedGet::Hit(v) => assert!(v.is_none()),
            HintedGet::Stale => {} // also acceptable (freed-slot paths)
        }
    }

    #[test]
    fn negative_hint_sees_later_insert() {
        let tree: Masstree<u64> = Masstree::new();
        let g = pin();
        tree.put(b"anchor", 1, &g);
        let (v, hint) = tree.get_capturing_hint(b"newkey", &g);
        assert!(v.is_none());
        tree.put(b"newkey", 42, &g);
        // A plain insert into a fresh slot does not bump the version;
        // the hinted read's live search must find the new key (or the
        // validation must fail) — never a stale "absent".
        match tree.get_at_hint(b"newkey", &hint, &g) {
            HintedGet::Hit(v) => assert_eq!(v.copied(), Some(42)),
            HintedGet::Stale => {
                assert_eq!(tree.get(b"newkey", &g).copied(), Some(42));
            }
        }
    }

    #[test]
    fn split_invalidates_hint() {
        let tree: Masstree<u64> = Masstree::new();
        let g = pin();
        tree.put(b"seed0000", 0, &g);
        let (_, hint) = tree.get_capturing_hint(b"seed0000", &g);
        // Enough inserts to split the (single) border node many times.
        for i in 0..1000u64 {
            tree.put(format!("seed{i:04}").as_bytes(), i, &g);
        }
        match tree.get_at_hint(b"seed0000", &hint, &g) {
            HintedGet::Stale => {}
            HintedGet::Hit(_) => panic!("a split (or dirty insert) must invalidate the hint"),
        }
        // The refresh path works and agrees with get.
        let (v, hint2) = tree.get_capturing_hint(b"seed0000", &g);
        assert_eq!(v.copied(), Some(0));
        match tree.get_at_hint(b"seed0000", &hint2, &g) {
            HintedGet::Hit(v) => assert_eq!(v.copied(), Some(0)),
            HintedGet::Stale => panic!("fresh hint must validate"),
        }
    }

    #[test]
    fn deep_layer_hints_resume_at_their_layer() {
        let tree: Masstree<u64> = Masstree::new();
        let g = pin();
        // 24-byte shared prefix forces three trie layers.
        let keys: Vec<Vec<u8>> = (0..50u64)
            .map(|i| format!("prefixprefixprefixprefix{i:06}").into_bytes())
            .collect();
        for (i, k) in keys.iter().enumerate() {
            tree.put(k, i as u64, &g);
        }
        for (i, k) in keys.iter().enumerate() {
            let (v, hint) = tree.get_capturing_hint(k, &g);
            assert_eq!(v.copied(), Some(i as u64));
            assert!(hint.offset >= 24, "hint captured in a deep layer");
            assert_eq!(hint.anchor().offset(), hint.offset as usize);
            match tree.get_at_hint(k, &hint, &g) {
                HintedGet::Hit(v) => assert_eq!(v.copied(), Some(i as u64)),
                HintedGet::Stale => panic!("fresh deep-layer hint must validate"),
            }
        }
    }

    #[test]
    fn layer_conversion_under_hint_falls_back() {
        let tree: Masstree<u64> = Masstree::new();
        let g = pin();
        tree.put(b"sharedpfx-A", 1, &g);
        let (_, hint) = tree.get_capturing_hint(b"sharedpfx-A", &g);
        // Same 8-byte slice, different suffix: converts the slot into a
        // layer link.
        tree.put(b"sharedpfx-B", 2, &g);
        match tree.get_at_hint(b"sharedpfx-A", &hint, &g) {
            HintedGet::Stale => {}
            HintedGet::Hit(v) => {
                // Only acceptable if it still proves the live value.
                assert_eq!(v.copied(), Some(1));
            }
        }
        assert_eq!(tree.get(b"sharedpfx-A", &g).copied(), Some(1));
        assert_eq!(tree.get(b"sharedpfx-B", &g).copied(), Some(2));
    }
}
