//! Masstree node structures (Figure 2 of the paper).
//!
//! Interior and border nodes are the internal and leaf nodes of a width-15
//! B+-tree; border nodes can additionally hold links to deeper trie layers.
//! Both begin (via `#[repr(C)]`) with a [`NodeHeader`] containing the
//! version word, so a type-punned [`NodePtr`] can read the `ISBORDER` bit
//! and downcast. This module owns that central `unsafe`; everything above
//! it works with typed references.
//!
//! # Concurrency
//!
//! Every field a reader may race on is an atomic. Writers publish with
//! release stores while holding the node spinlock; readers use acquire
//! loads validated by the version protocol (`version.rs`). Fields written
//! only under a lock and read only under the same lock could in principle
//! be plain cells, but keeping them atomic (with relaxed ordering where
//! possible) keeps the whole structure free of `UnsafeCell` aliasing
//! hazards at negligible x86 cost.

use core::alloc::Layout;
use core::marker::PhantomData;
use core::ptr;
use core::sync::atomic::{AtomicPtr, AtomicU16, AtomicU64, AtomicU8, Ordering};

use crate::key::{keylen_rank, slice_at, KeyCursor, KEYLEN_LAYER, KEYLEN_SUFFIX, KEYLEN_UNSTABLE};
use crate::permutation::{Permutation, WIDTH};
use crate::prefetch::prefetch;
use crate::suffix;
use crate::version::VersionCell;

/// Common prefix of both node types: the version word and the slab
/// reuse generation.
#[repr(C)]
pub struct NodeHeader {
    pub version: VersionCell,
    /// Slab-reuse generation, read by hinted readers (`hint.rs`) to
    /// detect that a remembered node was freed and its memory recycled.
    /// Bumped (release) in [`NodePtr::free`] just before the memory goes
    /// back to the slab free lists; **preserved** across reallocation
    /// (node reinit never touches it), so a hint captured before a free
    /// can never validate against whatever node the memory becomes next.
    pub generation: AtomicU64,
}

impl NodeHeader {
    /// Acquire-loads the reuse generation. The acquire pairs with the
    /// release stores of node reinitialization: a hinted reader that
    /// observes any post-reuse field value is guaranteed to observe the
    /// generation bump too (the bump happens-before the reinit via the
    /// slab free-list hand-off).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

/// A border (leaf) node: keys, values, suffixes and layer links, plus the
/// doubly-linked leaf list used by scans and concurrent remove.
#[repr(C, align(64))]
pub struct BorderNode<V: ?Sized> {
    pub header: NodeHeader,
    /// Slots freed by `remove` since last reuse; inserting into one of
    /// these requires a vinsert bump (§4.6.5).
    pub freed_mask: AtomicU16,
    /// Per-slot key-length codes (see `key.rs`).
    pub keylen: [AtomicU8; WIDTH],
    /// Key order + free list, published atomically (§4.6.2).
    pub permutation: AtomicU64,
    /// 8-byte key slices as big-endian integers.
    pub keyslice: [AtomicU64; WIDTH],
    /// Value pointer (`V`'s thin [`crate::Stored`] pointer) or next-layer
    /// root (`*mut NodeHeader`),
    /// discriminated by `keylen` (the paper's `link_or_value`).
    pub lv: [AtomicPtr<()>; WIDTH],
    /// Suffix words (`suffix.rs`): a 1–8-byte suffix itself, or a
    /// suffix block's pointer when `keylen == KEYLEN_SUFFIX_BLOCK`.
    pub ksuf: [AtomicU64; WIDTH],
    pub next: AtomicPtr<BorderNode<V>>,
    pub prev: AtomicPtr<BorderNode<V>>,
    pub parent: AtomicPtr<InteriorNode<V>>,
    /// Inclusive lower bound of this node's slice range. Constant for the
    /// node's lifetime (§4.6.4); meaningless for the leftmost node, whose
    /// logical lowkey is −∞.
    pub lowkey: AtomicU64,
    pub _marker: PhantomData<fn(&V) -> &V>,
}

/// An interior node: separators and children of the width-15 B+-tree.
#[repr(C, align(64))]
pub struct InteriorNode<V: ?Sized> {
    pub header: NodeHeader,
    pub nkeys: AtomicU8,
    pub keyslice: [AtomicU64; WIDTH],
    pub child: [AtomicPtr<NodeHeader>; WIDTH + 1],
    pub parent: AtomicPtr<InteriorNode<V>>,
    pub _marker: PhantomData<fn(&V) -> &V>,
}

/// Result of searching a border node for a `(slice, rank)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BorderSearch {
    /// Key present: sorted position and slot index.
    Found { pos: usize, slot: usize },
    /// Key absent: the sorted position where it would be inserted.
    Missing { pos: usize },
}

/// What a border slot's `link_or_value` held at extraction time
/// (Figure 7's `t` tag).
pub enum ExtractedLv {
    /// The slot holds a plain value pointer.
    Value(*mut ()),
    /// The slot links to a deeper trie layer.
    Layer(*mut NodeHeader),
    /// The slot is mid-conversion (§4.6.3); the reader must re-extract.
    Unstable,
}

/// What a border node holds for one key, from one validated optimistic
/// read ([`BorderNode::match_key`]).
pub enum SlotMatch {
    /// The key is absent. Not `conclusive` when the key's rank-9 slot
    /// holds another suffixed key: a layer conversion can later put the
    /// key below that slot without moving the version or permutation.
    Absent { conclusive: bool },
    /// The key's value, at `slot` with keylen `code`.
    Value { slot: usize, code: u8, lv: *mut () },
    /// The key continues in the layer rooted at `root`, linked from
    /// `slot`.
    Layer { slot: usize, root: *mut NodeHeader },
    /// The slot is mid-conversion (§4.6.3); read again.
    Unstable,
}

fn atomic_ptr_array<T, const N: usize>() -> [AtomicPtr<T>; N] {
    // `AtomicPtr` is not `Copy`; an inline-const repeat builds the array.
    [const { AtomicPtr::new(ptr::null_mut()) }; N]
}

fn atomic_u64_array<const N: usize>() -> [AtomicU64; N] {
    [const { AtomicU64::new(0) }; N]
}

fn atomic_u8_array<const N: usize>() -> [AtomicU8; N] {
    [const { AtomicU8::new(0) }; N]
}

impl<V: ?Sized> BorderNode<V> {
    /// Allocates an empty border node from the slab (`slab.rs`).
    pub fn alloc(is_root: bool, locked: bool, lowkey: u64) -> *mut BorderNode<V> {
        let (raw, fresh) = crate::slab::alloc_node(Layout::new::<BorderNode<V>>());
        let p = raw.cast::<BorderNode<V>>();
        if fresh {
            // SAFETY: fresh slab memory sized and aligned for
            // `BorderNode<V>`, never published — nothing can race the
            // plain write.
            unsafe {
                p.write(BorderNode {
                    header: NodeHeader {
                        version: VersionCell::new(true, is_root, locked),
                        generation: AtomicU64::new(0),
                    },
                    freed_mask: AtomicU16::new(0),
                    keylen: atomic_u8_array(),
                    permutation: AtomicU64::new(Permutation::empty().raw()),
                    keyslice: atomic_u64_array(),
                    lv: atomic_ptr_array(),
                    ksuf: atomic_u64_array(),
                    next: AtomicPtr::new(ptr::null_mut()),
                    prev: AtomicPtr::new(ptr::null_mut()),
                    parent: AtomicPtr::new(ptr::null_mut()),
                    lowkey: AtomicU64::new(lowkey),
                    _marker: PhantomData,
                });
            }
        } else {
            // Recycled node memory. A stale leaf hint (`hint.rs`) may
            // still be concurrently *reading* these bytes — slab memory
            // is type-stable and every field is an atomic, so shared
            // reads are fine, but the reinitialization must therefore
            // use atomic stores (a plain `p.write` would be a data
            // race). Release ordering pairs with hinted readers' acquire
            // loads: observing any reinit value implies observing the
            // generation bump done when this memory was freed, so the
            // stale hint bails. The generation itself is preserved.
            //
            // SAFETY: recycled slab memory of this size class holds a
            // fully initialized node (every field an integer-like atomic
            // valid for any bit pattern), so forming a shared reference
            // is sound.
            let n = unsafe { &*p };
            n.header.version.reinit(true, is_root, locked);
            n.freed_mask.store(0, Ordering::Release);
            for i in 0..WIDTH {
                n.keylen[i].store(0, Ordering::Release);
                n.keyslice[i].store(0, Ordering::Release);
                n.lv[i].store(ptr::null_mut(), Ordering::Release);
                n.ksuf[i].store(0, Ordering::Release);
            }
            n.permutation
                .store(Permutation::empty().raw(), Ordering::Release);
            n.next.store(ptr::null_mut(), Ordering::Release);
            n.prev.store(ptr::null_mut(), Ordering::Release);
            n.parent.store(ptr::null_mut(), Ordering::Release);
            n.lowkey.store(lowkey, Ordering::Release);
        }
        p
    }

    /// Allocates the right sibling for a split of `src` (Figure 5's
    /// `n'.version ← n.version`): the new node starts locked and splitting
    /// like its source, but is never a root.
    pub fn alloc_for_split(src: &VersionCell, lowkey: u64) -> *mut BorderNode<V> {
        let p = Self::alloc(false, false, lowkey);
        // Atomic store (not a struct overwrite): the memory may be
        // recycled and watched by a stale hinted reader.
        // SAFETY: just allocated, valid node.
        unsafe { (*p).header.version.reinit_for_split(src) };
        p
    }

    /// This node's slab-reuse generation (see [`NodeHeader::generation`]).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.header.generation()
    }

    #[inline]
    pub fn version(&self) -> &VersionCell {
        &self.header.version
    }

    #[inline]
    pub fn permutation(&self) -> Permutation {
        Permutation::from_raw(self.permutation.load(Ordering::Acquire))
    }

    /// Publishes a new permutation (the single atomic step that makes an
    /// insert or remove visible).
    #[inline]
    pub fn publish_permutation(&self, p: Permutation) {
        self.permutation.store(p.raw(), Ordering::Release);
    }

    /// Searches the live keys for `(ikey, rank)`.
    ///
    /// `rank` is the target's comparison rank (`keylen_rank` of its code):
    /// inline lengths compare by length; any ">8 bytes" resident (suffix,
    /// layer, unstable) occupies rank 9. Linear search: the paper found it
    /// as fast or faster than binary search on these widths (§4.8).
    pub fn search(&self, perm: Permutation, ikey: u64, rank: u8) -> BorderSearch {
        let n = perm.nkeys();
        for pos in 0..n {
            let slot = perm.get(pos);
            let ks = self.keyslice[slot].load(Ordering::Acquire);
            if ks < ikey {
                continue;
            }
            if ks > ikey {
                return BorderSearch::Missing { pos };
            }
            let r = keylen_rank(self.keylen[slot].load(Ordering::Acquire));
            if r < rank {
                continue;
            }
            if r > rank {
                return BorderSearch::Missing { pos };
            }
            return BorderSearch::Found { pos, slot };
        }
        BorderSearch::Missing { pos: n }
    }

    /// Extracts the slot's `link_or_value` with the ordering required by
    /// §4.6.3 layer creation.
    ///
    /// The writer's publication order is UNSTABLE → `lv` → LAYER (all
    /// release stores), so:
    /// * reading `lv` **before** `keylen` guarantees that if `keylen` reads
    ///   an inline/suffix code, `lv` was still the value pointer;
    /// * if `keylen` reads LAYER, the acquire load synchronizes with the
    ///   writer's release store, so re-reading `lv` observes the layer
    ///   pointer.
    ///
    /// Slot reuse after a remove can still interleave arbitrarily; the
    /// caller's version re-check (vinsert bump on reuse, §4.6.5) catches
    /// that case.
    #[inline]
    pub fn extract_lv(&self, slot: usize) -> (u8, ExtractedLv) {
        let lv1 = self.lv[slot].load(Ordering::Acquire);
        let code = self.keylen[slot].load(Ordering::Acquire);
        match code {
            KEYLEN_UNSTABLE => (code, ExtractedLv::Unstable),
            KEYLEN_LAYER => {
                let lv2 = self.lv[slot].load(Ordering::Acquire);
                (code, ExtractedLv::Layer(lv2.cast::<NodeHeader>()))
            }
            _ => (code, ExtractedLv::Value(lv1)),
        }
    }

    /// Figure 7's body for one key: searches `perm` for `k`, extracts
    /// the slot, and compares the suffix — shared by `get`, the batch
    /// read cursors and hinted reads.
    ///
    /// `validated` is the caller's version check (plus the generation
    /// check, for a hinted read). It runs after every slot read and
    /// **before** a suffix block is dereferenced: a freed slot reused for
    /// a key of the other suffix kind can pair a block code with inline
    /// bytes, and only the check exposes that (`suffix.rs`). Returns
    /// `None` when the check fails.
    #[inline]
    pub fn match_key(
        &self,
        perm: Permutation,
        k: &KeyCursor<'_>,
        validated: impl FnOnce() -> bool,
    ) -> Option<SlotMatch> {
        let kcode = k.keylen_code();
        let BorderSearch::Found { slot, .. } = self.search(perm, k.ikey(), keylen_rank(kcode))
        else {
            return validated().then_some(SlotMatch::Absent { conclusive: true });
        };
        let (code, ex) = self.extract_lv(slot);
        let ksuf = self.ksuf[slot].load(Ordering::Acquire);
        if !validated() {
            return None;
        }
        Some(match ex {
            ExtractedLv::Unstable => SlotMatch::Unstable,
            ExtractedLv::Layer(root) => SlotMatch::Layer { slot, root },
            ExtractedLv::Value(lv) if code == kcode => {
                // SAFETY: a validated pair; the caller's pinned guard
                // keeps a block live even if it was retired since.
                if code < KEYLEN_SUFFIX || unsafe { suffix::bytes(code, &ksuf) } == k.suffix() {
                    SlotMatch::Value { slot, code, lv }
                } else {
                    SlotMatch::Absent { conclusive: false }
                }
            }
            // Another suffixed key shares the slice.
            ExtractedLv::Value(_) if code >= KEYLEN_SUFFIX => {
                SlotMatch::Absent { conclusive: false }
            }
            // A rank change a passed check rules out; read again.
            ExtractedLv::Value(_) => SlotMatch::Unstable,
        })
    }

    /// Writes a complete entry into a (free) slot. Caller must hold the
    /// node lock and must publish a permutation including `slot` *after*
    /// this returns (release ordering on the permutation store makes the
    /// contents visible).
    pub fn write_slot(&self, slot: usize, ikey: u64, keylen: u8, ksuf: u64, lv: *mut ()) {
        self.keyslice[slot].store(ikey, Ordering::Release);
        self.keylen[slot].store(keylen, Ordering::Release);
        self.ksuf[slot].store(ksuf, Ordering::Release);
        self.lv[slot].store(lv, Ordering::Release);
    }

    /// [`BorderNode::write_slot`] for a new key whose remainder at this
    /// layer is `rest`: allocates a suffix block only for a suffix
    /// longer than 8 bytes.
    pub fn write_key(&self, slot: usize, rest: &[u8], lv: *mut ()) {
        let (code, ksuf) = suffix::encode(rest);
        self.write_slot(slot, slice_at(rest, 0), code, ksuf, lv);
    }

    /// True if inserting into `slot` requires a vinsert bump because the
    /// slot was freed by a remove (§4.6.5). Clears the flag.
    pub fn take_freed(&self, slot: usize) -> bool {
        let bit = 1u16 << slot;
        self.freed_mask.fetch_and(!bit, Ordering::Relaxed) & bit != 0
    }

    /// Marks `slot` as freed by a remove.
    pub fn mark_freed(&self, slot: usize) {
        self.freed_mask.fetch_or(1u16 << slot, Ordering::Relaxed);
    }
}

impl<V: ?Sized> InteriorNode<V> {
    /// Allocates an interior node with no keys and no children from the
    /// slab (`slab.rs`).
    pub fn alloc(is_root: bool, locked: bool) -> *mut InteriorNode<V> {
        let (raw, fresh) = crate::slab::alloc_node(Layout::new::<InteriorNode<V>>());
        let p = raw.cast::<InteriorNode<V>>();
        if fresh {
            // SAFETY: fresh slab memory sized and aligned for
            // `InteriorNode<V>`, never published.
            unsafe {
                p.write(InteriorNode {
                    header: NodeHeader {
                        version: VersionCell::new(false, is_root, locked),
                        generation: AtomicU64::new(0),
                    },
                    nkeys: AtomicU8::new(0),
                    keyslice: atomic_u64_array(),
                    child: atomic_ptr_array(),
                    parent: AtomicPtr::new(ptr::null_mut()),
                    _marker: PhantomData,
                });
            }
        } else {
            // Recycled memory: atomic reinit, generation preserved — see
            // the matching branch in `BorderNode::alloc` for the full
            // safety argument.
            // SAFETY: as in `BorderNode::alloc`.
            let n = unsafe { &*p };
            n.header.version.reinit(false, is_root, locked);
            n.nkeys.store(0, Ordering::Release);
            for i in 0..WIDTH {
                n.keyslice[i].store(0, Ordering::Release);
            }
            for c in &n.child {
                c.store(ptr::null_mut(), Ordering::Release);
            }
            n.parent.store(ptr::null_mut(), Ordering::Release);
        }
        p
    }

    /// Allocates the right sibling for an interior split (locked and
    /// splitting like its source, never a root).
    pub fn alloc_for_split(src: &VersionCell) -> *mut InteriorNode<V> {
        let p = Self::alloc(false, false);
        // Atomic store (not a struct overwrite): the memory may be
        // recycled and watched by a stale hinted reader.
        // SAFETY: just allocated, valid node.
        unsafe { (*p).header.version.reinit_for_split(src) };
        p
    }

    #[inline]
    pub fn version(&self) -> &VersionCell {
        &self.header.version
    }

    #[inline]
    pub fn nkeys(&self) -> usize {
        (self.nkeys.load(Ordering::Acquire) as usize).min(WIDTH)
    }

    /// Finds the child covering `ikey`: child `i` covers
    /// `[key[i-1], key[i])`, with keys equal to a separator going right.
    #[inline]
    pub fn find_child(&self, ikey: u64) -> (usize, *mut NodeHeader) {
        let n = self.nkeys();
        let mut i = 0;
        while i < n && ikey >= self.keyslice[i].load(Ordering::Acquire) {
            i += 1;
        }
        (i, self.child[i].load(Ordering::Acquire))
    }

    /// Index of `child` in the child array, if present. Caller must hold
    /// this node's lock (children cannot move while it is held).
    pub fn child_index(&self, child: *mut NodeHeader) -> Option<usize> {
        let n = self.nkeys();
        (0..=n).find(|&i| self.child[i].load(Ordering::Acquire) == child)
    }
}

/// A type-punned pointer to either node kind.
///
/// The `ISBORDER` bit of the version word (constant for a node's lifetime)
/// selects the concrete type. Both node structs are `#[repr(C)]` with
/// `NodeHeader` first, making the casts layout-sound.
pub struct NodePtr<V: ?Sized>(*mut NodeHeader, PhantomData<fn(&V) -> &V>);

impl<V: ?Sized> Clone for NodePtr<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V: ?Sized> Copy for NodePtr<V> {}
impl<V: ?Sized> PartialEq for NodePtr<V> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<V: ?Sized> Eq for NodePtr<V> {}
impl<V: ?Sized> core::fmt::Debug for NodePtr<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "NodePtr({:p})", self.0)
    }
}

impl<V: ?Sized> NodePtr<V> {
    #[allow(dead_code)]
    #[inline]
    pub fn null() -> Self {
        NodePtr(ptr::null_mut(), PhantomData)
    }

    #[inline]
    pub fn from_raw(p: *mut NodeHeader) -> Self {
        NodePtr(p, PhantomData)
    }

    #[inline]
    pub fn from_border(p: *mut BorderNode<V>) -> Self {
        NodePtr(p.cast::<NodeHeader>(), PhantomData)
    }

    #[inline]
    pub fn from_interior(p: *mut InteriorNode<V>) -> Self {
        NodePtr(p.cast::<NodeHeader>(), PhantomData)
    }

    #[inline]
    pub fn raw(self) -> *mut NodeHeader {
        self.0
    }

    #[inline]
    pub fn is_null(self) -> bool {
        self.0.is_null()
    }

    /// The node's version cell.
    ///
    /// # Safety
    ///
    /// The pointer must reference a live node (epoch reclamation keeps
    /// retired nodes live while any guard from before retirement exists).
    #[inline]
    pub unsafe fn version<'a>(self) -> &'a VersionCell {
        // SAFETY: `NodeHeader` heads both node types per `#[repr(C)]`.
        unsafe { &(*self.0).version }
    }

    /// Reads the constant `ISBORDER` bit.
    ///
    /// # Safety
    ///
    /// Same liveness requirement as [`NodePtr::version`].
    #[inline]
    pub unsafe fn is_border(self) -> bool {
        // SAFETY: per caller contract.
        unsafe { self.version().load(Ordering::Relaxed).is_border() }
    }

    /// Downcasts to a border node.
    ///
    /// # Safety
    ///
    /// The node must be live and must actually be a border node.
    #[inline]
    pub unsafe fn as_border<'a>(self) -> &'a BorderNode<V> {
        debug_assert!(!self.0.is_null());
        // SAFETY: caller guarantees the concrete type; layouts share the
        // `NodeHeader` prefix via `#[repr(C)]`.
        unsafe {
            debug_assert!(self.is_border());
            &*self.0.cast::<BorderNode<V>>()
        }
    }

    /// Downcasts to an interior node.
    ///
    /// # Safety
    ///
    /// The node must be live and must actually be an interior node.
    #[inline]
    pub unsafe fn as_interior<'a>(self) -> &'a InteriorNode<V> {
        debug_assert!(!self.0.is_null());
        // SAFETY: as for `as_border`.
        unsafe {
            debug_assert!(!self.is_border());
            &*self.0.cast::<InteriorNode<V>>()
        }
    }

    /// Loads the node's parent pointer (border and interior store it at
    /// different offsets, hence the dispatch).
    ///
    /// # Safety
    ///
    /// The node must be live.
    #[inline]
    pub unsafe fn parent(self) -> *mut InteriorNode<V> {
        // SAFETY: per caller contract; dispatch on the constant shape bit.
        unsafe {
            if self.is_border() {
                self.as_border().parent.load(Ordering::Acquire)
            } else {
                self.as_interior().parent.load(Ordering::Acquire)
            }
        }
    }

    /// Stores the node's parent pointer. Caller must either hold the lock
    /// protecting this field (the *parent's* lock, §4.5) or have exclusive
    /// access to an unpublished node.
    ///
    /// # Safety
    ///
    /// The node must be live.
    #[inline]
    pub unsafe fn set_parent(self, p: *mut InteriorNode<V>) {
        // SAFETY: per caller contract.
        unsafe {
            if self.is_border() {
                self.as_border().parent.store(p, Ordering::Release);
            } else {
                self.as_interior().parent.store(p, Ordering::Release);
            }
        }
    }

    /// Prefetches all cache lines of the node (border size dominates).
    #[inline]
    pub fn prefetch(self) {
        prefetch(self.0.cast::<BorderNode<V>>().cast_const());
    }

    /// Returns the node allocation to the slab free lists (not its
    /// values/suffixes/children). In steady state this is reached only
    /// through the epoch GC (`gc.rs`), which is what refills the
    /// per-thread free lists that `alloc` draws from.
    ///
    /// # Safety
    ///
    /// The node must have been allocated by `BorderNode::alloc` or
    /// `InteriorNode::alloc`, must be unreachable, and must not be freed
    /// again.
    pub unsafe fn free(self) {
        // SAFETY: per caller contract; the layout matches the alloc call
        // for the node's concrete type. Neither node type has drop glue
        // (atomics and PhantomData only), so returning the raw memory is
        // the whole destruction.
        unsafe {
            // Invalidate stale leaf hints before the memory can be
            // recycled: hinted readers (`hint.rs`) compare this
            // generation against their snapshot and bail on mismatch.
            // Release pairs with their acquire loads.
            (*self.0).generation.fetch_add(1, Ordering::Release);
            if self.is_border() {
                crate::slab::free_node(self.0.cast::<u8>(), Layout::new::<BorderNode<V>>());
            } else {
                crate::slab::free_node(self.0.cast::<u8>(), Layout::new::<InteriorNode<V>>());
            }
        }
    }
}

/// Where a layer's root pointer lives: the tree-wide root or a `lv` slot in
/// a parent-layer border node. Used to install new roots on root splits
/// and collapses (§4.6.4's lazy root update, made eager where possible).
pub enum RootSlot<'a, V: ?Sized> {
    Tree(&'a AtomicPtr<NodeHeader>),
    LayerLink {
        node: *const BorderNode<V>,
        slot: usize,
    },
}

impl<V: ?Sized> RootSlot<'_, V> {
    /// Best-effort CAS of the root pointer from `old` to `new`. A failure
    /// is harmless: stale roots are healed by `find_border`'s parent climb.
    pub fn cas(&self, old: *mut NodeHeader, new: *mut NodeHeader) {
        match self {
            RootSlot::Tree(slot) => {
                let _ = slot.compare_exchange(old, new, Ordering::AcqRel, Ordering::Relaxed);
            }
            RootSlot::LayerLink { node, slot } => {
                // SAFETY: the parent border node is live while the guard
                // held by the ongoing operation is pinned.
                let b = unsafe { &**node };
                let _ = b.lv[*slot].compare_exchange(
                    old.cast::<()>(),
                    new.cast::<()>(),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KEYLEN_SUFFIX_BLOCK;

    #[test]
    fn node_header_is_first_field() {
        // The type-punning NodePtr relies on this.
        let b = BorderNode::<u64>::alloc(true, false, 0);
        let i = InteriorNode::<u64>::alloc(false, false);
        assert_eq!(b.cast::<NodeHeader>().cast::<u8>(), b.cast::<u8>());
        assert_eq!(i.cast::<NodeHeader>().cast::<u8>(), i.cast::<u8>());
        // SAFETY: freshly allocated, correct types.
        unsafe {
            assert!(NodePtr::<u64>::from_border(b).is_border());
            assert!(!NodePtr::<u64>::from_interior(i).is_border());
            NodePtr::<u64>::from_border(b).free();
            NodePtr::<u64>::from_interior(i).free();
        }
    }

    #[test]
    fn node_alignment() {
        assert_eq!(align_of::<BorderNode<u64>>(), 64);
        assert_eq!(align_of::<InteriorNode<u64>>(), 64);
        // Seven lines, prefetched whole: header, permutation, 15 slices,
        // values and suffix words, leaf links, lowkey.
        assert_eq!(size_of::<BorderNode<u64>>(), 448);
        assert!(
            size_of::<InteriorNode<u64>>() <= 64 * 5,
            "{}",
            size_of::<InteriorNode<u64>>()
        );
    }

    fn make_border_with(keys: &[(u64, u8)]) -> *mut BorderNode<u64> {
        let b = BorderNode::<u64>::alloc(true, false, 0);
        // SAFETY: fresh private node.
        let bn = unsafe { &*b };
        let mut perm = Permutation::empty();
        for (i, &(ik, code)) in keys.iter().enumerate() {
            let (np, slot) = perm.insert_from_back(i);
            bn.write_slot(slot, ik, code, 0, ptr::null_mut());
            perm = np;
        }
        bn.publish_permutation(perm);
        b
    }

    #[test]
    fn border_search_orders_by_ikey_then_rank() {
        let b = make_border_with(&[(10, 3), (10, 8), (10, KEYLEN_SUFFIX), (20, 0)]);
        // SAFETY: fresh node.
        let bn = unsafe { &*b };
        let perm = bn.permutation();
        assert_eq!(
            bn.search(perm, 10, 3),
            BorderSearch::Found { pos: 0, slot: 0 }
        );
        assert_eq!(
            bn.search(perm, 10, 8),
            BorderSearch::Found { pos: 1, slot: 1 }
        );
        assert_eq!(
            bn.search(perm, 10, 9),
            BorderSearch::Found { pos: 2, slot: 2 }
        );
        assert_eq!(bn.search(perm, 10, 5), BorderSearch::Missing { pos: 1 });
        assert_eq!(bn.search(perm, 5, 8), BorderSearch::Missing { pos: 0 });
        assert_eq!(bn.search(perm, 15, 0), BorderSearch::Missing { pos: 3 });
        assert_eq!(bn.search(perm, 30, 0), BorderSearch::Missing { pos: 4 });
        // A layer marker matches rank 9 searches.
        bn.keylen[2].store(KEYLEN_LAYER, Ordering::Relaxed);
        assert_eq!(
            bn.search(perm, 10, 9),
            BorderSearch::Found { pos: 2, slot: 2 }
        );
        // SAFETY: freeing the test node once.
        unsafe { NodePtr::<u64>::from_border(b).free() };
    }

    #[test]
    fn match_key_validates_before_touching_a_block() {
        // A torn pair as a reader can see it mid-reuse: a block code
        // beside inline suffix bytes. The failed check must come first;
        // following those bytes as a block pointer would crash.
        let key = b"01234567-a-long-suffix";
        let b = make_border_with(&[(slice_at(key, 0), KEYLEN_SUFFIX_BLOCK)]);
        // SAFETY: fresh node.
        let bn = unsafe { &*b };
        bn.ksuf[0].store(u64::from_ne_bytes(*b"inline!!"), Ordering::Relaxed);
        let k = KeyCursor::new(key);
        assert!(bn.match_key(bn.permutation(), &k, || false).is_none());
        // SAFETY: freeing the test node once.
        unsafe { NodePtr::<u64>::from_border(b).free() };
    }

    #[test]
    fn freed_mask_roundtrip() {
        let b = BorderNode::<u64>::alloc(true, false, 0);
        // SAFETY: fresh node.
        let bn = unsafe { &*b };
        assert!(!bn.take_freed(3));
        bn.mark_freed(3);
        bn.mark_freed(7);
        assert!(bn.take_freed(3));
        assert!(!bn.take_freed(3), "flag clears on take");
        assert!(bn.take_freed(7));
        // SAFETY: freeing the test node once.
        unsafe { NodePtr::<u64>::from_border(b).free() };
    }

    #[test]
    fn interior_find_child_ranges() {
        let i = InteriorNode::<u64>::alloc(true, false);
        // SAFETY: fresh node.
        let node = unsafe { &*i };
        let c: Vec<*mut NodeHeader> = (0..4)
            .map(|_| BorderNode::<u64>::alloc(false, false, 0).cast::<NodeHeader>())
            .collect();
        node.keyslice[0].store(10, Ordering::Relaxed);
        node.keyslice[1].store(20, Ordering::Relaxed);
        node.keyslice[2].store(30, Ordering::Relaxed);
        for (j, &p) in c.iter().enumerate() {
            node.child[j].store(p, Ordering::Relaxed);
        }
        node.nkeys.store(3, Ordering::Release);
        assert_eq!(node.find_child(5), (0, c[0]));
        assert_eq!(node.find_child(10), (1, c[1]), "equal separator goes right");
        assert_eq!(node.find_child(15), (1, c[1]));
        assert_eq!(node.find_child(29), (2, c[2]));
        assert_eq!(node.find_child(u64::MAX), (3, c[3]));
        assert_eq!(node.child_index(c[2]), Some(2));
        assert_eq!(node.child_index(ptr::null_mut()), None);
        // SAFETY: freeing each test node once.
        unsafe {
            for p in c {
                NodePtr::<u64>::from_raw(p).free();
            }
            NodePtr::<u64>::from_interior(i).free();
        }
    }

    #[test]
    fn extract_lv_reports_layer() {
        let b = make_border_with(&[(10, KEYLEN_SUFFIX)]);
        // SAFETY: fresh node.
        let bn = unsafe { &*b };
        let (code, e) = bn.extract_lv(0);
        assert_eq!(code, KEYLEN_SUFFIX);
        assert!(matches!(e, ExtractedLv::Value(_)));
        // Simulate §4.6.3 conversion.
        let layer = BorderNode::<u64>::alloc(true, false, 0);
        bn.keylen[0].store(KEYLEN_UNSTABLE, Ordering::Release);
        assert!(matches!(bn.extract_lv(0).1, ExtractedLv::Unstable));
        bn.lv[0].store(layer.cast::<()>(), Ordering::Release);
        bn.keylen[0].store(KEYLEN_LAYER, Ordering::Release);
        match bn.extract_lv(0) {
            (c, ExtractedLv::Layer(p)) => {
                assert_eq!(c, KEYLEN_LAYER);
                assert_eq!(p, layer.cast::<NodeHeader>());
            }
            _ => panic!("expected layer"),
        }
        // SAFETY: freeing both test nodes once.
        unsafe {
            NodePtr::<u64>::from_border(layer).free();
            NodePtr::<u64>::from_border(b).free();
        }
    }
}
