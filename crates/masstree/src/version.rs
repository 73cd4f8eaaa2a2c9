//! The per-node version word and its optimistic-concurrency protocol
//! (Figure 3 and §4.4–4.6 of the paper).
//!
//! The 32-bit version packs a spinlock, two "dirty" bits, a deletion flag,
//! two shape bits and two generation counters:
//!
//! ```text
//! bit 0      LOCKED      claimed by update or insert
//! bit 1      INSERTING   dirty: set while keys are being inserted
//! bit 2      SPLITTING   dirty: set while keys are being shifted out
//! bit 3      DELETED     node has been removed from the tree
//! bit 4      ISROOT      node is the root of some B+-tree (trie layer)
//! bit 5      ISBORDER    node is a border (leaf) node
//! bits 6-13  VINSERT     8-bit insert counter
//! bits 14-31 VSPLIT      18-bit split counter
//! ```
//!
//! Writers mark a node dirty before creating reader-visible intermediate
//! state and increment the matching counter when the lock is released — a
//! single release store, as the paper requires. Readers snapshot a *stable*
//! version (no dirty bits), perform their reads, and compare against the
//! version afterwards; any difference other than the lock bit forces a
//! retry.

use core::sync::atomic::{AtomicU32, Ordering};

pub const LOCKED: u32 = 1 << 0;
pub const INSERTING: u32 = 1 << 1;
pub const SPLITTING: u32 = 1 << 2;
pub const DELETED: u32 = 1 << 3;
pub const ISROOT: u32 = 1 << 4;
pub const ISBORDER: u32 = 1 << 5;
/// Either dirty bit: readers must not observe the node while one is set.
pub const DIRTY_MASK: u32 = INSERTING | SPLITTING;

pub const VINSERT_SHIFT: u32 = 6;
pub const VINSERT_MASK: u32 = 0xff << VINSERT_SHIFT;
pub const VSPLIT_SHIFT: u32 = 14;
pub const VSPLIT_MASK: u32 = !0u32 << VSPLIT_SHIFT;

/// One unit of the vinsert counter (for wrapping addition in `unlock`).
const VINSERT_UNIT: u32 = 1 << VINSERT_SHIFT;
/// One unit of the vsplit counter.
const VSPLIT_UNIT: u32 = 1 << VSPLIT_SHIFT;

/// An immutable snapshot of a node's version word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Version(pub u32);

impl Version {
    #[inline]
    pub fn is_locked(self) -> bool {
        self.0 & LOCKED != 0
    }
    #[inline]
    pub fn is_dirty(self) -> bool {
        self.0 & DIRTY_MASK != 0
    }
    #[inline]
    pub fn is_deleted(self) -> bool {
        self.0 & DELETED != 0
    }
    #[inline]
    pub fn is_root(self) -> bool {
        self.0 & ISROOT != 0
    }
    #[inline]
    pub fn is_border(self) -> bool {
        self.0 & ISBORDER != 0
    }
    #[inline]
    pub fn vinsert(self) -> u32 {
        (self.0 & VINSERT_MASK) >> VINSERT_SHIFT
    }
    #[inline]
    pub fn vsplit(self) -> u32 {
        (self.0 & VSPLIT_MASK) >> VSPLIT_SHIFT
    }

    /// True if a reader holding snapshot `self` must retry given the node's
    /// current version `cur`: they differ in anything but the lock bit
    /// (Figure 7's `n.version ⊕ v > "locked"`).
    #[inline]
    pub fn has_changed(self, cur: Version) -> bool {
        (self.0 ^ cur.0) & !LOCKED != 0
    }

    /// True if the node split (or was deleted) between the two snapshots,
    /// which forces a retry from the tree root rather than a local retry
    /// (§4.6.4).
    #[inline]
    pub fn has_split(self, cur: Version) -> bool {
        (self.0 ^ cur.0) & (VSPLIT_MASK | DELETED) != 0
    }
}

/// The atomic version word embedded at the head of every tree node.
#[derive(Debug)]
pub struct VersionCell(AtomicU32);

impl VersionCell {
    /// The initial version bits for a node with the given shape.
    #[inline]
    pub fn initial_bits(is_border: bool, is_root: bool, locked: bool) -> u32 {
        let mut bits = 0;
        if is_border {
            bits |= ISBORDER;
        }
        if is_root {
            bits |= ISROOT;
        }
        if locked {
            bits |= LOCKED;
        }
        bits
    }

    /// Creates a version word for a fresh node.
    #[inline]
    pub fn new(is_border: bool, is_root: bool, locked: bool) -> Self {
        VersionCell(AtomicU32::new(Self::initial_bits(
            is_border, is_root, locked,
        )))
    }

    /// Reinitializes a **recycled** node's version word with an atomic
    /// release store. Recycled slab memory may still be read through a
    /// stale leaf hint (`hint.rs`); the release ordering pairs with the
    /// hinted reader's acquire loads so that any reader observing this
    /// (or any later) value also observes the generation bump performed
    /// when the memory was freed, and bails out.
    #[inline]
    pub fn reinit(&self, is_border: bool, is_root: bool, locked: bool) {
        self.0.store(
            Self::initial_bits(is_border, is_root, locked),
            Ordering::Release,
        );
    }

    /// The split analogue of [`VersionCell::reinit`]: atomically adopts
    /// the splitting source's version (Figure 5's `n'.version ←
    /// n.version`), minus ISROOT (a split's new sibling is never a
    /// root). Used on recycled memory where a plain struct overwrite
    /// would race stale hinted readers.
    #[inline]
    pub fn reinit_for_split(&self, src: &VersionCell) {
        let bits = src.0.load(Ordering::Relaxed) & !ISROOT;
        self.0.store(bits, Ordering::Release);
    }

    /// Raw load with the given ordering.
    #[inline]
    pub fn load(&self, order: Ordering) -> Version {
        Version(self.0.load(order))
    }

    /// `stableversion` (Figure 4): spins until neither dirty bit is set.
    ///
    /// The returned snapshot may still have the lock bit set — the lock
    /// alone does not block readers.
    #[inline]
    pub fn stable(&self) -> Version {
        loop {
            let v = Version(self.0.load(Ordering::Acquire));
            if !v.is_dirty() {
                return v;
            }
            core::hint::spin_loop();
        }
    }

    /// Non-blocking `stableversion`: returns the version if neither dirty
    /// bit is set, `None` otherwise. The batch traversal engine uses this
    /// to switch to another operation's cursor instead of spinning when a
    /// node is mid-update.
    #[inline]
    pub fn try_stable(&self) -> Option<Version> {
        let v = Version(self.0.load(Ordering::Acquire));
        if v.is_dirty() {
            None
        } else {
            Some(v)
        }
    }

    /// `lock` (Figure 4): spins until the lock bit is claimed.
    ///
    /// Returns the version observed at acquisition (with LOCKED set).
    #[inline]
    pub fn lock(&self) -> Version {
        loop {
            let cur = self.0.load(Ordering::Relaxed);
            if cur & LOCKED == 0
                && self
                    .0
                    .compare_exchange_weak(cur, cur | LOCKED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return Version(cur | LOCKED);
            }
            core::hint::spin_loop();
        }
    }

    /// Attempts to claim the lock without spinning.
    #[inline]
    pub fn try_lock(&self) -> Option<Version> {
        let cur = self.0.load(Ordering::Relaxed);
        if cur & LOCKED != 0 {
            return None;
        }
        self.0
            .compare_exchange(cur, cur | LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|v| Version(v | LOCKED))
    }

    /// Sets the INSERTING dirty bit. Caller must hold the lock.
    #[inline]
    pub fn mark_inserting(&self) {
        let v = self.0.load(Ordering::Relaxed);
        debug_assert!(v & LOCKED != 0);
        self.0.store(v | INSERTING, Ordering::Release);
    }

    /// Sets the SPLITTING dirty bit. Caller must hold the lock.
    #[inline]
    pub fn mark_splitting(&self) {
        let v = self.0.load(Ordering::Relaxed);
        debug_assert!(v & LOCKED != 0);
        self.0.store(v | SPLITTING, Ordering::Release);
    }

    /// Sets the DELETED bit (and SPLITTING, so cross-node walkers treat the
    /// change like a split and retry from the root). Caller must hold the
    /// lock; the bit survives unlock.
    #[inline]
    pub fn mark_deleted(&self) {
        let v = self.0.load(Ordering::Relaxed);
        debug_assert!(v & LOCKED != 0);
        self.0.store(v | DELETED | SPLITTING, Ordering::Release);
    }

    /// Sets or clears the ISROOT bit. Caller must hold the lock (or have
    /// exclusive access to a node not yet published).
    #[inline]
    pub fn set_root(&self, is_root: bool) {
        let v = self.0.load(Ordering::Relaxed);
        let nv = if is_root { v | ISROOT } else { v & !ISROOT };
        self.0.store(nv, Ordering::Release);
    }

    /// The version word [`VersionCell::unlock`] will publish, given the
    /// current (locked) value.
    #[inline]
    fn unlocked_value(&self) -> Version {
        let v = self.0.load(Ordering::Relaxed);
        debug_assert!(v & LOCKED != 0, "caller must hold the lock");
        let mut nv = v;
        if v & INSERTING != 0 {
            // Wrapping add within the 8-bit field.
            nv = (nv & !VINSERT_MASK) | (nv.wrapping_add(VINSERT_UNIT) & VINSERT_MASK);
        }
        if v & SPLITTING != 0 {
            // The 18-bit vsplit field occupies the top bits, so a wrapping
            // add cannot leak into other fields.
            nv = (nv & !VSPLIT_MASK) | (nv.wrapping_add(VSPLIT_UNIT) & VSPLIT_MASK);
        }
        Version(nv & !(LOCKED | INSERTING | SPLITTING))
    }

    /// `unlock` (Figure 4): bumps vinsert/vsplit according to the dirty
    /// bits, then clears LOCKED, INSERTING and SPLITTING in a single
    /// release store.
    #[inline]
    pub fn unlock(&self) {
        debug_assert!(
            self.0.load(Ordering::Relaxed) & LOCKED != 0,
            "unlock of unlocked node"
        );
        self.0.store(self.unlocked_value().0, Ordering::Release);
    }

    /// Copies lock-independent state (dirty/shape bits and counters) from
    /// another cell into a freshly created, still-private node (Figure 5's
    /// `n'.version ← n.version`).
    #[inline]
    pub fn clone_for_split(&self) -> VersionCell {
        let v = self.0.load(Ordering::Relaxed);
        VersionCell(AtomicU32::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sets_shape_bits() {
        let v = VersionCell::new(true, true, false).load(Ordering::Relaxed);
        assert!(v.is_border() && v.is_root() && !v.is_locked());
        let v = VersionCell::new(false, false, true).load(Ordering::Relaxed);
        assert!(!v.is_border() && !v.is_root() && v.is_locked());
    }

    #[test]
    fn lock_unlock_roundtrip() {
        let c = VersionCell::new(true, false, false);
        let v = c.lock();
        assert!(v.is_locked());
        assert!(c.try_lock().is_none());
        c.unlock();
        let v2 = c.load(Ordering::Relaxed);
        assert!(!v2.is_locked());
        // No dirty marks: counters unchanged.
        assert_eq!(v2.vinsert(), 0);
        assert_eq!(v2.vsplit(), 0);
    }

    #[test]
    fn unlock_bumps_vinsert_after_mark_inserting() {
        let c = VersionCell::new(true, false, false);
        c.lock();
        c.mark_inserting();
        c.unlock();
        let v = c.load(Ordering::Relaxed);
        assert_eq!(v.vinsert(), 1);
        assert_eq!(v.vsplit(), 0);
        assert!(!v.is_dirty() && !v.is_locked());
    }

    #[test]
    fn unlock_bumps_vsplit_after_mark_splitting() {
        let c = VersionCell::new(false, false, false);
        c.lock();
        c.mark_splitting();
        c.unlock();
        let v = c.load(Ordering::Relaxed);
        assert_eq!(v.vsplit(), 1);
        assert_eq!(v.vinsert(), 0);
    }

    #[test]
    fn vinsert_wraps_within_field() {
        let c = VersionCell::new(true, false, false);
        for _ in 0..256 {
            c.lock();
            c.mark_inserting();
            c.unlock();
        }
        let v = c.load(Ordering::Relaxed);
        assert_eq!(v.vinsert(), 0, "8-bit counter wraps to zero");
        assert_eq!(v.vsplit(), 0, "wrap must not carry into vsplit");
        assert!(v.is_border());
    }

    #[test]
    fn vsplit_wraps_within_field() {
        let c = VersionCell::new(false, false, false);
        // Force the counter to its maximum then wrap once.
        for _ in 0..3 {
            c.lock();
            c.mark_splitting();
            c.unlock();
        }
        assert_eq!(c.load(Ordering::Relaxed).vsplit(), 3);
    }

    #[test]
    fn has_changed_ignores_lock_bit() {
        let a = Version(ISBORDER);
        let b = Version(ISBORDER | LOCKED);
        assert!(!a.has_changed(b));
        let c = Version(ISBORDER | VINSERT_UNIT);
        assert!(a.has_changed(c));
        let d = Version(ISBORDER | INSERTING);
        assert!(a.has_changed(d));
    }

    #[test]
    fn has_split_detects_vsplit_and_delete() {
        let a = Version(ISBORDER);
        assert!(a.has_split(Version(ISBORDER | VSPLIT_UNIT)));
        assert!(a.has_split(Version(ISBORDER | DELETED)));
        assert!(!a.has_split(Version(ISBORDER | VINSERT_UNIT)));
    }

    #[test]
    fn mark_deleted_persists_past_unlock() {
        let c = VersionCell::new(true, false, false);
        c.lock();
        c.mark_deleted();
        c.unlock();
        let v = c.load(Ordering::Relaxed);
        assert!(v.is_deleted());
        assert!(!v.is_dirty());
        assert_eq!(v.vsplit(), 1, "delete counts as a split for walkers");
    }

    #[test]
    fn stable_returns_nondirty() {
        let c = VersionCell::new(true, false, false);
        c.lock();
        let v = c.stable();
        assert!(v.is_locked() && !v.is_dirty());
        c.unlock();
    }

    #[test]
    fn stable_spins_until_dirty_clears() {
        use std::sync::Arc;
        let c = Arc::new(VersionCell::new(true, false, false));
        c.lock();
        c.mark_inserting();
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            let v = c2.stable();
            assert!(!v.is_dirty());
            v
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.unlock();
        let v = h.join().unwrap();
        assert_eq!(v.vinsert(), 1);
    }
}
