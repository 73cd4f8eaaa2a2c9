//! Conditional in-place updates: replace an **existing** key's value
//! atomically, or decline without side effects.
//!
//! `put_with` cannot express "update only if still the value I saw" —
//! its factory must produce a value even for an absent key, so a
//! compare-and-swap built on it would resurrect a concurrently removed
//! key. The value-separation GC relocates payloads out of mostly-dead
//! segments and must install the relocated pointer **only** if the key
//! still holds the exact version it read; [`Masstree::update_with`]
//! gives it that. Like every write, it descends from the root and
//! locks the key's border node before running its closure.

use core::sync::atomic::Ordering;

use crossbeam::epoch::Guard;

use crate::gc;
use crate::key::{keylen_rank, KeyCursor, KEYLEN_LAYER, KEYLEN_SUFFIX, KEYLEN_UNSTABLE};
use crate::node::{BorderNode, BorderSearch, NodePtr};
use crate::suffix::KeySuffix;
use crate::tree::{Masstree, Restart};

/// Outcome of a conditional update ([`Masstree::update_with`]).
#[derive(Debug)]
pub enum Update<'g, V> {
    /// The key was present and the closure produced a replacement; the
    /// previous value is borrowed for the guard's lifetime.
    Replaced(&'g V),
    /// The key was present but the closure declined (returned `None`);
    /// the resident value is untouched.
    Kept,
    /// The key is absent; the closure never ran and nothing changed.
    Absent,
}

/// Border-level result: either the update finished here, or the key
/// continues in a deeper trie layer.
enum BorderUpdate<'g, V> {
    Done(Update<'g, V>),
    Layer { root: NodePtr<V> },
}

impl<V: Send + Sync + 'static> Masstree<V> {
    /// Atomically replaces `key`'s value with `f(current)` **iff the
    /// key is present and `f` returns `Some`**. Unlike
    /// [`Masstree::put_with`], an absent key is left absent — `f` runs
    /// under the owning border node's lock at most once, so
    /// `f(old)`-returns-`None` is a race-free way to express "only
    /// update if the value is still the one I expect".
    pub fn update_with<'g, F>(&self, key: &[u8], mut f: F, guard: &'g Guard) -> Update<'g, V>
    where
        F: FnMut(&V) -> Option<V>,
    {
        loop {
            if let Ok(u) = self.update_descend(key, &mut f, guard) {
                return u;
            }
        }
    }

    /// Descends from the tree root, locking the responsible border node
    /// of each layer and running the update completion, following layer
    /// links down. `Err(Restart)` propagates **before** `f` has run.
    fn update_descend<'g>(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(&V) -> Option<V>,
        guard: &'g Guard,
    ) -> Result<Update<'g, V>, Restart> {
        let mut k = KeyCursor::new(key);
        let mut root = self.load_root();
        loop {
            let ikey = k.ikey();
            let (start, _) = self.find_border(&mut root, ikey, guard)?;
            let bn = self.lock_border_for_ikey(start, ikey)?;
            match self.update_at_border(bn, &k, f, guard) {
                BorderUpdate::Done(u) => return Ok(u),
                BorderUpdate::Layer { root: link } => {
                    root = link;
                    k.advance();
                }
            }
        }
    }

    /// The locked border-level completion of a conditional update.
    /// `bn` must be locked and cover the cursor's `ikey`; the lock is
    /// consumed. Mirrors `put_at_border` minus every mutation path
    /// that could *create* state (no insert, no new layer, no split).
    fn update_at_border<'g>(
        &self,
        bn: &'g BorderNode<V>,
        k: &KeyCursor<'_>,
        f: &mut dyn FnMut(&V) -> Option<V>,
        guard: &'g Guard,
    ) -> BorderUpdate<'g, V> {
        let ikey = k.ikey();
        let perm = bn.permutation();
        let rank = keylen_rank(k.keylen_code());
        match bn.search(perm, ikey, rank) {
            BorderSearch::Found { slot, .. } => {
                let code = bn.keylen[slot].load(Ordering::Acquire);
                match code {
                    KEYLEN_LAYER => {
                        let nl = bn.lv[slot].load(Ordering::Acquire);
                        bn.version().unlock();
                        BorderUpdate::Layer {
                            root: NodePtr::from_raw(nl.cast()),
                        }
                    }
                    KEYLEN_UNSTABLE => unreachable!("UNSTABLE under the node lock"),
                    KEYLEN_SUFFIX => {
                        debug_assert!(k.has_suffix(), "rank matched 9");
                        let sp = bn.suffix[slot].load(Ordering::Acquire);
                        // SAFETY: a live suffix block for the slot (we
                        // hold the lock; no concurrent retirement).
                        let sb = unsafe { KeySuffix::bytes(sp) };
                        if sb != k.suffix() {
                            // A different key owns the slot: ours is
                            // absent, and unlike a put we create no
                            // layer for it.
                            bn.version().unlock();
                            return BorderUpdate::Done(Update::Absent);
                        }
                        self.replace_slot(bn, slot, f, guard)
                    }
                    _ => {
                        debug_assert_eq!(code as usize, k.slice_len());
                        debug_assert!(!k.has_suffix());
                        self.replace_slot(bn, slot, f, guard)
                    }
                }
            }
            BorderSearch::Missing { .. } => {
                bn.version().unlock();
                BorderUpdate::Done(Update::Absent)
            }
        }
    }

    /// Runs `f` against the slot's live value under the lock and
    /// installs the replacement if it produces one. Consumes the lock.
    fn replace_slot<'g>(
        &self,
        bn: &'g BorderNode<V>,
        slot: usize,
        f: &mut dyn FnMut(&V) -> Option<V>,
        guard: &'g Guard,
    ) -> BorderUpdate<'g, V> {
        let old = bn.lv[slot].load(Ordering::Acquire);
        // SAFETY: the slot's live value (lock held).
        let old_ref = unsafe { &*old.cast::<V>() };
        match f(old_ref) {
            None => {
                bn.version().unlock();
                BorderUpdate::Done(Update::Kept)
            }
            Some(new) => {
                let vptr = Box::into_raw(Box::new(new)).cast::<()>();
                bn.lv[slot].store(vptr, Ordering::Release);
                bn.version().unlock();
                // SAFETY: `old` was this key's value and is now
                // unreachable from the tree.
                unsafe {
                    gc::retire_value::<V>(guard, old);
                }
                BorderUpdate::Done(Update::Replaced(old_ref))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pin;

    #[test]
    fn update_present_absent_and_declined() {
        let t: Masstree<u64> = Masstree::new();
        let g = pin();
        t.put(b"key-a", 1, &g);
        // Present + accepted.
        match t.update_with(b"key-a", |old| Some(old + 10), &g) {
            Update::Replaced(prev) => assert_eq!(*prev, 1),
            other => panic!("expected Replaced, got {other:?}"),
        }
        assert_eq!(t.get(b"key-a", &g), Some(&11));
        // Present + declined.
        assert!(matches!(
            t.update_with(b"key-a", |_| None, &g),
            Update::Kept
        ));
        assert_eq!(t.get(b"key-a", &g), Some(&11));
        // Absent: never resurrects.
        assert!(matches!(
            t.update_with(b"key-b", |_| Some(99), &g),
            Update::Absent
        ));
        assert_eq!(t.get(b"key-b", &g), None);
        // Absent long key sharing a prefix with a resident suffix key.
        t.put(b"prefix-shared-long-key-one", 5, &g);
        assert!(matches!(
            t.update_with(b"prefix-shared-long-key-two", |_| Some(6), &g),
            Update::Absent
        ));
        assert_eq!(t.get(b"prefix-shared-long-key-two", &g), None);
        assert_eq!(t.get(b"prefix-shared-long-key-one", &g), Some(&5));
    }

    #[test]
    fn update_with_across_splits_then_absent_after_remove() {
        // Enough keys that the target sits behind splits and interior
        // nodes: the update's descent must find and lock the same
        // border node a put would.
        let t: Masstree<u64> = Masstree::new();
        let g = pin();
        for i in 0..500u64 {
            t.put(format!("uk{i:04}").as_bytes(), i, &g);
        }
        assert!(matches!(
            t.update_with(b"uk0042", |old| Some(old * 2), &g),
            Update::Replaced(&42)
        ));
        assert_eq!(t.get(b"uk0042", &g), Some(&84));
        // A removed key declines: the closure never runs.
        t.remove(b"uk0042", &g);
        assert!(matches!(
            t.update_with(b"uk0042", |_| panic!("closure ran on an absent key"), &g),
            Update::Absent
        ));
        assert_eq!(t.get(b"uk0042", &g), None);
    }
}
