//! The remove path, including concurrent node deletion (§4.6.5).
//!
//! Removing a key only changes the permutation — slot contents stay in
//! place so concurrent readers see consistent (old) state, and the slot is
//! flagged so its reuse bumps vinsert. A border node that becomes empty is
//! deleted: marked DELETED (readers retry from the root), unlinked from
//! the doubly-linked leaf list, then removed from its parent chain,
//! deleting interior nodes that empty out along the way. The leftmost
//! border node of each tree is never deleted (§4.6.4's invariant).

use core::sync::atomic::Ordering;

use crossbeam::epoch::Guard;

use crate::gc;
use crate::key::{keylen_rank, KeyCursor, KEYLEN_LAYER, KEYLEN_SUFFIX, KEYLEN_UNSTABLE};
use crate::node::{BorderNode, BorderSearch, NodePtr};
use crate::stats::Stats;
use crate::stored::Stored;
use crate::suffix;
use crate::tree::{Masstree, Restart};

/// Outcome of completing a remove at one locked border node (the lock
/// is consumed either way).
enum BorderRemove<'g, V: ?Sized, R> {
    /// The remove completed (or the key was absent).
    Done(Option<(&'g V, R)>),
    /// The key continues in a deeper trie layer rooted here.
    Layer(NodePtr<V>),
}

impl<V: ?Sized + Stored> Masstree<V> {
    /// Removes `key`, returning its value if it was present (valid for the
    /// guard's lifetime; the allocation is reclaimed after all current
    /// readers unpin).
    pub fn remove<'g>(&self, key: &[u8], guard: &'g Guard) -> Option<&'g V> {
        self.remove_with(key, |_| (), guard).map(|(v, ())| v)
    }

    /// Removes `key`, running `f(value)` **under the owning border node's
    /// lock** at the removal's linearization point. Storage layers use
    /// this to draw log version numbers that agree with the tree's
    /// serialization order (§5). Keep `f` short; it executes inside a
    /// spinlock critical section.
    pub fn remove_with<'g, R>(
        &self,
        key: &[u8],
        f: impl FnOnce(&V) -> R,
        guard: &'g Guard,
    ) -> Option<(&'g V, R)> {
        let mut f = Some(f);
        self.remove_inner(key, &mut |v| (f.take().expect("called once"))(v), guard)
    }

    fn remove_inner<'g, R>(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(&V) -> R,
        guard: &'g Guard,
    ) -> Option<(&'g V, R)> {
        loop {
            if let Ok(removed) = self.remove_descend(key, f, guard) {
                return removed;
            }
        }
    }

    /// The descending half of a remove: from the tree root, find and
    /// lock the responsible border node of each layer, run the shared
    /// locked completion, follow layer links down. `Err(Restart)`
    /// propagates **before** `f` has run.
    #[allow(clippy::type_complexity)]
    fn remove_descend<'g, R>(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(&V) -> R,
        guard: &'g Guard,
    ) -> Result<Option<(&'g V, R)>, Restart> {
        let mut k = KeyCursor::new(key);
        let mut root = self.load_root();
        loop {
            let ikey = k.ikey();
            let start = match self.find_border(&mut root, ikey, guard) {
                Ok((n, _)) => n,
                Err(Restart) => {
                    Stats::bump(&self.stats.op_restarts);
                    return Err(Restart);
                }
            };
            let bn = self.lock_border_for_ikey(start, ikey)?;
            match self.remove_at_border(bn, &k, f, guard) {
                BorderRemove::Done(removed) => return Ok(removed),
                BorderRemove::Layer(link) => {
                    root = link;
                    k.advance();
                }
            }
        }
    }

    /// The locked border-level completion of a remove — shared by
    /// descending removes and anchored removes. `bn` must be locked and
    /// cover the cursor's current `ikey`; the lock is consumed.
    fn remove_at_border<'g, R>(
        &self,
        bn: &'g BorderNode<V>,
        k: &KeyCursor<'_>,
        f: &mut dyn FnMut(&V) -> R,
        guard: &'g Guard,
    ) -> BorderRemove<'g, V, R> {
        let ikey = k.ikey();
        let perm = bn.permutation();
        let rank = keylen_rank(k.keylen_code());
        match bn.search(perm, ikey, rank) {
            BorderSearch::Missing { .. } => {
                bn.version().unlock();
                BorderRemove::Done(None)
            }
            BorderSearch::Found { pos, slot } => {
                let code = bn.keylen[slot].load(Ordering::Acquire);
                match code {
                    KEYLEN_LAYER => {
                        let nl = bn.lv[slot].load(Ordering::Acquire);
                        bn.version().unlock();
                        BorderRemove::Layer(NodePtr::from_raw(nl.cast()))
                    }
                    KEYLEN_UNSTABLE => unreachable!("UNSTABLE under the node lock"),
                    KEYLEN_SUFFIX.. => {
                        debug_assert!(k.has_suffix());
                        let ksuf = bn.ksuf[slot].load(Ordering::Acquire);
                        // SAFETY: the slot's pair; we hold the lock.
                        if unsafe { suffix::bytes(code, &ksuf) } != k.suffix() {
                            bn.version().unlock();
                            return BorderRemove::Done(None);
                        }
                        // SAFETY: exact match established.
                        BorderRemove::Done(Some(unsafe {
                            self.remove_entry(bn, perm.remove_at(pos), f, guard)
                        }))
                    }
                    _ => {
                        debug_assert_eq!(code, k.keylen_code());
                        // SAFETY: exact match established.
                        BorderRemove::Done(Some(unsafe {
                            self.remove_entry(bn, perm.remove_at(pos), f, guard)
                        }))
                    }
                }
            }
        }
    }

    /// Unpublishes the entry at `pos`/`slot` of the locked node `bn`,
    /// retires its value and suffix, and deletes the node if it emptied.
    /// Consumes `bn`'s lock. Returns the removed value.
    ///
    /// # Safety
    ///
    /// Caller must hold `bn`'s lock and have verified the entry matches
    /// the key being removed.
    unsafe fn remove_entry<'g, R>(
        &self,
        bn: &'g BorderNode<V>,
        (nperm, slot): (crate::permutation::Permutation, usize),
        f: &mut dyn FnMut(&V) -> R,
        guard: &'g Guard,
    ) -> (&'g V, R) {
        let old_value = bn.lv[slot].load(Ordering::Acquire);
        let code = bn.keylen[slot].load(Ordering::Acquire);
        let ksuf = bn.ksuf[slot].load(Ordering::Acquire);
        // The removal's linearization point: run the caller's hook under
        // the lock, against the value being unpublished.
        // SAFETY: the slot's live value; we hold the lock.
        let hook_result = f(unsafe { V::deref(old_value) });
        bn.publish_permutation(nperm);
        bn.mark_freed(slot);
        // SAFETY: the entry is no longer visible to new readers; epoch
        // reclamation protects in-flight ones.
        unsafe {
            gc::retire_value::<V>(guard, old_value);
            gc::retire_suffix(guard, code, ksuf);
        }
        if nperm.nkeys() == 0 && !bn.prev.load(Ordering::Acquire).is_null() {
            // SAFETY: `bn` is locked, empty and not the leftmost node.
            unsafe { self.delete_border(bn, guard) };
        } else {
            bn.version().unlock();
        }
        // SAFETY: the old value stays live for `'g` via the epoch.
        (unsafe { V::deref(old_value) }, hook_result)
    }

    /// Deletes the locked, empty, non-leftmost border node `bn`: marks it
    /// DELETED, unlinks it from the leaf list, then removes it from the
    /// parent chain (deleting interiors that empty out). Consumes the
    /// lock.
    ///
    /// Lock order: we block on `bn.prev` while holding `bn` — a leftward
    /// wait. All other waits in the system point upward or are
    /// unlock-then-lock rightward walks, so no cycle can form.
    ///
    /// # Safety
    ///
    /// Caller must hold `bn`'s lock; `bn` must be empty with a non-null
    /// prev pointer.
    pub(crate) unsafe fn delete_border<'g>(&self, bn: &'g BorderNode<V>, guard: &'g Guard) {
        Stats::bump(&self.stats.nodes_deleted);
        bn.version().mark_deleted();
        // Unlink from the leaf list.
        loop {
            let prevp = bn.prev.load(Ordering::Acquire);
            debug_assert!(!prevp.is_null(), "leftmost node is never deleted");
            // SAFETY: leaf-list neighbours are live under the pinned epoch.
            let pr = unsafe { &*prevp };
            pr.version().lock();
            let stale = pr.version().load(Ordering::Relaxed).is_deleted()
                || !std::ptr::eq(pr.next.load(Ordering::Acquire), bn);
            if stale {
                // `pr` was itself deleted or split; re-read our prev
                // pointer (its deleter/splitter updates it).
                pr.version().unlock();
                core::hint::spin_loop();
                continue;
            }
            let nx = bn.next.load(Ordering::Acquire);
            pr.next.store(nx, Ordering::Release);
            if !nx.is_null() {
                // SAFETY: live under epoch; `nx.prev` is protected by its
                // new previous sibling's lock (`pr`, held).
                unsafe { (*nx).prev.store(prevp, Ordering::Release) };
            }
            pr.version().unlock();
            break;
        }
        // Remove from the parent chain, ascending while interiors empty.
        let mut child = NodePtr::from_border(bn as *const _ as *mut BorderNode<V>);
        loop {
            let Some(p) = self.locked_parent(child, guard) else {
                // `child` was a layer root. Border roots are never deleted
                // (leftmost invariant) and interior roots never empty (the
                // leftmost path is undeletable), so this is unreachable in
                // a consistent tree; release the lock defensively.
                debug_assert!(false, "deleted a layer root");
                // SAFETY: we hold the lock.
                unsafe { child.version().unlock() };
                return;
            };
            let ci = p
                .child_index(child.raw())
                .expect("deleted child still referenced by its parent");
            let n = p.nkeys();
            if n > 0 {
                p.version().mark_inserting();
                // Drop child `ci` and the separator adjacent to it: the
                // neighbour's range absorbs the (empty) gap.
                if ci == 0 {
                    for j in 1..n {
                        let kv = p.keyslice[j].load(Ordering::Relaxed);
                        p.keyslice[j - 1].store(kv, Ordering::Relaxed);
                    }
                    for j in 1..=n {
                        let cv = p.child[j].load(Ordering::Relaxed);
                        p.child[j - 1].store(cv, Ordering::Relaxed);
                    }
                } else {
                    for j in ci..n {
                        let kv = p.keyslice[j].load(Ordering::Relaxed);
                        p.keyslice[j - 1].store(kv, Ordering::Relaxed);
                    }
                    for j in ci + 1..=n {
                        let cv = p.child[j].load(Ordering::Relaxed);
                        p.child[j - 1].store(cv, Ordering::Relaxed);
                    }
                }
                p.nkeys.store(n as u8 - 1, Ordering::Release);
                // SAFETY: we hold both locks; the child is unreachable
                // once the parent update is published.
                unsafe {
                    child.version().unlock();
                    gc::retire_node(guard, child);
                }
                p.version().unlock();
                return;
            }
            // `p` had a single child (us): it empties — delete it too.
            debug_assert_eq!(ci, 0);
            p.version().mark_deleted();
            // SAFETY: we hold both locks; `child` is unreachable.
            unsafe {
                child.version().unlock();
                gc::retire_node(guard, child);
            }
            child = NodePtr::from_interior(p as *const _ as *mut _);
        }
    }
}
