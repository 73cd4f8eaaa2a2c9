//! Maintenance and introspection: empty-layer collection, root collapse,
//! whole-tree validation, and teardown.
//!
//! The paper (§4.6.5) schedules epoch-based reclamation tasks to clean up
//! empty and pathologically-shaped layer trees, since normal operations
//! lock at most one layer at a time. [`Masstree::maintain`] is that task:
//! call it periodically (the `mtkv` store does) or after bulk deletions.
//!
//! [`Masstree::validate`] is the test harness's whole-tree invariant
//! checker; it requires `&mut self` (quiescence) and verifies the
//! structural invariants from §4.

use core::sync::atomic::Ordering;

use crossbeam::epoch::Guard;

use crate::gc;
use crate::key::{keylen_rank, KEYLEN_LAYER, KEYLEN_SUFFIX_BLOCK, KEYLEN_UNSTABLE};
use crate::node::{BorderNode, BorderSearch, NodePtr, RootSlot};
use crate::permutation::WIDTH;
use crate::stats::Stats;
use crate::stored::Stored;
use crate::tree::Masstree;

/// Summary returned by [`Masstree::validate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeReport {
    /// Live keys (values), across all layers.
    pub keys: usize,
    /// Border nodes.
    pub borders: usize,
    /// Interior nodes.
    pub interiors: usize,
    /// Trie layers (1 = no shared-prefix layering happened).
    pub layers: usize,
    /// Maximum B+-tree depth over all layers.
    pub max_depth: usize,
    /// Keys whose suffix (over 8 bytes) lives in a heap block; shorter
    /// suffixes are inline in their slot (`suffix.rs`).
    pub external_suffixes: usize,
}

/// A candidate produced by the maintenance scan.
enum Candidate<V: ?Sized> {
    /// An empty layer hanging off `parent[?]`; remove the link.
    EmptyLayer {
        parent: *const BorderNode<V>,
        ikey: u64,
        sub_root: *mut crate::node::NodeHeader,
    },
    /// A layer root interior with a single child; collapse one level.
    SingleChildRoot {
        slot: LayerSlot<V>,
        root: *mut crate::node::NodeHeader,
    },
}

/// Identifies where a layer's root pointer is stored.
enum LayerSlot<V: ?Sized> {
    Tree,
    Link(*const BorderNode<V>, u64),
}

impl<V: ?Sized + Stored> Masstree<V> {
    /// Performs one maintenance pass: collects empty layer-≥1 trees and
    /// collapses single-child layer roots (§4.6.5). Returns the number of
    /// structural repairs made. Best-effort: candidates that race with
    /// concurrent writers are skipped and picked up by a later pass.
    pub fn maintain(&self, guard: &Guard) -> usize {
        let mut candidates = Vec::new();
        let root = self.load_root();
        self.gather_candidates(root, LayerSlot::Tree, &mut candidates, guard);
        let mut repaired = 0;
        for c in candidates {
            match c {
                Candidate::EmptyLayer {
                    parent,
                    ikey,
                    sub_root,
                } => {
                    if self.try_remove_empty_layer(parent, ikey, sub_root, guard) {
                        repaired += 1;
                    }
                }
                Candidate::SingleChildRoot { slot, root } => {
                    if self.try_collapse_root(&slot, root, guard) {
                        repaired += 1;
                    }
                }
            }
        }
        repaired
    }

    /// Optimistically walks a layer looking for repair candidates.
    fn gather_candidates(
        &self,
        root: NodePtr<V>,
        slot: LayerSlot<V>,
        out: &mut Vec<Candidate<V>>,
        guard: &Guard,
    ) {
        // Root-collapse candidate?
        // SAFETY: live node under the pinned guard.
        let v = unsafe { root.version() }.stable();
        if !v.is_border() && !v.is_deleted() {
            // SAFETY: interior per the shape bit.
            let inter = unsafe { root.as_interior() };
            if inter.nkeys() == 0 {
                out.push(Candidate::SingleChildRoot {
                    slot,
                    root: root.raw(),
                });
                // Still walk below for nested candidates.
            }
        }
        self.gather_in_subtree(root, out, guard);
    }

    fn gather_in_subtree(&self, n: NodePtr<V>, out: &mut Vec<Candidate<V>>, guard: &Guard) {
        if n.is_null() {
            return;
        }
        // SAFETY: live node under the pinned guard.
        let v = unsafe { n.version() }.stable();
        if v.is_deleted() {
            return;
        }
        if v.is_border() {
            // SAFETY: border per the shape bit.
            let b = unsafe { n.as_border() };
            let perm = b.permutation();
            for pos in 0..perm.nkeys() {
                let slot = perm.get(pos);
                if b.keylen[slot].load(Ordering::Acquire) != KEYLEN_LAYER {
                    continue;
                }
                let ikey = b.keyslice[slot].load(Ordering::Acquire);
                let sub = b.lv[slot]
                    .load(Ordering::Acquire)
                    .cast::<crate::node::NodeHeader>();
                if sub.is_null() {
                    continue;
                }
                let subp = NodePtr::<V>::from_raw(sub);
                // SAFETY: published layer roots are live under the epoch.
                let sv = unsafe { subp.version() }.stable();
                if sv.is_border() && !sv.is_deleted() {
                    // SAFETY: border per shape bit.
                    let sb = unsafe { subp.as_border() };
                    if sb.permutation().nkeys() == 0 && sb.next.load(Ordering::Acquire).is_null() {
                        out.push(Candidate::EmptyLayer {
                            parent: b,
                            ikey,
                            sub_root: sub,
                        });
                        continue;
                    }
                }
                self.gather_candidates(subp, LayerSlot::Link(b, ikey), out, guard);
            }
        } else {
            // SAFETY: interior per the shape bit.
            let inter = unsafe { n.as_interior() };
            let nk = inter.nkeys();
            for i in 0..=nk {
                let c = inter.child[i].load(Ordering::Acquire);
                if !c.is_null() {
                    self.gather_in_subtree(NodePtr::from_raw(c), out, guard);
                }
            }
        }
    }

    /// Removes the link to an empty layer: locks the parent border node,
    /// re-verifies the slot, locks the empty root, re-verifies emptiness,
    /// then unpublishes the entry and retires the root. Locks are taken
    /// parent-then-child (the same top-down order as descent), so this
    /// cannot deadlock against ascending writers, which never hold a layer
    /// root while locking across layers.
    fn try_remove_empty_layer(
        &self,
        parent: *const BorderNode<V>,
        ikey: u64,
        sub_root: *mut crate::node::NodeHeader,
        guard: &Guard,
    ) -> bool {
        // SAFETY: gathered from a live walk under this guard.
        let b = unsafe { &*parent };
        b.version().lock();
        if b.version().load(Ordering::Relaxed).is_deleted() {
            b.version().unlock();
            return false;
        }
        let perm = b.permutation();
        let found = b.search(perm, ikey, keylen_rank(KEYLEN_LAYER));
        let BorderSearch::Found { pos, slot } = found else {
            b.version().unlock();
            return false;
        };
        if b.keylen[slot].load(Ordering::Acquire) != KEYLEN_LAYER
            || b.lv[slot].load(Ordering::Acquire) != sub_root.cast::<()>()
        {
            b.version().unlock();
            return false;
        }
        let subp = NodePtr::<V>::from_raw(sub_root);
        // SAFETY: still referenced by the locked slot, hence live.
        let subv = unsafe { subp.version() };
        if subv.try_lock().is_none() {
            b.version().unlock();
            return false;
        }
        // SAFETY: locked; shape cannot change.
        let sb = unsafe { subp.as_border() };
        let still_empty = sb.permutation().nkeys() == 0
            && sb.next.load(Ordering::Acquire).is_null()
            && !subv.load(Ordering::Relaxed).is_deleted()
            && subv.load(Ordering::Relaxed).is_root();
        if !still_empty {
            subv.unlock();
            b.version().unlock();
            return false;
        }
        // Unpublish the layer link from the parent (a plain remove: slot
        // contents stay for in-flight readers; reuse bumps vinsert).
        let (nperm, freed) = perm.remove_at(pos);
        b.publish_permutation(nperm);
        b.mark_freed(freed);
        subv.mark_deleted();
        subv.unlock();
        // SAFETY: the empty root is unreachable once the slot is
        // unpublished; no values/suffixes remain in it.
        unsafe { gc::retire_node(guard, subp) };
        Stats::bump(&self.stats.layers_collected);
        // The parent border may itself have emptied.
        if nperm.nkeys() == 0 && !b.prev.load(Ordering::Acquire).is_null() {
            // SAFETY: locked, empty, not leftmost.
            unsafe { self.delete_border(b, guard) };
        } else {
            b.version().unlock();
        }
        true
    }

    /// Collapses a single-child layer root: the child becomes the layer
    /// root. Child lock is taken with `try_lock` (a downward lock edge
    /// would otherwise risk deadlock against ascending splitters).
    fn try_collapse_root(
        &self,
        slot: &LayerSlot<V>,
        root: *mut crate::node::NodeHeader,
        guard: &Guard,
    ) -> bool {
        let rp = NodePtr::<V>::from_raw(root);
        // SAFETY: gathered from a live walk under this guard.
        let rv = unsafe { rp.version() };
        rv.lock();
        let v = rv.load(Ordering::Relaxed);
        if v.is_deleted() || v.is_border() || !v.is_root() {
            rv.unlock();
            return false;
        }
        // SAFETY: interior per shape bit, locked.
        let inter = unsafe { rp.as_interior() };
        if inter.nkeys() != 0 {
            rv.unlock();
            return false;
        }
        let childp = inter.child[0].load(Ordering::Acquire);
        if childp.is_null() {
            rv.unlock();
            return false;
        }
        let child = NodePtr::<V>::from_raw(childp);
        // SAFETY: live child of a locked parent.
        let cv = unsafe { child.version() };
        let Some(_) = cv.try_lock() else {
            rv.unlock();
            return false;
        };
        // Promote the child.
        // SAFETY: we hold both locks; parent pointers are protected by the
        // parent's lock.
        unsafe {
            child.set_parent(core::ptr::null_mut());
            cv.set_root(true);
        }
        match slot {
            LayerSlot::Tree => {
                RootSlot::<V>::Tree(&self.root).cas(root, childp);
            }
            LayerSlot::Link(parent, ikey) => {
                // Re-find the slot; best effort (a stale link still works
                // through the parent climb).
                // SAFETY: live border node under this guard.
                let b = unsafe { &**parent };
                let perm = b.permutation();
                if let BorderSearch::Found { slot, .. } =
                    b.search(perm, *ikey, keylen_rank(KEYLEN_LAYER))
                {
                    if b.keylen[slot].load(Ordering::Acquire) == KEYLEN_LAYER {
                        RootSlot::LayerLink {
                            node: *parent,
                            slot,
                        }
                        .cas(root, childp);
                    }
                }
            }
        }
        rv.mark_deleted();
        cv.unlock();
        rv.unlock();
        // SAFETY: the old root is unlinked (slot CASed or reachable only
        // through climb-tolerant stale pointers, which epoch keeps live).
        unsafe { gc::retire_node(guard, rp) };
        Stats::bump(&self.stats.layers_collected);
        true
    }
}

impl<V: ?Sized + Stored> Masstree<V> {
    /// Validates every structural invariant of the tree.
    /// Requires exclusive access; returns a summary or a description of
    /// the first violation.
    pub fn validate(&mut self) -> Result<TreeReport, String> {
        let mut report = TreeReport::default();
        let root = NodePtr::<V>::from_raw(*self.root.get_mut());
        // SAFETY: `&mut self` guarantees quiescence; all nodes live.
        unsafe { self.validate_layer(root, 0, &mut report) }?;
        Ok(report)
    }

    /// Validates one layer's B+-tree and recurses into sub-layers.
    ///
    /// # Safety
    ///
    /// Requires a quiescent tree and live nodes throughout.
    unsafe fn validate_layer(
        &self,
        root: NodePtr<V>,
        depth_base: usize,
        report: &mut TreeReport,
    ) -> Result<(), String> {
        report.layers += 1;
        // Root pointers may legitimately be stale (§4.6.4: lazy root
        // update); climb to the true root the way `find_border` does.
        // SAFETY: quiescent per caller.
        let root = unsafe { true_root(root) };
        let v = unsafe { root.version() }.load(Ordering::Relaxed);
        if !v.is_root() {
            return Err("layer root missing ISROOT".into());
        }
        if v.is_dirty() || v.is_locked() {
            return Err("quiescent tree has dirty/locked root".into());
        }
        let mut leaves: Vec<*const BorderNode<V>> = Vec::new();
        // SAFETY: quiescent per caller.
        unsafe { self.validate_subtree(root, None, None, 1, depth_base, report, &mut leaves)? };
        // Leaf-list must match in-order leaf sequence.
        for w in leaves.windows(2) {
            let (a, b) = (w[0], w[1]);
            // SAFETY: quiescent.
            let (ar, br) = unsafe { (&*a, &*b) };
            if !std::ptr::eq(ar.next.load(Ordering::Relaxed), b) {
                return Err("leaf list next does not match tree order".into());
            }
            if !std::ptr::eq(br.prev.load(Ordering::Relaxed), a) {
                return Err("leaf list prev does not match tree order".into());
            }
        }
        if let Some(&first) = leaves.first() {
            // SAFETY: quiescent.
            let f = unsafe { &*first };
            if !f.prev.load(Ordering::Relaxed).is_null() {
                return Err("leftmost leaf has a prev pointer".into());
            }
        }
        if let Some(&last) = leaves.last() {
            // SAFETY: quiescent.
            let l = unsafe { &*last };
            if !l.next.load(Ordering::Relaxed).is_null() {
                return Err("rightmost leaf has a next pointer".into());
            }
        }
        Ok(())
    }

    /// # Safety
    ///
    /// Requires a quiescent tree and live nodes throughout.
    #[allow(clippy::too_many_arguments)]
    unsafe fn validate_subtree(
        &self,
        n: NodePtr<V>,
        lo: Option<u64>,
        hi: Option<u64>,
        depth: usize,
        depth_base: usize,
        report: &mut TreeReport,
        leaves: &mut Vec<*const BorderNode<V>>,
    ) -> Result<(), String> {
        if n.is_null() {
            return Err("null child pointer".into());
        }
        // SAFETY: quiescent per caller.
        let v = unsafe { n.version() }.load(Ordering::Relaxed);
        if v.is_deleted() {
            return Err("reachable node marked deleted".into());
        }
        report.max_depth = report.max_depth.max(depth_base + depth);
        if v.is_border() {
            report.borders += 1;
            // SAFETY: shape bit checked.
            let b = unsafe { n.as_border() };
            leaves.push(b);
            let perm = b.permutation();
            if !perm.is_valid() {
                return Err(format!("invalid permutation {perm:?}"));
            }
            let mut prev: Option<(u64, u8)> = None;
            for pos in 0..perm.nkeys() {
                let slot = perm.get(pos);
                let ikey = b.keyslice[slot].load(Ordering::Relaxed);
                let code = b.keylen[slot].load(Ordering::Relaxed);
                if code == KEYLEN_UNSTABLE {
                    return Err("UNSTABLE slot in quiescent tree".into());
                }
                let rank = keylen_rank(code);
                if let Some((pik, prank)) = prev {
                    if (pik, prank) >= (ikey, rank) {
                        return Err(format!(
                            "border keys out of order: ({pik:#x},{prank}) then ({ikey:#x},{rank})"
                        ));
                    }
                }
                prev = Some((ikey, rank));
                if let Some(lo) = lo {
                    if ikey < lo {
                        return Err("border key below subtree lower bound".into());
                    }
                }
                if let Some(hi) = hi {
                    if ikey >= hi {
                        return Err("border key at/above subtree upper bound".into());
                    }
                }
                match code {
                    KEYLEN_LAYER => {
                        let sub = b.lv[slot].load(Ordering::Relaxed);
                        if sub.is_null() {
                            return Err("layer link is null".into());
                        }
                        // SAFETY: quiescent.
                        unsafe {
                            self.validate_layer(
                                NodePtr::from_raw(sub.cast()),
                                depth_base + depth,
                                report,
                            )?;
                        }
                    }
                    0..=KEYLEN_SUFFIX_BLOCK => {
                        if code == KEYLEN_SUFFIX_BLOCK {
                            if b.ksuf[slot].load(Ordering::Relaxed) == 0 {
                                return Err("suffix entry without suffix block".into());
                            }
                            report.external_suffixes += 1;
                        }
                        if b.lv[slot].load(Ordering::Relaxed).is_null() {
                            return Err("null value pointer".into());
                        }
                        report.keys += 1;
                    }
                    other => return Err(format!("invalid keylen code {other}")),
                }
            }
            return Ok(());
        }
        report.interiors += 1;
        // SAFETY: shape bit checked.
        let inter = unsafe { n.as_interior() };
        let nk = inter.nkeys();
        if nk > WIDTH {
            return Err("interior nkeys out of range".into());
        }
        for i in 1..nk {
            if inter.keyslice[i - 1].load(Ordering::Relaxed)
                >= inter.keyslice[i].load(Ordering::Relaxed)
            {
                return Err("interior separators out of order".into());
            }
        }
        for i in 0..=nk {
            let child = inter.child[i].load(Ordering::Relaxed);
            if child.is_null() {
                return Err("interior child is null".into());
            }
            let cp = NodePtr::<V>::from_raw(child);
            // SAFETY: quiescent.
            let parent = unsafe { cp.parent() };
            if !std::ptr::eq(parent, inter) {
                return Err("child's parent pointer does not match".into());
            }
            let clo = if i == 0 {
                lo
            } else {
                Some(inter.keyslice[i - 1].load(Ordering::Relaxed))
            };
            let chi = if i == nk {
                hi
            } else {
                Some(inter.keyslice[i].load(Ordering::Relaxed))
            };
            // SAFETY: quiescent.
            unsafe {
                self.validate_subtree(cp, clo, chi, depth + 1, depth_base, report, leaves)?;
            }
        }
        Ok(())
    }
}

impl<V: ?Sized + Stored> Drop for Masstree<V> {
    fn drop(&mut self) {
        let root = NodePtr::<V>::from_raw(*self.root.get_mut());
        // SAFETY: `&mut self` means no concurrent users; every reachable
        // node, value and suffix is freed exactly once (retired objects
        // are unreachable and handled by their deferred destructors). The
        // stored root may be stale (lazy root update), so climb first.
        unsafe { drop_subtree(true_root(root)) };
    }
}

/// Climbs parent pointers to the true root of a layer, mirroring
/// `find_border`'s handling of stale (lazily updated) root pointers.
///
/// # Safety
///
/// Requires a quiescent tree (or nodes pinned live by an epoch guard).
unsafe fn true_root<V: ?Sized>(mut n: NodePtr<V>) -> NodePtr<V> {
    loop {
        // SAFETY: per caller contract.
        let v = unsafe { n.version() }.load(Ordering::Relaxed);
        if v.is_root() {
            return n;
        }
        // SAFETY: per caller contract.
        let p = unsafe { n.parent() };
        if p.is_null() {
            return n;
        }
        n = NodePtr::from_interior(p);
    }
}

/// Frees a subtree: values, suffix blocks, sub-layers, then nodes.
///
/// # Safety
///
/// Exclusive access; nodes live; called once per reachable node.
unsafe fn drop_subtree<V: ?Sized + Stored>(n: NodePtr<V>) {
    if n.is_null() {
        return;
    }
    // SAFETY: per caller contract.
    unsafe {
        if n.is_border() {
            let b = n.as_border();
            let perm = b.permutation();
            for pos in 0..perm.nkeys() {
                let slot = perm.get(pos);
                let code = b.keylen[slot].load(Ordering::Relaxed);
                match code {
                    KEYLEN_LAYER => {
                        let sub = b.lv[slot].load(Ordering::Relaxed);
                        drop_subtree::<V>(true_root(NodePtr::from_raw(sub.cast())));
                    }
                    _ => {
                        crate::suffix::free(code, b.ksuf[slot].load(Ordering::Relaxed));
                        V::drop_raw(b.lv[slot].load(Ordering::Relaxed));
                    }
                }
            }
            n.free();
        } else {
            let inter = n.as_interior();
            let nk = inter.nkeys();
            for i in 0..=nk {
                drop_subtree::<V>(NodePtr::from_raw(inter.child[i].load(Ordering::Relaxed)));
            }
            n.free();
        }
    }
}
