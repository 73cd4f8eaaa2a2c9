//! The write path: `put`, border inserts (§4.6.2), new-layer creation
//! (§4.6.3) and splits (Figure 5, §4.6.4).
//!
//! Every put descends from the tree root, as the paper's does: the
//! optimistic descent finds the border node, `lock_border_for_ikey`
//! locks it (walking right past concurrent splits), and the shared
//! locked completion ([`Masstree::put_at_border`]) finishes the write.
//! The batch engine's write cursors run the same completion.

use core::sync::atomic::Ordering;

use crossbeam::epoch::Guard;

use crate::gc;
use crate::key::{keylen_rank, KeyCursor, KEYLEN_LAYER, KEYLEN_SUFFIX, KEYLEN_UNSTABLE, SLICE_LEN};
use crate::node::{BorderNode, BorderSearch, InteriorNode, NodePtr, RootSlot};
use crate::permutation::{Permutation, WIDTH};
use crate::stats::Stats;
use crate::suffix::KeySuffix;
use crate::tree::{Masstree, Restart};

/// Outcome of completing a write at one locked border node (the lock is
/// consumed either way).
pub(crate) enum BorderWrite<'g, V> {
    /// The put completed; `prev` is the previous value.
    Done { prev: Option<&'g V> },
    /// The key continues in a deeper trie layer rooted at `root`,
    /// reached through `node[slot]` (which heals lazily).
    Layer {
        root: NodePtr<V>,
        node: *const BorderNode<V>,
        slot: usize,
    },
}

/// Where the new key landed during a split-with-insert.
enum SplitSide {
    Left,
    Right,
}

/// Produces the value to store, exactly once, at the linearization point
/// of a put — under the owning border node's lock, with the current value
/// (if any) visible. This is what makes multi-column read-copy-update
/// values (§4.7) atomic: no other writer can interleave between reading
/// the old value and publishing the new one.
pub(crate) trait ValueFactory<V> {
    /// Returns a `Box<V>` raw pointer. Called exactly once per put.
    fn make(&mut self, old: Option<&V>) -> *mut ();
}

/// A value boxed ahead of time (plain `put`).
struct Ready(*mut ());

impl<V> ValueFactory<V> for Ready {
    fn make(&mut self, _old: Option<&V>) -> *mut () {
        debug_assert!(!self.0.is_null(), "value factory called twice");
        std::mem::replace(&mut self.0, core::ptr::null_mut())
    }
}

/// A value computed from the old one under the lock (`put_with`).
struct FromFn<'a, V>(&'a mut dyn FnMut(Option<&V>) -> V);

impl<V> ValueFactory<V> for FromFn<'_, V> {
    fn make(&mut self, old: Option<&V>) -> *mut () {
        Box::into_raw(Box::new((self.0)(old))).cast::<()>()
    }
}

impl<V: Send + Sync + 'static> Masstree<V> {
    /// Inserts or updates `key → value`.
    ///
    /// Returns the previous value if the key was present; the reference is
    /// valid for the guard's lifetime (the old value is reclaimed after
    /// all current readers unpin).
    pub fn put<'g>(&self, key: &[u8], value: V, guard: &'g Guard) -> Option<&'g V> {
        let vptr = Box::into_raw(Box::new(value)).cast::<()>();
        self.put_inner(key, &mut Ready(vptr), guard)
    }

    /// Atomically installs `f(current)` for `key`.
    ///
    /// `f` runs under the owning border node's lock, so the read of the
    /// current value and the publication of the new one form one atomic
    /// step — concurrent `put_with` calls to the same key serialize. This
    /// is the paper's §4.7 value protocol: a put builds a fresh value
    /// object, copying unmodified columns from the old one. Keep `f`
    /// short; it executes inside a spinlock critical section.
    ///
    /// Returns the previous value, if any.
    pub fn put_with<'g, F>(&self, key: &[u8], mut f: F, guard: &'g Guard) -> Option<&'g V>
    where
        F: FnMut(Option<&V>) -> V,
    {
        self.put_inner(key, &mut FromFn(&mut f), guard)
    }

    /// Core insertion, generic over how the value is produced.
    fn put_inner<'g>(
        &self,
        key: &[u8],
        factory: &mut dyn ValueFactory<V>,
        guard: &'g Guard,
    ) -> Option<&'g V> {
        loop {
            if let Ok(prev) = self.put_descend(key, factory, guard) {
                return prev;
            }
        }
    }

    /// The descending half of a put: from the tree root, find and lock
    /// the responsible border node of each layer and run the shared
    /// locked completion, following layer links down. Returns the
    /// previous value; `Err(Restart)` propagates deleted-node retries to
    /// the caller's restart loop **before** the factory has run.
    fn put_descend<'g>(
        &self,
        key: &[u8],
        factory: &mut dyn ValueFactory<V>,
        guard: &'g Guard,
    ) -> Result<Option<&'g V>, Restart> {
        let mut k = KeyCursor::new(key);
        let mut root = self.load_root();
        let mut root_slot = RootSlot::Tree(&self.root);
        loop {
            let ikey = k.ikey();
            let entered = root;
            let start = match self.find_border(&mut root, ikey, guard) {
                Ok((n, _)) => n,
                Err(Restart) => {
                    Stats::bump(&self.stats.op_restarts);
                    return Err(Restart);
                }
            };
            if root != entered {
                // Heal the stale root pointer (lazy root update,
                // §4.6.4): best-effort CAS from the pointer we entered
                // through to the true root we climbed to.
                root_slot.cas(entered.raw(), root.raw());
            }
            let bn = self.lock_border_for_ikey(start, ikey)?;
            match self.put_at_border(bn, &k, &root_slot, factory, guard) {
                BorderWrite::Done { prev } => return Ok(prev),
                BorderWrite::Layer {
                    root: link,
                    node,
                    slot,
                } => {
                    root = link;
                    root_slot = RootSlot::LayerLink { node, slot };
                    k.advance();
                }
            }
        }
    }

    /// The locked border-level completion of a put — shared verbatim by
    /// descending puts ([`Masstree::put_descend`]) and the batch engine's
    /// write cursors. `bn` must be locked and cover the cursor's current
    /// `ikey`; the lock is consumed.
    pub(crate) fn put_at_border<'g>(
        &self,
        bn: &'g BorderNode<V>,
        k: &KeyCursor<'_>,
        root_slot: &RootSlot<'_, V>,
        factory: &mut dyn ValueFactory<V>,
        guard: &'g Guard,
    ) -> BorderWrite<'g, V> {
        let ikey = k.ikey();
        let perm = bn.permutation();
        let rank = keylen_rank(k.keylen_code());
        match bn.search(perm, ikey, rank) {
            BorderSearch::Found { slot, .. } => {
                let code = bn.keylen[slot].load(Ordering::Acquire);
                match code {
                    KEYLEN_LAYER => {
                        // Descend into the existing layer.
                        let nl = bn.lv[slot].load(Ordering::Acquire);
                        bn.version().unlock();
                        BorderWrite::Layer {
                            root: NodePtr::from_raw(nl.cast()),
                            node: bn,
                            slot,
                        }
                    }
                    KEYLEN_UNSTABLE => {
                        unreachable!("UNSTABLE under the node lock")
                    }
                    KEYLEN_SUFFIX => {
                        debug_assert!(k.has_suffix(), "rank matched 9");
                        let sp = bn.suffix[slot].load(Ordering::Acquire);
                        // SAFETY: a live suffix block for the slot
                        // (we hold the lock; it cannot be retired
                        // concurrently).
                        let sb = unsafe { KeySuffix::bytes(sp) };
                        if sb == k.suffix() {
                            // Update: build the new value under the
                            // lock, publish with one atomic store.
                            let old = bn.lv[slot].load(Ordering::Acquire);
                            // SAFETY: the slot's live value.
                            let vptr = factory.make(Some(unsafe { &*old.cast::<V>() }));
                            bn.lv[slot].store(vptr, Ordering::Release);
                            bn.version().unlock();
                            // SAFETY: `old` was this key's value and
                            // is now unreachable from the tree.
                            unsafe {
                                gc::retire_value::<V>(guard, old);
                                return BorderWrite::Done {
                                    prev: Some(&*old.cast::<V>()),
                                };
                            }
                        }
                        // Two distinct keys share the slice: move
                        // the resident key one layer down, then
                        // keep inserting there (§4.6.3).
                        let new_root = self.make_layer(bn, slot, sb, guard);
                        bn.version().unlock();
                        BorderWrite::Layer {
                            root: NodePtr::from_border(new_root),
                            node: bn,
                            slot,
                        }
                    }
                    _ => {
                        // Exact inline match: update in place.
                        debug_assert_eq!(code as usize, k.slice_len());
                        debug_assert!(!k.has_suffix());
                        let old = bn.lv[slot].load(Ordering::Acquire);
                        // SAFETY: the slot's live value.
                        let vptr = factory.make(Some(unsafe { &*old.cast::<V>() }));
                        bn.lv[slot].store(vptr, Ordering::Release);
                        bn.version().unlock();
                        // SAFETY: as in the suffix-update arm.
                        unsafe {
                            gc::retire_value::<V>(guard, old);
                            BorderWrite::Done {
                                prev: Some(&*old.cast::<V>()),
                            }
                        }
                    }
                }
            }
            BorderSearch::Missing { pos } => {
                let vptr = factory.make(None);
                if !perm.is_full() {
                    self.insert_into_border(bn, perm, pos, k, vptr);
                    bn.version().unlock();
                    return BorderWrite::Done { prev: None };
                }
                // SAFETY: `bn` is locked and full; `vptr` ownership
                // moves into the split.
                unsafe {
                    self.split_and_insert(bn, pos, k, vptr, root_slot, guard);
                }
                BorderWrite::Done { prev: None }
            }
        }
    }

    /// Inserts `(k, vptr)` into a non-full locked border node at sorted
    /// position `pos` (§4.6.2): fill a free slot, then publish a new
    /// permutation with one release store.
    pub(crate) fn insert_into_border(
        &self,
        bn: &BorderNode<V>,
        perm: Permutation,
        pos: usize,
        k: &KeyCursor<'_>,
        vptr: *mut (),
    ) {
        let (nperm, slot) = perm.insert_from_back(pos);
        if bn.take_freed(slot) {
            // Reusing a slot freed by remove: readers may hold stale
            // references to it, so dirty the node and bump vinsert on
            // unlock (§4.6.5).
            bn.version().mark_inserting();
        }
        let suffix = if k.has_suffix() {
            KeySuffix::alloc(k.suffix())
        } else {
            core::ptr::null_mut()
        };
        bn.write_slot(slot, k.ikey(), k.keylen_code(), suffix, vptr);
        bn.publish_permutation(nperm);
    }

    /// Creates a new trie layer under `bn[slot]` holding the slot's
    /// existing key remainder `resident_suffix` and value (§4.6.3).
    /// Publication order is UNSTABLE → `lv` → LAYER so readers never
    /// misinterpret the slot. Caller holds `bn`'s lock.
    pub(crate) fn make_layer(
        &self,
        bn: &BorderNode<V>,
        slot: usize,
        resident_suffix: &[u8],
        guard: &Guard,
    ) -> *mut BorderNode<V> {
        Stats::bump(&self.stats.layers_created);
        let old_suffix = bn.suffix[slot].load(Ordering::Acquire);
        let old_value = bn.lv[slot].load(Ordering::Acquire);
        // Build the new layer's root: one border node holding the resident
        // key, re-sliced one layer deeper.
        let ik2 = crate::key::slice_at(resident_suffix, 0);
        let (code2, suffix2) = if resident_suffix.len() > SLICE_LEN {
            (
                KEYLEN_SUFFIX,
                KeySuffix::alloc(&resident_suffix[SLICE_LEN..]),
            )
        } else {
            (resident_suffix.len() as u8, core::ptr::null_mut())
        };
        let new_root = BorderNode::<V>::alloc(true, false, 0);
        // SAFETY: fresh private node.
        let nr = unsafe { &*new_root };
        nr.write_slot(0, ik2, code2, suffix2, old_value);
        nr.publish_permutation(Permutation::identity(1));
        // Publish into the parent slot (order per §4.6.3).
        bn.keylen[slot].store(KEYLEN_UNSTABLE, Ordering::Release);
        bn.lv[slot].store(new_root.cast::<()>(), Ordering::Release);
        bn.keylen[slot].store(KEYLEN_LAYER, Ordering::Release);
        // The old suffix block is no longer referenced by new readers;
        // in-flight readers may still dereference it until they unpin.
        // SAFETY: unreachable from the slot once KEYLEN_LAYER is visible.
        unsafe { gc::retire_suffix(guard, old_suffix) };
        new_root
    }

    /// Splits the locked, full border node `bn` while inserting the new
    /// key (Figure 5), then ascends. Consumes `bn`'s lock.
    ///
    /// # Safety
    ///
    /// `bn` must be locked by the caller and full; `vptr` ownership moves
    /// into the tree.
    pub(crate) unsafe fn split_and_insert<'g>(
        &self,
        bn: &'g BorderNode<V>,
        pos: usize,
        k: &KeyCursor<'_>,
        vptr: *mut (),
        root_slot: &RootSlot<'_, V>,
        guard: &'g Guard,
    ) {
        Stats::bump(&self.stats.splits);
        bn.version().mark_splitting();
        let perm = bn.permutation();
        debug_assert!(perm.is_full());

        // Conceptual sorted array of WIDTH+1 entries: the node's keys with
        // the new key at `pos`. `usize::MAX` denotes the new key.
        const NEW: usize = usize::MAX;
        let mut order = [0usize; WIDTH + 1];
        for (i, item) in order.iter_mut().enumerate().take(pos) {
            *item = perm.get(i);
        }
        order[pos] = NEW;
        for i in pos..WIDTH {
            order[i + 1] = perm.get(i);
        }
        let ikey_of = |e: usize| -> u64 {
            if e == NEW {
                k.ikey()
            } else {
                bn.keyslice[e].load(Ordering::Acquire)
            }
        };

        // Split point: sequential-insert optimization keeps the node
        // intact and sends only the new key right; otherwise split near
        // the middle at an ikey boundary (same-slice keys must stay
        // together, §4.2).
        let seq_insert = pos == WIDTH
            && bn.next.load(Ordering::Acquire).is_null()
            && ikey_of(order[WIDTH - 1]) != k.ikey();
        let split_at = if seq_insert {
            WIDTH
        } else {
            let mid = WIDTH.div_ceil(2);
            let mut best = None;
            for b in 1..=WIDTH {
                if ikey_of(order[b]) != ikey_of(order[b - 1]) {
                    let d = b.abs_diff(mid);
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, b));
                    }
                }
            }
            // A full node holds at most 10 keys per slice (§4.2), so a
            // boundary always exists among 16 entries.
            best.expect("full border node with a single slice").1
        };

        let right = BorderNode::<V>::alloc_for_split(bn.version(), ikey_of(order[split_at]));
        // SAFETY: fresh private node (locked+splitting).
        let rn = unsafe { &*right };
        let mut side = SplitSide::Left;
        for (j, &e) in order[split_at..].iter().enumerate() {
            if e == NEW {
                let suffix = if k.has_suffix() {
                    KeySuffix::alloc(k.suffix())
                } else {
                    core::ptr::null_mut()
                };
                rn.write_slot(j, k.ikey(), k.keylen_code(), suffix, vptr);
                side = SplitSide::Right;
            } else {
                rn.write_slot(
                    j,
                    bn.keyslice[e].load(Ordering::Acquire),
                    bn.keylen[e].load(Ordering::Acquire),
                    bn.suffix[e].load(Ordering::Acquire),
                    bn.lv[e].load(Ordering::Acquire),
                );
            }
        }
        rn.publish_permutation(Permutation::identity(WIDTH + 1 - split_at));

        // Rebuild the left node's permutation; if the new key stays left,
        // it takes a slot vacated by a moved entry.
        let mut left_slots = [0usize; WIDTH];
        let mut nl = 0;
        let mut new_left_pos = None;
        for &e in order[..split_at].iter() {
            if e == NEW {
                new_left_pos = Some(nl);
                left_slots[nl] = NEW;
            } else {
                left_slots[nl] = e;
            }
            nl += 1;
        }
        if let Some(ipos) = new_left_pos {
            // Any slot moved right is now free in the left node.
            let freed = order[split_at..]
                .iter()
                .copied()
                .find(|&e| e != NEW)
                .expect("split moved at least one resident entry");
            let suffix = if k.has_suffix() {
                KeySuffix::alloc(k.suffix())
            } else {
                core::ptr::null_mut()
            };
            bn.write_slot(freed, k.ikey(), k.keylen_code(), suffix, vptr);
            left_slots[ipos] = freed;
        }
        bn.publish_permutation(Permutation::from_slots(&left_slots[..nl]));

        // Link the new sibling into the leaf list. `old_next.prev` is
        // protected by its previous sibling's lock, which is now `right`
        // (held), per §4.5.
        let old_next = bn.next.load(Ordering::Acquire);
        rn.next.store(old_next, Ordering::Release);
        rn.prev
            .store(bn as *const _ as *mut BorderNode<V>, Ordering::Release);
        if !old_next.is_null() {
            // SAFETY: leaf-list nodes are live under the pinned epoch.
            unsafe { (*old_next).prev.store(right, Ordering::Release) };
        }
        bn.next.store(right, Ordering::Release);
        let _ = side;

        // Ascend (Figure 5), inserting `right` next to `bn` in the parent.
        let left_ptr = NodePtr::from_border(bn as *const _ as *mut BorderNode<V>);
        let right_ptr = NodePtr::from_border(right);
        let split_key = rn.lowkey.load(Ordering::Relaxed);
        // SAFETY: both nodes are locked; ownership of the locks moves in.
        unsafe { self.ascend_after_split(left_ptr, right_ptr, split_key, root_slot, guard) };
    }

    /// Inserts `right` (locked) as `left`'s (locked) new sibling in the
    /// parent chain, splitting parents as needed (Figure 5's `ascend`
    /// loop). Releases all locks it holds before returning.
    ///
    /// # Safety
    ///
    /// `left` and `right` must be locked by the caller; `right` must be
    /// unreachable from any parent yet.
    // Index loops mirror Figure 5's parallel keyslice/child arrays.
    #[allow(clippy::needless_range_loop)]
    pub(crate) unsafe fn ascend_after_split(
        &self,
        mut left: NodePtr<V>,
        mut right: NodePtr<V>,
        mut split_key: u64,
        root_slot: &RootSlot<'_, V>,
        guard: &Guard,
    ) {
        loop {
            match self.locked_parent(left, guard) {
                None => {
                    // `left` was the layer root: create a new interior
                    // root above `left` and `right`.
                    let newp = InteriorNode::<V>::alloc(true, false);
                    // SAFETY: fresh private node.
                    let np = unsafe { &*newp };
                    np.keyslice[0].store(split_key, Ordering::Relaxed);
                    np.child[0].store(left.raw(), Ordering::Relaxed);
                    np.child[1].store(right.raw(), Ordering::Relaxed);
                    np.nkeys.store(1, Ordering::Release);
                    // SAFETY: `left`/`right` are locked by us; setting a
                    // child's parent requires the (new, private) parent's
                    // lock conceptually — no other thread can reach `newp`.
                    unsafe {
                        left.set_parent(newp);
                        right.set_parent(newp);
                        // Parent pointers must be visible before the root
                        // demotion so climbers can ascend.
                        left.version().set_root(false);
                    }
                    root_slot.cas(left.raw(), newp.cast());
                    // SAFETY: we hold both locks.
                    unsafe {
                        left.version().unlock();
                        right.version().unlock();
                    }
                    return;
                }
                Some(p) if p.nkeys() < WIDTH => {
                    p.version().mark_inserting();
                    let ci = p
                        .child_index(left.raw())
                        .expect("locked parent must reference its child");
                    let n = p.nkeys();
                    // Shift separators/children right of the insertion
                    // point; readers retry via the INSERTING mark.
                    let mut j = n;
                    while j > ci {
                        let kv = p.keyslice[j - 1].load(Ordering::Relaxed);
                        p.keyslice[j].store(kv, Ordering::Relaxed);
                        let cv = p.child[j].load(Ordering::Relaxed);
                        p.child[j + 1].store(cv, Ordering::Relaxed);
                        j -= 1;
                    }
                    p.keyslice[ci].store(split_key, Ordering::Relaxed);
                    p.child[ci + 1].store(right.raw(), Ordering::Relaxed);
                    // SAFETY: we hold `p`'s lock, which protects its
                    // children's parent pointers.
                    unsafe { right.set_parent(p as *const _ as *mut InteriorNode<V>) };
                    p.nkeys.store(n as u8 + 1, Ordering::Release);
                    // SAFETY: we hold all three locks (Figure 5).
                    unsafe {
                        left.version().unlock();
                        right.version().unlock();
                    }
                    p.version().unlock();
                    return;
                }
                Some(p) => {
                    // Split the full parent and keep ascending.
                    Stats::bump(&self.stats.interior_splits);
                    p.version().mark_splitting();
                    // SAFETY: we hold `left`'s lock; Figure 5 releases it
                    // before splitting the parent.
                    unsafe { left.version().unlock() };
                    let ci = p
                        .child_index(left.raw())
                        .expect("locked parent must reference its child");

                    // Conceptual arrays with the new separator inserted.
                    let mut keys = [0u64; WIDTH + 1];
                    let mut children = [core::ptr::null_mut(); WIDTH + 2];
                    for i in 0..ci {
                        keys[i] = p.keyslice[i].load(Ordering::Relaxed);
                    }
                    keys[ci] = split_key;
                    for i in ci..WIDTH {
                        keys[i + 1] = p.keyslice[i].load(Ordering::Relaxed);
                    }
                    for i in 0..=ci {
                        children[i] = p.child[i].load(Ordering::Relaxed);
                    }
                    children[ci + 1] = right.raw();
                    for i in ci + 1..=WIDTH {
                        children[i + 1] = p.child[i].load(Ordering::Relaxed);
                    }

                    // 16 separators total: left keeps 8, index 8 moves up,
                    // right takes 7 (9 and 8 children respectively).
                    const LEFT_KEYS: usize = WIDTH.div_ceil(2);
                    let up_key = keys[LEFT_KEYS];
                    let p2 = InteriorNode::<V>::alloc_for_split(p.version());
                    // SAFETY: fresh private node.
                    let p2r = unsafe { &*p2 };
                    for i in 0..LEFT_KEYS {
                        p.keyslice[i].store(keys[i], Ordering::Relaxed);
                    }
                    for (i, &c) in children.iter().enumerate().take(LEFT_KEYS + 1) {
                        p.child[i].store(c, Ordering::Relaxed);
                        // SAFETY: we hold `p`'s lock (children's parent
                        // pointers are protected by it).
                        unsafe {
                            NodePtr::<V>::from_raw(c)
                                .set_parent(p as *const _ as *mut InteriorNode<V>)
                        };
                    }
                    let right_keys = WIDTH - LEFT_KEYS; // 7
                    for i in 0..right_keys {
                        p2r.keyslice[i].store(keys[LEFT_KEYS + 1 + i], Ordering::Relaxed);
                    }
                    for i in 0..=right_keys {
                        let c = children[LEFT_KEYS + 1 + i];
                        p2r.child[i].store(c, Ordering::Relaxed);
                        // SAFETY: these children move under `p`'s lock; the
                        // paper allows reassigning their parent pointers
                        // without child locks (§4.5).
                        unsafe { NodePtr::<V>::from_raw(c).set_parent(p2) };
                    }
                    p2r.nkeys.store(right_keys as u8, Ordering::Relaxed);
                    p.nkeys.store(LEFT_KEYS as u8, Ordering::Release);
                    // SAFETY: we hold `right`'s lock (Figure 5 unlocks n'
                    // after the parent split's key distribution).
                    unsafe { right.version().unlock() };
                    left = NodePtr::from_interior(p as *const _ as *mut InteriorNode<V>);
                    right = NodePtr::from_interior(p2);
                    split_key = up_key;
                }
            }
        }
    }
}
