//! The `Masstree` handle, layer-aware descent (Figure 6) and `get`
//! (Figure 7).

use core::marker::PhantomData;
use core::sync::atomic::{AtomicPtr, Ordering};

use crossbeam::epoch::Guard;

use crate::hint::LeafHint;
use crate::key::KeyCursor;
use crate::node::{BorderNode, InteriorNode, NodeHeader, NodePtr, SlotMatch};
use crate::stats::Stats;
use crate::stored::Stored;
use crate::version::Version;

/// A concurrent Masstree mapping arbitrary byte keys to values of type `V`.
///
/// All operations are safe to call from any number of threads. Readers
/// (`get`, `scan`) take no locks and never write shared memory; writers
/// (`put`, `remove`) lock only the nodes they change. Reclamation is
/// epoch-based: operations take a [`Guard`] (see [`crate::pin`]), and
/// borrowed values remain valid for the guard's lifetime even if
/// concurrently removed.
///
/// A value `V` is owned through one thin pointer per key; [`Stored`]
/// says how (every sized type is boxed). `V: Send + Sync` is part of
/// that bound, because the tree hands out `&V` across threads and frees
/// values on whichever thread collects them, so the tree is itself
/// `Send` and `Sync`: all of its shared state is atomics guarded by the
/// OCC protocol.
pub struct Masstree<V: ?Sized + Stored> {
    pub(crate) root: AtomicPtr<NodeHeader>,
    pub(crate) stats: Stats,
    pub(crate) _marker: PhantomData<Box<V>>,
}

/// Signal that an operation must restart from the top of the tree (it
/// encountered a deleted node or a removed layer).
pub(crate) struct Restart;

impl<V: ?Sized + Stored> Default for Masstree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: ?Sized + Stored> Masstree<V> {
    /// Creates an empty tree.
    ///
    /// The initial node is a border node that is the root of the layer-0
    /// B+-tree; it remains the leftmost border node for the life of the
    /// tree (§4.6.4).
    pub fn new() -> Self {
        let root = BorderNode::<V>::alloc(true, false, 0);
        Masstree {
            root: AtomicPtr::new(root.cast::<NodeHeader>()),
            stats: Stats::new(),
            _marker: PhantomData,
        }
    }

    /// Event counters for the concurrency protocol (see [`Stats`]).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    #[inline]
    pub(crate) fn load_root(&self) -> NodePtr<V> {
        NodePtr::from_raw(self.root.load(Ordering::Acquire))
    }

    /// `findborder` (Figure 6): descends one trie layer's B+-tree to the
    /// border node responsible for `ikey`, using hand-over-hand version
    /// validation. Returns the node and the stable version under which it
    /// was reached, or [`Restart`] if a deleted node was encountered.
    ///
    /// `root` is updated in place when the descent has to climb past a
    /// stale root pointer (a split installed a new root above it); writers
    /// use the updated value to heal their layer-link slot lazily, as
    /// §4.6.4 prescribes.
    pub(crate) fn find_border<'g>(
        &self,
        root: &mut NodePtr<V>,
        ikey: u64,
        _guard: &'g Guard,
    ) -> Result<(&'g BorderNode<V>, Version), Restart> {
        // Sampled-trace stage mark: when the current request carries a
        // span (1-in-N sampling, `mtobs::span`), the first descent
        // records its start offset. One thread-local flag check when no
        // span is armed — negligible against the descent itself.
        mtobs::span::mark(mtobs::Stage::Descent);
        'retry: loop {
            let mut n = *root;
            n.prefetch();
            // SAFETY: `root` points to a live node: it is either the
            // tree root, a published layer link, or a parent pointer, all
            // of which are kept live by the pinned guard.
            let mut v = unsafe { n.version() }.stable();
            if !v.is_root() {
                // A split installed a new root above us; climb to it.
                // SAFETY: `n` is live (guard pinned).
                let p = unsafe { n.parent() };
                if p.is_null() {
                    // Deleted out of its tree before the parent was set.
                    return Err(Restart);
                }
                *root = NodePtr::from_interior(p);
                continue 'retry;
            }
            loop {
                if v.is_deleted() {
                    return Err(Restart);
                }
                if v.is_border() {
                    // SAFETY: live node, ISBORDER verified via `v`.
                    return Ok((unsafe { n.as_border() }, v));
                }
                // SAFETY: live node, interior per the check above.
                let inter = unsafe { n.as_interior() };
                let (_, childp) = inter.find_child(ikey);
                if childp.is_null() {
                    // Torn read during a concurrent reshape; revalidate.
                    let v2 = inter.version().stable();
                    if v.has_split(v2) {
                        Stats::bump(&self.stats.descend_retries_root);
                        continue 'retry;
                    }
                    Stats::bump(&self.stats.descend_retries_local);
                    v = v2;
                    continue;
                }
                let child = NodePtr::from_raw(childp);
                child.prefetch();
                // SAFETY: a child pointer read from a live interior node
                // is live: nodes are unlinked before being retired and
                // retired only after all pinned guards advance.
                let vc = unsafe { child.version() }.stable();
                // Hand-over-hand validation: re-check the parent before
                // committing to the child.
                let v2 = inter.version().load(Ordering::Acquire);
                if !v.has_changed(v2) {
                    n = child;
                    v = vc;
                    continue;
                }
                let v2 = inter.version().stable();
                if v.has_split(v2) {
                    // The key's range may have moved to another subtree:
                    // retry from the (possibly new) root.
                    Stats::bump(&self.stats.descend_retries_root);
                    continue 'retry;
                }
                // A local insert: retry from this node.
                Stats::bump(&self.stats.descend_retries_local);
                v = v2;
            }
        }
    }

    /// `lockedparent` (Figure 4): locks and returns `n`'s parent,
    /// revalidating the parent pointer after acquiring the lock (a
    /// concurrent split of the parent can move `n` to a new parent).
    /// Returns `None` if `n` is a layer root.
    ///
    /// # Safety-relevant invariants
    ///
    /// Caller must hold `n`'s lock, which pins `n`'s membership in its
    /// parent (children move only under the parent's lock, which the
    /// revalidation observes).
    pub(crate) fn locked_parent<'g>(
        &self,
        n: NodePtr<V>,
        _guard: &'g Guard,
    ) -> Option<&'g InteriorNode<V>> {
        loop {
            // SAFETY: `n` is live and locked by the caller.
            let p = unsafe { n.parent() };
            if p.is_null() {
                return None;
            }
            // SAFETY: parent pointers of live nodes reference live nodes
            // (a parent is unlinked only after all its children are).
            let pref = unsafe { &*p };
            pref.version().lock();
            // SAFETY: as above.
            if unsafe { n.parent() } == p {
                return Some(pref);
            }
            pref.version().unlock();
        }
    }

    /// Locks the border node responsible for `ikey`, starting from a node
    /// found by an optimistic descent. Walks right (unlock-then-lock, so
    /// no two sibling locks are ever held) if a
    /// concurrent split moved the key. Errors if the chain hits a deleted
    /// node.
    pub(crate) fn lock_border_for_ikey<'g>(
        &self,
        start: &'g BorderNode<V>,
        ikey: u64,
    ) -> Result<&'g BorderNode<V>, Restart> {
        start.version().lock();
        self.walk_right_locked(start, ikey)
    }

    /// The already-locked body of [`Masstree::lock_border_for_ikey`]:
    /// given a locked border node whose `lowkey` once covered `ikey`,
    /// walks the leaf list right (unlock-then-lock) until the node
    /// responsible for `ikey` is held. Shared by descending writers and
    /// the batch engine's write cursors (which take the lock with
    /// `try_lock` so a contended node yields instead of spinning).
    /// Errors (releasing the lock) if the chain hits a deleted node.
    pub(crate) fn walk_right_locked<'g>(
        &self,
        start: &'g BorderNode<V>,
        ikey: u64,
    ) -> Result<&'g BorderNode<V>, Restart> {
        let mut bn = start;
        loop {
            if bn.version().load(Ordering::Relaxed).is_deleted() {
                bn.version().unlock();
                Stats::bump(&self.stats.op_restarts);
                return Err(Restart);
            }
            let next = bn.next.load(Ordering::Acquire);
            if !next.is_null() {
                // SAFETY: leaf-list pointers reference live (possibly
                // deleted-but-unreclaimed) nodes under the pinned epoch.
                let nx = unsafe { &*next };
                if ikey >= nx.lowkey.load(Ordering::Relaxed) {
                    bn.version().unlock();
                    nx.version().lock();
                    bn = nx;
                    continue;
                }
            }
            return Ok(bn);
        }
    }

    /// Looks up `key`, returning a reference valid for the guard's
    /// lifetime (Figure 7).
    pub fn get<'g>(&self, key: &[u8], guard: &'g Guard) -> Option<&'g V> {
        self.get_capturing_hint(key, guard).0
    }

    /// Figure 7's `get`, additionally capturing a [`LeafHint`] at the
    /// validated endpoint: the border node the lookup ended in, the
    /// version that validated the read, and the trie-layer offset. Later
    /// lookups of the same key can start there via
    /// [`Masstree::get_at_hint`] and skip the descent entirely.
    pub fn get_capturing_hint<'g>(
        &self,
        key: &[u8],
        guard: &'g Guard,
    ) -> (Option<&'g V>, LeafHint<V>) {
        'restart: loop {
            let mut k = KeyCursor::new(key);
            let mut root = self.load_root();
            'layer: loop {
                let ikey = k.ikey();
                let (mut n, mut v) = match self.find_border(&mut root, ikey, guard) {
                    Ok(x) => x,
                    Err(Restart) => {
                        Stats::bump(&self.stats.op_restarts);
                        continue 'restart;
                    }
                };
                'forward: loop {
                    if v.is_deleted() {
                        Stats::bump(&self.stats.op_restarts);
                        continue 'restart;
                    }
                    let perm = n.permutation();
                    // Version re-check (Figure 7's `n.version ⊕ v > locked`).
                    let valid = || !v.has_changed(n.version().load(Ordering::Acquire));
                    let Some(m) = n.match_key(perm, &k, valid) else {
                        Stats::bump(&self.stats.read_retries);
                        let mut vs = n.version().stable();
                        // Walk right while the key's range moved (B-link).
                        loop {
                            if vs.is_deleted() {
                                break;
                            }
                            let next = n.next.load(Ordering::Acquire);
                            if next.is_null() {
                                break;
                            }
                            // SAFETY: live under pinned epoch.
                            let nx = unsafe { &*next };
                            if ikey < nx.lowkey.load(Ordering::Relaxed) {
                                break;
                            }
                            Stats::bump(&self.stats.read_advances);
                            n = nx;
                            vs = n.version().stable();
                        }
                        v = vs;
                        continue 'forward;
                    };
                    match m {
                        SlotMatch::Absent { conclusive } => {
                            return (
                                None,
                                LeafHint::capture_absent(n, v, perm, k.offset(), conclusive),
                            );
                        }
                        // SAFETY: a validated value pointer for this key;
                        // epoch reclamation keeps it live for `'g`.
                        SlotMatch::Value { slot, code, lv } => {
                            return (
                                Some(unsafe { V::deref(lv) }),
                                LeafHint::capture(n, v, perm, slot, code, k.offset()),
                            );
                        }
                        SlotMatch::Layer { root: p, .. } => {
                            root = NodePtr::from_raw(p);
                            k.advance();
                            continue 'layer;
                        }
                        SlotMatch::Unstable => {
                            core::hint::spin_loop();
                            continue 'forward;
                        }
                    }
                }
            }
        }
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &[u8], guard: &Guard) -> bool {
        self.get(key, guard).is_some()
    }
}
