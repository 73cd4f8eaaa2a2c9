//! Epoch-based reclamation helpers (§4.6.1 of the paper).
//!
//! Removed values, suffix blocks and nodes stay readable until every
//! reader that could hold a reference has unpinned its epoch guard — the
//! paper's read-copy-update-style garbage collection, implemented with
//! `crossbeam::epoch`.

use crossbeam::epoch::Guard;

use crate::key::KEYLEN_SUFFIX_BLOCK;
use crate::node::NodePtr;
use crate::stored::Stored;
use crate::suffix;

/// Schedules a value for destruction after the current epoch.
///
/// # Safety
///
/// `p` must have come from [`Stored::into_raw`], must be unreachable
/// from the tree, and must not be retired twice.
pub(crate) unsafe fn retire_value<V: ?Sized + Stored>(guard: &Guard, p: *mut ()) {
    let p = p as usize;
    // SAFETY: per caller contract; the closure runs once, after all
    // readers that could observe `p` have unpinned.
    unsafe {
        guard.defer_unchecked(move || V::drop_raw(p as *mut ()));
    }
}

/// Schedules the suffix block of a slot whose pair is `(code, word)`
/// for destruction after the current epoch; an inline suffix has none.
///
/// # Safety
///
/// The pair must be consistent (read under the node lock), the block
/// unreachable from the tree, and not retired twice.
pub(crate) unsafe fn retire_suffix(guard: &Guard, code: u8, word: u64) {
    if code == KEYLEN_SUFFIX_BLOCK {
        // SAFETY: per caller contract.
        unsafe {
            guard.defer_unchecked(move || suffix::free(code, word));
        }
    }
}

/// Schedules a tree node for reclamation after the current epoch. The
/// deferred destruction returns the node's memory to the slab free lists
/// (`slab.rs`) rather than the system allocator, so the epoch GC is what
/// refills the per-thread node pools that `put`'s splits draw from.
/// Values, suffixes and children must have been moved or retired
/// separately.
///
/// # Safety
///
/// The node must be unlinked from the tree (marked deleted) and must not
/// be retired twice.
pub(crate) unsafe fn retire_node<V: ?Sized + 'static>(guard: &Guard, n: NodePtr<V>) {
    let raw = n.raw() as usize;
    // SAFETY: per caller contract.
    unsafe {
        guard.defer_unchecked(move || {
            NodePtr::<V>::from_raw(raw as *mut crate::node::NodeHeader).free()
        });
    }
}
