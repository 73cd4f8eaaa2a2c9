//! Backward range queries.
//!
//! §4.3 of the paper: "Insert and remove maintain a per-tree doubly
//! linked list among border nodes. This list speeds up range queries in
//! either direction" — the backlinks exist for concurrent remove, and
//! they also serve descending scans. The protocol mirrors the forward
//! scanner (`scan.rs`): validated per-node snapshots, layers visited
//! depth-first (in reverse), and a re-descent from the current bound on
//! any split or deletion. Because `prev` pointers are maintained under
//! weaker invariants than `next` (a node's prev may lag during splits),
//! the backward walk revalidates by *key range* and falls back to a
//! fresh descent instead of trusting the link.
//!
//! Reverse scans are resumable through the same [`crate::scan::ScanCursor`]
//! machinery as forward ones: a stopped scan records its border node as
//! a validated anchor plus the descending full-key bound, and
//! [`Masstree::scan_resume`](crate::tree::Masstree::scan_resume)
//! re-enters there.
//!
//! Like the forward scanner, the hot path is allocation-free in steady
//! state: snapshots land in a stack array, and the prefix/bound/restart
//! buffers live in a reusable [`ScanScratch`]. The upper bound is the
//! scratch `bound` buffer plus an `everything` flag standing in for "no
//! upper limit" (the old `Bound::Everything`).

use core::sync::atomic::Ordering;

use crossbeam::epoch::Guard;

use crate::anchor::DescentAnchor;
use crate::key::{slice_at, KEYLEN_LAYER, KEYLEN_SUFFIX, SLICE_LEN};
use crate::node::{BorderNode, NodePtr};
use crate::permutation::WIDTH;
use crate::scan::{with_scratch, Entry, Redescend, ScanScratch, ScanStatus, StopPoint};
use crate::stats::Stats;
use crate::stored::Stored;
use crate::tree::{Masstree, Restart};
use crate::version::Version;

impl<V: ?Sized + Stored> Masstree<V> {
    /// Visits keys at or *below* `start` in descending lexicographic
    /// order, calling `f(key, value)` until it returns `false` or the
    /// tree is exhausted. Returns the number of entries visited.
    ///
    /// Like [`Masstree::scan`], not atomic with respect to concurrent
    /// writers; order and uniqueness are guaranteed. Uses the
    /// thread-local [`ScanScratch`]; see [`Masstree::scan_rev_with`].
    pub fn scan_rev<'g, F>(&self, start: &[u8], guard: &'g Guard, mut f: F) -> usize
    where
        F: FnMut(&[u8], &'g V) -> bool,
    {
        with_scratch(|scratch| self.scan_rev_with(start, scratch, guard, |k, v| f(k, v)))
    }

    /// [`Masstree::scan_rev`] with an explicit [`ScanScratch`]. With a
    /// warm scratch the scan performs no heap allocation.
    pub fn scan_rev_with<'g, F>(
        &self,
        start: &[u8],
        scratch: &mut ScanScratch,
        guard: &'g Guard,
        mut f: F,
    ) -> usize
    where
        F: FnMut(&[u8], &'g V) -> bool,
    {
        let mut count = 0usize;
        let mut stop = None;
        scratch.bound.clear();
        scratch.bound.extend_from_slice(start);
        loop {
            let root = self.load_root();
            scratch.prefix.clear();
            match self.scan_rev_layer(
                root,
                false,
                scratch,
                guard,
                &mut |k, v| {
                    count += 1;
                    f(k, v)
                },
                &mut stop,
            ) {
                ScanStatus::Done | ScanStatus::Stopped => return count,
                ScanStatus::Restart => {
                    Stats::bump(&self.stats.op_restarts);
                    core::mem::swap(&mut scratch.bound, &mut scratch.restart);
                }
            }
        }
    }

    /// Collects up to `limit` `(key, value)` pairs at or below `start`,
    /// in descending key order (a backward `getrange`).
    pub fn get_range_rev<'g>(
        &self,
        start: &[u8],
        limit: usize,
        guard: &'g Guard,
    ) -> Vec<(Vec<u8>, &'g V)> {
        let mut out = Vec::with_capacity(limit.min(1024));
        if limit == 0 {
            return out;
        }
        self.scan_rev(start, guard, |k, v| {
            out.push((k.to_vec(), v));
            out.len() < limit
        });
        out
    }

    /// Scans one layer in descending order. `scratch.bound` is the
    /// inclusive upper bound for key remainders within this layer,
    /// unless `everything` says the layer is unbounded above.
    pub(crate) fn scan_rev_layer<'g>(
        &self,
        root: NodePtr<V>,
        mut everything: bool,
        scratch: &mut ScanScratch,
        guard: &'g Guard,
        f: &mut dyn FnMut(&[u8], &'g V) -> bool,
        stop: &mut Option<StopPoint<V>>,
    ) -> ScanStatus {
        'redescend: loop {
            let bikey = if everything {
                u64::MAX
            } else {
                slice_at(&scratch.bound, 0)
            };
            let mut root_var = root;
            let (n, _v) = match self.find_border(&mut root_var, bikey, guard) {
                Ok(x) => x,
                Err(Restart) => {
                    scratch.restart.clear();
                    scratch.restart.extend_from_slice(&scratch.prefix);
                    if everything {
                        // Restarting an unbounded layer: resume from the
                        // maximal remainder (prefix + 8 × 0xff covers any
                        // slice; deeper bytes are bounded by re-descent).
                        scratch.restart.extend_from_slice(&[0xff; SLICE_LEN]);
                    } else {
                        scratch.restart.extend_from_slice(&scratch.bound);
                    }
                    return ScanStatus::Restart;
                }
            };
            match self.scan_rev_layer_nodes(n, &mut everything, scratch, guard, f, stop) {
                Ok(status) => return status,
                Err(Redescend) => continue 'redescend,
            }
        }
    }

    /// The in-layer descending node walk of [`Masstree::scan_rev_layer`],
    /// starting at border node `n` (reached by a descent **or** through
    /// a validated scan anchor). `Err(Redescend)` reports a split,
    /// deletion or lagging prev-link the caller must re-descend (or
    /// fall back) from.
    pub(crate) fn scan_rev_layer_nodes<'g>(
        &self,
        mut n: &'g BorderNode<V>,
        everything: &mut bool,
        scratch: &mut ScanScratch,
        guard: &'g Guard,
        f: &mut dyn FnMut(&[u8], &'g V) -> bool,
        stop: &mut Option<StopPoint<V>>,
    ) -> Result<ScanStatus, Redescend> {
        let mut entries = [Entry::EMPTY; WIDTH];
        loop {
            let (filled, prev, lowkey, v) = match Self::snapshot_border_rev(n, &mut entries) {
                Ok(x) => x,
                Err(()) => return Err(Redescend),
            };
            // Process this node's entries from highest to lowest.
            for e in entries[..filled].iter().rev() {
                // Upper-bound filter.
                let (bikey, brank) = if *everything {
                    (u64::MAX, KEYLEN_SUFFIX)
                } else {
                    (
                        slice_at(&scratch.bound, 0),
                        if scratch.bound.len() > SLICE_LEN {
                            KEYLEN_SUFFIX
                        } else {
                            scratch.bound.len() as u8
                        },
                    )
                };
                if e.ikey > bikey {
                    continue;
                }
                let erank = crate::key::keylen_rank(e.code);
                if e.ikey == bikey && erank > brank {
                    continue;
                }
                let at_boundary = e.ikey == bikey && erank == brank;
                let bounded_suffix = at_boundary && brank == KEYLEN_SUFFIX && !*everything;
                let slice_bytes = e.ikey.to_be_bytes();
                match e.code {
                    KEYLEN_LAYER => {
                        // Sub-layer bound: the bound's remainder past
                        // this slice, else the whole sub-layer.
                        let sub_everything = if bounded_suffix {
                            scratch.bound.drain(..SLICE_LEN);
                            false
                        } else {
                            true
                        };
                        scratch.prefix.extend_from_slice(&slice_bytes);
                        let st = self.scan_rev_layer(
                            NodePtr::from_raw(e.lv.cast()),
                            sub_everything,
                            scratch,
                            guard,
                            f,
                            stop,
                        );
                        let plen = scratch.prefix.len() - SLICE_LEN;
                        scratch.prefix.truncate(plen);
                        match st {
                            ScanStatus::Done => {}
                            other => return Ok(other),
                        }
                        // Resume strictly below the whole sub-layer:
                        // the next candidate is the inline key of the
                        // same slice with rank 8, bounded inclusively.
                        scratch.bound.clear();
                        scratch.bound.extend_from_slice(&slice_bytes);
                        *everything = false;
                        // (rank 8 == full slice, which sorts just
                        // below the layer's rank-9 position.)
                    }
                    KEYLEN_SUFFIX.. => {
                        // SAFETY: captured under a validated snapshot;
                        // epoch keeps a block live for the guard.
                        let sb = unsafe { e.suffix() };
                        if bounded_suffix && sb > &scratch.bound[SLICE_LEN..] {
                            continue;
                        }
                        let plen = scratch.prefix.len();
                        scratch.prefix.extend_from_slice(&slice_bytes);
                        scratch.prefix.extend_from_slice(sb);
                        // SAFETY: validated value pointer, epoch-live.
                        let keep = f(&scratch.prefix, unsafe { V::deref(e.lv) });
                        scratch.prefix.truncate(plen);
                        // Advance the bound below the emitted key before
                        // honoring a stop, so the stop point is always
                        // "strictly below the last emitted entry".
                        let more = prev_bound_into(e.ikey, e.code, Some(sb), &mut scratch.bound);
                        *everything = false;
                        if !keep {
                            return Ok(self.stopped_rev_at(n, v, more, scratch, stop));
                        }
                        if !more {
                            return Ok(ScanStatus::Done);
                        }
                    }
                    len => {
                        let len = len as usize;
                        let plen = scratch.prefix.len();
                        scratch.prefix.extend_from_slice(&slice_bytes[..len]);
                        // SAFETY: validated value pointer, epoch-live.
                        let keep = f(&scratch.prefix, unsafe { V::deref(e.lv) });
                        scratch.prefix.truncate(plen);
                        let more = prev_bound_into(e.ikey, e.code, None, &mut scratch.bound);
                        *everything = false;
                        if !keep {
                            return Ok(self.stopped_rev_at(n, v, more, scratch, stop));
                        }
                        if !more {
                            return Ok(ScanStatus::Done);
                        }
                    }
                }
            }
            // Move left. The prev pointer may lag behind splits, so
            // re-descend by bound instead when it looks inconsistent.
            if prev.is_null() {
                return Ok(ScanStatus::Done);
            }
            // Resume below this node's range: its lowkey is a valid
            // exclusive bound (constant for the node's lifetime).
            match lowkey.checked_sub(1) {
                None => return Ok(ScanStatus::Done),
                Some(pk) => {
                    // Bound: every remainder whose slice ≤ lowkey-1
                    // (inclusive at the suffix level).
                    scratch.bound.clear();
                    scratch.bound.extend_from_slice(&pk.to_be_bytes());
                    scratch.bound.extend_from_slice(&[0xff; 8]); // rank-9 ceiling
                    *everything = false;
                }
            }
            // SAFETY: leaf-list pointers stay live under the epoch.
            let pn = unsafe { &*prev };
            // Validate the link: the previous node must actually cover
            // keys below ours; otherwise re-descend.
            if pn.lowkey.load(Ordering::Relaxed) > lowkey {
                return Err(Redescend);
            }
            n = pn;
        }
    }

    /// Records a reverse scan's stop point. `more` says whether
    /// `scratch.bound` holds a valid continuation within this layer; if
    /// not, the continuation is everything at or below the enclosing
    /// prefix (which is itself a key candidate — it lives in the parent
    /// layer), or nothing at all when the stop exhausted layer 0.
    fn stopped_rev_at(
        &self,
        n: &BorderNode<V>,
        v: Version,
        more: bool,
        scratch: &mut ScanScratch,
        stop: &mut Option<StopPoint<V>>,
    ) -> ScanStatus {
        if more {
            scratch.restart.clear();
            scratch.restart.extend_from_slice(&scratch.prefix);
            scratch.restart.extend_from_slice(&scratch.bound);
            *stop = Some(StopPoint::At {
                anchor: Some(DescentAnchor::capture(n, v, scratch.prefix.len())),
            });
        } else if scratch.prefix.is_empty() {
            scratch.restart.clear();
            *stop = Some(StopPoint::Exhausted);
        } else {
            scratch.restart.clear();
            scratch.restart.extend_from_slice(&scratch.prefix);
            *stop = Some(StopPoint::At { anchor: None });
        }
        ScanStatus::Stopped
    }

    /// Snapshot (into the caller's fixed buffer) including the node's
    /// `prev` pointer, lowkey, and the validating version.
    #[allow(clippy::type_complexity)]
    fn snapshot_border_rev(
        n: &BorderNode<V>,
        entries: &mut [Entry; WIDTH],
    ) -> Result<(usize, *mut BorderNode<V>, u64, Version), ()> {
        loop {
            let v = n.version().stable();
            if v.is_deleted() {
                return Err(());
            }
            let perm = n.permutation();
            let mut filled = 0usize;
            let mut unstable = false;
            for pos in 0..perm.nkeys() {
                let Some(e) = Entry::read(n, perm.get(pos)) else {
                    unstable = true;
                    break;
                };
                entries[filled] = e;
                filled += 1;
            }
            let prev = n.prev.load(Ordering::Acquire);
            let lowkey = n.lowkey.load(Ordering::Relaxed);
            let v2 = n.version().load(Ordering::Acquire);
            if !unstable && !v.has_changed(v2) {
                return Ok((filled, prev, lowkey, v));
            }
            if v.has_split(n.version().stable()) {
                return Err(());
            }
            core::hint::spin_loop();
        }
    }
}

/// Writes the largest remainder strictly below entry `(ikey, code)` into
/// `out`, returning `false` when the layer is exhausted below the entry:
/// * below an inline key of length `l > 0`: the same bytes with the last
///   one decremented, padded to the rank-9 ceiling; or the next-shorter
///   prefix when the last byte is 0x00;
/// * below the empty remainder (`l == 0`): nothing — the layer (from this
///   slice leftward) is exhausted below `ikey`;
/// * below a suffixed key (`suffix` given): the same slice with a smaller
///   suffix — we conservatively resume at the slice's inline rank-8
///   position.
fn prev_bound_into(ikey: u64, code: u8, suffix: Option<&[u8]>, out: &mut Vec<u8>) -> bool {
    if let Some(sb) = suffix {
        out.clear();
        out.extend_from_slice(&ikey.to_be_bytes());
        if sb.is_empty() {
            // Below "slice + empty suffix" comes the inline rank-8 key.
            return true;
        }
        // Below "slice + sb" come suffixes strictly smaller than sb:
        // bound = slice + (sb minus one step).
        if sb.last() == Some(&0) {
            out.extend_from_slice(&sb[..sb.len() - 1]);
        } else {
            out.extend_from_slice(sb);
            *out.last_mut().expect("suffix is non-empty") -= 1;
            out.extend_from_slice(&[0xff; 16]);
        }
        return true;
    }
    let len = code as usize;
    let bytes = ikey.to_be_bytes();
    if len == 0 {
        // Below the empty remainder: previous slice entirely.
        return match ikey.checked_sub(1) {
            None => false,
            Some(pk) => {
                out.clear();
                out.extend_from_slice(&pk.to_be_bytes());
                out.extend_from_slice(&[0xff; 8]);
                true
            }
        };
    }
    out.clear();
    out.extend_from_slice(&bytes[..len]);
    if out.last() == Some(&0) {
        out.pop(); // e.g. below "ab\0" comes "ab"
    } else {
        *out.last_mut().expect("non-empty inline key") -= 1;
        out.extend_from_slice(&[0xff; 16]); // ceiling under the new prefix
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prev_bound_inline() {
        let mut b = Vec::new();
        // Below "b" (1 byte) comes "a…\xff".
        assert!(prev_bound_into(slice_at(b"b", 0), 1, None, &mut b));
        assert!(b.starts_with(b"a"));
        assert!(b.len() > 8);
        // Below "a\0" comes "a".
        assert!(prev_bound_into(slice_at(b"a\0", 0), 2, None, &mut b));
        assert_eq!(b, b"a");
        // Below the empty key: nothing.
        assert!(!prev_bound_into(0, 0, None, &mut b));
    }
}
