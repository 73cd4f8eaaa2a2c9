//! Range queries (`getrange`/"scan", §3 of the paper) and **resumable
//! scans**.
//!
//! This is the tree's one scan engine. Scans are forward, in
//! lexicographic key order, as the paper's `getrange(k, n)` is, and —
//! per the paper — not atomic with respect to concurrent inserts and
//! removes: each border node is read through one validated snapshot,
//! concurrent splits cause a re-descent from the current position, and
//! a scan never returns a key twice or out of order.
//!
//! Multi-layer traversal recurses through layer links depth-first; the
//! current key prefix is threaded down so emitted keys are reconstructed
//! without storing full keys in the tree.
//!
//! # Resumable scans
//!
//! A chunked range read (`getrange(k, n)` repeated with advancing `k`)
//! pays a full root-to-leaf descent per chunk even though each chunk
//! starts exactly where the last one stopped. A [`ScanCursor`] remembers
//! that stop point — the border node as a validated
//! [`DescentAnchor`](crate::anchor::DescentAnchor) plus the full-key
//! bound — and [`Masstree::scan_resume`] re-enters the tree there with
//! **zero descent** when the anchor still validates
//! (`DescentAnchor::enter_for_scan`: same slab incarnation, no split, no
//! deletion; concurrent inserts are fine because every border node is
//! re-snapshotted under its own version bracket anyway). A failed
//! validation falls back to a normal descent from the recorded bound, so
//! a resumed scan is always exactly equivalent to a fresh scan from that
//! bound — never stale, never duplicated, never out of order. The
//! cursor is the only way a scan resumes: whoever continues a range
//! read holds its cursor explicitly (mtkv's wire resume tokens name
//! one each); a plain [`Masstree::scan`] always descends from its start.
//!
//! # Allocation discipline
//!
//! The scan hot path performs **no heap allocation in steady state**:
//! border snapshots land in a fixed `[Entry; WIDTH]` on the stack, the
//! key prefix, per-layer lower bound and restart key live in a
//! [`ScanScratch`] whose buffers keep their capacity across calls, and
//! the visitor borrows `(&[u8], &V)` under the epoch guard instead of
//! materializing owned pairs. `scan` draws a thread-local scratch;
//! callers that want explicit reuse (or several scratches) use
//! [`Masstree::scan_with`]. A warm [`ScanCursor`] likewise reuses its
//! bound buffer across resumes.

use core::sync::atomic::Ordering;
use std::cell::RefCell;

use crossbeam::epoch::Guard;

use crate::anchor::DescentAnchor;
use crate::key::{slice_at, KEYLEN_LAYER, KEYLEN_SUFFIX, SLICE_LEN};
use crate::node::{BorderNode, ExtractedLv, NodePtr};
use crate::permutation::WIDTH;
use crate::stats::Stats;
use crate::stored::Stored;
use crate::suffix;
use crate::tree::{Masstree, Restart};
use crate::version::Version;

/// One decoded border-node entry captured in a validated snapshot.
#[derive(Clone, Copy)]
struct Entry {
    ikey: u64,
    /// Inline length 0..=8, a suffix code or [`KEYLEN_LAYER`].
    code: u8,
    lv: *mut (),
    /// The slot's suffix word (`suffix.rs`).
    ksuf: u64,
}

impl Entry {
    const EMPTY: Entry = Entry {
        ikey: 0,
        code: 0,
        lv: core::ptr::null_mut(),
        ksuf: 0,
    };

    /// The suffix of an entry with a suffix code.
    ///
    /// # Safety
    ///
    /// The entry must come from a validated snapshot taken under the
    /// guard that is still pinned.
    unsafe fn suffix(&self) -> &[u8] {
        // SAFETY: a validated pair, per the caller's contract.
        unsafe { suffix::bytes(self.code, &self.ksuf) }
    }

    /// Reads `n[slot]` into an entry; `None` while the slot is
    /// mid-conversion. The caller validates the snapshot it goes into.
    fn read<V: ?Sized>(n: &BorderNode<V>, slot: usize) -> Option<Entry> {
        let ikey = n.keyslice[slot].load(Ordering::Acquire);
        let (code, ex) = n.extract_lv(slot);
        let lv = match ex {
            ExtractedLv::Unstable => return None,
            ExtractedLv::Layer(p) => p.cast::<()>(),
            ExtractedLv::Value(p) => p,
        };
        let ksuf = n.ksuf[slot].load(Ordering::Acquire);
        Some(Entry {
            ikey,
            code,
            lv,
            ksuf,
        })
    }
}

/// Outcome of a (sub-)scan.
enum ScanStatus<V: ?Sized> {
    /// Layer exhausted; continue with the caller's next entry.
    Done,
    /// The callback asked to stop. The full-key resume bound is in
    /// [`ScanScratch::restart`]; the anchor names the border node the
    /// scan stopped in. Propagated out of the layer recursion untouched.
    Stopped(DescentAnchor<V>),
    /// A deleted node/layer was encountered; the full restart key
    /// (enclosing prefix + layer remainder) has been written to
    /// [`ScanScratch::restart`] and the whole scan restarts there.
    Restart,
}

/// The in-layer node walk hit a split or deletion and the caller must
/// re-descend from its bound.
struct Redescend;

/// Reusable scratch state for scans.
///
/// Holds the key-prefix, per-layer bound and restart-key buffers a scan
/// threads through its layer recursion. All buffers retain their
/// capacity across scans, so a warmed-up scratch makes
/// [`Masstree::scan_with`] and [`Masstree::scan_resume_with`]
/// allocation-free in steady state. [`Masstree::scan`] and
/// [`Masstree::scan_resume`] use a thread-local scratch automatically;
/// hold your own only when you want deterministic reuse (benchmarks,
/// allocation tests) or run scans from inside another scan's visitor.
#[derive(Default)]
pub struct ScanScratch {
    /// Key bytes of the enclosing trie layers.
    pub(crate) prefix: Vec<u8>,
    /// Inclusive lower bound for the key *remainder* within the current
    /// layer.
    pub(crate) bound: Vec<u8>,
    /// Full key to restart from after hitting a deleted node/layer, and
    /// the full-key resume bound written when a visitor stops.
    pub(crate) restart: Vec<u8>,
}

impl ScanScratch {
    /// A scratch with empty buffers (they grow on first use and are then
    /// reused).
    pub fn new() -> ScanScratch {
        ScanScratch::default()
    }
}

thread_local! {
    static SCRATCH: RefCell<ScanScratch> = RefCell::new(ScanScratch::new());
}

/// Runs `f` with the thread-local scan scratch. Falls back to a fresh
/// scratch when the thread-local one is busy (a scan started from
/// another scan's visitor) or inaccessible (thread teardown).
fn with_scratch<R>(f: impl FnOnce(&mut ScanScratch) -> R) -> R {
    let mut f = Some(f);
    let attempt = SCRATCH.try_with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => (f.take().expect("closure runs once"))(&mut scratch),
        Err(_) => (f.take().expect("closure runs once"))(&mut ScanScratch::new()),
    });
    match attempt {
        Ok(r) => r,
        Err(_) => (f.take().expect("closure runs once"))(&mut ScanScratch::new()),
    }
}

/// A resumable forward scan position: the full-key bound the scan
/// continues from and (when the scan stopped inside a border node that
/// may still be valid) a [`DescentAnchor`] that lets the next chunk
/// re-enter that node with zero descent. Safe to hold across (and
/// outside) epoch guards, like any anchor.
///
/// This explicit cursor is the only way to resume a scan. Obtain one
/// with [`ScanCursor::forward`] (or re-aim a warm one with
/// [`ScanCursor::reset`]) and feed it to [`Masstree::scan_resume`]
/// repeatedly; `is_done` reports tree exhaustion. The bound buffer is
/// reused across resumes, so a warm cursor allocates nothing.
pub struct ScanCursor<V: ?Sized> {
    anchor: Option<DescentAnchor<V>>,
    bound: Vec<u8>,
    done: bool,
}

impl<V: ?Sized> ScanCursor<V> {
    /// A cursor for an ascending scan starting at `start` (inclusive).
    pub fn forward(start: &[u8]) -> ScanCursor<V> {
        ScanCursor {
            anchor: None,
            bound: start.to_vec(),
            done: false,
        }
    }

    /// Re-aims this cursor at a fresh scan from `start` (dropping the
    /// anchor), reusing the bound buffer's capacity.
    pub fn reset(&mut self, start: &[u8]) {
        self.anchor = None;
        self.bound.clear();
        self.bound.extend_from_slice(start);
        self.done = false;
    }

    /// The full-key bound the next resume continues from (inclusive).
    pub fn bound(&self) -> &[u8] {
        &self.bound
    }

    /// True once the scan has exhausted the tree; further resumes visit
    /// nothing.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// True when the cursor holds a validated-anchor candidate (the
    /// next resume will *attempt* a zero-descent re-entry).
    pub fn has_anchor(&self) -> bool {
        self.anchor.is_some()
    }

    /// Adopts the stop point a scan pass left in the scratch.
    fn adopt_stop(&mut self, scratch: &ScanScratch, anchor: DescentAnchor<V>) {
        self.bound.clear();
        self.bound.extend_from_slice(&scratch.restart);
        self.anchor = Some(anchor);
    }

    /// Marks the tree exhausted.
    fn finish(&mut self) {
        self.done = true;
        self.anchor = None;
    }
}

impl<V: ?Sized> core::fmt::Debug for ScanCursor<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ScanCursor({:?}, anchored: {}, done: {})",
            &self.bound,
            self.anchor.is_some(),
            self.done
        )
    }
}

/// What a [`Masstree::scan_resume`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanResumeOutcome {
    /// Entries visited this pass.
    pub visited: usize,
    /// True when the pass re-entered the tree through the cursor's
    /// validated anchor (zero descent); false when it had no anchor or
    /// the anchor failed validation and a full descent ran instead.
    pub resumed: bool,
}

/// Writes the smallest key strictly greater than every key carrying
/// prefix `p` into `out`; returns `false` (out cleared) when no such
/// key exists (`p` is empty or all `0xff`).
fn increment_prefix(p: &[u8], out: &mut Vec<u8>) -> bool {
    out.clear();
    out.extend_from_slice(p);
    while let Some(last) = out.last_mut() {
        if *last == 0xff {
            out.pop();
        } else {
            *last += 1;
            return true;
        }
    }
    false
}

impl<V: ?Sized + Stored> Masstree<V> {
    /// Visits keys at or after `start` in lexicographic order, calling
    /// `f(key, value)` until it returns `false` or the tree is exhausted.
    /// Returns the number of entries visited.
    ///
    /// The scan is not atomic: entries inserted or removed while it runs
    /// may or may not be observed, but order and uniqueness are
    /// guaranteed, and every entry present for the whole scan is visited.
    ///
    /// The key slice passed to `f` is assembled in a scratch buffer and
    /// is only valid for that call; the value reference lives for the
    /// guard's lifetime. Uses the thread-local [`ScanScratch`]; see
    /// [`Masstree::scan_with`] to manage the scratch explicitly.
    pub fn scan<'g, F>(&self, start: &[u8], guard: &'g Guard, mut f: F) -> usize
    where
        F: FnMut(&[u8], &'g V) -> bool,
    {
        with_scratch(|scratch| self.scan_with(start, scratch, guard, |k, v| f(k, v)))
    }

    /// [`Masstree::scan`] with an explicit [`ScanScratch`]. With a warm
    /// scratch the scan performs no heap allocation.
    pub fn scan_with<'g, F>(
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
        scratch.bound.clear();
        scratch.bound.extend_from_slice(start);
        loop {
            let root = self.load_root();
            scratch.prefix.clear();
            match self.scan_layer(root, scratch, guard, &mut |k, v| {
                count += 1;
                f(k, v)
            }) {
                ScanStatus::Done | ScanStatus::Stopped(_) => return count,
                ScanStatus::Restart => {
                    Stats::bump(&self.stats.op_restarts);
                    core::mem::swap(&mut scratch.bound, &mut scratch.restart);
                }
            }
        }
    }

    /// Runs one pass of a resumable scan: visits entries from the
    /// cursor's bound until `f` returns `false` or the tree is
    /// exhausted, then records the new stop point (bound + anchor) back
    /// into the cursor.
    ///
    /// When the cursor's anchor validates
    /// ([`crate::anchor::DescentAnchor::enter_for_scan`]) the pass
    /// starts at the remembered border node with **zero descent**;
    /// otherwise it descends from the bound like a fresh scan. Either
    /// way the visited sequence is exactly what [`Masstree::scan`] from
    /// the cursor's bound would produce.
    ///
    /// Uses the thread-local [`ScanScratch`]; see
    /// [`Masstree::scan_resume_with`].
    pub fn scan_resume<'g, F>(
        &self,
        cursor: &mut ScanCursor<V>,
        guard: &'g Guard,
        mut f: F,
    ) -> ScanResumeOutcome
    where
        F: FnMut(&[u8], &'g V) -> bool,
    {
        with_scratch(|scratch| self.scan_resume_with(cursor, scratch, guard, |k, v| f(k, v)))
    }

    /// [`Masstree::scan_resume`] with an explicit scratch (warm scratch
    /// + warm cursor ⇒ no heap allocation).
    pub fn scan_resume_with<'g, F>(
        &self,
        cursor: &mut ScanCursor<V>,
        scratch: &mut ScanScratch,
        guard: &'g Guard,
        mut f: F,
    ) -> ScanResumeOutcome
    where
        F: FnMut(&[u8], &'g V) -> bool,
    {
        if cursor.done {
            return ScanResumeOutcome {
                visited: 0,
                resumed: false,
            };
        }
        let mut count = 0usize;
        let mut resumed = false;
        let mut counting = |k: &[u8], v: &'g V| {
            count += 1;
            f(k, v)
        };

        // Fast path: re-enter the tree at the anchored border node.
        if let Some(anchor) = cursor.anchor.take() {
            let off = anchor.offset();
            if off <= cursor.bound.len() && off % SLICE_LEN == 0 {
                if let Some(bn) = anchor.enter_for_scan(guard) {
                    resumed = true;
                    scratch.prefix.clear();
                    scratch.prefix.extend_from_slice(&cursor.bound[..off]);
                    scratch.bound.clear();
                    scratch.bound.extend_from_slice(&cursor.bound[off..]);
                    match self.scan_layer_nodes(bn, scratch, guard, &mut counting) {
                        Ok(ScanStatus::Stopped(anchor)) => {
                            cursor.adopt_stop(scratch, anchor);
                            return ScanResumeOutcome {
                                visited: count,
                                resumed,
                            };
                        }
                        Ok(ScanStatus::Done) => {
                            // The anchored layer is exhausted; continue in
                            // the enclosing layers via a fresh descent
                            // past the layer's whole prefix.
                            if off == 0
                                || !increment_prefix(&cursor.bound[..off], &mut scratch.restart)
                            {
                                cursor.finish();
                                return ScanResumeOutcome {
                                    visited: count,
                                    resumed,
                                };
                            }
                            cursor.bound.clear();
                            cursor.bound.extend_from_slice(&scratch.restart);
                        }
                        Ok(ScanStatus::Restart) => {
                            // Deleted node/layer mid-walk: full restart
                            // from the recorded key.
                            cursor.bound.clear();
                            cursor.bound.extend_from_slice(&scratch.restart);
                        }
                        Err(Redescend) => {
                            // Split or deletion at the current node: fall
                            // back to a descent from the current position
                            // (prefix + advanced bound).
                            scratch.restart.clear();
                            scratch.restart.extend_from_slice(&scratch.prefix);
                            scratch.restart.extend_from_slice(&scratch.bound);
                            cursor.bound.clear();
                            cursor.bound.extend_from_slice(&scratch.restart);
                        }
                    }
                }
            }
        }

        // Full path: descend from the cursor's bound, like `scan_with`,
        // but capturing the stop point.
        loop {
            let root = self.load_root();
            scratch.prefix.clear();
            scratch.bound.clear();
            scratch.bound.extend_from_slice(&cursor.bound);
            match self.scan_layer(root, scratch, guard, &mut counting) {
                ScanStatus::Done => {
                    cursor.finish();
                    break;
                }
                ScanStatus::Stopped(anchor) => {
                    cursor.adopt_stop(scratch, anchor);
                    break;
                }
                ScanStatus::Restart => {
                    Stats::bump(&self.stats.op_restarts);
                    cursor.bound.clear();
                    cursor.bound.extend_from_slice(&scratch.restart);
                }
            }
        }
        ScanResumeOutcome {
            visited: count,
            resumed,
        }
    }

    /// Collects up to `limit` `(key, value)` pairs at or after `start`
    /// (the paper's `getrange(k, n)`).
    pub fn get_range<'g>(
        &self,
        start: &[u8],
        limit: usize,
        guard: &'g Guard,
    ) -> Vec<(Vec<u8>, &'g V)> {
        let mut out = Vec::with_capacity(limit.min(1024));
        if limit == 0 {
            return out;
        }
        self.scan(start, guard, |k, v| {
            out.push((k.to_vec(), v));
            out.len() < limit
        });
        out
    }

    /// Total number of keys (O(n); scans the whole tree).
    pub fn count_keys(&self, guard: &Guard) -> usize {
        self.scan(b"", guard, |_, _| true)
    }

    /// Scans one trie layer rooted at `root`. `scratch.prefix` holds the
    /// key bytes of enclosing layers; `scratch.bound` is the inclusive
    /// lower bound for the key *remainder* within this layer. Restores
    /// `prefix` before returning; `bound` is consumed (the caller
    /// rewrites it from its own resume point).
    fn scan_layer<'g>(
        &self,
        root: NodePtr<V>,
        scratch: &mut ScanScratch,
        guard: &'g Guard,
        f: &mut dyn FnMut(&[u8], &'g V) -> bool,
    ) -> ScanStatus<V> {
        'redescend: loop {
            let bikey = slice_at(&scratch.bound, 0);
            let mut root = root;
            let (n, _v) = match self.find_border(&mut root, bikey, guard) {
                Ok(x) => x,
                Err(Restart) => {
                    scratch.restart.clear();
                    scratch.restart.extend_from_slice(&scratch.prefix);
                    scratch.restart.extend_from_slice(&scratch.bound);
                    return ScanStatus::Restart;
                }
            };
            match self.scan_layer_nodes(n, scratch, guard, f) {
                Ok(status) => return status,
                Err(Redescend) => continue 'redescend,
            }
        }
    }

    /// The in-layer node walk of [`Masstree::scan_layer`], starting at
    /// border node `n` (reached by a descent **or** through a validated
    /// scan anchor): snapshot each node, emit entries past the bound,
    /// follow the leaf list right. `Err(Redescend)` reports a split or
    /// deletion the caller must re-descend (or fall back) from.
    fn scan_layer_nodes<'g>(
        &self,
        mut n: &'g BorderNode<V>,
        scratch: &mut ScanScratch,
        guard: &'g Guard,
        f: &mut dyn FnMut(&[u8], &'g V) -> bool,
    ) -> Result<ScanStatus<V>, Redescend> {
        let mut entries = [Entry::EMPTY; WIDTH];
        loop {
            let (filled, next, v) = match Self::snapshot_border(n, &mut entries) {
                Ok(x) => x,
                Err(()) => return Err(Redescend),
            };
            for e in &entries[..filled] {
                // Inclusive lower-bound filter against the remainder.
                let bikey = slice_at(&scratch.bound, 0);
                let brank = if scratch.bound.len() > SLICE_LEN {
                    KEYLEN_SUFFIX
                } else {
                    scratch.bound.len() as u8
                };
                if e.ikey < bikey {
                    continue;
                }
                let erank = crate::key::keylen_rank(e.code);
                if e.ikey == bikey && erank < brank {
                    continue;
                }
                let in_rank9_boundary =
                    e.ikey == bikey && erank == KEYLEN_SUFFIX && brank == KEYLEN_SUFFIX;
                let slice_bytes = e.ikey.to_be_bytes();
                match e.code {
                    KEYLEN_LAYER => {
                        // Sub-layer bound: the remainder past this
                        // slice, or everything from the start.
                        if in_rank9_boundary {
                            scratch.bound.drain(..SLICE_LEN);
                        } else {
                            scratch.bound.clear();
                        }
                        scratch.prefix.extend_from_slice(&slice_bytes);
                        // Per-layer stage mark for sampled traces: the
                        // scan's first recursion into a deeper trie
                        // layer (mirrors `KeyCursor::advance` on the
                        // point-op paths).
                        mtobs::span::mark(mtobs::Stage::DescentDeep);
                        let st = self.scan_layer(NodePtr::from_raw(e.lv.cast()), scratch, guard, f);
                        let plen = scratch.prefix.len() - SLICE_LEN;
                        scratch.prefix.truncate(plen);
                        match st {
                            ScanStatus::Done => {}
                            other => return Ok(other),
                        }
                        // Resume strictly after the whole sub-layer. A
                        // layer under the maximum slice is the last
                        // possible entry of the whole layer.
                        match e.ikey.checked_add(1) {
                            Some(nk) => {
                                scratch.bound.clear();
                                scratch.bound.extend_from_slice(&nk.to_be_bytes());
                            }
                            None => return Ok(ScanStatus::Done),
                        }
                    }
                    KEYLEN_SUFFIX.. => {
                        // SAFETY: captured in a validated snapshot;
                        // epoch keeps a block live for the guard.
                        let sb = unsafe { e.suffix() };
                        if in_rank9_boundary && sb < &scratch.bound[SLICE_LEN..] {
                            continue;
                        }
                        let plen = scratch.prefix.len();
                        scratch.prefix.extend_from_slice(&slice_bytes);
                        scratch.prefix.extend_from_slice(sb);
                        // SAFETY: validated value pointer, epoch-live.
                        let keep = f(&scratch.prefix, unsafe { V::deref(e.lv) });
                        scratch.prefix.truncate(plen);
                        // Advance the bound past the emitted key *before*
                        // honoring a stop, so the stop point is always
                        // "strictly after the last emitted entry".
                        scratch.bound.clear();
                        scratch.bound.extend_from_slice(&slice_bytes);
                        scratch.bound.extend_from_slice(sb);
                        scratch.bound.push(0);
                        if !keep {
                            return Ok(Self::stopped_at(n, v, scratch));
                        }
                    }
                    len => {
                        let len = len as usize;
                        let plen = scratch.prefix.len();
                        scratch.prefix.extend_from_slice(&slice_bytes[..len]);
                        // SAFETY: validated value pointer, epoch-live.
                        let keep = f(&scratch.prefix, unsafe { V::deref(e.lv) });
                        scratch.prefix.truncate(plen);
                        scratch.bound.clear();
                        scratch.bound.extend_from_slice(&slice_bytes[..len]);
                        scratch.bound.push(0);
                        if !keep {
                            return Ok(Self::stopped_at(n, v, scratch));
                        }
                    }
                }
            }
            if next.is_null() {
                return Ok(ScanStatus::Done);
            }
            // SAFETY: leaf-list pointers stay live under the epoch.
            n = unsafe { &*next };
        }
    }

    /// Records a scan's stop point: the full-key resume bound in
    /// `scratch.restart` and a validated anchor for the node the scan
    /// stopped in.
    fn stopped_at(n: &BorderNode<V>, v: Version, scratch: &mut ScanScratch) -> ScanStatus<V> {
        scratch.restart.clear();
        scratch.restart.extend_from_slice(&scratch.prefix);
        scratch.restart.extend_from_slice(&scratch.bound);
        ScanStatus::Stopped(DescentAnchor::capture(n, v, scratch.prefix.len()))
    }

    /// Captures a consistent snapshot of a border node's live entries
    /// (into the caller's fixed buffer, permutation order), its `next`
    /// pointer and the version that validated the snapshot. Local
    /// inserts retry in place; splits and deletions return `Err` so the
    /// caller re-descends from its bound.
    #[allow(clippy::type_complexity)]
    fn snapshot_border(
        n: &BorderNode<V>,
        entries: &mut [Entry; WIDTH],
    ) -> Result<(usize, *mut BorderNode<V>, Version), ()> {
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
            let next = n.next.load(Ordering::Acquire);
            let v2 = n.version().load(Ordering::Acquire);
            if !unstable && !v.has_changed(v2) {
                return Ok((filled, next, v));
            }
            if v.has_split(n.version().stable()) {
                return Err(());
            }
            core::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_buffers_retain_capacity_across_scans() {
        let tree: Masstree<u64> = Masstree::new();
        let g = crate::pin();
        for i in 0..200u64 {
            tree.put(
                format!("some/long/shared/prefix/key{i:04}").as_bytes(),
                i,
                &g,
            );
        }
        let mut scratch = ScanScratch::new();
        // Warm-up pass: buffers grow to their steady-state capacity.
        assert_eq!(tree.scan_with(b"", &mut scratch, &g, |_, _| true), 200);
        assert_eq!(
            tree.scan_with(b"some/long", &mut scratch, &g, |_, _| true),
            200
        );
        let cap_prefix = scratch.prefix.capacity();
        let cap_bound = scratch.bound.capacity();
        assert!(cap_prefix > 0 && cap_bound > 0, "warmed up");
        // Steady state: identical scans reuse the warm buffers as-is.
        assert_eq!(tree.scan_with(b"", &mut scratch, &g, |_, _| true), 200);
        assert_eq!(
            tree.scan_with(b"some/long", &mut scratch, &g, |_, _| true),
            200
        );
        assert_eq!(scratch.prefix.capacity(), cap_prefix);
        assert_eq!(scratch.bound.capacity(), cap_bound);
    }

    #[test]
    fn reentrant_scan_from_visitor_works() {
        let tree: Masstree<u64> = Masstree::new();
        let g = crate::pin();
        for i in 0..50u64 {
            tree.put(format!("k{i:03}").as_bytes(), i, &g);
        }
        // A scan whose visitor runs another scan must not corrupt the
        // outer scan's thread-local scratch.
        let mut inner_total = 0usize;
        let outer = tree.scan(b"", &g, |_, _| {
            inner_total += tree.scan(b"k04", &g, |_, _| true);
            true
        });
        assert_eq!(outer, 50);
        assert_eq!(inner_total, 50 * 10, "each inner scan sees k040..k049");
    }

    #[test]
    fn increment_prefix_carries_and_exhausts() {
        let mut out = Vec::new();
        assert!(increment_prefix(b"abc", &mut out));
        assert_eq!(out, b"abd");
        assert!(increment_prefix(b"ab\xff", &mut out));
        assert_eq!(out, b"ac");
        assert!(!increment_prefix(b"\xff\xff", &mut out));
        assert!(!increment_prefix(b"", &mut out));
    }

    #[test]
    fn chunked_resume_equals_full_scan() {
        let tree: Masstree<u64> = Masstree::new();
        let g = crate::pin();
        // Mixed shapes: inline keys, suffixed keys, deep layers.
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for i in 0..300u64 {
            keys.push(format!("k{i:04}").into_bytes());
            keys.push(format!("deep/shared/prefix/{i:04}").into_bytes());
        }
        for (i, k) in keys.iter().enumerate() {
            tree.put(k, i as u64, &g);
        }
        let mut full = Vec::new();
        tree.scan(b"", &g, |k, v| {
            full.push((k.to_vec(), *v));
            true
        });
        for chunk in [1usize, 3, 7, 64] {
            let mut cur: ScanCursor<u64> = ScanCursor::forward(b"");
            let mut got = Vec::new();
            let mut resumes = 0;
            while !cur.is_done() {
                let mut left = chunk;
                let out = tree.scan_resume(&mut cur, &g, |k, v| {
                    got.push((k.to_vec(), *v));
                    left -= 1;
                    left > 0
                });
                resumes += out.resumed as usize;
            }
            assert_eq!(got, full, "chunk {chunk}");
            assert!(
                resumes > 0 || chunk >= full.len(),
                "anchored resumes never validated at chunk {chunk}"
            );
        }
    }

    #[test]
    fn resume_observes_intervening_writes_without_reordering() {
        let tree: Masstree<u64> = Masstree::new();
        let g = crate::pin();
        for i in (0..400u64).step_by(2) {
            tree.put(format!("w{i:04}").as_bytes(), i, &g);
        }
        let mut cur: ScanCursor<u64> = ScanCursor::forward(b"");
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut round = 1u64;
        while !cur.is_done() {
            let mut left = 10usize;
            tree.scan_resume(&mut cur, &g, |k, _| {
                got.push(k.to_vec());
                left -= 1;
                left > 0
            });
            // Churn between chunks: insert odd keys ahead and behind,
            // remove some already-visited keys (forcing splits, freed
            // slots and anchor invalidations).
            let b = round * 20 % 400;
            tree.put(format!("w{:04}", b + 1).as_bytes(), b, &g);
            tree.remove(format!("w{:04}", round * 4 % 200).as_bytes(), &g);
            round += 1;
        }
        // Uniqueness + strict order despite churn.
        for w in got.windows(2) {
            assert!(w[0] < w[1], "resumed scan reordered: {:?} {:?}", w[0], w[1]);
        }
    }
}
