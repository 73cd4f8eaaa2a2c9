//! The lock-free concurrent binary search tree from the paper's factor
//! analysis (§6.2): Figure 8's "Binary", "+Flow", "+Superpage" and
//! "+IntCmp" bars.
//!
//! Each ~40-byte node holds the key (prefix inline, remainder out of
//! line), a value pointer and two child pointers. Reads are lock-free and
//! never retry; inserts are lock-free, publishing new leaves with a
//! compare-and-swap on the parent's child pointer; updates swap the value
//! pointer atomically and retire the old value through the epoch.
//!
//! Configuration axes (the factor-analysis ladder):
//! * `IntCmp` — compare the first 8 key bytes as one big-endian integer
//!   before falling back to byte comparison (§4.2's trick).
//! * allocator — global allocator, or a bump [`Arena`].

use std::cmp::Ordering as Ord_;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use crossbeam::epoch::Guard;
use masstree::key::slice_at;

use crate::arena::Arena;

/// Key comparison mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compare {
    /// Plain byte-string comparison (the "Binary" baseline).
    Bytes,
    /// 8-byte integer prefix comparison first ("+IntCmp").
    IntPrefix,
}

/// Node allocation mode.
#[derive(Clone)]
pub enum NodeAlloc {
    /// Global allocator (the "Binary" baseline, jemalloc in the paper).
    Global,
    /// Bump arena ("+Flow" / "+Superpage" depending on the arena).
    Arena(Arc<Arena>),
}

struct Node {
    /// Big-endian integer of key bytes 0..8 (always stored; only *used*
    /// for ordering in `IntPrefix` mode).
    ikey: u64,
    key_ptr: *const u8,
    key_len: u32,
    value: AtomicPtr<u64>,
    left: AtomicPtr<Node>,
    right: AtomicPtr<Node>,
}

/// A concurrent binary search tree mapping byte keys to `u64` values.
pub struct BinaryTree {
    root: AtomicPtr<Node>,
    compare: Compare,
    alloc: NodeAlloc,
}

// SAFETY: all shared mutable state is atomic; node/key memory is either
// leaked into an arena owned by the tree or freed on drop.
unsafe impl Send for BinaryTree {}
// SAFETY: as above.
unsafe impl Sync for BinaryTree {}

impl BinaryTree {
    pub fn new(compare: Compare, alloc: NodeAlloc) -> Self {
        BinaryTree {
            root: AtomicPtr::new(std::ptr::null_mut()),
            compare,
            alloc,
        }
    }

    fn key_of(n: &Node) -> &[u8] {
        // SAFETY: key bytes are immutable and live as long as the node.
        unsafe { std::slice::from_raw_parts(n.key_ptr, n.key_len as usize) }
    }

    #[inline]
    fn cmp(&self, key: &[u8], ikey: u64, node: &Node) -> Ord_ {
        match self.compare {
            Compare::Bytes => key.cmp(Self::key_of(node)),
            Compare::IntPrefix => match ikey.cmp(&node.ikey) {
                Ord_::Equal => {
                    // Prefixes equal: compare the remainders (includes the
                    // length tie-break, exactly like byte comparison).
                    let a = &key[key.len().min(8)..];
                    let nk = Self::key_of(node);
                    let b = &nk[nk.len().min(8)..];
                    match a.cmp(b) {
                        Ord_::Equal => key.len().cmp(&nk.len()),
                        o => o,
                    }
                }
                o => o,
            },
        }
    }

    fn alloc_node(&self, key: &[u8], value: *mut u64) -> *mut Node {
        let (key_ptr, key_len) = match &self.alloc {
            NodeAlloc::Global => {
                let boxed: Box<[u8]> = key.into();
                let len = boxed.len() as u32;
                (Box::into_raw(boxed).cast::<u8>().cast_const(), len)
            }
            NodeAlloc::Arena(a) => {
                let s = a.alloc_bytes(key);
                (s.as_ptr(), s.len() as u32)
            }
        };
        let node = Node {
            ikey: slice_at(key, 0),
            key_ptr,
            key_len,
            value: AtomicPtr::new(value),
            left: AtomicPtr::new(std::ptr::null_mut()),
            right: AtomicPtr::new(std::ptr::null_mut()),
        };
        match &self.alloc {
            NodeAlloc::Global => Box::into_raw(Box::new(node)),
            NodeAlloc::Arena(a) => {
                let p = a.alloc(std::alloc::Layout::new::<Node>()).cast::<Node>();
                // SAFETY: fresh, properly aligned arena memory.
                unsafe { p.write(node) };
                p
            }
        }
    }

    /// Looks up `key`. Lock-free; never retries.
    pub fn get(&self, key: &[u8], _guard: &Guard) -> Option<u64> {
        let ikey = slice_at(key, 0);
        let mut cur = self.root.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: nodes are never freed while the tree lives (no
            // removal; value updates go through the epoch).
            let n = unsafe { &*cur };
            match self.cmp(key, ikey, n) {
                Ord_::Equal => {
                    let v = n.value.load(Ordering::Acquire);
                    // SAFETY: value blocks are epoch-retired on update.
                    return Some(unsafe { *v });
                }
                Ord_::Less => cur = n.left.load(Ordering::Acquire),
                Ord_::Greater => cur = n.right.load(Ordering::Acquire),
            }
        }
        None
    }

    /// Inserts or updates `key → value`. Lock-free (CAS publication).
    pub fn put(&self, key: &[u8], value: u64, guard: &Guard) {
        let ikey = slice_at(key, 0);
        let vptr = Box::into_raw(Box::new(value));
        let mut fresh: *mut Node = std::ptr::null_mut();
        let mut link = &self.root;
        loop {
            let cur = link.load(Ordering::Acquire);
            if cur.is_null() {
                if fresh.is_null() {
                    fresh = self.alloc_node(key, vptr);
                }
                match link.compare_exchange(cur, fresh, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => return,
                    Err(_) => continue, // lost the race; re-read this link
                }
            }
            // SAFETY: as in `get`.
            let n = unsafe { &*cur };
            match self.cmp(key, ikey, n) {
                Ord_::Equal => {
                    let old = n.value.swap(vptr, Ordering::AcqRel);
                    if !fresh.is_null() {
                        // We raced and allocated a node we no longer need;
                        // arena-mode key/node blocks stay in the arena by
                        // design, heap-mode blocks are freed here.
                        if let NodeAlloc::Global = self.alloc {
                            // SAFETY: never published; freeing node + key.
                            unsafe {
                                let n = Box::from_raw(fresh);
                                drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                                    n.key_ptr.cast_mut(),
                                    n.key_len as usize,
                                )));
                            }
                        }
                    }
                    let oldp = old as usize;
                    // SAFETY: the old value is unreachable; readers from
                    // before the swap are protected by their guards.
                    unsafe {
                        guard.defer_unchecked(move || drop(Box::from_raw(oldp as *mut u64)));
                    }
                    return;
                }
                Ord_::Less => link = &n.left,
                Ord_::Greater => link = &n.right,
            }
        }
    }
}

impl Drop for BinaryTree {
    fn drop(&mut self) {
        if let NodeAlloc::Global = self.alloc {
            // Free heap nodes, keys and values iteratively.
            let mut stack = vec![*self.root.get_mut()];
            while let Some(p) = stack.pop() {
                if p.is_null() {
                    continue;
                }
                // SAFETY: exclusive access; each node visited once.
                unsafe {
                    let n = Box::from_raw(p);
                    stack.push(n.left.load(Ordering::Relaxed));
                    stack.push(n.right.load(Ordering::Relaxed));
                    drop(Box::from_raw(n.value.load(Ordering::Relaxed)));
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        n.key_ptr.cast_mut(),
                        n.key_len as usize,
                    )));
                }
            }
        } else {
            // Arena mode: keys/nodes die with the arena; values are heap.
            let mut stack = vec![*self.root.get_mut()];
            while let Some(p) = stack.pop() {
                if p.is_null() {
                    continue;
                }
                // SAFETY: exclusive access; nodes remain in arena memory.
                unsafe {
                    let n = &*p;
                    stack.push(n.left.load(Ordering::Relaxed));
                    stack.push(n.right.load(Ordering::Relaxed));
                    drop(Box::from_raw(n.value.load(Ordering::Relaxed)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<BinaryTree> {
        vec![
            BinaryTree::new(Compare::Bytes, NodeAlloc::Global),
            BinaryTree::new(
                Compare::Bytes,
                NodeAlloc::Arena(Arc::new(Arena::new_flow())),
            ),
            BinaryTree::new(
                Compare::IntPrefix,
                NodeAlloc::Arena(Arc::new(Arena::new_superpage())),
            ),
            BinaryTree::new(Compare::IntPrefix, NodeAlloc::Global),
        ]
    }

    #[test]
    fn put_get_all_variants() {
        for t in all_variants() {
            let g = crossbeam::epoch::pin();
            assert_eq!(t.get(b"a", &g), None);
            t.put(b"a", 1, &g);
            t.put(b"b", 2, &g);
            t.put(b"a", 3, &g);
            assert_eq!(t.get(b"a", &g), Some(3));
            assert_eq!(t.get(b"b", &g), Some(2));
            assert_eq!(t.get(b"c", &g), None);
        }
    }

    #[test]
    fn intcmp_orders_like_bytes() {
        // Keys engineered so prefix-int and byte comparisons must agree.
        let keys: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"aaaaaaaa".to_vec(),
            b"aaaaaaaab".to_vec(),
            b"aaaaaaaac".to_vec(),
            b"aaaaaaab".to_vec(),
            b"\x00\x01".to_vec(),
            b"zzzzzzzzzzzz".to_vec(),
        ];
        for t in all_variants() {
            let g = crossbeam::epoch::pin();
            for (i, k) in keys.iter().enumerate() {
                t.put(k, i as u64, &g);
            }
            for (i, k) in keys.iter().enumerate() {
                assert_eq!(t.get(k, &g), Some(i as u64), "key {k:?}");
            }
        }
    }

    #[test]
    fn concurrent_inserts() {
        use std::sync::Arc as SArc;
        let t = SArc::new(BinaryTree::new(
            Compare::IntPrefix,
            NodeAlloc::Arena(Arc::new(Arena::new_flow())),
        ));
        let handles: Vec<_> = (0..8)
            .map(|tid| {
                let t = SArc::clone(&t);
                std::thread::spawn(move || {
                    let g = crossbeam::epoch::pin();
                    for i in 0..5_000u64 {
                        t.put(format!("t{tid}k{i}").as_bytes(), i, &g);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let g = crossbeam::epoch::pin();
        for tid in 0..8 {
            for i in 0..5_000u64 {
                assert_eq!(t.get(format!("t{tid}k{i}").as_bytes(), &g), Some(i));
            }
        }
    }
}
