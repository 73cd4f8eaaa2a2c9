//! Bump-arena allocation standing in for the paper's Streamflow-derived
//! "Flow" allocator and its superpage mode (§6.2, Figure 8's "+Flow" and
//! "+Superpage" bars).
//!
//! We cannot port Streamflow or force 2 MB x86 superpages from a
//! container, so the two allocator bars are approximated by what made
//! them fast: per-thread bump allocation from large
//! chunks (no per-object free, no cross-thread synchronization on the
//! allocation path) and, for the superpage variant, 2 MB-aligned chunks —
//! which Linux's transparent huge pages will typically back with 2 MB
//! mappings, reducing TLB misses just as the paper's superpages did.
//!
//! Arena memory is freed only when the arena drops; tree nodes allocated
//! from an arena are never individually freed (the factor-analysis
//! benchmarks only insert).

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Chunk size for the plain arena ("+Flow").
pub const SMALL_CHUNK: usize = 64 * 1024;
/// Chunk size and alignment for the superpage arena ("+Superpage").
pub const HUGE_CHUNK: usize = 2 * 1024 * 1024;

static NEXT_ARENA_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread bump state, keyed by arena id (an arena is shared by
    /// many threads; each thread bumps its own chunk).
    static TLS_CHUNKS: RefCell<HashMap<u64, (usize, usize)>> = RefCell::new(HashMap::new());
}

/// A multi-thread bump arena. Allocation is lock-free per thread except
/// when a new chunk must be carved (amortized over `chunk_size`).
pub struct Arena {
    id: u64,
    chunk_size: usize,
    chunk_align: usize,
    /// All chunks ever handed out, freed on drop.
    chunks: Mutex<Vec<(usize, Layout)>>,
}

impl Arena {
    /// Arena with small chunks (the "+Flow" configuration).
    pub fn new_flow() -> Self {
        Self::with_chunks(SMALL_CHUNK, 4096)
    }

    /// Arena with 2 MB-aligned chunks (the "+Superpage" configuration).
    pub fn new_superpage() -> Self {
        Self::with_chunks(HUGE_CHUNK, HUGE_CHUNK)
    }

    fn with_chunks(chunk_size: usize, chunk_align: usize) -> Self {
        Arena {
            id: NEXT_ARENA_ID.fetch_add(1, Ordering::Relaxed),
            chunk_size,
            chunk_align,
            chunks: Mutex::new(Vec::new()),
        }
    }

    /// Allocates `layout` from the calling thread's chunk.
    ///
    /// The returned memory lives until the arena is dropped. The caller
    /// must not outlive the arena with the pointer.
    pub fn alloc(&self, layout: Layout) -> *mut u8 {
        assert!(layout.size() <= self.chunk_size);
        TLS_CHUNKS.with(|tls| {
            let mut map = tls.borrow_mut();
            let (cur, remaining) = map.entry(self.id).or_insert((0, 0));
            let align = layout.align().max(8);
            let aligned = (*cur + align - 1) & !(align - 1);
            let pad = aligned - *cur;
            if *remaining < layout.size() + pad {
                let chunk_layout =
                    Layout::from_size_align(self.chunk_size, self.chunk_align).unwrap();
                // SAFETY: non-zero size.
                let p = unsafe { alloc(chunk_layout) };
                if p.is_null() {
                    handle_alloc_error(chunk_layout);
                }
                self.chunks.lock().unwrap().push((p as usize, chunk_layout));
                *cur = p as usize;
                *remaining = self.chunk_size;
                let aligned = (*cur + align - 1) & !(align - 1);
                let pad = aligned - *cur;
                *cur = aligned + layout.size();
                *remaining -= pad + layout.size();
                return aligned as *mut u8;
            }
            *cur = aligned + layout.size();
            *remaining -= pad + layout.size();
            aligned as *mut u8
        })
    }

    /// Copies `bytes` into the arena, returning the stable slice.
    pub fn alloc_bytes(&self, bytes: &[u8]) -> &'static [u8] {
        if bytes.is_empty() {
            return &[];
        }
        let p = self.alloc(Layout::from_size_align(bytes.len(), 1).unwrap());
        // SAFETY: fresh arena memory of sufficient size.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), p, bytes.len());
            std::slice::from_raw_parts(p, bytes.len())
        }
    }

    /// Total bytes reserved.
    pub fn reserved_bytes(&self) -> usize {
        self.chunks.lock().unwrap().len() * self.chunk_size
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        for (p, layout) in self.chunks.lock().unwrap().drain(..) {
            // SAFETY: allocated by `alloc` with exactly this layout; the
            // arena owns its chunks and is being dropped.
            unsafe { dealloc(p as *mut u8, layout) };
        }
    }
}

// SAFETY: the chunk list is mutex-protected; per-thread bump state lives
// in TLS and is never shared.
unsafe impl Send for Arena {}
// SAFETY: as above.
unsafe impl Sync for Arena {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let a = Arena::new_flow();
        let mut ptrs = Vec::new();
        for i in 1..100usize {
            let l = Layout::from_size_align(i * 3 % 200 + 1, 8).unwrap();
            let p = a.alloc(l);
            assert_eq!(p as usize % 8, 0);
            ptrs.push((p as usize, l.size()));
        }
        ptrs.sort();
        for w in ptrs.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "allocations overlap");
        }
    }

    #[test]
    fn alloc_bytes_roundtrip() {
        let a = Arena::new_flow();
        let s = a.alloc_bytes(b"hello arena");
        assert_eq!(s, b"hello arena");
        assert_eq!(a.alloc_bytes(b""), b"");
    }

    #[test]
    fn superpage_chunks_are_2mb_aligned() {
        let a = Arena::new_superpage();
        let p = a.alloc(Layout::from_size_align(64, 8).unwrap());
        assert_eq!(p as usize % HUGE_CHUNK, 0, "first alloc at chunk start");
        assert_eq!(a.reserved_bytes(), HUGE_CHUNK);
    }

    #[test]
    fn threads_get_independent_chunks() {
        let a = std::sync::Arc::new(Arena::new_flow());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let a = std::sync::Arc::clone(&a);
                std::thread::spawn(move || {
                    let mut last = 0usize;
                    for _ in 0..1000 {
                        let p = a.alloc(Layout::from_size_align(40, 8).unwrap()) as usize;
                        assert_ne!(p, last);
                        last = p;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(a.reserved_bytes() >= SMALL_CHUNK);
    }
}
