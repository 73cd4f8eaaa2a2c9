//! # Masstree: cache-crafty multicore key-value storage
//!
//! A Rust implementation of **Masstree** (Mao, Kohler, Morris, "Cache
//! Craftiness for Fast Multicore Key-Value Storage", EuroSys 2012): a
//! shared-memory, concurrent trie of width-15 B+-trees mapping arbitrary
//! binary keys to values.
//!
//! * **Trie of B+-trees** — layer `h` indexes key bytes `[8h, 8h+8)`, so
//!   long shared prefixes cost `O(ℓ + log n)` instead of `O(ℓ · log n)`.
//! * **Optimistic readers** — `get` and `scan` take no locks and never
//!   write shared memory; per-node split/insert version counters plus
//!   hand-over-hand validation detect concurrent structural changes.
//! * **Locally locked writers** — `put` and `remove` lock only the nodes
//!   they touch; border-node *permutations* publish inserts with a single
//!   atomic store.
//! * **Epoch reclamation** — removed values and nodes stay readable until
//!   concurrent readers finish (`crossbeam::epoch`).
//! * **One pointer per value** — a leaf slot holds a thin pointer; how a
//!   value is allocated, borrowed and freed is its [`Stored`] impl (a
//!   `Box` for sized types, one self-describing block for `mtkv`'s
//!   values).
//! * **Cache craftiness** — 8-byte key slices compared as big-endian
//!   integers, wide nodes prefetched whole, hot data packed in few lines.
//!
//! # Examples
//!
//! ```
//! use masstree::Masstree;
//!
//! let tree: Masstree<u64> = Masstree::new();
//! let guard = masstree::pin();
//! tree.put(b"edu.harvard.seas.www/news", 1, &guard);
//! tree.put(b"edu.harvard.seas.www/about", 2, &guard);
//! assert_eq!(tree.get(b"edu.harvard.seas.www/news", &guard), Some(&1));
//!
//! // Range scans over a shared prefix:
//! let hits = tree.get_range(b"edu.harvard", 10, &guard);
//! assert_eq!(hits.len(), 2);
//! assert!(hits[0].0 < hits[1].0, "sorted by key");
//!
//! tree.remove(b"edu.harvard.seas.www/news", &guard);
//! assert!(tree.get(b"edu.harvard.seas.www/news", &guard).is_none());
//! ```

pub mod anchor;
pub mod batch;
pub mod hint;
pub mod key;
pub mod permutation;
pub mod prefetch;
pub mod stats;
pub mod version;

mod gc;
mod maintain;
mod node;
mod put;
mod remove;
mod scan;
mod slab;
mod stored;
mod suffix;
mod tree;

pub use anchor::{DescentAnchor, NodeRef};
pub use batch::HintBatchScratch;
pub use hint::{HintResult, HintedGet, LeafHint};
pub use maintain::TreeReport;
pub use scan::{ScanCursor, ScanResumeOutcome, ScanScratch};
pub use stats::{Stats, StatsSnapshot};
pub use stored::Stored;
pub use tree::Masstree;

pub use crossbeam::epoch::Guard;

/// Pins the current thread's epoch, returning a guard that keeps values
/// and nodes read from the tree alive until dropped.
///
/// Pin once per operation (or batch of operations); long-lived guards
/// delay memory reclamation.
#[inline]
pub fn pin() -> Guard {
    crossbeam::epoch::pin()
}
