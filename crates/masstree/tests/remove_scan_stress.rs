//! Concurrent `remove_with` vs. one-shot and resumed scan stress
//! (§4.6.5).
//!
//! Removals during scans had no dedicated test: removals only rewrite
//! the permutation (readers keep seeing consistent old state), empty
//! border nodes are unlinked from the leaf list scans walk, and layers
//! are deleted by the maintenance pass — every one of those transitions
//! races a scan's cursor here. Writers continuously remove and re-insert
//! keys (forcing node deletions and leaf-list splices) while scanners
//! assert the §4 invariants: strict key ordering, no duplicates, values
//! always consistent with their keys, and keys outside the churn window
//! never missing. Half the scanners run one `scan` per window; the other
//! half stream theirs through a `ScanCursor` in small chunks, each chunk
//! under its own guard, so anchors go stale across node deletions, slab
//! reuse and layer GC between chunks.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use masstree::{Masstree, ScanCursor};

const STABLE_KEYS: usize = 2_000;
const CHURN_KEYS: usize = 2_000;
const WRITERS: usize = 2;
const SCAN_ROUNDS: usize = 400;
/// Rows each scanner reads per round.
const WINDOW: usize = 300;
/// Rows per `scan_resume` chunk in the resumed scanners.
const CHUNK: usize = 16;

fn stable_key(i: usize) -> Vec<u8> {
    format!("stable{i:06}").into_bytes()
}

fn churn_key(i: usize) -> Vec<u8> {
    // Interleaved with the stable keys (shared prefix) so removals
    // delete nodes *inside* the range scans traverse, and long suffixes
    // force multi-layer trees whose layer GC also races the scans.
    format!("stable{i:06}churn-with-a-long-suffix-to-force-deeper-layers").into_bytes()
}

/// Value = hash of the key bytes, so a scanner can validate any (k, v)
/// pair without knowing the write schedule.
fn expected_value(key: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in key {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// One scanner round's view of the rows it visited, checked row by row
/// whether they arrive from one scan or from several resumed chunks.
struct Window {
    kind: &'static str,
    round: usize,
    prev: Option<Vec<u8>>,
    stable_seen: usize,
    visited: usize,
}

impl Window {
    fn new(kind: &'static str, round: usize) -> Window {
        Window {
            kind,
            round,
            prev: None,
            stable_seen: 0,
            visited: 0,
        }
    }

    /// Checks one row; returns whether the window wants more.
    fn visit(&mut self, k: &[u8], v: u64) -> bool {
        let (kind, round) = (self.kind, self.round);
        if let Some(p) = &self.prev {
            assert!(
                k > p.as_slice(),
                "round {round}: {kind} scan went backwards or repeated: {:?} after {:?}",
                String::from_utf8_lossy(k),
                String::from_utf8_lossy(p)
            );
        }
        assert_eq!(
            v,
            expected_value(k),
            "round {round}: {kind} scan: value inconsistent with key {:?}",
            String::from_utf8_lossy(k)
        );
        if !k.ends_with(b"layers") {
            self.stable_seen += 1;
        }
        self.prev = Some(k.to_vec());
        self.visited += 1;
        self.visited < WINDOW
    }

    /// Stable keys are never removed and interleave 1:1 with the churn
    /// keys, so any visited window must be at least half stable — a
    /// lower count means a scan lost keys.
    fn check_stable(&self) {
        assert!(
            self.stable_seen * 2 + 2 >= self.visited,
            "round {}: stable keys went missing from a {} scan ({} of {})",
            self.round,
            self.kind,
            self.stable_seen,
            self.visited
        );
    }
}

#[test]
fn concurrent_remove_with_vs_one_shot_and_resumed_scans() {
    let mut tree = Arc::new(Masstree::<u64>::new());
    {
        let g = masstree::pin();
        for i in 0..STABLE_KEYS {
            let k = stable_key(i);
            let v = expected_value(&k);
            tree.put(&k, v, &g);
        }
        for i in 0..CHURN_KEYS {
            let k = churn_key(i);
            let v = expected_value(&k);
            tree.put(&k, v, &g);
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let removals = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(WRITERS + 4));

    let mut handles = Vec::new();

    // Writers: remove_with + re-insert over the churn keys, drawing a
    // "version" inside the removal's critical section exactly the way
    // the storage layer does (§5) — the callback must run under the
    // border-node lock without upsetting concurrent scans.
    for w in 0..WRITERS {
        let tree = Arc::clone(&tree);
        let stop = Arc::clone(&stop);
        let removals = Arc::clone(&removals);
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            barrier.wait();
            let mut rng = 0x9e3779b97f4a7c15u64 ^ (w as u64);
            let mut local = 0usize;
            while !stop.load(Ordering::Relaxed) {
                rng = mix64(rng);
                let i = (rng as usize) % CHURN_KEYS;
                let k = churn_key(i);
                let g = masstree::pin();
                if let Some((val, drawn)) = tree.remove_with(&k, |v| *v, &g) {
                    assert_eq!(*val, expected_value(&k), "remove saw a foreign value");
                    assert_eq!(drawn, expected_value(&k), "callback ran on the value");
                    local += 1;
                    // Re-insert so scanners keep having work near this key.
                    tree.put(&k, expected_value(&k), &g);
                }
                drop(g);
                if local.is_multiple_of(64) {
                    let g = masstree::pin();
                    tree.maintain(&g); // empty-layer GC races the scans too
                }
            }
            removals.fetch_add(local, Ordering::Relaxed);
        }));
    }

    // One-shot scanners: one `scan` per window.
    for s in 0..2 {
        let tree = Arc::clone(&tree);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            barrier.wait();
            let mut rng = 0xfeedface ^ (s as u64);
            for round in 0..SCAN_ROUNDS {
                rng = mix64(rng);
                let start = stable_key((rng as usize) % STABLE_KEYS);
                let mut w = Window::new("one-shot", round);
                let g = masstree::pin();
                tree.scan(&start, &g, |k, v| w.visit(k, *v));
                drop(g);
                w.check_stable();
            }
            stop.store(true, Ordering::Relaxed);
        }));
    }

    // Resumed scanners: one cursor each, re-aimed every round and
    // streamed in `CHUNK`-row `scan_resume` passes, one guard per chunk.
    for s in 0..2 {
        let tree = Arc::clone(&tree);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            barrier.wait();
            let mut rng = 0xdecafbad ^ (s as u64);
            let mut cursor: ScanCursor<u64> = ScanCursor::forward(b"");
            let mut resumed = 0usize;
            for round in 0..SCAN_ROUNDS {
                rng = mix64(rng);
                cursor.reset(&stable_key((rng as usize) % STABLE_KEYS));
                let mut w = Window::new("resumed", round);
                let mut more = true;
                while more && !cursor.is_done() {
                    let g = masstree::pin();
                    let mut left = CHUNK;
                    let out = tree.scan_resume(&mut cursor, &g, |k, v| {
                        more = w.visit(k, *v);
                        left -= 1;
                        more && left > 0
                    });
                    resumed += out.resumed as usize;
                }
                w.check_stable();
            }
            assert!(resumed > 0, "no chunk ever re-entered at its anchor");
            stop.store(true, Ordering::Relaxed);
        }));
    }

    for h in handles {
        h.join().unwrap();
    }
    assert!(
        removals.load(Ordering::Relaxed) > 1_000,
        "writers must actually have churned ({} removals)",
        removals.load(Ordering::Relaxed)
    );

    // Quiescent check: every key present with its expected value, a
    // full scan equals the same range streamed in 7-row chunks, and
    // every structural invariant holds — `validate` checks each border
    // node's `prev` link against tree order, which `remove`'s unlink
    // maintains.
    let g = masstree::pin();
    let mut full = Vec::new();
    tree.scan(b"", &g, |k, v| {
        assert_eq!(*v, expected_value(k));
        full.push(k.to_vec());
        true
    });
    assert_eq!(full.len(), STABLE_KEYS + CHURN_KEYS);
    let mut chunked = Vec::new();
    let mut cursor: ScanCursor<u64> = ScanCursor::forward(b"");
    while !cursor.is_done() {
        let mut left = 7;
        tree.scan_resume(&mut cursor, &g, |k, _| {
            chunked.push(k.to_vec());
            left -= 1;
            left > 0
        });
    }
    assert_eq!(full, chunked, "full and chunked scans disagree at rest");
    drop(g);
    Arc::get_mut(&mut tree)
        .expect("every scanner and writer joined")
        .validate()
        .expect("valid tree at rest");
}
