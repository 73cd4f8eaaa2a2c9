//! Concurrent-writer equivalence: hinted gets are linearizably equal to
//! plain gets while writer threads insert/update/remove (forcing splits
//! and hint invalidations).
//!
//! Deterministic property-style tests (seeded rounds, no external
//! proptest dependency — the container is offline):
//!
//! * **Freshness** — no hinted read ever observes a value older than a
//!   completed `put`: writers publish a per-key floor *after* each put
//!   returns, and every hinted value must be ≥ the floor read *before*
//!   the lookup. This is exactly the acceptance property.
//! * **Reader monotonicity** — values are per-key monotone, so a hinted
//!   read may never go backwards relative to anything this reader saw.
//! * **Quiesced equivalence** — once writers stop, every hinted read
//!   equals a plain `get` exactly.
//! * **Fallback exercise** — validation-failure (stale) counts are
//!   nonzero, proving the splits/removes actually drove the fallback
//!   path (see also `stress.rs`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use masstree::hint::HintedGet;
use masstree::Masstree;
use mtcache::{CacheConfig, HintCache};
use mtworkload::Rng64;

const KEYS: u64 = 512;
/// Values are `seq * KEYS + key`, so they are monotone per key and the
/// key is recoverable for checking.
fn encode(key: u64, seq: u64) -> u64 {
    seq * KEYS + key
}

fn key_bytes(k: u64) -> Vec<u8> {
    // Mixed lengths: some keys get suffixes/layers.
    if k.is_multiple_of(3) {
        format!("equivalence-long-prefix-{k:06}").into_bytes()
    } else {
        format!("eq{k:04}").into_bytes()
    }
}

#[test]
fn hinted_gets_are_linearizable_under_concurrent_writers() {
    for seed in 0..3u64 {
        run_round(seed);
    }
}

fn run_round(seed: u64) {
    let tree: Arc<Masstree<u64>> = Arc::new(Masstree::new());
    // floor[k] = highest seq whose put has COMPLETED (store is after the
    // put returns, so the floor is always a completed-put lower bound).
    // A remove parks the floor at REMOVED; the writer that removes is
    // the only writer of that key (keys are partitioned), so floors are
    // exact per-key timelines.
    let floors: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
    const NONE_YET: u64 = 0;
    let stop = Arc::new(AtomicBool::new(false));

    // Seed half the key space so readers start with hits.
    {
        let g = masstree::pin();
        for k in 0..KEYS / 2 {
            tree.put(&key_bytes(k), encode(k, 1), &g);
            floors[k as usize].store(1, Ordering::Release);
        }
    }

    // 3 writers over disjoint key thirds: insert/update (rising seq) and
    // periodic remove+reinsert (forcing freed slots, node deletions and
    // splits as the population swings).
    let writers: Vec<_> = (0..3u64)
        .map(|w| {
            let tree = Arc::clone(&tree);
            let floors = Arc::clone(&floors);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = Rng64::new(seed * 31 + w);
                let mut seq = 2u64;
                while !stop.load(Ordering::Acquire) {
                    let k = (rng.below(KEYS / 3)) * 3 + w; // disjoint thirds
                    let k = k % KEYS;
                    let g = masstree::pin();
                    if rng.below(8) == 0 {
                        // Floor drops BEFORE the remove applies: an
                        // absent read can then always be justified by a
                        // floor that already dropped (or is about to —
                        // the re-check below synchronizes through the
                        // tree's release/acquire on the permutation).
                        floors[k as usize].store(NONE_YET, Ordering::Release);
                        tree.remove(&key_bytes(k), &g);
                    } else {
                        tree.put(&key_bytes(k), encode(k, seq), &g);
                        floors[k as usize].store(seq, Ordering::Release);
                    }
                    seq += 1;
                }
            })
        })
        .collect();

    // Hinted reader with a real cache (admit on first sight so hints
    // are exercised immediately).
    let cfg = CacheConfig {
        capacity: 1024,
        admit_threshold: 1,
        counters: 2048,
        age_every: 1 << 20,
        adaptive_bypass: false,
    };
    let mut cache: HintCache<u64> = HintCache::new(&cfg);
    let mut rng = Rng64::new(seed ^ 0xdead);
    let mut last_seen: Vec<u64> = vec![0; KEYS as usize];
    for _ in 0..60_000 {
        let k = rng.below(KEYS);
        let kb = key_bytes(k);
        let floor_before = floors[k as usize].load(Ordering::Acquire);
        let g = masstree::pin();
        let got = match cache.lookup(&kb) {
            mtcache::Lookup::Hit(h) => match tree.get_at_hint(&kb, &h, &g) {
                HintedGet::Hit(v) => {
                    cache.note_hit();
                    v.copied()
                }
                HintedGet::Stale => {
                    cache.note_stale();
                    let (v, fresh) = tree.get_capturing_hint(&kb, &g);
                    cache.record(&kb, fresh);
                    v.copied()
                }
            },
            mtcache::Lookup::Miss { .. } => {
                let (v, fresh) = tree.get_capturing_hint(&kb, &g);
                cache.record(&kb, fresh);
                v.copied()
            }
        };
        if let Some(v) = got {
            let (vk, vseq) = (v % KEYS, v / KEYS);
            assert_eq!(vk, k, "hinted read returned another key's value");
            // Freshness: never older than a put completed before the read.
            if floor_before != NONE_YET {
                assert!(
                    vseq >= floor_before,
                    "hinted read observed seq {vseq} older than completed put {floor_before} (key {k})"
                );
            }
            // Monotone per reader.
            assert!(
                vseq >= last_seen[k as usize],
                "hinted reads went backwards on key {k}: {vseq} < {}",
                last_seen[k as usize]
            );
            last_seen[k as usize] = vseq;
        } else {
            // Absent with floor_before = s means put(s) completed before
            // our read, so a remove must have raced in. The remove drops
            // the floor BEFORE touching the tree, and observing its tree
            // effect synchronizes (release/acquire via the permutation)
            // with that store — so re-reading the floor must show the
            // drop (or a later value from the same single writer).
            if floor_before != NONE_YET {
                let floor_now = floors[k as usize].load(Ordering::Acquire);
                assert!(
                    floor_now == NONE_YET || floor_now != floor_before,
                    "hinted read lost key {k} with no concurrent remove (floor {floor_before})"
                );
            }
        }
    }

    stop.store(true, Ordering::Release);
    for w in writers {
        w.join().unwrap();
    }

    // Quiesced equivalence: hinted == plain for the whole key space.
    let g = masstree::pin();
    for k in 0..KEYS {
        let kb = key_bytes(k);
        let plain = tree.get(&kb, &g).copied();
        let hinted = match cache.lookup(&kb) {
            mtcache::Lookup::Hit(h) => match tree.get_at_hint(&kb, &h, &g) {
                HintedGet::Hit(v) => v.copied(),
                HintedGet::Stale => tree.get(&kb, &g).copied(),
            },
            mtcache::Lookup::Miss { .. } => plain,
        };
        assert_eq!(hinted, plain, "post-quiesce divergence on key {k}");
    }

    let s = cache.stats();
    assert!(s.hits > 0, "hints never validated: {s:?}");
    assert!(
        s.stale > 0,
        "validation-failure path never exercised (no splits/removes?): {s:?}"
    );
}
