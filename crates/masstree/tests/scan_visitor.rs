//! Equivalence properties for the zero-copy read path: the scratch-based
//! visitor scans and the batched borrowed lookups must observe exactly
//! what the owning/collected APIs observe, over adversarial key shapes
//! (binary keys, slice collisions, deep trie layers) and arbitrary scan
//! bounds — including scratch reuse across many scans.
//!
//! Deterministic seeded PRNG, same rationale as `properties.rs`.

use std::collections::BTreeMap;

use masstree::{Masstree, ScanScratch};
use mtworkload::Rng64 as Rng;

const CASES: u64 = 32;

/// Key generator biased toward collisions (mirrors `properties.rs`).
fn gen_key(rng: &mut Rng) -> Vec<u8> {
    match rng.below(3) {
        0 => {
            let len = rng.below(20) as usize;
            (0..len).map(|_| rng.next_u64() as u8).collect()
        }
        1 => {
            let len = rng.below(24) as usize;
            (0..len)
                .map(|_| [b'a', b'b', 0u8][rng.below(3) as usize])
                .collect()
        }
        _ => {
            let mut k = b"sharedprefix0123sharedprefix0123".to_vec();
            let len = rng.below(6) as usize;
            k.extend((0..len).map(|_| rng.next_u64() as u8));
            k
        }
    }
}

fn build_case(seed: u64) -> (Masstree<u64>, BTreeMap<Vec<u8>, u64>, Rng) {
    let mut rng = Rng::new(seed);
    let tree: Masstree<u64> = Masstree::new();
    let mut model = BTreeMap::new();
    let g = masstree::pin();
    for _ in 0..400 {
        let k = gen_key(&mut rng);
        let v = rng.next_u64();
        tree.put(&k, v, &g);
        model.insert(k, v);
    }
    (tree, model, rng)
}

#[test]
fn visitor_scan_with_reused_scratch_matches_collected_scan() {
    for seed in 0..CASES {
        let (tree, model, mut rng) = build_case(1000 + seed);
        let g = masstree::pin();
        // One scratch reused across every bound in the case: stale state
        // from a previous scan must never leak into the next.
        let mut scratch = ScanScratch::new();
        for _ in 0..16 {
            let start = gen_key(&mut rng);
            let limit = 1 + rng.below(30) as usize;
            // Ground truth from the model.
            let expect: Vec<(Vec<u8>, u64)> = model
                .range(start.clone()..)
                .take(limit)
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            // Collected owning API.
            let collected: Vec<(Vec<u8>, u64)> = tree
                .get_range(&start, limit, &g)
                .into_iter()
                .map(|(k, v)| (k, *v))
                .collect();
            // Visitor API with the reused scratch.
            let mut visited: Vec<(Vec<u8>, u64)> = Vec::new();
            tree.scan_with(&start, &mut scratch, &g, |k, v| {
                visited.push((k.to_vec(), *v));
                visited.len() < limit
            });
            assert_eq!(collected, expect, "seed {seed}");
            assert_eq!(visited, expect, "seed {seed}");
        }
    }
}

#[test]
fn borrowed_multi_get_matches_sequential_get() {
    for seed in 0..CASES {
        let (tree, model, mut rng) = build_case(3000 + seed);
        let g = masstree::pin();
        // Mix of present and absent keys, above and below MAX_GROUP.
        for batch_len in [1usize, 2, 7, 32, 33, 70] {
            let keys: Vec<Vec<u8>> = (0..batch_len).map(|_| gen_key(&mut rng)).collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let mut seen = 0usize;
            tree.multi_get_with(&refs, &g, |i, hit| {
                assert_eq!(i, seen, "in input order");
                seen += 1;
                assert_eq!(hit.copied(), model.get(&keys[i]).copied(), "seed {seed}");
                assert_eq!(hit.copied(), tree.get(&keys[i], &g).copied());
            });
            assert_eq!(seen, batch_len);
        }
    }
}
