//! Integration tests for the hinted-entry API (`hint.rs`): equivalence
//! with plain lookups, hinted batch lookups, and hint validation across
//! node deletion and slab reuse.

use masstree::hint::{HintResult, HintedGet};
use masstree::{LeafHint, Masstree};

#[test]
fn hinted_gets_match_plain_gets_across_workload() {
    let tree: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    for i in 0..5_000u64 {
        tree.put(format!("key{i:06}").as_bytes(), i, &g);
    }
    // Capture hints for a mix of present and absent keys, then mutate
    // the tree heavily and re-check every hinted answer against get.
    let probes: Vec<Vec<u8>> = (0..2_000u64)
        .map(|i| format!("key{:06}", i * 7 % 6_000).into_bytes())
        .collect();
    let mut hints: Vec<LeafHint<u64>> = probes
        .iter()
        .map(|k| tree.get_capturing_hint(k, &g).1)
        .collect();
    for round in 0..4u64 {
        // Mutations: updates, inserts (splits), removes.
        for i in 0..3_000u64 {
            let j = (i * 13 + round * 97) % 7_000;
            if j % 5 == 0 {
                tree.remove(format!("key{j:06}").as_bytes(), &g);
            } else {
                tree.put(format!("key{j:06}").as_bytes(), j + round * 1_000_000, &g);
            }
        }
        let mut hits = 0usize;
        let mut stale = 0usize;
        for (k, h) in probes.iter().zip(hints.iter_mut()) {
            let expect = tree.get(k, &g).copied();
            match tree.get_at_hint(k, h, &g) {
                HintedGet::Hit(v) => {
                    hits += 1;
                    assert_eq!(v.copied(), expect, "hinted read diverged for {k:?}");
                }
                HintedGet::Stale => {
                    stale += 1;
                    let (v, fresh) = tree.get_capturing_hint(k, &g);
                    assert_eq!(v.copied(), expect);
                    *h = fresh;
                }
            }
        }
        assert!(hits + stale == probes.len());
    }
}

#[test]
fn multi_get_hinted_matches_multi_get() {
    let tree: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    for i in 0..3_000u64 {
        tree.put(format!("mk{i:05}").as_bytes(), i, &g);
    }
    let keys: Vec<Vec<u8>> = (0..600u64)
        .map(|i| format!("mk{:05}", i * 11 % 3_500).into_bytes())
        .collect();
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();

    // First pass: no hints; everything refreshes.
    let empty: Vec<Option<LeafHint<u64>>> = vec![None; refs.len()];
    let mut hints: Vec<Option<LeafHint<u64>>> = vec![None; refs.len()];
    let mut seen = Vec::new();
    tree.multi_get_hinted(&refs, &empty, &g, |i, v, fate| {
        seen.push((i, v.copied()));
        if let HintResult::Refreshed(h) = fate {
            hints[i] = Some(h);
        }
    });
    assert_eq!(seen.len(), refs.len());
    for (pos, (i, v)) in seen.iter().enumerate() {
        assert_eq!(pos, *i, "visited in input order");
        assert_eq!(*v, tree.get(&keys[pos], &g).copied());
    }
    assert!(hints.iter().all(|h| h.is_some()), "every miss refreshed");

    // Second pass: all hinted; on an unchanged tree every key hits.
    let mut hits = 0usize;
    let snapshot = hints.clone();
    tree.multi_get_hinted(&refs, &snapshot, &g, |i, v, fate| {
        assert_eq!(v.copied(), tree.get(&keys[i], &g).copied());
        if matches!(fate, HintResult::Hit) {
            hits += 1;
        }
    });
    assert_eq!(hits, refs.len(), "unchanged tree: all hints validate");

    // Third pass after heavy mutation: still equivalent, mixed fates.
    for i in 0..4_000u64 {
        tree.put(format!("mk{i:05}").as_bytes(), i + 50_000, &g);
    }
    tree.multi_get_hinted(&refs, &snapshot, &g, |i, v, _| {
        assert_eq!(v.copied(), tree.get(&keys[i], &g).copied());
    });
}

#[test]
fn hints_survive_node_deletion_and_slab_reuse() {
    // Delete enough nodes that their slab memory is recycled into new
    // nodes, then replay old hints: every answer must be Stale or the
    // (correct) live value — never garbage and never a stale value.
    let tree: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    let key = |i: u64| format!("reuse{i:06}").into_bytes();
    for i in 0..4_000u64 {
        tree.put(&key(i), i, &g);
    }
    let probes: Vec<u64> = (0..4_000).step_by(17).collect();
    let hints: Vec<LeafHint<u64>> = probes
        .iter()
        .map(|&i| tree.get_capturing_hint(&key(i), &g).1)
        .collect();
    // Empty out most of the tree (forcing border-node deletions), drain
    // the epoch, then grow a different key population so freed nodes are
    // recycled.
    for i in 0..4_000u64 {
        tree.remove(&key(i), &g);
    }
    drop(g);
    for _ in 0..64 {
        // Fresh pins advance the epoch so deferred frees run.
        let g = masstree::pin();
        g.flush();
    }
    let g = masstree::pin();
    for i in 0..4_000u64 {
        tree.put(format!("fresh{i:06}").as_bytes(), i, &g);
    }
    let mut stale = 0usize;
    for (&i, h) in probes.iter().zip(&hints) {
        match tree.get_at_hint(&key(i), h, &g) {
            HintedGet::Stale => stale += 1,
            HintedGet::Hit(v) => {
                // Only acceptable if it proves the live (absent) state.
                assert_eq!(v.copied(), tree.get(&key(i), &g).copied());
            }
        }
    }
    assert!(stale > 0, "deleted/recycled nodes must invalidate hints");
}
