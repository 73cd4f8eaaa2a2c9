//! Split/remove stress: drive enough structural churn that hint
//! validation fails often, and assert the failure counters are nonzero
//! (the fallback path is actually exercised) while every answer stays
//! correct against single-threaded ground truth.

use masstree::hint::HintedGet;
use masstree::Masstree;
use mtcache::{CacheConfig, HintCache};
use mtworkload::Rng64;

#[test]
fn split_and_remove_churn_forces_validation_failures() {
    let tree: Masstree<u64> = Masstree::new();
    let cfg = CacheConfig {
        capacity: 512,
        admit_threshold: 1,
        counters: 1024,
        age_every: 1 << 20,
        adaptive_bypass: false,
    };
    let mut cache: HintCache<u64> = HintCache::new(&cfg);
    let mut rng = Rng64::new(7);
    let mut model = std::collections::HashMap::<u64, u64>::new();
    let key = |k: u64| format!("churn{k:06}").into_bytes();

    let mut seq = 1u64;
    for round in 0..40u64 {
        let g = masstree::pin();
        // Grow a dense range (splits), then carve most of it back out
        // (freed slots, border-node deletions).
        let base = round * 400;
        for k in base..base + 400 {
            tree.put(&key(k), seq, &g);
            model.insert(k, seq);
            seq += 1;
        }
        for k in (base..base + 400).step_by(2) {
            tree.remove(&key(k), &g);
            model.remove(&k);
        }
        // Hinted probes across everything seen so far.
        for _ in 0..800 {
            let k = rng.below(base + 400);
            let kb = key(k);
            let expect = model.get(&k).copied();
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
            assert_eq!(got, expect, "hinted read diverged on key {k}");
        }
    }

    let s = cache.stats();
    assert!(s.lookups > 0 && s.hits > 0, "{s:?}");
    assert!(
        s.stale > 0,
        "structural churn must produce hint-validation failures: {s:?}"
    );
    // The split/remove churn also recycles nodes; stale counts prove the
    // generation/version protocol detected it rather than serving from
    // dead nodes (any wrong answer would have tripped the model check).
}
