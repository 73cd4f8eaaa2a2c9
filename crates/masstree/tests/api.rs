//! Tests for the linearization-hook APIs (`put_with` — declines
//! included — and `remove_with`) and assorted edge cases:
//! read-modify-write atomicity under contention, hook ordering
//! guarantees, and scans across structural churn.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use masstree::Masstree;

#[test]
fn put_with_sees_current_value() {
    let t: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    let old = t.put_with(b"k", |old| Some(old.copied().unwrap_or(0) + 1), &g);
    assert!(old.is_none());
    assert_eq!(t.get(b"k", &g), Some(&1));
    let old = t.put_with(b"k", |old| Some(old.copied().unwrap_or(0) + 1), &g);
    assert_eq!(old, Some(&1));
    assert_eq!(t.get(b"k", &g), Some(&2));
}

#[test]
fn concurrent_put_with_increments_never_lose_updates() {
    // The whole point of running the closure under the node lock: N
    // concurrent read-modify-writes must all take effect.
    const THREADS: usize = 8;
    const PER: u64 = 20_000;
    let t = Arc::new(Masstree::<u64>::new());
    {
        let g = masstree::pin();
        t.put(b"counter", 0, &g);
    }
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let t = Arc::clone(&t);
            s.spawn(move || {
                let g = masstree::pin();
                for _ in 0..PER {
                    t.put_with(b"counter", |old| Some(old.copied().unwrap_or(0) + 1), &g);
                }
            });
        }
    });
    let g = masstree::pin();
    assert_eq!(t.get(b"counter", &g), Some(&(THREADS as u64 * PER)));
}

#[test]
fn put_with_declines_leave_present_and_absent_keys_alone() {
    let t: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    t.put(b"key-a", 1, &g);
    // Accepted: returns the replaced value. Declined: the kept one.
    assert_eq!(
        t.put_with(b"key-a", |old| old.map(|v| v + 10), &g),
        Some(&1)
    );
    assert_eq!(t.put_with(b"key-a", |_| None, &g), Some(&11));
    assert_eq!(t.get(b"key-a", &g), Some(&11));
    // Absent: a closure that only ever rewrites never resurrects, even
    // beside a resident key sharing the absent one's prefix.
    t.put(b"prefix-shared-long-key-one", 5, &g);
    for absent in [&b"key-b"[..], b"prefix-shared-long-key-two"] {
        assert_eq!(t.put_with(absent, |old| old.map(|_| 6), &g), None);
        assert_eq!(t.get(absent, &g), None);
    }
    assert_eq!(t.get(b"prefix-shared-long-key-one", &g), Some(&5));
}

#[test]
fn put_with_declines_across_splits_and_after_remove() {
    // The target sits behind splits and interior nodes: the conditional
    // write locks the same border node a put would.
    let t: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    for i in 0..500u64 {
        t.put(format!("uk{i:04}").as_bytes(), i, &g);
    }
    assert_eq!(
        t.put_with(b"uk0042", |old| old.map(|v| v * 2), &g),
        Some(&42)
    );
    assert_eq!(t.get(b"uk0042", &g), Some(&84));
    t.remove(b"uk0042", &g);
    assert_eq!(t.put_with(b"uk0042", |old| old.map(|_| 1), &g), None);
    assert_eq!(t.get(b"uk0042", &g), None);
}

#[test]
fn put_with_decline_into_a_full_border_node_does_not_split() {
    let mut t: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    for i in 0..15u64 {
        t.put(&[b'a' + i as u8], i, &g); // one full border node
    }
    let before = t.stats().snapshot();
    assert_eq!(t.put_with(b"p", |_| None, &g), None);
    assert_eq!(t.stats().snapshot(), before, "a declined insert split");
    assert_eq!((t.get(b"p", &g), t.count_keys(&g)), (None, 15));
    // The same write accepted is the one that splits.
    t.put_with(b"p", |_| Some(15), &g);
    assert_eq!(t.stats().snapshot().splits, before.splits + 1);
    drop(g);
    assert_eq!(t.validate().expect("valid").keys, 16);
}

#[test]
fn put_with_decline_beside_a_shared_slice_leaves_a_working_layer() {
    // The absent key shares its first 8 bytes with a resident suffix
    // key, which moves one layer down before the closure runs. The
    // decline leaves it alone there — a state every layer creation
    // passes through — and both keys keep working from it.
    let (one, two): (&[u8], &[u8]) = (b"samepfx!-resident", b"samepfx!-declined");
    let t: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    t.put(one, 1, &g);
    let layers = t.stats().snapshot().layers_created;
    assert_eq!(t.put_with(two, |_| None, &g), None);
    assert_eq!(t.stats().snapshot().layers_created, layers + 1);
    let rows = |t: &Masstree<u64>| t.get_range(b"", 10, &g);
    let row = |k: &[u8], v| (k.to_vec(), v);
    assert_eq!((t.get(one, &g), t.get(two, &g)), (Some(&1), None));
    assert_eq!(rows(&t), [row(one, &1)]);
    assert_eq!((t.put(two, 2, &g), t.put(one, 3, &g)), (None, Some(&1)));
    assert_eq!(rows(&t), [row(two, &2), row(one, &3)]);
    assert_eq!(t.remove(one, &g), Some(&3));
    assert_eq!(rows(&t), [row(two, &2)]);
    assert_eq!(t.remove(two, &g), Some(&2));
    assert_eq!(t.put_with(one, |_| None, &g), None);
    assert!(rows(&t).is_empty());
}

#[test]
fn put_with_decline_on_a_present_key_keeps_the_value_and_retires_nothing() {
    static DROPS: AtomicU64 = AtomicU64::new(0);
    struct Tracked(u64);
    impl Drop for Tracked {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    let t: Masstree<Tracked> = Masstree::new();
    let g = masstree::pin();
    t.put(b"kept", Tracked(1), &g);
    t.put(b"control", Tracked(2), &g);
    let resident: *const Tracked = t.get(b"kept", &g).unwrap();
    assert!(std::ptr::eq(
        t.put_with(b"kept", |_| None, &g).unwrap(),
        resident
    ));
    // Retired after the decline: once it is freed, anything the decline
    // retired would have been freed too.
    t.put(b"control", Tracked(3), &g);
    drop(g);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while DROPS.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
        masstree::pin().flush();
    }
    assert_eq!(DROPS.load(Ordering::SeqCst), 1, "only the control retired");
    let g = masstree::pin();
    assert!(std::ptr::eq(t.get(b"kept", &g).unwrap(), resident));
    assert_eq!(t.get(b"kept", &g).unwrap().0, 1);
}

#[test]
fn remove_with_runs_hook_exactly_once_per_removal() {
    let t: Masstree<u64> = Masstree::new();
    let hook_runs = AtomicU64::new(0);
    let g = masstree::pin();
    t.put(b"gone", 7, &g);
    let r = t.remove_with(
        b"gone",
        |v| {
            hook_runs.fetch_add(1, Ordering::Relaxed);
            *v * 2
        },
        &g,
    );
    assert_eq!(r.map(|(v, hook)| (*v, hook)), Some((7, 14)));
    assert_eq!(hook_runs.load(Ordering::Relaxed), 1);
    // Missing key: hook must not run.
    assert!(t
        .remove_with(b"gone", |_| panic!("must not run"), &g)
        .is_none());
    assert_eq!(hook_runs.load(Ordering::Relaxed), 1);
}

#[test]
fn interleaved_put_with_and_remove_with_serialize() {
    // A global sequence counter drawn inside the hooks must produce
    // versions consistent with the final state: whichever op drew the
    // highest version for a key determines its presence.
    const ROUNDS: u64 = 10_000;
    let t = Arc::new(Masstree::<u64>::new());
    let seq = Arc::new(AtomicU64::new(1));
    let put_max = Arc::new(AtomicU64::new(0));
    let rm_max = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        {
            let (t, seq, put_max) = (Arc::clone(&t), Arc::clone(&seq), Arc::clone(&put_max));
            s.spawn(move || {
                let g = masstree::pin();
                for _ in 0..ROUNDS {
                    let mut drawn = 0;
                    t.put_with(
                        b"contended",
                        |_| {
                            drawn = seq.fetch_add(1, Ordering::Relaxed);
                            Some(drawn)
                        },
                        &g,
                    );
                    put_max.fetch_max(drawn, Ordering::Relaxed);
                }
            });
        }
        {
            let (t, seq, rm_max) = (Arc::clone(&t), Arc::clone(&seq), Arc::clone(&rm_max));
            s.spawn(move || {
                let g = masstree::pin();
                for _ in 0..ROUNDS {
                    if let Some((_, v)) =
                        t.remove_with(b"contended", |_| seq.fetch_add(1, Ordering::Relaxed), &g)
                    {
                        rm_max.fetch_max(v, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let g = masstree::pin();
    let present = t.get(b"contended", &g).is_some();
    let (pm, rm) = (
        put_max.load(Ordering::Relaxed),
        rm_max.load(Ordering::Relaxed),
    );
    // The op with the globally-latest draw decides the final state.
    assert_eq!(
        present,
        pm > rm,
        "present={present}, put_max={pm}, rm_max={rm}"
    );
}

#[test]
fn deep_layer_roots_heal_lazily() {
    // Grow a deep layer until its root splits several times; gets and
    // puts entering through the (possibly stale) layer link must climb
    // and heal (§4.6.4 lazy root update).
    let mut t: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    let prefix = b"SAMESLC!"; // exactly 8 bytes: everything below layer 0
    for i in 0..20_000u64 {
        let key = [&prefix[..], format!("{i:010}").as_bytes()].concat();
        t.put(&key, i, &g);
    }
    for i in (0..20_000u64).step_by(37) {
        let key = [&prefix[..], format!("{i:010}").as_bytes()].concat();
        assert_eq!(t.get(&key, &g), Some(&i));
    }
    drop(g);
    let report = t.validate().expect("valid after deep-layer growth");
    assert_eq!(report.keys, 20_000);
    assert!(report.layers >= 2);
}

#[test]
fn scan_prefix_extraction_with_binary_keys() {
    let t: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    // Keys containing 0x00 and 0xff bytes around slice boundaries.
    let keys: Vec<Vec<u8>> = vec![
        vec![],
        vec![0x00],
        vec![0x00, 0x00],
        vec![0xff; 7],
        vec![0xff; 8],
        vec![0xff; 9],
        [vec![0xff; 8], vec![0x00]].concat(),
        [vec![0x41; 8], vec![0xff; 8], vec![0x42; 3]].concat(),
    ];
    for (i, k) in keys.iter().enumerate() {
        t.put(k, i as u64, &g);
    }
    let mut got = Vec::new();
    t.scan(b"", &g, |k, _| {
        got.push(k.to_vec());
        true
    });
    let mut want = keys.clone();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn get_range_limit_zero_and_large() {
    let t: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    for i in 0..100u64 {
        t.put(format!("{i:03}").as_bytes(), i, &g);
    }
    assert!(t.get_range(b"", 0, &g).is_empty());
    assert_eq!(t.get_range(b"", 10_000, &g).len(), 100);
    assert_eq!(t.get_range(b"9999", 10, &g).len(), 0, "past the end");
}

#[test]
fn slot_reuse_never_leaks_wrong_value() {
    // §4.6.5's exact hazard: get locates k1 at slot i; remove(k1) frees
    // slot i; put(k2) reuses slot i; the get must NOT return k2's value
    // for k1. All keys share one border node (single-slice keys), and
    // every value records its key so readers can detect cross-key leaks.
    use std::sync::atomic::AtomicBool;
    const KEYS: &[&[u8]] = &[b"a", b"b", b"c", b"d", b"e", b"f", b"g", b"h"];
    let t = Arc::new(Masstree::<Vec<u8>>::new());
    let stop = Arc::new(AtomicBool::new(false));
    {
        let g = masstree::pin();
        for k in KEYS {
            t.put(k, k.to_vec(), &g);
        }
    }
    std::thread::scope(|s| {
        // Two writers constantly remove + reinsert (forcing slot reuse).
        for w in 0..2 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let g = masstree::pin();
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    let k = KEYS[i % KEYS.len()];
                    t.remove(k, &g);
                    t.put(k, k.to_vec(), &g);
                    i += 1;
                }
            });
        }
        // Four readers verify value-key binding on every hit.
        for r in 0..4 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut i = r;
                while !stop.load(Ordering::Relaxed) {
                    let g = masstree::pin();
                    let k = KEYS[i % KEYS.len()];
                    if let Some(v) = t.get(k, &g) {
                        assert_eq!(v.as_slice(), k, "slot reuse leaked another key's value");
                    }
                    i += 1;
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(1500));
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn suffix_kind_changes_never_leak_wrong_value() {
    // The hazard of inline suffixes: a slot's suffix word holds either a
    // 1-8-byte suffix or a block pointer, so a freed slot reused for a
    // key of the other kind can show a reader a block code beside inline
    // bytes until its version check fails. A reader that dereferenced the
    // block first would chase suffix bytes as a pointer. Eight slices
    // share one border node; writers flip each between a short and a
    // long suffix by remove + put, and readers check every hit against
    // its key through every read path. There are more threads than a
    // small host's cores on purpose: a writer preempted between its
    // `keylen` and suffix-word stores leaves the torn pair in view for a
    // whole time slice.
    use masstree::{HintedGet, LeafHint};
    use std::sync::atomic::AtomicBool;
    const SLICES: usize = 8;
    const WRITERS: usize = 4;
    let key = |i: usize, long: bool| {
        let mut k = format!("slot{i:04}").into_bytes();
        if long {
            k.extend_from_slice(format!("a-long-suffix-{i}").as_bytes());
        } else {
            k.extend(std::iter::repeat_n(b's', 1 + i));
        }
        k
    };
    let keys: Vec<Vec<u8>> = (0..SLICES)
        .flat_map(|i| [key(i, false), key(i, true)])
        .collect();
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let mut t = Masstree::<Vec<u8>>::new();
    let stop = AtomicBool::new(false);
    {
        let g = masstree::pin();
        for i in 0..SLICES {
            t.put(&key(i, i % 2 == 1), key(i, i % 2 == 1), &g);
        }
    }
    let check = |k: &[u8], v: &Vec<u8>| assert_eq!(v.as_slice(), k, "another key's value");
    let (t_ref, stop, refs) = (&t, &stop, &refs);
    let long_at_end: usize = std::thread::scope(|s| {
        // Writer `w` owns the slices congruent to it mod WRITERS, so a
        // slice never holds both of its keys (which would make a layer).
        // Each returns how many of its slices end with the long key.
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                s.spawn(move || {
                    let mut long: [bool; SLICES] = std::array::from_fn(|i| i % 2 == 1);
                    let mut i = w;
                    while !stop.load(Ordering::Relaxed) {
                        let g = masstree::pin();
                        assert!(t_ref.remove(&key(i, long[i]), &g).is_some());
                        long[i] = !long[i];
                        t_ref.put(&key(i, long[i]), key(i, long[i]), &g);
                        i = (i + WRITERS) % SLICES;
                    }
                    long.iter().skip(w).step_by(WRITERS).filter(|&&l| l).count()
                })
            })
            .collect();
        for _ in 0..4 {
            s.spawn(move || {
                let mut hints: Vec<Option<LeafHint<Vec<u8>>>> = vec![None; refs.len()];
                while !stop.load(Ordering::Relaxed) {
                    let g = masstree::pin();
                    for (j, k) in refs.iter().enumerate() {
                        if let Some(v) = t_ref.get(k, &g) {
                            check(k, v);
                        }
                        // A hinted read, composed as `Session::get_with`
                        // does: the hint first, a capturing descent when
                        // it is missing or stale.
                        let hit = match hints[j].as_ref().map(|h| t_ref.get_at_hint(k, h, &g)) {
                            Some(HintedGet::Hit(v)) => v,
                            _ => {
                                let (v, fresh) = t_ref.get_capturing_hint(k, &g);
                                hints[j] = Some(fresh);
                                v
                            }
                        };
                        if let Some(v) = hit {
                            check(k, v);
                        }
                    }
                    t_ref.multi_get_with(refs, &g, |j, hit| {
                        if let Some(v) = hit {
                            check(refs[j], v);
                        }
                    });
                    t_ref.scan(b"", &g, |k, v| {
                        check(k, v);
                        true
                    });
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(1500));
        stop.store(true, Ordering::Relaxed);
        writers.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let report = t.validate().expect("valid tree");
    assert_eq!(
        (report.keys, report.external_suffixes),
        (SLICES, long_at_end)
    );
}
