//! Cold-tier equivalence: a store with value separation forced on hard
//! (threshold far below most values, a cache too small to hold the
//! working set, tiny segments so GC has material) must be
//! **observably identical** to the all-inline store under the same
//! workload — three concurrent writers with interleaved scans and
//! removes, a full crash/recover cycle mid-run, and a durability cycle
//! (checkpoint + value GC) between phases. Final states, point reads,
//! and scan orderings must match row for row and byte for byte.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mtkv::{recover_with, DurabilityConfig, Store};

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const WRITERS: usize = 3;
const KEYS_PER_WRITER: usize = 24;
const PHASES: usize = 2;
const OPS_PER_PHASE: usize = 150;

#[derive(Clone)]
enum Op {
    Put(usize, Vec<u8>),
    Remove(usize),
    Scan(usize),
}

/// Writer `w` owns keys `w*KEYS..(w+1)*KEYS`: disjoint spaces make the
/// final state deterministic under any interleaving, so the two stores
/// are comparable even though the writers race.
fn key_bytes(writer: usize, key: usize) -> Vec<u8> {
    format!("eq-{:04}", writer * KEYS_PER_WRITER + key).into_bytes()
}

fn plan_ops(seed: u64, writer: usize) -> Vec<Op> {
    let mut rng = Rng(seed ^ ((writer as u64 + 1) * 0xfee1_d00d));
    let mut ops = Vec::new();
    for i in 0..PHASES * OPS_PER_PHASE {
        let key = rng.below(KEYS_PER_WRITER as u64) as usize;
        match rng.below(100) {
            0..=19 => ops.push(Op::Remove(key)),
            20..=29 => ops.push(Op::Scan(key)),
            _ => {
                // Values straddle the separation threshold (24): some
                // stay inline in the cold store too, most go indirect.
                let mut v = format!("w{writer}o{i:05}:").into_bytes();
                let len = 8 + (rng.below(112) as usize);
                while v.len() < len {
                    v.push(b'a' + ((rng.next() % 26) as u8));
                }
                ops.push(Op::Put(key, v));
            }
        }
    }
    ops
}

fn run_phase(store: &Arc<Store>, plans: &[Vec<Op>], phase: usize) {
    std::thread::scope(|scope| {
        for (w, plan) in plans.iter().enumerate() {
            let store = Arc::clone(store);
            scope.spawn(move || {
                let session = store.session().unwrap();
                for op in &plan[phase * OPS_PER_PHASE..(phase + 1) * OPS_PER_PHASE] {
                    match op {
                        Op::Put(k, v) => {
                            session.put(&key_bytes(w, *k), &[(0, v)]);
                        }
                        Op::Remove(k) => {
                            session.remove(&key_bytes(w, *k));
                        }
                        Op::Scan(k) => {
                            // Exercised for effect (cache pressure,
                            // cursor reuse), not compared mid-race.
                            session.get_range(&key_bytes(w, *k), 8, None);
                        }
                    }
                }
                assert!(session.force_log());
            });
        }
    });
}

fn snapshot(store: &Arc<Store>) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
    let session = store.session().unwrap();
    session.get_range(b"", usize::MAX, None)
}

/// Streams the whole store through a resumable cursor in small pages —
/// the ordering-sensitive path (validated-anchor resume).
fn paged_snapshot(store: &Arc<Store>) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
    let session = store.session().unwrap();
    let mut cursor = session.scan_cursor(b"");
    let mut out = Vec::new();
    loop {
        let n = session.get_range_resumed(&mut cursor, 7, |k, v| {
            out.push((k.to_vec(), v.cols()));
        });
        if n == 0 {
            break;
        }
    }
    out
}

fn cold_config() -> DurabilityConfig {
    let mut config = DurabilityConfig::tiny_segments(4096).with_value_separation(24, 512);
    config.value_segment_bytes = 2048;
    config.gc_dead_fraction = 0.3;
    config
}

#[test]
fn cold_tier_equals_all_inline_through_crash_and_gc() {
    let seed: u64 = 0x0e9_1bad_5eed;
    let base = std::env::temp_dir().join(format!("mtkv-coldeq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let inline_dir = base.join("inline");
    let cold_dir = base.join("cold");
    std::fs::create_dir_all(&inline_dir).unwrap();
    std::fs::create_dir_all(&cold_dir).unwrap();

    let plans: Vec<Vec<Op>> = (0..WRITERS).map(|w| plan_ops(seed, w)).collect();

    let mut inline =
        Store::persistent_with(&inline_dir, DurabilityConfig::tiny_segments(4096)).unwrap();
    let mut cold = Store::persistent_with(&cold_dir, cold_config()).unwrap();
    assert!(cold.value_tier().is_some());

    for phase in 0..PHASES {
        run_phase(&inline, &plans, phase);
        run_phase(&cold, &plans, phase);

        // A durability cycle on both: on the cold store this relocates
        // live values out of mostly-dead segments (GC) and proves the
        // pointer records survive the checkpoint round-trip.
        inline.checkpoint_now().unwrap();
        cold.checkpoint_now().unwrap();

        if phase + 1 < PHASES {
            // Mid-run crash/recover on both directories; the cold store
            // keeps its separation config so phase 2 stays indirect.
            drop(inline);
            drop(cold);
            let (i2, _) = recover_with(
                &inline_dir,
                &inline_dir,
                DurabilityConfig::tiny_segments(4096),
            )
            .unwrap();
            let (c2, _) = recover_with(&cold_dir, &cold_dir, cold_config()).unwrap();
            inline = i2;
            cold = c2;
        }
    }

    // Point reads: byte-identical, and the cold store's checked read
    // path agrees with the plain one.
    {
        let si = inline.session().unwrap();
        let sc = cold.session().unwrap();
        for w in 0..WRITERS {
            for k in 0..KEYS_PER_WRITER {
                let kb = key_bytes(w, k);
                let a = si.get(&kb, None);
                let b = sc.get(&kb, None);
                assert_eq!(
                    a,
                    b,
                    "point read diverged on {:?}",
                    String::from_utf8_lossy(&kb)
                );
                let checked = sc.get_checked(&kb, None).expect("forced values resolve");
                assert_eq!(b, checked, "checked read diverged on cold store");
            }
        }
    }

    // Full scans and paged cursor scans: identical rows in identical
    // order on both stores, and internally consistent per store.
    let flat_i = snapshot(&inline);
    let flat_c = snapshot(&cold);
    assert_eq!(flat_i, flat_c, "full scan diverged");
    let paged_i = paged_snapshot(&inline);
    let paged_c = paged_snapshot(&cold);
    assert_eq!(paged_i, flat_i, "inline paged scan diverged from flat scan");
    assert_eq!(paged_c, flat_c, "cold paged scan diverged from flat scan");

    // The cold store actually exercised the tier: indirect reads
    // happened, live bytes sit in segments, and the scans above went
    // through the leaf-batched readahead engine (the 512-byte cache
    // guarantees misses, so batches were clustered segment reads).
    let stats = cold.value_tier_stats();
    assert!(
        stats.live_segment_bytes > 0,
        "no live separated bytes: {stats:?}"
    );
    assert!(
        stats.readahead_batches > 0,
        "scans never batch-resolved cold pointers: {stats:?}"
    );

    drop(inline);
    drop(cold);
    let _ = std::fs::remove_dir_all(&base);
}

/// Readahead-specific equivalence: leaf-batched scans over a cold store
/// whose cache cannot hold the working set (every chunk goes through
/// clustered segment reads) must agree row for row and byte for byte
/// with point gets — through value-GC relocation, a crash/recover
/// cycle, and while a concurrent writer churns half the key space. The
/// per-row hazard this pins down is window carving: a clustered read
/// decodes many payloads out of one buffer by offset arithmetic, so a
/// mistake would splice one row's bytes into another — here every value
/// embeds its own key, and every emitted row is checked against it.
#[test]
fn readahead_scans_match_point_gets_through_gc_and_recovery() {
    let base = std::env::temp_dir().join(format!("mtkv-coldra-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    let nkeys: usize = 200;
    let key = |i: usize| format!("ra-{i:04}").into_bytes();
    let val = |i: usize, gen: usize| {
        let mut v = format!("ra-{i:04}#g{gen}:").into_bytes();
        while v.len() < 40 + (i % 80) {
            v.push(b'v');
        }
        v
    };

    let store = Store::persistent_with(&base, cold_config()).unwrap();
    {
        let session = store.session().unwrap();
        for i in 0..nkeys {
            session.put(&key(i), &[(0, &val(i, 0))]);
        }
        // Overwrites condemn the first generation's payloads: GC
        // material, so the checkpoint below relocates live values.
        for i in (0..nkeys).step_by(2) {
            session.put(&key(i), &[(0, &val(i, 1))]);
        }
        assert!(session.force_log());
    }
    store.checkpoint_now().unwrap();

    // Crash/recover: pointer records now name recovered, possibly
    // GC-relocated segments.
    drop(store);
    let (store, _) = recover_with(&base, &base, cold_config()).unwrap();

    // Phase 1 (quiescent): full readahead scan == point gets.
    {
        let session = store.session().unwrap();
        let mut rows = Vec::new();
        session.get_range_with(b"ra-", nkeys, |k, v| {
            rows.push((k.to_vec(), v.cols()));
        });
        assert_eq!(rows.len(), nkeys, "scan dropped rows");
        for (k, cols) in &rows {
            let point = session.get(k, None).expect("scanned key point-reads");
            assert_eq!(cols, &point, "scan/point divergence on {k:?}");
            assert!(
                cols[0].starts_with(&k[..]),
                "row carved from the wrong window offset: key {:?} got {:?}",
                String::from_utf8_lossy(k),
                String::from_utf8_lossy(&cols[0][..12.min(cols[0].len())])
            );
        }
    }

    // Phase 2 (churn): a writer rewrites odd keys (new generations →
    // fresh segments + condemnations) and checkpoints mid-way (GC
    // relocation races the scans) while a scanner streams the range in
    // small readahead chunks. Every emitted row must be self-consistent
    // — its value names its key — under any interleaving.
    std::thread::scope(|scope| {
        let writer_store = Arc::clone(&store);
        let writer = scope.spawn(move || {
            let session = writer_store.session().unwrap();
            for gen in 2..6 {
                for i in (1..nkeys).step_by(2) {
                    session.put(&key(i), &[(0, &val(i, gen))]);
                }
                if gen == 3 {
                    writer_store.checkpoint_now().unwrap();
                }
            }
            assert!(session.force_log());
        });
        let session = store.session().unwrap();
        for _ in 0..40 {
            let mut cursor = session.scan_cursor(b"ra-");
            loop {
                let n = session.get_range_resumed(&mut cursor, 9, |k, v| {
                    let col = v.col(0).expect("column 0 present");
                    assert!(
                        col.starts_with(k),
                        "torn/crossed row under churn: key {:?} got {:?}",
                        String::from_utf8_lossy(k),
                        String::from_utf8_lossy(&col[..12.min(col.len())])
                    );
                });
                if n == 0 {
                    break;
                }
            }
        }
        writer.join().unwrap();
    });

    // Phase 3: settle, then re-verify full equivalence at the final
    // state (generation 5 on odd keys, 1 on even).
    store.checkpoint_now().unwrap();
    {
        let session = store.session().unwrap();
        for i in 0..nkeys {
            let expect = if i % 2 == 1 { val(i, 5) } else { val(i, 1) };
            let got = session.get(&key(i), None).expect("key survives churn");
            assert_eq!(got[0], expect, "final point state wrong at {i}");
        }
        let mut rows = Vec::new();
        session.get_range_with(b"ra-", nkeys, |k, v| {
            rows.push((k.to_vec(), v.cols()));
        });
        assert_eq!(rows.len(), nkeys);
        for (i, (k, cols)) in rows.iter().enumerate() {
            assert_eq!(k, &key(i), "scan order broke");
            let expect = if i % 2 == 1 { val(i, 5) } else { val(i, 1) };
            assert_eq!(cols[0], expect, "final scan state wrong at {i}");
        }
    }

    let stats = store.value_tier_stats();
    assert!(
        stats.readahead_batches > 0 && stats.clustered_reads > 0,
        "the scans above never exercised clustered resolution: {stats:?}"
    );

    drop(store);
    let _ = std::fs::remove_dir_all(&base);
}

/// Value GC relocates from the references the checkpoint's part walks
/// collect, not from a walk of its own. While two durability cycles run,
/// writers overwrite, remove and re-put exactly the keys whose payloads
/// sit in GC candidate segments. Every key must then read its last
/// acked write — before and after recovery — and each candidate must
/// outlive the cycle that condemns it and go in the next one.
#[test]
fn value_gc_from_part_walks_keeps_every_acked_write_under_churn() {
    const KEYS: usize = 12_000;
    const CHURNERS: usize = 2;
    let base = std::env::temp_dir().join(format!("mtkv-coldchurn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let config = || {
        let mut config = DurabilityConfig::tiny_segments(1 << 20).with_value_separation(24, 4096);
        config.value_segment_bytes = 64 << 10;
        config.gc_dead_fraction = 0.3;
        config
    };
    let key = |i: usize| format!("gc-{i:05}").into_bytes();
    let val = |i: usize, gen: usize| {
        let mut v = format!("gc-{i:05}#g{gen}:").into_bytes();
        while v.len() < 40 + (i % 60) {
            v.push(b'a' + (gen % 26) as u8);
        }
        v
    };

    // The model: the last acked write per key (`None` = removed).
    let mut model: Vec<Option<Vec<u8>>> = (0..KEYS).map(|i| Some(val(i, 0))).collect();
    let store = Store::persistent_with(&base, config()).unwrap();
    {
        let session = store.session().unwrap();
        for i in 0..KEYS {
            session.put(&key(i), &[(0, &val(i, 0))]);
        }
        // Two keys in three move on, so the first generation's
        // segments are mostly dead; the rest still point into them.
        for i in (0..KEYS).filter(|i| i % 3 != 0) {
            session.put(&key(i), &[(0, &val(i, 1))]);
            model[i] = Some(val(i, 1));
        }
        assert!(session.force_log());
    }
    let tier = Arc::clone(store.value_tier().expect("separation on"));
    let candidates = tier.gc_candidates(0.3);
    assert!(!candidates.is_empty(), "no GC candidate");
    let exists = |seg: u64| mtkv::vtier::vseg_path(&base, seg).exists();

    // Churner `c` owns the keys `i % 3 == 0` with `i / 3 % CHURNERS == c`:
    // every one of them points into a candidate when the churn starts.
    let stop = AtomicBool::new(false);
    let churned: Vec<Vec<(usize, Option<Vec<u8>>)>> = std::thread::scope(|scope| {
        let churners: Vec<_> = (0..CHURNERS)
            .map(|c| {
                let (store, stop) = (Arc::clone(&store), &stop);
                scope.spawn(move || {
                    let session = store.session().unwrap();
                    let mut rng = Rng(0xc4u64 + c as u64);
                    let mut last = Vec::new();
                    let mut gen = 2;
                    while !stop.load(Ordering::Relaxed) {
                        let i =
                            3 * (CHURNERS * rng.below((KEYS / 3 / CHURNERS) as u64) as usize + c);
                        gen += 1;
                        let write = match rng.below(3) {
                            0 => {
                                session.remove(&key(i));
                                None
                            }
                            1 => {
                                session.remove(&key(i));
                                session.put(&key(i), &[(0, &val(i, gen))]);
                                Some(val(i, gen))
                            }
                            _ => {
                                session.put(&key(i), &[(0, &val(i, gen))]);
                                Some(val(i, gen))
                            }
                        };
                        last.push((i, write));
                    }
                    assert!(session.force_log());
                    last
                })
            })
            .collect();
        // The cycle that condemns the candidates keeps their files...
        store.checkpoint_now().unwrap();
        let left = tier.gc_candidates(0.3);
        for &seg in &candidates {
            assert!(!left.contains(&seg), "candidate {seg} not condemned");
            assert!(
                exists(seg),
                "candidate {seg} deleted by the cycle that condemned it"
            );
        }
        // ...and the next covered one deletes them.
        store.checkpoint_now().unwrap();
        for &seg in &candidates {
            assert!(
                !exists(seg),
                "condemned segment {seg} outlived a covered cycle"
            );
        }
        stop.store(true, Ordering::Relaxed);
        churners.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut churn_ops = 0;
    for (i, write) in churned.into_iter().flatten() {
        model[i] = write;
        churn_ops += 1;
    }
    assert!(churn_ops > 0, "the churners never ran");

    let check = |store: &Arc<Store>, when: &str| {
        let session = store.session().unwrap();
        for (i, want) in model.iter().enumerate() {
            let got = session.get_checked(&key(i), None).expect("value resolves");
            assert_eq!(
                got.map(|mut cols| cols.remove(0)),
                want.clone(),
                "{when}: key {i} lost its last acked write"
            );
        }
    };
    check(&store, "live");
    drop(tier);
    drop(store);
    let (store, _) = recover_with(&base, &base, config()).unwrap();
    check(&store, "recovered");
    drop(store);
    let _ = std::fs::remove_dir_all(&base);
}

/// Store-level miss storm: many sessions hammering one cold key nobody
/// has read yet perform exactly **one** segment read per round — the
/// first resolver leads the fill, everyone else either joins it in
/// flight (`shared_misses`) or hits the cache it populated. Each round
/// storms a fresh key. The counters are exhaustive: across all rounds
/// every non-leading read lands in exactly one of the two buckets.
#[test]
fn cold_miss_storm_is_one_segment_read_per_eviction() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 16;

    let base = std::env::temp_dir().join(format!("mtkv-coldstorm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    // A cache shard serves a 64 KiB region of a segment, and each
    // shard's budget holds all the round keys' payloads: no fill is
    // evicted before its round ends.
    let mut config = DurabilityConfig::tiny_segments(1 << 20).with_value_separation(64, 4 << 20);
    config.value_segment_bytes = 1 << 20;
    let store = Store::persistent_with(&base, config).unwrap();
    let storm_key = |round: usize| format!("storm-key-{round:02}").into_bytes();
    let value = |round: usize| vec![round as u8; 4096];
    {
        let session = store.session().unwrap();
        for round in 0..ROUNDS {
            session.put(&storm_key(round), &[(0, &value(round))]);
        }
        assert!(session.force_log());
    }
    assert!(store.value_tier().is_some(), "separation on");
    let base_stats = store.value_tier_stats();

    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let store = Arc::clone(&store);
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                let session = store.session().unwrap();
                for round in 0..ROUNDS {
                    barrier.wait();
                    let got = session.get(&storm_key(round), None).expect("present");
                    assert_eq!(got[0], value(round), "storm read returned wrong bytes");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });

    let s = store.value_tier_stats();
    let reads = s.segment_reads - base_stats.segment_reads;
    let hits = s.value_cache_hits - base_stats.value_cache_hits;
    let shared = s.shared_misses - base_stats.shared_misses;
    // One leader per round reads the segment; the other THREADS-1
    // readers split exhaustively between joining the in-flight fill
    // and hitting the freshly filled cache.
    assert_eq!(reads, ROUNDS as u64, "stampede: >1 segment read/round");
    assert_eq!(
        hits + shared,
        ((THREADS - 1) * ROUNDS) as u64,
        "non-leader reads unaccounted: hits={hits} shared={shared}"
    );

    drop(store);
    let _ = std::fs::remove_dir_all(&base);
}
