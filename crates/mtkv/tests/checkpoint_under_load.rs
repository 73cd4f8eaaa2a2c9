//! Checkpoint-under-load consistency and bounded recovery (§4.4, §5).
//!
//! The background checkpointer runs against the live tree while writers
//! keep going — checkpoints are *fuzzy* and recovery repairs them by
//! replaying surviving log segments in value-version order. These tests
//! pin down the two guarantees that makes worth having:
//!
//! 1. **Consistency**: recovering from a checkpoint taken under load
//!    plus the surviving segments equals a version-ordered replay of
//!    everything the writers did — the winner for every key is the op
//!    with the highest version, and no value that was never written can
//!    appear (no future writes leak in, no torn state surfaces).
//! 2. **Bounded recovery**: after rotation + checkpoint + truncation,
//!    recovery replays only records from segments newer than the
//!    checkpoint cutoff — the replayed-record count is bounded by the
//!    post-checkpoint tail, not by the store's lifetime write count.
//!
//! And the two a bounded checkpoint footprint rests on: the part
//! writers' chunked walks, re-pinned every `PIN_ROWS` rows, still cover
//! each key exactly once under churn, and they let the epoch advance
//! while a checkpoint runs.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mtkv::checkpoint::PIN_ROWS;
use mtkv::log::SegmentWalker;
use mtkv::{latest_checkpoint, recover, write_checkpoint, DurabilityConfig, Store};

/// splitmix64.
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

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mtkv-cul-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn checkpoint_under_concurrent_writers_recovers_version_ordered_state() {
    const WRITERS: usize = 4;
    const OPS: usize = 600;
    const SHARED_KEYS: u64 = 48; // all writers contend on one key space

    /// One journaled op: key, assigned version, written value.
    type JournalOp = (Vec<u8>, u64, Option<Vec<u8>>);

    let dir = tmpdir("consistency");
    let journals: Vec<Vec<JournalOp>>;
    {
        let store = Store::persistent_with(&dir, DurabilityConfig::tiny_segments(4096)).unwrap();
        let store2 = Arc::clone(&store);
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        // Checkpoints keep firing for as long as the writers run: no
        // write stalls, each checkpoint sees some fuzzy mid-load state.
        let ckpt_thread = std::thread::spawn(move || {
            let mut cycles = 0u32;
            loop {
                store2.checkpoint_now().unwrap();
                cycles += 1;
                if done2.load(std::sync::atomic::Ordering::Acquire) {
                    return cycles;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        journals = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let session = store.session().unwrap();
                    scope.spawn(move || {
                        let mut rng = Rng(0xc0ffee ^ (w as u64 * 7919));
                        let mut journal = Vec::with_capacity(OPS);
                        for i in 0..OPS {
                            let key = format!("shared{:03}", rng.below(SHARED_KEYS)).into_bytes();
                            if rng.below(100) < 12 {
                                // Removes race puts on the same keys; the
                                // version drawn at the linearization point
                                // is what recovery must respect.
                                let existed = session.remove(&key);
                                let _ = existed;
                                // remove() doesn't return its version to
                                // callers; re-put a tombstone marker value
                                // instead so every journaled op has one.
                                let v = session.put(&key, &[(0, b"removed-marker")]);
                                journal.push((key, v, Some(b"removed-marker".to_vec())));
                            } else {
                                let value =
                                    format!("w{w}i{i:05}-{:08x}", rng.next() as u32).into_bytes();
                                let v = session.put(&key, &[(0, &value)]);
                                journal.push((key, v, Some(value)));
                            }
                            if i % 37 == 0 {
                                assert!(session.force_log());
                            }
                        }
                        assert!(session.force_log());
                        journal
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        done.store(true, std::sync::atomic::Ordering::Release);
        let cycles = ckpt_thread.join().unwrap();
        assert!(cycles >= 1, "checkpoints ran under load");
        assert_eq!(store.checkpoint_epoch(), cycles as u64);
        // Clean shutdown of all sessions happened when the scope ended
        // (drop = sentinel + force), so recovery must reproduce the
        // *complete* version-ordered history.
    }

    let (store, report) = recover(&dir, &dir).unwrap();
    assert!(report.used_checkpoint, "{report:?}");

    // The expected state: per key, the journaled op with the highest
    // version (versions are drawn inside each key's critical section, so
    // version order *is* the serialization order).
    let mut expected: HashMap<Vec<u8>, (u64, Option<Vec<u8>>)> = HashMap::new();
    for journal in &journals {
        for (key, version, value) in journal {
            let e = expected.entry(key.clone()).or_insert((0, None));
            if *version > e.0 {
                *e = (*version, value.clone());
            }
        }
    }
    let session = store.session().unwrap();
    for (key, (version, value)) in &expected {
        let got = session.get(key, Some(&[0])).map(|mut c| c.remove(0));
        assert_eq!(
            got.as_ref(),
            value.as_ref(),
            "key {:?}: recovered state must equal the version-ordered replay \
             (winning version {version})",
            String::from_utf8_lossy(key)
        );
    }
    // And nothing beyond the journals leaked in.
    let mut recovered_keys = 0;
    session.get_range_with(b"", usize::MAX, |k, _| {
        assert!(
            expected.contains_key(k),
            "key {:?} was never written",
            String::from_utf8_lossy(k)
        );
        recovered_keys += 1;
    });
    assert_eq!(recovered_keys, expected.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_bounds_recovery_replay() {
    // The acceptance-criteria test: rotation + checkpoint + truncation,
    // then recovery replays only segments newer than the checkpoint
    // cutoff — asserted via replayed-record counts.
    const BULK: u32 = 4_000;
    const TAIL: u32 = 120;

    let dir = tmpdir("bounded");
    {
        let store = Store::persistent_with(&dir, DurabilityConfig::tiny_segments(4096)).unwrap();
        let s = store.session().unwrap();
        for i in 0..BULK {
            s.put(
                format!("bulk{i:06}").as_bytes(),
                &[(0, &i.to_le_bytes()[..])],
            );
        }
        assert!(s.force_log());
        let segments_before = store.durability_stats().log_segments;
        assert!(
            segments_before >= 8,
            "bulk phase rotated: {segments_before}"
        );

        // One full online cycle: checkpoint + truncate + prune.
        store.checkpoint_now().unwrap();
        let stats = store.durability_stats();
        assert!(
            stats.segments_truncated >= segments_before - 2,
            "covered segments deleted: {stats:?}"
        );
        assert!(stats.log_segments <= 2, "only the tail survives: {stats:?}");

        // Post-checkpoint tail, then crash (no sentinel).
        for i in 0..TAIL {
            s.put(
                format!("tail{i:04}").as_bytes(),
                &[(0, &i.to_le_bytes()[..])],
            );
        }
        assert!(s.force_log());
        s.simulate_crash();
    }
    let (store, report) = recover(&dir, &dir).unwrap();
    assert!(report.used_checkpoint, "{report:?}");
    assert_eq!(report.checkpoint_keys, BULK as u64, "{report:?}");
    assert!(
        report.replayed <= (TAIL as u64) + 8,
        "recovery must replay only the post-checkpoint tail, got {report:?}"
    );
    assert!(
        report.replayed >= TAIL as u64,
        "the whole tail replays: {report:?}"
    );
    assert!(
        report.log_segments <= 4,
        "truncation bounded the segment count: {report:?}"
    );
    // Everything is still there.
    let s = store.session().unwrap();
    for i in [0u32, BULK / 2, BULK - 1] {
        assert_eq!(
            s.get(format!("bulk{i:06}").as_bytes(), Some(&[0])).unwrap()[0],
            i.to_le_bytes()
        );
    }
    for i in [0u32, TAIL - 1] {
        assert_eq!(
            s.get(format!("tail{i:04}").as_bytes(), Some(&[0])).unwrap()[0],
            i.to_le_bytes()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn logger_death_freezes_truncation_and_recovery_falls_back_to_older_checkpoint() {
    // Regression for the poisoned-store data-loss chain: cycle 1
    // (healthy) truncates segments covered by checkpoint C1 — those
    // records now exist only in C1. A session's logger then dies,
    // leaving a torn chain whose last durable timestamp sits below any
    // later checkpoint's start_ts. Later cycles must neither truncate
    // (the torn chain pins future cutoffs) nor prune C1 (an older
    // checkpoint may be the only one a post-crash cutoff accepts), and
    // recovery must fall back to the newest checkpoint at or before the
    // cutoff instead of rejecting "the newest, period" and replaying
    // logs that no longer reach back to the beginning.
    const BULK: u32 = 1_500;
    let dir = tmpdir("poisoned");
    {
        let store = Store::persistent_with(&dir, DurabilityConfig::tiny_segments(2048)).unwrap();
        let a = store.session().unwrap();
        for i in 0..BULK {
            a.put(
                format!("bulk{i:06}").as_bytes(),
                &[(0, &i.to_le_bytes()[..])],
            );
        }
        assert!(a.force_log());
        store.checkpoint_now().unwrap(); // C1: healthy, truncates
        let truncated_healthy = store.durability_stats().segments_truncated;
        assert!(truncated_healthy >= 1, "cycle 1 truncated");

        // Session B dies without its shutdown protocol: poison.
        let b = store.session().unwrap();
        b.put(b"bkey", &[(0, b"bval")]);
        assert!(b.force_log());
        b.simulate_crash();

        // More writes and cycles: C2, C3 (keep_checkpoints = 2 would
        // prune C1 if pruning kept running).
        for i in 0..200u32 {
            a.put(
                format!("tail{i:04}").as_bytes(),
                &[(0, &i.to_le_bytes()[..])],
            );
        }
        assert!(a.force_log());
        store.checkpoint_now().unwrap(); // C2
        store.checkpoint_now().unwrap(); // C3
        assert_eq!(
            store.durability_stats().segments_truncated,
            truncated_healthy,
            "truncation frozen once poisoned"
        );
        a.simulate_crash();
    }
    let (store, report) = recover(&dir, &dir).unwrap();
    // The cutoff is pinned by B's torn chain (< C2.start_ts), so only
    // C1 qualifies — and it must still exist and be used.
    assert!(
        report.used_checkpoint,
        "recovery must fall back to the older checkpoint: {report:?}"
    );
    assert_eq!(report.checkpoint_keys, BULK as u64, "{report:?}");
    let s = store.session().unwrap();
    for i in [0u32, BULK / 2, BULK - 1] {
        assert_eq!(
            s.get(format!("bulk{i:06}").as_bytes(), Some(&[0])).unwrap()[0],
            i.to_le_bytes(),
            "record truncated under C1 must come back from C1"
        );
    }
    assert_eq!(s.get(b"bkey", Some(&[0])).unwrap()[0], b"bval");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn background_checkpointer_runs_and_bounds_log_growth() {
    // The paper's online mode: a background thread checkpoints on a
    // cadence; writers never wait on it; the log footprint stays bounded
    // instead of growing with every write.
    let dir = tmpdir("background");
    {
        let config = DurabilityConfig::tiny_segments(2048).with_interval(Duration::from_millis(15));
        let store = Store::persistent_with(&dir, config).unwrap();
        let s = store.session().unwrap();
        for i in 0..3_000u32 {
            s.put(format!("bg{i:06}").as_bytes(), &[(0, &i.to_le_bytes()[..])]);
            if i % 500 == 499 {
                assert!(s.force_log());
                // Give the checkpointer a beat to land a cycle.
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        assert!(s.force_log());
        // Wait (bounded) for at least two background epochs.
        let mut waited = 0;
        while store.checkpoint_epoch() < 2 && waited < 200 {
            std::thread::sleep(Duration::from_millis(10));
            waited += 1;
        }
        let stats = store.durability_stats();
        assert!(
            stats.checkpoints >= 2,
            "background checkpointer never ran: {stats:?}"
        );
        assert!(
            stats.segments_truncated >= 1,
            "background truncation never ran: {stats:?}"
        );
        // ~3000 * 40B of records went through tiny 2 KiB segments; with
        // online truncation only a tail survives.
        assert!(
            stats.log_segments < 20,
            "log growth must stay bounded: {stats:?}"
        );
        store.stop_background_checkpointer();
    }
    let (store, report) = recover(&dir, &dir).unwrap();
    assert!(report.used_checkpoint, "{report:?}");
    let s = store.session().unwrap();
    for i in [0u32, 1_499, 2_999] {
        assert_eq!(
            s.get(format!("bg{i:06}").as_bytes(), Some(&[0])).unwrap()[0],
            i.to_le_bytes()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes of checkpoint parts on disk under `dir`, across every
/// checkpoint directory.
fn part_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for ckpt in std::fs::read_dir(dir).unwrap().flatten() {
        if !ckpt.file_name().to_string_lossy().starts_with("ckpt-") {
            continue;
        }
        for part in std::fs::read_dir(ckpt.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            if part.file_name().to_string_lossy().starts_with("part-") {
                total += part.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    total
}

#[test]
fn the_epoch_advances_while_a_checkpoint_runs() {
    // Epoch reclamation (§4.6.1) frees a retired value only once every
    // pinned thread has moved on. Part writers re-pin every `PIN_ROWS`
    // rows, so a destructor deferred once the first part bytes land runs
    // while the checkpoint is still writing — here, before the parts
    // hold half their (equal-sized) rows. A writer pinned for its whole
    // partition would hold it until every row is written. Two writers,
    // so that on a two-core host none waits for a core while pinned.
    const KEYS: u32 = 300_000;
    let dir = tmpdir("epoch");
    let store = Store::persistent(&dir).unwrap();
    let s = store.session().unwrap();
    let value = [0x5au8; 16];
    for i in 0..KEYS {
        s.put(format!("epoch{i:07}").as_bytes(), &[(0, &value[..])]);
    }
    assert!(s.force_log());
    let ckpt = {
        let (store, dir) = (Arc::clone(&store), dir.clone());
        std::thread::spawn(move || write_checkpoint(&store, &dir, 2).unwrap())
    };
    while part_bytes(&dir) == 0 && !ckpt.is_finished() {
        std::thread::sleep(Duration::from_micros(100));
    }
    let freed = Arc::new(AtomicBool::new(false));
    {
        let freed = Arc::clone(&freed);
        let guard = masstree::pin();
        // SAFETY: the closure only sets a flag; it is sound to run at
        // any time, from any thread.
        unsafe { guard.defer_unchecked(move || freed.store(true, Ordering::Release)) };
    }
    let deferred_at = Instant::now();
    while !freed.load(Ordering::Acquire) && !ckpt.is_finished() {
        masstree::pin().flush();
        std::thread::sleep(Duration::from_micros(100));
    }
    let (freed_after, bytes_when_freed) = (deferred_at.elapsed(), part_bytes(&dir));
    let was_freed = freed.load(Ordering::Acquire);
    let meta = ckpt.join().unwrap();
    let total = part_bytes(&dir);
    eprintln!(
        "deferred destructor ran after {freed_after:?}, with {bytes_when_freed} of {total} \
         part bytes written"
    );
    assert_eq!(meta.keys, u64::from(KEYS));
    assert!(
        was_freed && bytes_when_freed * 2 < total,
        "the epoch stood still while the parts were written: freed {was_freed} with \
         {bytes_when_freed} of {total} part bytes on disk"
    );
    drop(s);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chunked_walks_cover_each_stable_key_exactly_once_under_churn() {
    // Part writers walk their partitions in `PIN_ROWS`-row chunks,
    // re-entering the tree through a cursor each time, while other
    // threads insert fresh keys, overwrite stable ones and remove (then
    // re-insert) a disjoint set: whole runs of layer-0 keys, so border
    // nodes are deleted, and whole 20-key layers, so layers are
    // collected under the cursors. Every key present for the whole
    // checkpoint must land in exactly one part, exactly once, and the
    // parts must tile the key space in order.
    const WRITERS: usize = 4;
    const SLOTS: u32 = 180_000;
    let in_hole = |i: u32| i % 1_000 >= 900; // runs of 100 layer-0 keys
    let stable: Vec<Vec<u8>> = (0..SLOTS)
        .filter(|&i| !in_hole(i))
        .map(|i| format!("{i:07}a").into_bytes())
        .collect();
    // Churned in units, each removed whole and then put back.
    let holes = (0..SLOTS).step_by(1_000).map(|h| {
        (h + 900..h + 1_000)
            .map(|i| format!("{i:07}a").into_bytes())
            .collect::<Vec<_>>()
    });
    let layers = (0..SLOTS).step_by(64).map(|i| {
        (0..20)
            .map(|j| format!("{i:07}b/{j:02}").into_bytes())
            .collect::<Vec<_>>()
    });
    let churned: Vec<Vec<Vec<u8>>> = holes.chain(layers).collect();
    // Each writer's share of the stable keys alone spans 8 re-pins.
    assert!(stable.len() / WRITERS > 8 * PIN_ROWS);

    let dir = tmpdir("coverage");
    let store = Store::in_memory();
    let s = store.session().unwrap();
    for key in stable.iter().chain(churned.iter().flatten()) {
        s.put(key, &[(0, b"loaded")]);
    }
    let done = AtomicBool::new(false);
    let rounds = AtomicU64::new(0);
    let meta = std::thread::scope(|scope| {
        let (done, rounds, stable, churned) = (&done, &rounds, &stable, &churned);
        let (remover, overwriter, inserter) = (
            store.session().unwrap(),
            store.session().unwrap(),
            store.session().unwrap(),
        );
        scope.spawn(move || {
            let mut rng = Rng(0xdead);
            while !done.load(Ordering::Acquire) {
                let unit = &churned[rng.below(churned.len() as u64) as usize];
                for key in unit {
                    remover.remove(key);
                }
                for key in unit {
                    remover.put(key, &[(0, b"back")]);
                }
                rounds.fetch_add(1, Ordering::Relaxed);
            }
        });
        scope.spawn(move || {
            let mut rng = Rng(0x0eee);
            while !done.load(Ordering::Acquire) {
                let key = &stable[rng.below(stable.len() as u64) as usize];
                overwriter.put(key, &[(0, b"overwritten")]);
            }
        });
        scope.spawn(move || {
            let mut rng = Rng(0xf4e5);
            while !done.load(Ordering::Acquire) {
                let key = format!("{:07}c", rng.below(u64::from(SLOTS)));
                inserter.put(key.as_bytes(), &[(0, b"fresh")]);
            }
        });
        let meta = write_checkpoint(&store, &dir, WRITERS).unwrap();
        done.store(true, Ordering::Release);
        meta
    });
    eprintln!("churn: {} units removed and put back", rounds.into_inner());

    let (path, _) = latest_checkpoint(&dir).unwrap();
    let mut walker = SegmentWalker::default();
    let mut keys: Vec<Vec<u8>> = Vec::new();
    for t in 0..meta.parts {
        let mut walk = walker.walk(&path.join(format!("part-{t:04}"))).unwrap();
        let mut rows = 0;
        while let Some(rec) = walk.next_record().unwrap() {
            assert!(
                keys.last().is_none_or(|last| last.as_slice() < rec.key()),
                "part {t}: {:?} out of order or repeated",
                String::from_utf8_lossy(rec.key())
            );
            keys.push(rec.key().to_vec());
            rows += 1;
        }
        assert!(rows > 8 * PIN_ROWS, "part {t} holds only {rows} rows");
    }
    // Strictly ascending across the parts in order: each part is
    // ascending, inside its bounds, and no key appears twice.
    assert_eq!(meta.keys, keys.len() as u64);
    for key in &stable {
        assert!(
            keys.binary_search(key).is_ok(),
            "stable key {:?} missing from every part",
            String::from_utf8_lossy(key)
        );
    }
    drop(s);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
