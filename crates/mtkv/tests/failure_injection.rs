//! Failure injection for the persistence layer: torn log tails, corrupted
//! records, missing checkpoint parts, incomplete checkpoints, and —
//! segment-era cases — crashes mid-rotation and mid-truncation. §5's
//! recovery must degrade gracefully — never panic, never resurrect
//! corrupt data, always keep the durable prefix.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use mtkv::log::decode_all;
use mtkv::{recover, write_checkpoint, DurabilityConfig, LogRecord, Store};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mtkv-fi-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn build_store(dir: &Path, keys: u32) {
    let store = Store::persistent(dir).unwrap();
    let s = store.session().unwrap();
    for i in 0..keys {
        s.put(
            format!("key{i:06}").as_bytes(),
            &[(0, &i.to_le_bytes()[..])],
        );
    }
    assert!(s.force_log());
}

fn log_paths(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("log-"))
        })
        .collect();
    v.sort();
    v
}

#[test]
fn torn_log_tail_keeps_prefix() {
    let dir = tmpdir("torn");
    build_store(&dir, 2_000);
    // Tear the log mid-record: chop off the last 5 bytes.
    let log = &log_paths(&dir)[0];
    let data = std::fs::read(log).unwrap();
    std::fs::write(log, &data[..data.len() - 5]).unwrap();
    let (store, report) = recover(&dir, &dir).unwrap();
    // The prefix survives; only the torn record (and anything after it)
    // is lost.
    assert!(report.replayed >= 1_990, "{report:?}");
    let s = store.session().unwrap();
    assert_eq!(
        s.get(b"key000000", Some(&[0])).unwrap()[0],
        0u32.to_le_bytes()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_mid_log_record_truncates_from_there() {
    let dir = tmpdir("corrupt");
    build_store(&dir, 2_000);
    let log = &log_paths(&dir)[0];
    let mut data = std::fs::read(log).unwrap();
    // Flip a byte roughly in the middle: CRC fails there; recovery keeps
    // the prefix before the corruption.
    let mid = data.len() / 2;
    data[mid] ^= 0xff;
    std::fs::write(log, &data).unwrap();
    let (store, report) = recover(&dir, &dir).unwrap();
    assert!(report.replayed > 100, "prefix survived: {report:?}");
    assert!(report.replayed < 2_000, "corrupt tail dropped: {report:?}");
    let s = store.session().unwrap();
    assert_eq!(
        s.get(b"key000000", Some(&[0])).unwrap()[0],
        0u32.to_le_bytes()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_log_recovers_empty() {
    let dir = tmpdir("garbage");
    std::fs::write(dir.join("log-0"), b"this is not a log at all").unwrap();
    let (store, report) = recover(&dir, &dir).unwrap();
    assert_eq!(report.replayed, 0);
    let guard = masstree::pin();
    assert_eq!(store.tree().count_keys(&guard), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_without_manifest_is_ignored() {
    let dir = tmpdir("nomanifest");
    build_store(&dir, 500);
    {
        let store = Store::persistent(&dir).unwrap();
        // Simulate a crash mid-checkpoint: parts exist, no MANIFEST.
        let meta = write_checkpoint(&store, &dir, 2).unwrap();
        let ckpts: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
            .collect();
        assert_eq!(ckpts.len(), 1);
        std::fs::remove_file(ckpts[0].path().join("MANIFEST")).unwrap();
        let _ = meta;
    }
    let (store, report) = recover(&dir, &dir).unwrap();
    assert!(!report.used_checkpoint, "incomplete checkpoint ignored");
    // Logs alone still reconstruct everything.
    let s = store.session().unwrap();
    assert_eq!(
        s.get(b"key000499", Some(&[0])).unwrap()[0],
        499u32.to_le_bytes()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_checkpoint_part_falls_back_to_logs() {
    // Two kinds of damage to one part file: a lost tail (page-cache data
    // the manifest rename survived — rare but possible without fsync
    // barriers), and one byte flipped in the middle, which fails a frame's
    // CRC well before the tail.
    let lose_tail = |data: &mut Vec<u8>| data.truncate(data.len() - 40);
    let flip_mid = |data: &mut Vec<u8>| {
        let mid = data.len() / 2;
        data[mid] ^= 0xff;
    };
    for (tag, damage) in [
        ("truncpart", &lose_tail as &dyn Fn(&mut Vec<u8>)),
        ("flippart", &flip_mid),
    ] {
        let dir = tmpdir(tag);
        // One continuously-live store: build, checkpoint, force (so the
        // log cutoff covers the checkpoint), then "crash".
        {
            let store = Store::persistent(&dir).unwrap();
            let s = store.session().unwrap();
            for i in 0..2_000u32 {
                s.put(
                    format!("key{i:06}").as_bytes(),
                    &[(0, &i.to_le_bytes()[..])],
                );
            }
            assert!(s.force_log());
            let _ = write_checkpoint(&store, &dir, 2).unwrap();
            assert!(s.force_log());
        }
        let ckpt = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .find(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
            .unwrap()
            .path();
        let part = ckpt.join("part-0001");
        let mut data = std::fs::read(&part).unwrap();
        assert!(data.len() > 64, "part must hold data for this test");
        damage(&mut data);
        std::fs::write(&part, &data).unwrap();
        let (store, report) = recover(&dir, &dir).unwrap();
        // Row count disagrees with the manifest: the checkpoint is
        // abandoned and the logs rebuild everything.
        assert!(!report.used_checkpoint, "{tag}: {report:?}");
        assert!(report.replayed >= 2_000, "{tag}: {report:?}");
        let s = store.session().unwrap();
        assert_eq!(
            s.get(b"key000000", Some(&[0])).unwrap()[0],
            0u32.to_le_bytes()
        );
        assert_eq!(
            s.get(b"key001999", Some(&[0])).unwrap()[0],
            1999u32.to_le_bytes()
        );
        drop(s);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn zero_column_put_survives_recovery_and_a_remove_does_not() {
    // A put of no columns stores a live, empty value; only a remove
    // leaves the tombstone recovery sweeps. Both must come back as they
    // were, from the log alone and from a checkpoint plus the log tail.
    for with_checkpoint in [false, true] {
        let dir = tmpdir(if with_checkpoint {
            "zero-ckpt"
        } else {
            "zero-log"
        });
        {
            let store = Store::persistent(&dir).unwrap();
            let s = store.session().unwrap();
            s.put(b"empty", &[]);
            s.put(b"removed", &[(0, b"v")]);
            s.put(b"kept", &[(0, b"v")]);
            if with_checkpoint {
                assert!(s.force_log());
                write_checkpoint(&store, &dir, 2).unwrap();
                s.put(b"empty-tail", &[]);
            }
            s.remove(b"removed");
            assert!(s.force_log());
            assert_eq!(s.get(b"empty", None), Some(Vec::new()));
        }
        let (store, report) = recover(&dir, &dir).unwrap();
        assert_eq!(report.used_checkpoint, with_checkpoint, "{report:?}");
        let s = store.session().unwrap();
        assert_eq!(s.get(b"empty", None), Some(Vec::new()), "{report:?}");
        if with_checkpoint {
            assert_eq!(s.get(b"empty-tail", None), Some(Vec::new()));
        }
        assert_eq!(s.get(b"removed", None), None, "{report:?}");
        assert_eq!(s.get(b"kept", None), Some(vec![b"v".to_vec()]));
        drop(s);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Builds a store with tiny segments so the workload rotates several
/// times; returns the number of keys written.
fn build_segmented_store(dir: &Path, keys: u32) {
    let store = Store::persistent_with(dir, DurabilityConfig::tiny_segments(2048)).unwrap();
    let s = store.session().unwrap();
    for i in 0..keys {
        s.put(
            format!("key{i:06}").as_bytes(),
            &[(0, &i.to_le_bytes()[..])],
        );
    }
    assert!(s.force_log());
    s.simulate_crash();
}

#[test]
fn crash_mid_rotation_unsealed_segment_keeps_prefix() {
    // Crash between "create successor" and "seal current": the sealed
    // segment's sentinel never hit the disk. Its data must still replay,
    // and the session must read as crashed (finite cutoff).
    let dir = tmpdir("midrotate");
    build_segmented_store(&dir, 1_500);
    let segs = mtkv::session_segments(&dir).remove(&0).unwrap();
    assert!(segs.len() >= 3, "need rotations: {}", segs.len());
    // Strip the sentinel off a mid-chain sealed segment.
    let (_, victim) = &segs[segs.len() / 2];
    let data = std::fs::read(victim).unwrap();
    let recs = decode_all(&data);
    assert!(matches!(
        recs.last(),
        Some((LogRecord::CleanClose { .. }, _))
    ));
    let sentinel_start = if recs.len() >= 2 {
        recs[recs.len() - 2].1
    } else {
        0
    };
    std::fs::write(victim, &data[..sentinel_start]).unwrap();

    let (store, report) = recover(&dir, &dir).unwrap();
    assert!(
        report.cutoff < u64::MAX,
        "crashed session bounds the cutoff"
    );
    assert!(report.replayed >= 1_500, "{report:?}");
    let s = store.session().unwrap();
    for i in [0u32, 749, 1_499] {
        assert_eq!(
            s.get(format!("key{i:06}").as_bytes(), Some(&[0])).unwrap()[0],
            i.to_le_bytes()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_rotation_sealed_with_empty_successor() {
    // The other mid-rotation window: current sealed, successor created
    // but still empty. The session must read as crashed with the cutoff
    // at its last durable timestamp — not as cleanly closed (the sealed
    // segment ends in a sentinel, but it is not the newest).
    let dir = tmpdir("emptysucc");
    build_segmented_store(&dir, 800);
    let segs = mtkv::session_segments(&dir).remove(&0).unwrap();
    // Rebuild the on-disk state "as of" a rotation boundary: drop every
    // segment after the first sealed one, add the empty successor.
    let (first_seg, first_path) = &segs[0];
    for (_, p) in &segs[1..] {
        std::fs::remove_file(p).unwrap();
    }
    let succ = mtkv::segment_path(&dir, 0, first_seg + 1);
    std::fs::write(&succ, b"").unwrap();
    let kept = decode_all(&std::fs::read(first_path).unwrap())
        .iter()
        .filter(|(r, _)| !r.is_marker())
        .count();

    let (store, report) = recover(&dir, &dir).unwrap();
    assert!(
        report.cutoff < u64::MAX,
        "an empty active segment is a crash, not a clean close: {report:?}"
    );
    assert_eq!(report.replayed, kept as u64, "{report:?}");
    let s = store.session().unwrap();
    assert_eq!(
        s.get(b"key000000", Some(&[0])).unwrap()[0],
        0u32.to_le_bytes()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_truncation_partial_deletion_recovers() {
    // Truncation deletes covered segments oldest-first; a crash partway
    // leaves an arbitrary subset deleted. The checkpoint (whose manifest
    // is durable before truncation starts) carries the deleted records.
    let dir = tmpdir("midtrunc");
    let meta;
    {
        let store = Store::persistent_with(&dir, DurabilityConfig::tiny_segments(2048)).unwrap();
        let s = store.session().unwrap();
        for i in 0..1_500u32 {
            s.put(
                format!("key{i:06}").as_bytes(),
                &[(0, &i.to_le_bytes()[..])],
            );
        }
        assert!(s.force_log());
        meta = write_checkpoint(&store, &dir, 2).unwrap();
        assert!(s.force_log()); // durable record past start_ts in every live log
        s.simulate_crash();
    }
    // Delete every *other* covered sealed segment — a truncation pass
    // that died in the middle.
    let segs = mtkv::session_segments(&dir).remove(&0).unwrap();
    let covered: Vec<&PathBuf> = segs
        .iter()
        .take(segs.len() - 1) // never the active segment
        .filter(|(_, p)| {
            let data = std::fs::read(p).unwrap();
            let recs = decode_all(&data);
            matches!(recs.last(), Some((LogRecord::CleanClose { .. }, _)))
                && recs
                    .iter()
                    .filter(|(r, _)| !r.is_marker())
                    .all(|(r, _)| r.timestamp() < meta.start_ts)
        })
        .map(|(_, p)| p)
        .collect();
    assert!(
        covered.len() >= 2,
        "need covered segments: {}",
        covered.len()
    );
    for p in covered.iter().step_by(2) {
        std::fs::remove_file(p).unwrap();
    }
    let (store, report) = recover(&dir, &dir).unwrap();
    assert!(report.used_checkpoint, "{report:?}");
    let s = store.session().unwrap();
    for i in [0u32, 888, 1_499] {
        assert_eq!(
            s.get(format!("key{i:06}").as_bytes(), Some(&[0])).unwrap()[0],
            i.to_le_bytes(),
            "key{i:06}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_active_segment_after_rotations_keeps_sealed_data() {
    // Tear the active segment mid-record: every sealed segment's data
    // survives, only the active tail is lost.
    let dir = tmpdir("tornactive");
    build_segmented_store(&dir, 1_200);
    let segs = mtkv::session_segments(&dir).remove(&0).unwrap();
    assert!(segs.len() >= 2);
    let (_, active) = segs.last().unwrap();
    let data = std::fs::read(active).unwrap();
    if data.len() > 9 {
        std::fs::write(active, &data[..data.len() - 9]).unwrap();
    }
    let sealed_records: usize = segs[..segs.len() - 1]
        .iter()
        .map(|(_, p)| {
            decode_all(&std::fs::read(p).unwrap())
                .iter()
                .filter(|(r, _)| !r.is_marker())
                .count()
        })
        .sum();
    let (store, report) = recover(&dir, &dir).unwrap();
    assert!(
        report.replayed >= sealed_records as u64,
        "sealed segments fully replay: {report:?} (sealed {sealed_records})"
    );
    let s = store.session().unwrap();
    assert_eq!(
        s.get(b"key000000", Some(&[0])).unwrap()[0],
        0u32.to_le_bytes()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_directory_recovers_to_empty_store() {
    let dir = tmpdir("empty");
    let (store, report) = recover(&dir, &dir).unwrap();
    assert_eq!(report.replayed, 0);
    assert!(!report.used_checkpoint);
    // And the recovered store is usable + persistent.
    let s = store.session().unwrap();
    s.put(b"fresh", &[(0, b"start")]);
    assert!(s.force_log());
    assert_eq!(s.get(b"fresh", Some(&[0])).unwrap()[0], b"start");
    drop(s);
    let (store2, _) = recover(&dir, &dir).unwrap();
    let s2 = store2.session().unwrap();
    assert_eq!(s2.get(b"fresh", Some(&[0])).unwrap()[0], b"start");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn appended_junk_after_valid_records() {
    let dir = tmpdir("junk");
    build_store(&dir, 1_000);
    let log = &log_paths(&dir)[0];
    let mut f = OpenOptions::new().append(true).open(log).unwrap();
    f.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02]).unwrap();
    drop(f);
    let (store, report) = recover(&dir, &dir).unwrap();
    assert!(report.replayed >= 1_000);
    let s = store.session().unwrap();
    assert_eq!(
        s.get(b"key000999", Some(&[0])).unwrap()[0],
        999u32.to_le_bytes()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
