//! Deterministic property test for the value-segment read path: for a
//! populated cold tier, truncating a vseg at **every** byte offset and
//! flipping **every** byte must yield a typed [`ValueError`] for every
//! pointer whose payload the mutation touches — never wrong bytes, and
//! never a torn prefix surfacing as a value. Recovery of the mutilated
//! directory must still mount and serve everything it installs
//! byte-for-byte correctly.
//!
//! (Deterministic by construction: seeded splitmix64, no `proptest`
//! crate — same discipline as `log_proptest.rs`.)

use std::path::{Path, PathBuf};

use mtkv::vtier::{encode_payload, vseg_ids, vseg_path, SegReader};
use mtkv::{DurabilityConfig, Store, ValuePtr};

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

/// One separated value's ground truth: key, the pointer the tree holds,
/// the column bytes, and the exact payload frame as appended.
struct Truth {
    key: Vec<u8>,
    ptr: ValuePtr,
    col: Vec<u8>,
    payload: Vec<u8>,
}

/// Populates `dir` with `n` separated values (threshold 8, every value
/// larger), forces everything durable, shuts down cleanly, and returns
/// the ground truth plus the path of the vseg holding the payloads.
fn build_tier(dir: &Path, seed: u64, n: usize) -> (Vec<Truth>, PathBuf) {
    let mut rng = Rng(seed);
    let config = DurabilityConfig::default().with_value_separation(8, 0);
    let store = Store::persistent_with(dir, config).unwrap();
    let session = store.session().unwrap();
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        let key = format!("k{i:04}").into_bytes();
        let mut col = format!("v{i:04}:").into_bytes();
        let len = 16 + (rng.below(96) as usize);
        while col.len() < len {
            col.push(b'a' + ((rng.next() % 26) as u8));
        }
        session.put(&key, &[(0, &col)]);
        values.push((key, col));
    }
    assert!(session.force_log());
    let mut truths = Vec::with_capacity(n);
    {
        let guard = masstree::pin();
        for (key, col) in values {
            let ptr = store
                .tree()
                .get(&key, &guard)
                .and_then(|v| v.ptr())
                .expect("every value exceeds the threshold");
            let mut payload = Vec::new();
            encode_payload(&[&col], &mut payload);
            assert_eq!(payload.len() as u64, u64::from(ptr.len));
            truths.push(Truth {
                key,
                ptr,
                col,
                payload,
            });
        }
    }
    drop(session);
    drop(store);
    let segs = vseg_ids(dir);
    assert_eq!(segs.len(), 1, "one active segment holds every payload");
    (truths, vseg_path(dir, segs[0]))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtkv-vsegprop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_byte_truncation_yields_typed_errors_never_wrong_bytes() {
    let dir = fresh_dir("trunc");
    let (truths, vpath) = build_tier(&dir, 0x5eed_0001, 48);
    let original = std::fs::read(&vpath).unwrap();
    for cut in 0..=original.len() {
        std::fs::write(&vpath, &original[..cut]).unwrap();
        let reader = SegReader::new(&dir);
        for t in &truths {
            let intact = t.ptr.off + u64::from(t.ptr.len) <= cut as u64;
            match reader.read(t.ptr) {
                Ok(bytes) => {
                    assert!(intact, "cut {cut}: a pointer past the cut produced bytes");
                    assert_eq!(
                        bytes, t.payload,
                        "cut {cut}: an intact frame must read back exactly"
                    );
                }
                Err(e) => assert!(!intact, "cut {cut}: intact frame refused with {e:?}"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corruption_anywhere_yields_checksum_errors_never_wrong_bytes() {
    let dir = fresh_dir("flip");
    let (truths, vpath) = build_tier(&dir, 0x5eed_0002, 32);
    let original = std::fs::read(&vpath).unwrap();
    for pos in 0..original.len() {
        let mut mutated = original.clone();
        mutated[pos] ^= 0x5a;
        std::fs::write(&vpath, &mutated).unwrap();
        let reader = SegReader::new(&dir);
        for t in &truths {
            let hit = (t.ptr.off..t.ptr.off + u64::from(t.ptr.len)).contains(&(pos as u64));
            match reader.read(t.ptr) {
                Ok(bytes) => {
                    assert!(!hit, "pos {pos}: a corrupted frame produced bytes");
                    assert_eq!(bytes, t.payload, "pos {pos}: untouched frame changed");
                }
                Err(e) => {
                    assert!(hit, "pos {pos}: untouched frame refused with {e:?}");
                    assert_eq!(
                        e,
                        mtkv::ValueError::ChecksumMismatch,
                        "pos {pos}: a present-but-corrupt payload is a checksum error"
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutilated_vseg_recovery_still_mounts_and_serves_checked_reads() {
    // Sampled offsets through the full stack: recovery must mount the
    // directory whatever we did to the vseg, and `get_checked` on the
    // recovered store returns the exact bytes, a typed error, or
    // (when replay verified and skipped the record) absence — never
    // wrong bytes.
    let dir = fresh_dir("recover");
    let (truths, vpath) = build_tier(&dir, 0x5eed_0003, 24);
    let original = std::fs::read(&vpath).unwrap();
    let checks = |label: &str| {
        let (store, _report) = mtkv::recover(&dir, &dir).unwrap();
        store.stop_background_checkpointer();
        let session = store.session().unwrap();
        for t in &truths {
            // Refused (`Err`) or skipped (`Ok(None)`) are both safe.
            if let Ok(Some(cols)) = session.get_checked(&t.key, None) {
                assert_eq!(
                    cols,
                    vec![t.col.clone()],
                    "{label}: recovered value for {:?} has wrong bytes",
                    String::from_utf8_lossy(&t.key)
                );
            }
        }
    };
    for cut in (0..=original.len()).step_by(37) {
        std::fs::write(&vpath, &original[..cut]).unwrap();
        checks("truncation");
        std::fs::write(&vpath, &original).unwrap();
    }
    for pos in (0..original.len()).step_by(41) {
        let mut mutated = original.clone();
        mutated[pos] ^= 0x5a;
        std::fs::write(&vpath, &mutated).unwrap();
        checks("corruption");
        std::fs::write(&vpath, &original).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
