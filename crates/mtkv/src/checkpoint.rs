//! Checkpointing (§5 of the paper).
//!
//! Masstree periodically writes out a checkpoint containing all keys and
//! values: it speeds recovery and allows log space to be reclaimed.
//! Checkpoints run in parallel with request processing (they are *fuzzy*:
//! concurrent puts may or may not be included; recovery fixes this up by
//! replaying the log from the checkpoint's start timestamp, applying
//! records in value-version order).
//!
//! The key space is split into byte-prefix ranges, one per part writer,
//! each writing its own part file; a manifest written last (via atomic
//! rename) makes the checkpoint complete.
//!
//! A part file is a log segment in all but name: one put frame per key
//! (`log.rs`'s record format, written by the WAL's own encoder), each
//! stamped with the checkpoint's `start_ts`. Recovery streams a part
//! through the same `SegmentWalker` window as a segment and applies each
//! row through the same replay gate, so no file is read whole and a
//! loaded row costs its value's one block.
//!
//! # A bounded footprint
//!
//! A checkpoint runs beside request processing for as long as it takes
//! to write the whole tree, so what it holds while it runs is what it
//! costs. A durability cycle walks the tree twice — the sampling
//! pre-scan, then the part writers, which also collect the references
//! the value tier's GC needs — and both walks go through
//! [`walk_pinned`], which pins the epoch for at most [`PIN_ROWS`] rows
//! and then re-enters the tree at its [`ScanCursor`]'s anchor under a
//! fresh pin. Epoch reclamation (§4.6.1) frees a retired value only
//! once every pinned thread has moved on, so a value overwritten during
//! the checkpoint is freed a chunk or two later, not after the writer's
//! whole partition. Each part writer encodes its frames straight into
//! one [`PART_BUFFER`]-byte buffer and writes it out whenever the next
//! frame would not fit; the store keeps those buffers from one
//! durability cycle to the next, so a warm cycle makes no large
//! allocation.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use masstree::ScanCursor;

use crate::clock;
use crate::log::{put_frame, put_frame_len, seal_frame};
use crate::store::Store;
use crate::value::{ColValue, ValuePtr};

/// First line of a manifest. Version 2 parts are log frames; a manifest
/// of any other version is ignored, as a missing one is.
const MANIFEST_HEADER: &str = "masstree-checkpoint-v2";

/// Rows a durability-cycle walk visits under one epoch pin.
pub const PIN_ROWS: usize = 4096;

/// Bytes of each part writer's buffer.
pub const PART_BUFFER: usize = 256 << 10;

/// Part writers in each of the store's checkpoints, each with one
/// [`PART_BUFFER`]-byte buffer that the store keeps across cycles.
pub const PART_WRITERS: usize = 4;

/// What one part writer reuses from one checkpoint to the next: its
/// frame buffer, and the references into value-GC candidate segments
/// its last walk found, as `(key, version, pointer)`.
#[derive(Default)]
pub(crate) struct PartWriter {
    buf: Vec<u8>,
    pub(crate) gc_refs: Vec<(Vec<u8>, u64, ValuePtr)>,
}

/// Description of a completed checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Timestamp at which the checkpoint began; recovery replays logs
    /// from here.
    pub start_ts: u64,
    /// Timestamp at which it finished.
    pub end_ts: u64,
    /// Number of part files.
    pub parts: usize,
    /// Keys written.
    pub keys: u64,
}

impl CheckpointMeta {
    fn manifest_bytes(&self) -> String {
        format!(
            "{MANIFEST_HEADER}\nstart_ts {}\nend_ts {}\nparts {}\nkeys {}\n",
            self.start_ts, self.end_ts, self.parts, self.keys
        )
    }

    fn parse(s: &str) -> Option<CheckpointMeta> {
        let mut lines = s.lines();
        if lines.next()? != MANIFEST_HEADER {
            return None;
        }
        let mut meta = CheckpointMeta {
            start_ts: 0,
            end_ts: 0,
            parts: 0,
            keys: 0,
        };
        for line in lines {
            let (k, v) = line.split_once(' ')?;
            match k {
                "start_ts" => meta.start_ts = v.parse().ok()?,
                "end_ts" => meta.end_ts = v.parse().ok()?,
                "parts" => meta.parts = v.parse().ok()?,
                "keys" => meta.keys = v.parse().ok()?,
                _ => {}
            }
        }
        Some(meta)
    }
}

/// Directory name of a checkpoint started at `ts`.
fn ckpt_dir(base: &Path, ts: u64) -> PathBuf {
    base.join(format!("ckpt-{ts:020}"))
}

/// Part file `t` of the checkpoint in `dir`.
pub(crate) fn part_path(dir: &Path, t: usize) -> PathBuf {
    dir.join(format!("part-{t:04}"))
}

/// Visits the keys of `store`'s tree in `[lo, hi)` (`hi = None`: to the
/// end) in ascending order, calling `f(key, value)` until it returns
/// false.
///
/// The walk holds an epoch pin for at most [`PIN_ROWS`] rows, then
/// takes a fresh one and resumes through its cursor: with zero descent
/// when the border node it stopped in is unchanged, else by a descent
/// from the key after the last one visited. Like any scan it is fuzzy,
/// but a key present for the whole walk is visited exactly once, and
/// keys come in order. `f`'s references are valid only for the call.
/// The caller must not hold a pin of its own: a nested pin keeps the
/// outer one's epoch.
pub(crate) fn walk_pinned(
    store: &Store,
    lo: &[u8],
    hi: Option<&[u8]>,
    mut f: impl FnMut(&[u8], &ColValue) -> bool,
) {
    let mut cursor = ScanCursor::forward(lo);
    let mut more = true;
    while more && !cursor.is_done() {
        let guard = masstree::pin();
        let mut rows = 0;
        store.tree().scan_resume(&mut cursor, &guard, |key, value| {
            more = hi.is_none_or(|hi| key < hi) && f(key, value);
            rows += 1;
            more && rows < PIN_ROWS
        });
        #[cfg(test)]
        store
            .walked_rows
            .fetch_add(rows as u64, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Writes a checkpoint of `store` into `base/ckpt-<ts>/` using `threads`
/// parallel writers over sampled-quantile partitions of the key space.
///
/// Partition boundaries come from a sampling pre-scan (every 256th key),
/// so writers stay balanced whatever the key distribution — the paper
/// names parallelization imbalance as the checkpoint bottleneck (§5).
/// Each writer walks its partition under short epoch pins and writes
/// through one [`PART_BUFFER`]-byte buffer, allocated here; the store's
/// own durability cycle keeps its buffers across checkpoints instead. A
/// writer that fails or panics fails the checkpoint: no manifest is
/// written, and the directory is left for [`prune_checkpoints`] to sweep.
pub fn write_checkpoint(
    store: &Arc<Store>,
    base: &Path,
    threads: usize,
) -> io::Result<CheckpointMeta> {
    let mut writers = Vec::new();
    writers.resize_with(threads.clamp(1, 256), PartWriter::default);
    write_checkpoint_with(store, base, &mut writers, &[])
}

/// [`write_checkpoint`] through `writers`: each one's buffer is grown to
/// [`PART_BUFFER`] bytes on first use and kept at that size (a single
/// row larger than that grows it once), so a caller that keeps
/// `writers` allocates them once. Each writer's `gc_refs` collects the
/// rows that point into `gc_candidates` (ascending ids).
pub(crate) fn write_checkpoint_with(
    store: &Store,
    base: &Path,
    writers: &mut [PartWriter],
    gc_candidates: &[u64],
) -> io::Result<CheckpointMeta> {
    let threads = writers.len();
    let start_ts = clock::now();
    let dir = ckpt_dir(base, start_ts);
    std::fs::create_dir_all(&dir)?;

    // Sampling pre-scan: every 256th key becomes a boundary candidate.
    let mut samples: Vec<Vec<u8>> = Vec::new();
    let mut i = 0usize;
    walk_pinned(store, b"", None, |key, _| {
        if i.is_multiple_of(256) {
            samples.push(key.to_vec());
        }
        i += 1;
        true
    });
    // Writer `t` owns keys in [bound(t), bound(t + 1)); `None` = ±∞.
    let bound = |t: usize| {
        (t > 0 && t < threads && !samples.is_empty())
            .then(|| samples[t * samples.len() / threads].as_slice())
    };
    let results: Vec<io::Result<u64>> = std::thread::scope(|s| {
        let writers: Vec<_> = writers
            .iter_mut()
            .enumerate()
            .map(|(t, writer)| {
                let (lo, hi) = (bound(t).unwrap_or_default(), bound(t + 1));
                let path = part_path(&dir, t);
                s.spawn(move || write_part(store, &path, lo, hi, start_ts, writer, gc_candidates))
            })
            .collect();
        // Every writer is joined here, so a panicked one becomes this
        // checkpoint's error instead of unwinding into the caller — the
        // background checkpointer's loop, which must live on.
        writers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err(io::Error::other("checkpoint part writer panicked")))
            })
            .collect()
    });
    let mut keys = 0u64;
    for written in results {
        keys += written?;
    }
    // The parts may reference value-tier payloads appended after the
    // last WAL-driven force; make the tier durable BEFORE the manifest
    // rename publishes those references, or a crash could leave a valid
    // checkpoint whose pointers name torn payloads.
    if !store.force_value_tier() {
        return Err(io::Error::other("value tier force failed"));
    }
    let meta = CheckpointMeta {
        start_ts,
        end_ts: clock::now(),
        parts: threads,
        keys,
    };
    // Manifest written last, atomically: its presence = checkpoint
    // valid. Every step is fsynced — the manifest bytes before the
    // rename, then the checkpoint directory (the rename) and the base
    // directory (the ckpt-<ts> entry itself) — because the caller may
    // truncate the covered log segments the moment this returns: a
    // machine crash must never lose the manifest while the only other
    // copy of the covered records is already gone.
    let tmp = dir.join("MANIFEST.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(meta.manifest_bytes().as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join("MANIFEST"))?;
    File::open(&dir)?.sync_all()?;
    File::open(base)?.sync_all()?;
    Ok(meta)
}

/// One part writer: walks `[lo, hi)` and writes a put frame per row,
/// stamped `start_ts`, into a new file at `path`, and collects the rows
/// that point into `gc_candidates`. Returns the rows written.
fn write_part(
    store: &Store,
    path: &Path,
    lo: &[u8],
    hi: Option<&[u8]>,
    start_ts: u64,
    writer: &mut PartWriter,
    gc_candidates: &[u64],
) -> io::Result<u64> {
    #[cfg(test)]
    if store.take_injected_writer_panic() {
        panic!("injected checkpoint part writer panic");
    }
    let PartWriter { buf, gc_refs } = writer;
    gc_refs.clear();
    let mut file = File::create(path)?;
    buf.clear();
    buf.reserve_exact(PART_BUFFER);
    let mut written = 0u64;
    let mut io_result = Ok(());
    walk_pinned(store, lo, hi, |key, value| {
        if !buf.is_empty() && buf.len() + put_frame_len(key, value) > buf.capacity() {
            io_result = file.write_all(buf);
            buf.clear();
            if io_result.is_err() {
                return false;
            }
        }
        if let Some(ptr) = value
            .ptr()
            .filter(|p| gc_candidates.binary_search(&p.seg).is_ok())
        {
            gc_refs.push((key.to_vec(), value.version(), ptr));
        }
        // An indirect row records the pointer, not the payload: the
        // payload's segment is kept alive by the GC deletion rule (no
        // segment a durable checkpoint references is ever reclaimed).
        let start = put_frame(buf, start_ts, value.version(), key, value);
        seal_frame(buf, start);
        written += 1;
        true
    });
    io_result?;
    file.write_all(buf)?;
    buf.clear();
    file.sync_data()?;
    Ok(written)
}

/// Finds the newest complete checkpoint under `base`.
pub fn latest_checkpoint(base: &Path) -> Option<(PathBuf, CheckpointMeta)> {
    latest_checkpoint_at_or_before(base, u64::MAX)
}

/// Finds the newest complete checkpoint under `base` that *began* at or
/// before `cutoff`. Recovery uses this rather than [`latest_checkpoint`]
/// because newer checkpoints are not always usable: a store that stopped
/// truncating after a logger death keeps writing checkpoints whose
/// `start_ts` the eventual recovery cutoff may reject, while an older
/// retained checkpoint still pairs exactly with the surviving segments.
pub fn latest_checkpoint_at_or_before(
    base: &Path,
    cutoff: u64,
) -> Option<(PathBuf, CheckpointMeta)> {
    let mut best: Option<(PathBuf, CheckpointMeta)> = None;
    let entries = std::fs::read_dir(base).ok()?;
    for e in entries.flatten() {
        let path = e.path();
        if !path.is_dir() {
            continue;
        }
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.starts_with("ckpt-") {
            continue;
        }
        let Ok(manifest) = std::fs::read_to_string(path.join("MANIFEST")) else {
            continue; // incomplete checkpoint: ignore
        };
        let Some(meta) = CheckpointMeta::parse(&manifest) else {
            continue;
        };
        if meta.start_ts > cutoff {
            continue; // began past the cutoff: recovery would reject it
        }
        if best
            .as_ref()
            .is_none_or(|(_, m)| meta.start_ts > m.start_ts)
        {
            best = Some((path, meta));
        }
    }
    best
}

/// Deletes superseded checkpoints, keeping the newest `keep` complete
/// ones. Incomplete (manifest-less) directories older than the newest
/// complete checkpoint are crash debris and are deleted too; newer ones
/// are left alone — they may be a checkpoint currently being written.
/// Returns the number of checkpoint directories removed.
pub fn prune_checkpoints(base: &Path, keep: usize) -> io::Result<usize> {
    let keep = keep.max(1);
    let mut complete: Vec<(u64, PathBuf)> = Vec::new();
    let mut incomplete: Vec<(u64, PathBuf)> = Vec::new();
    let Ok(entries) = std::fs::read_dir(base) else {
        return Ok(0);
    };
    for e in entries.flatten() {
        let path = e.path();
        if !path.is_dir() {
            continue;
        }
        let Some(ts) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("ckpt-"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        let manifest_ok = std::fs::read_to_string(path.join("MANIFEST"))
            .ok()
            .and_then(|m| CheckpointMeta::parse(&m))
            .is_some();
        if manifest_ok {
            complete.push((ts, path));
        } else {
            incomplete.push((ts, path));
        }
    }
    complete.sort_by_key(|&(ts, _)| ts);
    let mut removed = 0;
    if complete.len() > keep {
        let cut = complete.len() - keep;
        for (_, path) in complete.drain(..cut) {
            std::fs::remove_dir_all(&path)?;
            removed += 1;
        }
    }
    if let Some(&(newest_ts, _)) = complete.last() {
        for (ts, path) in incomplete {
            if ts < newest_ts {
                std::fs::remove_dir_all(&path)?;
                removed += 1;
            }
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{LogRecord, SegmentWalker};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mtkv-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn checkpoint_roundtrip() {
        let dir = tmpdir("rt");
        let store = Store::in_memory();
        let s = store.session().unwrap();
        for i in 0..5_000u32 {
            s.put(
                format!("key{i:06}").as_bytes(),
                &[(0, &i.to_le_bytes()[..]), (1, b"x")],
            );
        }
        let meta = write_checkpoint(&store, &dir, 4).unwrap();
        assert_eq!(meta.keys, 5_000);
        assert_eq!(meta.parts, 4);
        let (path, found) = latest_checkpoint(&dir).unwrap();
        assert_eq!(found, meta);
        // All rows present across parts, each a put frame stamped with
        // the checkpoint's start.
        let mut rows = Vec::new();
        let mut walker = SegmentWalker::default();
        for t in 0..4 {
            let mut walk = walker.walk(&part_path(&path, t)).unwrap();
            while let Some(rec) = walk.next_record().unwrap() {
                assert_eq!(rec.timestamp(), meta.start_ts);
                assert!(!rec.is_marker() && !rec.is_remove() && rec.ptr().is_none());
                rows.push((rec.key().to_vec(), rec.cols().count()));
            }
        }
        assert_eq!(rows.len(), 5_000);
        rows.sort();
        assert_eq!(rows[0], (b"key000000".to_vec(), 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The reference a part's row must match byte for byte: the owned
    /// log record of the same value, stamped with the checkpoint's start.
    fn reference_row(start_ts: u64, key: &[u8], value: &crate::value::ColValue) -> Vec<u8> {
        let (timestamp, version, key) = (start_ts, value.version(), key.to_vec());
        let rec = match value.ptr() {
            Some(ptr) => LogRecord::PutIndirect {
                timestamp,
                version,
                key,
                ptr,
            },
            None => LogRecord::Put {
                timestamp,
                version,
                key,
                cols: (0..value.ncols())
                    .map(|i| (i as u16, value.col(i).unwrap().to_vec()))
                    .collect(),
            },
        };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        buf
    }

    #[test]
    fn part_files_match_the_reference_row_encoder() {
        let dir = tmpdir("bytes");
        let store = Store::persistent_with(
            &dir.join("logs"),
            crate::DurabilityConfig::default().with_value_separation(96, 0),
        )
        .unwrap();
        let s = store.session().unwrap();
        let big = [0x5au8; 200];
        for i in 0..4_000u32 {
            let key = match i % 3 {
                0 => format!("k{i}"),
                1 => format!("a/much/longer/key/spanning/several/layers/{i:08}"),
                _ => format!("row{i:06}"),
            };
            let n = i.to_le_bytes();
            match i % 4 {
                0 => s.put(key.as_bytes(), &[(0, &n[..])]),
                1 => s.put(key.as_bytes(), &[(0, b""), (1, &n[..]), (5, b"x")]),
                2 => s.put(key.as_bytes(), &[(0, &big[..]), (1, &n[..])]), // indirect
                _ => s.put(key.as_bytes(), &[]),
            };
        }
        assert!(s.force_log());
        let base = dir.join("ckpt");
        let meta = write_checkpoint(&store, &base, 3).unwrap();
        let (path, _) = latest_checkpoint(&base).unwrap();
        // The parts tile the key space in order, so their concatenation
        // is one scan of the whole tree.
        let mut got = Vec::new();
        for t in 0..meta.parts {
            got.extend(std::fs::read(part_path(&path, t)).unwrap());
        }
        let mut want = Vec::new();
        let mut indirect = 0;
        let guard = masstree::pin();
        store.tree().scan(b"", &guard, |key, value| {
            indirect += usize::from(value.ptr().is_some());
            want.extend(reference_row(meta.start_ts, key, value));
            true
        });
        assert_eq!(meta.keys, 4_000);
        assert_eq!(indirect, 1_000, "the indirect row layout is covered");
        assert!(got == want, "part files differ from the reference encoding");
        drop(s);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_picks_newest_complete() {
        let dir = tmpdir("newest");
        let store = Store::in_memory();
        let s = store.session().unwrap();
        s.put_single(b"a", b"1");
        let m1 = write_checkpoint(&store, &dir, 2).unwrap();
        s.put_single(b"b", b"2");
        let m2 = write_checkpoint(&store, &dir, 2).unwrap();
        assert!(m2.start_ts > m1.start_ts);
        // An incomplete (manifest-less) newer directory must be ignored,
        // and so must one whose manifest names the v1 row format.
        std::fs::create_dir_all(dir.join("ckpt-99999999999999999999")).unwrap();
        let v1 = ckpt_dir(&dir, m2.start_ts + 1);
        std::fs::create_dir_all(&v1).unwrap();
        let v1_manifest = m2.manifest_bytes().replace("-v2\n", "-v1\n");
        std::fs::write(v1.join("MANIFEST"), v1_manifest).unwrap();
        let (_, found) = latest_checkpoint(&dir).unwrap();
        assert_eq!(found, m2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_newest_and_sweeps_debris() {
        let dir = tmpdir("prune");
        let store = Store::in_memory();
        let s = store.session().unwrap();
        let mut metas = Vec::new();
        for i in 0..4u32 {
            s.put_single(format!("k{i}").as_bytes(), b"v");
            metas.push(write_checkpoint(&store, &dir, 1).unwrap());
        }
        // Crash debris: an old incomplete dir and a newer-than-everything
        // incomplete dir (a checkpoint "currently being written").
        std::fs::create_dir_all(dir.join("ckpt-00000000000000000001")).unwrap();
        let inflight = ckpt_dir(&dir, u64::MAX - 1);
        std::fs::create_dir_all(&inflight).unwrap();
        let removed = prune_checkpoints(&dir, 2).unwrap();
        assert_eq!(removed, 3, "two old complete + one old incomplete");
        let (_, newest) = latest_checkpoint(&dir).unwrap();
        assert_eq!(newest, metas[3]);
        assert!(inflight.is_dir(), "in-flight checkpoint left alone");
        // The second-newest complete one also survived.
        assert!(ckpt_dir(&dir, metas[2].start_ts).is_dir());
        assert!(!ckpt_dir(&dir, metas[0].start_ts).is_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_checkpoint() {
        let dir = tmpdir("empty");
        let store = Store::in_memory();
        let meta = write_checkpoint(&store, &dir, 3).unwrap();
        assert_eq!(meta.keys, 0);
        let (path, _) = latest_checkpoint(&dir).unwrap();
        let mut walker = SegmentWalker::default();
        for t in 0..3 {
            let mut walk = walker.walk(&part_path(&path, t)).unwrap();
            assert!(walk.next_record().unwrap().is_none());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
