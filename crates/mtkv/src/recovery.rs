//! Crash recovery (§5 of the paper), segment-aware.
//!
//! A session's log is a chain of segments (`log-<session>.<seg>`, see
//! `log.rs`); within a session, records are timestamp-ordered across the
//! chain, and every sealed segment ends in a clean-close sentinel. Every
//! pass below streams segments — and checkpoint parts, which hold the
//! same log frames — through a [`SegmentWalker`] window and borrows each
//! record in place; no file is read whole.
//!
//! Recovery first summarises each segment and computes the cutoff `t =
//! min over *crashed* sessions of the session's max record timestamp
//! (across all its surviving segments)`: records after `t` may be
//! missing from other logs (their group commits never completed), so
//! they are dropped to keep the recovered state prefix-consistent. A
//! session whose **newest** segment ends in a clean-close sentinel is
//! complete by construction and is excluded from the `min` — a cleanly
//! closed session must not freeze the cutoff at its close time (see
//! `LogRecord::CleanClose`). It then loads the newest checkpoint that
//! *began* before `t` and replays the surviving segments in parallel
//! from the checkpoint's start timestamp. Checkpoint rows and log
//! records alike go through one per-file loop and [`install_if_newer`]
//! — the one replay rule: a record applies only if its version exceeds
//! the stored value's, so replay is idempotent and order-insensitive,
//! and a record that loses allocates nothing. Around that rule recovery does what only it does: it
//! read-verifies indirect pointers, leaves a tombstone per remove and
//! sweeps the tombstones at the end. Segments wholly covered
//! by the checkpoint were already truncated online, so the replay work
//! is bounded by the checkpoint cadence, not by process uptime.
//!
//! Finally, recovery **seals** what it consumed: every log file is
//! trimmed to the records at or before the cutoff and terminated with a
//! clean-close sentinel. This makes recovery repeatable — without it, a
//! second crash would let this crash's torn logs clamp the *next*
//! recovery's cutoff into the past (dropping acked writes), and records
//! this recovery dropped past the cutoff could resurrect later.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use masstree::{Guard, Masstree};

use crate::checkpoint::{latest_checkpoint_at_or_before, part_path};
use crate::log::{LogRecord, LogRecordRef, SegmentSummary, SegmentWalker};
use crate::store::{DurabilityConfig, Store};
use crate::value::ColValue;

/// Outcome of a recovery run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The cutoff timestamp `t` (`u64::MAX` when unconstrained — no
    /// logs, or every session closed cleanly).
    pub cutoff: u64,
    /// Records replayed (within the cutoff and checkpoint window).
    pub replayed: u64,
    /// Records dropped because they were past the cutoff.
    pub dropped_past_cutoff: u64,
    /// Keys loaded from the checkpoint.
    pub checkpoint_keys: u64,
    /// Whether a checkpoint was used.
    pub used_checkpoint: bool,
    /// Log segment files read.
    pub log_segments: u64,
    /// Log files rewritten by the post-recovery sealing pass (torn
    /// tails trimmed, past-cutoff records dropped, sentinel appended).
    pub sealed_logs: u64,
    /// Indirect (value-separated) records whose payload could not be
    /// verified in the value tier and were therefore skipped. Always 0
    /// for acked writes: every ack path forces the value tier before
    /// the WAL, so a durable pointer record implies a durable payload —
    /// an unresolved pointer can only come from an unacked tail.
    pub values_unresolved: u64,
}

/// All log files in `dir` (files named `log-*`).
pub fn log_files(dir: &Path) -> Vec<PathBuf> {
    let mut logs = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_file()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("log-"))
            {
                logs.push(p);
            }
        }
    }
    logs.sort();
    logs
}

/// Parses a log file name into `(session, segment)`. Both the segmented
/// form `log-<session>.<seg>` and the legacy single-file form
/// `log-<session>` (segment 0) are accepted.
pub fn parse_log_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("log-")?;
    match rest.split_once('.') {
        None => Some((rest.parse().ok()?, 0)),
        Some((s, g)) => Some((s.parse().ok()?, g.parse().ok()?)),
    }
}

/// Groups the log files in `dir` by session, each session's segments
/// sorted by segment number.
pub fn session_segments(dir: &Path) -> BTreeMap<u64, Vec<(u64, PathBuf)>> {
    let mut out: BTreeMap<u64, Vec<(u64, PathBuf)>> = BTreeMap::new();
    for path in log_files(dir) {
        let Some((session, seg)) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(parse_log_name)
        else {
            continue;
        };
        out.entry(session).or_default().push((seg, path));
    }
    for segs in out.values_mut() {
        segs.sort_by_key(|&(seg, _)| seg);
    }
    out
}

/// One segment file and what a full walk of it found.
struct Segment {
    path: PathBuf,
    summary: SegmentSummary,
}

/// The replay rule (§5), for checkpoint rows and log records alike:
/// installs `build()` for `key` unless the tree already holds a value
/// at or past `version`, in which case the key is left as it is and
/// nothing is built. Records carry the full resulting value (not an
/// update delta), so a newer record simply replaces what is resident —
/// which is what makes out-of-order replay across segments and
/// sessions safe.
fn install_if_newer(
    tree: &Masstree<ColValue>,
    key: &[u8],
    version: u64,
    build: impl FnOnce() -> Box<ColValue>,
    guard: &Guard,
) {
    let mut build = Some(build);
    tree.put_with(
        key,
        |old| match old {
            Some(prev) if prev.version() >= version => None,
            _ => build.take().map(|b| b()),
        },
        guard,
    );
}

/// The one replay loop, for log segments and checkpoint parts alike
/// (both are sequences of log frames): one thread, one walker and one
/// pin per file, and every data record `admit` passes goes through
/// [`install_if_newer`], its value built straight from the borrowed
/// frame. Markers are skipped; a file's walk ends at its first torn or
/// corrupt frame. Returns, per file, the records admitted and the
/// largest version of any data record walked (admitted or not: the
/// recovered store's versions start past every version its files hold).
fn replay_files(
    tree: &Masstree<ColValue>,
    files: impl Iterator<Item = PathBuf>,
    admit: impl Fn(&LogRecordRef<'_>) -> bool + Sync,
) -> Vec<std::io::Result<(u64, u64)>> {
    let admit = &admit;
    let replay = move |path: &Path| -> std::io::Result<(u64, u64)> {
        let mut walker = SegmentWalker::default();
        let mut walk = walker.walk(path)?;
        // One pin for the whole file: replaced values are reclaimed once
        // it ends, not collected record by record.
        let guard = masstree::pin();
        let (mut admitted, mut max_version) = (0, 0);
        while let Some(rec) = walk.next_record()? {
            if rec.is_marker() {
                continue; // heartbeat / clean-close / create marker
            }
            max_version = max_version.max(rec.version());
            if admit(&rec) {
                let build = || ColValue::from_record(&rec);
                install_if_newer(tree, rec.key(), rec.version(), build, &guard);
                admitted += 1;
            }
        }
        Ok((admitted, max_version))
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = files
            .map(|path| scope.spawn(move || replay(&path)))
            .collect();
        let join = |h: std::thread::ScopedJoinHandle<'_, _>| h.join().expect("replayer panicked");
        handles.into_iter().map(join).collect()
    })
}

/// Rebuilds a store from `log_dir` (logs) and `ckpt_dir` (checkpoints;
/// may equal `log_dir`). The returned store has logging re-attached to
/// `log_dir` so new sessions keep appending.
///
/// Recovery requires exclusive ownership of `log_dir`: it rewrites
/// (seals) the log files it consumed, so it must never run against a
/// directory a live store is still logging into.
pub fn recover(log_dir: &Path, ckpt_dir: &Path) -> std::io::Result<(Arc<Store>, RecoveryReport)> {
    recover_with(log_dir, ckpt_dir, DurabilityConfig::default())
}

/// [`recover`], attaching `config` to the rebuilt store (and starting
/// its background checkpointer when the config asks for one).
pub fn recover_with(
    log_dir: &Path,
    ckpt_dir: &Path,
    config: DurabilityConfig,
) -> std::io::Result<(Arc<Store>, RecoveryReport)> {
    let mut report = RecoveryReport::default();

    // Walk every segment of every session once (tolerating torn tails)
    // for the summaries the cutoff needs.
    let mut walker = SegmentWalker::default();
    let mut sessions: Vec<Vec<Segment>> = Vec::new();
    for (_session, segs) in session_segments(log_dir) {
        let mut scanned = Vec::with_capacity(segs.len());
        for (_seg, path) in segs {
            let summary = walker.scan(&path, |_| true)?;
            scanned.push(Segment { path, summary });
            report.log_segments += 1;
        }
        sessions.push(scanned);
    }

    // Cutoff: min over *crashed* sessions of the session's max record
    // timestamp across all surviving segments. A session with no records
    // at all contributes nothing — **by evidence**, not trust: session
    // creation durably syncs a `SessionCreate` journal entry before the
    // session is handed out (`Store::session`), so an empty chain can
    // only belong to a session whose creation never completed and that
    // therefore never executed (let alone lost) any operation. A
    // just-created session that crashed carries at least that entry, so
    // its unaccounted window correctly clamps the cutoff at its creation
    // time (until its heartbeats advance it). A session whose newest
    // segment ends in a
    // clean-close sentinel closed cleanly: its silence past the sentinel
    // is complete knowledge — not missing data — and must not freeze the
    // cutoff at the close time (which would drop everything other
    // sessions logged afterwards). Note the sentinel must terminate the
    // *newest* segment: every sealed (rotated-out) segment also ends in
    // one, which says nothing about how the session ended. If every
    // session closed cleanly there is no cutoff at all (`u64::MAX`):
    // nothing was lost, everything replays.
    let cutoff = sessions
        .iter()
        .filter_map(|segs| {
            if segs.iter().all(|s| !s.summary.nonempty) || segs.last()?.summary.sealed {
                return None;
            }
            segs.iter().map(|s| s.summary.max_ts).max()
        })
        .min()
        .unwrap_or(u64::MAX);
    report.cutoff = cutoff;

    // Newest complete checkpoint that began before the cutoff — NOT
    // "the newest, if it qualifies": a store whose truncation froze
    // after a logger death keeps writing checkpoints that a post-crash
    // cutoff may reject, and only an older retained checkpoint pairs
    // with segments truncated back when the store was healthy. Falling
    // back to it is sound: truncation under checkpoint C only ever
    // removes records stamped before C.start_ts, so the logs still hold
    // everything from any retained checkpoint's start onward.
    let ckpt = latest_checkpoint_at_or_before(ckpt_dir, cutoff);

    let mut tree: Masstree<ColValue> = Masstree::new();
    let mut max_version = 0u64;
    let mut replay_from = 0u64;
    if let Some((path, meta)) = &ckpt {
        // Parallel checkpoint load, one thread per part, through the
        // segment loop: a part's rows are put frames, and none is
        // filtered. The checkpoint forced the value tier before
        // publishing its manifest, so an indirect row's payload is
        // durable; reads still re-verify its checksum. Rows are counted
        // against the manifest: a missing part or a short count (a
        // damaged or truncated part) abandons the checkpoint, and the
        // logs alone rebuild the store (slower but complete).
        let parts = (0..meta.parts).map(|t| part_path(path, t));
        let loaded: std::io::Result<Vec<_>> =
            replay_files(&tree, parts, |_| true).into_iter().collect();
        match loaded {
            Ok(parts) if parts.iter().map(|&(rows, _)| rows).sum::<u64>() == meta.keys => {
                report.used_checkpoint = true;
                report.checkpoint_keys = meta.keys;
                replay_from = meta.start_ts;
                max_version = parts.iter().map(|&(_, v)| v).max().unwrap_or(0);
            }
            // Damaged checkpoint: start over from the logs.
            _ => tree = Masstree::new(),
        }
    }

    // Replay the surviving segments in parallel. Indirect records are
    // **read-verified** before their pointer is installed: a pointer
    // whose payload is torn or missing belongs to an unacked tail (every
    // ack forces the tier before the WAL) and is skipped, not trusted.
    // The value segments are never modified by recovery, so double
    // recovery stays repeatable. A remove leaves a versioned tombstone
    // (`ColValue::from_record`): another log's older put for the key may
    // replay *after* it and must not resurrect the key.
    let vreader = crate::vtier::SegReader::new(log_dir);
    let (dropped, unresolved) = (AtomicU64::new(0), AtomicU64::new(0));
    let skip = |n: &AtomicU64| {
        n.fetch_add(1, Ordering::Relaxed);
        false
    };
    let segment_filter = |rec: &LogRecordRef<'_>| {
        if rec.timestamp() > cutoff {
            skip(&dropped)
        } else if rec.timestamp() < replay_from {
            // Covered by the checkpoint: a record's timestamp is drawn
            // after its tree operation completes, so anything stamped
            // before the checkpoint began was visible to the checkpoint
            // scan (§5).
            false
        } else if rec.ptr().is_some_and(|p| vreader.read(p).is_err()) {
            skip(&unresolved)
        } else {
            true
        }
    };
    let segments = sessions.iter().flatten().map(|s| s.path.clone());
    for done in replay_files(&tree, segments, segment_filter) {
        let (replayed, maxv) = done?;
        report.replayed += replayed;
        max_version = max_version.max(maxv);
    }
    report.dropped_past_cutoff = dropped.into_inner();
    report.values_unresolved = unresolved.into_inner();
    drop(vreader);

    // Sweep the remove tombstones replay left.
    let mut live_by_seg: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    {
        let guard = masstree::pin();
        let mut dead: Vec<Vec<u8>> = Vec::new();
        tree.scan(b"", &guard, |k, v| {
            if let Some(p) = v.ptr() {
                *live_by_seg.entry(p.seg).or_default() += u64::from(p.len);
            } else if v.is_tombstone() {
                dead.push(k.to_vec());
            }
            true
        });
        for k in &dead {
            tree.remove(k, &guard);
        }
    }

    // Seal what was consumed: trim every log file to the records at or
    // before the cutoff (torn tails and junk included) and terminate it
    // with a clean-close sentinel. The disk now states exactly what this
    // recovery decided, so a *second* crash cannot re-litigate it: these
    // files no longer constrain the next recovery's cutoff (which would
    // drop writes acked after this recovery), and the records this
    // recovery dropped past the cutoff can never resurrect.
    report.sealed_logs = seal_segments_to_cutoff(&mut walker, sessions.iter().flatten(), cutoff)?;

    let mut store = Store::with_state(tree, max_version + 1, config);
    store.set_log_dir(log_dir.to_path_buf());
    store.attach_value_tier()?;
    let store = Arc::new(store);
    // Rebuild per-segment live-byte accounts from the recovered tree so
    // GC's dead-fraction candidacy starts from truth, not zero.
    if let Some(tier) = store.value_tier() {
        tier.rebuild_accounts(&live_by_seg);
    }
    store.spawn_background_checkpointer();
    Ok((store, report))
}

/// Rewrites each file as exactly its records stamped at or before
/// `cutoff`, terminated by a clean-close sentinel (trimming any torn
/// tail), and reports how many files changed. A segment whose summary
/// shows it already is exactly that is not read again. The filter is
/// per-record, not a prefix cut: rotation
/// markers are stamped with the max timestamp already written (never
/// ahead of in-flight data — see `rotate_segment`), but logs written
/// before that stamping rule may still carry an out-of-band marker
/// ahead of data drained after it, and a prefix cut there could drop
/// durable data the replay above kept. (Per-session *data* records are
/// always in timestamp order — they are stamped under the buffer
/// lock.)
///
/// The rewrite goes through a temp file + rename, and each touched
/// directory is fsynced before returning, so a machine crash at any
/// point can neither lose the kept (acked, durable) records nor
/// resurrect the pre-seal torn log (which would clamp the next
/// recovery's cutoff).
fn seal_segments_to_cutoff<'a>(
    walker: &mut SegmentWalker,
    segments: impl Iterator<Item = &'a Segment>,
    cutoff: u64,
) -> std::io::Result<u64> {
    use std::io::Write;
    let mut sealed = 0u64;
    let mut dirs = std::collections::BTreeSet::new();
    for seg in segments {
        let sum = &seg.summary;
        if sum.sealed && sum.max_ts <= cutoff && sum.consumed == sum.file_len {
            continue; // already exactly a sealed record sequence
        }
        // Dotfile prefix: a crash mid-seal must not leave a file the
        // `log-*` listing would pick up.
        let name = seg.path.file_name().and_then(|n| n.to_str());
        let tmp = seg
            .path
            .with_file_name(format!(".seal-{}", name.unwrap_or("seg")));
        {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            let mut ends_clean = false;
            let mut walk = walker.walk(&seg.path)?;
            while let Some(rec) = walk.next_record()? {
                if rec.timestamp() <= cutoff {
                    out.write_all(rec.frame())?;
                    ends_clean = rec.is_clean_close();
                }
            }
            if !ends_clean {
                let ts = Some(cutoff).filter(|&t| t != u64::MAX);
                let mut sentinel = Vec::new();
                let timestamp = ts.unwrap_or_else(crate::clock::now);
                LogRecord::CleanClose { timestamp }.encode(&mut sentinel);
                out.write_all(&sentinel)?;
            }
            out.into_inner().map_err(|e| e.into_error())?.sync_data()?;
        }
        std::fs::rename(&tmp, &seg.path)?;
        if let Some(parent) = seg.path.parent() {
            dirs.insert(parent.to_path_buf());
        }
        sealed += 1;
    }
    // Fsync each touched directory once (not per rename), or a machine
    // crash shortly after recovery can lose a rename and resurrect the
    // pre-seal torn log — reintroducing the repeated-crash cutoff
    // clamping this seal exists to prevent. Recovery has not returned
    // yet, so no post-recovery write can be acked before this lands.
    for dir in dirs {
        std::fs::File::open(&dir)?.sync_all()?;
    }
    Ok(sealed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::write_checkpoint;
    use crate::log::read_log;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mtkv-rec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn recover_from_logs_only() {
        let dir = tmpdir("logs");
        {
            let store = Store::persistent(&dir).unwrap();
            let s = store.session().unwrap();
            for i in 0..1000u32 {
                s.put(
                    format!("key{i:04}").as_bytes(),
                    &[(0, &i.to_le_bytes()[..])],
                );
            }
            s.remove(b"key0007");
            assert!(s.force_log());
        }
        let (store, report) = recover(&dir, &dir).unwrap();
        assert!(!report.used_checkpoint);
        assert!(report.replayed >= 1000);
        let s = store.session().unwrap();
        assert_eq!(
            s.get(b"key0000", Some(&[0])).unwrap()[0],
            0u32.to_le_bytes()
        );
        assert_eq!(
            s.get(b"key0999", Some(&[0])).unwrap()[0],
            999u32.to_le_bytes()
        );
        assert_eq!(s.get(b"key0007", None), None, "remove replayed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_multiple_logs_respects_versions() {
        let dir = tmpdir("multi");
        {
            let store = Store::persistent(&dir).unwrap();
            let s1 = store.session().unwrap();
            let s2 = store.session().unwrap();
            // Interleaved updates to one key from two logged sessions.
            for i in 0..100u32 {
                if i % 2 == 0 {
                    s1.put(b"contended", &[(0, format!("{i}").as_bytes())]);
                } else {
                    s2.put(b"contended", &[(0, format!("{i}").as_bytes())]);
                }
            }
            assert!(s1.force_log());
            assert!(s2.force_log());
        }
        let (store, report) = recover(&dir, &dir).unwrap();
        // Both logs heartbeat at shutdown, so the cutoff t covers every
        // record and nothing is dropped (without heartbeats, the even
        // log's earlier last-timestamp would have cut off i = 99).
        assert_eq!(report.dropped_past_cutoff, 0);
        let s = store.session().unwrap();
        assert_eq!(s.get(b"contended", Some(&[0])).unwrap()[0], b"99");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_checkpoint_plus_tail() {
        let dir = tmpdir("ckpt");
        {
            let store = Store::persistent(&dir).unwrap();
            let s = store.session().unwrap();
            for i in 0..2_000u32 {
                s.put(
                    format!("key{i:05}").as_bytes(),
                    &[(0, &i.to_le_bytes()[..])],
                );
            }
            assert!(s.force_log());
            write_checkpoint(&store, &dir, 3).unwrap();
            // Post-checkpoint tail.
            for i in 2_000..2_500u32 {
                s.put(
                    format!("key{i:05}").as_bytes(),
                    &[(0, &i.to_le_bytes()[..])],
                );
            }
            s.put(b"key00000", &[(0, &u32::MAX.to_le_bytes()[..])]);
            assert!(s.force_log());
        }
        let (store, report) = recover(&dir, &dir).unwrap();
        assert!(report.used_checkpoint);
        assert_eq!(report.checkpoint_keys, 2_000);
        let s = store.session().unwrap();
        assert_eq!(
            s.get(b"key02499", Some(&[0])).unwrap()[0],
            2499u32.to_le_bytes()
        );
        assert_eq!(
            s.get(b"key00000", Some(&[0])).unwrap()[0],
            u32::MAX.to_le_bytes(),
            "post-checkpoint update wins over checkpointed value"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_chain_constrains_nothing_by_evidence() {
        // A session whose creation never completed leaves an empty log
        // chain (crash before the synced SessionCreate entry). With the
        // create-journal protocol, such a chain is *proof* the session
        // never ran anything, so it must not constrain the cutoff.
        let dir = tmpdir("empty-evidence");
        {
            let store = Store::persistent(&dir).unwrap();
            let s = store.session().unwrap();
            s.put(b"survivor", &[(0, b"v")]);
            assert!(s.force_log());
            // Simulate the half-created session: an empty segment file
            // with no records at all.
            std::fs::write(crate::log::segment_path(&dir, 99, 0), b"").unwrap();
        }
        let (store, report) = recover(&dir, &dir).unwrap();
        assert_eq!(
            report.cutoff,
            u64::MAX,
            "an empty chain (and cleanly closed sessions) constrain nothing"
        );
        let s = store.session().unwrap();
        assert_eq!(s.get(b"survivor", Some(&[0])).unwrap()[0], b"v");
        drop(s);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn session_create_entry_closes_the_cutoff_sliver() {
        // The sliver the create journal closes: a session that crashes
        // right after creation COULD have buffered (and lost) puts, so
        // it must clamp the cutoff at its creation time — before the
        // create entry, its empty file was indistinguishable from
        // "never ran anything" and the cutoff wrongly ignored it,
        // replaying other sessions' later (possibly dependent) records.
        let dir = tmpdir("create-sliver");
        {
            let store = Store::persistent(&dir).unwrap();
            let crashed = store.session().unwrap();
            crashed.simulate_crash();
            // Every record of the crashed session is now older than
            // anything logged from here on.
            let s = store.session().unwrap();
            s.put(b"after-crash", &[(0, b"v")]);
            assert!(s.force_log());
        }
        {
            // The crashed chain holds its create entry (and possibly
            // heartbeats) but no clean close.
            let records = read_log(&crate::log::segment_path(&dir, 0, 0)).unwrap();
            assert!(
                records
                    .iter()
                    .any(|r| matches!(r, LogRecord::SessionCreate { .. })),
                "creation journaled durably: {records:?}"
            );
            assert!(
                !records
                    .iter()
                    .any(|r| matches!(r, LogRecord::CleanClose { .. })),
                "simulated crash must not close cleanly"
            );
        }
        let (store, report) = recover(&dir, &dir).unwrap();
        assert_ne!(
            report.cutoff,
            u64::MAX,
            "a crashed just-created session must constrain the cutoff"
        );
        // The put happened after every timestamp the crashed session
        // durably wrote, so the (conservative, correct) cutoff drops it.
        let s = store.session().unwrap();
        assert_eq!(
            s.get(b"after-crash", None),
            None,
            "records beyond a crashed session's evidence horizon are dropped"
        );
        drop(s);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn puts_after_session_close_survive_recovery() {
        // Regression for the ROADMAP "recovery cutoff vs short-lived
        // sessions" bug: session A closes early; without the clean-close
        // sentinel the cutoff froze at A's close time, dropping
        // everything session B logged afterwards and rejecting the later
        // checkpoint (observed live: 50k-key checkpoint + 50k logged
        // puts recovered as 1 key).
        let dir = tmpdir("cutoff");
        {
            let store = Store::persistent(&dir).unwrap();
            {
                // Session A: one early put, then a clean close.
                let a = store.session().unwrap();
                a.put(b"early", &[(0, b"from-A")]);
                assert!(a.force_log());
            }
            // Session B logs on, well past A's close.
            let b = store.session().unwrap();
            for i in 0..2_000u32 {
                b.put(
                    format!("late{i:05}").as_bytes(),
                    &[(0, &i.to_le_bytes()[..])],
                );
            }
            assert!(b.force_log());
            // A checkpoint *begun after A closed* must stay usable.
            write_checkpoint(&store, &dir, 2).unwrap();
            for i in 2_000..2_500u32 {
                b.put(
                    format!("late{i:05}").as_bytes(),
                    &[(0, &i.to_le_bytes()[..])],
                );
            }
            assert!(b.force_log());
        }
        let (store, report) = recover(&dir, &dir).unwrap();
        assert!(
            report.used_checkpoint,
            "checkpoint began after A's clean close and must not be \
             rejected by a frozen cutoff"
        );
        assert_eq!(report.dropped_past_cutoff, 0, "no session crashed");
        let s = store.session().unwrap();
        assert_eq!(s.get(b"early", Some(&[0])).unwrap()[0], b"from-A");
        for i in [0u32, 1_999, 2_000, 2_499] {
            assert_eq!(
                s.get(format!("late{i:05}").as_bytes(), Some(&[0]))
                    .unwrap_or_else(|| panic!("late{i:05} lost"))[0],
                i.to_le_bytes(),
                "post-close put late{i:05} must survive recovery"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_log_still_bounds_cleanly_closed_ones() {
        // A torn (crashed) log must keep constraining the cutoff even
        // when other logs closed cleanly: records stamped after the
        // crash point are dropped everywhere.
        let dir = tmpdir("crashed");
        let crashed_path;
        {
            let store = Store::persistent(&dir).unwrap();
            let a = store.session().unwrap();
            let b = store.session().unwrap();
            a.put(b"a-key", &[(0, b"1")]);
            assert!(a.force_log());
            b.put(b"b-key", &[(0, b"1")]);
            assert!(b.force_log());
            crashed_path = log_files(&dir)[0].clone();
        }
        // Simulate a crash of log A: truncate off its clean-close
        // sentinel (and anything after the first record).
        let data = std::fs::read(&crashed_path).unwrap();
        let (_, first) = crate::log::LogRecord::decode(&data).unwrap();
        std::fs::write(&crashed_path, &data[..first]).unwrap();
        let (_, report) = recover(&dir, &dir).unwrap();
        assert!(
            report.cutoff < u64::MAX,
            "a crashed log must still impose a finite cutoff"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn new_store_lifetimes_never_reuse_closed_log_files() {
        // A clean-close sentinel is trusted to be the final record of a
        // *complete* log, so a later store lifetime must not append to
        // the file: a crash before its first flush would leave the stale
        // sentinel terminal and recovery would wrongly exclude the
        // crashed log from the cutoff. Fresh lifetimes (both
        // `Store::persistent` and post-`recover` stores) therefore
        // allocate log ids past every existing file.
        let dir = tmpdir("reuse");
        {
            let store = Store::persistent(&dir).unwrap();
            let s = store.session().unwrap();
            s.put_single(b"k1", b"run1");
            assert!(s.force_log());
        }
        {
            let store = Store::persistent(&dir).unwrap();
            let s = store.session().unwrap();
            s.put_single(b"k2", b"run2");
            assert!(s.force_log());
        }
        let (store, _) = recover(&dir, &dir).unwrap();
        {
            let s = store.session().unwrap();
            s.put_single(b"k3", b"run3");
            assert!(s.force_log());
        }
        let logs = log_files(&dir);
        assert_eq!(logs.len(), 3, "one fresh log file per lifetime");
        for path in &logs {
            let records = read_log(path).unwrap();
            let closes = records
                .iter()
                .filter(|r| matches!(r, LogRecord::CleanClose { .. }))
                .count();
            assert!(closes <= 1, "{path:?}: one writer, at most one sentinel");
            if closes == 1 {
                assert!(
                    matches!(records.last(), Some(LogRecord::CleanClose { .. })),
                    "{path:?}: a sentinel can only be the final record"
                );
            }
        }
        let (store, _) = recover(&dir, &dir).unwrap();
        let s = store.session().unwrap();
        for (k, v) in [
            (&b"k1"[..], &b"run1"[..]),
            (b"k2", b"run2"),
            (b"k3", b"run3"),
        ] {
            assert_eq!(s.get(k, Some(&[0])).unwrap()[0], v);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writes_after_recovery_get_fresh_versions() {
        let dir = tmpdir("fresh");
        {
            let store = Store::persistent(&dir).unwrap();
            let s = store.session().unwrap();
            s.put_single(b"k", b"old");
            assert!(s.force_log());
        }
        let (store, _) = recover(&dir, &dir).unwrap();
        let s = store.session().unwrap();
        let v = s.put_single(b"k", b"new");
        assert!(v > 1, "versions continue past recovered state");
        assert_eq!(s.get(b"k", Some(&[0])).unwrap()[0], b"new");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_name_parsing() {
        assert_eq!(parse_log_name("log-0"), Some((0, 0)));
        assert_eq!(parse_log_name("log-17"), Some((17, 0)));
        assert_eq!(parse_log_name("log-3.9"), Some((3, 9)));
        assert_eq!(parse_log_name("log-12.345"), Some((12, 345)));
        assert_eq!(parse_log_name("log-x"), None);
        assert_eq!(parse_log_name("log-1.b"), None);
        assert_eq!(parse_log_name("ckpt-1"), None);
    }

    #[test]
    fn rotated_session_recovers_across_segments() {
        // Records written before and after rotations all survive, and
        // the sealed mid-chain segments (which end in clean-close
        // sentinels) do not make the *session* read as cleanly closed:
        // only the newest segment's tail decides that.
        let dir = tmpdir("segments");
        {
            let store = Store::persistent_with(&dir, DurabilityConfig::tiny_segments(512)).unwrap();
            let s = store.session().unwrap();
            for i in 0..400u32 {
                s.put(
                    format!("seg{i:05}").as_bytes(),
                    &[(0, &i.to_le_bytes()[..])],
                );
            }
            assert!(s.force_log());
        }
        assert!(
            session_segments(&dir).values().next().unwrap().len() >= 3,
            "rotation must have produced several segments"
        );
        let (store, report) = recover(&dir, &dir).unwrap();
        assert!(report.log_segments >= 3);
        let s = store.session().unwrap();
        for i in [0u32, 199, 399] {
            assert_eq!(
                s.get(format!("seg{i:05}").as_bytes(), Some(&[0])).unwrap()[0],
                i.to_le_bytes()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_seals_crashed_logs_for_the_next_crash() {
        // The repeated-crash hazard: a crashed (torn) log consumed by one
        // recovery must not clamp the cutoff of the *next* recovery —
        // otherwise every write acked after the first recovery would be
        // dropped by the second.
        let dir = tmpdir("reseal");
        {
            let store = Store::persistent(&dir).unwrap();
            let s = store.session().unwrap();
            s.put_single(b"old", b"1");
            assert!(s.force_log());
            // Crash: no sentinel, old log stays torn-looking.
            s.simulate_crash();
        }
        let (store, r1) = recover(&dir, &dir).unwrap();
        assert!(r1.cutoff < u64::MAX, "first recovery saw the crash");
        assert!(r1.sealed_logs >= 1, "crashed log sealed: {r1:?}");
        // Life goes on: new writes, then a second crash.
        {
            let s = store.session().unwrap();
            s.put_single(b"new", b"2");
            assert!(s.force_log());
            s.simulate_crash();
        }
        drop(store);
        let (store, r2) = recover(&dir, &dir).unwrap();
        let s = store.session().unwrap();
        assert_eq!(s.get(b"old", Some(&[0])).unwrap()[0], b"1");
        assert_eq!(
            s.get(b"new", Some(&[0]))
                .expect("write acked after the first recovery must survive the second")[0],
            b"2"
        );
        assert_eq!(r2.dropped_past_cutoff, 0, "{r2:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_trims_a_torn_tail_after_the_sentinel_then_skips_the_segment() {
        let dir = tmpdir("torn-after-seal");
        {
            let store = Store::persistent(&dir).unwrap();
            let s = store.session().unwrap();
            s.put_single(b"k", b"v");
            assert!(s.force_log());
        }
        // A cleanly closed log, then half a record past its sentinel.
        let path = log_files(&dir)[0].clone();
        let clean = std::fs::read(&path).unwrap();
        let mut torn = clean.clone();
        LogRecord::Heartbeat { timestamp: 1 }.encode(&mut torn);
        torn.truncate(clean.len() + 5);
        std::fs::write(&path, &torn).unwrap();
        let (store, r1) = recover(&dir, &dir).unwrap();
        assert_eq!((r1.cutoff, r1.sealed_logs), (u64::MAX, 1), "{r1:?}");
        assert_eq!(std::fs::read(&path).unwrap(), clean, "only the tail went");
        drop(store);
        let (store, r2) = recover(&dir, &dir).unwrap();
        assert_eq!(r2.sealed_logs, 0, "a sealed, whole segment is left alone");
        let s = store.session().unwrap();
        assert_eq!(s.get(b"k", Some(&[0])).unwrap()[0], b"v");
        drop(s);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_is_repeatable_after_sealing() {
        // Two consecutive recoveries of the same directory must agree:
        // sealing pins the first recovery's cutoff decision to disk.
        let dir = tmpdir("idem");
        {
            let store = Store::persistent(&dir).unwrap();
            let a = store.session().unwrap();
            let b = store.session().unwrap();
            for i in 0..300u32 {
                a.put(format!("a{i:04}").as_bytes(), &[(0, &i.to_le_bytes()[..])]);
                b.put(format!("b{i:04}").as_bytes(), &[(0, &i.to_le_bytes()[..])]);
            }
            assert!(a.force_log());
            assert!(b.force_log());
            // a crashes mid-air, b unforced tail beyond the crash point.
            a.simulate_crash();
            b.simulate_crash();
        }
        // Tear b's tail mid-record to make it interesting.
        let logs = log_files(&dir);
        let data = std::fs::read(&logs[1]).unwrap();
        std::fs::write(&logs[1], &data[..data.len() - 3]).unwrap();
        let (store1, r1) = recover(&dir, &dir).unwrap();
        let guard = masstree::pin();
        let keys1 = store1.tree().count_keys(&guard);
        drop(guard);
        drop(store1);
        let (store2, r2) = recover(&dir, &dir).unwrap();
        let guard = masstree::pin();
        let keys2 = store2.tree().count_keys(&guard);
        drop(guard);
        assert_eq!(keys1, keys2, "{r1:?} vs {r2:?}");
        assert_eq!(r2.replayed, r1.replayed, "same records replay");
        assert_eq!(r2.dropped_past_cutoff, 0, "nothing left past the seal");
        assert_eq!(r2.sealed_logs, 0, "second recovery rewrites nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
