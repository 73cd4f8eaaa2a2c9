//! Crash-torture suite for the online durability subsystem (§4.4, §5).
//!
//! Each seeded round runs several writer threads against a persistent
//! store with tiny log segments (so rotation happens constantly), keeps
//! an **acked-write journal** per writer, then simulates a crash at an
//! injected point — clean shutdown, process death (logger killed with
//! its buffers abandoned), machine death (unsynced log tails torn at a
//! seeded byte), mid-rotation (a sealed segment's sentinel lost),
//! mid-checkpoint (manifest never renamed), or mid-truncation (only a
//! subset of covered segments deleted) — recovers, and asserts:
//!
//! - **No acked write is lost**: for every key, the recovered state is
//!   the state after some prefix of that key's operations at or past the
//!   ack barrier. ("Acked" means issued before a *global* force barrier
//!   across every session: the recovery cutoff `t` is a min over crashed
//!   logs, so a single session's force alone cannot promise survival —
//!   group commit is a fleet property, exactly as in §5.)
//! - **No torn record surfaces**: every recovered value byte-for-byte
//!   equals a value some op actually wrote.
//! - **Recovery is repeatable**: a second recovery of the same directory
//!   reproduces the first (the sealing pass pins the cutoff decision).
//!
//! The acceptance bar from the issue: ≥ 20 seeded rounds, zero lost
//! acked writes.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mtkv::{recover, session_segments, write_checkpoint, DurabilityConfig, LogRecord, Store};

const ROUNDS: u64 = 24;
const WRITERS: usize = 3;
const KEYS_PER_WRITER: usize = 16;
const PHASES: usize = 3;
const OPS_PER_PHASE: usize = 80;

/// splitmix64: deterministic, seedable, no external deps.
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Put,
    Remove,
}

/// One journaled operation of one writer.
#[derive(Debug, Clone)]
struct Op {
    key: usize, // index into the writer's key space
    kind: OpKind,
    value: Vec<u8>, // payload for puts (empty for removes)
}

fn key_bytes(writer: usize, key: usize) -> Vec<u8> {
    format!("w{writer}-k{key:04}").into_bytes()
}

fn value_bytes(writer: usize, op_index: usize, rng: &mut Rng) -> Vec<u8> {
    // Self-describing payload with deterministic filler: a torn or
    // mixed-up value cannot collide with any other op's bytes.
    let mut v = format!("w{writer}o{op_index:05}:").into_bytes();
    let len = 16 + (rng.below(32) as usize);
    while v.len() < len {
        v.push(b'a' + ((rng.next() % 26) as u8));
    }
    v
}

/// The states key `k` of `writer` may legally hold after recovery:
/// "state after the first `j` ops touching k", for every `j` from the
/// acked count to all of them. Returns (valid values, absent_allowed).
fn valid_states(ops: &[Op], acked_len: usize, key: usize) -> (Vec<&[u8]>, bool) {
    let touching: Vec<&Op> = ops.iter().filter(|o| o.key == key).collect();
    let acked_touching = ops[..acked_len].iter().filter(|o| o.key == key).count();
    let mut values = Vec::new();
    let mut absent_ok = false;
    for j in acked_touching..=touching.len() {
        if j == 0 {
            absent_ok = true;
        } else {
            match touching[j - 1].kind {
                OpKind::Put => values.push(touching[j - 1].value.as_slice()),
                OpKind::Remove => absent_ok = true,
            }
        }
    }
    (values, absent_ok)
}

struct RoundOutcome {
    /// Per-writer journals and their ack-barrier lengths.
    journals: Vec<(Vec<Op>, usize)>,
}

/// Runs the workload phase of one round and crashes it at the injected
/// point; on return the directory holds the simulated post-crash state.
fn run_round(dir: &Path, seed: u64) -> RoundOutcome {
    let mut rng = Rng(seed);
    let event = rng.below(4); // per-phase durability event selector
    let crash_mode = rng.below(4);
    let background = rng.below(2) == 0;

    let mut config = DurabilityConfig::tiny_segments(2048);
    if background {
        // Let the real background checkpointer race the writers too.
        config.checkpoint_interval = Some(std::time::Duration::from_millis(10));
    }
    let store = Store::persistent_with(dir, config).unwrap();

    let mut journals: Vec<(Vec<Op>, usize)> = (0..WRITERS).map(|_| (Vec::new(), 0)).collect();
    let mut sessions: Vec<Option<mtkv::Session>> = (0..WRITERS)
        .map(|_| Some(store.session().unwrap()))
        .collect();

    // Pre-plan every op so the journal exists even for ops the crash
    // swallows.
    let mut plans: Vec<Vec<Op>> = Vec::new();
    for w in 0..WRITERS {
        let mut r = Rng(seed ^ ((w as u64 + 1) * 0x1234_5678_9abc));
        let mut plan = Vec::new();
        for i in 0..PHASES * OPS_PER_PHASE {
            let key = r.below(KEYS_PER_WRITER as u64) as usize;
            let kind = if r.below(100) < 15 {
                OpKind::Remove
            } else {
                OpKind::Put
            };
            let value = match kind {
                OpKind::Put => value_bytes(w, i, &mut r),
                OpKind::Remove => Vec::new(),
            };
            plan.push(Op { key, kind, value });
        }
        plans.push(plan);
    }

    // A checkpoint whose manifest we may delete (mid-checkpoint crash),
    // or whose covered segments we partially delete (mid-truncation).
    let mut staged_ckpt = None;

    for phase in 0..PHASES {
        std::thread::scope(|scope| {
            for (w, session) in sessions.iter().enumerate() {
                let session = session.as_ref().unwrap();
                let plan = &plans[w];
                let force_every = 8 + (seed % 9) as usize;
                scope.spawn(move || {
                    let range = phase * OPS_PER_PHASE..(phase + 1) * OPS_PER_PHASE;
                    for (i, op) in plan[range.clone()]
                        .iter()
                        .enumerate()
                        .map(|(o, r)| (range.start + o, r))
                    {
                        let kb = key_bytes(w, op.key);
                        match op.kind {
                            OpKind::Put => {
                                session.put(&kb, &[(0, &op.value)]);
                            }
                            OpKind::Remove => {
                                session.remove(&kb);
                            }
                        }
                        if i % force_every == 0 {
                            assert!(session.force_log()); // per-session force: realistic I/O,
                                                          // but NOT an ack (see module docs)
                        }
                    }
                });
            }
        });
        for (w, j) in journals.iter_mut().enumerate() {
            j.0 = plans[w][..(phase + 1) * OPS_PER_PHASE].to_vec();
        }

        // Global ack barrier: every session forced after every op above
        // was issued. Only now do those ops count as acked.
        for s in sessions.iter().flatten() {
            assert!(s.force_log());
        }
        for j in journals.iter_mut() {
            j.1 = j.0.len();
        }

        // Mid-round durability event (between phases, writers quiet —
        // the background-checkpointer rounds cover racing cycles).
        if phase + 1 < PHASES {
            match event {
                1 => {
                    // Complete online cycle: checkpoint + truncate + prune.
                    store.checkpoint_now().unwrap();
                }
                2 => {
                    // Checkpoint that will "crash" before its manifest
                    // rename (we delete the manifest after the crash).
                    staged_ckpt = Some(write_checkpoint(&store, dir, 2).unwrap());
                }
                3 => {
                    // Checkpoint whose truncation will "crash" partway:
                    // manifest kept, a seeded subset of covered sealed
                    // segments deleted by hand below.
                    staged_ckpt = Some(write_checkpoint(&store, dir, 2).unwrap());
                }
                _ => {}
            }
        }
    }

    // ---- the crash ----
    store.stop_background_checkpointer();
    let mut crash_points = Vec::new();
    for s in sessions.iter_mut() {
        match crash_mode {
            0 => drop(s.take()), // clean shutdown: sentinel written, all durable
            _ => {
                if let Some(cp) = s.take().unwrap().simulate_crash() {
                    crash_points.push(cp);
                }
            }
        }
    }
    drop(store);

    if crash_mode >= 2 {
        // Machine crash: tear each active segment somewhere in its
        // unsynced tail — never below the durable watermark, which would
        // un-happen a completed sync.
        for cp in &crash_points {
            let Ok(data) = std::fs::read(&cp.active_segment) else {
                continue;
            };
            let lo = cp.durable_len.min(data.len() as u64);
            let cut = lo + rng.below(data.len() as u64 - lo + 1);
            std::fs::write(&cp.active_segment, &data[..cut as usize]).unwrap();
        }
    }
    if crash_mode == 3 {
        // Mid-rotation: one sealed segment's clean-close sentinel was in
        // the same unsynced window as the crash — strip it (data stays).
        let all: Vec<PathBuf> = session_segments(dir)
            .into_values()
            .flat_map(|segs| segs.into_iter().map(|(_, p)| p))
            .collect();
        let sealed: Vec<&PathBuf> = all
            .iter()
            .filter(|p| {
                let Ok(data) = std::fs::read(p) else {
                    return false;
                };
                let recs = decode_with_offsets(&data);
                matches!(recs.last(), Some((LogRecord::CleanClose { .. }, _)))
            })
            .collect();
        if !sealed.is_empty() {
            let victim = sealed[rng.below(sealed.len() as u64) as usize];
            let data = std::fs::read(victim).unwrap();
            let recs = decode_with_offsets(&data);
            let sentinel_start = if recs.len() >= 2 {
                recs[recs.len() - 2].1
            } else {
                0
            };
            std::fs::write(victim, &data[..sentinel_start]).unwrap();
        }
    }
    match (event, staged_ckpt) {
        (2, Some(meta)) => {
            // Mid-checkpoint crash: parts on disk, manifest never renamed.
            let ckpt = dir.join(format!("ckpt-{:020}", meta.start_ts));
            let _ = std::fs::remove_file(ckpt.join("MANIFEST"));
        }
        (3, Some(meta)) => {
            // Mid-truncation crash: delete a seeded subset of the sealed
            // segments the (complete, manifest-durable) checkpoint covers.
            let covered: Vec<PathBuf> = session_segments(dir)
                .into_values()
                .flat_map(|segs| {
                    let n = segs.len();
                    segs.into_iter()
                        .enumerate()
                        .filter(move |&(i, _)| i + 1 < n) // never the newest
                        .map(|(_, (_, p))| p)
                })
                .filter(|p| {
                    let Ok(data) = std::fs::read(p) else {
                        return false;
                    };
                    let recs = decode_with_offsets(&data);
                    matches!(recs.last(), Some((LogRecord::CleanClose { .. }, _)))
                        && recs
                            .iter()
                            .filter(|(r, _)| !r.is_marker())
                            .all(|(r, _)| r.timestamp() < meta.start_ts)
                })
                .collect();
            for p in covered {
                if rng.below(2) == 0 {
                    std::fs::remove_file(&p).unwrap();
                }
            }
        }
        _ => {}
    }

    RoundOutcome { journals }
}

fn decode_with_offsets(data: &[u8]) -> Vec<(LogRecord, usize)> {
    mtkv::log::decode_all(data)
}

/// Checks every key of every writer against its valid-state set.
fn assert_no_acked_loss(store: &Arc<Store>, outcome: &RoundOutcome, round: u64, tag: &str) {
    let session = store.session().unwrap();
    for (w, (ops, acked_len)) in outcome.journals.iter().enumerate() {
        for key in 0..KEYS_PER_WRITER {
            let kb = key_bytes(w, key);
            let recovered = session.get(&kb, Some(&[0])).map(|mut cols| cols.remove(0));
            let (values, absent_ok) = valid_states(ops, *acked_len, key);
            match &recovered {
                None => assert!(
                    absent_ok,
                    "round {round} [{tag}]: w{w} k{key}: key absent but an acked put \
                     was never followed by a possible remove; acked ops must survive"
                ),
                Some(v) => assert!(
                    values.contains(&v.as_slice()),
                    "round {round} [{tag}]: w{w} k{key}: recovered value {:?} matches no \
                     issued state at or past the ack barrier (torn or lost write)",
                    String::from_utf8_lossy(v)
                ),
            }
        }
    }
}

fn run_one(round: u64) {
    let dir = std::env::temp_dir().join(format!("mtkv-torture-{}-r{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let outcome = run_round(&dir, 0xdead_beef ^ (round * 0x9e37_79b9));

    let (store, report) = recover(&dir, &dir).unwrap();
    assert_no_acked_loss(&store, &outcome, round, "first recovery");
    let guard = masstree::pin();
    let keys1 = store.tree().count_keys(&guard);
    drop(guard);
    // The recovered store must be live: a fresh write round-trips.
    {
        let s = store.session().unwrap();
        s.put(b"post-recovery", &[(0, b"alive")]);
        assert!(s.force_log());
        assert_eq!(s.get(b"post-recovery", Some(&[0])).unwrap()[0], b"alive");
        s.remove(b"post-recovery");
    }
    drop(store);

    // Recovery must be repeatable: the sealing pass pinned the cutoff.
    let (store2, report2) = recover(&dir, &dir).unwrap();
    assert_no_acked_loss(&store2, &outcome, round, "second recovery");
    let guard = masstree::pin();
    let keys2 = store2.tree().count_keys(&guard);
    drop(guard);
    assert_eq!(
        keys1, keys2,
        "round {round}: repeated recovery diverged ({report:?} vs {report2:?})"
    );
    assert_eq!(
        report2.dropped_past_cutoff, 0,
        "round {round}: the first recovery's seal left past-cutoff records: {report2:?}"
    );
    drop(store2);
    let _ = std::fs::remove_dir_all(&dir);
}

// The rounds are split across a few #[test] fns so the harness runs them
// in parallel; together they cover ≥ 20 seeds (the acceptance bar), and
// every crash mode × durability event combination appears at least once.

#[test]
fn crash_torture_rounds_0_to_7() {
    for round in 0..8 {
        run_one(round);
    }
}

#[test]
fn crash_torture_rounds_8_to_15() {
    for round in 8..16 {
        run_one(round);
    }
}

#[test]
fn crash_torture_rounds_16_to_23() {
    for round in 16..ROUNDS {
        run_one(round);
    }
}

// ---- value-separation torture rounds ----
//
// Same acked-journal machinery, but the store runs with a low
// separation threshold and tiny value segments, so most payloads live
// in the cold tier and the WAL holds pointer records. Three extra
// crash families, selected per seed:
//
// - **Torn vseg tail**: the active value segment is cut at a seeded
//   byte at or past its durable watermark (never below — that would
//   un-happen a completed tier sync). Acked payloads sit below the
//   watermark because every ack path forces the tier *before* the WAL,
//   so only unacked values can tear.
// - **Pointer durable, payload not**: the final phase is left unacked;
//   a sleep lets the per-log 200 ms background force make WAL pointer
//   records durable (the background force deliberately does NOT force
//   the tier), then the vseg's whole unsynced tail is dropped. Recovery
//   meets durable pointers whose payloads never hit disk — it must
//   skip them (they were never acked) and count `values_unresolved`.
// - **Crash mid-GC**: heavy overwrites make segments mostly dead;
//   `checkpoint_now` relocates live values and condemns the sources,
//   and the crash lands before the *next* cycle would delete them —
//   old and new copies are both on disk, with the relocations in the
//   GC's own WAL chain. Version-gated replay must converge on one.
//
// Every round then asserts the same three properties as above: zero
// acked-write loss, no torn value surfacing, repeatable recovery.

const VALUE_ROUNDS: u64 = 12;

fn run_value_round(dir: &Path, seed: u64) -> RoundOutcome {
    let mut rng = Rng(seed);
    let vcrash = rng.below(3); // 0 torn tail, 1 ptr-durable/payload-not, 2 mid-GC
    let crash_mode = rng.below(2); // 0 process death, 1 machine death (WAL tails torn)

    let mut config = DurabilityConfig::tiny_segments(2048).with_value_separation(24, 0);
    config.value_segment_bytes = 1024;
    config.gc_dead_fraction = 0.25;
    let store = Store::persistent_with(dir, config).unwrap();

    let mut journals: Vec<(Vec<Op>, usize)> = (0..WRITERS).map(|_| (Vec::new(), 0)).collect();
    let mut sessions: Vec<Option<mtkv::Session>> = (0..WRITERS)
        .map(|_| Some(store.session().unwrap()))
        .collect();

    let mut plans: Vec<Vec<Op>> = Vec::new();
    for w in 0..WRITERS {
        let mut r = Rng(seed ^ ((w as u64 + 1) * 0x1234_5678_9abc));
        let mut plan = Vec::new();
        for i in 0..PHASES * OPS_PER_PHASE {
            let key = r.below(KEYS_PER_WRITER as u64) as usize;
            let kind = if r.below(100) < 15 {
                OpKind::Remove
            } else {
                OpKind::Put
            };
            let value = match kind {
                OpKind::Put => value_bytes(w, i, &mut r),
                OpKind::Remove => Vec::new(),
            };
            plan.push(Op { key, kind, value });
        }
        plans.push(plan);
    }

    for phase in 0..PHASES {
        std::thread::scope(|scope| {
            for (w, session) in sessions.iter().enumerate() {
                let session = session.as_ref().unwrap();
                let plan = &plans[w];
                let force_every = 8 + (seed % 9) as usize;
                scope.spawn(move || {
                    let range = phase * OPS_PER_PHASE..(phase + 1) * OPS_PER_PHASE;
                    for (i, op) in plan[range.clone()]
                        .iter()
                        .enumerate()
                        .map(|(o, r)| (range.start + o, r))
                    {
                        let kb = key_bytes(w, op.key);
                        match op.kind {
                            OpKind::Put => {
                                session.put(&kb, &[(0, &op.value)]);
                            }
                            OpKind::Remove => {
                                session.remove(&kb);
                            }
                        }
                        if i % force_every == 0 {
                            assert!(session.force_log());
                        }
                    }
                });
            }
        });
        for (w, j) in journals.iter_mut().enumerate() {
            j.0 = plans[w][..(phase + 1) * OPS_PER_PHASE].to_vec();
        }

        // The final phase stays UNACKED: its ops are the torn-tail
        // candidates. Earlier phases end with the global ack barrier.
        if phase + 1 < PHASES {
            for s in sessions.iter().flatten() {
                assert!(s.force_log());
            }
            for j in journals.iter_mut() {
                j.1 = j.0.len();
            }
            // A full durability cycle between phases: with a quarter of
            // the round's overwrites behind it this relocates live
            // values out of mostly-dead segments and condemns them.
            store.checkpoint_now().unwrap();
        }
    }

    if vcrash == 1 {
        // Let the 200 ms background WAL force run: pointer records for
        // the unacked final phase become durable while the value tier's
        // tail stays unsynced.
        std::thread::sleep(std::time::Duration::from_millis(350));
    }

    let (vseg_active, vseg_durable) = store
        .value_tier()
        .expect("value separation is configured")
        .progress();

    // ---- the crash ----
    store.stop_background_checkpointer();
    let mut crash_points = Vec::new();
    for s in sessions.iter_mut() {
        if let Some(cp) = s.take().unwrap().simulate_crash() {
            crash_points.push(cp);
        }
    }
    drop(store);

    if crash_mode == 1 && vcrash != 1 {
        // Machine death: tear WAL tails in the unsynced window. For the
        // ptr-durable family the WAL is left whole — the background
        // force made it durable, that is the point of the scenario.
        for cp in &crash_points {
            let Ok(data) = std::fs::read(&cp.active_segment) else {
                continue;
            };
            let lo = cp.durable_len.min(data.len() as u64);
            let cut = lo + rng.below(data.len() as u64 - lo + 1);
            std::fs::write(&cp.active_segment, &data[..cut as usize]).unwrap();
        }
    }
    let vpath = mtkv::vtier::vseg_path(dir, vseg_active);
    match vcrash {
        0 => {
            // Torn vseg tail: cut at a seeded byte in [durable, len].
            if let Ok(data) = std::fs::read(&vpath) {
                let lo = vseg_durable.min(data.len() as u64);
                let cut = lo + rng.below(data.len() as u64 - lo + 1);
                std::fs::write(&vpath, &data[..cut as usize]).unwrap();
            }
        }
        1 => {
            // The whole unsynced payload tail is gone; durable WAL
            // pointer records past the watermark now dangle.
            if let Ok(data) = std::fs::read(&vpath) {
                let cut = vseg_durable.min(data.len() as u64);
                std::fs::write(&vpath, &data[..cut as usize]).unwrap();
            }
        }
        _ => {
            // Mid-GC: nothing to mutilate — the relocated copies and
            // their condemned-but-undeleted sources are both on disk
            // already; the torn WAL above may have eaten any suffix of
            // the relocation log.
        }
    }

    RoundOutcome { journals }
}

fn run_one_value(round: u64) {
    let dir = std::env::temp_dir().join(format!("mtkv-vtorture-{}-r{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let outcome = run_value_round(&dir, 0xc01d_f00d ^ (round * 0x9e37_79b9));

    let (store, report) = recover(&dir, &dir).unwrap();
    assert!(
        store.value_tier().is_some(),
        "round {round}: recovery did not remount the value tier"
    );
    assert_no_acked_loss(&store, &outcome, round, "first recovery");
    let guard = masstree::pin();
    let keys1 = store.tree().count_keys(&guard);
    drop(guard);
    {
        let s = store.session().unwrap();
        s.put(b"post-recovery", &[(0, b"alive")]);
        assert!(s.force_log());
        assert_eq!(s.get(b"post-recovery", Some(&[0])).unwrap()[0], b"alive");
        s.remove(b"post-recovery");
    }
    drop(store);

    // Double recovery: vsegs are never modified by recovery and the
    // sealing pass pinned the WAL cutoff, so the second pass must
    // reproduce the first.
    let (store2, report2) = recover(&dir, &dir).unwrap();
    assert_no_acked_loss(&store2, &outcome, round, "second recovery");
    let guard = masstree::pin();
    let keys2 = store2.tree().count_keys(&guard);
    drop(guard);
    assert_eq!(
        keys1, keys2,
        "round {round}: repeated recovery diverged ({report:?} vs {report2:?})"
    );
    assert_eq!(
        report2.dropped_past_cutoff, 0,
        "round {round}: the first recovery's seal left past-cutoff records: {report2:?}"
    );
    drop(store2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn value_torture_rounds_0_to_5() {
    for round in 0..6 {
        run_one_value(round);
    }
}

#[test]
fn value_torture_rounds_6_to_11() {
    for round in 6..VALUE_ROUNDS {
        run_one_value(round);
    }
}

/// A put that writes some of a key's columns logs the **full resulting
/// value**, so a key whose columns came from different puts recovers
/// with all of them: the first put in a checkpoint and the update in a
/// log segment, or both in segments the crash leaves behind. A remove
/// between them drops the old columns for good. The recovered store
/// then takes more partial updates and crashes again: those survive the
/// second recovery the same way. Each update is read back at the version
/// its put returned.
#[test]
fn partial_column_updates_recover_as_full_values() {
    let dir = std::env::temp_dir().join(format!("mtkv-torture-cols-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let key = |i: u32| format!("pc{i:04}").into_bytes();
    let c1 = |i: u32| format!("c1-{i}").into_bytes();
    let mut want: Vec<Option<Vec<Vec<u8>>>> = vec![None; 320];

    let store = Store::persistent_with(&dir, DurabilityConfig::tiny_segments(2048)).unwrap();
    let session = store.session().unwrap();
    for i in 0..200 {
        session.put(&key(i), &[(0, b"first"), (1, &c1(i))]);
        want[i as usize] = Some(vec![b"first".to_vec(), c1(i)]);
    }
    assert!(session.force_log());
    store.checkpoint_now().unwrap();
    // After the checkpoint: column 0 alone over checkpointed keys, and
    // both puts of a key in the logs.
    for i in 0..100 {
        session.put(&key(i), &[(0, b"second")]);
        want[i as usize] = Some(vec![b"second".to_vec(), c1(i)]);
    }
    for i in 200..300 {
        session.put(&key(i), &[(0, b"first"), (1, &c1(i))]);
        let version = session.put(&key(i), &[(1, b"updated")]);
        // Read-your-writes: the put is visible at the version it returned.
        let seen = session.get_with(&key(i), |v| v.map(|v| v.version()));
        assert_eq!(seen, Some(version), "key {i}");
        want[i as usize] = Some(vec![b"first".to_vec(), b"updated".to_vec()]);
    }
    for i in 300..320 {
        session.put(&key(i), &[(0, b"first"), (1, &c1(i))]);
        session.remove(&key(i));
        session.put(&key(i), &[(0, b"reborn")]);
        want[i as usize] = Some(vec![b"reborn".to_vec()]);
    }
    assert!(session.force_log());
    let _ = session.simulate_crash();
    drop(store);

    let check = |store: &Arc<Store>, want: &[Option<Vec<Vec<u8>>>], when: &str| {
        let session = store.session().unwrap();
        for (i, want) in want.iter().enumerate() {
            let got = session.get(&key(i as u32), None);
            assert_eq!(&got, want, "{when}: key {i}");
        }
    };
    let (store, _) = recover(&dir, &dir).unwrap();
    check(&store, &want, "first recovery");
    let session = store.session().unwrap();
    for i in (0..320).step_by(3) {
        session.put(&key(i), &[(1, b"third")]);
        let cols = want[i as usize].get_or_insert_with(Vec::new);
        cols.resize(cols.len().max(2), Vec::new());
        cols[1] = b"third".to_vec();
    }
    assert!(session.force_log());
    let _ = session.simulate_crash();
    drop(store);
    let (store, _) = recover(&dir, &dir).unwrap();
    check(&store, &want, "second recovery");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
