//! Kill/restart torture for primary→follower log-shipping replication.
//!
//! Seeded rounds drive writes into a primary whose log is streamed to
//! two read replicas, while the harness injects the failures the
//! replication layer claims to survive:
//!
//! * **Follower kill -9 + restart** (`simulate_crash`): the restarted
//!   follower trims its mirrors to the journaled watermark, re-replays
//!   locally, and resumes the stream from there (idempotent re-replay).
//! * **Connection tear mid-segment** (`tear_connection`): the follower
//!   reconnects with jittered backoff and presents its watermark.
//! * **Primary crash + recovery**: a new incarnation (new epoch, new
//!   replication address) makes restarted followers wipe and resync
//!   from scratch (epoch mismatch → `Gone`).
//!
//! Invariants checked every round:
//!
//! * **Read-your-writes at the primary** — every put is immediately
//!   readable at its assigned version, and the latest state survives a
//!   primary crash + recovery (zero acked-write loss: every write was
//!   group-committed with `force_log` before the crash).
//! * **Prefix consistency at the followers** — any `(key, version,
//!   cols)` row a follower serves mid-stream is byte-identical to a
//!   state the primary actually produced (no torn/merged/invented
//!   rows).
//! * **Catch-up equality** — once quiescent, each follower's full tree
//!   (keys, versions, column bytes) equals the primary's, and its
//!   heartbeat-computed lag reaches zero.
//!
//! The companion test proves the "strictly async" claim: a wedged
//! follower (valid handshake, never reads again) must not move primary
//! put/ack latency.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mtkv::{DurabilityConfig, Session, Store};
use mtnet::{Follower, FollowerConfig, FollowerStatus, ReplConfig, ReplSource};

const ROUNDS: usize = 24;
const PUTS_PER_ROUND: usize = 60;
const REMOVES_PER_ROUND: usize = 8;
const KEYSPACE: u64 = 400;
const CATCHUP: Duration = Duration::from_secs(30);

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn key_of(i: u64) -> Vec<u8> {
    format!("repl/{i:06}").into_bytes()
}

/// Full tree state as `(key, version, column bytes)` rows, in key
/// order — the unit of primary/follower comparison.
type TreeState = Vec<(Vec<u8>, u64, Vec<Vec<u8>>)>;

/// A key's latest acked state: `(version, columns)`, or `None` once
/// removed.
type VersionedCols = Option<(u64, Vec<Vec<u8>>)>;

fn snapshot(session: &Session) -> TreeState {
    let mut out = Vec::new();
    session.get_range_with(b"", usize::MAX, |k, v| {
        out.push((k.to_vec(), v.version(), v.cols()));
    });
    out
}

fn snapshot_store(store: &Arc<Store>) -> TreeState {
    snapshot(&store.session().unwrap())
}

fn follower_config() -> FollowerConfig {
    FollowerConfig {
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(200),
        quiet_timeout: Duration::from_secs(2),
        ..FollowerConfig::default()
    }
}

/// Polls until `follower`'s state equals the (quiescent) primary's and
/// its reported lag is zero.
fn wait_caught_up(primary: &Session, follower: &Follower, what: &str) {
    let want = snapshot(primary);
    let deadline = Instant::now() + CATCHUP;
    loop {
        let got = snapshot_store(&follower.store());
        if got == want && follower.lag().0 == 0 {
            return;
        }
        if Instant::now() >= deadline {
            let diff: Vec<String> = want
                .iter()
                .filter(|r| !got.contains(r))
                .chain(got.iter().filter(|r| !want.contains(r)))
                .take(8)
                .map(|(k, v, c)| {
                    format!(
                        "{} v{v} {:?}",
                        String::from_utf8_lossy(k),
                        c.iter()
                            .map(|c| String::from_utf8_lossy(c))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            panic!(
                "{what}: follower never converged \
                 (status {:?}, lag {:?}, {} rows vs primary {} rows); \
                 first differing rows (primary-only then follower-only): {diff:#?}",
                follower.status(),
                follower.lag(),
                got.len(),
                want.len(),
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Mid-stream prefix consistency: every row the follower serves must be
/// byte-identical to a `(key, version) → cols` state the primary
/// actually produced. Catching the follower mid-apply is the point —
/// partial application must still only ever expose real log states.
fn assert_prefix_consistent(
    follower: &Follower,
    history: &HashMap<(Vec<u8>, u64), Vec<Vec<u8>>>,
    round: usize,
) {
    for (key, version, cols) in snapshot_store(&follower.store()) {
        match history.get(&(key.clone(), version)) {
            Some(want) => assert_eq!(
                &cols,
                want,
                "round {round}: follower row {} v{version} differs from \
                 the primary state of that version",
                String::from_utf8_lossy(&key),
            ),
            None => panic!(
                "round {round}: follower serves {} v{version}, a state \
                 the primary never produced",
                String::from_utf8_lossy(&key),
            ),
        }
    }
}

#[test]
fn seeded_kill_restart_torture() {
    let seed: u64 = std::env::var("MT_REPL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xa5a5_1234_dead_beef);
    println!("replication torture seed: {seed:#x} (override with MT_REPL_SEED)");
    let mut rng = seed;

    let base = std::env::temp_dir().join(format!("mt-repl-torture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let primary_dir = base.join("primary");
    std::fs::create_dir_all(&primary_dir).unwrap();

    // Tiny segments so rounds rotate: tears land mid-chain, restarts
    // resume across segment boundaries.
    let mut store =
        Store::persistent_with(&primary_dir, DurabilityConfig::tiny_segments(16 * 1024)).unwrap();
    let mut source = ReplSource::start_with(&store, "127.0.0.1:0", ReplConfig::default()).unwrap();
    let mut session = store.session().unwrap();

    let follower_dirs = [base.join("f0"), base.join("f1")];
    let mut followers: Vec<Option<Follower>> = follower_dirs
        .iter()
        .map(|d| {
            Some(Follower::start_with(d, &source.addr().to_string(), follower_config()).unwrap())
        })
        .collect();

    // Every `(key, assigned version) → cols` state the primary produced
    // (prefix-consistency oracle), and the latest state per key
    // (read-your-writes / zero-loss oracle).
    let mut history: HashMap<(Vec<u8>, u64), Vec<Vec<u8>>> = HashMap::new();
    let mut latest: HashMap<Vec<u8>, VersionedCols> = HashMap::new();

    for round in 0..ROUNDS {
        // ---- writes, group-committed so they ship ----
        for op in 0..PUTS_PER_ROUND {
            let key = key_of(splitmix64(&mut rng) % KEYSPACE);
            let val = format!("r{round}o{op}x{:016x}", splitmix64(&mut rng)).into_bytes();
            let two_cols = splitmix64(&mut rng).is_multiple_of(4);
            let extra = format!("c1-{round}").into_bytes();
            let updates: Vec<(usize, &[u8])> = if two_cols {
                vec![(0, val.as_slice()), (1, extra.as_slice())]
            } else {
                vec![(0, val.as_slice())]
            };
            let version = session.put(&key, &updates);
            // Read-your-writes: the put is immediately visible at its
            // assigned version; record that exact state.
            let (v, cols) = session.get_with(&key, |val| {
                let val = val.expect("read-your-writes at the primary");
                (val.version(), val.cols())
            });
            assert_eq!(v, version, "round {round}: get after put sees the put");
            history.insert((key.clone(), v), cols.clone());
            latest.insert(key, Some((v, cols)));
            if op % 16 == 0 {
                assert!(session.force_log(), "group commit must succeed");
            }
        }
        for _ in 0..REMOVES_PER_ROUND {
            let key = key_of(splitmix64(&mut rng) % KEYSPACE);
            session.remove(&key);
            latest.insert(key, None);
        }
        assert!(session.force_log(), "group commit must succeed");

        // ---- sample the followers mid-stream ----
        for f in followers.iter().flatten() {
            assert_prefix_consistent(f, &history, round);
        }

        // ---- injected failure ----
        let primary_restart = round == 8 || round == 16;
        if primary_restart {
            println!("round {round}: primary crash + recovery");
            drop(source);
            // kill -9: abandon session buffers (everything acked above
            // was force_log'd, so nothing acked may be lost).
            let _ = session.simulate_crash();
            drop(store);
            let (recovered, report) = mtkv::recover(&primary_dir, &primary_dir).unwrap();
            store = recovered;
            session = store.session().unwrap();
            // Zero acked-write loss across the primary crash.
            let state: HashMap<Vec<u8>, (u64, Vec<Vec<u8>>)> = snapshot(&session)
                .into_iter()
                .map(|(k, v, c)| (k, (v, c)))
                .collect();
            for (key, want) in &latest {
                match want {
                    Some(vc) => assert_eq!(
                        state.get(key),
                        Some(vc),
                        "round {round}: acked write lost in recovery \
                         ({report:?}): {}",
                        String::from_utf8_lossy(key),
                    ),
                    None => assert!(
                        !state.contains_key(key),
                        "round {round}: acked remove lost in recovery: {}",
                        String::from_utf8_lossy(key),
                    ),
                }
            }
            // New incarnation on a new address: restarted followers
            // must resync (epoch mismatch → Gone → wipe).
            source = ReplSource::start_with(&store, "127.0.0.1:0", ReplConfig::default()).unwrap();
            for (i, slot) in followers.iter_mut().enumerate() {
                slot.take().unwrap().simulate_crash();
                *slot = Some(
                    Follower::start_with(
                        &follower_dirs[i],
                        &source.addr().to_string(),
                        follower_config(),
                    )
                    .unwrap(),
                );
            }
        } else {
            match splitmix64(&mut rng) % 4 {
                1 => {
                    let i = (splitmix64(&mut rng) % 2) as usize;
                    println!("round {round}: tearing follower {i}'s connection");
                    followers[i].as_ref().unwrap().tear_connection();
                }
                2 => {
                    let i = (splitmix64(&mut rng) % 2) as usize;
                    println!("round {round}: kill -9 + restart of follower {i}");
                    followers[i].take().unwrap().simulate_crash();
                    followers[i] = Some(
                        Follower::start_with(
                            &follower_dirs[i],
                            &source.addr().to_string(),
                            follower_config(),
                        )
                        .unwrap(),
                    );
                }
                _ => {}
            }
        }

        // ---- every follower catches back up to exact equality ----
        for (i, f) in followers.iter().flatten().enumerate() {
            wait_caught_up(&session, f, &format!("round {round}, follower {i}"));
        }
    }

    // Final state: both followers streaming, zero lag, exact equality
    // (already asserted), and the stats plumbing agrees.
    for f in followers.iter().flatten() {
        assert_eq!(f.status(), FollowerStatus::Streaming);
        let (lag_bytes, _) = f.lag();
        assert_eq!(lag_bytes, 0);
        assert!(f.applied_bytes() > 0);
    }
    let (role, nfollowers, _, _) = store.repl_stats().snapshot();
    assert_eq!(role, mtnet::repl::ROLE_PRIMARY);
    assert_eq!(nfollowers, 2, "both followers registered at the primary");

    for slot in &mut followers {
        slot.take().unwrap().stop();
    }
    drop(source);
    drop(session);
    drop(store);
    let _ = std::fs::remove_dir_all(&base);
}

/// Value-separation torture: the primary runs with a cold value tier
/// (low threshold, tiny segments, aggressive GC), so the stream
/// interleaves vseg byte shipping with WAL chains and the followers
/// replay **pointer records** whose payloads live in mirrored
/// segments. Injected failures are the same family as above — follower
/// kill -9 + restart, connection tears, and a primary crash + recovery
/// whose epoch bump forces a full resync (vseg mirrors wiped, value
/// caches purged). Every round the followers must converge to exact
/// byte equality (snapshots resolve indirect values on both sides),
/// and at the end the follower's value-tier stats must show it
/// actually served indirect reads with zero integrity failures.
#[test]
fn value_separated_replication_torture() {
    let mut rng: u64 = 0xc01d_ba5e_0000_0001;
    let base = std::env::temp_dir().join(format!("mt-repl-vtier-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let primary_dir = base.join("primary");
    std::fs::create_dir_all(&primary_dir).unwrap();

    let cold_config = || {
        let mut c = DurabilityConfig::tiny_segments(16 * 1024).with_value_separation(24, 4096);
        c.value_segment_bytes = 4096;
        c.gc_dead_fraction = 0.3;
        c
    };
    let mut store = Store::persistent_with(&primary_dir, cold_config()).unwrap();
    let mut source = ReplSource::start_with(&store, "127.0.0.1:0", ReplConfig::default()).unwrap();
    let mut session = store.session().unwrap();

    let follower_dirs = [base.join("f0"), base.join("f1")];
    let mut followers: Vec<Option<Follower>> = follower_dirs
        .iter()
        .map(|d| {
            Some(Follower::start_with(d, &source.addr().to_string(), follower_config()).unwrap())
        })
        .collect();

    let mut latest: HashMap<Vec<u8>, VersionedCols> = HashMap::new();
    const VROUNDS: usize = 8;
    const VKEYSPACE: u64 = 120;

    for round in 0..VROUNDS {
        for op in 0..40 {
            let key = key_of(splitmix64(&mut rng) % VKEYSPACE);
            // Most values clear the threshold and go to the cold tier;
            // a few stay inline so both paths ship in one stream.
            let mut val = format!("vr{round}o{op}:").into_bytes();
            let len = 12 + (splitmix64(&mut rng) % 150) as usize;
            while val.len() < len {
                val.push(b'a' + (splitmix64(&mut rng) % 26) as u8);
            }
            let version = session.put(&key, &[(0, &val)]);
            latest.insert(key, Some((version, vec![val])));
        }
        for _ in 0..6 {
            let key = key_of(splitmix64(&mut rng) % VKEYSPACE);
            session.remove(&key);
            latest.insert(key, None);
        }
        assert!(session.force_log(), "group commit must succeed");
        // A durability cycle: checkpoints the pointer records and runs
        // value GC, whose relocations ship through the GC's own WAL
        // chain.
        store.checkpoint_now().unwrap();

        if round == 4 {
            println!("vtier round {round}: primary crash + recovery (epoch resync)");
            drop(source);
            let _ = session.simulate_crash();
            drop(store);
            let (recovered, report) =
                mtkv::recover_with(&primary_dir, &primary_dir, cold_config()).unwrap();
            store = recovered;
            session = store.session().unwrap();
            // Compare column bytes, not versions: value GC relocates
            // live values under fresh versions, and a relocation logged
            // after the cycle's group-commit barrier may legitimately
            // fall past the recovery cutoff — the bytes then come back
            // under the pre-relocation version. Either version, same
            // bytes.
            let state: HashMap<Vec<u8>, Vec<Vec<u8>>> = snapshot(&session)
                .into_iter()
                .map(|(k, _, c)| (k, c))
                .collect();
            for (key, want) in &latest {
                match want {
                    Some((_, cols)) => assert_eq!(
                        state.get(key),
                        Some(cols),
                        "vtier round {round}: acked indirect write lost ({report:?}): {}",
                        String::from_utf8_lossy(key),
                    ),
                    None => assert!(
                        !state.contains_key(key),
                        "vtier round {round}: acked remove lost: {}",
                        String::from_utf8_lossy(key),
                    ),
                }
            }
            source = ReplSource::start_with(&store, "127.0.0.1:0", ReplConfig::default()).unwrap();
            for (i, slot) in followers.iter_mut().enumerate() {
                slot.take().unwrap().simulate_crash();
                *slot = Some(
                    Follower::start_with(
                        &follower_dirs[i],
                        &source.addr().to_string(),
                        follower_config(),
                    )
                    .unwrap(),
                );
            }
        } else {
            match splitmix64(&mut rng) % 3 {
                0 => {
                    let i = (splitmix64(&mut rng) % 2) as usize;
                    println!("vtier round {round}: tearing follower {i}'s connection");
                    followers[i].as_ref().unwrap().tear_connection();
                }
                1 => {
                    let i = (splitmix64(&mut rng) % 2) as usize;
                    println!("vtier round {round}: kill -9 + restart of follower {i}");
                    followers[i].take().unwrap().simulate_crash();
                    followers[i] = Some(
                        Follower::start_with(
                            &follower_dirs[i],
                            &source.addr().to_string(),
                            follower_config(),
                        )
                        .unwrap(),
                    );
                }
                _ => {}
            }
        }

        for (i, f) in followers.iter().flatten().enumerate() {
            wait_caught_up(&session, f, &format!("vtier round {round}, follower {i}"));
        }
    }

    // The primary actually separated values, and each follower served
    // indirect reads out of its mirrored segments without a single
    // integrity failure (the catch-up snapshots resolve every pointer).
    let pstats = store.value_tier_stats();
    assert!(
        pstats.live_segment_bytes > 0,
        "primary separated nothing: {pstats:?}"
    );
    for (i, f) in followers.iter().flatten().enumerate() {
        let fstats = f.store().value_tier_stats();
        assert!(
            fstats.indirect_reads > 0,
            "follower {i} never resolved an indirect value: {fstats:?}"
        );
        assert_eq!(
            fstats.unresolved_reads, 0,
            "follower {i} hit integrity failures: {fstats:?}"
        );
    }

    for slot in &mut followers {
        slot.take().unwrap().stop();
    }
    drop(source);
    drop(session);
    drop(store);
    let _ = std::fs::remove_dir_all(&base);
}

/// The async-shipping guarantee: a wedged follower — valid handshake,
/// then never reads another byte (a SIGSTOPped process) — must not
/// move the primary's put/group-commit latency. Shipping happens on
/// per-follower feeder threads; the commit path never waits on them.
#[test]
fn wedged_follower_never_blocks_primary_acks() {
    use std::io::Write;

    let base = std::env::temp_dir().join(format!("mt-repl-wedge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let store = Store::persistent_with(&base, DurabilityConfig::tiny_segments(64 * 1024)).unwrap();
    // Long ack timeout: the wedged peer stays registered (not shed)
    // for the whole measurement, so we measure coexistence, not
    // shedding.
    let source = ReplSource::start_with(
        &store,
        "127.0.0.1:0",
        ReplConfig {
            ack_timeout: Duration::from_secs(60),
            ..ReplConfig::default()
        },
    )
    .unwrap();
    let session = store.session().unwrap();

    // A wedged "follower": raw socket, valid handshake (fresh, epoch 0,
    // no watermarks), then it never reads — the feeder's socket buffer
    // fills and its writes start blocking.
    let mut wedged = std::net::TcpStream::connect(source.addr()).unwrap();
    let mut hs = Vec::new();
    hs.extend_from_slice(b"MTRP");
    hs.extend_from_slice(&1u32.to_le_bytes());
    hs.extend_from_slice(&0u64.to_le_bytes());
    hs.extend_from_slice(&0u32.to_le_bytes());
    wedged.write_all(&hs).unwrap();
    wedged.flush().unwrap();
    // Shrink what the kernel will buffer on our side so the feeder
    // wedges quickly.
    let _ = wedged.set_nonblocking(false);

    // Pre-fill enough log that the feeder has megabytes to ship into
    // the dead socket.
    for i in 0..2_000u32 {
        session.put(&format!("fill{i:06}").into_bytes(), &[(0, &[0u8; 512])]);
    }
    assert!(session.force_log());
    std::thread::sleep(Duration::from_millis(300));

    // Measured phase: puts + group commits while the feeder is wedged.
    let mut worst = Duration::ZERO;
    let start = Instant::now();
    for i in 0..200u32 {
        let t0 = Instant::now();
        session.put(&format!("lat{i:06}").into_bytes(), &[(0, &[1u8; 64])]);
        if i % 8 == 0 {
            assert!(session.force_log());
        }
        worst = worst.max(t0.elapsed());
    }
    assert!(session.force_log());
    let total = start.elapsed();

    // Generous absolute bounds: a commit path that waited on the wedged
    // feeder even once would hit the 60 s ack timeout (or the 50 ms
    // write timeout per frame, hundreds of times over).
    assert!(
        worst < Duration::from_millis(250),
        "a single put stalled {worst:?} with a wedged follower attached"
    );
    assert!(
        total < Duration::from_secs(10),
        "200 puts + group commits took {total:?} with a wedged follower"
    );

    drop(wedged);
    drop(source);
    drop(session);
    drop(store);
    let _ = std::fs::remove_dir_all(&base);
}

/// Regression: a primary whose pointer records only ever become durable
/// through the WAL's 200 ms *background* force — no `force_log`, no
/// checkpoint, no explicit Flush — must still ship value-tier payload
/// bytes to followers. The feeder forces the tier itself before
/// snapshotting its shipping watermark; without that, every pointer
/// record shipped but zero vseg bytes ever did (the tier's durable
/// watermark never moved), and followers answered misses for separated
/// keys forever.
#[test]
fn background_forced_primary_ships_value_payloads() {
    let base = std::env::temp_dir().join(format!("mt-repl-bgforce-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let primary_dir = base.join("primary");
    std::fs::create_dir_all(&primary_dir).unwrap();

    let config = DurabilityConfig::default().with_value_separation(24, 4096);
    let store = Store::persistent_with(&primary_dir, config).unwrap();
    let source = ReplSource::start_with(&store, "127.0.0.1:0", ReplConfig::default()).unwrap();
    let session = store.session().unwrap();

    let big = vec![b'x'; 600];
    for i in 0..5u64 {
        session.put(&key_of(i), &[(0, &big)]);
    }
    // Deliberately no durability call here: the logger's background
    // force is the only thing advancing the WAL shipping watermark.

    let follower = Follower::start_with(
        &base.join("f0"),
        &source.addr().to_string(),
        follower_config(),
    )
    .unwrap();
    wait_caught_up(&session, &follower, "background-forced primary");

    assert!(
        store.value_tier_stats().live_segment_bytes > 0,
        "primary separated nothing — test lost its premise"
    );
    let fstats = follower.store().value_tier_stats();
    assert!(
        fstats.indirect_reads > 0,
        "follower never resolved an indirect value: {fstats:?}"
    );
    assert_eq!(
        fstats.unresolved_reads, 0,
        "follower hit integrity failures: {fstats:?}"
    );

    follower.stop();
    drop(source);
    drop(session);
    drop(store);
    let _ = std::fs::remove_dir_all(&base);
}
