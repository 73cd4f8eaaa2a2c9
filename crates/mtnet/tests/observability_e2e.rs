//! End-to-end observability tests: the `StatsEx` wire op against a
//! real multi-worker server on loopback.
//!
//! What they prove:
//! * **Cross-worker aggregation.** Each event-loop worker owns its own
//!   session (and therefore its own histogram recorder); a `StatsEx`
//!   issued on *one* connection must report every worker's traffic —
//!   the flush-on-read registry merge, not just the asking worker's
//!   local counts. This is the histogram analogue of the
//!   `Store::cache_stats` aggregation discipline.
//! * **Connection churn loses nothing.** A closed connection's worker
//!   session stays alive, but the same guarantee must hold across
//!   server restarts of the *recorder* lifecycle — exercised directly
//!   against the store by dropping sessions mid-count.
//! * **Wire fidelity.** The sparse histogram encoding round-trips with
//!   counts, sums, and percentiles intact.

use mtkv::mtobs::Kind;
use mtkv::Store;
use mtnet::{Client, Server, ServerConfig};

/// Two workers, one client pinned to each (the accept-time rebalancer
/// spreads two fresh connections over two idle workers), traffic on
/// both — then a `StatsEx` from each side must see the union.
#[test]
fn statsex_aggregates_across_workers() {
    let server = Server::start_with(
        Store::in_memory(),
        "127.0.0.1:0",
        ServerConfig { workers: 2 },
    )
    .unwrap();

    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    // Both connections must be established (and rebalanced) before
    // traffic starts; a put+get pair on each proves liveness.
    const PUTS: u64 = 40;
    const GETS: u64 = 60;
    for i in 0..PUTS {
        a.put(format!("a{i:03}").as_bytes(), vec![(0, vec![b'A'; 16])])
            .unwrap();
        b.put(format!("b{i:03}").as_bytes(), vec![(0, vec![b'B'; 16])])
            .unwrap();
    }
    for i in 0..GETS {
        let ka = format!("a{:03}", i % PUTS);
        let kb = format!("b{:03}", i % PUTS);
        assert!(a.get(ka.as_bytes(), None).unwrap().is_some());
        assert!(b.get(kb.as_bytes(), None).unwrap().is_some());
    }

    // Ask each connection independently: both views must already hold
    // the union of both connections' traffic (single-op frames may be
    // recorded as point ops or — when the wakeup merges them across
    // connections — as multi-op runs, so count both shapes).
    for c in [&mut a, &mut b] {
        let snap = c.stats_ex().unwrap().snap;
        let gets = snap.kind(Kind::GetHit).count()
            + snap.kind(Kind::GetDescent).count()
            + snap.kind(Kind::GetCold).count();
        let puts = snap.kind(Kind::Put).count();
        let multi = snap.kind(Kind::MultiGet).count() + snap.kind(Kind::MultiPut).count();
        assert!(
            gets + multi >= 2 * GETS.min(1),
            "some get traffic visible: {snap:?}"
        );
        // Every one of the 2×PUTS puts and 2×GETS gets happened before
        // the first StatsEx; nothing may be hiding in another worker's
        // unflushed state. Multi-run recordings count whole runs (not
        // per-key), so the strict lower bound uses ops when no merging
        // happened and just demands *presence* otherwise.
        if multi == 0 {
            assert_eq!(puts, 2 * PUTS, "all puts from both workers: {snap:?}");
            assert_eq!(gets, 2 * GETS, "all gets from both workers: {snap:?}");
        } else {
            assert!(puts + gets + multi > 0);
        }
        // Latency sums are real time, not zeros.
        assert!(snap.kind(Kind::Put).sum > 0 || snap.kind(Kind::MultiPut).sum > 0);
    }
}

/// Percentiles survive the wire: what the client renders from the
/// decoded snapshot matches what the server-side histograms held.
#[test]
fn statsex_percentiles_roundtrip() {
    let store = Store::in_memory();
    // Seed the background recorder with a known distribution.
    for i in 1..=1000u64 {
        store.obs().global().record(Kind::WalForce, i * 1_000);
    }
    let expect = store.obs().snapshot();
    let server = Server::start_with(
        std::sync::Arc::clone(&store),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let got = c.stats_ex().unwrap().snap;
    let (e, g) = (expect.kind(Kind::WalForce), got.kind(Kind::WalForce));
    assert_eq!(g.count(), 1000);
    assert_eq!(g.sum, e.sum);
    for q in [0.5, 0.9, 0.99, 0.999] {
        assert_eq!(g.percentile(q), e.percentile(q), "q={q}");
    }
    // The log-bucketed estimate stays within the design's relative
    // error of the exact order statistic (p50 of 1..=1000 ms-in-ns).
    let p50 = g.percentile(0.5) as f64;
    assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.25, "p50={p50}");
}

/// A durability cycle is a live signal: after one `Flush`, `StatsEx`
/// (what `kv_client stats --histograms` renders) and the Prometheus
/// text (what `/metrics` serves) show its checkpoint, its barrier and
/// its truncation pass.
#[test]
fn durability_cycle_phases_reach_statsex_and_metrics() {
    let dir = std::env::temp_dir().join(format!("mtnet-obs-cycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let server = Server::start(Store::persistent(&dir).unwrap(), "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        c.put(b"cycle", vec![(0, b"v".to_vec())]).unwrap();
        assert_eq!(c.flush().unwrap().checkpoints, 1);
        let snap = c.stats_ex().unwrap().snap;
        for k in [Kind::Checkpoint, Kind::Barrier, Kind::Truncate] {
            assert_eq!(snap.kind(k).count(), 1, "{}: {snap:?}", k.name());
        }
        let text = mtkv::mtobs::render_prometheus(&snap, &[]);
        assert!(
            text.contains("mt_op_latency_seconds_count{op=\"truncate\"} 1\n"),
            "{text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dropping sessions (connection churn) folds their histograms into
/// the retained sink: totals never go backwards.
#[test]
fn session_churn_retains_counts() {
    let store = Store::in_memory();
    for round in 0..4 {
        let s = store.session().unwrap();
        for i in 0..50u32 {
            s.put(format!("churn{round}-{i}").as_bytes(), &[(0, b"v")]);
        }
        drop(s);
        let snap = store.obs().snapshot();
        assert_eq!(
            snap.kind(Kind::Put).count(),
            (round + 1) * 50,
            "round {round}"
        );
    }
}
