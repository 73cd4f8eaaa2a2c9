//! End-to-end network tests: a real server on loopback, clients with
//! single operations, batches, pipelined batches, and the durability
//! admin requests (`Stats`/`Flush`).

use mtkv::{DurabilityConfig, Store};
use mtnet::{Client, Request, Response, Server};

fn start_in_memory() -> Server {
    Server::start(Store::in_memory(), "127.0.0.1:0").unwrap()
}

#[test]
fn stats_and_flush_drive_durability_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("mtnet-e2e-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        // Tiny segments so the workload below rotates; no background
        // thread — the client's Flush requests drive the cycles.
        let store = Store::persistent_with(&dir, DurabilityConfig::tiny_segments(2048)).unwrap();
        let server = Server::start(store, "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.addr()).unwrap();

        let s0 = c.stats().unwrap();
        assert_eq!(s0.checkpoints, 0, "no checkpoint yet");
        for i in 0..300u32 {
            c.put(format!("dur{i:04}").as_bytes(), vec![(0, vec![0u8; 32])])
                .unwrap();
        }
        // The logger drains on a ~10ms cadence; poll (bounded) until the
        // rotation is visible on disk rather than racing it. Poll for
        // bytes too: rotation creates the (empty) successor file before
        // flushing the sealed segment's buffered bytes, so there is an
        // instant where the files hold only the session-create journal
        // entry and an opening heartbeat; a rotation is only really
        // durable once the sealed segment's payload (≥ the 2048-byte
        // rotation threshold) has landed.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let s1 = loop {
            let s = c.stats().unwrap();
            if (s.log_segments >= 2 && s.log_bytes >= 2048) || std::time::Instant::now() > deadline
            {
                break s;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        assert!(s1.log_segments >= 2, "rotation visible in stats: {s1:?}");
        assert!(s1.log_bytes > 0);

        // Flush: checkpoint epoch advances, covered segments vanish.
        let s2 = c.flush().unwrap();
        assert_eq!(s2.checkpoints, 1, "{s2:?}");
        assert!(s2.last_checkpoint_start_ts > 0);
        assert!(s2.segments_truncated >= 1, "{s2:?}");
        assert!(
            s2.log_bytes < s1.log_bytes,
            "truncation shrank the logs: {} -> {}",
            s1.log_bytes,
            s2.log_bytes
        );
        // A second flush advances the epoch again.
        let s3 = c.flush().unwrap();
        assert_eq!(s3.checkpoints, 2);
        assert!(s3.last_checkpoint_start_ts > s2.last_checkpoint_start_ts);
    }
    // Everything the client wrote survives recovery, and the replay work
    // is bounded: segments the flush truncated are gone.
    let (store, report) = mtkv::recover(&dir, &dir).unwrap();
    assert!(report.used_checkpoint, "{report:?}");
    let s = store.session().unwrap();
    for i in [0u32, 137, 299] {
        assert_eq!(
            s.get(format!("dur{i:04}").as_bytes(), Some(&[0])).unwrap()[0],
            vec![0u8; 32]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_on_in_memory_store_is_all_zero() {
    let server = start_in_memory();
    let mut c = Client::connect(server.addr()).unwrap();
    c.put(b"k", vec![(0, b"v".to_vec())]).unwrap();
    let s = c.stats().unwrap();
    // Everything durability-related is zero; the live
    // per-worker connection counts must still see this one connection,
    // and the batch executor has run one phase (the put's).
    assert_eq!(s.worker_conns.iter().sum::<u64>(), 1, "{s:?}");
    let expect = mtnet::StatsReply {
        worker_conns: s.worker_conns.clone(),
        phases: 1,
        ..Default::default()
    };
    assert_eq!(s, expect);
    // Flush is a harmless no-op without a log dir.
    let s = c.flush().unwrap();
    assert_eq!(s.checkpoints, 0);
    assert_eq!(c.get(b"k", None).unwrap(), Some(vec![b"v".to_vec()]));
}

#[test]
fn sync_is_a_group_commit_barrier_without_a_checkpoint() {
    let dir = std::env::temp_dir().join(format!("mtnet-e2e-sync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let store = Store::persistent(&dir).unwrap();
        let server = Server::start(store, "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        for i in 0..50u32 {
            c.put(format!("sy{i:03}").as_bytes(), vec![(0, vec![7u8; 64])])
                .unwrap();
        }
        // Sync forces the connection's log: when the reply arrives the
        // bytes are on disk — no polling for the 200 ms group-commit
        // cadence needed — and NO checkpoint ran.
        let s = c.sync().unwrap();
        assert_eq!(s.checkpoints, 0, "sync must not checkpoint: {s:?}");
        assert_eq!(s.last_checkpoint_start_ts, 0);
        assert!(s.log_bytes > 0, "forced log is visible on disk: {s:?}");
        assert!(s.log_segments >= 1);
        // A later flush still runs the full cycle.
        let s2 = c.flush().unwrap();
        assert_eq!(s2.checkpoints, 1);
    }
    // Everything acked by sync survives a crash-style recovery.
    let (store, _) = mtkv::recover(&dir, &dir).unwrap();
    let s = store.session().unwrap();
    for i in [0u32, 25, 49] {
        assert_eq!(
            s.get(format!("sy{i:03}").as_bytes(), Some(&[0])).unwrap()[0],
            vec![7u8; 64]
        );
    }
    drop(s);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sync_mixes_into_batches_and_is_harmless_in_memory() {
    let server = start_in_memory();
    let mut c = Client::connect(server.addr()).unwrap();
    c.queue(&Request::Put {
        key: b"s".to_vec(),
        cols: vec![(0, b"1".to_vec())],
    });
    c.queue(&Request::Sync);
    c.queue(&Request::Get {
        key: b"s".to_vec(),
        cols: None,
    });
    let responses = c.execute_batch().unwrap();
    assert_eq!(responses.len(), 3);
    assert!(matches!(responses[0], Response::PutOk(_)));
    assert!(matches!(responses[1], Response::Stats(_)));
    assert_eq!(responses[2], Response::Value(Some(vec![b"1".to_vec()])));
}

#[test]
fn wire_stats_report_hot_cache_counters() {
    let store = Store::in_memory();
    store.set_session_cache(Some(mtkv::CacheConfig {
        admit_threshold: 1,
        ..mtkv::CacheConfig::default()
    }));
    let server = Server::start(store, "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    c.put(b"hot", vec![(0, b"v".to_vec())]).unwrap();
    // Repeated point gets on one key: the per-connection session's hint
    // cache serves the repeats with zero descent.
    for _ in 0..100 {
        assert_eq!(c.get(b"hot", None).unwrap(), Some(vec![b"v".to_vec()]));
    }
    let s = c.stats().unwrap();
    assert!(s.cache_lookups >= 100, "{s:?}");
    assert!(s.cache_hits > 0, "repeat gets served by hints: {s:?}");
    assert_eq!(s.checkpoints, 0);
}

#[test]
fn admin_requests_mix_into_batches() {
    let server = start_in_memory();
    let mut c = Client::connect(server.addr()).unwrap();
    // Gets / puts / stats interleaved in one batch: runs split around
    // the admin request and responses stay positionally matched.
    c.queue(&Request::Put {
        key: b"a".to_vec(),
        cols: vec![(0, b"1".to_vec())],
    });
    c.queue(&Request::Get {
        key: b"a".to_vec(),
        cols: None,
    });
    c.queue(&Request::Stats);
    c.queue(&Request::Get {
        key: b"a".to_vec(),
        cols: None,
    });
    let responses = c.execute_batch().unwrap();
    assert_eq!(responses.len(), 4);
    assert!(matches!(responses[0], Response::PutOk(_)));
    assert_eq!(responses[1], Response::Value(Some(vec![b"1".to_vec()])));
    assert!(matches!(responses[2], Response::Stats(_)));
    assert_eq!(responses[3], Response::Value(Some(vec![b"1".to_vec()])));
}

#[test]
fn single_ops() {
    let server = start_in_memory();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.get(b"k", None).unwrap(), None);
    let v1 = c
        .put(b"k", vec![(0, b"hello".to_vec()), (1, b"world".to_vec())])
        .unwrap();
    assert!(v1 > 0);
    assert_eq!(
        c.get(b"k", None).unwrap(),
        Some(vec![b"hello".to_vec(), b"world".to_vec()])
    );
    assert_eq!(
        c.get(b"k", Some(vec![1])).unwrap(),
        Some(vec![b"world".to_vec()])
    );
    assert!(c.remove(b"k").unwrap());
    assert!(!c.remove(b"k").unwrap());
    assert_eq!(c.get(b"k", None).unwrap(), None);
}

#[test]
fn batched_queries() {
    let server = start_in_memory();
    let mut c = Client::connect(server.addr()).unwrap();
    for i in 0..100u32 {
        c.queue(&Request::Put {
            key: format!("key{i:03}").into_bytes(),
            cols: vec![(0, i.to_le_bytes().to_vec())],
        });
    }
    let responses = c.execute_batch().unwrap();
    assert_eq!(responses.len(), 100);
    assert!(responses.iter().all(|r| matches!(r, Response::PutOk(_))));
    // Batched gets.
    for i in 0..100u32 {
        c.queue(&Request::Get {
            key: format!("key{i:03}").into_bytes(),
            cols: Some(vec![0]),
        });
    }
    let responses = c.execute_batch().unwrap();
    for (i, r) in responses.iter().enumerate() {
        match r {
            Response::Value(Some(cols)) => assert_eq!(cols[0], (i as u32).to_le_bytes()),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(server.ops_served(), 200);
}

#[test]
fn scans_over_network() {
    let server = start_in_memory();
    let mut c = Client::connect(server.addr()).unwrap();
    for i in 0..50u32 {
        c.put(
            format!("user{i:04}").as_bytes(),
            vec![(0, vec![i as u8]), (1, vec![7])],
        )
        .unwrap();
    }
    let rows = c.scan(b"user0010", 5, Some(vec![0])).unwrap();
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[0].0, b"user0010");
    assert_eq!(rows[0].1, vec![vec![10u8]]);
    assert_eq!(rows[4].0, b"user0014");
}

#[test]
fn pipelined_batches() {
    let server = start_in_memory();
    let mut c = Client::connect(server.addr()).unwrap();
    // Keep 4 batches in flight.
    for b in 0..4u32 {
        for i in 0..64u32 {
            c.queue(&Request::Put {
                key: format!("p{b}k{i}").into_bytes(),
                cols: vec![(0, b"x".to_vec())],
            });
        }
        c.send_batch().unwrap();
    }
    assert_eq!(c.in_flight(), 4);
    for _ in 0..4 {
        let rs = c.recv_batch().unwrap();
        assert_eq!(rs.len(), 64);
    }
    assert_eq!(c.in_flight(), 0);
}

#[test]
fn many_concurrent_clients() {
    let server = start_in_memory();
    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..500u32 {
                    c.put(
                        format!("t{t}i{i}").as_bytes(),
                        vec![(0, i.to_le_bytes().to_vec())],
                    )
                    .unwrap();
                }
                for i in 0..500u32 {
                    let got = c
                        .get(format!("t{t}i{i}").as_bytes(), Some(vec![0]))
                        .unwrap();
                    assert_eq!(got.unwrap()[0], i.to_le_bytes());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn persistent_server_recovers() {
    let dir = std::env::temp_dir().join(format!("mtnet-rec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    {
        let store = Store::persistent(&dir).unwrap();
        let server = Server::start(store, "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        for i in 0..200u32 {
            c.put(
                format!("dur{i:04}").as_bytes(),
                vec![(0, i.to_le_bytes().to_vec())],
            )
            .unwrap();
        }
        // Drop client first so the connection session flushes its log.
        drop(c);
    }
    // Allow connection threads to drop their sessions (forcing logs).
    std::thread::sleep(std::time::Duration::from_millis(300));
    let (store, report) = mtkv::recover(&dir, &dir).unwrap();
    assert!(report.replayed >= 190, "most records on disk: {report:?}");
    let s = store.session().unwrap();
    assert_eq!(
        s.get(b"dur0000", Some(&[0])).unwrap()[0],
        0u32.to_le_bytes()
    );
    assert_eq!(
        s.get(b"dur0199", Some(&[0])).unwrap()[0],
        199u32.to_le_bytes()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interleaved_batch_path_matches_sequential_semantics() {
    // Mixed batches — gets, puts (including duplicate keys within one
    // batch), removes, scans — must behave exactly as if executed one at
    // a time in batch order, even though the server routes runs of gets
    // and puts through the interleaved traversal engine.
    let server = start_in_memory();
    let mut c = Client::connect(server.addr()).unwrap();

    // A put run with a duplicate key: per-key order must hold, so the
    // later write wins.
    c.queue(&Request::Put {
        key: b"dup".to_vec(),
        cols: vec![(0, b"first".to_vec())],
    });
    c.queue(&Request::Put {
        key: b"other".to_vec(),
        cols: vec![(0, b"o".to_vec())],
    });
    c.queue(&Request::Put {
        key: b"dup".to_vec(),
        cols: vec![(0, b"second".to_vec())],
    });
    let resp = c.execute_batch().unwrap();
    assert_eq!(resp.len(), 3);
    let versions: Vec<u64> = resp
        .iter()
        .map(|r| match r {
            Response::PutOk(v) => *v,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert!(versions[2] > versions[0], "batch order preserved per key");
    assert_eq!(c.get(b"dup", None).unwrap(), Some(vec![b"second".to_vec()]));
    // The duplicate key cost exactly one extra phase, and says so.
    let stats = c.stats().unwrap();
    assert_eq!(stats.conflict_splits, 1, "{stats:?}");
    assert_eq!(
        stats.phases, 3,
        "two for the puts, one for the get: {stats:?}"
    );

    // A mixed batch: get-run, remove, get-run again; responses stay
    // positionally matched and read-your-writes holds across runs.
    c.queue(&Request::Get {
        key: b"dup".to_vec(),
        cols: None,
    });
    c.queue(&Request::Get {
        key: b"other".to_vec(),
        cols: None,
    });
    c.queue(&Request::Remove {
        key: b"dup".to_vec(),
    });
    c.queue(&Request::Get {
        key: b"dup".to_vec(),
        cols: None,
    });
    c.queue(&Request::Get {
        key: b"missing".to_vec(),
        cols: None,
    });
    let resp = c.execute_batch().unwrap();
    assert_eq!(resp.len(), 5);
    assert_eq!(resp[0], Response::Value(Some(vec![b"second".to_vec()])));
    assert_eq!(resp[1], Response::Value(Some(vec![b"o".to_vec()])));
    assert_eq!(resp[2], Response::RemoveOk(true));
    assert_eq!(resp[3], Response::Value(None), "sees the remove before it");
    assert_eq!(resp[4], Response::Value(None));

    // A large uniform get batch (the multiget fast path) with per-request
    // column selections mixed in.
    let mut put_ops = Vec::new();
    for i in 0..300u32 {
        put_ops.push((
            format!("bulk{i:04}").into_bytes(),
            vec![(0, i.to_le_bytes().to_vec()), (1, b"col1".to_vec())],
        ));
    }
    c.multi_put(put_ops).unwrap();
    for i in 0..300u32 {
        let cols = if i % 2 == 0 { None } else { Some(vec![1]) };
        c.queue(&Request::Get {
            key: format!("bulk{i:04}").into_bytes(),
            cols,
        });
    }
    let resp = c.execute_batch().unwrap();
    for (i, r) in resp.iter().enumerate() {
        match (i % 2, r) {
            (0, Response::Value(Some(cols))) => {
                assert_eq!(cols.len(), 2);
                assert_eq!(cols[0], (i as u32).to_le_bytes());
            }
            (_, Response::Value(Some(cols))) => {
                assert_eq!(cols, &vec![b"col1".to_vec()]);
            }
            (_, other) => panic!("unexpected {other:?}"),
        }
    }

    // The client-side multiget convenience.
    let keys: Vec<Vec<u8>> = (0..40u32)
        .map(|i| format!("bulk{i:04}").into_bytes())
        .collect();
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    let hits = c.multi_get(&refs, Some(vec![0])).unwrap();
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(h.as_ref().unwrap()[0], (i as u32).to_le_bytes());
    }
}

#[test]
fn zero_copy_batch_encoding_matches_owned_path() {
    // The borrowed serializer (`execute_batch_into`) must produce byte-
    // identical wire output to encoding the owned `execute_batch`
    // responses, across every request kind, duplicate-put splits, column
    // selections, and misses.
    let store = Store::in_memory();
    let session = store.session().unwrap();
    for i in 0..64u32 {
        session.put(
            format!("zc{i:03}").as_bytes(),
            &[(0, &i.to_le_bytes()[..]), (1, b"second")],
        );
    }
    let batch = || -> Vec<Request> {
        let mut reqs = Vec::new();
        for i in 0..8u32 {
            reqs.push(Request::Get {
                key: format!("zc{i:03}").into_bytes(),
                cols: if i % 2 == 0 {
                    None
                } else {
                    Some(vec![1, 0, 9])
                },
            });
        }
        reqs.push(Request::Get {
            key: b"missing".to_vec(),
            cols: None,
        });
        reqs.push(Request::Scan {
            key: b"zc".to_vec(),
            count: 5,
            cols: Some(vec![0]),
            resume: None,
        });
        reqs.push(Request::Put {
            key: b"dup".to_vec(),
            cols: vec![(0, b"a".to_vec())],
        });
        reqs.push(Request::Put {
            key: b"dup".to_vec(),
            cols: vec![(0, b"b".to_vec())],
        });
        reqs.push(Request::Remove {
            key: b"zc000".to_vec(),
        });
        reqs
    };
    // Owned path first (it mutates state), then reset the mutated keys
    // and replay the same batch through the borrowed path on a twin
    // store so both observe identical state.
    let owned_store = Store::in_memory();
    let owned_session = owned_store.session().unwrap();
    for i in 0..64u32 {
        owned_session.put(
            format!("zc{i:03}").as_bytes(),
            &[(0, &i.to_le_bytes()[..]), (1, b"second")],
        );
    }
    let owned_resps = mtnet::execute_batch(&owned_session, batch());
    let mut owned_bytes = Vec::new();
    for r in &owned_resps {
        r.encode(&mut owned_bytes);
    }
    let mut borrowed_bytes = Vec::new();
    let written = mtnet::execute_batch_into(&session, batch(), &mut borrowed_bytes);
    assert_eq!(written, owned_resps.len());
    // PutOk carries a store-global version; those differ between the twin
    // stores only if version draws diverge — identical op sequences keep
    // them aligned, so the full byte streams must match.
    assert_eq!(owned_bytes, borrowed_bytes);
}

#[test]
fn stats_aggregate_every_connections_cache_counters() {
    // A `Stats` reply must reflect ALL connections' cache traffic as of
    // the request: the store flushes every live session's batched local
    // counters before snapshotting the shared sink (the old behavior
    // flushed only the requesting connection's, so another connection's
    // traffic was invisible until it crossed its own 256-event flush
    // threshold or closed).
    let store = Store::in_memory();
    store.set_session_cache(Some(mtkv::CacheConfig {
        admit_threshold: 1,
        adaptive_bypass: false,
        ..mtkv::CacheConfig::default()
    }));
    let server = Server::start(store, "127.0.0.1:0").unwrap();
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();

    for i in 0..20u32 {
        a.put(format!("agg{i:02}").as_bytes(), vec![(0, b"v".to_vec())])
            .unwrap();
    }
    // Reads on BOTH connections — well under the 256-event batch flush.
    for _ in 0..2 {
        for i in 0..20u32 {
            let k = format!("agg{i:02}");
            assert!(a.get(k.as_bytes(), None).unwrap().is_some());
            assert!(b.get(k.as_bytes(), None).unwrap().is_some());
        }
    }
    // One Stats from connection A must already see B's lookups too:
    // 80 read lookups total across both connections.
    let s = a.stats().unwrap();
    assert!(
        s.cache_lookups >= 80,
        "stats must aggregate both connections' lookups: {s:?}"
    );
    assert!(s.cache_hits > 0, "repeat gets hit: {s:?}");
    // Writes always descend: hot-key updates never touch the hint table,
    // so the retired write slots read 0.
    for i in 0..20u32 {
        a.put(format!("agg{i:02}").as_bytes(), vec![(0, b"w".to_vec())])
            .unwrap();
    }
    let s = b.stats().unwrap();
    assert_eq!(
        (s.cache_write_hits, s.cache_write_stale),
        (0, 0),
        "retired write-anchor slots must read 0: {s:?}"
    );
}

#[test]
fn scan_resume_token_streams_a_range_in_chunks() {
    // Token resumes run on the connection's explicit cursor, so they
    // work — and are counted — whether or not sessions have a hint
    // cache.
    for cache in [Some(mtkv::CacheConfig::default()), None] {
        stream_a_range_in_chunks(cache);
    }
}

fn stream_a_range_in_chunks(cache: Option<mtkv::CacheConfig>) {
    let cached = cache.is_some();
    let store = Store::in_memory();
    store.set_session_cache(cache);
    let server = Server::start(store, "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    for i in 0..500u32 {
        c.put(
            format!("sr{i:04}").as_bytes(),
            vec![(0, i.to_le_bytes().to_vec())],
        )
        .unwrap();
    }
    let full = c.scan(b"sr", 10_000, None).unwrap();
    assert_eq!(full.len(), 500);

    // Stream the same range in chunks under one token: every chunk
    // continues exactly where the previous stopped, with no duplicates
    // and no gaps, until a short chunk signals exhaustion.
    let mut streamed = Vec::new();
    let mut first = true;
    loop {
        let rows = if first {
            first = false;
            c.scan_start(b"sr", 64, None, 7).unwrap()
        } else {
            c.scan_resume(b"sr", 64, None, 7).unwrap()
        };
        let n = rows.len();
        streamed.extend(rows);
        if n < 64 {
            break;
        }
    }
    assert_eq!(
        streamed, full,
        "chunked token stream equals one big scan (cached: {cached})"
    );

    // Interleaved second stream under a different token is independent.
    let first_a = c.scan_start(b"sr0100", 5, None, 1).unwrap();
    let first_b = c.scan_start(b"sr0200", 5, None, 2).unwrap();
    let second_a = c.scan_resume(b"", 5, None, 1).unwrap();
    assert_eq!(first_a[0].0, b"sr0100");
    assert_eq!(first_b[0].0, b"sr0200");
    assert_eq!(second_a[0].0, b"sr0105", "token 1 continued, key ignored");

    // The resumes actually took the validated-anchor fast path.
    let s = c.stats().unwrap();
    assert!(
        s.cache_scan_resumes > 0,
        "token chunks must resume at anchors (cached: {cached}): {s:?}"
    );
}

#[test]
fn scan_resume_token_survives_interleaved_writes() {
    let store = Store::in_memory();
    store.set_session_cache(Some(mtkv::CacheConfig::default()));
    let server = Server::start(store, "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    for i in (0..400u32).step_by(2) {
        c.put(format!("iw{i:04}").as_bytes(), vec![(0, b"v".to_vec())])
            .unwrap();
    }
    let mut seen: Vec<Vec<u8>> = Vec::new();
    let mut round = 0u32;
    loop {
        let rows = if round == 0 {
            c.scan_start(b"iw", 16, None, 99).unwrap()
        } else {
            c.scan_resume(b"iw", 16, None, 99).unwrap()
        };
        let n = rows.len();
        seen.extend(rows.into_iter().map(|(k, _)| k));
        // Churn between chunks: inserts ahead/behind and removes force
        // splits and anchor invalidations mid-stream.
        c.put(
            format!("iw{:04}", (round * 37) % 400 + 1).as_bytes(),
            vec![(0, b"x".to_vec())],
        )
        .unwrap();
        c.remove(format!("iw{:04}", (round * 26) % 100).as_bytes())
            .unwrap();
        round += 1;
        if n < 16 {
            break;
        }
    }
    // Non-atomic scan guarantees hold across resumed chunks: strict
    // order, no duplicates.
    for w in seen.windows(2) {
        assert!(
            w[0] < w[1],
            "resumed stream reordered: {:?} {:?}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn oversized_frame_gets_typed_error_then_clean_close() {
    use std::io::Write;
    let server = start_in_memory();
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    // Declared frame length far past the 256 MiB cap. The old behavior
    // was a silent drop: the worker marked the connection dead and the
    // client hung waiting for a reply that never came.
    s.write_all(&(300u32 << 20).to_le_bytes()).unwrap();
    s.write_all(&1u32.to_le_bytes()).unwrap();
    s.flush().unwrap();
    let msg = values_then_error_then_eof(&s, 0);
    assert!(msg.contains("bad"), "error names the cause: {msg}");
}

/// Reads what a connection closed on a protocol error owes: one batch
/// of `values` get replies (none for 0), then the typed error, whose
/// message is returned, then a clean EOF — never a hang or a reset.
fn values_then_error_then_eof(s: &std::net::TcpStream, values: u32) -> String {
    let mut r = std::io::BufReader::new(s.try_clone().unwrap());
    let mut batch = || mtnet::proto::read_batch(&mut r).unwrap();
    if values > 0 {
        let (count, body) = batch().expect("the replies before the error");
        assert_eq!(count, values);
        let mut p = &body[..];
        for _ in 0..values {
            let reply = Response::decode(&mut p);
            assert!(matches!(reply, Some(Response::Value(Some(_)))), "{reply:?}");
        }
    }
    let (count, body) = batch().expect("a typed error batch must precede the close");
    assert_eq!(count, 1);
    let Some(Response::Err(msg)) = Response::decode(&mut &body[..]) else {
        panic!("expected Response::Err");
    };
    assert!(batch().is_none(), "a clean EOF follows the error");
    msg
}

#[test]
fn oversized_frame_error_survives_bytes_sent_after_it() {
    use std::io::Write;
    use std::time::Duration;
    // A protocol error closes the connection, and the client may still
    // be sending. Here the error waits behind 2 MiB of replies the client
    // has not read yet, and the client sends 4 more bytes meanwhile. A
    // server that closed its socket with those bytes unread would make
    // the kernel reset the connection — dropping the replies and the
    // error still in flight. A lingering close reads them first.
    const GETS: u32 = 32;
    let server = start_in_memory();
    Client::connect(server.addr())
        .unwrap()
        .put(b"big", vec![(0, vec![7u8; 64 << 10])])
        .unwrap();
    let mut body = Vec::new();
    for _ in 0..GETS {
        Request::Get {
            key: b"big".to_vec(),
            cols: None,
        }
        .encode(&mut body);
    }
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    s.write_all(&mtnet::proto::frame_batch(GETS as usize, &body))
        .unwrap();
    s.write_all(&(300u32 << 20).to_le_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    s.write_all(&1u32.to_le_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    values_then_error_then_eof(&s, GETS);
}

#[test]
fn undecodable_frame_gets_typed_error_after_earlier_frames() {
    use std::io::Write;
    let server = start_in_memory();
    let mut good = Client::connect(server.addr()).unwrap();
    good.put(b"poison/keep", vec![(0, b"v".to_vec())]).unwrap();
    let mut get = Vec::new();
    Request::Get {
        key: b"poison/keep".to_vec(),
        cols: None,
    }
    .encode(&mut get);

    // Two ways a frame body can fail to be exactly `count` requests:
    // bytes that decode as no request at all, and a valid request
    // followed by bytes its count does not cover (which used to be
    // silently accepted, the remainder dropped).
    let garbage = vec![0xFFu8, 0xEE, 0xDD];
    let trailing = [&get[..], &[0x03]].concat();
    for (bad, what) in [(garbage, "undecodable"), (trailing, "trailing bytes")] {
        let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
        // First a valid single-Get frame, then the bad one. The valid
        // frame's reply must still arrive before the typed error and the
        // close (drain-then-close).
        s.write_all(&mtnet::proto::frame_batch(1, &get)).unwrap();
        s.write_all(&mtnet::proto::frame_batch(1, &bad)).unwrap();
        s.flush().unwrap();
        // The frame parsed before the poison still gets its reply.
        let msg = values_then_error_then_eof(&s, 1);
        assert!(msg.contains(what), "{msg}");
    }
}

#[test]
fn scan_tokens_do_not_survive_reconnect() {
    let server = start_in_memory();
    let mut a = Client::connect(server.addr()).unwrap();
    for i in 0..100u32 {
        a.put(format!("tk{i:04}").as_bytes(), vec![(0, b"v".to_vec())])
            .unwrap();
    }
    let rows = a.scan_start(b"tk", 10, None, 5).unwrap();
    assert_eq!(rows.len(), 10);
    drop(a);

    // A reconnecting client presenting the old token must get a clean
    // typed error — never another connection's cursor position.
    let mut b = Client::connect(server.addr()).unwrap();
    let err = b.scan_resume(b"tk", 10, None, 5).unwrap_err();
    assert!(
        err.to_string().contains("unknown scan token"),
        "strict resume across reconnect: {err}"
    );
    // Recovery path: a fresh Start at the continuation key works.
    let rows = b.scan_start(b"tk0010", 10, None, 5).unwrap();
    assert_eq!(rows[0].0, b"tk0010");
}

#[test]
fn evicted_scan_token_errors_instead_of_restarting() {
    let server = start_in_memory();
    let mut c = Client::connect(server.addr()).unwrap();
    for i in 0..100u32 {
        c.put(format!("ev{i:04}").as_bytes(), vec![(0, b"v".to_vec())])
            .unwrap();
    }
    // Open one stream, then push it past the per-connection cursor cap.
    c.scan_start(b"ev", 5, None, 0).unwrap();
    for t in 1..=64u64 {
        c.scan_start(b"ev", 5, None, t).unwrap();
    }
    let err = c.scan_resume(b"", 5, None, 0).unwrap_err();
    assert!(
        err.to_string().contains("unknown scan token"),
        "evicted token must error, not restart: {err}"
    );
    let s = c.stats().unwrap();
    assert!(s.cache_scan_evictions > 0, "{s:?}");
}
