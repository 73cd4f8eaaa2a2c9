//! Many-connection torture test for the shard-per-core event-loop
//! server: hundreds of pipelined clients spread across workers, with
//! mid-stream disconnects thrown in.
//!
//! What it proves:
//! * **No response cross-wiring.** Every connection owns a key whose
//!   value embeds the connection's unique tag and a version counter;
//!   every pipelined reply must match the sender's own expectation
//!   queue. Cross-connection batch aggregation (which merges different
//!   connections' ops into one tree run) must never leak one
//!   connection's response into another's frame.
//! * **Scan tokens survive worker routing.** Each connection runs a
//!   resumable scan stream under its own token; cursors live in
//!   per-worker maps keyed by shard-routable connection ids, so chunks
//!   must continue exactly where they left off no matter which worker
//!   owns the connection.
//! * **Worker-owned sessions close cleanly on drop.** After `stop()`
//!   joins the workers (dropping their sessions and flushing their
//!   logs), recovery must see clean logs — no torn tail, no replay
//!   cutoff — and every acknowledged write.
//! * **Scan-cursor LRU eviction** at the per-connection cap is
//!   surfaced in the wire stats (`cache_scan_evictions`).

use std::collections::VecDeque;

use mtkv::{DurabilityConfig, Store};
use mtnet::{Client, Request, Response, Server, ServerConfig};

const WORKERS: usize = 4;
const THREADS: usize = 8;
const CONNS_PER_THREAD: usize = 24;
const ABORTERS_PER_THREAD: usize = 8;
const DEPTH: usize = 4;
const ROUNDS: usize = 36;
const SCAN_KEYS: usize = 200;
const SCAN_CHUNK: usize = 10;

fn scan_key(i: usize) -> Vec<u8> {
    format!("scan/{i:05}").into_bytes()
}

fn own_key(tag: u64) -> Vec<u8> {
    format!("own/{tag:08}").into_bytes()
}

fn own_val(tag: u64, version: u64) -> Vec<u8> {
    format!("{tag:08}:{version:06}").into_bytes()
}

/// What the next in-order reply on a connection must be.
enum Expect {
    Val(Vec<u8>),
    PutOk,
    Rows { start: usize, count: usize },
}

/// One pipelined connection's driver state.
struct Driver {
    client: Client,
    tag: u64,
    version: u64,
    scan_pos: usize,
    step: usize,
    expects: VecDeque<Expect>,
}

impl Driver {
    fn connect(addr: std::net::SocketAddr, tag: u64) -> Driver {
        let mut client = Client::connect(addr).unwrap();
        // Establish the connection's own key (synchronously, so every
        // later pipelined Get has a value to expect).
        client
            .put(&own_key(tag), vec![(0, own_val(tag, 0))])
            .unwrap();
        Driver {
            client,
            tag,
            version: 0,
            scan_pos: 0,
            step: 0,
            expects: VecDeque::new(),
        }
    }

    /// Sends the next op in the Get → Put → Scan cycle as its own
    /// pipelined frame, recording what the reply must be.
    fn send_next(&mut self) {
        match self.step % 3 {
            0 => {
                self.client
                    .send_one(&Request::Get {
                        key: own_key(self.tag),
                        cols: Some(vec![0]),
                    })
                    .unwrap();
                self.expects
                    .push_back(Expect::Val(own_val(self.tag, self.version)));
            }
            1 => {
                self.version += 1;
                self.client
                    .send_one(&Request::Put {
                        key: own_key(self.tag),
                        cols: vec![(0, own_val(self.tag, self.version))],
                    })
                    .unwrap();
                self.expects.push_back(Expect::PutOk);
            }
            _ => {
                if self.scan_pos >= SCAN_KEYS {
                    self.scan_pos = 0;
                }
                // Start (re-)descends at the stream head or after a
                // wrap; Resume rides the registered cursor otherwise.
                let resume = if self.scan_pos == 0 {
                    mtnet::ScanResume::Start(self.tag)
                } else {
                    mtnet::ScanResume::Resume(self.tag)
                };
                self.client
                    .send_one(&Request::Scan {
                        key: scan_key(self.scan_pos),
                        count: SCAN_CHUNK as u32,
                        cols: None,
                        resume: Some(resume),
                    })
                    .unwrap();
                let count = SCAN_CHUNK.min(SCAN_KEYS - self.scan_pos);
                self.expects.push_back(Expect::Rows {
                    start: self.scan_pos,
                    count,
                });
                self.scan_pos += count;
            }
        }
        self.step += 1;
    }

    /// Receives the oldest reply and checks it against the expectation
    /// queue — any cross-wired or reordered response fails here.
    fn recv_and_check(&mut self) {
        let resp = self.client.recv_one().unwrap();
        let expect = self.expects.pop_front().expect("a reply was pending");
        match (expect, resp) {
            (Expect::Val(want), Response::Value(Some(cols))) => {
                assert_eq!(
                    cols,
                    vec![want.clone()],
                    "conn {} got another connection's value",
                    self.tag
                );
            }
            (Expect::PutOk, Response::PutOk(_)) => {}
            (Expect::Rows { start, count }, Response::Rows(rows)) => {
                assert_eq!(rows.len(), count, "conn {} scan chunk length", self.tag);
                for (i, (k, _)) in rows.iter().enumerate() {
                    assert_eq!(
                        k,
                        &scan_key(start + i),
                        "conn {} scan stream jumped — token cursor lost or misrouted",
                        self.tag
                    );
                }
            }
            (_, got) => panic!("conn {}: response kind mismatch: {got:?}", self.tag),
        }
    }
}

#[test]
fn many_pipelined_connections_torture() {
    let dir = std::env::temp_dir().join(format!("mtnet-torture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let final_versions: Vec<(u64, u64)>;
    {
        let store =
            Store::persistent_with(&dir, DurabilityConfig::tiny_segments(256 * 1024)).unwrap();
        let mut server =
            Server::start_with(store, "127.0.0.1:0", ServerConfig { workers: WORKERS }).unwrap();
        let addr = server.addr();

        // Shared scan range, written before the torture begins.
        {
            let mut c = Client::connect(addr).unwrap();
            for i in 0..SCAN_KEYS {
                c.queue(&Request::Put {
                    key: scan_key(i),
                    cols: vec![(0, vec![b'v'; 16])],
                });
            }
            let resps = c.execute_batch().unwrap();
            assert_eq!(resps.len(), SCAN_KEYS);
        }

        let results: Vec<Vec<(u64, u64)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS as u64)
                .map(|t| {
                    s.spawn(move || {
                        let mut drivers: Vec<Driver> = (0..CONNS_PER_THREAD as u64)
                            .map(|c| Driver::connect(addr, t * 1_000 + c))
                            .collect();
                        // Aborters: prime a full pipeline of requests,
                        // then vanish mid-stream with replies unread.
                        let mut aborters: Vec<Driver> = (0..ABORTERS_PER_THREAD as u64)
                            .map(|c| Driver::connect(addr, 900_000 + t * 1_000 + c))
                            .collect();
                        for d in &mut aborters {
                            for _ in 0..DEPTH {
                                d.send_next();
                            }
                        }
                        drop(aborters);

                        for d in &mut drivers {
                            for _ in 0..DEPTH {
                                d.send_next();
                            }
                        }
                        for _ in 0..ROUNDS {
                            for d in &mut drivers {
                                d.recv_and_check();
                                d.send_next();
                            }
                        }
                        for d in &mut drivers {
                            while !d.expects.is_empty() {
                                d.recv_and_check();
                            }
                        }
                        drivers.iter().map(|d| (d.tag, d.version)).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        final_versions = results.into_iter().flatten().collect();
        assert_eq!(final_versions.len(), THREADS * CONNS_PER_THREAD);

        // Scan-cursor LRU eviction: one connection opens far more token
        // streams than the per-connection cap and the overflow surfaces
        // in the wire stats.
        {
            let mut c = Client::connect(addr).unwrap();
            for token in 0..100u64 {
                let rows = c
                    .scan_start(&scan_key(0), SCAN_CHUNK as u32, None, 1_000_000 + token)
                    .unwrap();
                assert_eq!(rows.len(), SCAN_CHUNK);
            }
            let stats = c.stats().unwrap();
            assert!(
                stats.cache_scan_evictions > 0,
                "100 live cursors past a cap of 64 must evict: {stats:?}"
            );
        }

        // Clean shutdown: joins the workers, dropping their sessions
        // (which flushes their logs) before `stop` returns.
        server.stop();
    }

    // Worker sessions closed cleanly: recovery sees whole logs (no torn
    // tail ⇒ no replay cutoff) and every acknowledged write.
    let (store, report) = mtkv::recover(&dir, &dir).unwrap();
    assert_eq!(
        report.cutoff,
        u64::MAX,
        "clean close must leave no torn log tail: {report:?}"
    );
    let session = store.session().unwrap();
    for &(tag, version) in &final_versions {
        let got = session.get(&own_key(tag), Some(&[0])).unwrap();
        assert_eq!(
            got[0],
            own_val(tag, version),
            "conn {tag}'s last acknowledged write survived shutdown"
        );
    }
    drop(session);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
