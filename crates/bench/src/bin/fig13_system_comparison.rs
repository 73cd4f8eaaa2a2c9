//! **Figure 13** — system comparison (§7): Masstree vs stand-ins for
//! MongoDB, VoltDB, Redis and memcached (see `bench::standins` — the
//! real systems cannot run here, so each stand-in reproduces the
//! architectural property the paper credits for its result; rows are
//! labelled accordingly).
//!
//! Workloads, as in the paper: uniform-popularity 1-to-10-byte decimal
//! keys with one 8-byte column (get, put, 1-core get, 1-core put), and
//! Zipfian MYCSB-A/B/C/E (10 × 4-byte columns, puts modify existing
//! keys). Every system is driven through the same network stack with
//! batched, pipelined clients. All servers are preloaded with the same
//! records.

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bench::standins::{ArcBackend, MemcachedStandin, RedisStandin, TreeStandin, TreeStandinStyle};
use bench::{run_timed, Params};
use mtkv::Store;
use mtnet::{Client, Request, Response, Server};
use mtworkload::{decimal_key, Mix, MycsbOp, MycsbWorkload, Rng64};

const BATCH: usize = 128;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Wl {
    UniformGet,
    UniformPut,
    Mycsb(Mix),
}

impl Wl {
    fn label(self) -> String {
        match self {
            Wl::UniformGet => "get (uniform)".into(),
            Wl::UniformPut => "put (uniform)".into(),
            Wl::Mycsb(m) => m.name().into(),
        }
    }
}

struct SystemUnderTest {
    name: &'static str,
    server: Server,
    /// Which workloads this system supports (the paper marks N/A).
    supports: fn(Wl) -> bool,
    /// Whether puts may be batched (the paper's memcached client library
    /// could not batch puts, which §7 calls out as decisive).
    batched_puts: bool,
}

fn main() {
    let p = Params::from_args();
    let records: u64 = (p.keys as u64).clamp(10_000, 20_000_000);
    let dir = std::env::temp_dir().join(format!("fig13-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    println!(
        "# Figure 13: system comparison — {records} records, {} client threads, {:.1}s per cell",
        p.threads, p.secs
    );
    println!("# stand-ins are architectural models, not the real systems");

    let masstree_store = Store::persistent(&dir.join("masstree")).unwrap();
    let systems: Vec<SystemUnderTest> = vec![
        SystemUnderTest {
            name: "Masstree",
            server: Server::start(Arc::clone(&masstree_store), "127.0.0.1:0").unwrap(),
            supports: |_| true,
            batched_puts: true,
        },
        SystemUnderTest {
            name: "Mongo-like",
            server: Server::start_backend(
                Arc::new(ArcBackend(TreeStandin::new(TreeStandinStyle::MongoLike))),
                "127.0.0.1:0",
            )
            .unwrap(),
            supports: |_| true,
            batched_puts: true,
        },
        SystemUnderTest {
            name: "Volt-like",
            server: Server::start_backend(
                Arc::new(ArcBackend(TreeStandin::new(TreeStandinStyle::VoltLike))),
                "127.0.0.1:0",
            )
            .unwrap(),
            supports: |_| true,
            batched_puts: true,
        },
        SystemUnderTest {
            name: "Redis-like",
            server: Server::start_backend(
                Arc::new(ArcBackend(
                    RedisStandin::new(records as usize, &dir.join("redis")).unwrap(),
                )),
                "127.0.0.1:0",
            )
            .unwrap(),
            // Hash store: no MYCSB-E (range queries).
            supports: |w| !matches!(w, Wl::Mycsb(Mix::E)),
            batched_puts: true,
        },
        SystemUnderTest {
            name: "Memcached-like",
            server: Server::start_backend(
                Arc::new(ArcBackend(MemcachedStandin::new(records as usize))),
                "127.0.0.1:0",
            )
            .unwrap(),
            // No ranges, no individual-column updates (MYCSB-A/B).
            supports: |w| matches!(w, Wl::UniformGet | Wl::UniformPut | Wl::Mycsb(Mix::C)),
            batched_puts: false,
        },
    ];

    // ---- preload every system with the same records.
    eprintln!("preloading {} systems ...", systems.len());
    for sys in &systems {
        preload(sys.server.addr(), records, p.threads);
    }

    let workloads = [
        Wl::UniformGet,
        Wl::UniformPut,
        Wl::Mycsb(Mix::A),
        Wl::Mycsb(Mix::B),
        Wl::Mycsb(Mix::C),
        Wl::Mycsb(Mix::E),
    ];
    print!("{:<16}", "workload");
    for sys in &systems {
        print!(" {:>15}", sys.name);
    }
    println!();
    for wl in workloads {
        print!("{:<16}", wl.label());
        let mut masstree_rate = None;
        for sys in &systems {
            if !(sys.supports)(wl) {
                print!(" {:>15}", "N/A");
                continue;
            }
            let rate = drive(sys, wl, records, &p);
            let rel = masstree_rate.get_or_insert(rate);
            print!(" {:>9.2} {:>4.0}%", rate, 100.0 * rate / *rel);
        }
        println!();
    }
    // 1-core rows (uniform only, like the paper).
    for wl in [Wl::UniformGet, Wl::UniformPut] {
        let p1 = Params {
            threads: 1,
            ..p.clone()
        };
        print!(
            "{:<16}",
            format!(
                "1-core {}",
                if wl == Wl::UniformGet { "get" } else { "put" }
            )
        );
        let mut masstree_rate = None;
        for sys in &systems {
            if !(sys.supports)(wl) {
                print!(" {:>15}", "N/A");
                continue;
            }
            let rate = drive(sys, wl, records, &p1);
            let rel = masstree_rate.get_or_insert(rate);
            print!(" {:>9.2} {:>4.0}%", rate, 100.0 * rate / *rel);
        }
        println!();
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("# paper: Masstree ≥ all tree/persistent stores on every row;");
    println!("#        memcached edges out Masstree only on uniform 16-core get (107%)");
}

/// Loads `records` keys (both keyspaces: decimal for uniform rows, MYCSB
/// user keys) through the network.
fn preload(addr: SocketAddr, records: u64, threads: usize) {
    let per = records / threads as u64;
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let (lo, hi) = (t * per, ((t + 1) * per).min(records));
                for i in lo..hi {
                    // MYCSB record with 10 columns.
                    let cols: Vec<(u16, Vec<u8>)> = MycsbWorkload::initial_columns(i)
                        .into_iter()
                        .enumerate()
                        .map(|(c, d)| (c as u16, d.to_vec()))
                        .collect();
                    c.queue(&Request::Put {
                        key: MycsbWorkload::record_key(i),
                        cols,
                    });
                    // Decimal-key record with one 8-byte column.
                    c.queue(&Request::Put {
                        key: decimal_key(i),
                        cols: vec![(0, i.to_le_bytes().to_vec())],
                    });
                    if i % (BATCH as u64 / 2) == 0 {
                        c.execute_batch().unwrap();
                    }
                }
                c.execute_batch().unwrap();
            });
        }
    });
}

/// Drives one workload cell and returns Mreq/s.
fn drive(sys: &SystemUnderTest, wl: Wl, records: u64, p: &Params) -> f64 {
    let addr = sys.server.addr();
    let batched_puts = sys.batched_puts;
    let t = run_timed(p.threads, p.secs, move |tid, stop| {
        let mut c = Client::connect(addr).unwrap();
        let mut rng = Rng64::new(31 + tid as u64);
        let mut my = MycsbWorkload::new(
            match wl {
                Wl::Mycsb(m) => m,
                _ => Mix::C,
            },
            records,
            77 + tid as u64,
        );
        let mut done = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let mut queued = 0usize;
            while queued < BATCH {
                let req = match wl {
                    Wl::UniformGet => Request::Get {
                        key: decimal_key(rng.below(records)),
                        cols: Some(vec![0]),
                    },
                    Wl::UniformPut => Request::Put {
                        key: decimal_key(rng.below(records)),
                        cols: vec![(0, rng.next_u64().to_le_bytes().to_vec())],
                    },
                    Wl::Mycsb(_) => match my.next_op() {
                        MycsbOp::Get { key } => Request::Get { key, cols: None },
                        MycsbOp::Put { key, column, data } => Request::Put {
                            key,
                            cols: vec![(column as u16, data.to_vec())],
                        },
                        MycsbOp::GetRange { key, count, column } => Request::Scan {
                            key,
                            count: count as u32,
                            cols: Some(vec![column as u16]),
                            resume: None,
                        },
                    },
                };
                let is_put = matches!(req, Request::Put { .. });
                c.queue(&req);
                queued += 1;
                if is_put && !batched_puts {
                    // One round trip per put (§7's memcached limitation).
                    break;
                }
            }
            let responses = c.execute_batch().unwrap();
            debug_assert!(responses
                .iter()
                .all(|r| !matches!(r, Response::Rows(_)) || matches!(wl, Wl::Mycsb(Mix::E))));
            done += queued as u64;
        }
        done
    });
    t.mreq_per_sec()
}
