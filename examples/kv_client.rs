//! An interactive client for `kv_server`: issues gets, puts, removes and
//! scans over the batched binary protocol.
//!
//! ```sh
//! cargo run --release --example kv_client -- 127.0.0.1:7700 put greeting hello
//! cargo run --release --example kv_client -- 127.0.0.1:7700 get greeting
//! cargo run --release --example kv_client -- 127.0.0.1:7700 scan "" 10
//! cargo run --release --example kv_client -- 127.0.0.1:7700 bench 100000
//! cargo run --release --example kv_client -- 127.0.0.1:7700 stats --histograms
//! cargo run --release --example kv_client -- 127.0.0.1:7700 stats --watch
//! ```
//!
//! `stats --histograms` renders the server's per-op-kind latency
//! distributions (count, mean, p50/p90/p99/p999) from one `StatsEx`
//! snapshot; `stats --watch` re-snapshots every second and renders the
//! **delta** — live rates and latencies, not lifetime aggregates.

use mtkv::mtobs::{self, Kind};
use mtnet::{Client, Request, Response};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7700".into());
    let cmd = args.get(2).map(String::as_str).unwrap_or("help");
    let mut client = Client::connect(&addr).expect("connect");

    match cmd {
        "get" => {
            let key = args[3].as_bytes();
            match client.get(key, None).unwrap() {
                None => println!("(not found)"),
                Some(cols) => {
                    for (i, c) in cols.iter().enumerate() {
                        println!("col{}: {}", i, String::from_utf8_lossy(c));
                    }
                }
            }
        }
        "put" => {
            let key = args[3].as_bytes();
            let val = args[4].as_bytes();
            let version = client.put(key, vec![(0, val.to_vec())]).unwrap();
            println!("ok (version {version})");
        }
        "remove" => {
            let existed = client.remove(args[3].as_bytes()).unwrap();
            println!("{}", if existed { "removed" } else { "(not found)" });
        }
        "scan" => {
            let start = args[3].as_bytes();
            let n: u32 = args.get(4).and_then(|v| v.parse().ok()).unwrap_or(10);
            for (k, cols) in client.scan(start, n, Some(vec![0])).unwrap() {
                println!(
                    "{} => {}",
                    String::from_utf8_lossy(&k),
                    String::from_utf8_lossy(&cols[0])
                );
            }
        }
        "stats" if args.get(3).map(String::as_str) == Some("--histograms") => {
            let snap = client.stats_ex().unwrap().snap;
            print_histograms(&snap);
        }
        "stats" if args.get(3).map(String::as_str) == Some("--watch") => {
            // 1 Hz delta view: each line set shows only the interval's
            // traffic, so latencies track what the server is doing now.
            let mut prev = client.stats_ex().unwrap().snap;
            loop {
                std::thread::sleep(std::time::Duration::from_secs(1));
                let snap = client.stats_ex().unwrap().snap;
                let d = snap.delta(&prev);
                println!(
                    "-- {} ops/s, {} slow, {} traced --",
                    d.foreground_ops()
                        + d.kind(Kind::MultiGet).count()
                        + d.kind(Kind::MultiPut).count(),
                    d.slow_ops,
                    d.traces_sampled
                );
                print_histograms(&d);
                prev = snap;
            }
        }
        "stats" => {
            // One line per field so scripts can grep a single value.
            let s = client.stats().unwrap();
            println!("checkpoints: {}", s.checkpoints);
            println!("log_bytes: {}", s.log_bytes);
            println!("log_segments: {}", s.log_segments);
            println!("indirect_reads: {}", s.indirect_reads);
            println!("readahead_batches: {}", s.readahead_batches);
            println!("coalesced_bytes: {}", s.coalesced_bytes);
            println!("live_segment_bytes: {}", s.live_segment_bytes);
            println!("phases: {}", s.phases);
            println!("conflict_splits: {}", s.conflict_splits);
            println!(
                "worker_conns: {}",
                s.worker_conns
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        "bench" => {
            // Pipelined batched puts + gets: the paper's §7 client style.
            let n: u64 = args.get(3).and_then(|v| v.parse().ok()).unwrap_or(100_000);
            let t0 = std::time::Instant::now();
            for i in 0..n {
                client.queue(&Request::Put {
                    key: format!("bench{i:010}").into_bytes(),
                    cols: vec![(0, i.to_le_bytes().to_vec())],
                });
                if i % 256 == 255 {
                    client.execute_batch().unwrap();
                }
            }
            client.execute_batch().unwrap();
            let put_t = t0.elapsed().as_secs_f64();
            let t0 = std::time::Instant::now();
            let mut hits = 0u64;
            for i in 0..n {
                client.queue(&Request::Get {
                    key: format!("bench{i:010}").into_bytes(),
                    cols: Some(vec![0]),
                });
                if i % 256 == 255 {
                    for r in client.execute_batch().unwrap() {
                        if matches!(r, Response::Value(Some(_))) {
                            hits += 1;
                        }
                    }
                }
            }
            for r in client.execute_batch().unwrap() {
                if matches!(r, Response::Value(Some(_))) {
                    hits += 1;
                }
            }
            let get_t = t0.elapsed().as_secs_f64();
            println!(
                "puts: {:.2} Mreq/s   gets: {:.2} Mreq/s   ({hits}/{n} hits)",
                n as f64 / put_t / 1e6,
                n as f64 / get_t / 1e6
            );
        }
        _ => {
            eprintln!(
                "usage: kv_client <addr> get|put|remove|scan|stats [--histograms|--watch]|bench ..."
            );
        }
    }
}

/// Renders every populated kind's latency distribution as one table
/// row; kinds with no recorded ops are skipped.
fn print_histograms(snap: &mtobs::Snapshot) {
    println!(
        "{:<14} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "op", "count", "mean", "p50", "p90", "p99", "p999"
    );
    for k in Kind::ALL {
        let h = snap.kind(k);
        if h.count() == 0 {
            continue;
        }
        println!(
            "{:<14} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
            k.name(),
            h.count(),
            mtobs::fmt_ns(h.mean()),
            mtobs::fmt_ns(h.percentile(0.5)),
            mtobs::fmt_ns(h.percentile(0.9)),
            mtobs::fmt_ns(h.percentile(0.99)),
            mtobs::fmt_ns(h.percentile(0.999)),
        );
    }
}
