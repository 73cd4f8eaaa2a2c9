//! A standalone Masstree network server (§3, §5): persistent store,
//! framed binary protocol, one log per server worker.
//!
//! ```sh
//! cargo run --release --example kv_server -- 127.0.0.1:7700 /tmp/mtdata
//! ```
//!
//! Then drive it with `kv_client`, or embed `mtnet::Client` in your own
//! program. If the data directory already holds logs/checkpoints, the
//! server recovers from them before serving.
//!
//! Value separation: `MT_VALUE_SEP=<threshold>[:<cache-bytes>]` spills
//! values of at least `<threshold>` data bytes to append-only value
//! segments, keeping a fixed 24-byte pointer in the leaf (README:
//! "Larger-than-RAM"). `kv_client <addr> stats` reports the tier's
//! `indirect_reads` / `value_cache_hits` / `live_segment_bytes` plus the
//! clustered-resolution counters `readahead_batches` / `coalesced_bytes`
//! / `shared_misses`.
//!
//! Observability:
//!
//! * `MT_METRICS_LISTEN=<addr>` serves Prometheus text exposition on
//!   `GET /metrics`: per-op-kind latency histograms (`mt_op_latency_
//!   seconds`) plus durability/cache/value-tier gauges and the
//!   batch executor's `mt_batch_phases_total` /
//!   `mt_batch_conflict_splits_total`.
//! * `MT_STATS_INTERVAL=<secs>` prints one structured `STATS` line per
//!   interval: op rates, p99 latencies, slow-op and trace counts,
//!   checkpoint and GC activity.
//! * `MT_SLOW_OP_US=<micros>` force-samples any op at or over the
//!   threshold as a structured `SLOWOP` line on stderr.
//! * `MT_TRACE_SAMPLE=<n>` samples 1-in-n requests (rounded to a power
//!   of two; 0 disables) through a staged trace span
//!   (decode → cache lookup → descent → value resolve → WAL → respond).

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::Arc;

use mtkv::mtobs::{self, Kind};
use mtkv::{recover_with, DurabilityConfig, Store};
use mtnet::{Server, ServerConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:7700".into());
    let dir = PathBuf::from(args.next().unwrap_or_else(|| "/tmp/mtdata".into()));
    std::fs::create_dir_all(&dir).expect("create data dir");

    // Event-loop worker pool: MT_SERVER_WORKERS=<n> fixes the worker
    // count (0/unset = available_parallelism).
    let workers: usize = std::env::var("MT_SERVER_WORKERS")
        .ok()
        .map(|v| v.parse().expect("MT_SERVER_WORKERS=<count>"))
        .unwrap_or(0);

    // Larger-than-RAM value separation: MT_VALUE_SEP=<threshold>[:<cache>]
    // spills values of at least <threshold> data bytes into append-only
    // value segments; indirect reads go through a cache capped at
    // <cache> bytes (default left at the library's). A directory that
    // already holds vseg files mounts its tier on recovery regardless,
    // so the env matters when *creating* separated data.
    let mut dcfg = DurabilityConfig::default();
    if let Ok(spec) = std::env::var("MT_VALUE_SEP") {
        let usage = "MT_VALUE_SEP=<threshold-bytes>[:<cache-bytes>]";
        let (threshold, cache) = match spec.split_once(':') {
            Some((t, c)) => (t.parse().expect(usage), c.parse().expect(usage)),
            None => (spec.parse().expect(usage), dcfg.value_cache_bytes),
        };
        dcfg = dcfg.with_value_separation(threshold, cache);
        println!("value separation: threshold {threshold} B, cache budget {cache} B");
    }

    // Recover anything a previous run left behind (§5).
    let (store, report) = recover_with(&dir, &dir, dcfg).expect("recovery");
    let guard = masstree::pin();
    let keys = store.tree().count_keys(&guard);
    drop(guard);
    println!(
        "recovered {keys} keys (checkpoint: {}, log records replayed: {}, cutoff {})",
        report.used_checkpoint, report.replayed, report.cutoff
    );

    // Hot-path cache tier: MT_CACHE=<slots> gives every connection's
    // session a per-worker validated-anchor cache (`mtcache`) for point
    // reads; the `stats` admin request reports its counters.
    if let Ok(slots) = std::env::var("MT_CACHE") {
        let slots: usize = slots.parse().expect("MT_CACHE=<hint slots>");
        store.set_session_cache(Some(mtkv::CacheConfig::with_capacity(slots)));
        println!("validated-anchor cache enabled: {slots} slots per connection");
    }

    let stats_interval = setup_observability(&store);

    let config = ServerConfig { workers };
    let server = Server::start_with(store.clone(), &addr, config).expect("bind");
    println!("masstree server listening on {}", server.addr());
    println!(
        "event-loop workers: {}",
        if workers == 0 {
            format!(
                "{} (available_parallelism)",
                std::thread::available_parallelism().map_or(1, |n| n.get())
            )
        } else {
            workers.to_string()
        }
    );
    println!("press ctrl-c to stop; data persists in {}", dir.display());

    // Periodic maintenance: empty-layer GC (§4.6.5) plus a checkpoint
    // every 30 seconds so restarts recover quickly.
    let mut last_ckpt = std::time::Instant::now();
    let mut ticker = stats_interval.map(StatsTicker::new);
    loop {
        std::thread::sleep(std::time::Duration::from_secs(1));
        store.maintain();
        if let Some(t) = ticker.as_mut() {
            t.tick(&store);
        }
        if last_ckpt.elapsed().as_secs() >= 30 {
            match mtkv::write_checkpoint(&store, &dir, 4) {
                Ok(meta) => println!("checkpoint: {} keys", meta.keys),
                Err(e) => eprintln!("checkpoint failed: {e}"),
            }
            last_ckpt = std::time::Instant::now();
        }
    }
}

/// Applies the observability env knobs (`MT_SLOW_OP_US`,
/// `MT_TRACE_SAMPLE`), starts the `MT_METRICS_LISTEN` endpoint when
/// configured, and returns the `MT_STATS_INTERVAL` period, if any.
fn setup_observability(store: &Arc<Store>) -> Option<std::time::Duration> {
    if let Ok(us) = std::env::var("MT_SLOW_OP_US") {
        let us: u64 = us.parse().expect("MT_SLOW_OP_US=<micros>");
        store.obs().set_slow_threshold_us(Some(us));
        println!("slow-op dump threshold: {us} us");
    }
    if let Ok(n) = std::env::var("MT_TRACE_SAMPLE") {
        let n: u64 = n.parse().expect("MT_TRACE_SAMPLE=<1-in-n>");
        store.obs().set_sample_every(n);
        println!("trace sampling: 1 in {n} requests");
    }
    if let Ok(addr) = std::env::var("MT_METRICS_LISTEN") {
        let listener = std::net::TcpListener::bind(&addr).expect("bind metrics endpoint");
        println!(
            "metrics: http://{}/metrics",
            listener.local_addr().expect("metrics addr")
        );
        let store = Arc::clone(store);
        std::thread::Builder::new()
            .name("metrics".into())
            .spawn(move || serve_metrics(listener, store))
            .expect("spawn metrics thread");
    }
    std::env::var("MT_STATS_INTERVAL").ok().map(|s| {
        let secs: u64 = s.parse().expect("MT_STATS_INTERVAL=<seconds>");
        std::time::Duration::from_secs(secs.max(1))
    })
}

/// A deliberately tiny HTTP/1.1 responder: one request per connection,
/// `GET /metrics` (or `GET /`) answered with Prometheus text
/// exposition, anything else with 404. Scrape cadence is seconds, so
/// thread-per-request with `Connection: close` is plenty.
fn serve_metrics(listener: std::net::TcpListener, store: Arc<Store>) {
    for conn in listener.incoming() {
        let Ok(mut conn) = conn else { continue };
        let _ = conn.set_read_timeout(Some(std::time::Duration::from_secs(2)));
        let mut head = [0u8; 1024];
        let mut n = 0;
        while n < head.len() {
            match conn.read(&mut head[n..]) {
                Ok(0) | Err(_) => break,
                Ok(m) => {
                    n += m;
                    if head[..n].windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
            }
        }
        let line = std::str::from_utf8(&head[..n]).unwrap_or("");
        let ok = line.starts_with("GET /metrics") || line.starts_with("GET / ");
        let (status, reason, body) = if ok {
            (200, "OK", render_metrics(&store))
        } else {
            (404, "Not Found", "not found\n".to_string())
        };
        let _ = write!(
            conn,
            "HTTP/1.1 {status} {reason}\r\n\
             Content-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        );
    }
}

/// One scrape: the merged histogram snapshot plus the store's
/// durability / cache / value-tier gauges.
fn render_metrics(store: &Arc<Store>) -> String {
    let snap = store.obs().snapshot();
    let d = store.durability_stats();
    let c = store.cache_stats();
    let v = store.value_tier_stats();
    let (phases, conflict_splits) = store.batch_plan_stats();
    mtobs::render_prometheus(
        &snap,
        &[
            ("mt_checkpoints_total", d.checkpoints),
            ("mt_log_bytes", d.log_bytes),
            ("mt_log_segments", d.log_segments),
            ("mt_segments_truncated_total", d.segments_truncated),
            ("mt_cache_lookups_total", c.lookups),
            ("mt_cache_hits_total", c.hits),
            ("mt_indirect_reads_total", v.indirect_reads),
            ("mt_value_cache_hits_total", v.value_cache_hits),
            ("mt_readahead_batches_total", v.readahead_batches),
            ("mt_coalesced_bytes_total", v.coalesced_bytes),
            ("mt_shared_misses_total", v.shared_misses),
            ("mt_gc_rewritten_bytes_total", v.gc_rewritten_bytes),
            ("mt_live_segment_bytes", v.live_segment_bytes),
            ("mt_batch_phases_total", phases),
            ("mt_batch_conflict_splits_total", conflict_splits),
        ],
    )
}

/// Emits one structured `STATS` line per `MT_STATS_INTERVAL`: interval
/// deltas for rates and percentiles, plus running durability totals.
struct StatsTicker {
    interval: std::time::Duration,
    last: std::time::Instant,
    prev: mtobs::Snapshot,
}

impl StatsTicker {
    fn new(interval: std::time::Duration) -> StatsTicker {
        StatsTicker {
            interval,
            last: std::time::Instant::now(),
            prev: mtobs::Snapshot::empty(),
        }
    }

    fn tick(&mut self, store: &Arc<Store>) {
        if self.last.elapsed() < self.interval {
            return;
        }
        let secs = self.last.elapsed().as_secs_f64();
        let snap = store.obs().snapshot();
        let d = snap.delta(&self.prev);
        let mut gets = *d.kind(Kind::GetHit);
        gets.merge(d.kind(Kind::GetDescent));
        gets.merge(d.kind(Kind::GetCold));
        let ops =
            d.foreground_ops() + d.kind(Kind::MultiGet).count() + d.kind(Kind::MultiPut).count();
        let dur = store.durability_stats();
        let v = store.value_tier_stats();
        println!(
            "STATS ops={ops} ops_per_s={:.0} get_p99={} put_p99={} \
             multiget_p99={} wal_force_p99={} checkpoint_p99={} gc_p99={} \
             slow_ops={} traces={} checkpoints={} gc_bytes={}",
            ops as f64 / secs,
            mtobs::fmt_ns(gets.percentile(0.99)),
            mtobs::fmt_ns(d.kind(Kind::Put).percentile(0.99)),
            mtobs::fmt_ns(d.kind(Kind::MultiGet).percentile(0.99)),
            mtobs::fmt_ns(d.kind(Kind::WalForce).percentile(0.99)),
            mtobs::fmt_ns(d.kind(Kind::Checkpoint).percentile(0.99)),
            mtobs::fmt_ns(d.kind(Kind::GcPass).percentile(0.99)),
            d.slow_ops,
            d.traces_sampled,
            dur.checkpoints,
            v.gc_rewritten_bytes,
        );
        self.prev = snap;
        self.last = std::time::Instant::now();
    }
}
