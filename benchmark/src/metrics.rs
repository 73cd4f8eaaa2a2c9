//! The named metrics: the one place where measurements get the names and
//! units that `BENCHMARK.json` lists and later issues cite.

use mtkv::mtobs::{Kind, Snapshot};

use crate::ladder::Ladder;
use crate::served::Served;
use crate::stats::pct_us;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sum of the foreground histograms' counts: how many times the server
/// called into the store (single ops plus merged runs).
fn server_executions(h: &Snapshot) -> u64 {
    [
        Kind::GetHit,
        Kind::GetDescent,
        Kind::GetCold,
        Kind::Put,
        Kind::Remove,
        Kind::Scan,
        Kind::MultiGet,
        Kind::MultiPut,
    ]
    .iter()
    .map(|&k| h.kind(k).count())
    .sum()
}

/// `ladder.attributed_frac`: the in-process wire rung's time per op over
/// the served run's — does the ladder stand for the served process?
fn attributed_frac(s: &Served, l: &Ladder) -> f64 {
    ratio(l.wire_total, ratio(1e9, s.ops_per_s()))
}

/// What a user of the server sees; measured with tracing off.
pub fn end_to_end(s: &Served) -> Vec<Metric> {
    vec![
        m("setup_s", "s", s.setup_s()),
        m("ops_per_s", "ops/s", s.ops_per_s()),
        m("lat_p50_us", "us", s.lat_p50_us()),
        m(
            "server_cpu_us_per_op",
            "us/op",
            ratio(s.server_cpu_s * 1e6, s.closed_ops as f64),
        ),
        m("server_rss_mb", "MiB", s.rss_mib),
    ]
}

/// One number per layer (layer = module name): ladder self times from
/// the in-process rungs, counter ratios from the server's own `Stats` /
/// `StatsEx` deltas and `/proc` around the closed-loop phase, and the
/// generator's measurements of itself.
pub fn per_layer(s: &Served, l: &Ladder) -> Vec<Metric> {
    let c = &s.stats;
    let empty = Snapshot::empty();
    let h = s.hists.as_ref().unwrap_or(&empty);
    let mut runs = *h.kind(Kind::MultiGet);
    runs.merge(h.kind(Kind::MultiPut));
    // Foreground `Sync` forces plus the checkpointer's group-commit
    // barriers: every wait for the log to reach the disk.
    let mut forces = *h.kind(Kind::WalForce);
    forces.merge(h.kind(Kind::Barrier));
    // Point-get fills plus the clustered reads of scans.
    let mut fills = *h.kind(Kind::VsegFill);
    fills.merge(h.kind(Kind::VsegReadahead));
    let scans = h.kind(Kind::Scan).count() as f64;
    vec![
        m("masstree.ns_per_op", "ns/op", l.masstree),
        m("mtkv.store.self_ns_per_op", "ns/op", l.store_self()),
        m("mtcache.self_ns_per_op", "ns/op", l.cache_self()),
        m(
            "mtcache.hit_frac",
            "frac",
            ratio(c.cache_hits as f64, c.cache_lookups as f64),
        ),
        m(
            "mtcache.stale_frac",
            "frac",
            ratio(c.cache_stale as f64, c.cache_lookups as f64),
        ),
        m(
            "mtcache.write_hit_frac",
            "frac",
            ratio(c.cache_write_hits as f64, s.closed_puts as f64),
        ),
        m("mtkv.log.append_ns_per_put", "ns/op", l.log_append_per_put),
        m(
            "mtkv.log.force_p99_us",
            "us",
            forces.percentile(0.99) as f64 / 1e3,
        ),
        m("mtkv.log.force_count", "count", forces.count() as f64),
        m(
            "mtkv.disk.write_bytes_per_user_byte",
            "B/B",
            ratio(s.storage_write_bytes as f64, s.user_bytes_put as f64),
        ),
        m(
            "mtkv.disk.bytes_per_live_user_byte",
            "B/B",
            ratio(s.dir_bytes as f64, s.live_user_bytes as f64),
        ),
        m("mtkv.checkpoint.count", "count", s.checkpoints as f64),
        m(
            "mtkv.checkpoint.write_p50_ms",
            "ms",
            h.kind(Kind::Checkpoint).percentile(0.5) as f64 / 1e6,
        ),
        m(
            "mtkv.checkpoint.busy_frac",
            "frac",
            ratio(h.kind(Kind::Checkpoint).sum as f64 / 1e9, s.closed_secs),
        ),
        m(
            "mtkv.checkpoint.min_window_over_median",
            "ratio",
            s.min_window_over_median(),
        ),
        m("mtkv.recovery.restart_s", "s", s.restart_s.unwrap_or(0.0)),
        m(
            "mtkv.recovery.lost_acked_writes",
            "count",
            s.lost_acked_writes as f64,
        ),
        m("mtkv.vtier.resolve_ns_per_op", "ns/op", l.vtier_resolve),
        m(
            "mtkv.vtier.cache_hit_frac",
            "frac",
            ratio(c.value_cache_hits as f64, c.indirect_reads as f64),
        ),
        m(
            "mtkv.vtier.bytes_read_per_indirect",
            "B/op",
            ratio(c.coalesced_bytes as f64, c.indirect_reads as f64),
        ),
        m(
            "mtkv.vtier.readahead_per_scan",
            "ratio",
            ratio(c.readahead_batches as f64, scans),
        ),
        m(
            "mtkv.vtier.shared_miss_frac",
            "frac",
            ratio(c.shared_misses as f64, c.indirect_reads as f64),
        ),
        m(
            "mtkv.vtier.fill_p99_us",
            "us",
            fills.percentile(0.99) as f64 / 1e3,
        ),
        m("mtnet.proto.decode_ns_per_op", "ns/op", l.decode),
        m("mtnet.proto.encode_ns_per_op", "ns/op", l.encode),
        m("mtnet.proto.resp_decode_ns_per_op", "ns/op", l.resp_decode),
        m("mtnet.server.exec_self_ns_per_op", "ns/op", l.exec_self()),
        m("mtnet.wire.self_ns_per_op", "ns/op", l.wire_self()),
        m(
            "mtnet.server.ops_per_run",
            "ops",
            ratio(s.closed_ops as f64, server_executions(h) as f64),
        ),
        m(
            "mtnet.server.run_p99_us",
            "us",
            runs.percentile(0.99) as f64 / 1e3,
        ),
        m("ladder.total_ns_per_op", "ns/op", l.wire_total),
        m("ladder.attributed_frac", "frac", attributed_frac(s, l)),
        m("trace.overhead_frac", "frac", l.trace_overhead_frac),
        m("masstree.get_2t_over_1t", "ratio", l.get_2t_over_1t),
        m("masstree.put_2t_over_1t", "ratio", l.put_2t_over_1t),
        m("gen.sched_lag_p99_us", "us", pct_us(&s.lag, 0.99)),
        m("gen.busy_frac", "frac", s.gen_busy_frac),
        m("gen.window_spread_frac", "frac", s.window_spread()),
        m("gen.lat_p99_us", "us", pct_us(&s.lat_all, 0.99)),
        m("gen.lat_p999_us", "us", pct_us(&s.lat_all, 0.999)),
        m("gen.get_lat_p50_us", "us", pct_us(&s.lat_get, 0.5)),
        m("gen.scan_lat_p50_us", "us", pct_us(&s.lat_scan, 0.5)),
        m(
            "gen.failed_frac",
            "frac",
            ratio(s.failed as f64, s.attempted as f64),
        ),
    ]
}

/// Reasons a run's numbers should not be trusted (as opposed to a
/// regression in the program): reported, never silently accepted.
pub fn validity(s: &Served, l: Option<&Ladder>) -> Vec<String> {
    let mut why = Vec::new();
    // The median, not the tail: on a 2-core host the generator itself
    // is preempted for milliseconds about once in a hundred sends, which
    // `gen.sched_lag_p99_us` reports but no schedule could avoid.
    let (lag, p50) = (pct_us(&s.lag, 0.5), s.lat_p50_us());
    if lag > 0.2 * p50 {
        why.push(format!(
            "generator ran late: median send lateness {lag:.1} us > 20% of lat_p50_us {p50:.1}"
        ));
    }
    if s.gen_busy_frac > 0.9 {
        why.push(format!(
            "gen.busy_frac {:.2}: the closed loop measured the generator, not the server",
            s.gen_busy_frac
        ));
    }
    if s.server_exited_early {
        why.push("the server child exited before the run ended".into());
    }
    if let Some(l) = l {
        let frac = attributed_frac(s, l);
        if !(0.8..=1.2).contains(&frac) {
            why.push(format!("ladder.attributed_frac {frac:.2} outside 0.8..1.2"));
        }
    }
    why
}
