//! One served run of one workload: spawn the server child on a fresh
//! directory, load and verify the data set, warm up, closed-loop phase,
//! open-loop phase, scrape the server's own counters and `/proc`, run
//! the kill-and-restart durability check where the workload writes, and
//! shut everything down.

use std::time::{Duration, Instant};

use mtkv::mtobs::Snapshot;
use mtnet::{Request, Response, StatsReply};

use crate::child::{DataDir, ServerChild};
use crate::gen::{KeyDist, Rng};
use crate::host;
use crate::stats::{iqr_over_median, median};
use crate::wire::Gen;
use crate::workload::{Mix, Spec, CLOSED_SHARE, DURABILITY_SAMPLE, WARMUP, WINDOW};

/// Everything measured by a served run; `metrics.rs` turns it into the
/// named end-to-end and counter metrics.
#[derive(Default)]
pub struct Served {
    pub setups_s: Vec<f64>,
    /// Closed loop.
    pub window_rates: Vec<f64>,
    pub closed_ops: u64,
    pub closed_puts: u64,
    pub closed_secs: f64,
    pub server_cpu_s: f64,
    pub gen_busy_frac: f64,
    /// Server counters: deltas over the closed-loop phase.
    pub stats: StatsReply,
    pub hists: Option<Snapshot>,
    /// Open loop: median latency of each window, in ns.
    pub lat_window_medians: Vec<f64>,
    /// Open loop, per frame, ascending, in ns.
    pub lat_all: Vec<u32>,
    pub lat_get: Vec<u32>,
    pub lat_scan: Vec<u32>,
    pub lag: Vec<u32>,
    /// End of run.
    pub checkpoints: u64,
    pub rss_mib: f64,
    pub storage_write_bytes: u64,
    pub user_bytes_put: u64,
    pub dir_bytes: u64,
    pub live_user_bytes: u64,
    /// Durability check (`None` where the workload does not write).
    pub restart_s: Option<f64>,
    pub lost_acked_writes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub server_exited_early: bool,
}

impl Served {
    pub fn setup_s(&self) -> f64 {
        median(&self.setups_s)
    }

    /// Mean rate over the whole closed-loop phase. Not the median of the
    /// windows: with periodic background work (a checkpoint every few
    /// seconds) the median flips between "during" and "between" rates as
    /// the share of disturbed windows wanders around one half, while the
    /// mean over several cycles moves by a few percent.
    pub fn ops_per_s(&self) -> f64 {
        self.window_rates.iter().sum::<f64>() / self.window_rates.len().max(1) as f64
    }

    /// Median of the open-loop windows' median latencies, in us. Taken
    /// per window because this sandbox stalls for hundreds of
    /// milliseconds now and then: a stall that delays a fifth of a
    /// phase's frames moves the phase-wide median to the undisturbed
    /// distribution's 62nd percentile, but only spoils a fifth of the
    /// windows.
    pub fn lat_p50_us(&self) -> f64 {
        median(&self.lat_window_medians) / 1e3
    }

    pub fn window_spread(&self) -> f64 {
        iqr_over_median(&self.window_rates)
    }

    pub fn min_window_over_median(&self) -> f64 {
        let min = self
            .window_rates
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        match median(&self.window_rates) {
            m if m > 0.0 => min / m,
            _ => 0.0,
        }
    }
}

fn stats_of(gen: &mut Gen) -> StatsReply {
    match gen.admin(0, Request::Stats) {
        Some(Response::Stats(s)) => s,
        _ => StatsReply::default(),
    }
}

fn hists_of(gen: &mut Gen) -> Option<Snapshot> {
    match gen.admin(0, Request::StatsEx) {
        Some(Response::StatsEx(s)) => Some(s.snap),
        _ => None,
    }
}

/// Field-wise `after - before` of the counters the benchmark reads.
fn stats_delta(after: &StatsReply, before: &StatsReply) -> StatsReply {
    macro_rules! delta {
        ($($f:ident),*) => {
            StatsReply { $($f: after.$f.saturating_sub(before.$f),)* ..StatsReply::default() }
        };
    }
    delta!(
        checkpoints,
        cache_lookups,
        cache_hits,
        cache_stale,
        cache_write_hits,
        cache_write_stale,
        indirect_reads,
        value_cache_hits,
        readahead_batches,
        coalesced_bytes,
        shared_misses
    )
}

/// One set-up: a server on a fresh directory with the data set loaded
/// and a sample of it read back. Fields drop in declaration order: the
/// child is killed before its directory is removed.
struct Rig {
    gen: Gen,
    child: ServerChild,
    dir: DataDir,
}

fn set_up(spec: Spec, seed: u64, smoke: bool, tag: &str) -> std::io::Result<Rig> {
    let dir = DataDir::create(&spec, tag)?;
    let child = ServerChild::spawn(&spec, dir.path(), smoke)?;
    let mut gen = Gen::connect(spec, seed, child.addr)?;
    gen.load_and_verify(seed);
    Ok(Rig { gen, child, dir })
}

pub fn run(
    spec: Spec,
    seed: u64,
    seconds: f64,
    smoke: bool,
    setups: usize,
) -> std::io::Result<Served> {
    let mut out = Served::default();

    // Set-up, repeated so that `setup_s` is a median; the last one is
    // the server the phases run against.
    let mut rig = None;
    for i in 0..setups.max(1) {
        if let Some(Rig { gen, .. }) = rig.take() {
            out.attempted += gen.attempted;
            out.failed += gen.failed;
        }
        let t0 = Instant::now();
        rig = Some(set_up(spec, seed, smoke, &i.to_string())?);
        out.setups_s.push(t0.elapsed().as_secs_f64());
    }
    // Bound in this order so that, on any exit, locals drop in the
    // reverse one: generator, then child, then its directory.
    let Rig {
        dir,
        mut child,
        mut gen,
    } = rig.expect("at least one set-up");

    gen.run_closed(
        WINDOW,
        (WARMUP.as_secs_f64() / WINDOW.as_secs_f64()).ceil() as usize,
    );

    // Closed loop, bracketed by the server's counters and CPU clocks.
    let windows = ((seconds * CLOSED_SHARE / WINDOW.as_secs_f64()) as usize).max(1);
    let stats0 = stats_of(&mut gen);
    let hists0 = hists_of(&mut gen);
    let cpu0 = host::process_cpu_seconds(child.pid());
    let (t0, attempted0) = (Instant::now(), gen.attempted);
    let closed = gen.run_closed(WINDOW, windows);
    out.closed_secs = t0.elapsed().as_secs_f64();
    out.server_cpu_s = host::process_cpu_seconds(child.pid()) - cpu0;
    out.closed_ops = gen.attempted - attempted0;
    out.closed_puts = closed.puts;
    out.gen_busy_frac = closed.busy_frac;
    out.window_rates = closed.rates;
    out.stats = stats_delta(&stats_of(&mut gen), &stats0);
    out.hists = hists_of(&mut gen).zip(hists0).map(|(a, b)| a.delta(&b));

    let open_secs = seconds - windows as f64 * WINDOW.as_secs_f64();
    let mut open = gen.run_open(Duration::from_secs_f64(open_secs.max(0.5)), spec.open_rate);
    out.lat_window_medians = open.window_medians();
    for v in [
        &mut open.lat_all,
        &mut open.lat_get,
        &mut open.lat_scan,
        &mut open.lag,
    ] {
        v.sort_unstable();
    }
    (out.lat_all, out.lat_get, out.lat_scan, out.lag) =
        (open.lat_all, open.lat_get, open.lat_scan, open.lag);

    out.checkpoints = stats_of(&mut gen).checkpoints;
    out.server_exited_early = child.exited();
    out.rss_mib = host::peak_rss_mib(child.pid());
    out.storage_write_bytes = host::storage_write_bytes(child.pid());
    out.user_bytes_put = gen.puts_acked * spec.user_bytes_per_put();
    out.live_user_bytes = spec.keys * spec.user_bytes_per_put();

    if spec.mix == Mix::HalfPut {
        // Durability: everything acknowledged before a `Sync` must be
        // readable after SIGKILL + restart on the same directory. This
        // is a process kill — the OS page cache survives it; machine
        // crashes stay with tier-1's `crash_torture`.
        for c in 0..crate::workload::CONNS {
            gen.admin(c, Request::Sync);
        }
        let sample = sample_ids(&spec, seed, DURABILITY_SAMPLE.min(spec.keys));
        let t_kill = Instant::now();
        child.kill();
        child = ServerChild::spawn(&spec, dir.path(), smoke)?;
        gen.reconnect(child.addr)?;
        out.restart_s = Some(t_kill.elapsed().as_secs_f64());
        let failed0 = gen.failed;
        gen.read_back(&sample);
        out.lost_acked_writes = gen.failed - failed0;
        out.server_exited_early |= child.exited();
    }
    out.dir_bytes = host::dir_bytes(dir.path());

    out.attempted += gen.attempted;
    out.failed += gen.failed;
    if out.server_exited_early {
        eprintln!("kvbench: the server child exited before the run ended");
        out.failed = out.failed.max(1);
    }
    child.kill();
    Ok(out)
}

/// Distinct ids drawn from the workload's own key distribution: mostly
/// the hot keys, which were overwritten many times, plus a cold tail.
fn sample_ids(spec: &Spec, seed: u64, n: u64) -> Vec<u64> {
    let dist = KeyDist::new(spec, seed);
    let mut rng = Rng(seed ^ 0xd00d);
    let mut seen = std::collections::BTreeSet::new();
    // Skewed draws repeat; top up with a uniform tail so the sample is
    // always full-sized.
    for _ in 0..n * 8 {
        if seen.len() as u64 >= n {
            break;
        }
        seen.insert(dist.id(spec.keys, &mut rng));
    }
    while (seen.len() as u64) < n {
        seen.insert(rng.below(spec.keys));
    }
    seen.into_iter().collect()
}
