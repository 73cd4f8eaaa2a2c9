//! The four workloads and the fixed load shape. These are constants: a
//! run never derives its shape from the host, so two commits measured on
//! one machine are always measured the same way.

use std::time::Duration;

use mtkv::{CacheConfig, DurabilityConfig};

/// Server: one event-loop worker. Generator: one busy-polling thread
/// driving two nonblocking connections. Two runnable threads, two cores.
pub const SERVER_WORKERS: usize = 1;
pub const CONNS: usize = 2;
/// Per-worker leaf-hint cache on every workload: the operator setting
/// for skewed traffic; uniform traffic must ride the adaptive bypass.
pub const SESSION_CACHE_SLOTS: usize = 4096;
/// Ops per put frame while loading the data set.
pub const LOAD_BATCH: usize = 256;
/// Share of the data set read back (and checked) after the load.
pub const VERIFY_FRAC: f64 = 0.01;
pub const WARMUP: Duration = Duration::from_secs(1);
/// The closed-loop phase is cut into windows this long: their mean is
/// the throughput, their spread and slowest member are per-layer metrics.
pub const WINDOW: Duration = Duration::from_millis(250);
/// Share of a run's `--seconds` spent in the closed-loop phase; the
/// open-loop phase gets the rest. Throughput needs the longer phase: on
/// a 2-core host the server drifts between batching regimes over
/// seconds, and only a long phase averages over them.
pub const CLOSED_SHARE: f64 = 2.0 / 3.0;
/// A reply this late is a failed op, and its connection is abandoned.
/// Generous, because this sandbox itself stalls for up to ~2 s now and
/// then; what it bounds is a hung server, which must end as failed ops,
/// never as a hung benchmark.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Keys whose last synced write is checked across SIGKILL + restart.
pub const DURABILITY_SAMPLE: u64 = 10_000;
/// Rows per scan.
pub const SCAN_ROWS: u32 = 16;
/// Operations replayed through each in-process ladder rung.
pub const LADDER_OPS: usize = 200_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 100% `Get`.
    Get,
    /// 50% `Get`, 50% overwriting `Put` (MYCSB-A).
    HalfPut,
    /// 50% `Get`, 50% `Scan` of [`SCAN_ROWS`] rows.
    HalfScan,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub keys: u64,
    pub value_len: usize,
    /// Ops per frame.
    pub batch: usize,
    /// Frames each connection keeps outstanding in the closed loop.
    pub depth: usize,
    /// `None` = uniform keys.
    pub theta: Option<f64>,
    pub mix: Mix,
    /// Open-loop rate in ops/s: calibrated once to 35-40% of the
    /// closed-loop rate at the commit that added the benchmark (see
    /// CALIBRATION.md), then frozen. Not half: on the 2-core sandbox the
    /// server's capacity itself wanders by ~10%, and at 50% load the
    /// queueing share of the median latency wanders with it.
    pub open_rate: f64,
    /// Background checkpointer cadence (`rw_durable` only).
    pub checkpoint_interval: Option<Duration>,
    /// `(threshold, cache bytes)` of the cold value tier
    /// (`cold_scan_get` only).
    pub value_separation: Option<(usize, usize)>,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "get_uniform",
        keys: 1_000_000,
        value_len: 64,
        batch: 1,
        depth: 16,
        theta: None,
        mix: Mix::Get,
        open_rate: 100_000.0,
        checkpoint_interval: None,
        value_separation: None,
    },
    Spec {
        name: "mget_zipf",
        keys: 1_000_000,
        value_len: 64,
        batch: 64,
        depth: 2,
        theta: Some(0.99),
        mix: Mix::Get,
        open_rate: 700_000.0,
        checkpoint_interval: None,
        value_separation: None,
    },
    Spec {
        name: "rw_durable",
        keys: 250_000,
        value_len: 64,
        batch: 16,
        depth: 2,
        theta: Some(0.99),
        mix: Mix::HalfPut,
        open_rate: 200_000.0,
        checkpoint_interval: Some(Duration::from_secs(2)),
        value_separation: None,
    },
    Spec {
        name: "cold_scan_get",
        keys: 150_000,
        value_len: 1024,
        batch: 1,
        depth: 8,
        theta: Some(0.99),
        mix: Mix::HalfScan,
        open_rate: 30_000.0,
        checkpoint_interval: None,
        // 32 MiB of cache under ~150 MB of values: the one data set that
        // is larger than the program's own cache.
        value_separation: Some((256, 32 << 20)),
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().find(|s| s.name == name).copied()
    }

    /// The self-check shape: same traffic, 20k-key data set, cold cache
    /// scaled to keep the 1/5 ratio.
    pub fn smoke(mut self) -> Spec {
        self.keys = 20_000;
        self.open_rate /= 4.0;
        if let Some((threshold, _)) = self.value_separation {
            self.value_separation = Some((threshold, 4 << 20));
        }
        self
    }

    /// Library-default group commit on every workload; never changed
    /// between commits.
    pub fn durability(&self) -> DurabilityConfig {
        let mut cfg = DurabilityConfig::default();
        if let Some(interval) = self.checkpoint_interval {
            cfg = cfg.with_interval(interval);
        }
        if let Some((threshold, cache)) = self.value_separation {
            cfg = cfg.with_value_separation(threshold, cache);
        }
        cfg
    }

    pub fn session_cache() -> CacheConfig {
        CacheConfig::with_capacity(SESSION_CACHE_SLOTS)
    }

    /// Reply frames the generator handles per connection before it
    /// writes the frames that replace them — so also the number of frames
    /// that reach the server together once the pipeline is full.
    pub fn chunk(&self) -> usize {
        (self.depth / 2).max(1)
    }

    /// Key + value bytes one put carries.
    pub fn user_bytes_per_put(&self) -> u64 {
        (crate::gen::KEY_LEN + self.value_len) as u64
    }
}
