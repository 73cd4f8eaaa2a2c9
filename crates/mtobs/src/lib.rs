//! # mtobs — observability for the Masstree store
//!
//! Three pieces, all allocation-free on the recording path:
//!
//! * **Mergeable log-bucketed latency histograms** ([`Hist`]): a fixed
//!   array of relaxed atomic bucket counters indexed by the value's
//!   octave plus [`SUB_BITS`] sub-octave bits, so any recorded
//!   nanosecond value lands within 12.5% of its bucket's midpoint.
//!   Recording is two `fetch_add`s on per-worker (uncontended) cache
//!   lines — wait-free, no locks, no allocation. Snapshots are plain
//!   `u64` arrays that [`HistSnapshot::merge`] and
//!   [`HistSnapshot::delta`] combine, so per-worker recorders aggregate
//!   on *read*, never on the hot path.
//!
//! * **A recorder registry** ([`Obs`]): each worker session registers
//!   its own [`Recorder`] (one [`HistSet`] of [`Kind::COUNT`]
//!   histograms); a store-level snapshot upgrades the weak registry
//!   entries and sums them, the same flush-on-read discipline
//!   `mtcache`'s `CacheStatsShared` uses — so wire-level stats see
//!   **every** worker's traffic, not just the serving connection's.
//!   A dropped recorder folds its counts into a retained sink first,
//!   so short-lived connections never lose history.
//!
//! * **Sampled request tracing** ([`span`]): 1-in-N requests carry a
//!   thread-local span through decode → cache lookup → descent →
//!   value-tier resolve → WAL ack → respond; completed spans land in a
//!   bounded [`TraceRing`]. Ops slower than a configured threshold are
//!   force-sampled and dumped as one structured `SLOWOP` line. The
//!   inactive path — every unsampled op — costs one thread-local flag
//!   check per mark.
//!
//! Rendering helpers ([`render_prometheus`]) produce Prometheus text
//! exposition from a snapshot; the wire layer (`mtnet`) serializes
//! snapshots sparsely for the `StatsEx` op.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

pub mod span;

pub use span::{SpanGuard, Stage, TraceRec, TraceRing};

/// Sub-octave precision bits: each power-of-two range splits into
/// `2^SUB_BITS` linear sub-buckets, bounding relative bucket width (and
/// so percentile error) to `2^-(SUB_BITS+1)` = 12.5%.
pub const SUB_BITS: u32 = 2;
const SUB: usize = 1 << SUB_BITS;

/// Largest distinguishable value (ns): ~18 minutes. Larger values
/// saturate into the top bucket.
pub const MAX_VALUE: u64 = (1 << 40) - 1;

/// Bucket count: `SUB` unit buckets below `SUB`, then `SUB` sub-buckets
/// per octave up to octave 39.
pub const NBUCKETS: usize = (40 - SUB_BITS as usize) * SUB + SUB;

/// Bucket index of a value (saturating at [`MAX_VALUE`]).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    let v = v.min(MAX_VALUE);
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let shift = msb - SUB_BITS as usize;
    let sub = ((v >> shift) & (SUB as u64 - 1)) as usize;
    (msb - SUB_BITS as usize) * SUB + sub + SUB
}

/// Inclusive lower bound of a bucket (the smallest value that maps to
/// it) — the inverse of [`bucket_of`].
pub fn bucket_lower(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let o = (idx - SUB) / SUB;
    let s = ((idx - SUB) % SUB) as u64;
    (1u64 << (o + SUB_BITS as usize)) + (s << o)
}

/// Exclusive upper bound of a bucket.
pub fn bucket_upper(idx: usize) -> u64 {
    if idx + 1 < NBUCKETS {
        bucket_lower(idx + 1)
    } else {
        MAX_VALUE + 1
    }
}

/// What an individual histogram measures. Foreground kinds are recorded
/// by sessions/workers (per-op or per-merged-run latency); background
/// kinds by the durability and GC machinery into the store's global
/// recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Point get served by a validated cache hint (zero descent).
    GetHit = 0,
    /// Point get that ran a full (or hint-refreshing) tree descent.
    GetDescent = 1,
    /// Point get whose value resolved through the cold value tier.
    GetCold = 2,
    Put = 3,
    Remove = 4,
    /// Range scan (one `get_range_with`/resume chunk).
    Scan = 5,
    /// One cross-connection merged get run (server-side, per wakeup).
    MultiGet = 6,
    /// One cross-connection merged put run.
    MultiPut = 7,
    /// Foreground WAL group-commit force wait (ack latency component).
    WalForce = 8,
    /// Background group-commit barrier across all log chains.
    Barrier = 9,
    /// One full checkpoint write.
    Checkpoint = 10,
    /// One value-segment GC pass.
    GcPass = 11,
    /// One cold value read on its own (segment read + CRC + decode).
    VsegFill = 12,
    /// One batched cold-value resolution (`resolve_many`): prefetch,
    /// CRC and decode of every payload.
    VsegReadahead = 13,
    /// One log truncation + checkpoint prune pass of a durability cycle.
    Truncate = 14,
}

impl Kind {
    pub const COUNT: usize = 15;
    pub const ALL: [Kind; Kind::COUNT] = [
        Kind::GetHit,
        Kind::GetDescent,
        Kind::GetCold,
        Kind::Put,
        Kind::Remove,
        Kind::Scan,
        Kind::MultiGet,
        Kind::MultiPut,
        Kind::WalForce,
        Kind::Barrier,
        Kind::Checkpoint,
        Kind::GcPass,
        Kind::VsegFill,
        Kind::VsegReadahead,
        Kind::Truncate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::GetHit => "get_hit",
            Kind::GetDescent => "get_descent",
            Kind::GetCold => "get_cold",
            Kind::Put => "put",
            Kind::Remove => "remove",
            Kind::Scan => "scan",
            Kind::MultiGet => "multi_get",
            Kind::MultiPut => "multi_put",
            Kind::WalForce => "wal_force",
            Kind::Barrier => "barrier",
            Kind::Checkpoint => "checkpoint",
            Kind::GcPass => "gc_pass",
            Kind::VsegFill => "vseg_fill",
            Kind::VsegReadahead => "vseg_readahead",
            Kind::Truncate => "truncate",
        }
    }

    pub fn from_u8(v: u8) -> Option<Kind> {
        Kind::ALL.get(v as usize).copied()
    }
}

/// One log-bucketed histogram: bucket counters plus a running sum (for
/// means). The count is derived (sum of buckets), so recording is two
/// relaxed `fetch_add`s.
#[derive(Debug)]
pub struct Hist {
    sum: AtomicU64,
    buckets: [AtomicU64; NBUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Hist {
    /// Wait-free, allocation-free record of one nanosecond value.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            sum: self.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    /// Adds a snapshot's counts back into this (atomic) histogram —
    /// used to retain a dropped recorder's history.
    fn absorb(&self, s: &HistSnapshot) {
        if s.count() == 0 {
            return;
        }
        self.sum.fetch_add(s.sum, Ordering::Relaxed);
        for (b, v) in self.buckets.iter().zip(s.buckets.iter()) {
            if *v != 0 {
                b.fetch_add(*v, Ordering::Relaxed);
            }
        }
    }
}

/// A point-in-time copy of one histogram: plain numbers, mergeable and
/// subtractable, wire- and render-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Sum of recorded values (ns), for means.
    pub sum: u64,
    pub buckets: [u64; NBUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            sum: 0,
            buckets: [0; NBUCKETS],
        }
    }
}

impl HistSnapshot {
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Adds `other`'s counts into this snapshot.
    pub fn merge(&mut self, other: &HistSnapshot) {
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// The counts recorded since `prev` was taken (saturating, so a
    /// reset recorder yields zeros rather than wrapping).
    pub fn delta(&self, prev: &HistSnapshot) -> HistSnapshot {
        let mut d = HistSnapshot {
            sum: self.sum.saturating_sub(prev.sum),
            buckets: [0; NBUCKETS],
        };
        for i in 0..NBUCKETS {
            d.buckets[i] = self.buckets[i].saturating_sub(prev.buckets[i]);
        }
        d
    }

    /// The `q`-quantile (`0.0..=1.0`) as a nanosecond estimate: the
    /// midpoint of the bucket holding the target rank. Empty → 0.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                let lo = bucket_lower(i);
                let hi = bucket_upper(i);
                return lo + (hi - lo) / 2;
            }
        }
        MAX_VALUE
    }
}

/// One recorder's histograms, one per [`Kind`]. Sized for a per-worker
/// owner: recording touches only this worker's cache lines.
#[derive(Debug, Default)]
pub struct HistSet {
    hists: [Hist; Kind::COUNT],
}

impl HistSet {
    #[inline]
    pub fn record(&self, kind: Kind, ns: u64) {
        self.hists[kind as usize].record(ns);
    }

    pub fn snapshot_into(&self, out: &mut Snapshot) {
        for k in Kind::ALL {
            out.hists[k as usize].merge(&self.hists[k as usize].snapshot());
        }
    }
}

/// A merged view over every recorder: one [`HistSnapshot`] per
/// [`Kind`], plus tracing gauges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub hists: Vec<HistSnapshot>,
    /// Spans sampled into the trace ring so far.
    pub traces_sampled: u64,
    /// Ops that crossed the slow-op threshold.
    pub slow_ops: u64,
}

impl Snapshot {
    pub fn empty() -> Snapshot {
        Snapshot {
            hists: vec![HistSnapshot::default(); Kind::COUNT],
            traces_sampled: 0,
            slow_ops: 0,
        }
    }

    pub fn kind(&self, k: Kind) -> &HistSnapshot {
        &self.hists[k as usize]
    }

    /// Counts recorded since `prev` (per kind; gauges subtract too).
    pub fn delta(&self, prev: &Snapshot) -> Snapshot {
        let mut d = Snapshot::empty();
        for i in 0..Kind::COUNT {
            let p = prev.hists.get(i).copied().unwrap_or_default();
            d.hists[i] = self.hists[i].delta(&p);
        }
        d.traces_sampled = self.traces_sampled.saturating_sub(prev.traces_sampled);
        d.slow_ops = self.slow_ops.saturating_sub(prev.slow_ops);
        d
    }

    /// Total foreground ops (the request-latency kinds, not background
    /// timers) — used for rate lines.
    pub fn foreground_ops(&self) -> u64 {
        [
            Kind::GetHit,
            Kind::GetDescent,
            Kind::GetCold,
            Kind::Put,
            Kind::Remove,
            Kind::Scan,
        ]
        .iter()
        .map(|k| self.kind(*k).count())
        .sum()
    }
}

/// The store-wide observability hub: a registry of per-worker
/// recorders, a global recorder for background subsystems, a retained
/// sink for dropped recorders, the sampled-trace ring, and the slow-op
/// threshold.
#[derive(Debug)]
pub struct Obs {
    live: Mutex<Vec<Weak<HistSet>>>,
    global: HistSet,
    retired: HistSet,
    ring: TraceRing,
    /// Force-sample threshold (ns); ops at or above it are dumped as a
    /// structured `SLOWOP` line. `u64::MAX` disables.
    slow_ns: AtomicU64,
    /// Sample 1-in-`2^sample_shift` requests into the trace ring.
    sample_shift: AtomicUsize,
    sample_tick: AtomicU64,
    slow_ops: AtomicU64,
}

impl Default for Obs {
    fn default() -> Self {
        Obs {
            live: Mutex::new(Vec::new()),
            global: HistSet::default(),
            retired: HistSet::default(),
            ring: TraceRing::default(),
            slow_ns: AtomicU64::new(u64::MAX),
            sample_shift: AtomicUsize::new(10), // 1 in 1024
            sample_tick: AtomicU64::new(0),
            slow_ops: AtomicU64::new(0),
        }
    }
}

impl Obs {
    /// Registers and returns a new per-worker recorder. Its counts are
    /// visible in [`Obs::snapshot`] immediately and survive the
    /// recorder's drop (folded into the retained sink).
    pub fn recorder(self: &Arc<Self>) -> Recorder {
        let set = Arc::new(HistSet::default());
        let mut live = self.live.lock().unwrap();
        live.retain(|w| w.strong_count() > 0);
        live.push(Arc::downgrade(&set));
        Recorder {
            set,
            obs: Arc::clone(self),
        }
    }

    /// The background-subsystem recorder (WAL force, barrier,
    /// checkpoint, GC, vseg fill).
    pub fn global(&self) -> &HistSet {
        &self.global
    }

    /// Merged counts across every live recorder, the retained sink for
    /// dropped recorders, and the background recorder — the
    /// `Store::cache_stats` discipline applied to histograms, so a
    /// snapshot taken on any worker sees all workers' traffic.
    pub fn snapshot(&self) -> Snapshot {
        let mut out = Snapshot::empty();
        self.global.snapshot_into(&mut out);
        {
            // The registry lock serializes this read against
            // [`Recorder::drop`]'s remove-then-fold, so a recorder's
            // counts are seen exactly once: either via its live set or
            // via the retained sink, never both.
            let mut live = self.live.lock().unwrap();
            live.retain(|w| match w.upgrade() {
                Some(set) => {
                    set.snapshot_into(&mut out);
                    true
                }
                None => false,
            });
            self.retired.snapshot_into(&mut out);
        }
        out.traces_sampled = self.ring.pushed();
        out.slow_ops = self.slow_ops.load(Ordering::Relaxed);
        out
    }

    /// Sets the slow-op dump threshold in microseconds (`None`
    /// disables).
    pub fn set_slow_threshold_us(&self, us: Option<u64>) {
        let ns = us.map_or(u64::MAX, |u| u.saturating_mul(1000));
        self.slow_ns.store(ns, Ordering::Relaxed);
    }

    /// Sets the trace sampling rate to 1-in-`n` (rounded up to a power
    /// of two; 0 disables sampling entirely).
    pub fn set_sample_every(&self, n: u64) {
        let shift = if n == 0 {
            usize::MAX
        } else {
            64 - n.next_power_of_two().leading_zeros() as usize - 1
        };
        self.sample_shift.store(shift, Ordering::Relaxed);
    }

    /// True when this request should carry a trace span (a global
    /// 1-in-N tick; cheap enough for per-frame use).
    #[inline]
    pub fn should_sample(&self) -> bool {
        let shift = self.sample_shift.load(Ordering::Relaxed);
        if shift >= 64 {
            return false;
        }
        let t = self.sample_tick.fetch_add(1, Ordering::Relaxed);
        t & ((1u64 << shift) - 1) == 0
    }

    /// The sampled-trace ring (most recent [`span::RING_CAP`] spans).
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Completes the thread-local span (if one is active) into the
    /// ring, and force-dumps a structured `SLOWOP` line when `ns`
    /// crosses the threshold — outliers are captured even when the
    /// 1-in-N sampler skipped them.
    pub fn finish_op(&self, kind: Kind, ns: u64) {
        let slow = ns >= self.slow_ns.load(Ordering::Relaxed);
        if slow {
            self.slow_ops.fetch_add(1, Ordering::Relaxed);
        }
        let rec = span::take_active(kind, ns);
        match rec {
            Some(rec) => {
                if slow {
                    eprintln!("{}", rec.structured_line("SLOWOP"));
                }
                self.ring.push(rec);
            }
            None if slow => {
                // Not sampled: dump what we know (kind + total).
                let rec = TraceRec::untraced(kind, ns);
                eprintln!("{}", rec.structured_line("SLOWOP"));
                self.ring.push(rec);
            }
            None => {}
        }
    }
}

/// A per-worker recording handle. Dropping it folds its histograms
/// into the owning [`Obs`]'s retained sink, so no traffic is lost when
/// a connection (and its session) closes.
#[derive(Debug)]
pub struct Recorder {
    set: Arc<HistSet>,
    obs: Arc<Obs>,
}

impl Recorder {
    #[inline]
    pub fn record(&self, kind: Kind, ns: u64) {
        self.set.record(kind, ns);
    }

    /// Records and runs the slow-op / span-completion hook. Use for
    /// ops that are trace roots (session-level point ops, server
    /// frames); plain [`Recorder::record`] for sub-operations.
    #[inline]
    pub fn record_op(&self, kind: Kind, ns: u64) {
        self.set.record(kind, ns);
        // One relaxed load on the common (fast, untraced) path.
        if ns >= self.obs.slow_ns.load(Ordering::Relaxed) || span::is_active() {
            self.obs.finish_op(kind, ns);
        }
    }

    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    pub fn set(&self) -> &Arc<HistSet> {
        &self.set
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        // Unregister *before* folding, under the registry lock, so a
        // concurrent snapshot never sees these counts both live and
        // retained (see [`Obs::snapshot`]).
        let mut live = self.obs.live.lock().unwrap();
        let me = Arc::as_ptr(&self.set);
        live.retain(|w| w.as_ptr() != me);
        let mut snap = Snapshot::empty();
        self.set.snapshot_into(&mut snap);
        for k in Kind::ALL {
            self.obs.retired.hists[k as usize].absorb(&snap.hists[k as usize]);
        }
    }
}

/// Renders a snapshot plus caller-supplied gauges as Prometheus text
/// exposition (`text/plain; version=0.0.4`). Histogram buckets are
/// cumulative with `le` in **seconds**; empty interior buckets are
/// skipped (legal: `le` stays monotone), keeping the payload small.
pub fn render_prometheus(snap: &Snapshot, gauges: &[(&str, u64)]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# HELP mt_op_latency_seconds Per-stage operation latency.\n");
    out.push_str("# TYPE mt_op_latency_seconds histogram\n");
    for k in Kind::ALL {
        let h = snap.kind(k);
        let count = h.count();
        let mut cum = 0u64;
        for (i, b) in h.buckets.iter().enumerate() {
            if *b == 0 {
                continue;
            }
            cum += b;
            let le = bucket_upper(i) as f64 / 1e9;
            out.push_str(&format!(
                "mt_op_latency_seconds_bucket{{op=\"{}\",le=\"{le}\"}} {cum}\n",
                k.name()
            ));
        }
        out.push_str(&format!(
            "mt_op_latency_seconds_bucket{{op=\"{}\",le=\"+Inf\"}} {count}\n",
            k.name()
        ));
        out.push_str(&format!(
            "mt_op_latency_seconds_sum{{op=\"{}\"}} {}\n",
            k.name(),
            h.sum as f64 / 1e9
        ));
        out.push_str(&format!(
            "mt_op_latency_seconds_count{{op=\"{}\"}} {count}\n",
            k.name()
        ));
    }
    out.push_str("# TYPE mt_traces_sampled_total counter\n");
    out.push_str(&format!(
        "mt_traces_sampled_total {}\n",
        snap.traces_sampled
    ));
    out.push_str("# TYPE mt_slow_ops_total counter\n");
    out.push_str(&format!("mt_slow_ops_total {}\n", snap.slow_ops));
    for (name, v) in gauges {
        out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
    }
    out
}

/// Formats nanoseconds for human display (`µs` precision keeps the
/// `stats --histograms` table aligned).
pub fn fmt_ns(ns: u64) -> String {
    if ns == 0 {
        "-".into()
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_continuous_and_inverse() {
        // Every bucket's lower bound maps back to that bucket, and
        // bounds tile the value space with no gaps.
        for i in 0..NBUCKETS {
            let lo = bucket_lower(i);
            assert_eq!(bucket_of(lo), i, "lower bound of bucket {i}");
            if i + 1 < NBUCKETS {
                assert_eq!(bucket_upper(i), bucket_lower(i + 1));
                assert_eq!(bucket_of(bucket_upper(i) - 1), i, "last value of {i}");
            }
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), NBUCKETS - 1, "saturates");
        assert_eq!(bucket_of(MAX_VALUE), NBUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        // Bucket width / midpoint ≤ 2^-(SUB_BITS+1) over the log range.
        for i in SUB..NBUCKETS {
            let lo = bucket_lower(i) as f64;
            let hi = bucket_upper(i) as f64;
            let mid = (lo + hi) / 2.0;
            assert!((hi - lo) / 2.0 / mid <= 0.126, "bucket {i}");
        }
    }

    #[test]
    fn percentiles_land_in_the_right_bucket() {
        let h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        let p50 = s.percentile(0.50) as f64;
        let p99 = s.percentile(0.99) as f64;
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.15, "p50 {p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.15, "p99 {p99}");
        assert!(s.percentile(1.0) >= s.percentile(0.5));
        assert_eq!(HistSnapshot::default().percentile(0.99), 0, "empty");
    }

    #[test]
    fn merge_and_delta_are_inverse() {
        let a = Hist::default();
        let b = Hist::default();
        for v in [10u64, 100, 1000, 10_000] {
            a.record(v);
            b.record(v * 3);
        }
        let sa = a.snapshot();
        let mut merged = sa;
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 8);
        assert_eq!(merged.delta(&sa), b.snapshot());
    }

    #[test]
    fn recorder_counts_survive_drop() {
        let obs = Arc::new(Obs::default());
        {
            let r = obs.recorder();
            r.record(Kind::Put, 5_000);
            r.record(Kind::Put, 7_000);
        } // dropped: folds into the retained sink
        let r2 = obs.recorder();
        r2.record(Kind::Put, 9_000);
        let snap = obs.snapshot();
        assert_eq!(snap.kind(Kind::Put).count(), 3);
        assert_eq!(snap.kind(Kind::Put).sum, 21_000);
    }

    #[test]
    fn snapshot_sees_all_live_recorders() {
        let obs = Arc::new(Obs::default());
        let a = obs.recorder();
        let b = obs.recorder();
        a.record(Kind::GetHit, 100);
        b.record(Kind::GetHit, 200);
        obs.global().record(Kind::Checkpoint, 1 << 20);
        let snap = obs.snapshot();
        assert_eq!(snap.kind(Kind::GetHit).count(), 2);
        assert_eq!(snap.kind(Kind::Checkpoint).count(), 1);
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let obs = Arc::new(Obs::default());
        let r = obs.recorder();
        for v in [1_000u64, 2_000, 4_000, 1_000_000] {
            r.record(Kind::GetDescent, v);
        }
        let text = render_prometheus(&obs.snapshot(), &[("mt_keys", 42)]);
        assert!(text.contains("# TYPE mt_op_latency_seconds histogram"));
        assert!(text.contains("mt_op_latency_seconds_count{op=\"get_descent\"} 4"));
        assert!(text.contains("le=\"+Inf\"}"));
        assert!(text.contains("mt_keys 42"));
        // Cumulative le series must be monotone per op.
        let mut last = 0u64;
        for line in text.lines() {
            if line.starts_with("mt_op_latency_seconds_bucket{op=\"get_descent\"") {
                let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= last, "{line}");
                last = v;
            }
        }
        assert_eq!(last, 4);
    }

    #[test]
    fn sampling_rate_is_respected() {
        let obs = Obs::default();
        obs.set_sample_every(4);
        let hits = (0..64).filter(|_| obs.should_sample()).count();
        assert_eq!(hits, 16);
        obs.set_sample_every(0);
        assert!((0..64).all(|_| !obs.should_sample()));
    }
}
