//! Seeded property tests for the histogram core: recording, bucket
//! boundaries, saturation, merge/delta algebra, and percentile sanity
//! against an exact sorted reference. No external proptest crate — a
//! seeded xorshift generator drives the cases (the repo's
//! `log_proptest` discipline), so failures reproduce from the printed
//! seed.

use mtobs::{
    bucket_lower, bucket_of, bucket_upper, Hist, HistSet, HistSnapshot, Kind, Snapshot, MAX_VALUE,
    NBUCKETS,
};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A latency-shaped value: uniform over the exponent range, so
    /// every octave of the histogram gets exercised.
    fn latency(&mut self) -> u64 {
        let shift = self.next() % 44; // up to ~2^43: past saturation
        self.next() & ((1u64 << shift) | ((1u64 << shift) - 1))
    }
}

fn seed() -> u64 {
    let seed = std::env::var("MT_OBS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos() as u64
                | 1
        });
    println!("seed: {seed} (MT_OBS_SEED={seed} reproduces)");
    seed
}

#[test]
fn every_recorded_value_lands_in_its_bracketing_bucket() {
    let mut rng = Rng(seed());
    for _ in 0..50_000 {
        let v = rng.latency();
        let idx = bucket_of(v);
        let clamped = v.min(MAX_VALUE);
        assert!(
            bucket_lower(idx) <= clamped && clamped < bucket_upper(idx),
            "value {v} -> bucket {idx} [{}, {})",
            bucket_lower(idx),
            bucket_upper(idx)
        );
    }
}

#[test]
fn boundary_values_split_exactly() {
    // Every bucket boundary: the bound itself goes up, bound-1 stays.
    for i in 1..NBUCKETS {
        let b = bucket_lower(i);
        assert_eq!(bucket_of(b), i);
        assert_eq!(bucket_of(b - 1), i - 1);
    }
    // Saturation: anything at or past MAX_VALUE is the top bucket.
    for v in [MAX_VALUE, MAX_VALUE + 1, u64::MAX / 2, u64::MAX] {
        assert_eq!(bucket_of(v), NBUCKETS - 1);
    }
}

#[test]
fn count_and_sum_track_recordings_exactly() {
    let mut rng = Rng(seed());
    let h = Hist::default();
    let mut n = 0u64;
    let mut sum = 0u64;
    for _ in 0..10_000 {
        let v = rng.latency();
        h.record(v);
        n += 1;
        sum += v;
    }
    let s = h.snapshot();
    assert_eq!(s.count(), n);
    assert_eq!(s.sum, sum, "sum is exact (not bucketed)");
}

#[test]
fn merge_of_splits_equals_whole_and_delta_inverts() {
    let mut rng = Rng(seed());
    let whole = Hist::default();
    let parts: Vec<Hist> = (0..4).map(|_| Hist::default()).collect();
    for i in 0..20_000 {
        let v = rng.latency();
        whole.record(v);
        parts[i % 4].record(v);
    }
    let mut merged = HistSnapshot::default();
    for p in &parts {
        merged.merge(&p.snapshot());
    }
    assert_eq!(merged, whole.snapshot(), "merge order/partition invariant");

    // delta(snapshot after more records, snapshot before) == the more.
    let before = whole.snapshot();
    let extra = Hist::default();
    for _ in 0..1000 {
        let v = rng.latency();
        whole.record(v);
        extra.record(v);
    }
    assert_eq!(whole.snapshot().delta(&before), extra.snapshot());
    // Empty deltas and merges are identities.
    assert_eq!(before.delta(&before), HistSnapshot::default());
    let mut id = before;
    id.merge(&HistSnapshot::default());
    assert_eq!(id, before);
}

#[test]
fn percentiles_bracket_the_exact_order_statistic() {
    let mut rng = Rng(seed());
    for _case in 0..20 {
        let n = 100 + (rng.next() % 5000) as usize;
        let h = Hist::default();
        let mut exact: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            let v = rng.latency().min(MAX_VALUE);
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        let s = h.snapshot();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * n as f64).ceil() as usize).max(1) - 1;
            let truth = exact[rank];
            let est = s.percentile(q);
            // The estimate must sit inside the bucket holding the true
            // order statistic: within 12.5% relative (plus the unit
            // buckets at the very bottom of the range).
            let idx = bucket_of(truth);
            assert!(
                est >= bucket_lower(idx) && est < bucket_upper(idx).max(bucket_lower(idx) + 1),
                "q={q} truth={truth} est={est} bucket=[{},{})",
                bucket_lower(idx),
                bucket_upper(idx)
            );
        }
    }
}

#[test]
fn every_kind_owns_exactly_one_histogram() {
    // The kind table behind `StatsEx` and `/metrics`: each kind listed
    // once, at its own index, under its own name.
    assert_eq!(Kind::ALL.len(), Kind::COUNT);
    let mut names = std::collections::HashSet::new();
    for (i, k) in Kind::ALL.into_iter().enumerate() {
        assert_eq!(k as usize, i, "{}", k.name());
        assert_eq!(Kind::from_u8(i as u8), Some(k));
        assert!(names.insert(k.name()), "duplicate name {}", k.name());
    }
    assert_eq!(Kind::from_u8(Kind::COUNT as u8), None);

    // Recording into one kind moves that kind's histogram and no other.
    let mut rng = Rng(seed());
    let set = HistSet::default();
    let mut want = [(0u64, 0u64); Kind::COUNT];
    for _ in 0..20_000 {
        let k = Kind::ALL[(rng.next() % Kind::COUNT as u64) as usize];
        let v = rng.latency();
        set.record(k, v);
        want[k as usize].0 += 1;
        want[k as usize].1 += v;
    }
    let mut snap = Snapshot::empty();
    set.snapshot_into(&mut snap);
    for k in Kind::ALL {
        let h = snap.kind(k);
        assert_eq!((h.count(), h.sum), want[k as usize], "{}", k.name());
    }
}

#[test]
fn empty_snapshot_is_harmless() {
    let s = HistSnapshot::default();
    assert_eq!(s.count(), 0);
    assert_eq!(s.mean(), 0);
    for q in [0.0, 0.5, 0.999, 1.0] {
        assert_eq!(s.percentile(q), 0);
    }
    let mut m = HistSnapshot::default();
    m.merge(&s);
    assert_eq!(m, s);
}
