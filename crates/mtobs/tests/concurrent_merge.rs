//! Concurrency proof for the recorder registry: merged totals equal
//! the sum of what every worker recorded, with workers recording
//! while snapshots are taken and recorders dropping mid-run (their
//! history must fold into the retained sink, never vanish).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mtobs::{Kind, Obs};

#[test]
fn merged_totals_equal_sum_of_per_worker_records() {
    let obs = Arc::new(Obs::default());
    let expected_count = Arc::new(AtomicU64::new(0));
    let expected_sum = Arc::new(AtomicU64::new(0));
    const WORKERS: usize = 8;
    const OPS: u64 = 50_000;
    const BACKGROUND: u64 = 1_000;

    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let obs = Arc::clone(&obs);
            let expected_count = Arc::clone(&expected_count);
            let expected_sum = Arc::clone(&expected_sum);
            s.spawn(move || {
                let rec = obs.recorder();
                let mut local_sum = 0u64;
                for i in 0..OPS {
                    // Deterministic per-worker values across several
                    // octaves so many buckets participate.
                    let v = (w as u64 + 1) * 100 + (i % 1024) * 37;
                    rec.record(Kind::GetDescent, v);
                    local_sum += v;
                }
                expected_count.fetch_add(OPS, Ordering::Relaxed);
                expected_sum.fetch_add(local_sum, Ordering::Relaxed);
            });
        }
        // A background subsystem (the durability cycle's truncation
        // pass) records into the global recorder at the same time.
        let obs_bg = Arc::clone(&obs);
        s.spawn(move || {
            for i in 0..BACKGROUND {
                obs_bg.global().record(Kind::Truncate, 1_000 + i);
            }
        });
        // Concurrent snapshot reader: totals must be monotone and
        // well-formed while recording races.
        let obs_reader = Arc::clone(&obs);
        s.spawn(move || {
            let mut last = 0u64;
            for _ in 0..200 {
                let snap = obs_reader.snapshot();
                let c = snap.kind(Kind::GetDescent).count();
                assert!(c >= last, "snapshot counts must be monotone");
                last = c;
                std::hint::spin_loop();
            }
        });
    });

    let snap = obs.snapshot();
    let h = snap.kind(Kind::GetDescent);
    assert_eq!(h.count(), expected_count.load(Ordering::Relaxed));
    assert_eq!(h.sum, expected_sum.load(Ordering::Relaxed));
    let t = snap.kind(Kind::Truncate);
    assert_eq!(t.count(), BACKGROUND);
    assert_eq!(t.sum, (1_000..1_000 + BACKGROUND).sum::<u64>());
}

#[test]
fn dropped_recorders_fold_into_the_retained_sink_under_contention() {
    let obs = Arc::new(Obs::default());
    const WORKERS: usize = 8;
    const GENERATIONS: u64 = 16;
    const OPS: u64 = 1000;

    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let obs = Arc::clone(&obs);
            s.spawn(move || {
                for g in 0..GENERATIONS {
                    // A fresh short-lived recorder per "connection".
                    let rec = obs.recorder();
                    for i in 0..OPS {
                        rec.record(Kind::Put, (w as u64 + 1) * (g + 1) + i % 7);
                    }
                    // Snapshots racing the drop-fold must never see a
                    // partial loss below the already-folded floor.
                    let _ = obs.snapshot();
                }
            });
        }
    });

    let snap = obs.snapshot();
    assert_eq!(
        snap.kind(Kind::Put).count(),
        WORKERS as u64 * GENERATIONS * OPS,
        "every generation's records survive its recorder's drop"
    );
}
