//! Monotonic log-record timestamps (§5 of the paper).
//!
//! Log records are timestamped; recovery computes the cutoff
//! `t = min over logs of the log's last timestamp` and drops records past
//! it. Wall clocks can repeat or go backwards, so we use a hybrid clock:
//! microseconds since the epoch, forced strictly monotonic across all
//! threads by a global atomic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

static LAST: AtomicU64 = AtomicU64::new(0);

/// A strictly increasing, process-wide unique timestamp (µs-based).
pub fn now() -> u64 {
    reserve(1)
}

/// Reserves `n` (at least one) consecutive timestamps with one clock
/// read and returns the first: every one of them is later than any
/// timestamp issued before, and anything issued afterwards is later
/// than all of them. A batch of log records stamps itself from one
/// reservation instead of reading the clock per record.
pub fn reserve(n: u64) -> u64 {
    let wall = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mut last = LAST.load(Ordering::Relaxed);
    loop {
        let first = wall.max(last + 1);
        let end = first + n.max(1) - 1;
        match LAST.compare_exchange_weak(last, end, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return first,
            Err(cur) => last = cur,
        }
    }
}

/// The most recent timestamp issued by [`now`], **without** advancing
/// the clock. Durability bookkeeping (checkpoint ages, stats) reads this
/// so observation never perturbs the timestamp order that recovery's
/// cutoff reasoning depends on. Returns 0 if no timestamp was issued
/// yet.
pub fn recent() -> u64 {
    LAST.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recent_does_not_advance() {
        let t = now();
        assert!(recent() >= t);
        let r1 = recent();
        let r2 = recent();
        assert_eq!(r1, r2, "recent() must not tick the clock");
        assert!(now() > r2);
    }

    #[test]
    fn reserved_blocks_never_overlap() {
        let before = now();
        let first = reserve(10);
        assert!(first > before);
        assert!(recent() >= first + 9, "the whole block is consumed");
        assert!(now() > first + 9);
        let single = reserve(0);
        assert!(now() > single, "an empty request still takes one stamp");
    }

    #[test]
    fn strictly_monotonic() {
        let mut prev = now();
        for _ in 0..10_000 {
            let t = now();
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn monotonic_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    let mut seen = Vec::with_capacity(1000);
                    for _ in 0..1000 {
                        seen.push(now());
                    }
                    seen
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "timestamps globally unique");
    }
}
