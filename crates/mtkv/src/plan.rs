//! Conflict-aware phase planning for mixed operation batches.
//!
//! A batch executor wants few, large runs: one interleaved `multi_get`
//! and one `multi_put` over as many operations as possible. What stops
//! it merging *everything* is program order — but only per key. The
//! planner therefore assigns every operation of a **stream** (one
//! client's operations, in the order issued) the earliest **phase**
//! that keeps the stream's per-key order:
//!
//! * a read goes after the last earlier write of the same key;
//! * a write goes after the last earlier read *or* write of its key;
//! * a barrier (anything that is not a point read or write: scans,
//!   removes, admin requests) goes after everything before it, and
//!   everything after it goes later still.
//!
//! Phases execute in order and all operations of one phase may run in
//! any order, or interleaved, or merged with other streams' operations
//! of the same phase. So `[put a, get a]`, `[get a, put a]` and
//! `[put a, put a]` each take two phases, while `[put a, get b, put c,
//! get d]` takes one. Operations on different keys of one stream are
//! **not** ordered against each other, and streams are never ordered
//! against one another.
//!
//! A stream without a write skips key tracking altogether. Keys are
//! tracked by a keyed 64-bit hash, so a collision can only add a
//! spurious dependency (a later phase), never drop a real one. Each key
//! is hashed once: the map takes the hash as its own.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// How the planner sees one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass<'a> {
    /// Point read of the key.
    Read(&'a [u8]),
    /// Point write of the key.
    Write(&'a [u8]),
    /// Ordered against everything else in its stream.
    Barrier,
}

/// For one key of one stream: the first phase open to a later write
/// (`after_reads`, one past its latest read) and to a later read or
/// write (`after_write`, one past its latest write).
#[derive(Clone, Copy, Default)]
struct KeyPhases {
    after_reads: u32,
    after_write: u32,
}

/// The keyed 64-bit hash of `(stream, key)` the planner tracks keys by:
/// a multiply-rotate pass over 8-byte words from a per-planner random
/// seed, finished by a full-avalanche mix so that both the map's bucket
/// bits and its tag bits are spread.
struct KeyHash {
    seed: u64,
}

impl Default for KeyHash {
    fn default() -> KeyHash {
        KeyHash {
            seed: RandomState::new().hash_one(0u64),
        }
    }
}

impl KeyHash {
    fn of(&self, stream: u32, key: &[u8]) -> u64 {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let word = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(29);
        let mut h = self.seed ^ (u64::from(stream) << 32 | key.len() as u64);
        let mut words = key.chunks_exact(8);
        for w in &mut words {
            h = word(h, u64::from_le_bytes(w.try_into().unwrap()));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            h = word(h, u64::from_le_bytes(w));
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Hands a [`KeyHash`] through to the map unchanged.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the key map is keyed by u64 hashes only")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// Reusable phase planner: [`clear`](PhasePlanner::clear), one
/// [`push_stream`](PhasePlanner::push_stream) per stream,
/// [`finish`](PhasePlanner::finish), then walk
/// [`phases`](PhasePlanner::phases). Operations are numbered in push
/// order across streams. All buffers keep their capacity, so a warm
/// planner does not allocate.
#[derive(Default)]
pub struct PhasePlanner {
    hash: KeyHash,
    keys: HashMap<u64, KeyPhases, BuildHasherDefault<PassThrough>>,
    streams: u32,
    /// Phase of every pushed operation.
    phase: Vec<u32>,
    /// Operation numbers grouped by phase, push order within a phase.
    order: Vec<u32>,
    /// `order[ends[p - 1]..ends[p]]` is phase `p` (from 0 for `p == 0`).
    ends: Vec<u32>,
    conflict_splits: u64,
}

impl PhasePlanner {
    /// Forgets the previous plan.
    pub fn clear(&mut self) {
        if !self.keys.is_empty() {
            self.keys.clear();
        }
        self.streams = 0;
        self.phase.clear();
        self.order.clear();
        self.ends.clear();
        self.conflict_splits = 0;
    }

    /// Plans one stream's operations, in the order it issued them.
    pub fn push_stream<'a>(&mut self, ops: impl Iterator<Item = OpClass<'a>> + Clone) {
        let stream = self.streams;
        self.streams += 1;
        let tracked = ops.clone().any(|op| matches!(op, OpClass::Write(_)));
        // First phase open to operations after the latest barrier, and
        // the highest phase this stream has used so far.
        let mut base = 0u32;
        let mut top: Option<u32> = None;
        for op in ops {
            let phase = match op {
                OpClass::Barrier => {
                    let phase = top.map_or(0, |t| t + 1);
                    // Key entries recorded before the barrier all point
                    // at or below the new `base`, so they stop
                    // mattering without being forgotten.
                    base = phase + 1;
                    phase
                }
                OpClass::Read(_) if !tracked => base,
                OpClass::Read(key) => {
                    let seen = self.keys.entry(self.hash.of(stream, key));
                    let seen = seen.or_default();
                    let phase = base.max(seen.after_write);
                    seen.after_reads = seen.after_reads.max(phase + 1);
                    phase
                }
                OpClass::Write(key) => {
                    let seen = self.keys.entry(self.hash.of(stream, key));
                    let seen = seen.or_default();
                    let phase = base.max(seen.after_reads).max(seen.after_write);
                    seen.after_write = phase + 1;
                    phase
                }
            };
            // A keyed operation that lands past both the barrier floor
            // and everything its stream has used was pushed there by a
            // same-key conflict.
            if op != OpClass::Barrier && phase > base && top.is_some_and(|t| phase > t) {
                self.conflict_splits += 1;
            }
            top = Some(top.map_or(phase, |t| t.max(phase)));
            self.phase.push(phase);
        }
    }

    /// Groups the pushed operations by phase (a stable counting sort).
    pub fn finish(&mut self) {
        let phases = self.phase.iter().max().map_or(0, |&p| p as usize + 1);
        self.ends.resize(phases, 0);
        for &p in &self.phase {
            self.ends[p as usize] += 1;
        }
        // Counts → start offsets; placing each operation then advances
        // its phase's offset, leaving every entry at its phase's end.
        let mut start = 0u32;
        for end in &mut self.ends {
            start += std::mem::replace(end, start);
        }
        self.order.resize(self.phase.len(), 0);
        for (op, &p) in self.phase.iter().enumerate() {
            let at = &mut self.ends[p as usize];
            self.order[*at as usize] = op as u32;
            *at += 1;
        }
    }

    /// The plan: each phase's operation numbers, in push order.
    pub fn phases(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.ends.len()).map(|p| {
            let from = if p == 0 { 0 } else { self.ends[p - 1] };
            &self.order[from as usize..self.ends[p] as usize]
        })
    }

    /// Number of phases in the finished plan.
    pub fn phase_count(&self) -> usize {
        self.ends.len()
    }

    /// Extra phases a same-key conflict forced, summed over streams.
    pub fn conflict_splits(&self) -> u64 {
        self.conflict_splits
    }
}

/// Empties `v` and hands its allocation back as a vector of another
/// element type of the same layout — in practice the same type under a
/// different lifetime, which is how per-batch vectors of borrowed
/// slices are kept across batches. (The standard library collects an
/// emptied vector's iterator in place when the layouts match; were it
/// ever not to, this would cost an allocation, never correctness.)
pub fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| unreachable!()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plans one stream described as `"pa ga s gb"`: `p`ut / `g`et plus
    /// a key letter, anything else a barrier. Returns each op's phase.
    fn plan(planner: &mut PhasePlanner, stream: &str) -> Vec<u32> {
        let ops: Vec<&str> = stream.split_whitespace().collect();
        let from = planner.phase.len();
        planner.push_stream(ops.iter().map(|op| match op.as_bytes() {
            [b'g', key @ ..] => OpClass::Read(key),
            [b'p', key @ ..] => OpClass::Write(key),
            _ => OpClass::Barrier,
        }));
        planner.phase[from..].to_vec()
    }

    fn one(stream: &str) -> (Vec<u32>, u64) {
        let mut planner = PhasePlanner::default();
        let phases = plan(&mut planner, stream);
        (phases, planner.conflict_splits())
    }

    #[test]
    fn same_key_conflicts_split_and_everything_else_merges() {
        assert_eq!(one("pa ga"), (vec![0, 1], 1), "read sees the write");
        assert_eq!(one("ga pa"), (vec![0, 1], 1), "read misses the write");
        assert_eq!(one("pa pa"), (vec![0, 1], 1), "writes stay ordered");
        assert_eq!(one("ga ga"), (vec![0, 0], 0), "reads never conflict");
        assert_eq!(one("pa gb pc gd pe"), (vec![0; 5], 0));
        // A conflict only delays its own key's later operations.
        assert_eq!(one("pa gb ga pb gc"), (vec![0, 0, 1, 1, 0], 1));
        assert_eq!(one("pa ga pa ga"), (vec![0, 1, 2, 3], 3));
        // The write waits for every earlier read of the key.
        assert_eq!(one("pa ga ga pa"), (vec![0, 1, 1, 2], 2));
    }

    #[test]
    fn barriers_order_everything_and_cost_no_conflict_split() {
        assert_eq!(one("ga s gb"), (vec![0, 1, 2], 0));
        assert_eq!(one("s ga"), (vec![0, 1], 0));
        assert_eq!(one("s s"), (vec![0, 1], 0));
        // Keys seen before a barrier cannot pull later ops below it,
        // and the barrier lands after the conflict-delayed op.
        assert_eq!(one("pa ga s pa ga"), (vec![0, 1, 2, 3, 4], 2));
        assert_eq!(one("pa pb s ga gb"), (vec![0, 0, 1, 2, 2], 0));
    }

    #[test]
    fn write_free_streams_track_no_keys() {
        let mut planner = PhasePlanner::default();
        assert_eq!(plan(&mut planner, "ga ga gb s ga"), vec![0, 0, 0, 1, 2]);
        assert!(planner.keys.is_empty());
    }

    #[test]
    fn streams_are_planned_independently_and_grouped_by_phase() {
        let mut planner = PhasePlanner::default();
        assert_eq!(plan(&mut planner, "pa ga"), vec![0, 1]);
        assert_eq!(plan(&mut planner, "ga pa pb"), vec![0, 1, 0]);
        planner.finish();
        let phases: Vec<&[u32]> = planner.phases().collect();
        assert_eq!(phases, vec![&[0, 2, 4][..], &[1, 3][..]]);
        assert_eq!(planner.phase_count(), 2);
        assert_eq!(planner.conflict_splits(), 2);

        planner.clear();
        planner.finish();
        assert_eq!(planner.phases().count(), 0, "an empty plan has no phase");
        assert_eq!(plan(&mut planner, "ga"), vec![0]);
    }

    #[test]
    fn recycle_keeps_the_allocation() {
        let text = String::from("borrowed");
        let mut v: Vec<&str> = Vec::with_capacity(32);
        v.push(&text);
        let (ptr, cap) = (v.as_ptr() as usize, v.capacity());
        let v: Vec<&'static str> = recycle(v);
        assert!(v.is_empty());
        assert_eq!((v.as_ptr() as usize, v.capacity()), (ptr, cap));
    }
}
