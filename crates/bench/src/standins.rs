//! Stand-in systems for the §7 comparison (Figure 13).
//!
//! MongoDB, VoltDB, Redis and memcached cannot be run in this
//! environment, so each is replaced by a stand-in that reproduces the
//! *architectural property* the paper credits for its result, served
//! through the same `mtnet` network stack Masstree uses:
//!
//! * **memcached stand-in** — 16 hash-table partitions, no persistence,
//!   no range queries; gets batch, puts pay one round trip each (the
//!   paper's memcached client library lacked batched puts).
//! * **Redis stand-in** — 16 single-threaded (mutex-serialized) hash
//!   partitions with append-only logging; columns are fixed-width byte
//!   ranges of the value, as the paper did with Redis.
//! * **VoltDB-like stand-in** — 16 single-threaded *ordered* (tree)
//!   partitions behind a command-dispatch layer: every operation is
//!   rendered to and re-parsed from a stored-procedure-invocation string,
//!   modelling the SQL command path.
//! * **MongoDB-like stand-in** — like the VoltDB stand-in but with a
//!   document layer: each operation builds a BSON-style document with
//!   field names, and a coarse per-partition lock covers it.
//!
//! These stand-ins support honest *shape* comparisons (who wins, rough
//! factors, which workloads a system cannot run); they are not the real
//! systems, and `fig13_system_comparison` labels its rows accordingly.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use baselines::partition_of;
use masstree::Masstree;
use mtkv::{ColValue, LogRecord, LogWriter};
use mtnet::{Backend, ConnState, Request, Response};
use parking_lot::Mutex;

/// Number of partitions (the paper runs 16 instances of each system).
pub const PARTS: usize = 16;

// ---------------------------------------------------------------- blobs

/// A concurrent open-addressing hash table mapping byte keys to byte
/// blobs (whole values). No deletion; updates swap the blob pointer.
pub struct BlobHash {
    slots: Box<[BlobSlot]>,
    mask: usize,
}

struct BlobSlot {
    tag: AtomicU64,
    key: AtomicPtr<u8>,
    key_len: AtomicU64,
    value: AtomicPtr<Vec<u8>>,
}

fn fnv(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h | 1
}

impl BlobHash {
    pub fn with_expected_keys(expected: usize) -> BlobHash {
        let cap = (expected.max(16) * 10 / 3).next_power_of_two();
        BlobHash {
            slots: (0..cap)
                .map(|_| BlobSlot {
                    tag: AtomicU64::new(0),
                    key: AtomicPtr::new(std::ptr::null_mut()),
                    key_len: AtomicU64::new(0),
                    value: AtomicPtr::new(std::ptr::null_mut()),
                })
                .collect(),
            mask: cap - 1,
        }
    }

    fn slot_key(s: &BlobSlot) -> Option<&[u8]> {
        let p = s.key.load(Ordering::Acquire);
        if p.is_null() {
            return None;
        }
        let l = s.key_len.load(Ordering::Acquire) as usize;
        // SAFETY: key blocks are write-once and live with the table.
        Some(unsafe { std::slice::from_raw_parts(p, l) })
    }

    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let h = fnv(key);
        let mut i = h as usize & self.mask;
        loop {
            let s = &self.slots[i];
            let tag = s.tag.load(Ordering::Acquire);
            if tag == 0 {
                return None;
            }
            if tag == h && Self::slot_key(s) == Some(key) {
                let v = s.value.load(Ordering::Acquire);
                if v.is_null() {
                    return None;
                }
                // SAFETY: blobs are epoch-retired on update; calls happen
                // under a pinned guard at the backend layer.
                return Some(unsafe { (*v).clone() });
            }
            i = (i + 1) & self.mask;
        }
    }

    pub fn put(&self, key: &[u8], value: Vec<u8>, guard: &crossbeam::epoch::Guard) {
        let h = fnv(key);
        let vptr = Box::into_raw(Box::new(value));
        let mut i = h as usize & self.mask;
        let mut probes = 0;
        loop {
            let s = &self.slots[i];
            let tag = s.tag.load(Ordering::Acquire);
            if tag == h {
                let k = loop {
                    if let Some(k) = Self::slot_key(s) {
                        break k;
                    }
                    std::hint::spin_loop();
                };
                if k == key {
                    let old = s.value.swap(vptr, Ordering::AcqRel);
                    if !old.is_null() {
                        let oldp = old as usize;
                        // SAFETY: old blob unreachable; epoch protects
                        // in-flight readers.
                        unsafe {
                            guard
                                .defer_unchecked(move || drop(Box::from_raw(oldp as *mut Vec<u8>)));
                        }
                    }
                    return;
                }
            } else if tag == 0
                && s.tag
                    .compare_exchange(0, h, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                let boxed: Box<[u8]> = key.into();
                let len = boxed.len() as u64;
                s.key_len.store(len, Ordering::Release);
                s.key
                    .store(Box::into_raw(boxed).cast::<u8>(), Ordering::Release);
                s.value.store(vptr, Ordering::Release);
                return;
            }
            i = (i + 1) & self.mask;
            probes += 1;
            assert!(probes <= self.mask, "hash table full");
        }
    }
}

impl Drop for BlobHash {
    fn drop(&mut self) {
        for s in self.slots.iter() {
            let k = s.key.load(Ordering::Relaxed);
            if !k.is_null() {
                let l = s.key_len.load(Ordering::Relaxed) as usize;
                // SAFETY: exclusive access.
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(k, l)));
                }
            }
            let v = s.value.load(Ordering::Relaxed);
            if !v.is_null() {
                // SAFETY: exclusive access.
                unsafe { drop(Box::from_raw(v)) };
            }
        }
    }
}

// SAFETY: all shared state is atomic; blobs epoch-reclaimed.
unsafe impl Send for BlobHash {}
// SAFETY: as above.
unsafe impl Sync for BlobHash {}

/// Fixed column width used by the byte-range column emulation.
pub const COL_WIDTH: usize = 4;

fn cols_to_blob(cols: &[(u16, Vec<u8>)], old: Option<&[u8]>) -> Vec<u8> {
    // Fixed-width columns laid out back to back (the Redis byte-range
    // trick from §7); variable-width inputs are truncated/padded.
    let max_col = cols.iter().map(|(i, _)| *i as usize + 1).max().unwrap_or(0);
    let old_cols = old.map_or(0, |o| o.len() / COL_WIDTH);
    let ncols = max_col.max(old_cols).max(1);
    let mut blob = vec![0u8; ncols * COL_WIDTH];
    if let Some(o) = old {
        let n = o.len().min(blob.len());
        blob[..n].copy_from_slice(&o[..n]);
    }
    for (i, data) in cols {
        let off = *i as usize * COL_WIDTH;
        let n = data.len().min(COL_WIDTH);
        blob[off..off + n].copy_from_slice(&data[..n]);
    }
    blob
}

fn blob_cols(blob: &[u8], cols: &Option<Vec<u16>>) -> Vec<Vec<u8>> {
    match cols {
        None => blob.chunks(COL_WIDTH).map(|c| c.to_vec()).collect(),
        Some(ids) => ids
            .iter()
            .map(|&i| {
                let off = i as usize * COL_WIDTH;
                blob.get(off..off + COL_WIDTH).unwrap_or(&[]).to_vec()
            })
            .collect(),
    }
}

// ---------------------------------------------------- memcached stand-in

/// Partitioned hash store, no persistence, no scans.
pub struct MemcachedStandin {
    parts: Vec<BlobHash>,
}

impl MemcachedStandin {
    pub fn new(expected_keys: usize) -> Arc<MemcachedStandin> {
        Arc::new(MemcachedStandin {
            parts: (0..PARTS)
                .map(|_| BlobHash::with_expected_keys(expected_keys / PARTS + 16))
                .collect(),
        })
    }
}

struct MemcachedConn(Arc<MemcachedStandin>);

/// Arc-wrapped backends (connections share the store).
pub struct ArcBackend<T: ?Sized>(pub Arc<T>);

impl Backend for ArcBackend<MemcachedStandin> {
    fn connect(&self) -> Box<dyn ConnState> {
        Box::new(MemcachedConn(Arc::clone(&self.0)))
    }
}

impl ConnState for MemcachedConn {
    fn execute(&mut self, req: Request) -> Response {
        let guard = crossbeam::epoch::pin();
        match req {
            Request::Get { key, cols } => {
                let p = partition_of(&key, PARTS);
                Response::Value(
                    self.0.parts[p]
                        .get(&key)
                        .map(|b: Vec<u8>| blob_cols(&b, &cols)),
                )
            }
            Request::Put { key, cols } => {
                let p = partition_of(&key, PARTS);
                let old = self.0.parts[p].get(&key);
                let blob = cols_to_blob(&cols, old.as_deref());
                self.0.parts[p].put(&key, blob, &guard);
                Response::PutOk(0)
            }
            Request::Remove { .. } => Response::RemoveOk(false),
            // memcached has no range queries (§7: "N/A").
            Request::Scan { .. } => Response::Rows(vec![]),
            Request::Stats | Request::Flush | Request::Sync => Response::Stats(Default::default()),
            Request::StatsEx => Response::StatsEx(Default::default()),
        }
    }
}

// -------------------------------------------------------- Redis stand-in

/// Partitioned, mutex-serialized (single-threaded-instance) hash store
/// with append-only logging.
pub struct RedisStandin {
    parts: Vec<Mutex<BlobHash>>,
    logs: Vec<LogWriter>,
}

impl RedisStandin {
    pub fn new(expected_keys: usize, log_dir: &std::path::Path) -> std::io::Result<Arc<Self>> {
        std::fs::create_dir_all(log_dir)?;
        let mut logs = Vec::with_capacity(PARTS);
        for i in 0..PARTS {
            logs.push(LogWriter::open(log_dir.join(format!("log-redis-{i}")))?);
        }
        Ok(Arc::new(RedisStandin {
            parts: (0..PARTS)
                .map(|_| Mutex::new(BlobHash::with_expected_keys(expected_keys / PARTS + 16)))
                .collect(),
            logs,
        }))
    }
}

struct RedisConn(Arc<RedisStandin>);

impl Backend for ArcBackend<RedisStandin> {
    fn connect(&self) -> Box<dyn ConnState> {
        Box::new(RedisConn(Arc::clone(&self.0)))
    }
}

impl ConnState for RedisConn {
    fn execute(&mut self, req: Request) -> Response {
        let guard = crossbeam::epoch::pin();
        match req {
            Request::Get { key, cols } => {
                let p = partition_of(&key, PARTS);
                let part = self.0.parts[p].lock();
                Response::Value(part.get(&key).map(|b: Vec<u8>| blob_cols(&b, &cols)))
            }
            Request::Put { key, cols } => {
                let p = partition_of(&key, PARTS);
                {
                    let part = self.0.parts[p].lock();
                    let old = part.get(&key);
                    let blob = cols_to_blob(&cols, old.as_deref());
                    part.put(&key, blob, &guard);
                }
                self.0.logs[p].append(&LogRecord::Put {
                    timestamp: mtkv::clock::now(),
                    version: 0,
                    key,
                    cols,
                });
                Response::PutOk(0)
            }
            Request::Remove { .. } => Response::RemoveOk(false),
            Request::Scan { .. } => Response::Rows(vec![]),
            // Stand-ins model data paths only; durability admin
            // requests answer with empty stats.
            Request::Stats | Request::Flush | Request::Sync => Response::Stats(Default::default()),
            Request::StatsEx => Response::StatsEx(Default::default()),
        }
    }
}

// ----------------------------------------- partitioned tree stand-ins

/// Which heavyweight per-operation path to model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeStandinStyle {
    /// VoltDB-like: stored-procedure command dispatch per operation.
    VoltLike,
    /// MongoDB-like: document construction with named fields per op.
    MongoLike,
}

/// 16 mutex-serialized ordered partitions (each a Masstree of column
/// values) behind a synthetic command-processing layer.
pub struct TreeStandin {
    parts: Vec<Mutex<Masstree<ColValue>>>,
    style: TreeStandinStyle,
    versions: AtomicU64,
}

impl TreeStandin {
    pub fn new(style: TreeStandinStyle) -> Arc<TreeStandin> {
        Arc::new(TreeStandin {
            parts: (0..PARTS).map(|_| Mutex::new(Masstree::new())).collect(),
            style,
            versions: AtomicU64::new(1),
        })
    }

    /// The synthetic command layer: real serialization work standing in
    /// for SQL/stored-procedure dispatch or BSON document handling.
    fn command_overhead(&self, op: &str, key: &[u8]) {
        match self.style {
            TreeStandinStyle::VoltLike => {
                // Render and re-parse a procedure invocation.
                let cmd = format!("EXEC {op} ('{}');", String::from_utf8_lossy(key));
                let parsed: Vec<&str> = cmd.split(['(', ')', '\'', ';']).collect();
                std::hint::black_box(parsed);
            }
            TreeStandinStyle::MongoLike => {
                // Build a field-named document and a response document.
                let mut doc: Vec<(String, Vec<u8>)> = Vec::with_capacity(12);
                doc.push(("_id".to_string(), key.to_vec()));
                for i in 0..10 {
                    doc.push((format!("field{i}"), vec![0u8; 4]));
                }
                let encoded: usize = doc.iter().map(|(k, v)| k.len() + v.len() + 2).sum();
                std::hint::black_box((doc, encoded));
            }
        }
    }
}

struct TreeConn(Arc<TreeStandin>);

impl Backend for ArcBackend<TreeStandin> {
    fn connect(&self) -> Box<dyn ConnState> {
        Box::new(TreeConn(Arc::clone(&self.0)))
    }
}

impl ConnState for TreeConn {
    fn execute(&mut self, req: Request) -> Response {
        let s = &self.0;
        let guard = crossbeam::epoch::pin();
        match req {
            Request::Get { key, cols } => {
                s.command_overhead("get", &key);
                let p = partition_of(&key, PARTS);
                let part = s.parts[p].lock();
                let out = part.get(&key, &guard).map(|v| match &cols {
                    None => v.cols(),
                    Some(ids) => ids
                        .iter()
                        .map(|&i| v.col(i as usize).unwrap_or(&[]).to_vec())
                        .collect(),
                });
                Response::Value(out)
            }
            Request::Put { key, cols } => {
                s.command_overhead("put", &key);
                let p = partition_of(&key, PARTS);
                let version = s.versions.fetch_add(1, Ordering::Relaxed);
                let updates: Vec<(usize, &[u8])> = cols
                    .iter()
                    .map(|(i, d)| (*i as usize, d.as_slice()))
                    .collect();
                let part = s.parts[p].lock();
                part.put_with(
                    &key,
                    |old| {
                        Some(match old {
                            None => ColValue::from_updates(version, &updates),
                            Some(prev) => prev.with_updates(version, &updates),
                        })
                    },
                    &guard,
                );
                Response::PutOk(version)
            }
            Request::Remove { key } => {
                s.command_overhead("remove", &key);
                let p = partition_of(&key, PARTS);
                let part = s.parts[p].lock();
                Response::RemoveOk(part.remove(&key, &guard).is_some())
            }
            Request::Scan {
                key, count, cols, ..
            } => {
                s.command_overhead("scan", &key);
                // Cross-partition merge: collect `count` candidates from
                // every partition, then merge-sort (partitioned ordered
                // stores pay this on every range query — §7's "VoltDB's
                // range query support lags behind its pure gets").
                let mut all: Vec<(Vec<u8>, Vec<Vec<u8>>)> = Vec::new();
                for part in &s.parts {
                    let t = part.lock();
                    for (k, v) in t.get_range(&key, count as usize, &guard) {
                        let row = match &cols {
                            None => v.cols(),
                            Some(ids) => ids
                                .iter()
                                .map(|&i| v.col(i as usize).unwrap_or(&[]).to_vec())
                                .collect(),
                        };
                        all.push((k, row));
                    }
                }
                all.sort_by(|a, b| a.0.cmp(&b.0));
                all.truncate(count as usize);
                Response::Rows(all)
            }
            Request::Stats | Request::Flush | Request::Sync => Response::Stats(Default::default()),
            Request::StatsEx => Response::StatsEx(Default::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_hash_roundtrip() {
        let h = BlobHash::with_expected_keys(100);
        let g = crossbeam::epoch::pin();
        assert_eq!(h.get(b"k"), None);
        h.put(b"k", vec![1, 2, 3], &g);
        assert_eq!(h.get(b"k"), Some(vec![1, 2, 3]));
        h.put(b"k", vec![9], &g);
        assert_eq!(h.get(b"k"), Some(vec![9]));
    }

    #[test]
    fn column_blob_mapping() {
        let blob = cols_to_blob(&[(0, b"aaaa".to_vec()), (2, b"cc".to_vec())], None);
        assert_eq!(blob.len(), 3 * COL_WIDTH);
        assert_eq!(&blob[0..4], b"aaaa");
        assert_eq!(&blob[8..10], b"cc");
        let cols = blob_cols(&blob, &Some(vec![0, 2]));
        assert_eq!(cols[0], b"aaaa");
        assert_eq!(&cols[1][..2], b"cc");
        // Update preserves other columns.
        let blob2 = cols_to_blob(&[(1, b"bbbb".to_vec())], Some(&blob));
        assert_eq!(&blob2[0..4], b"aaaa");
        assert_eq!(&blob2[4..8], b"bbbb");
    }

    #[test]
    fn tree_standin_serves_all_ops() {
        let s = TreeStandin::new(TreeStandinStyle::VoltLike);
        let mut conn = TreeConn(Arc::clone(&s));
        let put = conn.execute(Request::Put {
            key: b"user5".to_vec(),
            cols: vec![(0, b"aaaa".to_vec())],
        });
        assert!(matches!(put, Response::PutOk(_)));
        let got = conn.execute(Request::Get {
            key: b"user5".to_vec(),
            cols: Some(vec![0]),
        });
        assert_eq!(got, Response::Value(Some(vec![b"aaaa".to_vec()])));
        // Scan across partitions returns merged sorted rows.
        for i in 0..50u32 {
            conn.execute(Request::Put {
                key: format!("scan{i:03}").into_bytes(),
                cols: vec![(0, i.to_le_bytes().to_vec())],
            });
        }
        let rows = conn.execute(Request::Scan {
            key: b"scan".to_vec(),
            count: 10,
            cols: Some(vec![0]),
            resume: None,
        });
        if let Response::Rows(rows) = rows {
            assert_eq!(rows.len(), 10);
            assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
            assert_eq!(rows[0].0, b"scan000");
        } else {
            panic!("expected rows");
        }
    }

    #[test]
    fn memcached_standin_basics() {
        let s = MemcachedStandin::new(1000);
        let mut conn = MemcachedConn(Arc::clone(&s));
        conn.execute(Request::Put {
            key: b"k".to_vec(),
            cols: vec![(0, b"abcd".to_vec())],
        });
        let got = conn.execute(Request::Get {
            key: b"k".to_vec(),
            cols: Some(vec![0]),
        });
        assert_eq!(got, Response::Value(Some(vec![b"abcd".to_vec()])));
        // No scans.
        assert_eq!(
            conn.execute(Request::Scan {
                key: vec![],
                count: 5,
                cols: None,
                resume: None,
            }),
            Response::Rows(vec![])
        );
    }
}
