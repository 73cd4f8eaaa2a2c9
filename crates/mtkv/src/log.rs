//! Value logging (§5 of the paper) with online segment rotation.
//!
//! Each query worker owns a log and an in-memory log buffer; a logging
//! thread per worker writes the buffer out in the background, so a put
//! appends and returns without waiting for storage. Loggers batch for
//! sequential throughput but force data out at least every 200 ms
//! ("for safety"). Different logs may live on different disks.
//!
//! A session's log is a chain of numbered **segments**
//! (`log-<session>.<seg>`). When the active segment passes a size
//! threshold the logger *rotates*: it creates the successor file, seals
//! the current segment with a [`LogRecord::CleanClose`] sentinel, syncs
//! it, and switches. A sealed segment is immutable and — once a
//! checkpoint covers every record in it — can be deleted
//! ([`truncate_covered_segments`]), which is what keeps log space and
//! recovery time bounded while the store runs (§5: "log data older than
//! a completed checkpoint is truncated").
//!
//! Truncation runs beside request processing on every durability cycle,
//! so its cost is bounded: one streaming pass through a fixed
//! [`WALK_WINDOW`] ([`SegmentWalker`]); only segments that end up
//! deleted are read to the end (the others stop at their first frame or
//! at their first record the checkpoint does not cover); nothing is
//! decoded into owned records — the walk borrows each frame in place
//! ([`LogRecord::decode_ref`], the same validator [`decode_all`] uses).
//!
//! Record wire format (little-endian):
//!
//! ```text
//! u32  payload length (from op byte through last column)
//! u8   op (1 = put, 2 = remove, 6 = indirect put: 24-byte value pointer
//!      tail in place of columns)
//! u64  timestamp     u64 value-version
//! u32  key length    key bytes
//! u16  column count  (column id: u16, len: u32, bytes)*
//! u32  CRC-32 of the payload
//! ```
//!
//! The format has two users. Log segments hold every op. A checkpoint
//! part (`checkpoint.rs`) is a sequence of put frames (ops 1 and 6), all
//! stamped with the checkpoint's start timestamp and encoded by the same
//! `put_frame`; recovery streams both through [`SegmentWalker`] and
//! applies both through one replay gate.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::crc32::crc32;
use crate::value::{ColValue, ValuePtr};

/// Force-to-storage interval (§5: "at least every 200 ms").
pub const FORCE_INTERVAL: Duration = Duration::from_millis(200);
/// Background write poll interval.
const WAKE_INTERVAL: Duration = Duration::from_millis(10);
/// Default rotation threshold for segmented session logs.
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 << 20;

/// A logged operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    Put {
        timestamp: u64,
        version: u64,
        key: Vec<u8>,
        /// The **full resulting value** (every column), not the update
        /// delta: version-gated replay runs out of order across
        /// segments and sessions, and a delta applied without the
        /// records it merged over would drop the untouched columns.
        cols: Vec<(u16, Vec<u8>)>,
    },
    /// A put whose value lives in the value-separation tier: the record
    /// carries the fixed-size [`ValuePtr`] instead of the column bytes.
    /// The tier is forced **before** any WAL force that could make this
    /// record durable, so a replayable pointer always names a payload
    /// that was at least written; replay still read-verifies it (crc +
    /// length) and skips the record — counting it — if the payload
    /// cannot be proven intact, which by that ordering can only happen
    /// to unacked tails.
    PutIndirect {
        timestamp: u64,
        version: u64,
        key: Vec<u8>,
        ptr: ValuePtr,
    },
    Remove {
        timestamp: u64,
        version: u64,
        key: Vec<u8>,
    },
    /// Logger liveness marker: "this log contains every record this
    /// worker issued before `timestamp`". Written by the logger thread on
    /// each flush so an idle worker's log does not hold back the recovery
    /// cutoff `t` (§5). Skipped during replay.
    Heartbeat { timestamp: u64 },
    /// Clean-close sentinel: "this segment is **complete** — nothing will
    /// ever be appended to it again". Written as the final record when a
    /// [`LogWriter`] is dropped *and* when the logger rotates to a new
    /// segment. A session whose newest segment ends in this record shut
    /// down cleanly and is excluded from the recovery cutoff `min`
    /// entirely: its silence after `timestamp` is complete knowledge, not
    /// missing data, so it must not freeze the cutoff at its close time
    /// and drop everything other workers logged afterwards. Skipped
    /// during replay.
    CleanClose { timestamp: u64 },
    /// Session-create journal entry: written (and **synced**) by
    /// `Store::session` before the session is handed to its worker, so
    /// every operation the session can ever perform happens-after this
    /// record is durable. Recovery's cutoff rule "an empty log chain
    /// constrains nothing" then holds *by evidence*: an empty chain can
    /// only mean session creation never completed, hence no operation —
    /// logged or lost — ever ran on it. Without this record the rule
    /// rested on trust (an empty file could equally be a session whose
    /// entire buffered history was lost). Skipped during replay.
    SessionCreate { timestamp: u64 },
}

impl LogRecord {
    pub fn timestamp(&self) -> u64 {
        match self {
            LogRecord::Put { timestamp, .. }
            | LogRecord::PutIndirect { timestamp, .. }
            | LogRecord::Remove { timestamp, .. }
            | LogRecord::Heartbeat { timestamp }
            | LogRecord::CleanClose { timestamp }
            | LogRecord::SessionCreate { timestamp } => *timestamp,
        }
    }

    pub fn version(&self) -> u64 {
        match self {
            LogRecord::Put { version, .. }
            | LogRecord::PutIndirect { version, .. }
            | LogRecord::Remove { version, .. } => *version,
            LogRecord::Heartbeat { .. }
            | LogRecord::CleanClose { .. }
            | LogRecord::SessionCreate { .. } => 0,
        }
    }

    pub fn key(&self) -> &[u8] {
        match self {
            LogRecord::Put { key, .. }
            | LogRecord::PutIndirect { key, .. }
            | LogRecord::Remove { key, .. } => key,
            LogRecord::Heartbeat { .. }
            | LogRecord::CleanClose { .. }
            | LogRecord::SessionCreate { .. } => &[],
        }
    }

    /// True for marker records (heartbeats, clean-close sentinels) that
    /// carry no data and are skipped during replay.
    pub fn is_marker(&self) -> bool {
        matches!(
            self,
            LogRecord::Heartbeat { .. }
                | LogRecord::CleanClose { .. }
                | LogRecord::SessionCreate { .. }
        )
    }

    /// The record's wire op byte.
    fn op(&self) -> u8 {
        match self {
            LogRecord::Put { .. } => OP_PUT,
            LogRecord::Remove { .. } => OP_REMOVE,
            LogRecord::Heartbeat { .. } => OP_HEARTBEAT,
            LogRecord::CleanClose { .. } => OP_CLEAN_CLOSE,
            LogRecord::SessionCreate { .. } => OP_SESSION_CREATE,
            LogRecord::PutIndirect { .. } => OP_PUT_INDIRECT,
        }
    }

    /// Serializes into `out` (framing + CRC).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = begin_frame(out, self.op(), self.timestamp(), self.version(), self.key());
        match self {
            LogRecord::Put { cols, .. } => {
                put_cols(out, cols.len(), cols.iter().map(|(id, d)| (*id, &d[..])))
            }
            LogRecord::PutIndirect { ptr, .. } => {
                put_cols(out, 0, std::iter::empty());
                ptr.encode(out);
            }
            _ => put_cols(out, 0, std::iter::empty()),
        }
        close_frame(out, start);
        seal_frame(out, start);
    }

    /// Decodes one record from `buf`, returning it and the bytes consumed.
    /// `None` on a torn or corrupt tail (recovery stops there, §5).
    pub fn decode(buf: &[u8]) -> Option<(LogRecord, usize)> {
        Self::decode_ref(buf).map(|(rec, used)| (rec.to_owned(), used))
    }

    /// Validates the record frame at the head of `buf` — length, CRC,
    /// known op, well-formed columns or value pointer — and returns it
    /// borrowed, with the bytes it spans. `None` on a torn or corrupt
    /// frame. The log's one parser: [`LogRecord::decode`] copies its
    /// result.
    pub fn decode_ref(buf: &[u8]) -> Option<(LogRecordRef<'_>, usize)> {
        let (len, rest) = buf.split_first_chunk::<4>()?;
        let payload = rest.get(..u32::from_le_bytes(*len) as usize)?;
        let stored_crc = u32::from_le_bytes(*rest[payload.len()..].first_chunk::<4>()?);
        if crc32(payload) != stored_crc {
            return None;
        }
        let (&op, p) = payload.split_first()?;
        let (timestamp, p) = p.split_first_chunk::<8>()?;
        let (version, p) = p.split_first_chunk::<8>()?;
        let (klen, p) = p.split_first_chunk::<4>()?;
        let key = p.get(..u32::from_le_bytes(*klen) as usize)?;
        let body = &p[key.len()..];
        let (ncols, mut rest) = body.split_first_chunk::<2>()?;
        match op {
            OP_PUT => {
                for _ in 0..u16::from_le_bytes(*ncols) {
                    take_col(&mut rest)?;
                }
            }
            OP_PUT_INDIRECT => {
                ValuePtr::decode(&mut rest)?;
            }
            OP_REMOVE | OP_HEARTBEAT | OP_CLEAN_CLOSE | OP_SESSION_CREATE => {}
            _ => return None,
        }
        let used = 4 + payload.len() + 4;
        let rec = LogRecordRef {
            op,
            timestamp: u64::from_le_bytes(*timestamp),
            version: u64::from_le_bytes(*version),
            key,
            body,
            frame: &buf[..used],
        };
        Some((rec, used))
    }
}

/// A [`LogRecord`] borrowed from the bytes it was decoded from: key and
/// body stay slices of the input, so walking a segment allocates nothing
/// per record, and replay builds a value straight from the borrowed
/// columns ([`crate::ColValue::from_record`]). Only
/// [`LogRecord::decode_ref`] makes one, after checking the whole frame —
/// which is what lets the accessors re-read the body without checks.
#[derive(Debug, Clone, Copy)]
pub struct LogRecordRef<'a> {
    /// Wire op byte (see the module docs).
    op: u8,
    timestamp: u64,
    version: u64,
    key: &'a [u8],
    /// Everything after the key: the `u16` column count and the columns,
    /// then — indirect puts only — the value pointer.
    body: &'a [u8],
    /// The whole frame, length prefix through CRC.
    frame: &'a [u8],
}

const CHECKED: &str = "body checked by LogRecord::decode_ref";

impl<'a> LogRecordRef<'a> {
    pub fn timestamp(&self) -> u64 {
        self.timestamp
    }

    /// The value version a data record carries (0 for markers).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The record's key (empty for markers).
    pub fn key(&self) -> &'a [u8] {
        self.key
    }

    /// The record's bytes as stored: length prefix, payload, CRC.
    pub fn frame(&self) -> &'a [u8] {
        self.frame
    }

    /// True for a remove.
    pub fn is_remove(&self) -> bool {
        self.op == OP_REMOVE
    }

    /// The value pointer of an indirect put (`None` for any other
    /// record).
    pub fn ptr(&self) -> Option<ValuePtr> {
        let ptr = || ValuePtr::decode(&mut &self.body[2..]).expect(CHECKED);
        (self.op == OP_PUT_INDIRECT).then(ptr)
    }

    /// An inline put's `(column id, bytes)` pairs, in record order
    /// (none for any other record).
    pub fn cols(&self) -> impl Iterator<Item = (u16, &'a [u8])> + Clone {
        let (ncols, mut rest) = self.body.split_first_chunk::<2>().expect(CHECKED);
        let n = (self.op == OP_PUT).then_some(u16::from_le_bytes(*ncols));
        (0..n.unwrap_or(0)).map(move |_| take_col(&mut rest).expect(CHECKED))
    }

    /// True for marker records (see [`LogRecord::is_marker`]).
    pub fn is_marker(&self) -> bool {
        matches!(self.op, OP_HEARTBEAT | OP_CLEAN_CLOSE | OP_SESSION_CREATE)
    }

    /// True for the clean-close sentinel that seals a segment.
    pub fn is_clean_close(&self) -> bool {
        self.op == OP_CLEAN_CLOSE
    }

    /// Copies the borrowed record into an owned [`LogRecord`].
    pub fn to_owned(&self) -> LogRecord {
        let (timestamp, version) = (self.timestamp, self.version);
        match self.op {
            OP_PUT => LogRecord::Put {
                timestamp,
                version,
                key: self.key.to_vec(),
                cols: self.cols().map(|(id, data)| (id, data.to_vec())).collect(),
            },
            OP_REMOVE => LogRecord::Remove {
                timestamp,
                version,
                key: self.key.to_vec(),
            },
            OP_PUT_INDIRECT => LogRecord::PutIndirect {
                timestamp,
                version,
                key: self.key.to_vec(),
                ptr: self.ptr().expect(CHECKED),
            },
            OP_HEARTBEAT => LogRecord::Heartbeat { timestamp },
            OP_CLEAN_CLOSE => LogRecord::CleanClose { timestamp },
            _ => LogRecord::SessionCreate { timestamp },
        }
    }
}

/// Splits one `(u16 id, u32 len, bytes)` column off the front of `p`.
fn take_col<'a>(p: &mut &'a [u8]) -> Option<(u16, &'a [u8])> {
    let (id, rest) = p.split_first_chunk::<2>()?;
    let (len, rest) = rest.split_first_chunk::<4>()?;
    let data = rest.get(..u32::from_le_bytes(*len) as usize)?;
    *p = &rest[data.len()..];
    Some((u16::from_le_bytes(*id), data))
}

const OP_PUT: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_HEARTBEAT: u8 = 3;
const OP_CLEAN_CLOSE: u8 = 4;
const OP_SESSION_CREATE: u8 = 5;
const OP_PUT_INDIRECT: u8 = 6;
/// Byte offset of the timestamp within a record frame (after the
/// `u32` length prefix and the op byte).
const FRAME_TS: usize = 5;

/// Opens a record frame at the end of `out` — length placeholder, op,
/// timestamp, version, key; the caller follows with [`put_cols`] — and
/// returns its start offset for [`close_frame`] / [`seal_frame`]. The
/// one place the record header layout is written.
fn begin_frame(out: &mut Vec<u8>, op: u8, timestamp: u64, version: u64, key: &[u8]) -> usize {
    let start = out.len();
    out.extend_from_slice(&0u32.to_le_bytes());
    out.push(op);
    out.extend_from_slice(&timestamp.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    start
}

/// A record's column section: count, then `(id, len, bytes)` each (only
/// inline puts carry any).
fn put_cols<'a>(out: &mut Vec<u8>, ncols: usize, cols: impl Iterator<Item = (u16, &'a [u8])>) {
    out.extend_from_slice(&(ncols as u16).to_le_bytes());
    for (id, data) in cols {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(data);
    }
}

/// Patches the payload length into the frame opened at `start`.
fn close_frame(out: &mut [u8], start: usize) {
    let payload_len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
}

/// Opens and closes the frame of a put of `value` — its inline columns,
/// or the pointer record of a value-separated one — at the end of `out`,
/// and returns its start for [`seal_frame`]. The one encoder of the
/// values a store holds: the WAL stamps and seals these frames later
/// ([`PendingRecords`]), a checkpoint part seals them stamped with the
/// checkpoint's start.
pub(crate) fn put_frame(
    out: &mut Vec<u8>,
    timestamp: u64,
    version: u64,
    key: &[u8],
    value: &ColValue,
) -> usize {
    let start = match value.ptr() {
        Some(ptr) => {
            let start = begin_frame(out, OP_PUT_INDIRECT, timestamp, version, key);
            put_cols(out, 0, std::iter::empty());
            ptr.encode(out);
            start
        }
        None => {
            let start = begin_frame(out, OP_PUT, timestamp, version, key);
            let cols = (0..value.ncols()).map(|i| (i as u16, value.col(i).unwrap_or(&[])));
            put_cols(out, value.ncols(), cols);
            start
        }
    };
    close_frame(out, start);
    debug_assert_eq!(out.len() - start + 4, put_frame_len(key, value));
    start
}

/// Bytes [`put_frame`] and [`seal_frame`] together append for a put of
/// `value` under `key`: a writer with a fixed buffer knows before
/// encoding a row whether it fits.
pub(crate) fn put_frame_len(key: &[u8], value: &ColValue) -> usize {
    // Length prefix, op, timestamp, version, key length, key, column
    // count, then the columns or the pointer record, then the CRC.
    let header = 4 + 1 + 8 + 8 + 4 + key.len() + 2;
    let body = match value.ptr() {
        Some(_) => 24,
        None => 6 * value.ncols() + value.data_bytes(),
    };
    header + body + 4
}

/// Appends the payload CRC to the closed frame at `start`.
pub(crate) fn seal_frame(out: &mut Vec<u8>, start: usize) {
    let crc = crc32(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Data records encoded **ahead of their timestamps**. A put encodes
/// its record where the new value's column slices are at hand — inside
/// the tree's per-key critical section, straight from the value block —
/// and the whole batch is stamped, sealed (CRC) and appended afterwards
/// under one buffer lock ([`LogWriter::append_pending`]). The sealed
/// bytes are exactly what [`LogRecord::encode`] produces for the same
/// record, so recovery and truncation cannot tell the two apart. Holds
/// closed frames (length patched, timestamp zero, no CRC) back to back;
/// keeps its capacity across batches.
#[derive(Default)]
pub(crate) struct PendingRecords {
    frames: Vec<u8>,
    count: u64,
}

impl PendingRecords {
    /// Queues a put of `value` (inline columns, or the pointer record
    /// of a value-separated one).
    pub(crate) fn put(&mut self, version: u64, key: &[u8], value: &ColValue) {
        put_frame(&mut self.frames, 0, version, key, value);
        self.count += 1;
    }

    /// Queues a remove.
    pub(crate) fn remove(&mut self, version: u64, key: &[u8]) {
        let start = begin_frame(&mut self.frames, OP_REMOVE, 0, version, key);
        put_cols(&mut self.frames, 0, std::iter::empty());
        close_frame(&mut self.frames, start);
        self.count += 1;
    }

    /// Stamps the queued frames with consecutive timestamps from
    /// `first`, seals each onto the end of `out`, and empties the queue.
    fn seal_into(&mut self, first: u64, out: &mut Vec<u8>) {
        let mut rest = &self.frames[..];
        let mut timestamp = first;
        while !rest.is_empty() {
            // Closed frames: a patched `u32` payload length, no CRC yet.
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            let (frame, tail) = rest.split_at(4 + len);
            let start = out.len();
            out.extend_from_slice(frame);
            out[start + FRAME_TS..start + FRAME_TS + 8].copy_from_slice(&timestamp.to_le_bytes());
            seal_frame(out, start);
            timestamp += 1;
            rest = tail;
        }
        self.frames.clear();
        self.count = 0;
    }
}

/// The on-disk path of segment `seg` of session `session` under `dir`.
pub fn segment_path(dir: &Path, session: u64, seg: u64) -> PathBuf {
    dir.join(format!("log-{session}.{seg}"))
}

struct LogBuf {
    data: Vec<u8>,
    /// Monotone counter of force() requests.
    sync_requested: u64,
    /// Highest request known durable.
    sync_completed: u64,
}

struct LogShared {
    buffer: Mutex<LogBuf>,
    wake: Condvar,
    done: Condvar,
    stop: AtomicBool,
    /// Set (under the buffer lock) once the clean-close sentinel has
    /// been appended; the logger thread stops heart-beating so the
    /// sentinel stays the log's final record.
    closed: AtomicBool,
    /// Simulated crash: the logger thread exits immediately, abandoning
    /// its in-memory buffers exactly as a dying process would.
    crashed: AtomicBool,
    /// Active segment number.
    segment: AtomicU64,
    /// Bytes of the active segment known durable (synced). Sealed
    /// segments are always fully durable.
    durable: AtomicU64,
    /// Segments sealed by rotation over this writer's lifetime.
    sealed: AtomicU64,
    /// Path of the active segment.
    current_path: Mutex<PathBuf>,
    /// Shared with the owning store: set (permanently) when this logger
    /// dies without completing its shutdown protocol — I/O error or
    /// simulated crash. A dead logger leaves a torn chain on disk whose
    /// last durable timestamp may sit *below* any later checkpoint's
    /// `start_ts`; a future recovery cutoff would then reject that
    /// checkpoint, so the store must never again truncate log segments
    /// (the logs stay the authoritative copy) until a recovery reseals
    /// the directory. Tracked here — not per-handle — because the
    /// writer can be dropped (its weak handles going dead) before the
    /// store's next durability cycle ever observes the crash.
    poison: Arc<AtomicBool>,
}

/// Rotation configuration: `None` naming means a fixed single file that
/// never rotates (legacy [`LogWriter::open`]).
struct LoggerCfg {
    rotate: Option<(PathBuf, u64)>, // (dir, session)
    segment_bytes: u64,
}

/// Where the on-disk state of a crashed-and-abandoned log stands: the
/// segment that was being appended, and how many of its bytes were known
/// durable (synced) at the simulated crash. Earlier (sealed) segments
/// are always fully durable. Crash-torture tests tear the active segment
/// anywhere at or past `durable_len` to model the page-cache loss of a
/// machine crash — never below it, which would un-happen an acked sync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPoint {
    pub active_segment: PathBuf,
    pub durable_len: u64,
}

/// One worker's log: in-memory buffer + background logger thread.
pub struct LogWriter {
    shared: Arc<LogShared>,
    thread: Option<std::thread::JoinHandle<()>>,
    /// Path of the first segment (or the fixed file for [`LogWriter::open`]).
    pub path: PathBuf,
}

impl LogWriter {
    /// Opens (appending) a single fixed log file that never rotates and
    /// starts its logger thread. Tests and bulk import use this; store
    /// sessions use [`LogWriter::open_segmented`].
    pub fn open(path: PathBuf) -> std::io::Result<LogWriter> {
        Self::start(
            path,
            LoggerCfg {
                rotate: None,
                segment_bytes: u64::MAX,
            },
            Arc::default(),
        )
    }

    /// Opens segment 0 of session `session`'s log chain under `dir` and
    /// starts its logger thread; the logger rotates to a fresh segment
    /// whenever the active one passes `segment_bytes`.
    pub fn open_segmented(
        dir: &Path,
        session: u64,
        segment_bytes: u64,
    ) -> std::io::Result<LogWriter> {
        Self::open_segmented_poisoned(dir, session, segment_bytes, Arc::default())
    }

    /// [`LogWriter::open_segmented`] wired to the owning store's poison
    /// flag: if this logger ever dies without completing its shutdown
    /// protocol, `poison` is set so the store stops truncating log
    /// segments (see `LogShared::poison`).
    pub(crate) fn open_segmented_poisoned(
        dir: &Path,
        session: u64,
        segment_bytes: u64,
        poison: Arc<AtomicBool>,
    ) -> std::io::Result<LogWriter> {
        Self::start(
            segment_path(dir, session, 0),
            LoggerCfg {
                rotate: Some((dir.to_path_buf(), session)),
                segment_bytes: segment_bytes.max(1),
            },
            poison,
        )
    }

    fn start(path: PathBuf, cfg: LoggerCfg, poison: Arc<AtomicBool>) -> std::io::Result<LogWriter> {
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let existing = file.metadata().map(|m| m.len()).unwrap_or(0);
        let shared = Arc::new(LogShared {
            buffer: Mutex::new(LogBuf {
                data: Vec::with_capacity(1 << 20),
                sync_requested: 0,
                sync_completed: 0,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
            stop: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            segment: AtomicU64::new(0),
            durable: AtomicU64::new(existing),
            sealed: AtomicU64::new(0),
            current_path: Mutex::new(path.clone()),
            poison,
        });
        let s2 = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("mt-logger".into())
            .spawn(move || logger_loop(s2, file, cfg, existing))?;
        Ok(LogWriter {
            shared,
            thread: Some(thread),
            path,
        })
    }

    /// Appends a record to the in-memory buffer (the put path: no I/O).
    ///
    /// Use [`LogWriter::append_now`] when the record's timestamp must be
    /// consistent with the heartbeat protocol; plain `append` is for
    /// pre-timestamped records (tests, bulk import).
    pub fn append(&self, rec: &LogRecord) {
        let mut buf = self.shared.buffer.lock();
        rec.encode(&mut buf.data);
        // Nudge the logger if the buffer is getting large.
        if buf.data.len() >= 1 << 20 {
            self.shared.wake.notify_one();
        }
    }

    /// Appends `make(timestamp)` with a timestamp drawn **under the
    /// buffer lock**. This is what makes heartbeats sound: a heartbeat's
    /// timestamp is also drawn under the lock during drain, so every
    /// record this worker stamped before a heartbeat is already in the
    /// buffer ahead of it — the log is always a timestamp-consistent
    /// prefix of this worker's history.
    pub fn append_now<F: FnOnce(u64) -> LogRecord>(&self, make: F) -> u64 {
        let mut buf = self.shared.buffer.lock();
        let ts = crate::clock::now();
        make(ts).encode(&mut buf.data);
        if buf.data.len() >= 1 << 20 {
            self.shared.wake.notify_one();
        }
        ts
    }

    /// Stamps, seals and appends every queued record under **one**
    /// buffer lock, emptying `pending`. The batch takes one reserved
    /// block of consecutive timestamps, drawn under the lock like
    /// [`LogWriter::append_now`]'s — so heartbeats stay sound — with one
    /// clock read however many records it carries.
    pub(crate) fn append_pending(&self, pending: &mut PendingRecords) {
        if pending.count == 0 {
            return;
        }
        let mut buf = self.shared.buffer.lock();
        let first = crate::clock::reserve(pending.count);
        pending.seal_into(first, &mut buf.data);
        if buf.data.len() >= 1 << 20 {
            self.shared.wake.notify_one();
        }
    }

    /// Blocks until everything appended so far is durable (used by tests
    /// and clean shutdown; normal puts never wait, §5).
    ///
    /// Returns `true` only when the sync actually completed. `false`
    /// means the logger thread is dead — killed by
    /// [`LogWriter::simulate_crash`] or by an I/O error — and the
    /// appended records may never reach storage: a dead logger can never
    /// make anything durable, so waiting would hang forever, and callers
    /// acking durability to a client must propagate the failure instead.
    #[must_use = "false means the records were NOT made durable"]
    pub fn force(&self) -> bool {
        let want = {
            let mut buf = self.shared.buffer.lock();
            if self.shared.crashed.load(Ordering::Acquire) {
                return false;
            }
            buf.sync_requested += 1;
            buf.sync_requested
        };
        self.shared.wake.notify_one();
        self.shared.wait_sync(want)
    }

    /// Active segment number of this writer's chain.
    pub fn current_segment(&self) -> u64 {
        self.shared.segment.load(Ordering::Acquire)
    }

    /// Segments sealed by rotation so far.
    pub fn segments_sealed(&self) -> u64 {
        self.shared.sealed.load(Ordering::Relaxed)
    }

    /// A weak handle the store keeps so a durability cycle can
    /// group-commit every live log before truncating (see
    /// [`LogForceHandle::request_barrier`]).
    pub(crate) fn force_handle(&self) -> LogForceHandle {
        LogForceHandle(Arc::downgrade(&self.shared))
    }

    /// Kills the logger thread **without** the clean-shutdown protocol:
    /// no final drain, no flush, no clean-close sentinel — the in-memory
    /// buffer and the `BufWriter`'s unflushed bytes are abandoned exactly
    /// as a dying process would abandon them. Returns where the on-disk
    /// state stands so crash-torture tests can additionally tear the
    /// active segment's unsynced tail (simulating a machine crash).
    pub fn simulate_crash(mut self) -> CrashPoint {
        self.shared.poison.store(true, Ordering::Release);
        self.shared.crashed.store(true, Ordering::Release);
        self.shared.stop.store(true, Ordering::Release);
        self.shared.wake.notify_one();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        // Unblock anyone waiting on a force this logger will never ack.
        self.shared.done.notify_all();
        CrashPoint {
            active_segment: self.shared.current_path.lock().clone(),
            durable_len: self.shared.durable.load(Ordering::Acquire),
        }
    }
}

impl LogShared {
    /// Waits until sync request `want` has landed; false when the logger
    /// died first. Every logger exit path either acks all outstanding
    /// requests (clean shutdown) or sets `crashed`, which the timed wait
    /// polls, so a concurrent drop cannot strand it.
    fn wait_sync(&self, want: u64) -> bool {
        let mut buf = self.buffer.lock();
        while buf.sync_completed < want {
            if self.crashed.load(Ordering::Acquire) {
                return false;
            }
            self.done.wait_for(&mut buf, WAKE_INTERVAL);
        }
        true
    }
}

/// Weak per-log handle held by the store's durability cycle: after a
/// checkpoint completes, the cycle forces every live log so each one
/// durably holds a record stamped after the checkpoint's `start_ts` —
/// only then is truncation safe, because any *future* recovery cutoff is
/// now at or past `start_ts` and the checkpoint can never be rejected
/// after its covered segments are gone. The cycle requests a sync of
/// every log before it waits on any, so the loggers' own threads run
/// the syncs side by side.
pub(crate) struct LogForceHandle(Weak<LogShared>);

/// Result of the group-commit barrier on one log (see
/// [`LogForceHandle::request_barrier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BarrierOutcome {
    /// Sync confirmed: the log durably holds a record stamped past the
    /// checkpoint's `start_ts`. Truncation-safe.
    Synced,
    /// The writer is gone — its drop protocol made the clean-close
    /// sentinel durable (a failed final sync would have set the store's
    /// poison flag instead). The session is excluded from any future
    /// cutoff, so it cannot reject the checkpoint; the handle can be
    /// dropped.
    Closed,
    /// Durability could not be confirmed this cycle: the logger is dead
    /// (I/O error, simulated crash) or a clean close is still in flight
    /// and its final sync has not landed. Truncating now could erase the
    /// only copy of records a future recovery cutoff would refuse the
    /// checkpoint for — the cycle must skip truncation.
    Unconfirmed,
}

impl LogForceHandle {
    /// Whether the writer behind this handle still exists (cheap; used
    /// to sweep dead handles from the store's registry).
    pub(crate) fn is_alive(&self) -> bool {
        self.0.strong_count() > 0
    }

    /// Asks this log's logger thread for a group-commit barrier's sync,
    /// without waiting: pass the request to
    /// [`LogForceHandle::wait_barrier`]. `Err` is an outcome known at once.
    pub(crate) fn request_barrier(&self) -> Result<u64, BarrierOutcome> {
        let shared = self.0.upgrade().ok_or(BarrierOutcome::Closed)?;
        let mut buf = shared.buffer.lock();
        if shared.crashed.load(Ordering::Acquire)
            || shared.stop.load(Ordering::Acquire)
            || shared.closed.load(Ordering::Acquire)
        {
            // Dead, or a close in flight: the sentinel is appended but
            // its sync may not have landed, and a machine crash before
            // it lands would leave this chain torn below `start_ts`.
            // The next cycle sees the writer gone (`Closed`) or the
            // poison flag (final sync failed). A close that begins after
            // this lock is released acks the request on shutdown.
            return Err(BarrierOutcome::Unconfirmed);
        }
        buf.sync_requested += 1;
        shared.wake.notify_one();
        Ok(buf.sync_requested)
    }

    /// Waits for a barrier `request` and reports whether the log's
    /// durability past the barrier point is *confirmed* — anything less
    /// than [`BarrierOutcome::Synced`]/[`BarrierOutcome::Closed`] must
    /// block truncation (see [`BarrierOutcome::Unconfirmed`]).
    pub(crate) fn wait_barrier(&self, request: Result<u64, BarrierOutcome>) -> BarrierOutcome {
        // A writer dropped since the request has closed cleanly.
        match (request, self.0.upgrade()) {
            (Err(outcome), _) => outcome,
            (Ok(_), None) => BarrierOutcome::Closed,
            (Ok(want), Some(shared)) if shared.wait_sync(want) => BarrierOutcome::Synced,
            (Ok(_), Some(_)) => BarrierOutcome::Unconfirmed,
        }
    }
}

impl Drop for LogWriter {
    fn drop(&mut self) {
        if self.shared.crashed.load(Ordering::Acquire) {
            if let Some(t) = self.thread.take() {
                let _ = t.join();
            }
            return;
        }
        // Append the clean-close sentinel as this log's final record:
        // `closed` is set under the buffer lock, and the logger thread
        // checks it under the same lock before heart-beating, so nothing
        // can be stamped after the sentinel. A cleanly closed log is
        // thereby *complete* — recovery excludes it from the cutoff
        // `min` instead of letting its close time drop every record
        // other workers logged later (§5 cutoff vs short-lived
        // sessions).
        {
            let mut buf = self.shared.buffer.lock();
            self.shared.closed.store(true, Ordering::Release);
            let ts = crate::clock::now();
            LogRecord::CleanClose { timestamp: ts }.encode(&mut buf.data);
        }
        let _ = self.force(); // best effort: drop has no error channel
        self.shared.stop.store(true, Ordering::Release);
        self.shared.wake.notify_one();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Marks the logger dead after an unrecoverable I/O error: `crashed`
/// makes `force` / a barrier's wait return instead of spinning forever
/// on an ack that will never come (which would wedge every durability
/// cycle behind the cycle lock), the poison flag permanently blocks the
/// owning store's truncation (the torn chain this logger leaves behind
/// may pin any future recovery cutoff below later checkpoints), and the
/// notify wakes current waiters.
fn mark_logger_dead(shared: &LogShared) {
    shared.poison.store(true, Ordering::Release);
    shared.crashed.store(true, Ordering::Release);
    shared.done.notify_all();
}

fn logger_loop(shared: Arc<LogShared>, file: File, cfg: LoggerCfg, existing: u64) {
    let mut out = BufWriter::with_capacity(1 << 20, file);
    let mut written = existing; // bytes handed to the active segment file

    // Max timestamp among record frames written to this chain so far;
    // rotation markers are stamped with it (never `clock::now()`, which
    // would run ahead of records already stamped but not yet durable in
    // the successor segment — see `rotate_segment`). Seeded from the
    // pre-existing file when one is reopened, so the first rotation's
    // markers are sound even then.
    let mut max_ts = match &cfg.rotate {
        Some((dir, session)) if existing > 0 => SegmentWalker::default()
            .scan(&segment_path(dir, *session, 0), |_| true)
            .map_or(0, |s| s.max_ts),
        _ => 0,
    };
    let mut seg = 0u64;
    let mut last_force = Instant::now();
    let mut last_heartbeat = Instant::now();
    let mut dirty = false;
    // The chunk written out last round, handed back to the appenders as
    // their next (already grown) buffer instead of a fresh empty one.
    let mut spare: Vec<u8> = Vec::new();
    loop {
        let (mut drained, sync_goal) = {
            let mut buf = shared.buffer.lock();
            if buf.data.is_empty()
                && buf.sync_requested == buf.sync_completed
                && !shared.stop.load(Ordering::Acquire)
            {
                shared.wake.wait_for(&mut buf, WAKE_INTERVAL);
            }
            // Liveness marker (see `append_now`), drawn under the lock:
            // whenever there is data, a sync was requested, or the
            // heartbeat interval lapsed on an idle log. Once the writer
            // has appended its clean-close sentinel (`closed`, checked
            // under the same lock) heart-beating stops so the sentinel
            // remains the final record.
            if !shared.closed.load(Ordering::Acquire)
                && !shared.crashed.load(Ordering::Acquire)
                && (!buf.data.is_empty()
                    || buf.sync_requested > buf.sync_completed
                    || last_heartbeat.elapsed() >= FORCE_INTERVAL
                    || shared.stop.load(Ordering::Acquire))
            {
                let ts = crate::clock::now();
                LogRecord::Heartbeat { timestamp: ts }.encode(&mut buf.data);
                last_heartbeat = Instant::now();
            }
            (
                std::mem::replace(&mut buf.data, std::mem::take(&mut spare)),
                buf.sync_requested,
            )
        };
        if shared.crashed.load(Ordering::Acquire) {
            // Simulated crash: abandon the drained chunk and the
            // BufWriter's unflushed bytes (a dying process loses both);
            // only what already reached the file survives.
            let (file, _lost) = out.into_parts();
            drop(file);
            return;
        }
        if !drained.is_empty() {
            // Batched sequential write (§5: loggers batch updates) —
            // split at record-frame boundaries wherever the segment
            // threshold is crossed, sealing and rotating mid-chunk.
            // Rotation stops once the writer closed (the clean-close
            // sentinel must stay final).
            let mut off = 0usize;
            while off < drained.len() {
                let may_rotate = cfg.rotate.is_some() && !shared.closed.load(Ordering::Acquire);
                let rest = (drained.len() - off) as u64;
                if !may_rotate || written + rest < cfg.segment_bytes {
                    // The rest fits (or rotation is off): one write.
                    if out.write_all(&drained[off..]).is_err() {
                        mark_logger_dead(&shared);
                        return;
                    }
                    if cfg.rotate.is_some() {
                        max_ts = max_ts.max(max_frame_ts(&drained[off..]));
                    }
                    written += (drained.len() - off) as u64;
                    off = drained.len();
                } else {
                    let frame = frame_len(&drained[off..]);
                    if out.write_all(&drained[off..off + frame]).is_err() {
                        mark_logger_dead(&shared);
                        return;
                    }
                    max_ts = max_ts.max(frame_timestamp(&drained[off..off + frame]));
                    written += frame as u64;
                    off += frame;
                    if written >= cfg.segment_bytes {
                        let (dir, session) = cfg.rotate.as_ref().unwrap();
                        match rotate_segment(&shared, dir, *session, seg, &mut out, max_ts) {
                            Ok(hb_len) => {
                                seg += 1;
                                written = hb_len;
                                last_force = Instant::now();
                            }
                            Err(_) => {
                                mark_logger_dead(&shared);
                                return;
                            }
                        }
                    }
                }
            }
            dirty = true;
        }
        drained.clear();
        spare = drained;
        let mut acked = None;
        let force_due = dirty && last_force.elapsed() >= FORCE_INTERVAL;
        let sync_due = {
            let buf = shared.buffer.lock();
            buf.sync_completed < sync_goal
        };
        if force_due || sync_due {
            // A failed flush *or* sync must kill the logger, not ack:
            // acking would let `force` waiters report durability that
            // never happened.
            if out.flush().is_err() || out.get_ref().sync_data().is_err() {
                mark_logger_dead(&shared);
                return;
            }
            shared.durable.store(written, Ordering::Release);
            last_force = Instant::now();
            dirty = false;
            acked = Some(sync_goal);
        }
        if let Some(goal) = acked {
            let mut buf = shared.buffer.lock();
            if buf.sync_completed < goal {
                buf.sync_completed = goal;
                shared.done.notify_all();
            }
        }
        if shared.stop.load(Ordering::Acquire) {
            if out.flush().is_err() || out.get_ref().sync_data().is_err() {
                // Shutdown sync failed: die without acking, so any
                // concurrent `force` waiter reports the failure.
                mark_logger_dead(&shared);
                return;
            }
            shared.durable.store(written, Ordering::Release);
            // Everything drained above is now durable: ack any force
            // still outstanding so no waiter hangs across shutdown.
            let mut buf = shared.buffer.lock();
            if buf.sync_completed < buf.sync_requested {
                buf.sync_completed = buf.sync_requested;
            }
            shared.done.notify_all();
            return;
        }
    }
}

/// Byte length of the record frame at the head of `buf` (`u32` length
/// prefix + payload + CRC). The log buffer only ever holds whole frames
/// (records are encoded atomically under the buffer lock), so this is
/// how the logger splits a drained chunk at record boundaries; the
/// remainder is returned for a malformed head so a bad frame can never
/// wedge the loop.
fn frame_len(buf: &[u8]) -> usize {
    if buf.len() < 4 {
        return buf.len();
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    (4 + len + 4).min(buf.len())
}

/// Timestamp of the record frame at the head of `buf` (every record
/// starts `u32 length, u8 op, u64 timestamp` — see the module docs); 0
/// for a frame too short to carry one.
fn frame_timestamp(buf: &[u8]) -> u64 {
    buf.get(FRAME_TS..FRAME_TS + 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .unwrap_or(0)
}

/// Max timestamp across all whole frames in `chunk`.
fn max_frame_ts(mut chunk: &[u8]) -> u64 {
    let mut max = 0u64;
    while !chunk.is_empty() {
        max = max.max(frame_timestamp(chunk));
        let n = frame_len(chunk);
        if n == 0 {
            break;
        }
        chunk = &chunk[n..];
    }
    max
}

/// Rotates the logger onto segment `seg + 1`, in the crash-safe order:
///
/// 1. **Create the successor file** (and sync it, plus the directory):
///    once the seal below lands, the successor's existence is what tells
///    recovery the session was still alive — a sealed newest segment
///    means a cleanly closed session.
/// 2. **Seal the current segment** with a [`LogRecord::CleanClose`]
///    sentinel, flush, and sync: the segment is now immutable and wholly
///    durable, so a later checkpoint can truncate it.
/// 3. **Switch**, writing an opening heartbeat so the fresh segment
///    carries liveness evidence as soon as the next force lands.
///
/// A crash inside this window only produces states recovery already
/// handles: an unsealed current segment (the session reads as crashed,
/// cutoff at its last record), or a sealed segment with an empty
/// successor (cutoff at the session's last durable timestamp).
///
/// Both markers are stamped `marker_ts` — the max timestamp among
/// frames already written to the chain — **never** `clock::now()`. A
/// now-stamp would run ahead of records stamped at put time but still
/// in flight to the (unsynced) successor: after a crash between the
/// seal's fsync and the successor's first sync, the surviving sentinel
/// would raise this session's contribution to the recovery cutoff past
/// its last durable record, keeping other sessions' records that may
/// depend on this session's lost ones (a prefix-consistency violation).
/// `marker_ts` only restates knowledge the durable file already
/// carries, so a crash at any point leaves the cutoff sound.
///
/// Returns the byte length of the opening heartbeat written to the new
/// segment.
fn rotate_segment(
    shared: &LogShared,
    dir: &Path,
    session: u64,
    seg: u64,
    out: &mut BufWriter<File>,
    marker_ts: u64,
) -> std::io::Result<u64> {
    let next_path = segment_path(dir, session, seg + 1);
    let next_file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&next_path)?;
    next_file.sync_all()?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all(); // make the new name durable (best effort)
    }
    let mut seal = Vec::with_capacity(64);
    LogRecord::CleanClose {
        timestamp: marker_ts,
    }
    .encode(&mut seal);
    out.write_all(&seal)?;
    out.flush()?;
    out.get_ref().sync_data()?;
    *shared.current_path.lock() = next_path;
    shared.segment.store(seg + 1, Ordering::Release);
    shared.sealed.fetch_add(1, Ordering::Relaxed);
    shared.durable.store(0, Ordering::Release);
    *out = BufWriter::with_capacity(1 << 20, next_file);
    let mut hb = Vec::with_capacity(64);
    LogRecord::Heartbeat {
        timestamp: marker_ts,
    }
    .encode(&mut hb);
    out.write_all(&hb)?;
    Ok(hb.len() as u64)
}

/// Decodes every intact record in `data`, returning each with its end
/// byte offset; parsing stops at the first torn or corrupt record.
pub fn decode_all(data: &[u8]) -> Vec<(LogRecord, usize)> {
    let mut records = Vec::new();
    let mut off = 0;
    while let Some((rec, used)) = LogRecord::decode(&data[off..]) {
        off += used;
        records.push((rec, off));
    }
    records
}

/// Reads every intact record from a log file, stopping at the first torn
/// or corrupt record (§5 recovery).
pub fn read_log(path: &Path) -> std::io::Result<Vec<LogRecord>> {
    let data = std::fs::read(path)?;
    Ok(decode_all(&data).into_iter().map(|(r, _)| r).collect())
}

/// Bytes a [`SegmentWalker`] reads at a time: all the memory a pass over
/// a log segment holds, unless a single frame is larger.
pub const WALK_WINDOW: usize = 1 << 20;

/// Streams log segments through one reused read window, yielding
/// borrowed records ([`LogRecordRef`]) — a pass over a segment of any
/// size allocates the window once and nothing per record.
///
/// The window grows only to hold one frame larger than itself, and only
/// when that frame's length fits in what is left of the file: a garbage
/// length prefix reads as a torn tail, as in [`decode_all`], never as a
/// huge allocation. One walker serves any number of files in turn.
#[derive(Debug, Default)]
pub struct SegmentWalker {
    window: Vec<u8>,
}

impl SegmentWalker {
    /// Opens `path` for a walk over its intact records. The walk ends at
    /// the file's length as of this call.
    pub fn walk(&mut self, path: &Path) -> std::io::Result<SegmentWalk<'_>> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        Ok(SegmentWalk {
            file,
            window: &mut self.window,
            start: 0,
            end: 0,
            unread: file_len,
            file_len,
            bytes_read: 0,
            consumed: 0,
        })
    }

    /// Walks `path`'s intact records while `go_on` returns true for the
    /// record just folded into the summary — so `|_| false` reads the
    /// first frame only, and `|_| true` the whole segment.
    pub fn scan(
        &mut self,
        path: &Path,
        mut go_on: impl FnMut(&LogRecordRef<'_>) -> bool,
    ) -> std::io::Result<SegmentSummary> {
        let mut walk = self.walk(path)?;
        let mut sum = SegmentSummary {
            file_len: walk.file_len,
            ..SegmentSummary::default()
        };
        while let Some(rec) = walk.next_record()? {
            sum.nonempty = true;
            sum.sealed = rec.is_clean_close();
            sum.max_ts = sum.max_ts.max(rec.timestamp);
            if !go_on(&rec) {
                break;
            }
        }
        sum.bytes_read = walk.bytes_read;
        sum.consumed = walk.consumed;
        Ok(sum)
    }
}

/// What [`SegmentWalker::scan`] learned about one segment.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentSummary {
    /// At least one intact record.
    pub nonempty: bool,
    /// The last record walked is a clean-close sentinel (after a full
    /// walk: the segment is sealed).
    pub sealed: bool,
    /// Largest timestamp of any record walked, markers included (0 if
    /// none).
    pub max_ts: u64,
    /// File length when the walk began.
    pub file_len: u64,
    /// Bytes read from the file.
    pub bytes_read: u64,
    /// Bytes of the intact records walked: after a full walk, where the
    /// segment's torn or corrupt tail (if any) begins.
    pub consumed: u64,
}

/// One walk over a segment (see [`SegmentWalker::walk`]).
pub struct SegmentWalk<'w> {
    file: File,
    window: &'w mut Vec<u8>,
    /// `window[start..end]` holds the bytes read but not yet consumed.
    start: usize,
    end: usize,
    /// Bytes of the file not yet read, up to `file_len`.
    unread: u64,
    file_len: u64,
    bytes_read: u64,
    consumed: u64,
}

impl SegmentWalk<'_> {
    /// The next intact record, or `None` at the end of the file or at
    /// the first torn or corrupt frame — exactly where [`decode_all`]
    /// stops.
    pub fn next_record(&mut self) -> std::io::Result<Option<LogRecordRef<'_>>> {
        loop {
            let have = (self.end - self.start) as u64;
            let need = match self.window[self.start..self.end].first_chunk::<4>() {
                Some(len) => 4 + u64::from(u32::from_le_bytes(*len)) + 4,
                None => 4,
            };
            if have >= need {
                break;
            }
            if need > have + self.unread {
                return Ok(None); // torn: the frame runs past the end of the file
            }
            self.fill(need as usize)?;
        }
        let Some((rec, used)) = LogRecord::decode_ref(&self.window[self.start..self.end]) else {
            return Ok(None);
        };
        self.start += used;
        self.consumed += used as u64;
        Ok(Some(rec))
    }

    /// Slides the unconsumed bytes to the front of the window and reads
    /// the file in behind them, growing the window past [`WALK_WINDOW`]
    /// only as far as one `need`-byte frame requires.
    fn fill(&mut self, need: usize) -> std::io::Result<()> {
        self.window.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        let size = need.max((self.end as u64 + self.unread).min(WALK_WINDOW as u64) as usize);
        if self.window.len() < size {
            self.window.reserve_exact(size - self.window.len());
            self.window.resize(size, 0);
        }
        while self.end < self.window.len() && self.unread > 0 {
            let unread = usize::try_from(self.unread).unwrap_or(usize::MAX);
            let room = (self.window.len() - self.end).min(unread);
            match self.file.read(&mut self.window[self.end..self.end + room]) {
                // Shorter than at open: what is left is a torn tail.
                Ok(0) => self.unread = 0,
                Ok(n) => {
                    self.end += n;
                    self.unread -= n as u64;
                    self.bytes_read += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// What [`truncate_covered_segments`] reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TruncateReport {
    pub segments_deleted: u64,
    pub bytes_deleted: u64,
    /// Bytes read to decide every segment's fate.
    pub bytes_scanned: u64,
}

/// Deletes every log segment wholly covered by a checkpoint that began
/// at `cutoff_ts` — this is what keeps recovery bounded while the store
/// runs (§5: log data older than a completed checkpoint is reclaimed).
/// Equivalent to [`truncate_covered_segments_excluding`] with no live
/// sessions; use this form only on a quiescent directory (recovery,
/// tests).
pub fn truncate_covered_segments(dir: &Path, cutoff_ts: u64) -> std::io::Result<TruncateReport> {
    truncate_covered_segments_excluding(&mut SegmentWalker::default(), dir, cutoff_ts, &[])
}

/// [`truncate_covered_segments`] for a directory with live writers.
///
/// A segment is deleted only when all three hold:
///
/// - it is **sealed** (its final record is a [`LogRecord::CleanClose`]
///   sentinel): the writer will never touch the file again;
/// - every data record in it is stamped strictly before `cutoff_ts`, so
///   replay from the checkpoint would skip all of them anyway;
/// - it is either the newest segment of a session that is **not live**
///   (the sentinel then means the session closed cleanly, so deleting
///   its whole chain is fine) or some later segment of the session holds
///   at least one record — a crashed session must always retain on-disk
///   evidence of its last durable timestamp, which is what bounds the
///   recovery cutoff.
///
/// `live_sessions` names the sessions whose writers are still running.
/// The whole-chain rule is never applied to them: the directory listing
/// can race a concurrent rotation, making a just-sealed segment look
/// like the newest of a closed chain while the rotation's successor (and
/// its unsynced opening heartbeat) is the session's only other trace —
/// deleting it would erase exactly the evidence the third rule protects.
///
/// The caller must only pass `cutoff_ts` from a checkpoint whose
/// manifest is already durable: truncation erases the only other copy of
/// those records.
///
/// **Cost**: one streaming pass through `walker`'s [`WALK_WINDOW`]-sized
/// window (a store keeps one walker across its durability cycles, so a
/// warm pass allocates no window); nothing is decoded into owned
/// records. Each chain is judged newest segment first, because whether
/// a segment may go depends only on the segments after it. A segment that cannot go whatever it holds — the
/// newest of a live session, or one with no non-empty successor — is
/// read only as far as its first frame (which says whether it is
/// non-empty); a candidate's walk stops at its first data record stamped
/// at or after `cutoff_ts`. So only segments that end up deleted (and
/// torn crash debris) are read to the end.
pub fn truncate_covered_segments_excluding(
    walker: &mut SegmentWalker,
    dir: &Path,
    cutoff_ts: u64,
    live_sessions: &[u64],
) -> std::io::Result<TruncateReport> {
    let mut report = TruncateReport::default();
    for (session, segs) in crate::recovery::session_segments(dir) {
        let live = live_sessions.contains(&session);
        let mut later_nonempty = false;
        for (i, (_, path)) in segs.iter().enumerate().rev() {
            let candidate = if i + 1 == segs.len() {
                !live // a live session's chain is still growing: the
                      // listing may have raced a rotation
            } else {
                // Keep the session's last durable-timestamp evidence.
                later_nonempty
            };
            // An unreadable segment counts as empty, and is kept.
            let seg = walker
                .scan(path, |r| {
                    candidate && (r.is_marker() || r.timestamp < cutoff_ts)
                })
                .unwrap_or_default();
            report.bytes_scanned += seg.bytes_read;
            later_nonempty |= seg.nonempty;
            // Not sealed: active, torn, or — the walk stopped on a data
            // record — holding post-checkpoint data.
            if candidate && seg.sealed {
                std::fs::remove_file(path)?;
                report.segments_deleted += 1;
                report.bytes_deleted += seg.file_len;
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64) -> LogRecord {
        LogRecord::Put {
            timestamp: ts,
            version: ts * 10,
            key: format!("key{ts}").into_bytes(),
            cols: vec![(0, b"aaaa".to_vec()), (3, b"d".to_vec())],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut buf = Vec::new();
        rec(1).encode(&mut buf);
        rec(2).encode(&mut buf);
        LogRecord::Remove {
            timestamp: 3,
            version: 30,
            key: b"gone".to_vec(),
        }
        .encode(&mut buf);
        let (r1, n1) = LogRecord::decode(&buf).unwrap();
        assert_eq!(r1, rec(1));
        let (r2, n2) = LogRecord::decode(&buf[n1..]).unwrap();
        assert_eq!(r2, rec(2));
        let (r3, n3) = LogRecord::decode(&buf[n1 + n2..]).unwrap();
        assert_eq!(r3.key(), b"gone");
        assert_eq!(n1 + n2 + n3, buf.len());
    }

    #[test]
    fn put_indirect_roundtrip() {
        let mut buf = Vec::new();
        let r = LogRecord::PutIndirect {
            timestamp: 11,
            version: 110,
            key: b"cold-key".to_vec(),
            ptr: ValuePtr {
                seg: 2,
                off: 8192,
                len: 4096,
                crc: 0x1234_5678,
            },
        };
        r.encode(&mut buf);
        rec(2).encode(&mut buf);
        let (d, n) = LogRecord::decode(&buf).unwrap();
        assert_eq!(d, r);
        assert_eq!(d.version(), 110);
        assert_eq!(d.key(), b"cold-key");
        assert!(!d.is_marker());
        let (d2, _) = LogRecord::decode(&buf[n..]).unwrap();
        assert_eq!(d2, rec(2));
    }

    #[test]
    fn pending_records_seal_to_the_bytes_encode_produces() {
        // 0 / 1 / many columns (with an empty one), an empty key, a
        // value-separated put and a remove, queued as one batch.
        let ptr = ValuePtr {
            seg: 7,
            off: 1 << 33,
            len: 4096,
            crc: 0xfeed_f00d,
        };
        let values = [
            ColValue::new(10, &[]),
            ColValue::new(11, &[b"only"]),
            ColValue::new(12, &[b"a", b"", &[0xab; 300], b"d"]),
            ColValue::indirect(13, ptr),
        ];
        let keys: [&[u8]; 4] = [b"", b"k1", b"user00000000000000000042", b"cold"];
        let mut pending = PendingRecords::default();
        for (key, value) in keys.iter().zip(&values) {
            pending.put(value.version(), key, value);
        }
        pending.remove(14, b"gone");

        let first = 1_000_000;
        let mut want = b"earlier bytes stay".to_vec();
        let mut sealed = want.clone();
        for (i, (key, value)) in keys.iter().zip(&values).enumerate() {
            let (timestamp, version, key) = (first + i as u64, value.version(), key.to_vec());
            match value.ptr() {
                Some(ptr) => LogRecord::PutIndirect {
                    timestamp,
                    version,
                    key,
                    ptr,
                },
                None => LogRecord::Put {
                    timestamp,
                    version,
                    key,
                    cols: (0..value.ncols())
                        .map(|c| (c as u16, value.col(c).unwrap().to_vec()))
                        .collect(),
                },
            }
            .encode(&mut want);
        }
        LogRecord::Remove {
            timestamp: first + 4,
            version: 14,
            key: b"gone".to_vec(),
        }
        .encode(&mut want);

        assert_eq!(pending.count, 5);
        pending.seal_into(first, &mut sealed);
        assert_eq!(sealed, want);
        assert_eq!(pending.count, 0, "sealing empties the queue");
        assert!(pending.frames.is_empty());
        let prefix = b"earlier bytes stay".len();
        assert_eq!(decode_all(&sealed[prefix..]).len(), 5, "and they decode");
    }

    #[test]
    fn append_pending_stamps_increasing_timestamps_under_one_lock() {
        let dir = tmpdir("pending");
        let path = dir.join("log0");
        {
            let w = LogWriter::open(path.clone()).unwrap();
            let before = w.append_now(|timestamp| LogRecord::Heartbeat { timestamp });
            let mut pending = PendingRecords::default();
            for i in 0..50u64 {
                pending.put(i, format!("k{i}").as_bytes(), &ColValue::single(i, b"v"));
            }
            w.append_pending(&mut pending);
            w.append_pending(&mut pending); // empty: appends nothing
            assert!(crate::clock::now() > before + 50);
            assert!(w.force());
        }
        let puts: Vec<LogRecord> = read_log(&path)
            .unwrap()
            .into_iter()
            .filter(|r| !r.is_marker())
            .collect();
        assert_eq!(puts.len(), 50);
        for (i, pair) in puts.windows(2).enumerate() {
            assert_eq!(pair[0].version(), i as u64);
            assert_eq!(pair[1].timestamp(), pair[0].timestamp() + 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_rejected() {
        let mut buf = Vec::new();
        rec(1).encode(&mut buf);
        let full = buf.len();
        rec(2).encode(&mut buf);
        // Truncate mid-record: decode of the tail must fail.
        let torn = &buf[..full + 7];
        let (_, n1) = LogRecord::decode(torn).unwrap();
        assert!(LogRecord::decode(&torn[n1..]).is_none());
    }

    #[test]
    fn heartbeat_roundtrip() {
        let mut buf = Vec::new();
        LogRecord::Heartbeat { timestamp: 777 }.encode(&mut buf);
        let (r, used) = LogRecord::decode(&buf).unwrap();
        assert_eq!(r, LogRecord::Heartbeat { timestamp: 777 });
        assert_eq!(used, buf.len());
        assert_eq!(r.timestamp(), 777);
    }

    #[test]
    fn corrupt_crc_is_rejected() {
        let mut buf = Vec::new();
        rec(1).encode(&mut buf);
        let mid = buf.len() / 2;
        buf[mid] ^= 0xff;
        assert!(LogRecord::decode(&buf).is_none());
    }

    #[test]
    fn writer_persists_records() {
        let dir = std::env::temp_dir().join(format!("mtkv-logtest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log0");
        let _ = std::fs::remove_file(&path);
        {
            let w = LogWriter::open(path.clone()).unwrap();
            for i in 0..100 {
                w.append(&rec(i));
            }
            assert!(w.force());
        }
        let records = read_log(&path).unwrap();
        let puts: Vec<&LogRecord> = records.iter().filter(|r| !r.is_marker()).collect();
        assert_eq!(puts.len(), 100);
        assert_eq!(*puts[42], rec(42));
        assert!(
            records.len() > puts.len(),
            "liveness heartbeats are interleaved"
        );
        assert!(
            matches!(records.last(), Some(LogRecord::CleanClose { .. })),
            "a dropped writer seals its log with the clean-close sentinel"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_close_roundtrip() {
        let mut buf = Vec::new();
        LogRecord::CleanClose { timestamp: 888 }.encode(&mut buf);
        let (r, used) = LogRecord::decode(&buf).unwrap();
        assert_eq!(r, LogRecord::CleanClose { timestamp: 888 });
        assert_eq!(used, buf.len());
        assert_eq!(r.timestamp(), 888);
        assert!(r.is_marker());
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mtkv-logseg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn segmented_writer_rotates_and_seals() {
        let dir = tmpdir("rotate");
        {
            let w = LogWriter::open_segmented(&dir, 7, 2048).unwrap();
            for i in 0..200 {
                w.append(&rec(i));
            }
            assert!(w.force());
            assert!(w.current_segment() > 0, "threshold crossed → rotated");
            assert_eq!(w.segments_sealed(), w.current_segment());
        }
        let segs = crate::recovery::session_segments(&dir).remove(&7).unwrap();
        assert!(segs.len() >= 2, "rotation produced multiple segments");
        let mut total_puts = 0;
        for (i, (seg, path)) in segs.iter().enumerate() {
            assert_eq!(*seg, i as u64, "contiguous segment numbering");
            let records = read_log(path).unwrap();
            assert!(
                matches!(records.last(), Some(LogRecord::CleanClose { .. })),
                "every segment (sealed or dropped) ends with the sentinel"
            );
            assert_eq!(
                records
                    .iter()
                    .filter(|r| matches!(r, LogRecord::CleanClose { .. }))
                    .count(),
                1,
                "exactly one sentinel per segment"
            );
            total_puts += records.iter().filter(|r| !r.is_marker()).count();
        }
        assert_eq!(total_puts, 200, "no record lost across rotation");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_markers_never_outrun_written_records() {
        // Regression: rotation used to stamp the seal sentinel and the
        // successor's opening heartbeat with `clock::now()`, which runs
        // ahead of records stamped at put time but still unsynced in the
        // successor. After a crash between the seal's fsync and the
        // successor's first sync, the surviving sentinel would inflate
        // the session's recovery-cutoff contribution past its last
        // durable record. Rotation markers must never carry a timestamp
        // later than the records written before them.
        let dir = tmpdir("marker-ts");
        {
            let w = LogWriter::open_segmented(&dir, 9, 1024).unwrap();
            for i in 0..200u64 {
                w.append_now(|timestamp| LogRecord::Put {
                    timestamp,
                    version: i,
                    key: format!("k{i}").into_bytes(),
                    cols: vec![(0, vec![0u8; 32])],
                });
            }
            assert!(w.force());
        }
        let segs = crate::recovery::session_segments(&dir).remove(&9).unwrap();
        assert!(segs.len() >= 3, "need several segments: {}", segs.len());
        let mut prev_max = 0u64; // max ts across all earlier segments
        for (i, (_, path)) in segs.iter().enumerate() {
            let records = read_log(path).unwrap();
            let is_last = i + 1 == segs.len();
            if i > 0 {
                let first = records.first().unwrap();
                assert!(
                    matches!(first, LogRecord::Heartbeat { .. }),
                    "rotated segment opens with a heartbeat: {first:?}"
                );
                assert!(
                    first.timestamp() <= prev_max,
                    "opening heartbeat ({}) claims knowledge past the \
                     records written before it ({prev_max})",
                    first.timestamp()
                );
            }
            let body_max = records
                .iter()
                .take(records.len() - 1)
                .map(|r| r.timestamp())
                .max()
                .unwrap_or(0);
            let seal = records.last().unwrap();
            assert!(matches!(seal, LogRecord::CleanClose { .. }));
            if !is_last {
                // Rotation seal (the final, drop-written seal goes
                // through the buffer in order, so now() is fine there).
                assert!(
                    seal.timestamp() <= prev_max.max(body_max),
                    "rotation seal ({}) claims knowledge past the records \
                     written before it ({})",
                    seal.timestamp(),
                    prev_max.max(body_max)
                );
            }
            prev_max = prev_max.max(body_max).max(seal.timestamp());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulate_crash_abandons_buffer_without_sentinel() {
        let dir = tmpdir("crash");
        let w = LogWriter::open_segmented(&dir, 0, u64::MAX).unwrap();
        for i in 0..50 {
            w.append(&rec(i));
        }
        assert!(w.force());
        // These records are appended but never forced: they may or may
        // not reach the file, and no sentinel must appear.
        for i in 50..60 {
            w.append(&rec(i));
        }
        let cp = w.simulate_crash();
        assert_eq!(cp.active_segment, segment_path(&dir, 0, 0));
        let data = std::fs::read(&cp.active_segment).unwrap();
        assert!(cp.durable_len <= data.len() as u64);
        let records = decode_all(&data);
        assert!(
            !matches!(records.last(), Some((LogRecord::CleanClose { .. }, _))),
            "a crashed log must not end in a clean-close sentinel"
        );
        let puts = records.iter().filter(|(r, _)| !r.is_marker()).count();
        assert!(puts >= 50, "forced records survive the crash: {puts}");
        // The durable watermark covers everything forced.
        let durable = decode_all(&data[..cp.durable_len as usize]);
        assert!(durable.iter().filter(|(r, _)| !r.is_marker()).count() >= 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_deletes_only_covered_sealed_segments() {
        let dir = tmpdir("trunc");
        {
            let w = LogWriter::open_segmented(&dir, 3, 1024).unwrap();
            for i in 0..120 {
                w.append_now(|timestamp| LogRecord::Put {
                    timestamp,
                    version: i,
                    key: format!("k{i}").into_bytes(),
                    cols: vec![(0, vec![0u8; 32])],
                });
            }
            assert!(w.force());
        }
        let segs = crate::recovery::session_segments(&dir).remove(&3).unwrap();
        assert!(segs.len() >= 3, "need several segments: {}", segs.len());
        // Cutoff past everything: every sealed segment is covered; the
        // chain closed cleanly so even the newest may go.
        let report = truncate_covered_segments(&dir, u64::MAX).unwrap();
        assert_eq!(report.segments_deleted, segs.len() as u64);
        assert!(crate::recovery::session_segments(&dir).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_spares_active_and_evidence_segments() {
        let dir = tmpdir("spare");
        let w = LogWriter::open_segmented(&dir, 5, 1024).unwrap();
        for i in 0..120 {
            w.append_now(|timestamp| LogRecord::Put {
                timestamp,
                version: i,
                key: format!("k{i}").into_bytes(),
                cols: vec![(0, vec![0u8; 32])],
            });
        }
        assert!(w.force());
        let before = crate::recovery::session_segments(&dir)
            .remove(&5)
            .unwrap()
            .len();
        assert!(before >= 3);
        // Writer still live: the active segment must survive, and
        // covered sealed segments may go.
        let report = truncate_covered_segments(&dir, u64::MAX).unwrap();
        assert!(report.segments_deleted >= 1);
        let after = crate::recovery::session_segments(&dir).remove(&5).unwrap();
        let active = segment_path(&dir, 5, w.current_segment());
        assert!(
            after.iter().any(|(_, p)| *p == active),
            "active segment never deleted"
        );
        // Cutoff below every record: nothing further is covered.
        let report = truncate_covered_segments(&dir, 0).unwrap();
        assert_eq!(report.segments_deleted, 0);
        drop(w);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
