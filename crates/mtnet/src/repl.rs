//! Primary→follower log-shipping replication.
//!
//! The PR 3 durable log is already a total per-session order of writes;
//! this module ships it. A [`ReplSource`] attached to a primary store
//! streams every session's segment chain — sealed segments plus the
//! live tail up to each log's durable watermark — to any number of
//! followers over a small length-prefixed frame protocol. A
//! [`Follower`] mirrors the segments to its own directory, replays
//! complete records into an in-memory tree with the same version-gated
//! idempotent semantics as crash recovery, journals its durable replay
//! watermark, and serves reads while the server layer refuses writes
//! with a typed redirect.
//!
//! **Replication is strictly asynchronous.** The primary's put/ack path
//! never waits for a follower: feeders run on their own threads, read
//! segment bytes from disk (never from the write path), and a wedged
//! follower only ever stalls its own feeder, which is shed on an ack
//! timeout. The price is the classic async-replication contract: a
//! follower is *bounded-stale* (lag observable in bytes and primary
//! clock microseconds through `Stats`), and on a primary failover the
//! un-shipped tail is lost to the replica.
//!
//! Failure envelope:
//! * **Follower crash / restart** — the journaled watermark plus the
//!   mirrored segments let it resume exactly where applied state ended;
//!   any re-sent tail re-replays idempotently (version-gated).
//! * **Torn connection** — the follower reconnects with jittered
//!   exponential backoff and re-handshakes with its in-memory
//!   watermarks.
//! * **Primary restart** — recovery reseals (rewrites) log segments, so
//!   byte offsets shift; the new source draws a fresh epoch and answers
//!   stale-epoch handshakes with `Gone`, which makes the follower wipe
//!   its state and resync from scratch.
//! * **Dead/slow follower** — no ack within the configured timeout (or
//!   a persistently stalled socket write) sheds the feeder.
//!
//! While a source is attached, checkpoint-driven log truncation is
//! pinned off ([`mtkv::Store::pin_log_truncation`]): the chains are the
//! replication feed. Segments truncated *before* the source attached
//! are gone from the feed — a follower attached to such a primary only
//! receives the remaining log suffix (checkpoint shipping is the
//! documented follow-up); attach followers before significant
//! truncation, or start sources on fresh primaries.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mtkv::log::{LogRecord, LogRecordRef, SegmentWalker};
use mtkv::store::ReplStats;
use mtkv::Store;

/// Follower→primary handshake magic.
const HANDSHAKE_MAGIC: &[u8; 4] = b"MTRP";
/// Watermark journal magic.
const JOURNAL_MAGIC: &[u8; 4] = b"MTRS";
/// Wire protocol version.
const REPL_VERSION: u32 = 1;
/// Journal file name inside a follower's directory.
const JOURNAL_NAME: &str = "repl.state";
/// Hard cap on a replication frame body.
const MAX_FRAME: usize = 16 << 20;

// Frame tags (primary→follower unless noted).
const TAG_HELLO: u8 = 0;
const TAG_DATA: u8 = 1;
const TAG_HEARTBEAT: u8 = 2;
const TAG_GONE: u8 = 3;
/// Follower→primary.
const TAG_ACK: u8 = 4;

/// Roles published through [`ReplStats::role`].
pub const ROLE_NONE: u64 = 0;
pub const ROLE_PRIMARY: u64 = 1;
pub const ROLE_FOLLOWER: u64 = 2;

/// Pseudo-session carrying value-tier segment bytes (`vseg-<seg>`
/// files) through the same `Data`-frame protocol as WAL chains. Real
/// session ids are small counters and can never collide with it. Vseg
/// bytes are mirrored verbatim (never decoded as log records), and each
/// shipping pass sends them **before** any WAL chain: a shipped pointer
/// record then always finds its payload bytes already mirrored (the
/// primary orders its own durability the same way — tier before WAL).
const VSEG_SESSION: u64 = u64::MAX - 1;

// ---------------------------------------------------------------------
// Frame plumbing shared by both ends.
// ---------------------------------------------------------------------

/// Writes one `tag | len | body` frame, looping over partial writes.
/// The socket's write timeout bounds each attempt; `deadline` bounds
/// the whole frame — a peer that stays unwritable past it is dead to
/// us — and `abort` lets a shutdown cut the wait short.
fn send_frame(
    sock: &mut TcpStream,
    tag: u8,
    body: &[u8],
    deadline: Instant,
    abort: &dyn Fn() -> bool,
) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(5 + body.len());
    frame.push(tag);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    let mut off = 0;
    while off < frame.len() {
        match sock.write(&frame[off..]) {
            Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero)),
            Ok(n) => off += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if abort() || Instant::now() >= deadline {
                    return Err(std::io::Error::from(std::io::ErrorKind::TimedOut));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Incremental frame reader over a socket with a read timeout: each
/// `poll` call does at most one `read`, returning `None` when no
/// complete frame is buffered yet (timeout included).
struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    fn new() -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn take_frame(&mut self) -> std::io::Result<Option<(u8, Vec<u8>)>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 5 {
            return Ok(None);
        }
        let tag = avail[0];
        let len = u32::from_le_bytes(avail[1..5].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(std::io::Error::other("replication frame too large"));
        }
        if avail.len() < 5 + len {
            return Ok(None);
        }
        let body = avail[5..5 + len].to_vec();
        self.pos += 5 + len;
        if self.pos > (1 << 20) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some((tag, body)))
    }

    /// One buffered frame if available, else one socket read (bounded by
    /// the socket's read timeout) and another attempt.
    fn poll(&mut self, sock: &mut TcpStream) -> std::io::Result<Option<(u8, Vec<u8>)>> {
        if let Some(f) = self.take_frame()? {
            return Ok(Some(f));
        }
        let mut chunk = [0u8; 64 * 1024];
        match sock.read(&mut chunk) {
            Ok(0) => Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof)),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                self.take_frame()
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], off: &mut usize) -> Option<u64> {
    let v = u64::from_le_bytes(buf.get(*off..*off + 8)?.try_into().ok()?);
    *off += 8;
    Some(v)
}

fn get_u32(buf: &[u8], off: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(buf.get(*off..*off + 4)?.try_into().ok()?);
    *off += 4;
    Some(v)
}

// ---------------------------------------------------------------------
// Primary side: ReplSource.
// ---------------------------------------------------------------------

/// Tuning for the primary's shipping side.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// How often each feeder heartbeats its follower.
    pub heartbeat_interval: Duration,
    /// Shed a follower that has not acked for this long (also bounds a
    /// stalled socket write).
    pub ack_timeout: Duration,
    /// Per-`Data`-frame payload cap.
    pub chunk_bytes: usize,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            heartbeat_interval: Duration::from_millis(25),
            ack_timeout: Duration::from_secs(3),
            chunk_bytes: 64 * 1024,
        }
    }
}

struct Peer {
    acked: AtomicU64,
    echo_ts: AtomicU64,
}

struct SrcShared {
    store: Arc<Store>,
    stats: Arc<ReplStats>,
    cfg: ReplConfig,
    epoch: u64,
    dir: PathBuf,
    stop: AtomicBool,
    peers: std::sync::Mutex<Vec<Arc<Peer>>>,
}

impl SrcShared {
    /// Recomputes the primary-side aggregate lag stats from the peer
    /// registry. `total_durable` is the caller's freshest feed size.
    fn publish_stats(&self, total_durable: u64) {
        let peers = self.peers.lock().unwrap();
        self.stats
            .followers
            .store(peers.len() as u64, Ordering::Relaxed);
        let mut worst_lag = 0u64;
        let mut oldest_echo = u64::MAX;
        for p in peers.iter() {
            worst_lag =
                worst_lag.max(total_durable.saturating_sub(p.acked.load(Ordering::Relaxed)));
            oldest_echo = oldest_echo.min(p.echo_ts.load(Ordering::Relaxed));
        }
        self.stats.lag_bytes.store(worst_lag, Ordering::Relaxed);
        let ts_lag = if peers.is_empty() || worst_lag == 0 || oldest_echo == 0 {
            0
        } else {
            mtkv::clock::recent().saturating_sub(oldest_echo)
        };
        self.stats.lag_ts_us.store(ts_lag, Ordering::Relaxed);
    }
}

/// The primary's replication endpoint: a listener plus one feeder
/// thread per connected follower. Dropping (or [`ReplSource::stop`])
/// disconnects all followers and unpins log truncation.
pub struct ReplSource {
    shared: Arc<SrcShared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    feeders: Arc<std::sync::Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl ReplSource {
    /// Attaches a shipping source to `store` (which must be persistent)
    /// and listens on `addr` for followers.
    pub fn start(store: &Arc<Store>, addr: &str) -> std::io::Result<ReplSource> {
        Self::start_with(store, addr, ReplConfig::default())
    }

    pub fn start_with(
        store: &Arc<Store>,
        addr: &str,
        cfg: ReplConfig,
    ) -> std::io::Result<ReplSource> {
        let dir = store
            .log_dir()
            .ok_or_else(|| std::io::Error::other("replication source needs a persistent store"))?
            .to_path_buf();
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stats = store.repl_stats();
        stats.role.store(ROLE_PRIMARY, Ordering::Relaxed);
        store.pin_log_truncation(true);
        let shared = Arc::new(SrcShared {
            store: Arc::clone(store),
            stats,
            cfg,
            // The epoch names this primary incarnation: recovery rewrites
            // segment files (offsets shift), so a follower watermark is
            // only meaningful against the incarnation that produced it.
            epoch: mtkv::clock::now(),
            dir,
            stop: AtomicBool::new(false),
            peers: std::sync::Mutex::new(Vec::new()),
        });
        let feeders: Arc<std::sync::Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let s2 = Arc::clone(&shared);
        let f2 = Arc::clone(&feeders);
        let accept = std::thread::Builder::new()
            .name("mt-repl-accept".into())
            .spawn(move || {
                while !s2.stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((sock, _)) => {
                            let s3 = Arc::clone(&s2);
                            let h = std::thread::Builder::new()
                                .name("mt-repl-feed".into())
                                .spawn(move || feed_follower(&s3, sock))
                                .expect("spawn feeder");
                            let mut fs = f2.lock().unwrap();
                            fs.retain(|h| !h.is_finished());
                            fs.push(h);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })
            .expect("spawn repl accept");
        Ok(ReplSource {
            shared,
            addr: local,
            accept: Some(accept),
            feeders,
        })
    }

    /// The address followers should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This incarnation's epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// Disconnects all followers, stops the listener, and unpins log
    /// truncation. Idempotent; also runs on drop.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for h in self.feeders.lock().unwrap().drain(..) {
            let _ = h.join();
        }
        self.shared.store.pin_log_truncation(false);
        self.shared.stats.role.store(ROLE_NONE, Ordering::Relaxed);
        self.shared.stats.followers.store(0, Ordering::Relaxed);
        self.shared.stats.lag_bytes.store(0, Ordering::Relaxed);
        self.shared.stats.lag_ts_us.store(0, Ordering::Relaxed);
    }
}

impl Drop for ReplSource {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One shippable chain for a feeder pass: `(session id, its sorted
/// segment chain, durable limit of the active segment if any)`.
type Feed<'a> = (u64, &'a Vec<(u64, PathBuf, u64)>, Option<u64>);

/// Shipping limits for one pass over the primary's log directory:
/// per-file durable byte counts plus their total.
struct FeedView {
    /// session → sorted `(seg, path, durable_limit)`.
    chains: BTreeMap<u64, Vec<(u64, PathBuf, u64)>>,
    /// session → active segment, for sessions whose writer is live.
    active: HashMap<u64, u64>,
    /// Value-tier segment chain (shipped first, as [`VSEG_SESSION`]),
    /// plus the tier's active segment. Empty when no tier is mounted.
    vsegs: Vec<(u64, PathBuf, u64)>,
    vseg_active: Option<u64>,
    total_durable: u64,
}

fn feed_view(shared: &SrcShared) -> FeedView {
    // WAL watermarks are snapshotted BEFORE the value tier's, and the
    // tier is forced in between (below): any pointer inside these WAL
    // limits then names a payload the (later-read) vseg limits cover.
    let live: HashMap<u64, (u64, u64)> = shared
        .store
        .shipping_watermarks()
        .into_iter()
        .map(|(id, seg, durable)| (id, (seg, durable)))
        .collect();
    let mut chains = BTreeMap::new();
    let mut total = 0u64;
    for (session, segs) in mtkv::session_segments(&shared.dir) {
        let mut chain = Vec::with_capacity(segs.len());
        for (seg, path) in segs {
            let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let limit = match live.get(&session) {
                // Active segment: ship only synced bytes. (A rotation
                // race can briefly overstate `durable` for a fresh
                // segment; the file-length clamp bounds it.)
                Some(&(active, durable)) if seg == active => durable.min(len),
                // Rotation creates the successor file before publishing
                // the new segment number: not durable yet.
                Some(&(active, _)) if seg > active => 0,
                // Sealed, or the writer is gone (chain is static).
                _ => len,
            };
            total += limit;
            chain.push((seg, path, limit));
        }
        chains.insert(session, chain);
    }
    let mut vsegs = Vec::new();
    let mut vseg_active = None;
    if let Some(tier) = shared.store.value_tier() {
        // Force the tier before snapshotting its watermark. The ack
        // paths already order tier-force before WAL-force, but the WAL's
        // 200 ms *background* force advances the WAL watermark on its
        // own — without this force, a store that never checkpoints or
        // takes an explicit Flush/Sync would ship pointer records whose
        // payload bytes stay below the vseg durable limit forever, and
        // followers would answer misses for every separated key. Payload
        // bytes are appended before their pointer record is logged, so
        // forcing here (after the WAL snapshot above) covers every
        // pointer inside those WAL limits. No-op when nothing is dirty.
        let _ = tier.force();
        let (active, durable) = tier.progress();
        vseg_active = Some(active);
        for seg in mtkv::vtier::vseg_ids(&shared.dir) {
            let path = mtkv::vtier::vseg_path(&shared.dir, seg);
            let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let limit = match seg.cmp(&active) {
                std::cmp::Ordering::Less => len, // sealed: static
                std::cmp::Ordering::Equal => durable.min(len),
                std::cmp::Ordering::Greater => 0,
            };
            total += limit;
            vsegs.push((seg, path, limit));
        }
    }
    FeedView {
        chains,
        active: live.into_iter().map(|(id, (seg, _))| (id, seg)).collect(),
        vsegs,
        vseg_active,
        total_durable: total,
    }
}

/// One follower's feeder loop: handshake, then ship/ack/heartbeat until
/// shed, disconnected, or the source stops.
fn feed_follower(shared: &SrcShared, mut sock: TcpStream) {
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(Some(Duration::from_millis(1)));
    let _ = sock.set_write_timeout(Some(Duration::from_millis(50)));
    let Some((peer_epoch, mut cursors)) = read_handshake(&mut sock) else {
        return;
    };
    let abort = || shared.stop.load(Ordering::Acquire);
    let deadline = || Instant::now() + shared.cfg.ack_timeout;
    if peer_epoch != 0 && peer_epoch != shared.epoch {
        let _ = send_frame(&mut sock, TAG_GONE, &[], deadline(), &abort);
        return;
    }
    let mut hello = Vec::new();
    put_u64(&mut hello, shared.epoch);
    if send_frame(&mut sock, TAG_HELLO, &hello, deadline(), &abort).is_err() {
        return;
    }

    let peer = Arc::new(Peer {
        acked: AtomicU64::new(0),
        echo_ts: AtomicU64::new(0),
    });
    shared.peers.lock().unwrap().push(Arc::clone(&peer));

    let mut reader = FrameReader::new();
    let mut files: HashMap<(u64, u64), File> = HashMap::new();
    let mut last_ack = Instant::now();
    let mut last_hb = Instant::now() - shared.cfg.heartbeat_interval;
    let mut gone = false;

    'feed: while !shared.stop.load(Ordering::Acquire) {
        let view = feed_view(shared);

        // Ship: advance each session's cursor toward its durable limit,
        // strictly in (segment, offset) order. The vseg pseudo-session
        // goes FIRST so payload bytes always precede the WAL pointer
        // records that name them.
        let mut feeds: Vec<Feed> = Vec::new();
        if !view.vsegs.is_empty() {
            feeds.push((VSEG_SESSION, &view.vsegs, view.vseg_active));
        }
        for (&session, chain) in &view.chains {
            feeds.push((session, chain, view.active.get(&session).copied()));
        }
        let mut shipped = 0usize;
        let ship_t0 = Instant::now();
        for (session, chain, live_active) in feeds {
            let cursor = cursors.entry(session).or_insert_with(|| {
                let first = chain.first().map(|&(seg, _, _)| seg).unwrap_or(0);
                (first, 0)
            });
            loop {
                let Some(entry) = chain.iter().find(|&&(seg, _, _)| seg == cursor.0) else {
                    if session == VSEG_SESSION {
                        // GC deletes reclaimed value segments, so a
                        // vseg chain legitimately has holes; skip the
                        // cursor forward (relocated copies arrive
                        // through the GC session's WAL records).
                        match chain.iter().map(|&(s, _, _)| s).find(|&s| s > cursor.0) {
                            Some(next) => {
                                *cursor = (next, 0);
                                continue;
                            }
                            None => break,
                        }
                    }
                    // The follower claims a segment this chain does not
                    // have. Same-epoch chains only grow, so this is a
                    // protocol violation (or pre-source truncation):
                    // resync the follower from scratch.
                    let _ = send_frame(&mut sock, TAG_GONE, &[], deadline(), &abort);
                    gone = true;
                    break 'feed;
                };
                let (seg, path, limit) = entry;
                if cursor.1 > *limit && live_active != Some(*seg) {
                    // A sealed segment can never grow back over the
                    // follower's claim: protocol violation.
                    let _ = send_frame(&mut sock, TAG_GONE, &[], deadline(), &abort);
                    gone = true;
                    break 'feed;
                }
                while cursor.1 < *limit {
                    let want = (*limit - cursor.1).min(shared.cfg.chunk_bytes as u64) as usize;
                    let file = match files.entry((session, *seg)) {
                        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                        std::collections::hash_map::Entry::Vacant(e) => match File::open(path) {
                            Ok(f) => e.insert(f),
                            Err(_) => break,
                        },
                    };
                    let mut body = Vec::with_capacity(24 + want);
                    put_u64(&mut body, session);
                    put_u64(&mut body, *seg);
                    put_u64(&mut body, cursor.1);
                    let data_start = body.len();
                    body.resize(data_start + want, 0);
                    let n = file.read_at(&mut body[data_start..], cursor.1).unwrap_or(0);
                    if n == 0 {
                        break;
                    }
                    body.truncate(data_start + n);
                    if send_frame(&mut sock, TAG_DATA, &body, deadline(), &abort).is_err() {
                        break 'feed;
                    }
                    cursor.1 += n as u64;
                    shipped += n;
                }
                // Advance to the next segment only once the current one
                // can no longer grow: it is below the live writer's
                // active segment, or the writer is gone and a successor
                // file exists.
                let complete = match live_active {
                    Some(active) => *seg < active,
                    None => chain.iter().any(|&(s, _, _)| s > *seg),
                };
                let successor = if session == VSEG_SESSION {
                    // Vseg ids can be sparse (GC deletions).
                    chain.iter().map(|&(s, _, _)| s).find(|&s| s > *seg)
                } else if chain.iter().any(|&(s, _, _)| s == seg + 1) {
                    Some(seg + 1)
                } else {
                    None
                };
                match successor {
                    Some(next) if complete && cursor.1 >= *limit => *cursor = (next, 0),
                    _ => break,
                }
            }
        }

        if shipped > 0 {
            // One histogram sample per feeder pass that moved bytes —
            // idle passes (the 2 ms sleep loop) would only pile counts
            // into the lowest buckets.
            shared.store.obs().global().record(
                mtkv::mtobs::Kind::ReplShip,
                ship_t0.elapsed().as_nanos() as u64,
            );
        }

        // Drain acks.
        loop {
            match reader.poll(&mut sock) {
                Ok(Some((TAG_ACK, body))) => {
                    let mut off = 0;
                    if let (Some(applied), Some(echo)) =
                        (get_u64(&body, &mut off), get_u64(&body, &mut off))
                    {
                        peer.acked.store(applied, Ordering::Relaxed);
                        peer.echo_ts.store(echo, Ordering::Relaxed);
                        last_ack = Instant::now();
                    }
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => break 'feed,
            }
        }
        if last_ack.elapsed() > shared.cfg.ack_timeout {
            // Dead or wedged follower: shed it. Its feeder exits; the
            // group-commit path never noticed.
            break 'feed;
        }

        if last_hb.elapsed() >= shared.cfg.heartbeat_interval {
            let mut hb = Vec::with_capacity(16);
            put_u64(&mut hb, mtkv::clock::now());
            put_u64(&mut hb, view.total_durable);
            if send_frame(&mut sock, TAG_HEARTBEAT, &hb, deadline(), &abort).is_err() {
                break 'feed;
            }
            last_hb = Instant::now();
        }

        shared.publish_stats(view.total_durable);
        if shipped == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    if gone {
        // Give the follower a beat to read the Gone before the socket
        // drops; it reacts by wiping and resyncing.
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut peers = shared.peers.lock().unwrap();
    peers.retain(|p| !Arc::ptr_eq(p, &peer));
    drop(peers);
    shared.publish_stats(0);
}

/// Per-session resume positions from a follower handshake:
/// `session → (segment, offset)`.
type ResumeMap = HashMap<u64, (u64, u64)>;

/// Reads the raw follower handshake: `magic | version | epoch | n |
/// n × (session, segment, offset)`. Bounded by a 5-second deadline.
fn read_handshake(sock: &mut TcpStream) -> Option<(u64, ResumeMap)> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut buf = Vec::new();
    let mut need = 20; // magic + version + epoch + count
    loop {
        while buf.len() < need {
            if Instant::now() >= deadline {
                return None;
            }
            let mut chunk = [0u8; 4096];
            match sock.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        if &buf[..4] != HANDSHAKE_MAGIC {
            return None;
        }
        let mut off = 4;
        let version = get_u32(&buf, &mut off)?;
        if version != REPL_VERSION {
            return None;
        }
        let epoch = get_u64(&buf, &mut off)?;
        let n = get_u32(&buf, &mut off)? as usize;
        if n > 1 << 16 {
            return None;
        }
        if buf.len() < 20 + n * 24 {
            need = 20 + n * 24;
            continue;
        }
        let mut marks = HashMap::with_capacity(n);
        for _ in 0..n {
            let session = get_u64(&buf, &mut off)?;
            let seg = get_u64(&buf, &mut off)?;
            let offset = get_u64(&buf, &mut off)?;
            marks.insert(session, (seg, offset));
        }
        return Some((epoch, marks));
    }
}

// ---------------------------------------------------------------------
// Follower side.
// ---------------------------------------------------------------------

/// Tuning for a follower.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// First reconnect delay; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Reconnect delay cap.
    pub backoff_cap: Duration,
    /// How often the follower acks its applied watermark.
    pub ack_interval: Duration,
    /// How often mirrors are fsynced and the watermark journal written.
    pub journal_interval: Duration,
    /// Reconnect if the primary sends nothing for this long.
    pub quiet_timeout: Duration,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        FollowerConfig {
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_secs(1),
            ack_interval: Duration::from_millis(25),
            journal_interval: Duration::from_millis(50),
            quiet_timeout: Duration::from_secs(5),
        }
    }
}

/// Where a follower's replication loop currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowerStatus {
    /// Bootstrapping from local mirrors, or between reconnect attempts.
    Connecting,
    /// Handshake accepted; applying the primary's stream.
    Streaming,
    /// Stopped (or crashed via the test hook).
    Stopped,
}

struct FolShared {
    store: Arc<Store>,
    stats: Arc<ReplStats>,
    dir: PathBuf,
    primary: String,
    cfg: FollowerConfig,
    stop: AtomicBool,
    /// Test hook: exit the run thread immediately, skipping the final
    /// fsync + journal — a kill -9.
    crash: AtomicBool,
    /// Test hook: drop the current connection mid-stream once.
    tear: AtomicBool,
    status: AtomicU8,
    applied_total: AtomicU64,
}

/// A read replica: mirrors the primary's log segments under its own
/// directory, replays them into an in-memory [`Store`], journals its
/// replay watermark, and reconnects with jittered exponential backoff.
pub struct Follower {
    shared: Arc<FolShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Follower {
    /// Starts (or restarts) a follower over `dir`, replicating from the
    /// primary's replication listener at `primary`. Existing mirrors in
    /// `dir` are trimmed to the journaled watermark and replayed before
    /// the first connection, so a restart resumes instead of resyncing.
    pub fn start(dir: &Path, primary: &str) -> std::io::Result<Follower> {
        Self::start_with(dir, primary, FollowerConfig::default())
    }

    pub fn start_with(dir: &Path, primary: &str, cfg: FollowerConfig) -> std::io::Result<Follower> {
        std::fs::create_dir_all(dir)?;
        // A replica store: in-memory tree plus a reader-only value tier
        // over `dir`, where vseg mirrors land — replayed pointer
        // records resolve against them.
        let store = Store::replica(dir)?;
        let stats = store.repl_stats();
        stats.role.store(ROLE_FOLLOWER, Ordering::Relaxed);
        let shared = Arc::new(FolShared {
            store,
            stats,
            dir: dir.to_path_buf(),
            primary: primary.to_string(),
            cfg,
            stop: AtomicBool::new(false),
            crash: AtomicBool::new(false),
            tear: AtomicBool::new(false),
            status: AtomicU8::new(FollowerStatus::Connecting as u8),
            applied_total: AtomicU64::new(0),
        });
        let s2 = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("mt-repl-follow".into())
            .spawn(move || follower_run(&s2))?;
        Ok(Follower {
            shared,
            thread: Some(thread),
        })
    }

    /// The replica store this follower applies into. Serve reads from
    /// it; the server layer must refuse writes with a redirect.
    pub fn store(&self) -> Arc<Store> {
        Arc::clone(&self.shared.store)
    }

    pub fn status(&self) -> FollowerStatus {
        match self.shared.status.load(Ordering::Acquire) {
            0 => FollowerStatus::Connecting,
            1 => FollowerStatus::Streaming,
            _ => FollowerStatus::Stopped,
        }
    }

    /// `(lag_bytes, lag_ts_us)` as of the last primary heartbeat.
    pub fn lag(&self) -> (u64, u64) {
        (
            self.shared.stats.lag_bytes.load(Ordering::Relaxed),
            self.shared.stats.lag_ts_us.load(Ordering::Relaxed),
        )
    }

    /// Total log bytes applied locally.
    pub fn applied_bytes(&self) -> u64 {
        self.shared.applied_total.load(Ordering::Relaxed)
    }

    /// Clean shutdown: final mirror fsync + watermark journal, so a
    /// restart resumes exactly here.
    pub fn stop(mut self) {
        self.shutdown(false);
    }

    /// Test hook — kill -9 equivalent: the run thread exits at its next
    /// check without flushing mirrors or the journal, abandoning
    /// whatever the last journal interval had not yet made durable.
    pub fn simulate_crash(mut self) {
        self.shutdown(true);
    }

    /// Test hook — drops the current replication connection mid-stream;
    /// the follower then reconnects with backoff and resumes.
    pub fn tear_connection(&self) {
        self.shared.tear.store(true, Ordering::Release);
    }

    fn shutdown(&mut self, crash: bool) {
        if crash {
            self.shared.crash.store(true, Ordering::Release);
        }
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.shared
            .status
            .store(FollowerStatus::Stopped as u8, Ordering::Release);
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.shutdown(false);
    }
}

/// One session's replay state on the follower.
struct SessState {
    /// Segment currently being applied.
    seg: u64,
    /// Bytes of `seg` fully applied (journal watermark).
    applied: u64,
    /// Received bytes of `seg` past `applied` that do not yet form a
    /// complete record.
    buf: Vec<u8>,
    /// Open mirror handle for `seg`.
    file: Option<File>,
    /// Mirror bytes written since the last fsync.
    dirty: bool,
}

impl SessState {
    /// A session applied up to byte `applied` of segment `seg`.
    fn at(seg: u64, applied: u64) -> SessState {
        SessState {
            seg,
            applied,
            buf: Vec::new(),
            file: None,
            dirty: false,
        }
    }
}

/// Everything the apply path mutates, kept together so bootstrap replay
/// and live streaming share one code path.
struct ApplyState {
    sessions: HashMap<u64, SessState>,
    /// Anti-resurrection map: key → version of the newest applied
    /// remove not yet superseded by a newer put. Replaces recovery's
    /// in-tree tombstones — the apply thread is the single writer, so
    /// the map is exact, and scans never see zero-column values.
    swept: HashMap<Vec<u8>, u64>,
    /// Total log bytes applied (across all sessions and segments).
    applied_total: u64,
    /// Timestamp of the newest applied record (primary clock).
    last_applied_ts: u64,
    /// Last primary heartbeat: (primary_ts, total_durable).
    horizon: (u64, u64),
    epoch: u64,
}

impl ApplyState {
    fn new() -> ApplyState {
        ApplyState {
            sessions: HashMap::new(),
            swept: HashMap::new(),
            applied_total: 0,
            last_applied_ts: 0,
            horizon: (0, 0),
            epoch: 0,
        }
    }

    fn apply_record(&mut self, store: &Store, rec: &LogRecordRef<'_>) {
        if rec.is_remove() {
            let e = self
                .swept
                .entry(rec.key().to_vec())
                .or_insert(rec.version());
            *e = (*e).max(rec.version());
            store.replay_remove(rec.key(), rec.version());
        } else if !rec.is_marker() {
            match self.swept.get(rec.key()) {
                // A newer remove already covered this put.
                Some(&swept_v) if rec.version() <= swept_v => {}
                other => {
                    if other.is_some() {
                        self.swept.remove(rec.key());
                    }
                    store.replay_put(rec);
                }
            }
        }
        self.last_applied_ts = self.last_applied_ts.max(rec.timestamp());
    }

    /// Applies every complete record buffered for `session`, borrowed
    /// straight from the buffer, advancing its applied watermark.
    fn drain_session(&mut self, store: &Store, session: u64) {
        let Some(s) = self.sessions.get_mut(&session) else {
            return;
        };
        let mut buf = std::mem::take(&mut s.buf);
        let mut pos = 0;
        while let Some((rec, used)) = LogRecord::decode_ref(&buf[pos..]) {
            pos += used;
            self.apply_record(store, &rec);
        }
        buf.drain(..pos);
        let s = self.sessions.get_mut(&session).expect("looked up above");
        s.buf = buf;
        s.applied += pos as u64;
        self.applied_total += pos as u64;
    }

    fn watermarks(&self) -> Vec<(u64, u64, u64)> {
        self.sessions
            .iter()
            .map(|(&id, s)| (id, s.seg, s.applied))
            .collect()
    }
}

fn mirror_path(dir: &Path, session: u64, seg: u64) -> PathBuf {
    if session == VSEG_SESSION {
        mtkv::vtier::vseg_path(dir, seg)
    } else {
        mtkv::segment_path(dir, session, seg)
    }
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_NAME)
}

/// Writes the watermark journal: `magic | version | epoch | n |
/// n × (session, seg, applied) | crc32`, via temp + rename. Mirrors
/// must be fsynced *before* this runs — the journal asserts the bytes
/// it points at are on disk.
fn write_journal(dir: &Path, epoch: u64, marks: &[(u64, u64, u64)]) -> std::io::Result<()> {
    let mut body = Vec::with_capacity(20 + marks.len() * 24);
    body.extend_from_slice(JOURNAL_MAGIC);
    body.extend_from_slice(&REPL_VERSION.to_le_bytes());
    put_u64(&mut body, epoch);
    body.extend_from_slice(&(marks.len() as u32).to_le_bytes());
    for &(session, seg, applied) in marks {
        put_u64(&mut body, session);
        put_u64(&mut body, seg);
        put_u64(&mut body, applied);
    }
    let crc = mtkv::crc32::crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    let tmp = dir.join(".repl.state.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&body)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, journal_path(dir))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_data();
    }
    Ok(())
}

/// Journalled watermark triples: `(session, segment, applied offset)`.
type JournalEntries = Vec<(u64, u64, u64)>;

/// Reads and validates the watermark journal.
fn read_journal(dir: &Path) -> Option<(u64, JournalEntries)> {
    let body = std::fs::read(journal_path(dir)).ok()?;
    if body.len() < 24 || &body[..4] != JOURNAL_MAGIC {
        return None;
    }
    let (payload, crc_bytes) = body.split_at(body.len() - 4);
    let crc = u32::from_le_bytes(crc_bytes.try_into().ok()?);
    if mtkv::crc32::crc32(payload) != crc {
        return None;
    }
    let mut off = 4;
    if get_u32(payload, &mut off)? != REPL_VERSION {
        return None;
    }
    let epoch = get_u64(payload, &mut off)?;
    let n = get_u32(payload, &mut off)? as usize;
    let mut marks = Vec::with_capacity(n);
    for _ in 0..n {
        marks.push((
            get_u64(payload, &mut off)?,
            get_u64(payload, &mut off)?,
            get_u64(payload, &mut off)?,
        ));
    }
    Some((epoch, marks))
}

/// Deletes every mirror segment (WAL and value-tier) and the journal
/// (full resync).
fn wipe_mirrors(dir: &Path) {
    for path in mtkv::log_files(dir) {
        let _ = std::fs::remove_file(&path);
    }
    for seg in mtkv::vtier::vseg_ids(dir) {
        let _ = std::fs::remove_file(mtkv::vtier::vseg_path(dir, seg));
    }
    let _ = std::fs::remove_file(journal_path(dir));
}

/// Bootstrap: trim mirrors to the journaled watermark, replay them
/// sequentially through the normal apply path, and return the resulting
/// state. Any inconsistency wipes the directory and starts empty (the
/// primary will be asked for a full resync).
fn bootstrap(shared: &FolShared) -> ApplyState {
    let mut state = ApplyState::new();
    let Some((epoch, marks)) = read_journal(&shared.dir) else {
        wipe_mirrors(&shared.dir);
        return state;
    };
    let journal: HashMap<u64, (u64, u64)> = marks
        .iter()
        .map(|&(session, seg, applied)| (session, (seg, applied)))
        .collect();
    // Trim: anything past the journal never had its durability asserted.
    // Value-segment mirrors are trimmed against the journaled vseg
    // cursor the same way.
    for path in mtkv::log_files(&shared.dir) {
        let name = path.file_name().and_then(|n| n.to_str());
        if let Some((session, seg)) = name.and_then(mtkv::parse_log_name) {
            trim_mirror(&path, seg, journal.get(&session).copied());
        }
    }
    let vsegs = mtkv::vtier::vseg_ids(&shared.dir);
    for &seg in &vsegs {
        let path = mtkv::vtier::vseg_path(&shared.dir, seg);
        trim_mirror(&path, seg, journal.get(&VSEG_SESSION).copied());
    }
    // Replay, streaming each mirror segment through one walker. Per-
    // session chains must decode end-to-end; a short decode means the
    // mirror is corrupt and the whole state is discarded. A journaled
    // session with no files yet is valid only at a zero watermark (the
    // mirror file is created on first received byte).
    let chains = mtkv::session_segments(&shared.dir);
    let mut walker = SegmentWalker::default();
    for (&session, &(jseg, japplied)) in &journal {
        let ok = if session == VSEG_SESSION {
            // Mirrored verbatim, nothing to replay: count the mirrored
            // bytes and restore the cursor. The journaled segment must
            // hold exactly the bytes the journal asserted durable.
            let len = |seg| {
                std::fs::metadata(mtkv::vtier::vseg_path(&shared.dir, seg)).map_or(0, |m| m.len())
            };
            state.applied_total += vsegs.iter().map(|&seg| len(seg)).sum::<u64>();
            len(jseg) == japplied
        } else {
            let chain = chains.get(&session).map_or(&[][..], Vec::as_slice);
            let consistent = match chain.last() {
                None => japplied == 0,
                Some(&(seg, _)) => seg == jseg,
            };
            consistent
                && chain.iter().all(|(seg, path)| {
                    // An unreadable mirror reads as empty.
                    let walked = walker
                        .scan(path, |rec| {
                            state.apply_record(&shared.store, rec);
                            true
                        })
                        .unwrap_or_default();
                    state.applied_total += walked.consumed;
                    let expect = if *seg == jseg {
                        japplied
                    } else {
                        walked.file_len
                    };
                    walked.consumed == expect
                })
        };
        if !ok {
            // Corrupt or inconsistent: full resync.
            wipe_mirrors(&shared.dir);
            shared.store.reset_replica();
            return ApplyState::new();
        }
        state
            .sessions
            .insert(session, SessState::at(jseg, japplied));
    }
    state.epoch = epoch;
    state
}

/// Trims one mirror file, segment `seg` of its session, against the
/// session's journaled `(segment, applied bytes)` mark: a later segment,
/// or any file of an unjournaled session, goes; the journaled segment is
/// cut back to the applied bytes.
fn trim_mirror(path: &Path, seg: u64, mark: Option<(u64, u64)>) {
    match mark {
        Some((jseg, _)) if seg < jseg => {}
        Some((jseg, japplied)) if seg == jseg => {
            if let Ok(f) = OpenOptions::new().write(true).open(path) {
                let _ = f.set_len(japplied);
            }
        }
        _ => {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Flushes dirty mirrors then journals the watermarks (in that order:
/// the journal asserts durability of what it points at).
fn sync_and_journal(shared: &FolShared, state: &mut ApplyState) {
    for s in state.sessions.values_mut() {
        if s.dirty {
            if let Some(f) = &s.file {
                let _ = f.sync_data();
            }
            s.dirty = false;
        }
    }
    let _ = write_journal(&shared.dir, state.epoch, &state.watermarks());
}

/// Deterministic jittered exponential backoff delay for reconnect
/// `attempt` (0-based).
fn backoff_delay(cfg: &FollowerConfig, attempt: u32, salt: u64) -> Duration {
    let exp = cfg
        .backoff_base
        .saturating_mul(1u32 << attempt.min(10))
        .min(cfg.backoff_cap);
    // splitmix64 over (salt, attempt): jitter in [50%, 150%).
    let mut z = salt
        .wrapping_add(u64::from(attempt))
        .wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    let jitter = (z % 1000) as f64 / 1000.0; // [0, 1)
    exp.mul_f64(0.5 + jitter)
}

fn follower_run(shared: &Arc<FolShared>) {
    let mut state = bootstrap(shared);
    shared
        .applied_total
        .store(state.applied_total, Ordering::Relaxed);
    let salt = std::process::id() as u64 ^ shared.primary.len() as u64;
    let mut attempt: u32 = 0;
    'reconnect: loop {
        if shared.stop.load(Ordering::Acquire) || shared.crash.load(Ordering::Acquire) {
            break;
        }
        shared
            .status
            .store(FollowerStatus::Connecting as u8, Ordering::Release);
        let mut sock = match TcpStream::connect(&shared.primary) {
            Ok(s) => s,
            Err(_) => {
                sleep_interruptible(shared, backoff_delay(&shared.cfg, attempt, salt));
                attempt = attempt.saturating_add(1);
                continue;
            }
        };
        let _ = sock.set_nodelay(true);
        let _ = sock.set_read_timeout(Some(Duration::from_millis(5)));
        let _ = sock.set_write_timeout(Some(Duration::from_millis(500)));
        // Handshake with our current watermarks.
        let marks = state.watermarks();
        let mut hs = Vec::with_capacity(20 + marks.len() * 24);
        hs.extend_from_slice(HANDSHAKE_MAGIC);
        hs.extend_from_slice(&REPL_VERSION.to_le_bytes());
        put_u64(&mut hs, state.epoch);
        hs.extend_from_slice(&(marks.len() as u32).to_le_bytes());
        for (session, seg, applied) in &marks {
            put_u64(&mut hs, *session);
            put_u64(&mut hs, *seg);
            put_u64(&mut hs, *applied);
        }
        if sock.write_all(&hs).is_err() {
            sleep_interruptible(shared, backoff_delay(&shared.cfg, attempt, salt));
            attempt = attempt.saturating_add(1);
            continue;
        }
        let mut reader = FrameReader::new();
        let mut last_rx = Instant::now();
        let mut last_ack = Instant::now();
        let mut last_journal = Instant::now();
        let mut greeted = false;
        loop {
            if shared.stop.load(Ordering::Acquire) || shared.crash.load(Ordering::Acquire) {
                break 'reconnect;
            }
            if shared.tear.swap(false, Ordering::AcqRel) {
                let _ = sock.shutdown(std::net::Shutdown::Both);
                sleep_interruptible(shared, backoff_delay(&shared.cfg, attempt, salt));
                attempt = attempt.saturating_add(1);
                continue 'reconnect;
            }
            let frame = match reader.poll(&mut sock) {
                Ok(f) => f,
                Err(_) => {
                    sleep_interruptible(shared, backoff_delay(&shared.cfg, attempt, salt));
                    attempt = attempt.saturating_add(1);
                    continue 'reconnect;
                }
            };
            match frame {
                Some((TAG_HELLO, body)) => {
                    let mut off = 0;
                    let Some(epoch) = get_u64(&body, &mut off) else {
                        continue 'reconnect;
                    };
                    state.epoch = epoch;
                    greeted = true;
                    attempt = 0;
                    shared
                        .status
                        .store(FollowerStatus::Streaming as u8, Ordering::Release);
                    last_rx = Instant::now();
                }
                Some((TAG_DATA, body)) if greeted => {
                    last_rx = Instant::now();
                    if !apply_data(shared, &mut state, &body) {
                        // Sequencing violation: drop the connection and
                        // re-handshake from the applied watermark.
                        let _ = sock.shutdown(std::net::Shutdown::Both);
                        continue 'reconnect;
                    }
                    shared
                        .applied_total
                        .store(state.applied_total, Ordering::Relaxed);
                    publish_follower_lag(shared, &state);
                }
                Some((TAG_HEARTBEAT, body)) if greeted => {
                    last_rx = Instant::now();
                    let mut off = 0;
                    if let (Some(ts), Some(total)) =
                        (get_u64(&body, &mut off), get_u64(&body, &mut off))
                    {
                        state.horizon = (ts, total);
                        publish_follower_lag(shared, &state);
                    }
                }
                Some((TAG_GONE, _)) => {
                    // Epoch change (or the primary cannot serve our
                    // watermark): async-replication rollback. Discard
                    // everything and resync from scratch.
                    wipe_mirrors(&shared.dir);
                    shared.store.reset_replica();
                    state = ApplyState::new();
                    shared.applied_total.store(0, Ordering::Relaxed);
                    let _ = sock.shutdown(std::net::Shutdown::Both);
                    sleep_interruptible(shared, backoff_delay(&shared.cfg, attempt, salt));
                    attempt = attempt.saturating_add(1);
                    continue 'reconnect;
                }
                Some(_) => {}
                None => {
                    if last_rx.elapsed() > shared.cfg.quiet_timeout {
                        let _ = sock.shutdown(std::net::Shutdown::Both);
                        attempt = attempt.saturating_add(1);
                        continue 'reconnect;
                    }
                }
            }
            if greeted && last_ack.elapsed() >= shared.cfg.ack_interval {
                let mut body = Vec::with_capacity(16);
                put_u64(&mut body, state.applied_total);
                put_u64(&mut body, state.horizon.0);
                let deadline = Instant::now() + Duration::from_secs(2);
                let abort =
                    || shared.stop.load(Ordering::Acquire) || shared.crash.load(Ordering::Acquire);
                if send_frame(&mut sock, TAG_ACK, &body, deadline, &abort).is_err() {
                    attempt = attempt.saturating_add(1);
                    continue 'reconnect;
                }
                last_ack = Instant::now();
            }
            if greeted && last_journal.elapsed() >= shared.cfg.journal_interval {
                sync_and_journal(shared, &mut state);
                last_journal = Instant::now();
            }
        }
    }
    if !shared.crash.load(Ordering::Acquire) {
        sync_and_journal(shared, &mut state);
    }
    shared
        .status
        .store(FollowerStatus::Stopped as u8, Ordering::Release);
}

/// Handles one `Data` frame: mirrors the bytes at their segment offset,
/// buffers them, and applies every complete record. Returns `false` on
/// a sequencing violation (the caller reconnects).
fn apply_data(shared: &FolShared, state: &mut ApplyState, body: &[u8]) -> bool {
    let mut off = 0;
    let (Some(session), Some(seg), Some(offset)) = (
        get_u64(body, &mut off),
        get_u64(body, &mut off),
        get_u64(body, &mut off),
    ) else {
        return false;
    };
    let bytes = &body[off..];
    if bytes.is_empty() {
        return true;
    }
    let s = state
        .sessions
        .entry(session)
        .or_insert_with(|| SessState::at(seg, 0));
    // Value-segment bytes are mirrored verbatim, never decoded. Their
    // segment ids can jump forward (GC deletions on the primary); the
    // integrity of the bytes is re-checked per read (length + CRC in
    // every pointer), so a mirror is never trusted, only stored. A WAL
    // session moves to the next segment once the primary rotated and the
    // previous one was fully applied.
    let vseg = session == VSEG_SESSION;
    let next = if vseg {
        seg > s.seg
    } else {
        seg == s.seg + 1 && s.buf.is_empty()
    };
    if next && offset == 0 {
        s.seg = seg;
        s.applied = 0;
        s.file = None;
    }
    if seg != s.seg || offset != s.applied + s.buf.len() as u64 {
        return false;
    }
    // Mirror first, at the true offset: the file keeps its contents, so
    // a re-sent tail of a resumed stream overwrites identical bytes.
    if s.file.is_none() {
        s.file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .read(true)
            .open(mirror_path(&shared.dir, session, seg))
            .ok();
    }
    if let Some(f) = &s.file {
        if f.write_all_at(bytes, offset).is_ok() {
            s.dirty = true;
        }
    }
    if vseg {
        s.applied += bytes.len() as u64;
        state.applied_total += bytes.len() as u64;
        return true;
    }
    s.buf.extend_from_slice(bytes);
    let replay_t0 = Instant::now();
    state.drain_session(&shared.store, session);
    // Replay latency per shipped WAL chunk: decode + apply into the
    // replica store (mirroring I/O above is deliberately excluded — it
    // overlaps the primary's view of ship time).
    shared.store.obs().global().record(
        mtkv::mtobs::Kind::ReplReplay,
        replay_t0.elapsed().as_nanos() as u64,
    );
    true
}

/// Publishes the follower's bounded-staleness view: bytes behind the
/// primary's durable horizon, and primary-clock microseconds between
/// the horizon heartbeat and the newest applied record.
fn publish_follower_lag(shared: &FolShared, state: &ApplyState) {
    let (hb_ts, total_durable) = state.horizon;
    let lag_bytes = total_durable.saturating_sub(state.applied_total);
    shared.stats.lag_bytes.store(lag_bytes, Ordering::Relaxed);
    let lag_ts = if lag_bytes == 0 {
        0
    } else {
        hb_ts.saturating_sub(state.last_applied_ts)
    };
    shared.stats.lag_ts_us.store(lag_ts, Ordering::Relaxed);
}

fn sleep_interruptible(shared: &FolShared, d: Duration) {
    let deadline = Instant::now() + d;
    while Instant::now() < deadline {
        if shared.stop.load(Ordering::Acquire) || shared.crash.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(Duration::from_millis(2).min(deadline - Instant::now()));
    }
}
