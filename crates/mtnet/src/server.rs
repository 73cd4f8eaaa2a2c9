//! The Masstree network server (§5 of the paper).
//!
//! A shard-per-core event-loop server. A small fixed pool of worker
//! threads (default `available_parallelism`) each runs a readiness loop
//! (see [`crate::poll`]) over nonblocking sockets it exclusively
//! **owns**: connections are assigned to a worker at accept time and
//! never migrate, so each worker privately holds its store [`Session`]
//! (and therefore its own log — the paper's per-core logs), its
//! scan-cursor map, and its reusable input/output scratch. No
//! per-request cross-core synchronization exists outside the tree
//! itself.
//!
//! On each readiness wakeup a worker decodes every complete frame from
//! every ready connection — **in place**: requests borrow their keys
//! and column data from the connections' read buffers
//! ([`RequestRef`]), which are compacted only after the wakeup has
//! executed — and then executes the lot as one batch, **aggregating
//! across connections**: point gets (and puts) from different
//! connections are merged into one run through the interleaved batch
//! traversal engine (`multi_get_with` / `multi_put_with` on the worker
//! session), and the responses are demultiplexed back into each
//! connection's output buffer, gets and scans serialized zero-copy from
//! the live values. The paper's §7 observation — "batched query support
//! is vital" — then holds even when each client sends one-op frames:
//! the server constructs the batches itself. A served put allocates its
//! value and nothing else: decode, planning, the session's bookkeeping
//! and the log record (encoded from the new value's own column slices,
//! a whole run appended under one log-buffer lock) all work in reused
//! buffers.
//!
//! # Ordering contract
//!
//! **Per connection, operations on the same key take effect in the
//! order sent; operations on different keys that arrive in the same
//! wakeup take effect in an unspecified order.** Responses always come
//! back in request order, frame by frame. Nothing orders one connection
//! against another — concurrent clients already race.
//!
//! The executor turns that contract into few, large runs. Each
//! connection's pending requests (all its complete frames, concatenated)
//! form one stream, and [`mtkv::PhasePlanner`] gives every request the
//! earliest **phase** that keeps the stream's per-key order: a get goes
//! after the last earlier put of its key, a put after the last earlier
//! get *or* put of its key, and everything else — scan, remove, stats,
//! flush, sync — is a **barrier**, after everything before it and
//! before everything after it. Phases run in order; within a phase all
//! connections' puts execute as one merged `multi_put_with` and all
//! their gets as one merged `multi_get_with`. Concretely, for one
//! connection's stream:
//!
//! * `[put a, get a]` — two phases; the get sees the put.
//! * `[get a, put a]` — two phases; the get sees the value before the
//!   put.
//! * `[put a, put a]` — two phases; the later put wins and returns the
//!   larger version.
//! * `[put a, get b, put c, get d]` — one phase: one put run, one get
//!   run.
//! * `[get a, scan, get b]`, `[put a, remove a, get a]` — three phases
//!   each: a barrier is ordered against everything, so the remove sees
//!   the put and the get sees the remove.
//! * `[put a | put a]` across a frame boundary within one wakeup — the
//!   same two phases; frames delimit replies, not ordering.
//!
//! What the contract gives up is cross-key order inside one wakeup:
//! after `[put a, put b]` from one connection, another client may
//! briefly observe `b` without `a` — as it already could inside a put
//! run, whose interleaved engine applies its keys in no particular
//! order. A client that needs `a` before `b` waits for `a`'s reply (or
//! puts a `Sync` between them). A stream with no put plans without
//! looking at keys at all; `phases` and `conflict_splits` in the wire
//! stats say how much merging the traffic allowed.
//!
//! Because phases complete a stream's requests out of order while its
//! replies must stay in order, each stream tracks the next reply its
//! output is owed: a request that completes at that position writes
//! straight into the connection's output buffer, one that completes
//! early is parked in a reused side arena and copied over when its turn
//! comes. Puts run first within a phase, so in a mixed stream it is the
//! 9-byte `PutOk`s that park while get replies stream directly; a
//! barrier's reply (a scan's rows) is never parked, and a single-kind
//! stream parks nothing. The same executor serves
//! [`execute_batch_into`] (one unframed stream). Per-session logs make
//! the merged put run safe: every write is logged by the one worker
//! session that owns the connection.
//!
//! Connections are assigned at accept time to the **lightest** worker
//! (fewest pending output bytes, then fewest connections) rather than
//! round-robin, so a worker stuck behind slow clients does not keep
//! collecting new ones; per-worker connection counts are surfaced in
//! the wire stats.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mtkv::{OpClass, PhasePlanner, PutOp, ScanCursor, Session, Store};

use crate::poll::{Event, Interest, Poller};
use crate::proto::{
    begin_batch, finish_batch, parse_batch_frame, write_value_borrowed, write_value_none, ColIds,
    Request, RequestRef, Response, RowsWriter, ScanResume, StatsExReply, StatsReply,
};

/// A request executor other than the Masstree store: the benchmark
/// harness plugs stand-in systems (hash stores, partitioned stores)
/// behind the same network stack so §7's system comparison exercises
/// identical I/O paths. (The store itself is served by the event loop's
/// own batch executor, not through this trait.)
pub trait Backend: Send + Sync + 'static {
    /// Per-connection state (e.g. a store session owning a log).
    fn connect(&self) -> Box<dyn ConnState>;
}

/// Connection-scoped executor produced by a [`Backend`].
pub trait ConnState: Send {
    fn execute(&mut self, req: Request) -> Response;

    /// Executes one wire batch. The default runs each request in turn.
    fn execute_batch(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        reqs.into_iter().map(|r| self.execute(r)).collect()
    }

    /// Executes one wire batch, encoding the responses directly into the
    /// connection's (reusable) output buffer, and returns the number of
    /// responses written. The default materializes [`Response`]s and
    /// encodes them.
    fn execute_batch_into(&mut self, reqs: Vec<Request>, out: &mut Vec<u8>) -> usize {
        let resps = self.execute_batch(reqs);
        for resp in &resps {
            resp.encode(out);
        }
        resps.len()
    }
}

/// The most token cursors one connection may pin; beyond it the
/// least-recently-used cursor is evicted (an eviction costs its stream
/// one descent — clients pass their continuation key on follow-ups —
/// and is surfaced as `cache_scan_evictions` in [`StatsReply`]).
const MAX_SCAN_TOKENS: usize = 64;

/// Resumable-scan cursors for one connection, addressed by the wire
/// `Scan` resume token, with LRU eviction at [`MAX_SCAN_TOKENS`].
#[derive(Default)]
struct ScanTokens {
    /// token → (last-use tick, cursor).
    entries: HashMap<u64, (u64, ScanCursor)>,
    tick: u64,
}

impl ScanTokens {
    fn new() -> ScanTokens {
        ScanTokens::default()
    }

    fn take(&mut self, token: u64) -> Option<ScanCursor> {
        self.entries.remove(&token).map(|(_, c)| c)
    }

    /// Inserts (refreshing recency); returns `true` when an LRU victim
    /// was evicted to make room.
    fn insert(&mut self, token: u64, cursor: ScanCursor) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if self.entries.len() >= MAX_SCAN_TOKENS && !self.entries.contains_key(&token) {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(&t, _)| t)
            {
                self.entries.remove(&victim);
                evicted = true;
            }
        }
        self.entries.insert(token, (self.tick, cursor));
        evicted
    }
}

/// Accept-time rebalancing state, one per worker: live connections and
/// the worker's pending (unsent) output bytes as of its last sweep. The
/// accept thread assigns each new connection to the worker with the
/// smallest `(pending, conns)` — a worker wedged behind slow clients
/// stops collecting new ones.
#[derive(Default)]
struct WorkerLoad {
    conns: AtomicU64,
    pending: AtomicU64,
}

/// Execution context of one request: its connection's scan-token
/// cursors plus the per-worker load counters `Stats` reports.
struct ExecCtx<'a> {
    tokens: &'a mut ScanTokens,
    /// Per-worker live-connection counters (empty outside the
    /// event-loop server).
    loads: &'a [WorkerLoad],
}

impl<'a> ExecCtx<'a> {
    fn standalone(tokens: &'a mut ScanTokens) -> ExecCtx<'a> {
        ExecCtx { tokens, loads: &[] }
    }
}

/// Event-loop server tunables.
#[derive(Clone, Debug, Default)]
pub struct ServerConfig {
    /// Worker (event-loop) threads; `0` means `available_parallelism`.
    pub workers: usize,
}

impl ServerConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// A running server; dropping it (or calling [`Server::stop`]) shuts the
/// listener and every worker down, closing all worker sessions (their
/// logs flush cleanly on drop).
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<WorkerHandle>,
    ops: Arc<AtomicU64>,
}

struct WorkerHandle {
    thread: Option<std::thread::JoinHandle<()>>,
    wake_tx: UnixStream,
}

impl Server {
    /// Starts serving `store` on `addr` (use port 0 for an ephemeral
    /// port; the bound address is available via [`Server::addr`]).
    pub fn start(store: Arc<Store>, addr: &str) -> std::io::Result<Server> {
        Self::start_with(store, addr, ServerConfig::default())
    }

    /// [`Server::start`] with explicit worker-pool tunables.
    pub fn start_with(
        store: Arc<Store>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let n = config.resolved_workers();
        let mut kinds = Vec::with_capacity(n);
        for _ in 0..n {
            // One session — one log — per worker, opened before serving
            // so a failure surfaces here, not on some later connection.
            let session = Box::new(store.session()?);
            kinds.push(WorkerKind::Store {
                session,
                cursors: HashMap::new(),
            });
        }
        Self::launch(kinds, addr)
    }

    /// Starts serving an arbitrary [`Backend`].
    pub fn start_backend(backend: Arc<dyn Backend>, addr: &str) -> std::io::Result<Server> {
        Self::start_backend_with(backend, addr, ServerConfig::default())
    }

    /// [`Server::start_backend`] with explicit worker-pool tunables.
    /// Generic backends keep per-connection state ([`Backend::connect`]
    /// at adoption time) and execute per-frame — aggregation is a store
    /// capability.
    pub fn start_backend_with(
        backend: Arc<dyn Backend>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let n = config.resolved_workers();
        let kinds = (0..n)
            .map(|_| WorkerKind::Backend(Arc::clone(&backend)))
            .collect();
        Self::launch(kinds, addr)
    }

    fn launch(kinds: Vec<WorkerKind>, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let ops = Arc::new(AtomicU64::new(0));
        let loads: Arc<Vec<WorkerLoad>> =
            Arc::new((0..kinds.len()).map(|_| WorkerLoad::default()).collect());
        let mut handles: Vec<WorkerHandle> = Vec::new();
        let mut mailboxes: Vec<(Arc<Mutex<Vec<TcpStream>>>, UnixStream)> = Vec::new();
        // Stops and joins the workers launched so far (partial-launch
        // failure cleanup).
        let abort = |handles: &mut Vec<WorkerHandle>, e: std::io::Error| -> std::io::Error {
            stop.store(true, Ordering::Release);
            for h in handles.iter_mut() {
                wake(&h.wake_tx);
                if let Some(t) = h.thread.take() {
                    let _ = t.join();
                }
            }
            e
        };
        for (id, kind) in kinds.into_iter().enumerate() {
            let launched = (|| -> std::io::Result<(WorkerHandle, _)> {
                let (wake_tx, wake_rx) = UnixStream::pair()?;
                wake_tx.set_nonblocking(true)?;
                wake_rx.set_nonblocking(true)?;
                let inbox = Arc::new(Mutex::new(Vec::new()));
                let worker = Worker {
                    id,
                    poller: Poller::new()?,
                    wake_rx,
                    inbox: Arc::clone(&inbox),
                    stop: Arc::clone(&stop),
                    ops: Arc::clone(&ops),
                    loads: Arc::clone(&loads),
                    kind,
                    conns: Vec::new(),
                    rd_bufs: Vec::new(),
                    free: Vec::new(),
                    next_conn_seq: 0,
                    linger_until: None,
                };
                let thread = std::thread::Builder::new()
                    .name(format!("mtnet-worker-{id}"))
                    .spawn(move || worker.run())?;
                let mailbox = (inbox, wake_tx.try_clone()?);
                Ok((
                    WorkerHandle {
                        thread: Some(thread),
                        wake_tx,
                    },
                    mailbox,
                ))
            })();
            match launched {
                Ok((handle, mailbox)) => {
                    handles.push(handle);
                    mailboxes.push(mailbox);
                }
                Err(e) => return Err(abort(&mut handles, e)),
            }
        }
        let stop2 = Arc::clone(&stop);
        let loads2 = Arc::clone(&loads);
        let accept_thread = std::thread::Builder::new()
            .name("mtnet-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    // Assign to the lightest worker — fewest pending
                    // output bytes, connection count as the tiebreak —
                    // then the connection belongs to that worker for its
                    // whole life (session affinity). The count is bumped
                    // here, before adoption, so a burst of accepts
                    // spreads instead of piling onto one worker.
                    let mut best = 0usize;
                    let mut best_key = (u64::MAX, u64::MAX);
                    for (i, l) in loads2.iter().enumerate() {
                        let key = (
                            l.pending.load(Ordering::Relaxed),
                            l.conns.load(Ordering::Relaxed),
                        );
                        if key < best_key {
                            best_key = key;
                            best = i;
                        }
                    }
                    loads2[best].conns.fetch_add(1, Ordering::Relaxed);
                    let (inbox, wake_tx) = &mailboxes[best];
                    inbox.lock().unwrap().push(conn);
                    wake(wake_tx);
                }
            })?;
        Ok(Server {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
            workers: handles,
            ops,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total operations served (for benchmark harnesses).
    pub fn ops_served(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Stops accepting, shuts every worker down (closing its
    /// connections), and joins them — worker sessions are dropped (and
    /// their logs flushed) before this returns.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in &mut self.workers {
            wake(&w.wake_tx);
            if let Some(t) = w.thread.take() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Nudges a worker out of its poll wait. A full pipe means a wake is
/// already pending, which is all the byte signals anyway.
fn wake(tx: &UnixStream) {
    let _ = (&*tx).write(&[1u8]);
}

/// Poll token of the worker's wake pipe (connection slots count up from
/// zero and can never reach it).
const WAKE_TOKEN: u64 = u64::MAX;

/// Pending-output high-water mark: above this a connection stops being
/// read (its readable interest is dropped, so the level-triggered poller
/// stays quiet) until the client drains responses — the event-loop
/// equivalent of the old blocking-write backpressure.
const HIGH_WATER: usize = 1 << 20;

/// Per-connection read budget per wakeup, so one firehose connection
/// cannot starve its worker's other connections.
const READ_BUDGET: usize = 1 << 20;

/// A worker that has just served requests polls this long for more
/// before it parks in the poller: parking costs the next request a
/// thread wake-up, tens of µs on a virtual core and only as steady as
/// the host. A wakeup that executed nothing parks at once (idle = 0 CPU).
const POLL_BEFORE_PARK: Duration = Duration::from_micros(50);

/// How long a [`Linger`]ing connection keeps discarding input.
const LINGER_CLOSE: Duration = Duration::from_secs(2);

/// A lingering close, after a protocol error. Closing a socket with
/// client bytes unread, or with more still arriving, makes the kernel
/// answer with RST — which can reach the client before it has read the
/// typed error. So the error is flushed first, then only the write side
/// is shut (the client reads the error, then EOF), and input is read and
/// thrown away until the client closes its side or [`LINGER_CLOSE`]
/// passes.
#[derive(Clone, Copy)]
enum Linger {
    /// The typed error is queued: write it out, then shut the write side.
    Flushing,
    /// Write side shut: discard input until EOF or this deadline.
    Draining(Instant),
}

struct Conn {
    stream: TcpStream,
    /// Globally unique, shard-routable id: `worker << 32 | seq`. Scan
    /// cursors live in the **worker's** cursor map keyed by this id, so
    /// the worker that owns a resume token is recoverable from the id
    /// alone (`id >> 32`) — the routing invariant the torture test
    /// checks across workers.
    id: u64,
    /// Parse position in this connection's read buffer (the worker's
    /// `rd_bufs[slot]`): bytes `[rd_pos..]` are not yet parsed.
    rd_pos: usize,
    /// Output accumulation: bytes `[wr_pos..]` are not yet written.
    wr: Vec<u8>,
    wr_pos: usize,
    interest: Interest,
    /// Clean end-of-stream seen; drain what's left, then close.
    eof: bool,
    /// I/O failure; close without draining.
    dead: bool,
    /// Protocol failure (oversized or undecodable frame): responses for
    /// frames parsed before the poison are still delivered, then one
    /// typed [`Response::Err`] naming the failure, then a lingering
    /// close — never a silent drop that leaves the client hung.
    poisoned: Option<String>,
    /// Set with the poison: input is no longer parsed, only discarded.
    linger: Option<Linger>,
    /// Generic-backend path only: the per-connection executor.
    state: Option<Box<dyn ConnState>>,
}

impl Conn {
    fn pending_wr(&self) -> usize {
        self.wr.len() - self.wr_pos
    }

    /// Marks a protocol failure: further input is never parsed (and is
    /// discarded by the next read-buffer compaction); the sweep appends
    /// the typed error reply, and the close lingers.
    fn poison(&mut self, msg: &str) {
        self.poisoned = Some(msg.to_string());
        self.linger = Some(Linger::Flushing);
    }
}

enum WorkerKind {
    Store {
        /// Boxed: a session is ~600 bytes, the other variant one `Arc`.
        session: Box<Session>,
        /// The per-worker cursor map (replacing the per-connection one):
        /// connection id → that connection's resume-token cursors.
        cursors: HashMap<u64, ScanTokens>,
    },
    Backend(Arc<dyn Backend>),
}

/// One decoded frame: `len` requests at `start` in the wakeup's request
/// arena, owed to connection slot `slot`. Frames stay grouped per
/// connection, in arrival order.
struct Frame {
    slot: usize,
    start: usize,
    len: usize,
}

struct Worker {
    id: usize,
    poller: Poller,
    wake_rx: UnixStream,
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
    ops: Arc<AtomicU64>,
    loads: Arc<Vec<WorkerLoad>>,
    kind: WorkerKind,
    conns: Vec<Option<Conn>>,
    /// Read buffers, one per connection slot (`rd_bufs.len() ==
    /// conns.len()`). Kept beside the connections rather than inside
    /// them so a wakeup's decoded requests can borrow the input bytes
    /// while their responses are written into the connections.
    rd_bufs: Vec<Vec<u8>>,
    free: Vec<usize>,
    next_conn_seq: u64,
    /// The earliest lingering-close deadline (see [`Linger`]): a parked
    /// worker wakes for it even when no socket is ready.
    linger_until: Option<Instant>,
}

impl Worker {
    fn run(mut self) {
        if self
            .poller
            .register(self.wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)
            .is_err()
        {
            return;
        }
        let mut events: Vec<Event> = Vec::with_capacity(256);
        let mut scratch = vec![0u8; 64 * 1024];
        // The wakeup's decoded input, flat so capacity is reused across
        // wakeups: every frame's requests in one arena (borrowing the
        // read buffers, hence re-lent per round), plus the frame list.
        let mut spare_reqs: Vec<RequestRef<'static>> = Vec::new();
        let mut frames: Vec<Frame> = Vec::new();
        let mut exec = BatchExec::default();
        let mut served = false;
        loop {
            let poll_until = served.then(|| Instant::now() + POLL_BEFORE_PARK);
            loop {
                let park = poll_until.is_none_or(|t| Instant::now() >= t);
                let timeout = match self.linger_until {
                    _ if !park => 0,
                    None => -1,
                    Some(t) => {
                        let ms = t.saturating_duration_since(Instant::now()).as_millis() + 1;
                        i32::try_from(ms).unwrap_or(i32::MAX)
                    }
                };
                match self.poller.wait(&mut events, timeout) {
                    Ok(()) if events.is_empty() && !park => std::hint::spin_loop(),
                    Ok(()) => break,
                    Err(_) => return,
                }
            }
            served = false;
            let mut woke = false;
            for ev in &events {
                if ev.token == WAKE_TOKEN {
                    woke = true;
                    continue;
                }
                let slot = ev.token as usize;
                let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                    continue;
                };
                if ev.writable {
                    flush_conn(conn);
                }
                if ev.readable || ev.hangup {
                    read_conn(conn, &mut self.rd_bufs[slot], &mut scratch);
                }
            }
            if woke {
                self.drain_wake();
                self.adopt_new_conns();
            }
            if self.stop.load(Ordering::Acquire) {
                // Dropping `self` closes every connection and the worker
                // session (flushing its log).
                return;
            }
            // Parse → execute → flush until quiescent. Backpressured
            // connections stop parsing at the high-water mark; the
            // writable readiness that drains them re-enters this loop.
            loop {
                // The decoded requests borrow the read buffers while
                // `self` executes them: lend the buffers out for the
                // round.
                let mut rd_bufs = std::mem::take(&mut self.rd_bufs);
                let mut reqs: Vec<RequestRef<'_>> = mtkv::recycle(std::mem::take(&mut spare_reqs));
                frames.clear();
                collect_frames(&rd_bufs, &mut self.conns, &mut reqs, &mut frames);
                if !frames.is_empty() {
                    served = true;
                    self.execute_frames(&reqs, &frames, &mut exec);
                    for f in &frames {
                        if let Some(conn) = self.conns[f.slot].as_mut() {
                            flush_conn(conn);
                        }
                    }
                }
                // Only now — nothing borrows the input any more — may
                // the read buffers drop their consumed bytes.
                spare_reqs = mtkv::recycle(reqs);
                for (conn, rd) in self.conns.iter_mut().zip(&mut rd_bufs) {
                    if let Some(conn) = conn {
                        compact_read_buffer(conn, rd);
                    }
                }
                self.rd_bufs = rd_bufs;
                if frames.is_empty() {
                    break;
                }
            }
            self.sweep();
        }
    }

    fn drain_wake(&mut self) {
        let mut b = [0u8; 64];
        loop {
            match self.wake_rx.read(&mut b) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn adopt_new_conns(&mut self) {
        let incoming = std::mem::take(&mut *self.inbox.lock().unwrap());
        for stream in incoming {
            // The accept thread counted this connection when it picked
            // us; un-count it on any adoption failure.
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                self.loads[self.id].conns.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let state = match &self.kind {
                WorkerKind::Backend(b) => Some(b.connect()),
                WorkerKind::Store { .. } => None,
            };
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.rd_bufs.push(Vec::new());
                self.conns.len() - 1
            });
            if self
                .poller
                .register(stream.as_raw_fd(), slot as u64, Interest::READ)
                .is_err()
            {
                self.free.push(slot);
                self.loads[self.id].conns.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let id = ((self.id as u64) << 32) | self.next_conn_seq;
            self.next_conn_seq += 1;
            self.conns[slot] = Some(Conn {
                stream,
                id,
                rd_pos: 0,
                wr: Vec::new(),
                wr_pos: 0,
                interest: Interest::READ,
                eof: false,
                dead: false,
                poisoned: None,
                linger: None,
                state,
            });
        }
    }

    fn execute_frames(&mut self, reqs: &[RequestRef<'_>], frames: &[Frame], exec: &mut BatchExec) {
        match &mut self.kind {
            WorkerKind::Store { session, cursors } => {
                let conns = &mut self.conns[..];
                // One stream per connection: its frames (contiguous by
                // construction) and their requests, concatenated.
                exec.streams.clear();
                let mut i = 0;
                while i < frames.len() {
                    let slot = frames[i].slot;
                    let j = i + frames[i..].iter().take_while(|f| f.slot == slot).count();
                    let conn = conns[slot].as_ref().expect("frames name live slots");
                    debug_assert_eq!(
                        (conn.id >> 32) as usize,
                        self.id,
                        "session affinity: a connection's frames execute on its owning worker"
                    );
                    let last = &frames[j - 1];
                    exec.streams.push(StreamPlan::new(
                        slot,
                        conn.id,
                        frames[i].start..last.start + last.len,
                        i..j,
                    ));
                    i = j;
                }
                exec.run(session, &self.loads, cursors, reqs, frames, conns);
                self.ops.fetch_add(reqs.len() as u64, Ordering::Relaxed);
            }
            WorkerKind::Backend(_) => {
                for f in frames {
                    let Some(conn) = self.conns[f.slot].as_mut() else {
                        continue;
                    };
                    if conn.dead {
                        continue;
                    }
                    let owned = reqs[f.start..f.start + f.len]
                        .iter()
                        .map(RequestRef::to_owned)
                        .collect();
                    let Conn { state, wr, .. } = conn;
                    let mark = begin_batch(wr);
                    let written = state
                        .as_mut()
                        .expect("backend connections carry state")
                        .execute_batch_into(owned, wr);
                    if written != f.len {
                        // A misbehaving backend must not desync the framed
                        // protocol: fail the connection, not the count.
                        conn.wr.truncate(mark);
                        conn.dead = true;
                        continue;
                    }
                    finish_batch(wr, mark, written);
                    self.ops.fetch_add(f.len as u64, Ordering::Relaxed);
                }
            }
        }
    }

    /// Post-wakeup housekeeping: opportunistic write flush, lingering
    /// closes, interest reconciliation (read gated by backpressure,
    /// write by pending output), and closing finished connections.
    fn sweep(&mut self) {
        let now = Instant::now();
        self.linger_until = None;
        for slot in 0..self.conns.len() {
            let close = {
                let Some(conn) = self.conns[slot].as_mut() else {
                    continue;
                };
                if !conn.dead {
                    if let Some(msg) = conn.poisoned.take() {
                        // Protocol failure: responses for the frames
                        // parsed before the poison are already encoded;
                        // append the typed error as its own one-response
                        // batch, then close lingering.
                        let mark = begin_batch(&mut conn.wr);
                        Response::Err(msg).encode(&mut conn.wr);
                        finish_batch(&mut conn.wr, mark, 1);
                    }
                }
                if !conn.dead && conn.pending_wr() > 0 {
                    flush_conn(conn);
                }
                if matches!(conn.linger, Some(Linger::Flushing)) && conn.pending_wr() == 0 {
                    // The error is out: FIN after it, but keep reading.
                    let _ = conn.stream.shutdown(Shutdown::Write);
                    conn.linger = Some(Linger::Draining(now + LINGER_CLOSE));
                }
                let expired = match conn.linger {
                    Some(Linger::Draining(deadline)) if now < deadline => {
                        let next = self.linger_until.map_or(deadline, |t| t.min(deadline));
                        self.linger_until = Some(next);
                        false
                    }
                    Some(Linger::Draining(_)) => true,
                    _ => false,
                };
                conn.dead || expired || (conn.eof && conn.pending_wr() == 0)
            };
            if close {
                self.close_conn(slot);
                continue;
            }
            let conn = self.conns[slot].as_mut().expect("checked above");
            let desired = Interest {
                // Input waits while a protocol error is still going out
                // (the client may be flooding); it drains once it is out.
                readable: !conn.eof
                    && conn.pending_wr() < HIGH_WATER
                    && !matches!(conn.linger, Some(Linger::Flushing)),
                writable: conn.pending_wr() > 0,
            };
            if desired != conn.interest {
                if self
                    .poller
                    .reregister(conn.stream.as_raw_fd(), slot as u64, desired)
                    .is_ok()
                {
                    conn.interest = desired;
                } else {
                    self.close_conn(slot);
                }
            }
        }
        // Publish this worker's backlog for the accept-time rebalancer.
        let pending: u64 = self
            .conns
            .iter()
            .flatten()
            .map(|c| c.pending_wr() as u64)
            .sum();
        self.loads[self.id]
            .pending
            .store(pending, Ordering::Relaxed);
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            self.rd_bufs[slot] = Vec::new();
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            if let WorkerKind::Store { cursors, .. } = &mut self.kind {
                // The connection's scan cursors die with it.
                cursors.remove(&conn.id);
            }
            self.free.push(slot);
            self.loads[self.id].conns.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Decodes every complete frame buffered on every connection: requests
/// (borrowing the read buffers) into `reqs`, one [`Frame`] each into
/// `frames` — grouped per connection, in arrival order. An undecodable
/// frame — including one whose body its `count` requests do not fully
/// consume — poisons its connection.
fn collect_frames<'a>(
    rd_bufs: &'a [Vec<u8>],
    conns: &mut [Option<Conn>],
    reqs: &mut Vec<RequestRef<'a>>,
    frames: &mut Vec<Frame>,
) {
    for (slot, (conn, rd)) in conns.iter_mut().zip(rd_bufs).enumerate() {
        let Some(conn) = conn else { continue };
        if conn.dead || conn.linger.is_some() {
            continue;
        }
        while conn.pending_wr() < HIGH_WATER {
            match parse_batch_frame(&rd[conn.rd_pos..]) {
                Ok(Some((consumed, count))) => {
                    let start = reqs.len();
                    let mut p = &rd[conn.rd_pos + 8..conn.rd_pos + consumed];
                    let decoded = (0..count)
                        .try_for_each(|_| RequestRef::decode(&mut p).map(|req| reqs.push(req)));
                    let failure = match decoded {
                        None => Some("bad batch frame: undecodable request"),
                        Some(()) if !p.is_empty() => {
                            Some("bad batch frame: trailing bytes after the last request")
                        }
                        Some(()) => None,
                    };
                    if let Some(msg) = failure {
                        reqs.truncate(start);
                        conn.poison(msg);
                        break;
                    }
                    conn.rd_pos += consumed;
                    frames.push(Frame {
                        slot,
                        start,
                        len: count as usize,
                    });
                }
                Ok(None) => break,
                Err(e) => {
                    conn.poison(&format!("bad batch frame: {e}"));
                    break;
                }
            }
        }
    }
}

/// Drops a read buffer's parsed prefix — or all of it, once the
/// connection no longer parses input.
fn compact_read_buffer(conn: &mut Conn, rd: &mut Vec<u8>) {
    if conn.rd_pos == rd.len() || conn.dead || conn.linger.is_some() {
        rd.clear();
        conn.rd_pos = 0;
    } else if conn.rd_pos > 64 * 1024 {
        rd.drain(..conn.rd_pos);
        conn.rd_pos = 0;
    }
}

fn read_conn(conn: &mut Conn, rd: &mut Vec<u8>, scratch: &mut [u8]) {
    if conn.eof || conn.dead {
        return;
    }
    let mut budget = READ_BUDGET;
    while budget > 0 {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                rd.extend_from_slice(&scratch[..n]);
                budget = budget.saturating_sub(n);
                if n < scratch.len() {
                    // Socket buffer drained (level-triggered readiness
                    // covers the rare refill race).
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

fn flush_conn(conn: &mut Conn) {
    if conn.dead {
        return;
    }
    while conn.wr_pos < conn.wr.len() {
        match conn.stream.write(&conn.wr[conn.wr_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => conn.wr_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.wr_pos == conn.wr.len() {
        // Fully drained: reset in place, keeping the connection's
        // high-water capacity for the next batch.
        conn.wr.clear();
        conn.wr_pos = 0;
    } else if conn.wr_pos > HIGH_WATER {
        conn.wr.drain(..conn.wr_pos);
        conn.wr_pos = 0;
    }
}

/// One stream of a batch: one connection's share of a wakeup — its
/// requests (contiguous in the arena) and its frames — or, for the
/// embeddable executors, one whole unframed batch. Carries the emitter
/// state that puts responses back in request order.
///
/// Phases complete a stream's requests out of order, but its output
/// must answer them **in** order, frame by frame. The emitter keeps the
/// index of the next response the output is owed: the request that
/// completes *at* that index writes straight into the output buffer
/// (gets and scans serialize zero-copy from the live value, exactly as
/// if nothing were reordered), one that completes early is parked in
/// the executor's side arena and copied over when its turn comes. A
/// stream whose requests all land in one kind's run — every
/// single-kind or barrier-separated stream — never parks anything.
struct StreamPlan {
    /// Where the output lives ([`Outputs::out`]): the connection slot.
    slot: usize,
    /// Owner of the stream's resumable-scan cursors.
    conn_id: u64,
    /// This stream's requests in the arena.
    ops: std::ops::Range<usize>,
    /// This stream's frames (indices into the frame list); empty for an
    /// unframed stream, whose responses are written back to back.
    frames: std::ops::Range<usize>,
    /// Emitter: the next request owed to the output, the current frame,
    /// responses emitted into it, its `begin_batch` mark, and whether
    /// its header is open.
    next: usize,
    fidx: usize,
    emitted: usize,
    mark: usize,
    open: bool,
}

impl StreamPlan {
    fn new(
        slot: usize,
        conn_id: u64,
        ops: std::ops::Range<usize>,
        frames: std::ops::Range<usize>,
    ) -> StreamPlan {
        StreamPlan {
            slot,
            conn_id,
            next: ops.start,
            ops,
            fidx: frames.start,
            frames,
            emitted: 0,
            mark: 0,
            open: false,
        }
    }

    /// Answers zero-request frames at the cursor with empty batches.
    fn skip_empty_frames(&mut self, wr: &mut Vec<u8>, frames: &[Frame]) {
        while self.fidx < self.frames.end && frames[self.fidx].len == 0 {
            let mark = begin_batch(wr);
            finish_batch(wr, mark, 0);
            self.fidx += 1;
        }
    }

    /// Opens the current frame's batch header if needed.
    fn begin_response(&mut self, wr: &mut Vec<u8>, frames: &[Frame]) {
        if !self.open && !self.frames.is_empty() {
            self.skip_empty_frames(wr, frames);
            self.mark = begin_batch(wr);
            self.open = true;
        }
    }

    /// Counts one emitted response, closing the frame when full.
    fn end_response(&mut self, wr: &mut Vec<u8>, frames: &[Frame]) {
        self.next += 1;
        if self.frames.is_empty() {
            return;
        }
        self.emitted += 1;
        if self.emitted == frames[self.fidx].len {
            finish_batch(wr, self.mark, self.emitted);
            self.fidx += 1;
            self.emitted = 0;
            self.open = false;
        }
    }

    /// After the last phase: trailing zero-request frames still owe
    /// their empty batch replies.
    fn finish(&mut self, wr: &mut Vec<u8>, frames: &[Frame]) {
        debug_assert_eq!(self.next, self.ops.end, "every request answered");
        debug_assert!(!self.open, "every started frame completed");
        self.skip_empty_frames(wr, frames);
        debug_assert_eq!(self.fidx, self.frames.end, "every frame answered");
    }
}

/// Where each stream's response bytes go: the owning connection's
/// output buffer in the event loop, one plain buffer for the embeddable
/// executors.
trait Outputs {
    fn out(&mut self, slot: usize) -> &mut Vec<u8>;
}

impl Outputs for [Option<Conn>] {
    fn out(&mut self, slot: usize) -> &mut Vec<u8> {
        &mut self[slot].as_mut().expect("streams name live slots").wr
    }
}

impl Outputs for Vec<u8> {
    fn out(&mut self, _slot: usize) -> &mut Vec<u8> {
        self
    }
}

/// Responses completed ahead of their turn (see [`StreamPlan`]): their
/// bytes, and per arena index the range holding them (empty = none).
#[derive(Default)]
struct Parked {
    bytes: Vec<u8>,
    at: Vec<std::ops::Range<usize>>,
}

impl Parked {
    fn clear(&mut self) {
        self.bytes.clear();
        self.at.clear();
    }

    fn park(&mut self, i: usize, from: usize) {
        if self.at.len() <= i {
            self.at.resize(i + 1, 0..0);
        }
        self.at[i] = from..self.bytes.len();
    }

    fn take(&mut self, i: usize) -> Option<std::ops::Range<usize>> {
        let at = self.at.get_mut(i)?;
        (at.end > at.start).then(|| std::mem::replace(at, 0..0))
    }
}

/// The batch executor: plans a set of streams into conflict-aware
/// phases ([`mtkv::PhasePlanner`] — see the module docs for the
/// ordering contract) and runs each phase as at most one merged
/// `multi_put`, one merged `multi_get` and the phase's barrier requests.
/// The one get/put run loop: the event loop (all of a wakeup's
/// connections) and the embeddable [`execute_batch_into`] both come
/// through [`BatchExec::run`].
///
/// Everything here is scratch that keeps its capacity from batch to
/// batch, so a warm executor allocates nothing of its own.
#[derive(Default)]
struct BatchExec {
    /// The batch's streams, filled by the caller before [`BatchExec::run`]:
    /// in arena order, together covering the whole arena.
    streams: Vec<StreamPlan>,
    planner: PhasePlanner,
    parked: Parked,
    /// A merged run's request indices, by run position.
    run: Vec<usize>,
    /// A put run's column updates, flat; `run_updates[j]` is where run
    /// position `j`'s begin.
    run_updates: Vec<usize>,
    /// Vectors of borrowed slices, emptied and re-lent per batch
    /// ([`mtkv::recycle`]).
    spare_keys: Vec<&'static [u8]>,
    spare_updates: Vec<(usize, &'static [u8])>,
    spare_puts: Vec<PutOp<'static>>,
}

impl BatchExec {
    fn run<O: Outputs + ?Sized>(
        &mut self,
        session: &Session,
        loads: &[WorkerLoad],
        cursors: &mut HashMap<u64, ScanTokens>,
        reqs: &[RequestRef<'_>],
        frames: &[Frame],
        outs: &mut O,
    ) {
        let BatchExec {
            streams,
            planner,
            parked,
            run,
            run_updates,
            spare_keys,
            spare_updates,
            spare_puts,
        } = self;
        planner.clear();
        let mut covered = 0;
        for s in streams.iter() {
            debug_assert_eq!(s.ops.start, covered, "streams tile the arena in order");
            covered = s.ops.end;
            planner.push_stream(reqs[s.ops.clone()].iter().map(classify));
        }
        debug_assert_eq!(covered, reqs.len());
        planner.finish();
        parked.clear();

        let mut keys: Vec<&[u8]> = mtkv::recycle(std::mem::take(spare_keys));
        let mut updates: Vec<(usize, &[u8])> = mtkv::recycle(std::mem::take(spare_updates));
        let recorder = session.recorder();
        for phase in planner.phases() {
            // Merged put run, first: its replies are the small ones, so
            // when a stream mixes kinds it is `PutOk`s that wait in the
            // side arena while the get replies after them serialize
            // straight from the live values.
            run.clear();
            run_updates.clear();
            updates.clear();
            for &i in phase {
                if let (OpClass::Write(_), RequestRef::Put { cols, .. }) =
                    (classify(&reqs[i as usize]), reqs[i as usize])
                {
                    run.push(i as usize);
                    run_updates.push(updates.len());
                    updates.extend(cols.iter().map(|(col, data)| (col as usize, data)));
                }
            }
            if !run.is_empty() {
                let mut puts: Vec<PutOp<'_>> = mtkv::recycle(std::mem::take(spare_puts));
                for (j, &i) in run.iter().enumerate() {
                    let RequestRef::Put { key, .. } = reqs[i] else {
                        unreachable!("put runs hold only puts")
                    };
                    let to = run_updates.get(j + 1).copied().unwrap_or(updates.len());
                    puts.push((key, &updates[run_updates[j]..to]));
                }
                // Timed (and span-sampled) at run granularity: two clock
                // reads amortized over the whole interleaved group.
                let _span = maybe_span(session);
                let t0 = std::time::Instant::now();
                let mut at = 0;
                session.multi_put_with(&puts, |j, version| {
                    emit(streams, &mut at, outs, frames, parked, run[j], |out| {
                        Response::PutOk(version).encode(out)
                    });
                });
                recorder.record_op(mtkv::mtobs::Kind::MultiPut, t0.elapsed().as_nanos() as u64);
                *spare_puts = mtkv::recycle(puts);
            }

            // Merged get run: the visitor runs in input order, so each
            // response serializes zero-copy into its stream's output —
            // or, behind an unanswered request, into the side arena.
            run.clear();
            keys.clear();
            for &i in phase {
                if let RequestRef::Get { key, .. } = reqs[i as usize] {
                    run.push(i as usize);
                    keys.push(key);
                }
            }
            if !run.is_empty() {
                let _span = maybe_span(session);
                let t0 = std::time::Instant::now();
                let mut at = 0;
                session.multi_get_with(&keys, |j, hit| {
                    let RequestRef::Get { cols, .. } = reqs[run[j]] else {
                        unreachable!("get runs hold only gets")
                    };
                    emit(streams, &mut at, outs, frames, parked, run[j], |out| {
                        write_get_response(out, hit, cols)
                    });
                });
                recorder.record_op(mtkv::mtobs::Kind::MultiGet, t0.elapsed().as_nanos() as u64);
            }

            // Barriers: single-request execution, in place. A barrier
            // is alone in its stream's phase and everything before it
            // has been answered, so it always writes directly.
            let mut at = 0;
            for &i in phase {
                let (i, req) = (i as usize, &reqs[i as usize]);
                if classify(req) != OpClass::Barrier {
                    continue;
                }
                let conn_id = stream_of(streams, &mut at, i).conn_id;
                let mut ctx = ExecCtx {
                    tokens: cursors.entry(conn_id).or_default(),
                    loads,
                };
                emit(streams, &mut at, outs, frames, parked, i, |out| {
                    execute_into_tokens(session, &mut ctx, req, out)
                });
            }
        }
        for s in streams.iter_mut() {
            s.finish(outs.out(s.slot), frames);
        }
        *spare_keys = mtkv::recycle(keys);
        *spare_updates = mtkv::recycle(updates);
        session
            .store()
            .note_batch_plan(planner.phase_count() as u64, planner.conflict_splits());
    }
}

/// How the planner sees a request.
fn classify<'a>(req: &RequestRef<'a>) -> OpClass<'a> {
    match *req {
        RequestRef::Get { key, .. } => OpClass::Read(key),
        RequestRef::Put { key, .. } => OpClass::Write(key),
        _ => OpClass::Barrier,
    }
}

/// The stream request `i` belongs to, found by moving the cursor `at`
/// forward (callers ask in ascending `i`).
fn stream_of<'s>(streams: &'s mut [StreamPlan], at: &mut usize, i: usize) -> &'s mut StreamPlan {
    while i >= streams[*at].ops.end {
        *at += 1;
    }
    &mut streams[*at]
}

/// Routes request `i`'s response bytes: straight into its stream's
/// output when `i` is the next response that output is owed — then
/// every parked response queued right behind it follows — and into the
/// side arena otherwise. `at` is the caller's [`stream_of`] cursor.
fn emit<O: Outputs + ?Sized>(
    streams: &mut [StreamPlan],
    at: &mut usize,
    outs: &mut O,
    frames: &[Frame],
    parked: &mut Parked,
    i: usize,
    write: impl FnOnce(&mut Vec<u8>),
) {
    let stream = stream_of(streams, at, i);
    if i != stream.next {
        let from = parked.bytes.len();
        write(&mut parked.bytes);
        parked.park(i, from);
        return;
    }
    let wr = outs.out(stream.slot);
    stream.begin_response(wr, frames);
    write(wr);
    stream.end_response(wr, frames);
    while let Some(range) = parked.take(stream.next) {
        stream.begin_response(wr, frames);
        wr.extend_from_slice(&parked.bytes[range]);
        stream.end_response(wr, frames);
    }
}

thread_local! {
    /// The embeddable executors' scratch (the event loop owns its own).
    static STANDALONE: RefCell<BatchExec> = RefCell::default();
}

/// Executes a whole batch of borrowed requests against a store session,
/// serializing the responses — in request order — directly into `out`,
/// and returns how many were written. The batch runs through the same
/// planner and run loop as a served wakeup: gets and puts that the
/// ordering contract (module docs) leaves unordered merge into
/// interleaved `multi_get` / `multi_put` runs, get and scan responses
/// are encoded from column slices borrowed under the epoch guard, and
/// a warm call allocates nothing beyond the values its puts build.
pub fn execute_refs_into(session: &Session, reqs: &[RequestRef<'_>], out: &mut Vec<u8>) -> usize {
    STANDALONE.with(|exec| {
        let mut exec = exec.borrow_mut();
        exec.streams.clear();
        exec.streams
            .push(StreamPlan::new(0, 0, 0..reqs.len(), 0..0));
        exec.run(session, &[], &mut HashMap::new(), reqs, &[], out);
    });
    reqs.len()
}

/// [`execute_refs_into`] for owned requests.
pub fn execute_batch_into(session: &Session, reqs: Vec<Request>, out: &mut Vec<u8>) -> usize {
    let refs: Vec<RequestRef<'_>> = reqs.iter().map(Request::borrowed).collect();
    execute_refs_into(session, &refs, out)
}

/// Executes a whole batch one request at a time, in order, returning
/// owned responses: the sequential **reference** the batch executor's
/// output is compared against (`tests/end_to_end.rs`), not a serving
/// path.
pub fn execute_batch(session: &Session, reqs: Vec<Request>) -> Vec<Response> {
    let mut tokens = ScanTokens::new();
    let mut ctx = ExecCtx::standalone(&mut tokens);
    reqs.into_iter()
        .map(|req| execute_tokens(session, &mut ctx, req))
        .collect()
}

/// Executes one request against a store session with the connection's
/// execution context, serializing the response directly into `out`.
/// Gets and scans write column slices borrowed under the epoch guard
/// (via `get_with` / `get_range_with`); puts and removes encode their
/// small fixed-size replies; resumable `Scan` requests re-enter the tree
/// at their remembered border nodes.
fn execute_into_tokens(
    session: &Session,
    ctx: &mut ExecCtx<'_>,
    req: &RequestRef<'_>,
    out: &mut Vec<u8>,
) {
    let _span = maybe_span(session);
    match *req {
        RequestRef::Get { key, cols } => {
            session.get_with(key, |hit| write_get_response(out, hit, cols));
        }
        RequestRef::Put { key, cols } => {
            let updates: Vec<(usize, &[u8])> = cols.iter().map(|(i, d)| (i as usize, d)).collect();
            Response::PutOk(session.put(key, &updates)).encode(out);
        }
        RequestRef::Remove { key } => Response::RemoveOk(session.remove(key)).encode(out),
        RequestRef::Scan {
            key,
            count,
            cols,
            resume,
        } => {
            let start = out.len();
            let ok = {
                let mut rows = RowsWriter::begin(out);
                let ok =
                    scan_with_tokens(session, ctx.tokens, key, count, resume, |k, v| match cols {
                        None => rows.push_row(
                            k,
                            v.ncols(),
                            (0..v.ncols()).map(|c| v.col(c).unwrap_or(&[])),
                        ),
                        Some(ids) => rows.push_row(
                            k,
                            ids.len(),
                            ids.iter().map(|c| v.col(c as usize).unwrap_or(&[])),
                        ),
                    });
                if ok {
                    rows.finish();
                }
                ok
            };
            if !ok {
                out.truncate(start);
                Response::Err(UNKNOWN_SCAN_TOKEN.into()).encode(out);
            }
        }
        // Admin requests: small fixed-size replies, no zero-copy need.
        RequestRef::Stats | RequestRef::Flush | RequestRef::Sync | RequestRef::StatsEx => {
            execute_tokens(session, ctx, req.to_owned()).encode(out)
        }
    }
}

/// The typed error a `Resume` with no live cursor receives.
const UNKNOWN_SCAN_TOKEN: &str = "unknown scan token";

/// Arms a trace span for 1-in-N requests (see `mtobs::Obs::
/// set_sample_every`). The request's frame was already decoded, so the
/// `Decode` mark lands immediately; the downstream session op marks
/// cache-lookup/descent/value-resolve/WAL stages and its `record_op`
/// completes the span into the trace ring. Unsampled requests pay one
/// relaxed load here and one thread-local flag check per mark site.
#[inline]
fn maybe_span(session: &Session) -> Option<mtkv::mtobs::span::SpanGuard> {
    if session.recorder().obs().should_sample() {
        let g = mtkv::mtobs::span::begin();
        mtkv::mtobs::span::mark(mtkv::mtobs::Stage::Decode);
        Some(g)
    } else {
        None
    }
}

/// Runs one scan chunk. `Start(token)` descends from `key` and
/// registers (or overwrites) the cursor under the token; `Resume(token)`
/// requires a live cursor and returns `false` — the caller answers
/// [`Response::Err`] — when there is none (never started on this
/// connection, or evicted at the [`MAX_SCAN_TOKENS`] LRU cap). The
/// strictness matters across reconnects: tokens are connection-scoped,
/// so a reconnected client resuming blindly gets a clean typed error
/// instead of silently re-streaming — or worse, silently adopting
/// state it never registered. Evictions are least-recently-used and
/// counted (`cache_scan_evictions` in the wire stats). A token-less
/// scan is one-shot: it descends from `key` and keeps no cursor.
fn scan_with_tokens<F>(
    session: &Session,
    tokens: &mut ScanTokens,
    key: &[u8],
    count: u32,
    resume: Option<ScanResume>,
    f: F,
) -> bool
where
    F: FnMut(&[u8], &mtkv::ColValue),
{
    let (mut cursor, token) = match resume {
        None => {
            session.get_range_with(key, count as usize, f);
            return true;
        }
        Some(ScanResume::Start(token)) => (session.scan_cursor(key), token),
        Some(ScanResume::Resume(token)) => match tokens.take(token) {
            Some(cursor) => (cursor, token),
            None => return false,
        },
    };
    session.get_range_resumed(&mut cursor, count as usize, f);
    // Exhausted cursors stay registered (as done) so a trailing Resume
    // reads a clean empty chunk rather than an unknown-token error.
    if tokens.insert(token, cursor) {
        session.store().note_scan_evictions(1);
    }
    true
}

/// Writes a get's `Response::Value` wire bytes from a borrowed value,
/// applying the request's column selection slice-by-slice.
fn write_get_response(out: &mut Vec<u8>, hit: Option<&mtkv::ColValue>, cols: Option<ColIds<'_>>) {
    match hit {
        None => write_value_none(out),
        Some(v) => match cols {
            None => write_value_borrowed(
                out,
                v.ncols(),
                (0..v.ncols()).map(|c| v.col(c).unwrap_or(&[])),
            ),
            Some(ids) => write_value_borrowed(
                out,
                ids.len(),
                ids.iter().map(|c| v.col(c as usize).unwrap_or(&[])),
            ),
        },
    }
    // Zero-copy encoding runs *inside* the get's epoch guard (the
    // `get_with` visitor), so a sampled span is still live here and the
    // respond stage lands before `record_op` completes the trace.
    mtkv::mtobs::span::mark(mtkv::mtobs::Stage::Respond);
}

/// Executes one request against a store session, returning an owned
/// response (no connection state: a resumable `Scan`'s cursor does not
/// outlive the call).
pub fn execute(session: &Session, req: Request) -> Response {
    execute_tokens(
        session,
        &mut ExecCtx::standalone(&mut ScanTokens::new()),
        req,
    )
}

/// [`execute`] with the connection's execution context.
fn execute_tokens(session: &Session, ctx: &mut ExecCtx<'_>, req: Request) -> Response {
    match req {
        Request::Get { key, cols } => {
            let ids: Option<Vec<usize>> = cols.map(|c| c.iter().map(|&i| i as usize).collect());
            Response::Value(session.get(&key, ids.as_deref()))
        }
        Request::Put { key, cols } => {
            let updates: Vec<(usize, &[u8])> = cols
                .iter()
                .map(|(i, d)| (*i as usize, d.as_slice()))
                .collect();
            Response::PutOk(session.put(&key, &updates))
        }
        Request::Remove { key } => Response::RemoveOk(session.remove(&key)),
        Request::Scan {
            key,
            count,
            cols,
            resume,
        } => {
            let ids: Option<Vec<usize>> = cols.map(|c| c.iter().map(|&i| i as usize).collect());
            let mut rows = Vec::with_capacity((count as usize).min(1024));
            let ok = scan_with_tokens(session, ctx.tokens, &key, count, resume, |k, v| {
                let row = match &ids {
                    None => v.cols(),
                    Some(ids) => ids
                        .iter()
                        .map(|&i| v.col(i).unwrap_or(&[]).to_vec())
                        .collect(),
                };
                rows.push((k.to_vec(), row));
            });
            if !ok {
                return Response::Err(UNKNOWN_SCAN_TOKEN.into());
            }
            Response::Rows(rows)
        }
        Request::Stats => Response::Stats(gather_stats(session, ctx.loads)),
        Request::StatsEx => Response::StatsEx(StatsExReply {
            // `Obs::snapshot` merges every live recorder (all sessions
            // across all workers), retired recorders from closed
            // connections, and the store's background/global set — the
            // same flush-on-read discipline as the cache counters.
            snap: session.store().obs().snapshot(),
        }),
        Request::Flush => {
            // Make this connection's log durable, then run one full
            // durability cycle: checkpoint, truncate covered segments,
            // prune old checkpoints. A flush reply acks durability, so
            // any failure must surface as an error response — never as
            // stats pretending the data is safe. In-memory stores have
            // nothing to flush and answer with (all-zero) stats.
            if !session.force_log() {
                return Response::Err("flush failed: log writer is dead (I/O error)".into());
            }
            if session.store().log_dir().is_some() {
                if let Err(e) = session.store().checkpoint_now() {
                    return Response::Err(format!("flush failed: durability cycle: {e}"));
                }
            }
            Response::Stats(gather_stats(session, ctx.loads))
        }
        Request::Sync => {
            // Group-commit barrier only (§5's per-core log force): make
            // this connection's log durable and report the stats — no
            // checkpoint, no truncation. Like Flush, a success reply
            // acks durability, so a dead log must surface as an error.
            if !session.force_log() {
                return Response::Err("sync failed: log writer is dead (I/O error)".into());
            }
            Response::Stats(gather_stats(session, ctx.loads))
        }
    }
}

/// Snapshots the store's durability and cache-tier state into the wire
/// reply.
///
/// The cache counters aggregate **every** session's traffic as of this
/// call: `Store::cache_stats` walks the store's registry of live
/// session caches and flushes each one's batched local counters into
/// the shared sink before snapshotting it. (Sessions otherwise flush
/// only every 256 events and on drop, so a `Stats` request used to see
/// other connections' traffic late — and only its own connection's
/// counters freshly.)
fn gather_stats(session: &Session, loads: &[WorkerLoad]) -> StatsReply {
    let s = session.store().durability_stats();
    let c = session.store().cache_stats();
    let v = session.store().value_tier_stats();
    let (phases, conflict_splits) = session.store().batch_plan_stats();
    StatsReply {
        checkpoints: s.checkpoints,
        last_checkpoint_start_ts: s.last_checkpoint_start_ts,
        log_bytes: s.log_bytes,
        log_segments: s.log_segments,
        segments_truncated: s.segments_truncated,
        cache_lookups: c.lookups,
        cache_hits: c.hits,
        cache_stale: c.stale,
        // Retired wire slots: writes no longer route through the cache.
        cache_write_hits: 0,
        cache_write_stale: 0,
        cache_scan_resumes: c.scan_resumes,
        cache_scan_evictions: c.scan_evictions,
        indirect_reads: v.indirect_reads,
        // Retired wire slot: the value tier keeps no decoded-value cache.
        value_cache_hits: 0,
        gc_rewritten_bytes: v.gc_rewritten_bytes,
        live_segment_bytes: v.live_segment_bytes,
        readahead_batches: v.readahead_batches,
        coalesced_bytes: v.coalesced_bytes,
        // Retired wire slot: concurrent cold misses no longer share reads.
        shared_misses: 0,
        phases,
        conflict_splits,
        worker_conns: loads
            .iter()
            .map(|l| l.conns.load(Ordering::Relaxed))
            .collect(),
    }
}

#[cfg(test)]
#[path = "server_tests.rs"]
mod tests;
