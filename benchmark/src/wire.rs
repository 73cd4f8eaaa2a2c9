//! The single-process load generator: one busy-polling thread driving a
//! fixed number of nonblocking loopback connections, framing with the
//! public `mtnet::proto` functions and checking every reply.
//!
//! `mtnet::Client` is not used: its blocking `recv_one` cannot hold an
//! open-loop schedule.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::time::{Duration, Instant};

use mtnet::proto::{begin_batch, finish_batch, parse_batch_frame};
use mtnet::{Request, Response};

use crate::gen::{check_value, fill_value, key_of, KeyDist, Op, OpKind, OpStream, Rng, KEY_LEN};
use crate::stats::Windows;
use crate::trace::SpanLog;
use crate::workload::{Spec, CONNS, LOAD_BATCH, OP_TIMEOUT, SCAN_ROWS, VERIFY_FRAC, WINDOW};

/// What the reply to one sent op must look like.
#[derive(Clone, Copy)]
enum Expect {
    /// A value for `id` whose sequence is at least `min_seq`.
    Get { id: u64, min_seq: u32 },
    /// `PutOk`; acknowledges write `seq` of `id`.
    Put { id: u64, seq: u32 },
    /// Exactly the [`SCAN_ROWS`] keys from this index of the sorted key
    /// list (fewer only at its end).
    Scan { pos: u32 },
}

/// What a frame's ops have in common, for per-op-type latency.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    Gets,
    Scans,
    Mixed,
}

struct Frame {
    /// Latency is timed from here: the send time in a closed loop, the
    /// *due* time in an open loop.
    due: Instant,
    sent: Instant,
    nops: u32,
    kind: FrameKind,
    /// The frame's root span when tracing.
    span: Option<u32>,
}

struct Conn {
    stream: TcpStream,
    wr: Vec<u8>,
    wr_pos: usize,
    rd: Vec<u8>,
    rd_pos: usize,
    rd_len: usize,
    inflight: VecDeque<Frame>,
    expects: VecDeque<Expect>,
    dead: bool,
}

const RD_CAP: usize = 1 << 20;

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, OP_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            wr: Vec::with_capacity(1 << 16),
            wr_pos: 0,
            rd: vec![0; RD_CAP],
            rd_pos: 0,
            rd_len: 0,
            inflight: VecDeque::new(),
            expects: VecDeque::new(),
            dead: false,
        })
    }

    /// Writes as much pending output as the socket takes.
    fn flush(&mut self) {
        while self.wr_pos < self.wr.len() {
            match self.stream.write(&self.wr[self.wr_pos..]) {
                Ok(0) => return self.dead = true,
                Ok(n) => self.wr_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return self.dead = true,
            }
        }
        self.wr.clear();
        self.wr_pos = 0;
    }

    /// Reads what the socket has; returns whether any bytes arrived.
    fn fill(&mut self) -> bool {
        if self.rd_pos == self.rd_len {
            self.rd_pos = 0;
            self.rd_len = 0;
        } else if self.rd_len == self.rd.len() {
            if self.rd_pos == 0 {
                // One frame larger than the buffer: grow it.
                self.rd.resize(self.rd.len() * 2, 0);
            } else {
                self.rd.copy_within(self.rd_pos..self.rd_len, 0);
                self.rd_len -= self.rd_pos;
                self.rd_pos = 0;
            }
        }
        loop {
            match self.stream.read(&mut self.rd[self.rd_len..]) {
                Ok(0) => {
                    self.dead = true;
                    return false;
                }
                Ok(n) => {
                    self.rd_len += n;
                    return true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return false;
                }
            }
        }
    }
}

/// Latency samples of an open-loop phase, one per frame, in ns.
pub struct OpenResult {
    start: Instant,
    /// In completion order.
    pub lat_all: Vec<u32>,
    /// `lat_all[window_ends[i - 1]..window_ends[i]]` completed in the
    /// `i`-th [`WINDOW`] of the phase.
    window_ends: Vec<usize>,
    pub lat_get: Vec<u32>,
    pub lat_scan: Vec<u32>,
    /// How late each frame was sent relative to its due time.
    pub lag: Vec<u32>,
}

impl OpenResult {
    /// Median latency, in ns, of each window that completed at least 10
    /// frames.
    pub fn window_medians(&self) -> Vec<f64> {
        let mut from = 0;
        let mut out = Vec::new();
        for &to in self.window_ends.iter().chain([&self.lat_all.len()]) {
            if to - from >= 10 {
                let mut w = self.lat_all[from..to].to_vec();
                w.sort_unstable();
                out.push(crate::stats::percentile(&w, 0.5) as f64);
            }
            from = to;
        }
        out
    }
}

pub struct ClosedResult {
    /// Ops per second of each window.
    pub rates: Vec<f64>,
    pub puts: u64,
    /// Share of the phase the generator spent handling replies and
    /// sending (the rest it spent polling idle sockets): near 1, the run
    /// measured the generator, not the server.
    pub busy_frac: f64,
}

/// Where a completed frame is accounted.
enum Sink<'a> {
    None,
    Closed(&'a mut Windows),
    Open(&'a mut OpenResult),
}

pub struct Gen {
    pub spec: Spec,
    conns: Vec<Conn>,
    streams: Vec<OpStream>,
    /// Per key id: sequence of the last write sent / acknowledged.
    sent: Vec<u32>,
    acked: Vec<u32>,
    /// Sorted `(key, id)` — only built for workloads that scan.
    sorted: Vec<([u8; KEY_LEN], u32)>,
    pub attempted: u64,
    pub failed: u64,
    pub puts_acked: u64,
    faults_shown: usize,
    ops_scratch: Vec<Op>,
    val_scratch: Vec<u8>,
    chk_scratch: Vec<u8>,
    /// Reply frames handled per connection per polling round.
    chunk: usize,
    /// Per-frame spans of the traced wire rung; `None` = tracing off.
    pub trace: Option<SpanLog>,
}

impl Gen {
    pub fn connect(spec: Spec, seed: u64, addr: SocketAddr) -> std::io::Result<Gen> {
        let dist = Rc::new(KeyDist::new(&spec, seed));
        let conns = (0..CONNS)
            .map(|_| Conn::open(addr))
            .collect::<Result<_, _>>()?;
        let streams = (0..CONNS)
            .map(|c| OpStream::new(&spec, seed, c, dist.clone()))
            .collect();
        let mut sorted = Vec::new();
        if spec.mix == crate::workload::Mix::HalfScan {
            sorted = (0..spec.keys).map(|id| (key_of(id), id as u32)).collect();
            sorted.sort_unstable();
        }
        Ok(Gen {
            spec,
            conns,
            streams,
            sent: vec![0; spec.keys as usize],
            acked: vec![0; spec.keys as usize],
            sorted,
            attempted: 0,
            failed: 0,
            puts_acked: 0,
            faults_shown: 0,
            ops_scratch: Vec::new(),
            val_scratch: vec![0; spec.value_len],
            chk_scratch: Vec::new(),
            chunk: spec.chunk(),
            trace: None,
        })
    }

    /// Replaces the connections (after the server was restarted on the
    /// same directory), keeping what the generator knows was written.
    pub fn reconnect(&mut self, addr: SocketAddr) -> std::io::Result<()> {
        self.conns = (0..CONNS)
            .map(|_| Conn::open(addr))
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    fn fault(&mut self, nops: u64, what: std::fmt::Arguments<'_>) {
        self.failed += nops;
        if self.faults_shown < 8 {
            self.faults_shown += 1;
            eprintln!("kvbench: FAILED OP(S) x{nops}: {what}");
        }
    }

    fn alive(&self) -> bool {
        self.conns.iter().any(|c| !c.dead)
    }

    /// Encodes `ops` as one frame into connection `c`'s output buffer.
    /// The caller flushes once it has queued everything that is due, so
    /// frames that fall due together leave in one `write`.
    fn send_ops(&mut self, c: usize, ops: &[Op], due: Instant) {
        let t_enc = self.trace.is_some().then(Instant::now);
        let conn = &mut self.conns[c];
        let mark = begin_batch(&mut conn.wr);
        let mut kind = None;
        for op in ops {
            let id = op.id as usize;
            let key = key_of(op.id).to_vec();
            let (req, expect, k) = match op.kind {
                OpKind::Get => {
                    // A read after this connection's own writes must see
                    // them (frames execute in order); a read of another
                    // connection's key must see what was acknowledged.
                    let min_seq = if id % CONNS == c {
                        self.sent[id]
                    } else {
                        self.acked[id]
                    };
                    let expect = Expect::Get { id: op.id, min_seq };
                    (Request::Get { key, cols: None }, expect, FrameKind::Gets)
                }
                OpKind::Put => {
                    debug_assert_eq!(id % CONNS, c, "one writer per key");
                    self.sent[id] += 1;
                    let seq = self.sent[id];
                    fill_value(op.id, seq as u64, &mut self.val_scratch);
                    let cols = vec![(0u16, self.val_scratch.clone())];
                    (
                        Request::Put { key, cols },
                        Expect::Put { id: op.id, seq },
                        FrameKind::Mixed,
                    )
                }
                OpKind::Scan => {
                    let pos = self
                        .sorted
                        .binary_search_by(|(k, _)| k[..].cmp(&key[..]))
                        .expect("scan start is a loaded key") as u32;
                    let req = Request::Scan {
                        key,
                        count: SCAN_ROWS,
                        cols: None,
                        resume: None,
                    };
                    (req, Expect::Scan { pos }, FrameKind::Scans)
                }
            };
            req.encode(&mut conn.wr);
            conn.expects.push_back(expect);
            kind = Some(if kind.is_none() || kind == Some(k) {
                k
            } else {
                FrameKind::Mixed
            });
        }
        finish_batch(&mut conn.wr, mark, ops.len());
        let sent = Instant::now();
        let mut span = None;
        if let (Some(t0), Some(log)) = (t_enc, self.trace.as_mut()) {
            span = log.record("wire.frame", due, sent, None, ops.len() as u32);
            log.record("gen.encode", t0, sent, span, ops.len() as u32);
        }
        conn.inflight.push_back(Frame {
            due,
            sent,
            nops: ops.len() as u32,
            kind: kind.unwrap_or(FrameKind::Mixed),
            span,
        });
        self.attempted += ops.len() as u64;
    }

    /// Draws the workload's next frame for connection `c` and sends it.
    fn send_next(&mut self, c: usize, due: Instant) {
        let mut ops = std::mem::take(&mut self.ops_scratch);
        ops.clear();
        ops.extend((0..self.spec.batch).map(|_| self.streams[c].next_op()));
        self.send_ops(c, &ops, due);
        self.ops_scratch = ops;
    }

    /// Reads connection `c`, checks every complete reply frame and
    /// accounts it in `sink`. Fails the connection's outstanding ops if
    /// its oldest frame has waited longer than [`OP_TIMEOUT`]. Returns
    /// when the replies arrived, if any did.
    fn pump(&mut self, c: usize, sink: &mut Sink<'_>) -> Option<Instant> {
        if self.conns[c].dead {
            return None;
        }
        self.conns[c].flush();
        let got = self.conns[c].fill();
        let now = Instant::now();
        // At most `chunk` reply frames per call: the rest stay buffered
        // for the next round. Answering a large burst in several smaller
        // writes keeps more, smaller batches circulating, so the server
        // is not left idle while the generator works through a burst.
        let mut handled = 0;
        while handled < self.chunk && !self.conns[c].dead {
            let conn = &self.conns[c];
            match parse_batch_frame(&conn.rd[conn.rd_pos..conn.rd_len]) {
                Ok(Some((consumed, count))) => self.complete(c, consumed, count, now, sink),
                Ok(None) => break,
                Err(e) => {
                    self.fault(0, format_args!("conn {c}: {e}"));
                    self.conns[c].dead = true;
                }
            }
            handled += 1;
        }
        let conn = &mut self.conns[c];
        if let Some(f) = conn.inflight.front() {
            if now.duration_since(f.sent) > OP_TIMEOUT {
                conn.dead = true;
            }
        }
        if conn.dead {
            let lost: u64 = conn.inflight.drain(..).map(|f| f.nops as u64).sum();
            conn.expects.clear();
            if lost > 0 {
                self.fault(lost, format_args!("conn {c}: closed, refused or timed out"));
            }
        }
        (got || handled > 0).then_some(now)
    }

    /// One complete reply frame at the front of connection `c`'s buffer.
    fn complete(
        &mut self,
        c: usize,
        consumed: usize,
        count: u32,
        now: Instant,
        sink: &mut Sink<'_>,
    ) {
        let Some(frame) = self.conns[c].inflight.pop_front() else {
            self.fault(0, format_args!("conn {c}: reply frame nobody asked for"));
            return self.conns[c].dead = true;
        };
        if count != frame.nops {
            // A one-response error batch (refusal) or a miscounted frame:
            // either way this connection's stream is no longer aligned.
            self.conns[c].inflight.push_front(frame);
            let n = self.conns[c].inflight[0].nops;
            self.fault(
                0,
                format_args!("conn {c}: {count} replies to a frame of {n} ops"),
            );
            return self.conns[c].dead = true;
        }
        let t_check = self.trace.is_some().then(Instant::now);
        let start = self.conns[c].rd_pos;
        self.conns[c].rd_pos += consumed;
        // The body is checked in place; the buffer is not touched until
        // the next `fill`.
        let body = std::mem::take(&mut self.conns[c].rd);
        let mut p = &body[start + 8..start + consumed];
        let mut puts = 0u64;
        for _ in 0..count {
            let expect = self.conns[c].expects.pop_front().expect("one per op");
            match Response::decode(&mut p) {
                Some(resp) => puts += self.check(expect, resp) as u64,
                None => {
                    self.fault(1, format_args!("conn {c}: undecodable reply"));
                    self.conns[c].dead = true;
                    break;
                }
            }
        }
        self.conns[c].rd = body;
        if let (Some(t0), Some(log)) = (t_check, self.trace.as_mut()) {
            let done = Instant::now();
            log.set_end(frame.span, done);
            log.record("mtnet.wire", frame.sent, now, frame.span, frame.nops);
            log.record("gen.check", t0, done, frame.span, frame.nops);
        }
        self.puts_acked += puts;
        match sink {
            Sink::None => {}
            Sink::Closed(w) => w.add(now, frame.nops as u64),
            Sink::Open(r) => {
                let lat = now
                    .saturating_duration_since(frame.due)
                    .as_nanos()
                    .min(u32::MAX as u128);
                let window = (now.saturating_duration_since(r.start).as_nanos() / WINDOW.as_nanos())
                    as usize;
                while r.window_ends.len() < window {
                    r.window_ends.push(r.lat_all.len());
                }
                r.lat_all.push(lat as u32);
                match frame.kind {
                    FrameKind::Gets => r.lat_get.push(lat as u32),
                    FrameKind::Scans => r.lat_scan.push(lat as u32),
                    FrameKind::Mixed => {}
                }
            }
        }
    }

    /// Checks one reply; returns whether it acknowledged a put.
    fn check(&mut self, expect: Expect, resp: Response) -> bool {
        let len = self.spec.value_len;
        match (expect, resp) {
            (Expect::Get { id, min_seq }, Response::Value(Some(cols))) if cols.len() == 1 => {
                let max_seq = self.sent[id as usize] as u64;
                let mut scratch = std::mem::take(&mut self.chk_scratch);
                if let Err(e) =
                    check_value(&cols[0], id, len, min_seq as u64, max_seq, &mut scratch)
                {
                    self.fault(
                        1,
                        format_args!("get id {id}: {e:?} (want seq {min_seq}..={max_seq})"),
                    );
                }
                self.chk_scratch = scratch;
                false
            }
            (Expect::Put { id, seq }, Response::PutOk(_)) => {
                let a = &mut self.acked[id as usize];
                *a = (*a).max(seq);
                true
            }
            (Expect::Scan { pos }, Response::Rows(rows)) => {
                let want = &self.sorted
                    [pos as usize..(pos as usize + SCAN_ROWS as usize).min(self.sorted.len())];
                let mut scratch = std::mem::take(&mut self.chk_scratch);
                let ok = rows.len() == want.len()
                    && rows.iter().zip(want).all(|((k, cols), (wk, wid))| {
                        let max_seq = self.sent[*wid as usize] as u64;
                        k[..] == wk[..]
                            && cols.len() == 1
                            && check_value(&cols[0], *wid as u64, len, 1, max_seq, &mut scratch)
                                .is_ok()
                    });
                self.chk_scratch = scratch;
                if !ok {
                    self.fault(
                        1,
                        format_args!("scan from sorted position {pos}: wrong rows"),
                    );
                }
                false
            }
            (Expect::Get { id, .. }, Response::Value(None)) => {
                self.fault(1, format_args!("get id {id}: key absent"));
                false
            }
            (_, Response::Err(msg)) | (_, Response::Redirect(msg)) => {
                self.fault(1, format_args!("server refused: {msg}"));
                false
            }
            _ => {
                self.fault(1, format_args!("reply of the wrong type"));
                false
            }
        }
    }

    /// Pumps until nothing is outstanding (or every connection died).
    fn drain(&mut self, sink: &mut Sink<'_>) {
        while self.conns.iter().any(|c| !c.dead && !c.inflight.is_empty()) {
            for c in 0..CONNS {
                self.pump(c, sink);
            }
        }
    }

    /// Sends each frame of `frames(conn)` keeping `depth` outstanding per
    /// connection, until both iterators are exhausted and drained.
    fn run_frames(&mut self, depth: usize, mut frames: impl FnMut(usize) -> Option<Vec<Op>>) {
        let mut done = [false; CONNS];
        while self.alive() && !done.iter().all(|&d| d) {
            for (c, done) in done.iter_mut().enumerate() {
                self.pump(c, &mut Sink::None);
                while !*done && !self.conns[c].dead && self.conns[c].inflight.len() < depth {
                    match frames(c) {
                        Some(ops) => self.send_ops(c, &ops, Instant::now()),
                        None => *done = true,
                    }
                }
                self.conns[c].flush();
                *done |= self.conns[c].dead;
            }
        }
        self.drain(&mut Sink::None);
    }

    /// Loads the data set (write 1 of every key, each connection its own
    /// keys, [`LOAD_BATCH`]-op frames) and reads back a seeded sample.
    pub fn load_and_verify(&mut self, seed: u64) {
        let keys = self.spec.keys;
        let mut next = [0u64, 1];
        self.run_frames(4, |c| {
            let from = next[c];
            if from >= keys {
                return None;
            }
            next[c] = (from + (LOAD_BATCH * CONNS) as u64).min(keys + c as u64);
            Some(
                (from..next[c])
                    .step_by(CONNS)
                    .map(|id| Op {
                        kind: OpKind::Put,
                        id,
                    })
                    .collect(),
            )
        });
        let mut rng = Rng(seed ^ 0x5eed_cafe);
        let mut left = [(keys as f64 * VERIFY_FRAC / CONNS as f64).ceil() as usize; CONNS];
        self.run_frames(2, |c| {
            let n = left[c].min(64);
            left[c] -= n;
            (n > 0).then(|| {
                (0..n)
                    .map(|_| Op {
                        kind: OpKind::Get,
                        id: rng.below(keys),
                    })
                    .collect()
            })
        });
    }

    /// Reads `ids` back (after a restart) and counts every key whose
    /// value is older than its last acknowledged write as a failed op.
    pub fn read_back(&mut self, ids: &[u64]) {
        let mut chunks = ids.chunks(64);
        self.run_frames(2, |_| {
            chunks.next().map(|ch| {
                ch.iter()
                    .map(|&id| Op {
                        kind: OpKind::Get,
                        id,
                    })
                    .collect()
            })
        });
    }

    /// Closed loop: every connection keeps the workload's depth
    /// outstanding for `windows` windows of `window` each.
    pub fn run_closed(&mut self, window: Duration, windows: usize) -> ClosedResult {
        let start = Instant::now();
        let end = start + window * windows as u32;
        let mut w = Windows::new(start, window, windows);
        let puts0 = self.puts_acked;
        let depth = self.spec.depth;
        let mut busy = Duration::ZERO;
        while self.alive() && Instant::now() < end {
            for c in 0..CONNS {
                let arrived = self.pump(c, &mut Sink::Closed(&mut w));
                let now = arrived.unwrap_or_else(Instant::now);
                while !self.conns[c].dead && self.conns[c].inflight.len() < depth {
                    self.send_next(c, now);
                }
                self.conns[c].flush();
                if let Some(t) = arrived {
                    busy += t.elapsed();
                }
            }
        }
        let puts = self.puts_acked - puts0;
        self.drain(&mut Sink::Closed(&mut w));
        ClosedResult {
            rates: w.rates(),
            puts,
            busy_frac: busy.as_secs_f64() / (window * windows as u32).as_secs_f64(),
        }
    }

    /// Open loop: frames fall due at a fixed rate whether or not earlier
    /// ones were answered, alternating connections; latency is timed from
    /// the due time.
    pub fn run_open(&mut self, dur: Duration, ops_per_s: f64) -> OpenResult {
        let interval = Duration::from_secs_f64(self.spec.batch as f64 / ops_per_s);
        let total = (dur.as_secs_f64() / interval.as_secs_f64()) as usize;
        let start = Instant::now();
        let mut r = OpenResult {
            start,
            lat_all: Vec::with_capacity(total),
            window_ends: Vec::new(),
            lat_get: Vec::with_capacity(total),
            lat_scan: Vec::with_capacity(total),
            lag: Vec::with_capacity(total),
        };
        let mut sent = 0usize;
        while self.alive() && sent < total {
            let now = Instant::now();
            let due = start + interval.mul_f64(sent as f64);
            if due <= now {
                let c = sent % CONNS;
                if !self.conns[c].dead {
                    r.lag
                        .push(now.duration_since(due).as_nanos().min(u32::MAX as u128) as u32);
                    self.send_next(c, due);
                    self.conns[c].flush();
                }
                sent += 1;
            }
            for c in 0..CONNS {
                self.pump(c, &mut Sink::Open(&mut r));
            }
        }
        self.drain(&mut Sink::Open(&mut r));
        r
    }

    /// One admin request (`Stats`, `StatsEx`, `Sync`) on connection `c`,
    /// which must be idle. `None` (and a failed op) if no reply arrives.
    pub fn admin(&mut self, c: usize, req: Request) -> Option<Response> {
        self.attempted += 1;
        let conn = &mut self.conns[c];
        assert!(
            conn.inflight.is_empty(),
            "admin requests need an idle connection"
        );
        let mark = begin_batch(&mut conn.wr);
        req.encode(&mut conn.wr);
        finish_batch(&mut conn.wr, mark, 1);
        let sent = Instant::now();
        let mut reply = None;
        while !conn.dead && sent.elapsed() < OP_TIMEOUT * 5 {
            conn.flush();
            conn.fill();
            if let Ok(Some((consumed, 1))) = parse_batch_frame(&conn.rd[conn.rd_pos..conn.rd_len]) {
                let mut p = &conn.rd[conn.rd_pos + 8..conn.rd_pos + consumed];
                reply = Response::decode(&mut p);
                conn.rd_pos += consumed;
                break;
            }
        }
        match reply {
            Some(Response::Err(msg)) => {
                self.fault(1, format_args!("admin request refused: {msg}"));
                None
            }
            None => {
                self.conns[c].dead = true;
                self.fault(1, format_args!("admin request got no reply"));
                None
            }
            ok => ok,
        }
    }

    /// Sends a `Get` of an id that was never written, expecting a value:
    /// the self-check's planted failure.
    #[cfg(test)]
    pub fn plant_missing_key_read(&mut self) {
        let id = self.spec.keys - 1;
        assert_eq!(self.sent[id as usize], 0, "plant before loading");
        self.run_frames(1, {
            let mut once = Some(vec![Op {
                kind: OpKind::Get,
                id,
            }]);
            move |c| if c == 0 { once.take() } else { None }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::child::DataDir;
    use crate::workload::SPECS;

    /// A planted failure — a read of a key that was never written,
    /// expected to hit — must be counted, and nothing else may be.
    #[test]
    fn planted_failure_is_counted_and_a_clean_load_is_not() {
        let spec = SPECS
            .iter()
            .find(|s| s.name == "cold_scan_get")
            .unwrap()
            .smoke();
        let dir = DataDir::create(&spec, "unit-wire").unwrap();
        let mut server = crate::serve::start(&spec, dir.path()).unwrap();
        let mut gen = Gen::connect(spec, 3, server.addr()).unwrap();

        gen.plant_missing_key_read();
        assert_eq!((gen.attempted, gen.failed), (1, 1));

        gen.load_and_verify(3);
        let closed = gen.run_closed(Duration::from_millis(100), 3);
        assert_eq!(gen.failed, 1, "a correct server fails nothing else");
        assert_eq!(gen.puts_acked, spec.keys);
        assert!(closed.rates.iter().all(|&r| r > 0.0), "{:?}", closed.rates);
        assert!(gen.attempted > spec.keys + 200);

        let open = gen.run_open(Duration::from_millis(300), 2000.0);
        assert_eq!(open.lat_all.len(), 600);
        assert!(!open.window_medians().is_empty());
        assert_eq!(
            open.lat_get.len() + open.lat_scan.len(),
            600,
            "single-op frames"
        );
        assert_eq!(gen.failed, 1);
        server.stop();
    }

    /// A server that goes away mid-run yields failed ops and a run that
    /// ends — never a hang.
    #[test]
    fn a_vanished_server_fails_ops_instead_of_hanging() {
        let spec = SPECS
            .iter()
            .find(|s| s.name == "get_uniform")
            .unwrap()
            .smoke();
        let dir = DataDir::create(&spec, "unit-vanish").unwrap();
        let mut server = crate::serve::start(&spec, dir.path()).unwrap();
        let mut gen = Gen::connect(spec, 4, server.addr()).unwrap();
        gen.load_and_verify(4);
        assert_eq!(gen.failed, 0);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                server.stop();
            });
            gen.run_closed(Duration::from_millis(100), 3);
        });
        assert!(
            gen.failed > 0,
            "the frames in flight when the server went away"
        );
        assert!(!gen.alive());
        assert!(t0.elapsed() < OP_TIMEOUT);
    }
}
