//! Client library with batched, pipelined queries.
//!
//! §7 of the paper: "Batched query support is vital on these benchmarks."
//! The client accumulates requests into a batch, sends them in one write,
//! and reads the positionally-matched responses. Keeping several batches
//! in flight ([`Client::send_batch`] without an immediate
//! [`Client::recv_batch`], or the [`Client::send_one`] /
//! [`Client::recv_one`] pair for single-op frames) hides round-trip
//! latency the way the paper's client aggregators drive the server —
//! and hands the event-loop server simultaneously-pending frames it can
//! aggregate across connections.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::proto::{
    frame_batch, read_batch, Request, Response, ScanResume, StatsExReply, StatsReply,
};

/// One `(key, columns)` row returned by scans.
pub type Row = (Vec<u8>, Vec<Vec<u8>>);

/// One `(key, column updates)` put within a client batch.
pub type PutSpec = (Vec<u8>, Vec<(u16, Vec<u8>)>);

/// A synchronous connection to a Masstree server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    pending: Vec<u8>,
    pending_count: usize,
    /// Batches in flight (their request counts, FIFO).
    in_flight: VecDeque<usize>,
}

impl Client {
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::with_capacity(1 << 20, conn.try_clone()?),
            writer: BufWriter::with_capacity(1 << 20, conn),
            pending: Vec::with_capacity(1 << 16),
            pending_count: 0,
            in_flight: VecDeque::new(),
        })
    }

    /// Queues a request into the current batch (no I/O yet).
    pub fn queue(&mut self, req: &Request) {
        req.encode(&mut self.pending);
        self.pending_count += 1;
    }

    /// Sends the current batch without waiting for its responses
    /// (pipelining). Returns the number of requests sent.
    pub fn send_batch(&mut self) -> std::io::Result<usize> {
        if self.pending_count == 0 {
            return Ok(0);
        }
        let framed = frame_batch(self.pending_count, &self.pending);
        self.writer.write_all(&framed)?;
        self.writer.flush()?;
        self.in_flight.push_back(self.pending_count);
        let n = self.pending_count;
        self.pending.clear();
        self.pending_count = 0;
        Ok(n)
    }

    /// Receives the oldest in-flight batch's responses.
    pub fn recv_batch(&mut self) -> std::io::Result<Vec<Response>> {
        let expected = self
            .in_flight
            .pop_front()
            .ok_or_else(|| std::io::Error::other("no batch in flight"))?;
        let Some((count, body)) = read_batch(&mut self.reader)? else {
            return Err(std::io::Error::other("server closed connection"));
        };
        if count as usize != expected {
            return Err(std::io::Error::other("response count mismatch"));
        }
        let mut p = &body[..];
        let mut out = Vec::with_capacity(expected);
        for _ in 0..expected {
            out.push(
                Response::decode(&mut p)
                    .ok_or_else(|| std::io::Error::other("malformed response"))?,
            );
        }
        Ok(out)
    }

    /// Number of batches currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Sends `req` immediately as its own single-request frame without
    /// waiting for the response — the building block of a pipelined
    /// point-op stream: prime `depth` frames with this, then alternate
    /// [`Client::recv_one`] / `send_one` to hold the depth steady. (A
    /// stream of single-op frames is also exactly the shape the
    /// event-loop server's cross-connection aggregation recovers batch
    /// throughput from.)
    pub fn send_one(&mut self, req: &Request) -> std::io::Result<()> {
        debug_assert_eq!(self.pending_count, 0, "send_one atop a queued batch");
        self.queue(req);
        self.send_batch()?;
        Ok(())
    }

    /// Receives the oldest in-flight single-request frame's response
    /// (counterpart of [`Client::send_one`]).
    pub fn recv_one(&mut self) -> std::io::Result<Response> {
        let mut resps = self.recv_batch()?;
        match resps.len() {
            1 => Ok(resps.pop().expect("len checked")),
            n => Err(std::io::Error::other(format!(
                "recv_one on a {n}-request frame"
            ))),
        }
    }

    /// Sends the current batch and waits for its responses.
    pub fn execute_batch(&mut self) -> std::io::Result<Vec<Response>> {
        self.send_batch()?;
        self.recv_batch()
    }

    // ---- convenience single-operation wrappers ----

    pub fn get(
        &mut self,
        key: &[u8],
        cols: Option<Vec<u16>>,
    ) -> std::io::Result<Option<Vec<Vec<u8>>>> {
        self.queue(&Request::Get {
            key: key.to_vec(),
            cols,
        });
        match self.execute_batch()?.pop() {
            Some(Response::Value(v)) => Ok(v),
            _ => Err(std::io::Error::other("unexpected response")),
        }
    }

    /// Errors with the server's message when it refuses the put.
    pub fn put(&mut self, key: &[u8], cols: Vec<(u16, Vec<u8>)>) -> std::io::Result<u64> {
        self.queue(&Request::Put {
            key: key.to_vec(),
            cols,
        });
        match self.execute_batch()?.pop() {
            Some(Response::PutOk(v)) => Ok(v),
            Some(Response::Err(msg)) => Err(std::io::Error::other(msg)),
            _ => Err(std::io::Error::other("unexpected response")),
        }
    }

    /// Sends one batch of gets and returns the positionally matched
    /// values. The server executes the whole batch through its
    /// interleaved traversal engine, so this is the fastest way to read
    /// many keys.
    pub fn multi_get(
        &mut self,
        keys: &[&[u8]],
        cols: Option<Vec<u16>>,
    ) -> std::io::Result<Vec<Option<Vec<Vec<u8>>>>> {
        for key in keys {
            self.queue(&Request::Get {
                key: key.to_vec(),
                cols: cols.clone(),
            });
        }
        self.execute_batch()?
            .into_iter()
            .map(|r| match r {
                Response::Value(v) => Ok(v),
                _ => Err(std::io::Error::other("unexpected response")),
            })
            .collect()
    }

    /// Sends one batch of single-column puts and returns the assigned
    /// value versions, positionally matched.
    pub fn multi_put(&mut self, ops: Vec<PutSpec>) -> std::io::Result<Vec<u64>> {
        for (key, cols) in ops {
            self.queue(&Request::Put { key, cols });
        }
        self.execute_batch()?
            .into_iter()
            .map(|r| match r {
                Response::PutOk(v) => Ok(v),
                Response::Err(msg) => Err(std::io::Error::other(msg)),
                _ => Err(std::io::Error::other("unexpected response")),
            })
            .collect()
    }

    /// Errors with the server's message when it refuses the remove.
    pub fn remove(&mut self, key: &[u8]) -> std::io::Result<bool> {
        self.queue(&Request::Remove { key: key.to_vec() });
        match self.execute_batch()?.pop() {
            Some(Response::RemoveOk(e)) => Ok(e),
            Some(Response::Err(msg)) => Err(std::io::Error::other(msg)),
            _ => Err(std::io::Error::other("unexpected response")),
        }
    }

    /// Reads the server's durability stats (checkpoint epoch, log
    /// bytes/segments). Tests poll this to wait for a background
    /// checkpoint instead of sleeping.
    pub fn stats(&mut self) -> std::io::Result<StatsReply> {
        self.queue(&Request::Stats);
        match self.execute_batch()?.pop() {
            Some(Response::Stats(s)) => Ok(s),
            _ => Err(std::io::Error::other("unexpected response")),
        }
    }

    /// Reads the server's observability snapshot: merged per-op-kind
    /// latency histograms (every worker's traffic, flushed on read)
    /// plus tracing gauges. Render percentiles client-side with
    /// `mtobs::HistSnapshot::percentile`, or deltas between two calls
    /// with `mtobs::Snapshot::delta`.
    pub fn stats_ex(&mut self) -> std::io::Result<StatsExReply> {
        self.queue(&Request::StatsEx);
        match self.execute_batch()?.pop() {
            Some(Response::StatsEx(s)) => Ok(s),
            _ => Err(std::io::Error::other("unexpected response")),
        }
    }

    /// Forces this connection's log, runs a full durability cycle on the
    /// server (checkpoint + log truncation + checkpoint pruning), and
    /// returns the stats afterwards.
    ///
    /// Errors if the server could not guarantee durability (its log
    /// writer died on an I/O error, or the checkpoint cycle failed) —
    /// a returned `StatsReply` really means the data is safe.
    pub fn flush(&mut self) -> std::io::Result<StatsReply> {
        self.queue(&Request::Flush);
        match self.execute_batch()?.pop() {
            Some(Response::Stats(s)) => Ok(s),
            Some(Response::Err(msg)) => Err(std::io::Error::other(msg)),
            _ => Err(std::io::Error::other("unexpected response")),
        }
    }

    /// Group-commit barrier: forces this connection's log on the server
    /// (everything this connection logged is durable when the reply
    /// arrives) **without** running a checkpoint cycle — the lightweight
    /// alternative to [`Client::flush`] for clients that only want
    /// durability confirmation of their own writes.
    ///
    /// Errors if the server's log writer died (an I/O error) — a
    /// returned `StatsReply` really means the writes are safe.
    pub fn sync(&mut self) -> std::io::Result<StatsReply> {
        self.queue(&Request::Sync);
        match self.execute_batch()?.pop() {
            Some(Response::Stats(s)) => Ok(s),
            Some(Response::Err(msg)) => Err(std::io::Error::other(msg)),
            _ => Err(std::io::Error::other("unexpected response")),
        }
    }

    pub fn scan(
        &mut self,
        key: &[u8],
        count: u32,
        cols: Option<Vec<u16>>,
    ) -> std::io::Result<Vec<Row>> {
        self.queue(&Request::Scan {
            key: key.to_vec(),
            count,
            cols,
            resume: None,
        });
        match self.execute_batch()?.pop() {
            Some(Response::Rows(rows)) => Ok(rows),
            _ => Err(std::io::Error::other("unexpected response")),
        }
    }

    /// Opens (or restarts) a resumable chunked scan: descends from
    /// `key` and registers the server-side cursor under the
    /// client-chosen `token`, overwriting any cursor the token already
    /// named. Follow-up chunks use [`Client::scan_resume`] with the
    /// same token. A short (< `count`) result means the range is
    /// exhausted. Tokens are scoped to this connection.
    pub fn scan_start(
        &mut self,
        key: &[u8],
        count: u32,
        cols: Option<Vec<u16>>,
        token: u64,
    ) -> std::io::Result<Vec<Row>> {
        self.scan_chunk(key, count, cols, ScanResume::Start(token))
    }

    /// Continues a resumable chunked scan opened with
    /// [`Client::scan_start`]: the server re-enters the tree at the
    /// remembered border node (zero descent). Strict: if the token has
    /// no live cursor — never started on this connection (e.g. after a
    /// reconnect; tokens are connection-scoped) or evicted at the
    /// server's per-connection cursor cap — this errors with
    /// `"unknown scan token"` instead of silently restarting. Recover
    /// by calling `scan_start` at the stream's continuation key (one
    /// past the last row received), which costs one descent.
    pub fn scan_resume(
        &mut self,
        key: &[u8],
        count: u32,
        cols: Option<Vec<u16>>,
        token: u64,
    ) -> std::io::Result<Vec<Row>> {
        self.scan_chunk(key, count, cols, ScanResume::Resume(token))
    }

    fn scan_chunk(
        &mut self,
        key: &[u8],
        count: u32,
        cols: Option<Vec<u16>>,
        resume: ScanResume,
    ) -> std::io::Result<Vec<Row>> {
        self.queue(&Request::Scan {
            key: key.to_vec(),
            count,
            cols,
            resume: Some(resume),
        });
        match self.execute_batch()?.pop() {
            Some(Response::Rows(rows)) => Ok(rows),
            Some(Response::Err(msg)) => Err(std::io::Error::other(msg)),
            _ => Err(std::io::Error::other("unexpected response")),
        }
    }
}
