//! Wire protocol for the Masstree server (§3 of the paper).
//!
//! "A single client message can include many queries": requests travel in
//! length-prefixed **batches**, and the client library pipelines batches,
//! which §7 shows is vital for small-operation throughput. All integers
//! little-endian.
//!
//! ```text
//! batch  := u32 byte-length, u32 count, message*
//! get    := 0x01, key, colset
//! put    := 0x02, key, u16 n, (u16 col, bytes)*
//! remove := 0x03, key
//! scan   := 0x04, key, u32 count, colset,
//!           resume(u8 0 | u8 1 + u64 token | u8 2 + u64 token)
//! stats  := 0x05
//! flush  := 0x06
//! sync   := 0x07
//! statsex:= 0x08
//! key    := u32 len, bytes        colset := u16 n (0xffff = all), u16*
//! ```
//!
//! `stats`, `flush` and `sync` are the admin requests: `stats` reports
//! the server's checkpoint epoch, log footprint and hot-cache counters;
//! `flush` forces this connection's log, runs a full durability cycle
//! (checkpoint + segment truncation + checkpoint pruning) and reports
//! the stats afterwards — tests use it to wait for durability events
//! instead of sleeping; `sync` is the lightweight group-commit barrier:
//! it only forces this connection's log (no checkpoint, no truncation),
//! serving clients that just want durability confirmation of their own
//! writes without paying for a whole cycle.
//!
//! Requests have two forms: the owned [`Request`] clients build, and
//! [`RequestRef`], the same request with its key, column selection and
//! column data **borrowed** — which is what the server decodes frames
//! into, straight over the connection's read buffer. There is one
//! parser ([`RequestRef::decode`]); `Request::decode` copies its result.

/// How a `Scan` request relates to a server-side cursor token.
///
/// The two variants make the client's intent explicit on the wire so a
/// reconnected client can never silently adopt another connection's
/// cursor (tokens are connection-scoped, and a fresh connection starts
/// with none):
///
/// * [`ScanResume::Start`] — begin (or restart) a stream under this
///   token: the server descends from the request key and **overwrites**
///   any cursor previously registered under the token.
/// * [`ScanResume::Resume`] — continue a stream: the server requires a
///   live cursor under the token and replies [`Response::Err`]
///   (`"unknown scan token"`) when there is none — first chunk never
///   sent `Start`, cursor evicted at the per-connection LRU cap, or the
///   connection was re-established. The request key is *not* used as a
///   fallback start; the client must recover explicitly with `Start` at
///   its continuation key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanResume {
    /// Register/overwrite the cursor under the token, starting at the
    /// request key.
    Start(u64),
    /// Continue from the cursor under the token; error if absent.
    Resume(u64),
}

impl ScanResume {
    /// The client-chosen token, whichever the variant.
    pub fn token(self) -> u64 {
        match self {
            ScanResume::Start(t) | ScanResume::Resume(t) => t,
        }
    }
}

/// A client request (one query within a batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `get_c(k)`: fetch the listed columns (`None` = whole value).
    Get {
        key: Vec<u8>,
        cols: Option<Vec<u16>>,
    },
    /// `put_c(k, v)`: atomically set the listed columns.
    Put {
        key: Vec<u8>,
        cols: Vec<(u16, Vec<u8>)>,
    },
    /// `remove(k)`.
    Remove { key: Vec<u8> },
    /// `getrange_c(k, n)`, optionally resumable: a client streaming a
    /// long range in chunks opens the stream with
    /// [`ScanResume::Start`] and continues it with
    /// [`ScanResume::Resume`] under the same client-chosen token. The
    /// server keeps a per-connection [`ScanCursor`] (validated anchor
    /// plus bound) under that token — `Resume` chunks re-enter the tree
    /// at the remembered border node instead of descending from the
    /// root. `Resume` with no live cursor (evicted, never started, or
    /// a new connection) is a typed error, never a silent restart —
    /// the client recovers with `Start` at its continuation key (one
    /// past the last row received), costing one descent. Tokens are
    /// connection-scoped.
    ///
    /// [`ScanCursor`]: mtkv::ScanCursor
    Scan {
        key: Vec<u8>,
        count: u32,
        cols: Option<Vec<u16>>,
        resume: Option<ScanResume>,
    },
    /// Durability stats snapshot (checkpoint epoch, log bytes).
    Stats,
    /// Force this connection's log, run a full durability cycle
    /// (checkpoint + truncate + prune), and report the stats afterwards.
    /// Replies [`Response::Err`] instead when durability could not be
    /// guaranteed (dead log, failed checkpoint).
    Flush,
    /// Group-commit barrier only: force this connection's log and report
    /// the stats — no checkpoint, no truncation. Replies
    /// [`Response::Err`] when the log is dead (durability cannot be
    /// confirmed).
    Sync,
    /// Extended observability snapshot: merged per-op-kind latency
    /// histograms and tracing gauges ([`Response::StatsEx`]). Unlike
    /// `Stats` this carries full distributions, so clients can render
    /// p50/p90/p99/p999 and deltas without server-side aggregation.
    StatsEx,
}

/// A get's or scan's column selection, borrowed: the ids as they sit on
/// the wire (unaligned little-endian `u16`s), or an owned request's list.
#[derive(Debug, Clone, Copy)]
pub enum ColIds<'a> {
    Wire(&'a [u8]),
    Owned(&'a [u16]),
}

impl<'a> ColIds<'a> {
    pub fn len(&self) -> usize {
        match self {
            ColIds::Wire(bytes) => bytes.len() / 2,
            ColIds::Owned(ids) => ids.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn iter(&self) -> ColIdsIter<'a> {
        ColIdsIter(*self)
    }
}

/// Iterator over a [`ColIds`] selection.
pub struct ColIdsIter<'a>(ColIds<'a>);

impl Iterator for ColIdsIter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        match &mut self.0 {
            ColIds::Wire(bytes) => {
                let (id, rest) = bytes.split_first_chunk::<2>()?;
                *bytes = rest;
                Some(u16::from_le_bytes(*id))
            }
            ColIds::Owned(ids) => {
                let (id, rest) = ids.split_first()?;
                *ids = rest;
                Some(*id)
            }
        }
    }
}

/// A put's column updates, borrowed: the `(u16 col, bytes)*` section as
/// it sits on the wire (validated by [`RequestRef::decode`]), or an
/// owned request's list.
#[derive(Debug, Clone, Copy)]
pub enum PutCols<'a> {
    Wire { count: usize, bytes: &'a [u8] },
    Owned(&'a [(u16, Vec<u8>)]),
}

impl<'a> PutCols<'a> {
    pub fn len(&self) -> usize {
        match self {
            PutCols::Wire { count, .. } => *count,
            PutCols::Owned(cols) => cols.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn iter(&self) -> PutColsIter<'a> {
        PutColsIter(*self)
    }
}

/// Iterator over a [`PutCols`] update list.
pub struct PutColsIter<'a>(PutCols<'a>);

impl<'a> Iterator for PutColsIter<'a> {
    type Item = (u16, &'a [u8]);

    fn next(&mut self) -> Option<(u16, &'a [u8])> {
        match &mut self.0 {
            PutCols::Wire { count, bytes } => {
                *count = count.checked_sub(1)?;
                let id = get_u16(bytes)?;
                Some((id, get_bytes(bytes)?))
            }
            PutCols::Owned(cols) => {
                let ((id, data), rest) = cols.split_first()?;
                *cols = rest;
                Some((*id, data))
            }
        }
    }
}

/// A [`Request`] whose keys, column selections and column data are
/// **borrowed** — from the connection's read buffer on the server's hot
/// path ([`RequestRef::decode`] copies nothing), or from an owned
/// request ([`Request::borrowed`]). The server's executors run on this
/// type, so a served put costs no allocation before its value is built.
#[derive(Debug, Clone, Copy)]
pub enum RequestRef<'a> {
    Get {
        key: &'a [u8],
        cols: Option<ColIds<'a>>,
    },
    Put {
        key: &'a [u8],
        cols: PutCols<'a>,
    },
    Remove {
        key: &'a [u8],
    },
    Scan {
        key: &'a [u8],
        count: u32,
        cols: Option<ColIds<'a>>,
        resume: Option<ScanResume>,
    },
    Stats,
    Flush,
    Sync,
    StatsEx,
}

/// The durability snapshot carried by [`Response::Stats`]; mirrors
/// `mtkv::DurabilityStats` plus the cache, value-tier and batch counters
/// and per-worker connection counters.
///
/// Wire format is **self-describing** so mixed-version client/server
/// pairs degrade gracefully instead of misparsing when a release adds
/// counters:
///
/// ```text
/// stats_reply := u16 nfields, u64 × nfields, u32 nworkers, u64 × nworkers
/// ```
///
/// The fixed `u64` counters appear in declaration order and are only
/// ever **appended** to; a decoder fills the fields it knows, zeroes
/// the ones an older peer didn't send, and skips the ones a newer peer
/// added. Retired counters keep their wire slots: slots 12–15, which
/// carried replication role, followers and lag, are sent as zeros and
/// skipped on decode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Checkpoints completed this server lifetime (the epoch tests wait
    /// on).
    pub checkpoints: u64,
    /// `start_ts` of the newest completed checkpoint (0 if none).
    pub last_checkpoint_start_ts: u64,
    /// Total bytes across live log segments.
    pub log_bytes: u64,
    /// Live log segment files.
    pub log_segments: u64,
    /// Segments deleted by checkpoint truncation this lifetime.
    pub segments_truncated: u64,
    /// Hot-path cache tier: hint-table lookups across all sessions.
    pub cache_lookups: u64,
    /// Hot-path cache tier: lookups served by a validated hint (zero
    /// descent).
    pub cache_hits: u64,
    /// Hot-path cache tier: hints that failed validation (split, delete,
    /// reuse) and fell back to a full descent.
    pub cache_stale: u64,
    /// Retired, always 0: writes no longer route through the hint
    /// cache. The slot stays because reply fields are positional and
    /// append-only.
    pub cache_write_hits: u64,
    /// Retired, always 0 (see `cache_write_hits`).
    pub cache_write_stale: u64,
    /// Resumable scans: resume-token chunks whose explicit cursor
    /// re-entered at its validated anchor (zero descent). Counted
    /// store-wide, with or without a session hint cache.
    pub cache_scan_resumes: u64,
    /// Resumable scans: token cursors evicted least-recently-used at the
    /// per-connection cap (each eviction costs its stream one descent on
    /// resume).
    pub cache_scan_evictions: u64,
    /// Value tier: reads that resolved an indirect (value-separated)
    /// pointer record. 0 when value separation is off.
    pub indirect_reads: u64,
    /// Value tier: indirect reads served from the decoded-value cache.
    pub value_cache_hits: u64,
    /// Value tier: payload bytes relocated by segment GC this lifetime.
    pub gc_rewritten_bytes: u64,
    /// Value tier: live (referenced) bytes across all value segments.
    pub live_segment_bytes: u64,
    /// Value tier: batched cold resolutions (`resolve_many` calls) that
    /// missed the cache and issued clustered segment reads.
    pub readahead_batches: u64,
    /// Value tier: bytes fetched by clustered (coalesced) segment reads
    /// — payloads plus the gaps dragged along with them.
    pub coalesced_bytes: u64,
    /// Value tier: cold misses that shared another reader's in-flight
    /// segment read instead of issuing their own.
    pub shared_misses: u64,
    /// Batch execution: phases run by the batch executor — each is at
    /// most one merged put run, one merged get run and its barrier
    /// requests.
    pub phases: u64,
    /// Batch execution: phases that exist only because one client
    /// touched the same key twice with a write involved (summed per
    /// connection). `conflict_splits / phases` near zero means batches
    /// merge as far as barriers allow.
    pub conflict_splits: u64,
    /// Live connection count per event-loop worker (index = worker id);
    /// the accept-time rebalancer keeps these near-equal under uniform
    /// load. Empty when the backend is not the event-loop server.
    pub worker_conns: Vec<u64>,
}

impl StatsReply {
    /// Fixed `u64` counters this version knows, in wire order. New
    /// counters are appended (never inserted or removed), and the wire
    /// carries the sender's count so either side can be older.
    const NFIELDS: u16 = 25;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&Self::NFIELDS.to_le_bytes());
        for v in [
            self.checkpoints,
            self.last_checkpoint_start_ts,
            self.log_bytes,
            self.log_segments,
            self.segments_truncated,
            self.cache_lookups,
            self.cache_hits,
            self.cache_stale,
            self.cache_write_hits,
            self.cache_write_stale,
            self.cache_scan_resumes,
            self.cache_scan_evictions,
            // Retired slots 12–15 (replication).
            0,
            0,
            0,
            0,
            self.indirect_reads,
            self.value_cache_hits,
            self.gc_rewritten_bytes,
            self.live_segment_bytes,
            self.readahead_batches,
            self.coalesced_bytes,
            self.shared_misses,
            self.phases,
            self.conflict_splits,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.worker_conns.len() as u32).to_le_bytes());
        for v in &self.worker_conns {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode(p: &mut &[u8]) -> Option<StatsReply> {
        let nf = u16::from_le_bytes(p.get(..2)?.try_into().ok()?) as usize;
        *p = &p[2..];
        // Fields an older sender omitted stay zero; fields a newer
        // sender appended are consumed and dropped.
        let mut f = [0u64; Self::NFIELDS as usize];
        for j in 0..nf {
            let v = u64::from_le_bytes(p.get(..8)?.try_into().ok()?);
            *p = &p[8..];
            if let Some(slot) = f.get_mut(j) {
                *slot = v;
            }
        }
        let n = u32::from_le_bytes(p.get(..4)?.try_into().ok()?) as usize;
        *p = &p[4..];
        let mut worker_conns = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            worker_conns.push(u64::from_le_bytes(p.get(..8)?.try_into().ok()?));
            *p = &p[8..];
        }
        Some(StatsReply {
            checkpoints: f[0],
            last_checkpoint_start_ts: f[1],
            log_bytes: f[2],
            log_segments: f[3],
            segments_truncated: f[4],
            cache_lookups: f[5],
            cache_hits: f[6],
            cache_stale: f[7],
            cache_write_hits: f[8],
            cache_write_stale: f[9],
            cache_scan_resumes: f[10],
            cache_scan_evictions: f[11],
            indirect_reads: f[16],
            value_cache_hits: f[17],
            gc_rewritten_bytes: f[18],
            live_segment_bytes: f[19],
            readahead_batches: f[20],
            coalesced_bytes: f[21],
            shared_misses: f[22],
            phases: f[23],
            conflict_splits: f[24],
            worker_conns,
        })
    }
}

/// The observability snapshot carried by [`Response::StatsEx`]: one
/// merged latency histogram per [`mtobs::Kind`] plus tracing gauges.
///
/// Wire format is sparse — latency histograms are mostly zeros (156
/// log-spaced buckets, a handful populated), so each kind encodes only
/// its nonzero buckets:
///
/// ```text
/// statsex_reply := u64 traces_sampled, u64 slow_ops,
///                  u8 nkinds, kind_hist*
/// kind_hist     := u8 kind, u64 sum_ns, u16 nbuckets,
///                  (u8 bucket_idx, u64 count)*
/// ```
///
/// Kinds whose histogram is entirely empty are omitted; the decoder
/// reconstructs them as empty, so encode→decode is identity on any
/// snapshot with [`mtobs::Kind::COUNT`] histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsExReply {
    /// Merged per-kind histograms and gauges (index = `mtobs::Kind`).
    pub snap: mtobs::Snapshot,
}

impl Default for StatsExReply {
    fn default() -> Self {
        StatsExReply {
            snap: mtobs::Snapshot::empty(),
        }
    }
}

impl StatsExReply {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.snap.traces_sampled.to_le_bytes());
        out.extend_from_slice(&self.snap.slow_ops.to_le_bytes());
        let kinds_mark = out.len();
        out.push(0);
        let mut nkinds = 0u8;
        for (k, h) in self.snap.hists.iter().enumerate() {
            if h.sum == 0 && h.count() == 0 {
                continue;
            }
            out.push(k as u8);
            out.extend_from_slice(&h.sum.to_le_bytes());
            let nb_mark = out.len();
            out.extend_from_slice(&0u16.to_le_bytes());
            let mut nb = 0u16;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c != 0 {
                    out.push(i as u8);
                    out.extend_from_slice(&c.to_le_bytes());
                    nb += 1;
                }
            }
            out[nb_mark..nb_mark + 2].copy_from_slice(&nb.to_le_bytes());
            nkinds += 1;
        }
        out[kinds_mark] = nkinds;
    }

    fn decode(p: &mut &[u8]) -> Option<StatsExReply> {
        let mut snap = mtobs::Snapshot::empty();
        snap.traces_sampled = u64::from_le_bytes(p.get(..8)?.try_into().ok()?);
        *p = &p[8..];
        snap.slow_ops = u64::from_le_bytes(p.get(..8)?.try_into().ok()?);
        *p = &p[8..];
        let nkinds = *p.first()?;
        *p = &p[1..];
        for _ in 0..nkinds {
            let k = *p.first()? as usize;
            *p = &p[1..];
            let sum = u64::from_le_bytes(p.get(..8)?.try_into().ok()?);
            *p = &p[8..];
            let nb = u16::from_le_bytes(p.get(..2)?.try_into().ok()?);
            *p = &p[2..];
            let h = snap.hists.get_mut(k)?;
            h.sum = sum;
            for _ in 0..nb {
                let i = *p.first()? as usize;
                *p = &p[1..];
                let c = u64::from_le_bytes(p.get(..8)?.try_into().ok()?);
                *p = &p[8..];
                *h.buckets.get_mut(i)? = c;
            }
        }
        Some(StatsExReply { snap })
    }
}

/// A server response (positionally matched to the request batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Get result: `None` = key absent.
    Value(Option<Vec<Vec<u8>>>),
    /// Put result: the value version assigned.
    PutOk(u64),
    /// Remove result: whether the key existed.
    RemoveOk(bool),
    /// Scan result rows.
    Rows(Vec<(Vec<u8>, Vec<Vec<u8>>)>),
    /// Durability stats (reply to `Stats` and `Flush`).
    Stats(StatsReply),
    /// Observability snapshot (reply to `StatsEx`): per-kind latency
    /// histograms plus tracing gauges.
    StatsEx(StatsExReply),
    /// Request failed server-side: a `Flush`/`Sync` whose log is dead
    /// (I/O error) or whose durability cycle failed — so a client never
    /// receives a stats reply acknowledging durability that did not
    /// happen — a `Scan` resuming an unknown token, or a batch frame
    /// the server refused to parse (oversized or corrupt).
    Err(String),
    /// A write refused with the address of the server that takes it.
    /// No server sends it any more: it was a read-only follower's
    /// answer, and replication is gone. The variant and its codec stay
    /// until a change to the benchmark, whose reply checker still
    /// matches it, retires it.
    Redirect(String),
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn get_u16(p: &mut &[u8]) -> Option<u16> {
    let (v, rest) = p.split_first_chunk::<2>()?;
    *p = rest;
    Some(u16::from_le_bytes(*v))
}

fn get_u32(p: &mut &[u8]) -> Option<u32> {
    let (v, rest) = p.split_first_chunk::<4>()?;
    *p = rest;
    Some(u32::from_le_bytes(*v))
}

fn get_u64(p: &mut &[u8]) -> Option<u64> {
    let (v, rest) = p.split_first_chunk::<8>()?;
    *p = rest;
    Some(u64::from_le_bytes(*v))
}

/// Splits `n` bytes off the front of `p`.
fn take<'a>(p: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, rest) = p.split_at_checked(n)?;
    *p = rest;
    Some(head)
}

/// A `u32`-length-prefixed byte string, borrowed from `p`.
fn get_bytes<'a>(p: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = get_u32(p)? as usize;
    take(p, len)
}

fn put_colset(out: &mut Vec<u8>, cols: &Option<Vec<u16>>) {
    match cols {
        None => out.extend_from_slice(&0xffffu16.to_le_bytes()),
        Some(ids) => {
            out.extend_from_slice(&(ids.len() as u16).to_le_bytes());
            for id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
    }
}

fn get_colset<'a>(p: &mut &'a [u8]) -> Option<Option<ColIds<'a>>> {
    let n = get_u16(p)?;
    if n == 0xffff {
        return Some(None);
    }
    Some(Some(ColIds::Wire(take(p, 2 * n as usize)?)))
}

impl Request {
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Get { key, cols } => {
                out.push(0x01);
                put_bytes(out, key);
                put_colset(out, cols);
            }
            Request::Put { key, cols } => {
                out.push(0x02);
                put_bytes(out, key);
                out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
                for (id, data) in cols {
                    out.extend_from_slice(&id.to_le_bytes());
                    put_bytes(out, data);
                }
            }
            Request::Remove { key } => {
                out.push(0x03);
                put_bytes(out, key);
            }
            Request::Scan {
                key,
                count,
                cols,
                resume,
            } => {
                out.push(0x04);
                put_bytes(out, key);
                out.extend_from_slice(&count.to_le_bytes());
                put_colset(out, cols);
                match resume {
                    None => out.push(0),
                    Some(ScanResume::Resume(token)) => {
                        out.push(1);
                        out.extend_from_slice(&token.to_le_bytes());
                    }
                    Some(ScanResume::Start(token)) => {
                        out.push(2);
                        out.extend_from_slice(&token.to_le_bytes());
                    }
                }
            }
            Request::Stats => out.push(0x05),
            Request::Flush => out.push(0x06),
            Request::Sync => out.push(0x07),
            Request::StatsEx => out.push(0x08),
        }
    }

    /// Decodes one request, copying its payload out of `p`.
    pub fn decode(p: &mut &[u8]) -> Option<Request> {
        RequestRef::decode(p).map(|r| r.to_owned())
    }

    /// This request as a [`RequestRef`] borrowing its payload.
    pub fn borrowed(&self) -> RequestRef<'_> {
        match self {
            Request::Get { key, cols } => RequestRef::Get {
                key,
                cols: cols.as_deref().map(ColIds::Owned),
            },
            Request::Put { key, cols } => RequestRef::Put {
                key,
                cols: PutCols::Owned(cols),
            },
            Request::Remove { key } => RequestRef::Remove { key },
            Request::Scan {
                key,
                count,
                cols,
                resume,
            } => RequestRef::Scan {
                key,
                count: *count,
                cols: cols.as_deref().map(ColIds::Owned),
                resume: *resume,
            },
            Request::Stats => RequestRef::Stats,
            Request::Flush => RequestRef::Flush,
            Request::Sync => RequestRef::Sync,
            Request::StatsEx => RequestRef::StatsEx,
        }
    }
}

impl<'a> RequestRef<'a> {
    /// Decodes one request from the front of `p` without copying: keys,
    /// column selections and column data stay slices of `p`. The one
    /// request parser — [`Request::decode`] is this plus
    /// [`RequestRef::to_owned`].
    pub fn decode(p: &mut &'a [u8]) -> Option<RequestRef<'a>> {
        let (&op, rest) = p.split_first()?;
        *p = rest;
        match op {
            0x01 => Some(RequestRef::Get {
                key: get_bytes(p)?,
                cols: get_colset(p)?,
            }),
            0x02 => {
                let key = get_bytes(p)?;
                let count = get_u16(p)? as usize;
                // Walk the updates once to find where they end (and
                // that they are all there); iteration re-walks them.
                let section = *p;
                for _ in 0..count {
                    get_u16(p)?;
                    get_bytes(p)?;
                }
                let bytes = &section[..section.len() - p.len()];
                Some(RequestRef::Put {
                    key,
                    cols: PutCols::Wire { count, bytes },
                })
            }
            0x03 => Some(RequestRef::Remove { key: get_bytes(p)? }),
            0x04 => {
                let key = get_bytes(p)?;
                let count = get_u32(p)?;
                let cols = get_colset(p)?;
                let resume = match take(p, 1)?[0] {
                    0 => None,
                    1 => Some(ScanResume::Resume(get_u64(p)?)),
                    2 => Some(ScanResume::Start(get_u64(p)?)),
                    _ => return None,
                };
                Some(RequestRef::Scan {
                    key,
                    count,
                    cols,
                    resume,
                })
            }
            0x05 => Some(RequestRef::Stats),
            0x06 => Some(RequestRef::Flush),
            0x07 => Some(RequestRef::Sync),
            0x08 => Some(RequestRef::StatsEx),
            _ => None,
        }
    }

    /// Copies the borrowed payload into an owned [`Request`].
    pub fn to_owned(&self) -> Request {
        let ids = |cols: &Option<ColIds<'_>>| cols.map(|c| c.iter().collect());
        match self {
            RequestRef::Get { key, cols } => Request::Get {
                key: key.to_vec(),
                cols: ids(cols),
            },
            RequestRef::Put { key, cols } => Request::Put {
                key: key.to_vec(),
                cols: cols.iter().map(|(id, d)| (id, d.to_vec())).collect(),
            },
            RequestRef::Remove { key } => Request::Remove { key: key.to_vec() },
            RequestRef::Scan {
                key,
                count,
                cols,
                resume,
            } => Request::Scan {
                key: key.to_vec(),
                count: *count,
                cols: ids(cols),
                resume: *resume,
            },
            RequestRef::Stats => Request::Stats,
            RequestRef::Flush => Request::Flush,
            RequestRef::Sync => Request::Sync,
            RequestRef::StatsEx => Request::StatsEx,
        }
    }
}

impl Response {
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Value(None) => out.push(0x80),
            Response::Value(Some(cols)) => {
                out.push(0x81);
                out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
                for c in cols {
                    put_bytes(out, c);
                }
            }
            Response::PutOk(version) => {
                out.push(0x82);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Response::RemoveOk(existed) => {
                out.push(0x83);
                out.push(*existed as u8);
            }
            Response::Rows(rows) => {
                out.push(0x84);
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for (key, cols) in rows {
                    put_bytes(out, key);
                    out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
                    for c in cols {
                        put_bytes(out, c);
                    }
                }
            }
            Response::Stats(stats) => {
                out.push(0x85);
                stats.encode(out);
            }
            Response::Err(msg) => {
                out.push(0x86);
                put_bytes(out, msg.as_bytes());
            }
            Response::Redirect(msg) => {
                out.push(0x87);
                put_bytes(out, msg.as_bytes());
            }
            Response::StatsEx(stats) => {
                out.push(0x88);
                stats.encode(out);
            }
        }
    }

    pub fn decode(p: &mut &[u8]) -> Option<Response> {
        let op = *p.first()?;
        *p = &p[1..];
        match op {
            0x80 => Some(Response::Value(None)),
            0x81 => {
                let n = u16::from_le_bytes(p.get(..2)?.try_into().ok()?) as usize;
                *p = &p[2..];
                let mut cols = Vec::with_capacity(n);
                for _ in 0..n {
                    cols.push(get_bytes(p)?.to_vec());
                }
                Some(Response::Value(Some(cols)))
            }
            0x82 => {
                let v = u64::from_le_bytes(p.get(..8)?.try_into().ok()?);
                *p = &p[8..];
                Some(Response::PutOk(v))
            }
            0x83 => {
                let e = *p.first()?;
                *p = &p[1..];
                Some(Response::RemoveOk(e != 0))
            }
            0x84 => {
                let n = u32::from_le_bytes(p.get(..4)?.try_into().ok()?) as usize;
                *p = &p[4..];
                let mut rows = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let key = get_bytes(p)?.to_vec();
                    let nc = u16::from_le_bytes(p.get(..2)?.try_into().ok()?) as usize;
                    *p = &p[2..];
                    let mut cols = Vec::with_capacity(nc);
                    for _ in 0..nc {
                        cols.push(get_bytes(p)?.to_vec());
                    }
                    rows.push((key, cols));
                }
                Some(Response::Rows(rows))
            }
            0x85 => Some(Response::Stats(StatsReply::decode(p)?)),
            0x86 => Some(Response::Err(
                String::from_utf8_lossy(get_bytes(p)?).into_owned(),
            )),
            0x87 => Some(Response::Redirect(
                String::from_utf8_lossy(get_bytes(p)?).into_owned(),
            )),
            0x88 => Some(Response::StatsEx(StatsExReply::decode(p)?)),
            _ => None,
        }
    }
}

/// Frames a batch of encoded messages: `u32 len, u32 count, body`.
pub fn frame_batch(count: usize, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&(body.len() as u32 + 4).to_le_bytes());
    out.extend_from_slice(&(count as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

// ---- zero-copy response writers ----
//
// The server's hot read path serializes responses *directly* from
// value slices borrowed under the store's epoch guard into the
// connection's reusable output buffer. These helpers write the same
// wire bytes as `Response::encode` / `frame_batch` without ever
// building a `Response` (and its owned `Vec<Vec<u8>>` payload copies):
// the frame header is reserved up front and **length-patched** once the
// batch is fully encoded.

/// Reserves a batch frame header (`u32 len, u32 count`) in `out`,
/// returning the patch mark to pass to [`finish_batch`].
pub fn begin_batch(out: &mut Vec<u8>) -> usize {
    let mark = out.len();
    out.extend_from_slice(&[0u8; 8]);
    mark
}

/// Patches the header reserved by [`begin_batch`] once the `count`
/// responses have been encoded after it. The resulting bytes are
/// exactly what `frame_batch(count, body)` would have produced.
#[allow(clippy::ptr_arg)] // symmetry with begin_batch, which must grow the Vec
pub fn finish_batch(out: &mut Vec<u8>, mark: usize, count: usize) {
    let len = (out.len() - mark - 4) as u32;
    out[mark..mark + 4].copy_from_slice(&len.to_le_bytes());
    out[mark + 4..mark + 8].copy_from_slice(&(count as u32).to_le_bytes());
}

/// Encodes `Response::Value(None)` (key absent).
pub fn write_value_none(out: &mut Vec<u8>) {
    out.push(0x80);
}

/// Encodes `Response::Value(Some(..))` straight from borrowed column
/// slices. `ncols` must equal the number of items `cols` yields.
pub fn write_value_borrowed<'a>(
    out: &mut Vec<u8>,
    ncols: usize,
    cols: impl Iterator<Item = &'a [u8]>,
) {
    out.push(0x81);
    out.extend_from_slice(&(ncols as u16).to_le_bytes());
    let mut written = 0usize;
    for c in cols {
        put_bytes(out, c);
        written += 1;
    }
    debug_assert_eq!(written, ncols, "column count must match the iterator");
}

/// Incremental encoder for `Response::Rows`, writing each row straight
/// from borrowed key/column slices; the row count is length-patched on
/// [`RowsWriter::finish`].
pub struct RowsWriter<'a> {
    out: &'a mut Vec<u8>,
    mark: usize,
    rows: u32,
}

impl<'a> RowsWriter<'a> {
    pub fn begin(out: &'a mut Vec<u8>) -> RowsWriter<'a> {
        out.push(0x84);
        let mark = out.len();
        out.extend_from_slice(&0u32.to_le_bytes());
        RowsWriter { out, mark, rows: 0 }
    }

    /// Appends one row. `ncols` must equal the number of items `cols`
    /// yields.
    pub fn push_row<'b>(&mut self, key: &[u8], ncols: usize, cols: impl Iterator<Item = &'b [u8]>) {
        put_bytes(self.out, key);
        self.out.extend_from_slice(&(ncols as u16).to_le_bytes());
        let mut written = 0usize;
        for c in cols {
            put_bytes(self.out, c);
            written += 1;
        }
        debug_assert_eq!(written, ncols, "column count must match the iterator");
        self.rows += 1;
    }

    /// Patches the row count into the header written by `begin`.
    pub fn finish(self) {
        self.out[self.mark..self.mark + 4].copy_from_slice(&self.rows.to_le_bytes());
    }
}

/// Parses one complete batch frame from the front of `buf` without
/// consuming or copying: `Ok(Some((consumed, count)))` when a whole
/// frame is present — its `count` messages are the bytes
/// `buf[8..consumed]` — `Ok(None)` when more bytes are needed, and
/// `Err` on a corrupt length prefix. The event-loop server's frame
/// accumulator; the byte layout is exactly what [`read_batch`] reads
/// from a stream.
pub fn parse_batch_frame(buf: &[u8]) -> std::io::Result<Option<(usize, u32)>> {
    let Some(len4) = buf.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(len4.try_into().unwrap()) as usize;
    if !(4..=256 << 20).contains(&len) {
        return Err(std::io::Error::other("bad frame length"));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let count = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    Ok(Some((4 + len, count)))
}

/// Reads a whole batch frame from a stream; `Ok(None)` on clean EOF.
pub fn read_batch<R: std::io::Read>(r: &mut R) -> std::io::Result<Option<(u32, Vec<u8>)>> {
    let mut len4 = [0u8; 4];
    match r.read_exact(&mut len4) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len4) as usize;
    if !(4..=256 << 20).contains(&len) {
        return Err(std::io::Error::other("bad frame length"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let count = u32::from_le_bytes(body[..4].try_into().unwrap());
    body.drain(..4);
    Ok(Some((count, body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let mut p = &buf[..];
        assert_eq!(Request::decode(&mut p), Some(r.clone()));
        assert!(p.is_empty());
        // The borrowed view of an owned request reads back the same.
        assert_eq!(r.borrowed().to_owned(), r);
    }

    fn roundtrip_resp(r: Response) {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let mut p = &buf[..];
        assert_eq!(Response::decode(&mut p), Some(r));
        assert!(p.is_empty());
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Get {
            key: b"k".to_vec(),
            cols: None,
        });
        roundtrip_req(Request::Get {
            key: vec![],
            cols: Some(vec![0, 3, 9]),
        });
        roundtrip_req(Request::Put {
            key: b"key\0binary".to_vec(),
            cols: vec![(0, b"a".to_vec()), (7, vec![])],
        });
        roundtrip_req(Request::Remove {
            key: b"gone".to_vec(),
        });
        roundtrip_req(Request::Scan {
            key: b"start".to_vec(),
            count: 100,
            cols: Some(vec![2]),
            resume: None,
        });
        roundtrip_req(Request::Scan {
            key: b"start".to_vec(),
            count: 7,
            cols: None,
            resume: Some(ScanResume::Resume(0xdead_beef_cafe_f00d)),
        });
        roundtrip_req(Request::Scan {
            key: b"start".to_vec(),
            count: 7,
            cols: None,
            resume: Some(ScanResume::Start(42)),
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Flush);
        roundtrip_req(Request::Sync);
        roundtrip_req(Request::StatsEx);
    }

    #[test]
    fn borrowed_decode_copies_nothing_and_bounds_every_length() {
        let mut buf = Vec::new();
        Request::Put {
            key: b"key".to_vec(),
            cols: vec![(2, b"two".to_vec()), (0, vec![])],
        }
        .encode(&mut buf);
        let mut p = &buf[..];
        let Some(RequestRef::Put { key, cols }) = RequestRef::decode(&mut p) else {
            panic!("put decodes");
        };
        assert!(p.is_empty());
        let inside = |s: &[u8]| buf.as_ptr_range().contains(&s.as_ptr());
        assert!(inside(key), "the key is a slice of the input");
        assert_eq!(cols.len(), 2);
        let cols: Vec<(u16, &[u8])> = cols.iter().collect();
        assert_eq!(cols, vec![(2, &b"two"[..]), (0, &b""[..])]);
        assert!(inside(cols[0].1));

        // A column count or length the body does not back is refused up
        // front — iteration can then never run off the end.
        let mut lying = buf.clone();
        lying[1 + 4 + 3] = 3; // claims three updates, carries two
        assert!(RequestRef::decode(&mut &lying[..]).is_none());
        let mut get = Vec::new();
        Request::Get {
            key: b"k".to_vec(),
            cols: Some(vec![1, 2, 3]),
        }
        .encode(&mut get);
        assert!(RequestRef::decode(&mut &get[..get.len() - 1]).is_none());
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Value(None));
        roundtrip_resp(Response::Value(Some(vec![b"a".to_vec(), vec![]])));
        roundtrip_resp(Response::PutOk(u64::MAX));
        roundtrip_resp(Response::RemoveOk(true));
        roundtrip_resp(Response::Rows(vec![
            (b"k1".to_vec(), vec![b"v1".to_vec()]),
            (b"k2".to_vec(), vec![b"v2".to_vec(), b"w2".to_vec()]),
        ]));
        roundtrip_resp(Response::Stats(StatsReply {
            checkpoints: 3,
            last_checkpoint_start_ts: u64::MAX - 1,
            log_bytes: 1 << 40,
            log_segments: 17,
            segments_truncated: 9,
            cache_lookups: 1_000_000,
            cache_hits: 900_000,
            cache_stale: 123,
            cache_write_hits: 55_000,
            cache_write_stale: 77,
            cache_scan_resumes: 4_321,
            cache_scan_evictions: 12,
            indirect_reads: 88_000,
            value_cache_hits: 70_500,
            gc_rewritten_bytes: 9 << 20,
            live_segment_bytes: 3 << 30,
            readahead_batches: 12_345,
            coalesced_bytes: 6 << 25,
            shared_misses: 432,
            phases: 90_000,
            conflict_splits: 1_234,
            worker_conns: vec![3, 0, 7, 1],
        }));
        roundtrip_resp(Response::Stats(StatsReply::default()));
        roundtrip_resp(Response::StatsEx(StatsExReply::default()));
        roundtrip_resp(Response::Err("log dead: No space left on device".into()));
        roundtrip_resp(Response::Err(String::new()));
        roundtrip_resp(Response::Redirect("primary at 127.0.0.1:7070".into()));
    }

    #[test]
    fn stats_reply_tolerates_field_count_skew() {
        // An older peer sends fewer fixed counters: the ones it never
        // heard of decode as zero, and worker_conns still lines up.
        let mut buf = vec![0x85];
        buf.extend_from_slice(&20u16.to_le_bytes());
        for v in 1..=20u64 {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&9u64.to_le_bytes());
        let mut p = &buf[..];
        let Some(Response::Stats(s)) = Response::decode(&mut p) else {
            panic!("old-peer stats frame must decode");
        };
        assert!(p.is_empty());
        assert_eq!(s.checkpoints, 1);
        assert_eq!(s.cache_scan_evictions, 12);
        // Slots 12–15 are retired: whatever an old peer sent there is
        // skipped, and the next field still lines up.
        assert_eq!(s.indirect_reads, 17);
        assert_eq!(s.live_segment_bytes, 20);
        assert_eq!(s.readahead_batches, 0);
        assert_eq!(s.coalesced_bytes, 0);
        assert_eq!(s.shared_misses, 0);
        assert_eq!(s.phases, 0);
        assert_eq!(s.worker_conns, vec![9]);

        // A newer peer appends counters we don't know: they are skipped
        // and worker_conns still lines up.
        let mut buf = vec![0x85];
        buf.extend_from_slice(&27u16.to_le_bytes());
        for v in 1..=27u64 {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut p = &buf[..];
        let Some(Response::Stats(s)) = Response::decode(&mut p) else {
            panic!("new-peer stats frame must decode");
        };
        assert!(p.is_empty());
        assert_eq!(s.shared_misses, 23);
        assert_eq!(s.conflict_splits, 25);
        assert!(s.worker_conns.is_empty());
    }

    #[test]
    fn retired_stats_slots_stay_on_the_wire_as_zeros() {
        // The reply is positional: slots 12–15 (replication, retired)
        // are still sent, as zeros, so every later counter keeps its
        // index for older peers.
        let mut buf = Vec::new();
        Response::Stats(StatsReply {
            cache_scan_evictions: 12,
            indirect_reads: 17,
            conflict_splits: 25,
            ..StatsReply::default()
        })
        .encode(&mut buf);
        assert_eq!(u16::from_le_bytes([buf[1], buf[2]]), StatsReply::NFIELDS);
        let slot = |j: usize| u64::from_le_bytes(buf[3 + 8 * j..][..8].try_into().unwrap());
        assert_eq!((slot(11), slot(16), slot(24)), (12, 17, 25));
        assert!((12..16).all(|j| slot(j) == 0));
    }

    #[test]
    fn statsex_roundtrips_populated_snapshot() {
        // Record into a real recorder so the snapshot exercises the
        // sparse encoding with realistic bucket spreads per kind.
        let obs = std::sync::Arc::new(mtobs::Obs::default());
        let rec = obs.recorder();
        for i in 0..1000u64 {
            rec.record(mtobs::Kind::GetHit, 300 + i);
            rec.record(mtobs::Kind::Put, 9_000 + i * 17);
        }
        rec.record(mtobs::Kind::Scan, 5_000_000);
        obs.global().record(mtobs::Kind::Checkpoint, 120_000_000);
        obs.global().record(mtobs::Kind::WalForce, u64::MAX); // saturates
        let mut snap = obs.snapshot();
        snap.traces_sampled = 42;
        snap.slow_ops = 7;

        let reply = StatsExReply { snap };
        let mut buf = Vec::new();
        Response::StatsEx(reply.clone()).encode(&mut buf);
        let mut p = &buf[..];
        let got = Response::decode(&mut p).expect("decodes");
        assert!(p.is_empty());
        let Response::StatsEx(got) = got else {
            panic!("wrong variant: {got:?}");
        };
        assert_eq!(got, reply);
        assert_eq!(got.snap.kind(mtobs::Kind::GetHit).count(), 1000);
        assert_eq!(got.snap.kind(mtobs::Kind::Put).count(), 1000);
        assert_eq!(got.snap.kind(mtobs::Kind::Scan).count(), 1);
        // Untouched kinds decode back as empty.
        assert_eq!(got.snap.kind(mtobs::Kind::GcPass).count(), 0);
        // Sparse: the frame is far smaller than 15 kinds x 156 buckets
        // of dense u64s would be.
        assert!(buf.len() < 2048, "sparse frame too large: {}", buf.len());
    }

    #[test]
    fn statsex_decode_rejects_truncated_and_bad_kind() {
        let obs = std::sync::Arc::new(mtobs::Obs::default());
        obs.global().record(mtobs::Kind::GetHit, 1234);
        let reply = StatsExReply {
            snap: obs.snapshot(),
        };
        let mut buf = Vec::new();
        Response::StatsEx(reply).encode(&mut buf);
        // Truncation anywhere inside the frame must fail cleanly.
        for cut in 1..buf.len() {
            let mut p = &buf[..cut];
            assert_eq!(Response::decode(&mut p), None, "cut at {cut}");
        }
        // A kind index past Kind::COUNT must be rejected, not panic.
        let mut bad = buf.clone();
        bad[1 + 16 + 1] = 0xee; // opcode, gauges, nkinds, then first kind id
        let mut p = &bad[..];
        assert_eq!(Response::decode(&mut p), None);
    }

    #[test]
    fn batch_framing() {
        let mut body = Vec::new();
        Request::Remove { key: b"x".to_vec() }.encode(&mut body);
        Request::Remove { key: b"y".to_vec() }.encode(&mut body);
        let framed = frame_batch(2, &body);
        let mut cursor = std::io::Cursor::new(&framed);
        let (count, got) = read_batch(&mut cursor).unwrap().unwrap();
        assert_eq!(count, 2);
        assert_eq!(got, body);
        // EOF afterwards.
        assert!(read_batch(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn borrowed_writers_match_owned_encoding() {
        // Value(Some): byte-identical to Response::encode.
        let cols = [b"alpha".as_slice(), b"".as_slice(), b"gamma".as_slice()];
        let mut owned = Vec::new();
        Response::Value(Some(cols.iter().map(|c| c.to_vec()).collect())).encode(&mut owned);
        let mut borrowed = Vec::new();
        write_value_borrowed(&mut borrowed, cols.len(), cols.iter().copied());
        assert_eq!(owned, borrowed);

        // Value(None).
        let mut owned = Vec::new();
        Response::Value(None).encode(&mut owned);
        let mut borrowed = Vec::new();
        write_value_none(&mut borrowed);
        assert_eq!(owned, borrowed);

        // Rows: byte-identical including the patched row count.
        let rows = [
            (b"k1".as_slice(), vec![b"v1".as_slice()]),
            (b"k2".as_slice(), vec![b"v2".as_slice(), b"w2".as_slice()]),
        ];
        let mut owned = Vec::new();
        Response::Rows(
            rows.iter()
                .map(|(k, cs)| (k.to_vec(), cs.iter().map(|c| c.to_vec()).collect()))
                .collect(),
        )
        .encode(&mut owned);
        let mut borrowed = Vec::new();
        let mut w = RowsWriter::begin(&mut borrowed);
        for (k, cs) in &rows {
            w.push_row(k, cs.len(), cs.iter().copied());
        }
        w.finish();
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn patched_frame_matches_frame_batch() {
        let mut body = Vec::new();
        Request::Remove { key: b"x".to_vec() }.encode(&mut body);
        Request::Remove { key: b"y".to_vec() }.encode(&mut body);
        let eager = frame_batch(2, &body);
        let mut patched = Vec::new();
        let mark = begin_batch(&mut patched);
        patched.extend_from_slice(&body);
        finish_batch(&mut patched, mark, 2);
        assert_eq!(eager, patched);
        // Patching also works mid-buffer (a non-zero mark).
        let mut buf = b"junk".to_vec();
        let mark = begin_batch(&mut buf);
        buf.extend_from_slice(&body);
        finish_batch(&mut buf, mark, 2);
        assert_eq!(&buf[4..], &eager[..]);
    }

    #[test]
    fn truncated_decode_fails_cleanly() {
        let mut buf = Vec::new();
        Request::Put {
            key: b"key".to_vec(),
            cols: vec![(1, b"data".to_vec())],
        }
        .encode(&mut buf);
        for cut in 1..buf.len() {
            let mut p = &buf[..cut];
            // Must not panic; may return None or (for tiny prefixes that
            // happen to parse) a different value — never UB.
            let _ = Request::decode(&mut p);
        }
    }
}
