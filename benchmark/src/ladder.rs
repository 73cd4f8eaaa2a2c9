//! The outside-in per-layer time ladder of the traced run.
//!
//! One seeded op stream (the workload's own mix, batch size and key
//! distribution) is replayed in-process through successive rungs, each a
//! call into one layer's public function with a span around it:
//!
//! * rung 0 — `Store::tree()`: `get` / `multi_get_with` / `scan_with`
//! * rung 1 — `Session`: `get_with` / `multi_get_with` /
//!   `get_range_with` / `multi_put` (hint cache off, then on; in-memory
//!   store, then the persistent / value-separated one)
//! * rung 2 — `Request::decode` → `execute_batch_into` →
//!   `Response::decode`
//! * rung 3 — an in-process `Server::start_with` driven by the
//!   generator's own loop over loopback, same connections and depth
//!
//! A layer's self time is its rung minus the rung below; what rung 3
//! costs beyond rungs 0–2 is `mtnet.wire`, the unattributed remainder.
//! Every span covers at least 64 ops, so the two `Instant::now` calls
//! around it stay under 2% of what they time.

use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use masstree::ScanScratch;
use mtkv::{ColValue, DurabilityConfig, PutOp, Session, Store};
use mtnet::{execute_batch_into, Request, Response};

use crate::child::DataDir;
use crate::gen::{fill_value, key_of, KeyDist, Op, OpKind, OpStream, Rng};
use crate::trace::SpanLog;
use crate::wire::Gen;
use crate::workload::{Mix, Spec, CONNS, LADDER_OPS, LOAD_BATCH, SCAN_ROWS, WINDOW};

/// Ops per span: frames are grouped until a span covers this many.
const SPAN_OPS: usize = 64;
/// How long each of the two wire-rung runs (traced, untraced) measures.
const WIRE_RUNG: Duration = Duration::from_secs(1);
/// Spans kept from the traced wire rung.
const WIRE_SPANS: usize = 4 * 50_000;
/// How long each cell of the 2-thread-vs-1 tree measurement runs.
const SCALING_CELL: Duration = Duration::from_millis(500);

/// The numbers the ladder produces, all in ns per op of the stream
/// unless the name says otherwise.
#[derive(Default)]
pub struct Ladder {
    pub masstree: f64,
    pub session_plain: f64,
    pub session_cached: f64,
    pub log_append_per_put: f64,
    pub vtier_resolve: f64,
    pub decode: f64,
    pub encode: f64,
    pub resp_decode: f64,
    pub exec: f64,
    pub wire_total: f64,
    pub trace_overhead_frac: f64,
    pub put_frac: f64,
    pub get_2t_over_1t: f64,
    pub put_2t_over_1t: f64,
}

impl Ladder {
    pub fn store_self(&self) -> f64 {
        self.session_plain - self.masstree
    }

    pub fn cache_self(&self) -> f64 {
        self.session_cached - self.session_plain
    }

    pub fn exec_self(&self) -> f64 {
        self.exec - self.session_cached
    }

    /// Rung 3 minus everything the rungs below it explain.
    pub fn wire_self(&self) -> f64 {
        self.wire_total
            - (self.decode
                + self.exec
                + self.put_frac * self.log_append_per_put
                + self.vtier_resolve)
    }
}

/// The replayed stream: arrival groups of decoded requests, as the
/// server's decoder would hand them on, plus each group's wire bytes.
struct Stream {
    frames: Vec<Vec<Request>>,
    bodies: Vec<Vec<u8>>,
    ops: usize,
    puts: usize,
}

fn build_stream(spec: &Spec, seed: u64) -> Stream {
    let dist = Rc::new(KeyDist::new(spec, seed));
    let mut streams: Vec<OpStream> = (0..CONNS)
        .map(|c| OpStream::new(spec, seed, c, dist.clone()))
        .collect();
    let mut seqs = vec![1u32; spec.keys as usize];
    let mut val = vec![0u8; spec.value_len];
    // One entry per *arrival group*: the frames of one connection that
    // reach the server together once the pipeline is full, which the
    // server's aggregation executes as one batch.
    let group = spec.batch * spec.chunk();
    let nframes = LADDER_OPS / group;
    let mut s = Stream {
        frames: Vec::with_capacity(nframes),
        bodies: Vec::with_capacity(nframes),
        ops: nframes * group,
        puts: 0,
    };
    for f in 0..nframes {
        let reqs: Vec<Request> = (0..group)
            .map(|_| {
                let Op { kind, id } = streams[f % CONNS].next_op();
                let key = key_of(id).to_vec();
                match kind {
                    OpKind::Get => Request::Get { key, cols: None },
                    OpKind::Scan => Request::Scan {
                        key,
                        count: SCAN_ROWS,
                        cols: None,
                        resume: None,
                    },
                    OpKind::Put => {
                        s.puts += 1;
                        seqs[id as usize] += 1;
                        fill_value(id, seqs[id as usize] as u64, &mut val);
                        Request::Put {
                            key,
                            cols: vec![(0, val.clone())],
                        }
                    }
                }
            })
            .collect();
        let mut body = Vec::new();
        reqs.iter().for_each(|r| r.encode(&mut body));
        s.frames.push(reqs);
        s.bodies.push(body);
    }
    s
}

/// Loads the workload's data set straight into a store.
fn load(store: &Arc<Store>, spec: &Spec) -> std::io::Result<()> {
    let session = store.session()?;
    let mut val = vec![0u8; spec.value_len];
    for from in (0..spec.keys).step_by(LOAD_BATCH) {
        let rows: Vec<([u8; 24], Vec<u8>)> = (from..spec.keys.min(from + LOAD_BATCH as u64))
            .map(|id| {
                fill_value(id, 1, &mut val);
                (key_of(id), val.clone())
            })
            .collect();
        let updates: Vec<[(usize, &[u8]); 1]> = rows.iter().map(|(_, v)| [(0, &v[..])]).collect();
        let ops: Vec<PutOp<'_>> = rows
            .iter()
            .zip(&updates)
            .map(|((k, _), u)| (&k[..], &u[..]))
            .collect();
        session.multi_put(&ops);
    }
    Ok(())
}

/// A maximal run of same-kind requests within a frame — the unit the
/// server hands to the store (put runs also end at a repeated key).
fn runs(reqs: &[Request]) -> impl Iterator<Item = &[Request]> {
    let mut rest = reqs;
    std::iter::from_fn(move || {
        let first = rest.first()?;
        let mut n = 1;
        while n < rest.len() && std::mem::discriminant(&rest[n]) == std::mem::discriminant(first) {
            if let (Request::Put { key, .. }, true) =
                (&rest[n], matches!(first, Request::Put { .. }))
            {
                if rest[..n]
                    .iter()
                    .any(|r| matches!(r, Request::Put { key: k, .. } if k == key))
                {
                    break;
                }
            }
            n += 1;
        }
        let (run, tail) = rest.split_at(n);
        rest = tail;
        Some(run)
    })
}

fn key(r: &Request) -> &[u8] {
    match r {
        Request::Get { key, .. } | Request::Put { key, .. } | Request::Scan { key, .. } => key,
        _ => unreachable!("the ladder stream holds gets, puts and scans"),
    }
}

/// Replays the stream in spans of at least [`SPAN_OPS`] ops, `f` once
/// per frame; returns ns per op of the whole stream.
fn replay<'a>(
    log: &mut SpanLog,
    name: &'static str,
    s: &'a Stream,
    mut f: impl FnMut(&'a [Request]),
) -> f64 {
    let per_span = (SPAN_OPS / s.frames[0].len()).max(1);
    for group in s.frames.chunks(per_span) {
        let ops = group.iter().map(Vec::len).sum::<usize>() as u32;
        log.time(name, ops, || group.iter().for_each(|reqs| f(reqs)));
    }
    log.ns_per_op(name)
}

/// Rung 0: the tree itself, reads only (a put's descent is counted under
/// `mtkv.store`, whose `multi_put` is the first public function that
/// performs one on a `ColValue`).
fn rung_tree(log: &mut SpanLog, store: &Store, s: &Stream) -> f64 {
    let tree = store.tree();
    let mut scratch = ScanScratch::new();
    let mut keys: Vec<&[u8]> = Vec::new();
    replay(log, "masstree", s, |reqs| {
        let guard = masstree::pin();
        for run in runs(reqs) {
            match &run[0] {
                Request::Get { .. } if run.len() >= 2 => {
                    keys.clear();
                    keys.extend(run.iter().map(key));
                    tree.multi_get_with(&keys, &guard, |_, hit| {
                        black_box(hit.map(ColValue::version));
                    });
                }
                Request::Get { key, .. } => {
                    black_box(tree.get(key, &guard).map(ColValue::version));
                }
                Request::Scan { key, count, .. } => {
                    let mut left = *count;
                    tree.scan_with(key, &mut scratch, &guard, |k, v| {
                        black_box((k.len(), v.version()));
                        left -= 1;
                        left > 0
                    });
                }
                _ => {}
            }
        }
    })
}

/// Rung 1: the store session. Runs the stream twice and times the
/// second pass, so hints and the value cache are as warm as on a server
/// that has been up for a while.
fn rung_session(log: &mut SpanLog, name: &'static str, session: &Session, s: &Stream) -> f64 {
    let mut keys: Vec<&[u8]> = Vec::new();
    let mut pass = |log: &mut SpanLog, name| {
        replay(log, name, s, |reqs| {
            for run in runs(reqs) {
                match &run[0] {
                    Request::Get { .. } if run.len() >= 2 => {
                        keys.clear();
                        keys.extend(run.iter().map(key));
                        session.multi_get_with(&keys, |_, hit| {
                            black_box(hit.and_then(|v| v.col(0)).map(<[u8]>::len));
                        });
                    }
                    Request::Get { key, .. } => {
                        session.get_with(key, |hit| {
                            black_box(hit.and_then(|v| v.col(0)).map(<[u8]>::len))
                        });
                    }
                    Request::Scan { key, count, .. } => {
                        session.get_range_with(key, *count as usize, |k, v| {
                            black_box((k.len(), v.col(0).map(<[u8]>::len)));
                        });
                    }
                    Request::Put { .. } => {
                        let updates: Vec<[(usize, &[u8]); 1]> = run
                            .iter()
                            .map(|r| match r {
                                Request::Put { cols, .. } => [(0usize, &cols[0].1[..])],
                                _ => unreachable!("a put run"),
                            })
                            .collect();
                        let ops: Vec<PutOp<'_>> = run
                            .iter()
                            .zip(&updates)
                            .map(|(r, u)| (key(r), &u[..]))
                            .collect();
                        black_box(session.multi_put(&ops));
                    }
                    _ => {}
                }
            }
        })
    };
    pass(&mut SpanLog::with_capacity(0), "warm");
    pass(log, name)
}

/// Rung 2: what the server does with a frame once it has the bytes —
/// decode, execute, encode the replies — and what the client does with
/// the reply bytes. Three spans per group of frames.
fn rung_exec(log: &mut SpanLog, session: &Session, s: &Stream, l: &mut Ladder) {
    let per_span = (SPAN_OPS / s.frames[0].len()).max(1);
    let mut out = Vec::new();
    for timed in [false, true] {
        // The first pass warms; its spans are not kept.
        let mut sink = SpanLog::with_capacity(0);
        for group in s.bodies.chunks(per_span) {
            let ops = (group.len() * s.frames[0].len()) as u32;
            let log = if timed { &mut *log } else { &mut sink };
            let decoded: Vec<Vec<Request>> = log.time("mtnet.proto.decode", ops, || {
                group
                    .iter()
                    .map(|body| {
                        let mut p = &body[..];
                        let mut reqs = Vec::with_capacity(s.frames[0].len());
                        while let Some(r) = Request::decode(&mut p) {
                            reqs.push(r);
                        }
                        reqs
                    })
                    .collect()
            });
            out.clear();
            log.time("mtnet.server.exec", ops, || {
                for reqs in decoded {
                    black_box(execute_batch_into(session, reqs, &mut out));
                }
            });
            log.time("mtnet.proto.resp_decode", ops, || {
                let mut p = &out[..];
                while let Some(r) = Response::decode(&mut p) {
                    black_box(r);
                }
            });
        }
    }
    // Client-side request encoding, over the same requests.
    let mut buf = Vec::new();
    l.encode = replay(log, "mtnet.proto.encode", s, |reqs| {
        buf.clear();
        reqs.iter().for_each(|r| r.encode(&mut buf));
        black_box(buf.len());
    });
    l.decode = log.ns_per_op("mtnet.proto.decode");
    l.exec = log.ns_per_op("mtnet.server.exec");
    l.resp_decode = log.ns_per_op("mtnet.proto.resp_decode");
}

/// Rung 3: the generator's own closed loop against a server started
/// in-process the way `kvbench serve` starts it. Run once with per-frame
/// spans and once without; the difference is the tracing overhead.
fn rung_wire(log: &mut SpanLog, spec: Spec, seed: u64, l: &mut Ladder) -> std::io::Result<()> {
    let dir = DataDir::create(&spec, "ladder-wire")?;
    let mut server = crate::serve::start(&spec, dir.path())?;
    let mut gen = Gen::connect(spec, seed, server.addr())?;
    gen.load_and_verify(seed);
    let windows = (WIRE_RUNG.as_secs_f64() / WINDOW.as_secs_f64()).ceil() as usize;
    gen.run_closed(WINDOW, windows);

    // Four spans per frame for the first 50,000 frames; later frames
    // still pay for the clock reads, so the overhead figure is honest,
    // but are not kept.
    gen.trace = Some(SpanLog::with_capacity(WIRE_SPANS));
    let traced = gen.run_closed(WINDOW, windows);
    let spans = gen.trace.take().expect("set above");
    let untraced = gen.run_closed(WINDOW, windows);
    server.stop();

    let rate = |r: &crate::wire::ClosedResult| r.rates.iter().sum::<f64>() / r.rates.len() as f64;
    l.wire_total = 1e9 / rate(&traced).max(1.0);
    l.trace_overhead_frac = 1.0 - rate(&traced) / rate(&untraced).max(1.0);
    if gen.failed > 0 {
        eprintln!(
            "kvbench: {} failed ops on the in-process wire rung",
            gen.failed
        );
    }
    log.absorb(spans);
    Ok(())
}

/// Aggregate tree throughput of 2 threads over 1 — the paper's
/// multicore claim, which the 1-worker served path cannot show.
fn tree_scaling(store: &Arc<Store>, spec: &Spec, put: bool) -> f64 {
    let cell = |threads: usize| -> f64 {
        let stop = AtomicBool::new(false);
        let total = AtomicU64::new(0);
        std::thread::scope(|sc| {
            for t in 0..threads {
                let (stop, total, store) = (&stop, &total, &store);
                sc.spawn(move || {
                    let mut rng = Rng(0x7ee + t as u64);
                    let val = vec![7u8; spec.value_len];
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let guard = masstree::pin();
                        for _ in 0..SPAN_OPS {
                            let k = key_of(rng.below(spec.keys));
                            if put {
                                store.tree().put(&k, ColValue::single(n, &val), &guard);
                            } else {
                                black_box(store.tree().get(&k, &guard).map(ColValue::version));
                            }
                            n += 1;
                        }
                    }
                    total.fetch_add(n, Ordering::Relaxed);
                });
            }
            std::thread::sleep(SCALING_CELL);
            stop.store(true, Ordering::Relaxed);
        });
        total.load(Ordering::Relaxed) as f64
    };
    let one = cell(1);
    cell(2) / one.max(1.0)
}

pub fn run(spec: Spec, seed: u64) -> std::io::Result<(Ladder, SpanLog)> {
    let mut l = Ladder::default();
    let mut log = SpanLog::with_capacity(WIRE_SPANS + 16 * (LADDER_OPS / SPAN_OPS + 8));
    let s = build_stream(&spec, seed);
    l.put_frac = s.puts as f64 / s.ops as f64;

    // The wire rung first, while this process is still small.
    rung_wire(&mut log, spec, seed, &mut l)?;

    let mem = Store::in_memory();
    load(&mem, &spec)?;
    rung_tree(&mut SpanLog::with_capacity(0), &mem, &s);
    l.masstree = rung_tree(&mut log, &mem, &s);
    let plain = mem.session()?;
    l.session_plain = rung_session(&mut log, "mtkv.store", &plain, &s);
    let mut cached = mem.session()?;
    cached.enable_cache(Spec::session_cache());
    l.session_cached = rung_session(&mut log, "mtkv.store+mtcache", &cached, &s);
    rung_exec(&mut log, &cached, &s, &mut l);

    // The same session calls on the store the server actually runs on:
    // what the log and the cold value tier add.
    if spec.mix == Mix::HalfPut || spec.value_separation.is_some() {
        let dir = DataDir::create(&spec, "ladder-disk")?;
        let cfg = DurabilityConfig {
            checkpoint_interval: None,
            ..spec.durability()
        };
        let disk = Store::persistent_with(dir.path(), cfg)?;
        load(&disk, &spec)?;
        let on_disk = rung_session(&mut log, "mtkv.store+disk", &disk.session()?, &s);
        let extra = on_disk - l.session_plain;
        if spec.value_separation.is_some() {
            l.vtier_resolve = extra;
        } else {
            l.log_append_per_put = extra / l.put_frac.max(f64::MIN_POSITIVE);
        }
        drop(disk);
    }

    l.get_2t_over_1t = tree_scaling(&mem, &spec, false);
    l.put_2t_over_1t = tree_scaling(&mem, &spec, true);
    Ok((l, log))
}
