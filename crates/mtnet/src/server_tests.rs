//! Seeded property test of the batch executor against a sequential
//! per-connection model.
//!
//! Every round is one wakeup: each connection contributes a few frames
//! (some empty) of random gets, puts, removes and scans over its own
//! pool of 8 keys, so same-key conflicts are dense and straddle frame
//! boundaries. Whatever phases the planner picks, each connection must
//! see exactly the replies a one-request-at-a-time execution of its own
//! stream would produce — connections own disjoint key ranges, so that
//! model needs no cross-connection order — and the store must end up
//! holding exactly the models' union.

use std::collections::BTreeMap;

use super::*;
use crate::proto::frame_batch;

impl Outputs for [Vec<u8>] {
    fn out(&mut self, slot: usize) -> &mut Vec<u8> {
        &mut self[slot]
    }
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % n
    }
}

const POOL: u64 = 8;
const SCAN_MAX: u64 = 6;

fn key(conn: usize, k: u64) -> Vec<u8> {
    format!("c{conn}/k{k}").into_bytes()
}

/// Never-written keys sorting after a connection's pool, so a scan
/// stays inside its own connection's range however few pool keys live.
fn sentinel(conn: usize, j: u64) -> Vec<u8> {
    format!("c{conn}/z{j}").into_bytes()
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn random_request(rng: &mut Rng, conn: usize, seq: &mut u64) -> Request {
    let key = key(conn, rng.below(POOL));
    match rng.below(10) {
        0..=3 => Request::Get { key, cols: None },
        4..=7 => {
            *seq += 1;
            Request::Put {
                key,
                cols: vec![(0, format!("v{seq}").into_bytes())],
            }
        }
        8 => Request::Remove { key },
        _ => Request::Scan {
            key,
            count: 1 + rng.below(SCAN_MAX) as u32,
            cols: None,
            resume: None,
        },
    }
}

/// What a sequential execution answers; `None` for a put, whose version
/// only has to grow.
fn model_reply(model: &mut Model, req: &Request) -> Option<Response> {
    Some(match req {
        Request::Get { key, .. } => Response::Value(model.get(key).map(|v| vec![v.clone()])),
        Request::Put { key, cols } => {
            model.insert(key.clone(), cols[0].1.clone());
            return None;
        }
        Request::Remove { key } => Response::RemoveOk(model.remove(key).is_some()),
        Request::Scan { key, count, .. } => Response::Rows(
            model
                .range(key.clone()..)
                .take(*count as usize)
                .map(|(k, v)| (k.clone(), vec![v.clone()]))
                .collect(),
        ),
        other => unreachable!("not generated: {other:?}"),
    })
}

fn run_seed(seed: u64, nconns: usize) {
    let store = Store::in_memory();
    let session = store.session().unwrap();
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut models: Vec<Model> = vec![Model::new(); nconns];
    for (conn, model) in models.iter_mut().enumerate() {
        for j in 0..SCAN_MAX {
            session.put(&sentinel(conn, j), &[(0, b"sentinel")]);
            model.insert(sentinel(conn, j), b"sentinel".to_vec());
        }
    }
    let mut last_version: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let mut exec = BatchExec::default();
    let mut cursors = HashMap::new();
    let env = ExecEnv::STANDALONE;
    let mut seq = 0u64;
    let mut parked_some = false;

    for round in 0..40 {
        // Each connection's wakeup input: 1–3 frames of 0–6 requests,
        // as wire bytes.
        let mut sent: Vec<Vec<Vec<Request>>> = Vec::new();
        let mut input: Vec<Vec<u8>> = Vec::new();
        for conn in 0..nconns {
            let mut conn_frames = Vec::new();
            let mut bytes = Vec::new();
            for _ in 0..1 + rng.below(3) {
                let reqs: Vec<Request> = (0..rng.below(7))
                    .map(|_| random_request(&mut rng, conn, &mut seq))
                    .collect();
                let mut body = Vec::new();
                reqs.iter().for_each(|r| r.encode(&mut body));
                bytes.extend(frame_batch(reqs.len(), &body));
                conn_frames.push(reqs);
            }
            sent.push(conn_frames);
            input.push(bytes);
        }

        // Decode borrowed, as `collect_frames` does, and execute.
        let mut reqs: Vec<RequestRef<'_>> = Vec::new();
        let mut frames: Vec<Frame> = Vec::new();
        exec.streams.clear();
        for (conn, bytes) in input.iter().enumerate() {
            let (first_op, first_frame) = (reqs.len(), frames.len());
            let mut rest = &bytes[..];
            while let Some((consumed, count)) = parse_batch_frame(rest).unwrap() {
                let mut p = &rest[8..consumed];
                let start = reqs.len();
                for _ in 0..count {
                    reqs.push(RequestRef::decode(&mut p).expect("own encoding decodes"));
                }
                assert!(p.is_empty());
                frames.push(Frame {
                    slot: conn,
                    start,
                    len: count as usize,
                });
                rest = &rest[consumed..];
            }
            exec.streams.push(StreamPlan::new(
                conn,
                conn as u64,
                first_op..reqs.len(),
                first_frame..frames.len(),
            ));
        }
        let mut outs: Vec<Vec<u8>> = vec![Vec::new(); nconns];
        exec.run(&session, &env, &mut cursors, &reqs, &frames, &mut outs[..]);
        parked_some |= !exec.parked.bytes.is_empty();

        // Every connection: one reply frame per request frame, every
        // reply what its own sequential execution gives.
        for (conn, conn_frames) in sent.iter().enumerate() {
            let mut rest = &outs[conn][..];
            for (f, frame) in conn_frames.iter().enumerate() {
                let at = format!("seed {seed} conns {nconns} round {round} conn {conn} frame {f}");
                let (consumed, count) = parse_batch_frame(rest).unwrap().expect(&at);
                assert_eq!(count as usize, frame.len(), "{at}");
                let mut p = &rest[8..consumed];
                for req in frame {
                    let got = Response::decode(&mut p).expect(&at);
                    match (model_reply(&mut models[conn], req), got) {
                        (Some(want), got) => assert_eq!(got, want, "{at}: {req:?}"),
                        (None, Response::PutOk(version)) => {
                            let Request::Put { key, .. } = req else {
                                unreachable!("only puts have no model reply")
                            };
                            let last = last_version.insert(key.clone(), version).unwrap_or(0);
                            assert!(version > last, "{at}: {req:?}: {version} after {last}");
                        }
                        (None, got) => panic!("{at}: {req:?} answered {got:?}"),
                    }
                }
                assert!(p.is_empty(), "{at}");
                rest = &rest[consumed..];
            }
            assert!(
                rest.is_empty(),
                "seed {seed} conn {conn}: extra reply bytes"
            );
        }
    }

    let want: Vec<(Vec<u8>, Vec<Vec<u8>>)> = models
        .iter()
        .flatten()
        .map(|(k, v)| (k.clone(), vec![v.clone()]))
        .collect();
    assert_eq!(session.get_range(b"", 1 << 20, None), want, "seed {seed}");
    let (phases, conflict_splits) = store.batch_plan_stats();
    assert!(
        conflict_splits > 0 && phases > conflict_splits,
        "seed {seed}"
    );
    assert!(parked_some, "seed {seed}: no reply ever completed early");
}

#[test]
fn batch_executor_matches_a_sequential_per_connection_model() {
    for seed in 1..=12 {
        run_seed(seed, 1);
        run_seed(seed, 3);
    }
}
