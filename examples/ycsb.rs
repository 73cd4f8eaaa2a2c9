//! A self-contained MYCSB driver (the paper's modified YCSB, §7) against
//! the full storage system — multi-column values and per-worker logging —
//! without the network, so you can see raw store throughput per mix.
//!
//! ```sh
//! cargo run --release --example ycsb [records] [seconds]
//! cargo run --release --example ycsb -- --batch [records] [seconds]
//! ```
//!
//! With `--batch`, each mix is additionally driven in batched mode: every
//! worker draws operations in groups and executes each group's gets and
//! puts through the interleaved multi-get/multi-put path
//! (`masstree::batch`), ordered by the server's own phase planner,
//! sweeping batch sizes {1, 4, 8, 16, 32} so the sequential-vs-pipelined
//! comparison is printed per mix.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mtkv::{Session, Store};
use mtworkload::{Mix, MycsbOp, MycsbWorkload};

/// Batch sizes swept by `--batch` (1 = the sequential baseline).
const BATCH_SIZES: [usize; 5] = [1, 4, 8, 16, 32];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let batch_mode = args.iter().any(|a| a == "--batch");
    args.retain(|a| a != "--batch");
    let records: u64 = args.first().and_then(|v| v.parse().ok()).unwrap_or(200_000);
    let secs: f64 = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(2.0);
    let threads = std::thread::available_parallelism()
        .map_or(8, |n| n.get())
        .min(16);

    let dir = std::env::temp_dir().join(format!("ycsb-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = Store::persistent(&dir).unwrap();

    // Load phase: `records` rows of 10 × 4-byte columns.
    println!("loading {records} records with {threads} workers ...");
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let store = Arc::clone(&store);
            s.spawn(move || {
                let session = store.session().unwrap();
                let per = records / threads as u64;
                for i in t * per..((t + 1) * per).max(records.min((t + 1) * per)) {
                    let cols = MycsbWorkload::initial_columns(i);
                    let updates: Vec<(usize, &[u8])> =
                        cols.iter().enumerate().map(|(c, d)| (c, &d[..])).collect();
                    session.put(&MycsbWorkload::record_key(i), &updates);
                }
            });
        }
    });

    for mix in [Mix::A, Mix::B, Mix::C, Mix::E] {
        if batch_mode {
            for batch in BATCH_SIZES {
                let mops = run_mix(&store, mix, records, secs, threads, batch);
                println!("{:<8} batch={batch:<3} {mops:>8.2} Mops/s", mix.name());
            }
        } else {
            let mops = run_mix(&store, mix, records, secs, threads, 1);
            println!("{:<8} {mops:>8.2} Mops/s", mix.name());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs one mix for `secs`; `batch == 1` executes operations one at a
/// time, larger batches group them and route get/put runs through the
/// interleaved engine. Returns Mops/s.
fn run_mix(
    store: &Arc<Store>,
    mix: Mix,
    records: u64,
    secs: f64,
    threads: usize,
    batch: usize,
) -> f64 {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let store = &store;
            let stop = &stop;
            let total = &total;
            s.spawn(move || {
                let session = store.session().unwrap();
                let mut wl = MycsbWorkload::new(mix, records, 7 + t);
                let mut planner = mtkv::PhasePlanner::default();
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if batch <= 1 {
                        execute_one(&session, wl.next_op());
                        n += 1;
                    } else {
                        let ops = wl.next_ops(batch);
                        n += ops.len() as u64;
                        execute_batched(&session, &mut planner, ops);
                    }
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed) as f64 / secs / 1e6
}

fn execute_one(session: &Session, op: MycsbOp) {
    execute_one_ref(session, &op)
}

/// Executes one drawn batch the way the network server executes a
/// wakeup: [`mtkv::PhasePlanner`] orders only same-key conflicts (and
/// range reads, which are barriers), and each phase's gets and puts go
/// through the interleaved engine as one `multi_get` / `multi_put`.
fn execute_batched(session: &Session, planner: &mut mtkv::PhasePlanner, ops: Vec<MycsbOp>) {
    planner.clear();
    planner.push_stream(ops.iter().map(|o| match o {
        MycsbOp::Get { key } => mtkv::OpClass::Read(key),
        MycsbOp::Put { key, .. } => mtkv::OpClass::Write(key),
        MycsbOp::GetRange { .. } => mtkv::OpClass::Barrier,
    }));
    planner.finish();
    for phase in planner.phases() {
        let in_phase = || phase.iter().map(|&i| &ops[i as usize]);
        let updates: Vec<[(usize, &[u8]); 1]> = in_phase()
            .filter_map(|o| match o {
                MycsbOp::Put { column, data, .. } => Some([(*column, data.as_slice())]),
                _ => None,
            })
            .collect();
        let puts: Vec<mtkv::PutOp<'_>> = in_phase()
            .filter_map(|o| match o {
                MycsbOp::Put { key, .. } => Some(key.as_slice()),
                _ => None,
            })
            .zip(&updates)
            .map(|(key, u)| (key, u.as_slice()))
            .collect();
        if !puts.is_empty() {
            session.multi_put(&puts);
        }
        let keys: Vec<&[u8]> = in_phase()
            .filter_map(|o| match o {
                MycsbOp::Get { key } => Some(key.as_slice()),
                _ => None,
            })
            .collect();
        if !keys.is_empty() {
            std::hint::black_box(session.multi_get(&keys, None));
        }
        for op in in_phase().filter(|o| matches!(o, MycsbOp::GetRange { .. })) {
            execute_one_ref(session, op);
        }
    }
}

fn execute_one_ref(session: &Session, op: &MycsbOp) {
    match op {
        MycsbOp::Get { key } => {
            std::hint::black_box(session.get(key, None));
        }
        MycsbOp::Put { key, column, data } => {
            session.put(key, &[(*column, data)]);
        }
        MycsbOp::GetRange { key, count, column } => {
            std::hint::black_box(session.get_range(key, *count, Some(&[*column])));
        }
    }
}
