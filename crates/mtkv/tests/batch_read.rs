//! `Session::multi_get_with` is one buffered path — collect every
//! result pointer, start each value's data-block fetch, resolve the cold
//! pointers as one batch, emit — whatever session it runs on. On every
//! kind of session, every batch must read exactly what one `get_with`
//! per key reads, visited once per key in input order: with no cache, a
//! cache serving hits, a cache in adaptive bypass, a visitor that
//! re-enters the batch read (fresh scratch), and a value-separated store
//! whose cold pointers resolve through `ValueTier::resolve_many`. Range
//! reads share the reentrancy rule: one nested in another's visitor runs
//! the same readahead loop on a fresh scratch and reads the same rows.

use std::sync::Arc;

use mtkv::{CacheConfig, ColValue, DurabilityConfig, Session, Store};

/// One read's outcome: every column copied out, or absent.
type Row = Option<Vec<Vec<u8>>>;

/// Batch sizes around the tree engine's group of 32 cursors: empty, a
/// single key (the engine's sequential path), one group less one, one
/// group, one group plus one, and several groups.
const SIZES: [usize; 6] = [0, 1, 31, 32, 33, 100];

const KEYS: u32 = 2_000;

/// Key `i`: every third key shares a 24-byte prefix with the others of
/// its kind (a deeper trie layer; past the hint table's key limit, so
/// never cached), the rest are short.
fn key(i: u32) -> Vec<u8> {
    if i.is_multiple_of(3) {
        format!("batch/read/shared/prefix/{i:06}").into_bytes()
    } else {
        format!("b{i:06}").into_bytes()
    }
}

/// Even keys carry a `big`-byte first column, odd keys 8 bytes; every
/// value has a second column holding the key's index.
fn populate(session: &Session, big: usize) {
    for i in 0..KEYS {
        let first = vec![(i % 251) as u8; if i.is_multiple_of(2) { big } else { 8 }];
        session.put(&key(i), &[(0, &first[..]), (1, &i.to_le_bytes()[..])]);
    }
}

/// A batch of `n` keys mixing present keys, absent keys (short and
/// under the shared prefix) and duplicates of the previous element;
/// `salt` shifts which positions get which kind.
fn batch(n: usize, salt: u32) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = Vec::with_capacity(n);
    for j in 0..n as u32 {
        let k = match (j + salt) % 7 {
            3 => format!("b{:06}x", j * 31 % KEYS).into_bytes(),
            4 => format!("batch/read/shared/prefix/{salt}{j}zz").into_bytes(),
            6 if j > 0 => keys[j as usize - 1].clone(),
            _ => key((j * 7_919 + salt * 104_729) % KEYS),
        };
        keys.push(k);
    }
    keys
}

fn refs(keys: &[Vec<u8>]) -> Vec<&[u8]> {
    keys.iter().map(Vec::as_slice).collect()
}

/// One `get_with` per key.
fn point(session: &Session, keys: &[&[u8]]) -> Vec<Row> {
    keys.iter()
        .map(|k| session.get_with(k, |hit| hit.map(ColValue::cols)))
        .collect()
}

/// One `multi_get_with`, checked to visit each key once, in input order.
fn batched(session: &Session, keys: &[&[u8]]) -> Vec<Row> {
    let mut seen = Vec::with_capacity(keys.len());
    session.multi_get_with(keys, |i, hit| seen.push((i, hit.map(ColValue::cols))));
    let order: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
    assert_eq!(
        order,
        (0..keys.len()).collect::<Vec<_>>(),
        "one visit per key, in input order"
    );
    seen.into_iter().map(|(_, row)| row).collect()
}

fn assert_rows(keys: &[&[u8]], got: &[Row], want: &[Row]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g,
            w,
            "batch position {i}, key {:?}",
            String::from_utf8_lossy(keys[i])
        );
    }
}

/// Every size × four salts; returns the keys read by the batches.
fn check_all(session: &Session) -> usize {
    let mut read = 0;
    for n in SIZES {
        for salt in 0..4 {
            let keys = batch(n, salt);
            let keys = refs(&keys);
            let want = point(session, &keys);
            let got = batched(session, &keys);
            assert_rows(&keys, &got, &want);
            if n == 100 {
                assert!(want.iter().any(Option::is_some), "batch finds keys");
                assert!(want.iter().any(Option::is_none), "batch misses keys");
            }
            read += n;
        }
    }
    read
}

/// How [`range_with`] reads a range.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// One `get_range_with` call.
    OneShot,
    /// 8-row `get_range_resumed` chunks on one explicit cursor.
    Resumed,
    /// 8-row `get_range_with` calls, each starting just past the last
    /// row of the one before (`last_key ++ [0]`), with no cursor.
    Continued,
}

const MODES: [Mode; 3] = [Mode::OneShot, Mode::Resumed, Mode::Continued];

/// `n` rows (a multiple of 8) from `start`, visited as `mode` reads them.
fn range_with(
    session: &Session,
    start: &[u8],
    n: usize,
    mode: Mode,
    mut visit: impl FnMut(&[u8], &ColValue),
) {
    match mode {
        Mode::OneShot => {
            session.get_range_with(start, n, visit);
        }
        Mode::Resumed => {
            let mut cursor = session.scan_cursor(start);
            for _ in 0..n / 8 {
                session.get_range_resumed(&mut cursor, 8, &mut visit);
            }
        }
        Mode::Continued => {
            let mut from = start.to_vec();
            for _ in 0..n / 8 {
                let mut last = None;
                session.get_range_with(&from, 8, |k, v| {
                    last = Some(k.to_vec());
                    visit(k, v)
                });
                from = last.expect("the range has n rows");
                from.push(0);
            }
        }
    }
}

/// [`range_with`], every row copied out.
fn range(session: &Session, start: &[u8], n: usize, mode: Mode) -> Vec<(Vec<u8>, Row)> {
    let mut rows = Vec::new();
    range_with(session, start, n, mode, |k, v| {
        rows.push((k.to_vec(), Some(v.cols())))
    });
    rows
}

/// A visitor that issues another batch read while the outer one is
/// still emitting: the inner call finds the session's scratch busy and
/// runs on a fresh one; both must still read correctly. The same for
/// range reads in every [`Mode`], nested in each other's visitors.
fn check_reentrant(session: &Session) {
    let outer = batch(33, 1);
    let outer = refs(&outer);
    let inner = batch(100, 2);
    let inner = refs(&inner);
    let want_outer = point(session, &outer);
    let want_inner = point(session, &inner);
    let mut got = Vec::new();
    let mut nested = 0;
    session.multi_get_with(&outer, |i, hit| {
        got.push(hit.map(ColValue::cols));
        if i.is_multiple_of(8) {
            assert_rows(&inner, &batched(session, &inner), &want_inner);
            nested += 1;
        }
    });
    assert_eq!(nested, 5);
    assert_rows(&outer, &got, &want_outer);

    let (outer_start, inner_start) = (key(3), key(1_000));
    let want_outer = range(session, &outer_start, 24, Mode::OneShot);
    let want_inner = range(session, &inner_start, 40, Mode::OneShot);
    assert_eq!((want_outer.len(), want_inner.len()), (24, 40));
    for (k, row) in want_outer.iter().chain(&want_inner) {
        assert_eq!(*row, point(session, &[k])[0], "{k:?}");
    }
    for outer_mode in MODES {
        let mut got = Vec::new();
        range_with(session, &outer_start, 24, outer_mode, |k, v| {
            got.push((k.to_vec(), Some(v.cols())));
            if got.len() % 8 == 1 {
                for inner_mode in MODES {
                    let inner = range(session, &inner_start, 40, inner_mode);
                    assert_eq!(inner, want_inner, "{inner_mode:?} nested in {outer_mode:?}");
                }
            }
        });
        assert_eq!(got, want_outer, "{outer_mode:?}");
    }
}

fn in_memory(cache: Option<CacheConfig>) -> (Arc<Store>, Session) {
    let store = Store::in_memory();
    store.set_session_cache(cache);
    let session = store.session().unwrap();
    populate(&session, 64);
    (store, session)
}

#[test]
fn no_cache_batches_match_point_reads() {
    let (_store, session) = in_memory(None);
    check_all(&session);
    check_reentrant(&session);
}

#[test]
fn cached_batches_serving_hits_match_point_reads() {
    let (_store, session) = in_memory(Some(CacheConfig {
        admit_threshold: 1,
        adaptive_bypass: false,
        ..CacheConfig::default()
    }));
    // Warm-up admits the short keys and fills the table.
    check_all(&session);
    let before = session.cache_stats().expect("cache attached");
    check_all(&session);
    check_reentrant(&session);
    let after = session.cache_stats().expect("cache attached");
    assert!(
        after.hits > before.hits + 1_000,
        "batches were not served by hints: {before:?} -> {after:?}"
    );
}

#[test]
fn bypassed_cache_batches_match_point_reads() {
    // 64 slots under 2,000 uniformly read keys: the hit rate stays far
    // below the governor's threshold, so it disengages the table and
    // only one operation in 64 still probes it.
    let (_store, session) = in_memory(Some(CacheConfig::with_capacity(64)));
    const CHUNK: u64 = 1_024;
    let mut engaged = true;
    for _ in 0..64 {
        let before = session.cache_stats().expect("cache attached").lookups;
        for i in 0..CHUNK as u32 {
            session.get_with(&key(i * 7 % KEYS), |_| ());
        }
        let grew = session.cache_stats().expect("cache attached").lookups - before;
        if grew <= CHUNK / 32 {
            engaged = false;
            break;
        }
    }
    assert!(!engaged, "uniform reads never engaged the bypass");
    let before = session.cache_stats().expect("cache attached").lookups;
    let read = check_all(&session);
    check_reentrant(&session);
    let grew = session.cache_stats().expect("cache attached").lookups - before;
    assert!(
        grew < read as u64,
        "batches probed the table on every call: {grew} lookups for {read} batched keys"
    );
}

#[test]
fn value_separated_batches_resolve_cold_pointers_in_one_batch() {
    let dir = std::env::temp_dir().join(format!("mtkv-batch-read-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        // Even keys' 200-byte values spill to the value tier; odd keys'
        // 12 bytes stay inline. Every cold read is a segment read.
        let store = Store::persistent_with(
            &dir,
            DurabilityConfig::default().with_value_separation(32, 0),
        )
        .unwrap();
        let session = store.session().unwrap();
        populate(&session, 200);
        assert!(session.force_log());
        let before = store.value_tier_stats();
        check_all(&session);
        check_reentrant(&session);
        let after = store.value_tier_stats();
        assert_eq!(after.unresolved_reads, 0, "{after:?}");
        assert!(
            after.indirect_reads > before.indirect_reads,
            "no value resolved through the tier: {after:?}"
        );
        // Every cold read, point or batched, is one `resolve_many`
        // call: fewer calls than cold reads means batches resolved
        // their cold pointers together.
        let batches = after.readahead_batches - before.readahead_batches;
        assert!(
            batches > 0 && batches < after.indirect_reads - before.indirect_reads,
            "cold pointers never resolved as one batch: {before:?} -> {after:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
