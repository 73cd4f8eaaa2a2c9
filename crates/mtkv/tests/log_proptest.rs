//! Deterministic property test for the log segment wire format: random
//! `LogRecord` sequences round-trip exactly, and — the §5 torn-tail
//! guarantee — truncating the encoded stream at **every** byte offset
//! decodes to exactly the records whose frames fit entirely before the
//! cut. No torn frame ever yields a record; no intact frame before the
//! cut is ever lost.
//!
//! The streaming side of the log is held to the same oracle: the
//! [`SegmentWalker`] yields exactly `decode_all`'s records and stops
//! where it stops (torn tails, corrupt frames, garbage length prefixes,
//! frames larger than its window or straddling window boundaries), and
//! the truncation pass built on it deletes exactly the files the
//! whole-file implementation it replaced deletes.
//!
//! (Deterministic by construction: seeded splitmix64, no `proptest`
//! crate — same discipline as the other property tests in this repo.)

use std::path::{Path, PathBuf};

use mtkv::log::{
    decode_all, segment_path, truncate_covered_segments_excluding, SegmentWalker, WALK_WINDOW,
};
use mtkv::LogRecord;

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn bytes(&mut self, max_len: u64) -> Vec<u8> {
        let len = self.below(max_len + 1) as usize;
        (0..len).map(|_| self.next() as u8).collect()
    }
}

fn random_record(rng: &mut Rng, ts: u64) -> LogRecord {
    match rng.below(10) {
        0..=5 => {
            let ncols = rng.below(4) as usize;
            LogRecord::Put {
                timestamp: ts,
                version: rng.next(),
                key: rng.bytes(24),
                cols: (0..ncols)
                    .map(|_| (rng.below(16) as u16, rng.bytes(40)))
                    .collect(),
            }
        }
        6..=7 => LogRecord::Remove {
            timestamp: ts,
            version: rng.next(),
            key: rng.bytes(24),
        },
        8 => LogRecord::Heartbeat { timestamp: ts },
        _ => LogRecord::CleanClose { timestamp: ts },
    }
}

/// Generates a record sequence, returning each record with its frame's
/// end offset in the encoded stream.
fn random_stream(seed: u64, n: usize) -> (Vec<u8>, Vec<(LogRecord, usize)>) {
    let mut rng = Rng(seed);
    let mut buf = Vec::new();
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let rec = random_record(&mut rng, 1 + i as u64);
        rec.encode(&mut buf);
        records.push((rec, buf.len()));
    }
    (buf, records)
}

#[test]
fn roundtrip_random_sequences() {
    for seed in 0..32u64 {
        let (buf, records) = random_stream(0x5eed_0000 + seed, 60);
        let decoded = decode_all(&buf);
        assert_eq!(decoded.len(), records.len(), "seed {seed}");
        for ((got, got_end), (want, want_end)) in decoded.iter().zip(&records) {
            assert_eq!(got, want, "seed {seed}");
            assert_eq!(got_end, want_end, "seed {seed}");
        }
    }
}

#[test]
fn every_byte_truncation_yields_exactly_the_durable_prefix() {
    for seed in 0..6u64 {
        let (buf, records) = random_stream(0xabcd_0000 + seed, 48);
        for cut in 0..=buf.len() {
            let decoded = decode_all(&buf[..cut]);
            let expected = records.iter().take_while(|(_, end)| *end <= cut).count();
            assert_eq!(
                decoded.len(),
                expected,
                "seed {seed}, cut {cut}/{}: a torn tail must surface exactly \
                 the records whose frames fit before the cut",
                buf.len()
            );
            for (i, (got, _)) in decoded.iter().enumerate() {
                assert_eq!(*got, records[i].0, "seed {seed}, cut {cut}, record {i}");
            }
        }
    }
}

#[test]
fn every_byte_truncation_of_a_file_replays_the_durable_prefix() {
    // Same property through the file path (`read_log`), sampling every
    // third offset to keep I/O sane.
    let dir = std::env::temp_dir().join(format!("mtkv-logprop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (buf, records) = random_stream(0xfeed_beef, 40);
    let path = dir.join("log-0");
    for cut in (0..=buf.len()).step_by(3) {
        std::fs::write(&path, &buf[..cut]).unwrap();
        let replayed = mtkv::read_log(&path).unwrap();
        let expected = records.iter().take_while(|(_, end)| *end <= cut).count();
        assert_eq!(replayed.len(), expected, "cut {cut}");
        for (i, got) in replayed.iter().enumerate() {
            assert_eq!(*got, records[i].0, "cut {cut}, record {i}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corruption_anywhere_never_panics_and_never_fabricates_prefix_records() {
    // Flip one byte at every position: decoding must never panic, and
    // records *before* the corrupted frame must decode unchanged.
    let (buf, records) = random_stream(0x0bad_f00d, 24);
    for pos in 0..buf.len() {
        let mut mutated = buf.clone();
        mutated[pos] ^= 0x5a;
        let decoded = decode_all(&mutated);
        // Find the first frame the flipped byte belongs to.
        let victim = records.iter().position(|(_, end)| pos < *end).unwrap();
        assert!(
            decoded.len() >= victim,
            "pos {pos}: every record before the corrupted frame must decode"
        );
        for i in 0..victim {
            assert_eq!(
                decoded[i].0, records[i].0,
                "pos {pos}: record {i} precedes the corruption and must survive"
            );
        }
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mtkv-logprop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// What `decode_all` says about a whole segment: non-empty, sealed,
/// bytes of intact records, bytes.
fn oracle_summary(data: &[u8]) -> (bool, bool, u64, u64) {
    let records = decode_all(data);
    (
        !records.is_empty(),
        matches!(records.last(), Some((LogRecord::CleanClose { .. }, _))),
        records.last().map_or(0, |&(_, end)| end as u64),
        data.len() as u64,
    )
}

/// Writes `data` as a segment and checks the walker against
/// `decode_all`: the summary, then record by record.
fn check_walk(walker: &mut SegmentWalker, path: &Path, data: &[u8], ctx: &str) {
    std::fs::write(path, data).unwrap();
    let want = decode_all(data);
    let sum = walker.scan(path, |_| true).unwrap();
    assert_eq!(
        (sum.nonempty, sum.sealed, sum.consumed, sum.file_len),
        oracle_summary(data),
        "{ctx}"
    );
    let max_ts = want.iter().map(|(r, _)| r.timestamp()).max().unwrap_or(0);
    assert_eq!(
        sum.max_ts, max_ts,
        "{ctx}: max over every frame, markers included"
    );
    let mut walk = walker.walk(path).unwrap();
    for (i, (rec, _)) in want.iter().enumerate() {
        let got = walk.next_record().unwrap().map(|r| r.to_owned());
        assert_eq!(got.as_ref(), Some(rec), "{ctx}: record {i}");
    }
    assert!(
        walk.next_record().unwrap().is_none(),
        "{ctx}: the walk stops where decode_all stops"
    );
}

/// A put whose one column makes its frame exactly `frame_len` bytes.
fn put_of_len(frame_len: usize, ts: u64) -> LogRecord {
    let put = |len| LogRecord::Put {
        timestamp: ts,
        version: ts,
        key: b"pad".to_vec(),
        cols: vec![(0, vec![0xc5; len])],
    };
    let mut empty = Vec::new();
    put(0).encode(&mut empty);
    put(frame_len - empty.len())
}

#[test]
fn segment_walker_matches_decode_all() {
    let dir = tmpdir("walk");
    let path = dir.join("log-0.0");
    let mut walker = SegmentWalker::default();

    for seed in 0..16u64 {
        let (buf, _) = random_stream(0x3a1c_0000 + seed, 80);
        check_walk(&mut walker, &path, &buf, &format!("seed {seed}"));
    }
    check_walk(&mut walker, &path, &[], "empty file");

    // A torn tail at every byte of the last two frames.
    let (buf, records) = random_stream(0x7041_0000, 40);
    for cut in records[records.len() - 3].1..=buf.len() {
        check_walk(&mut walker, &path, &buf[..cut], &format!("cut {cut}"));
    }

    // A flipped CRC byte mid-file.
    let mut flipped = buf.clone();
    flipped[records[20].1 - 2] ^= 0xff;
    assert_eq!(decode_all(&flipped).len(), 20);
    check_walk(&mut walker, &path, &flipped, "flipped crc");

    // An unknown op byte under a valid CRC.
    let mut unknown = buf[..records[9].1].to_vec();
    let start = unknown.len();
    LogRecord::Remove {
        timestamp: 999,
        version: 1,
        key: b"k".to_vec(),
    }
    .encode(&mut unknown);
    let end = unknown.len();
    unknown[start + 4] = 0x09;
    let crc = mtkv::crc32::crc32(&unknown[start + 4..end - 4]);
    unknown[end - 4..].copy_from_slice(&crc.to_le_bytes());
    unknown.extend_from_slice(&buf[records[9].1..]);
    assert_eq!(decode_all(&unknown).len(), 10);
    check_walk(&mut walker, &path, &unknown, "unknown op");

    // A garbage length prefix: a torn tail, never a 4 GiB window.
    let mut garbage = buf[..records[5].1].to_vec();
    garbage.extend_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
    garbage.extend_from_slice(&[0xab; 64]);
    check_walk(&mut walker, &path, &garbage, "length prefix 0xFFFF_FFF0");

    // One frame larger than the window (a put with a 3 MiB column):
    // whole, torn inside it, and torn just after it.
    let (small, _) = random_stream(0x0b16_0000, 10);
    let mut big = small.clone();
    let big_start = big.len();
    LogRecord::Put {
        timestamp: 500,
        version: 5,
        key: b"big".to_vec(),
        cols: vec![(0, vec![0x3c; 3 << 20]), (1, b"tail".to_vec())],
    }
    .encode(&mut big);
    let big_end = big.len();
    assert!(big_end - big_start > WALK_WINDOW);
    big.extend_from_slice(&small);
    LogRecord::CleanClose { timestamp: 501 }.encode(&mut big);
    check_walk(&mut walker, &path, &big, "3 MiB frame");
    check_walk(
        &mut walker,
        &path,
        &big[..big_start + WALK_WINDOW],
        "torn 3 MiB frame",
    );
    check_walk(
        &mut walker,
        &path,
        &big[..big_end + 3],
        "torn after the 3 MiB frame",
    );

    // Frames straddling the window boundary at every offset of a frame
    // header, and a stream spanning several windows.
    let (tail, _) = random_stream(0x57ad_0000, 30);
    for d in [0usize, 1, 2, 3, 4, 5, 7, 12, 20, 33] {
        let mut data = Vec::new();
        put_of_len(WALK_WINDOW - d, 1).encode(&mut data);
        assert_eq!(data.len(), WALK_WINDOW - d);
        data.extend_from_slice(&tail);
        check_walk(&mut walker, &path, &data, &format!("boundary - {d}"));
    }
    let (long, records) = random_stream(0x1099_0000, 40_000);
    assert!(long.len() > 2 * WALK_WINDOW, "{} bytes", long.len());
    check_walk(&mut walker, &path, &long, "several windows");
    let last = records[records.len() - 2].1;
    check_walk(
        &mut walker,
        &path,
        &long[..last + 7],
        "several windows, torn",
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `truncate_covered_segments_excluding` as it stood when it read every
/// segment whole and decoded it into owned records: the reference the
/// streaming pass must agree with, file for file. Returns
/// `(segments_deleted, bytes_deleted)`.
fn reference_truncate(dir: &Path, cutoff_ts: u64, live_sessions: &[u64]) -> (u64, u64) {
    struct SegInfo {
        path: PathBuf,
        bytes: u64,
        nonempty: bool,
        sealed: bool,
        covered: bool,
    }
    let mut report = (0, 0);
    for (session, segs) in mtkv::session_segments(dir) {
        let infos: Vec<SegInfo> = segs
            .iter()
            .map(|(_, path)| {
                let data = std::fs::read(path).unwrap_or_default();
                let records = decode_all(&data);
                SegInfo {
                    path: path.clone(),
                    bytes: data.len() as u64,
                    nonempty: !records.is_empty(),
                    sealed: matches!(records.last(), Some((LogRecord::CleanClose { .. }, _))),
                    covered: records
                        .iter()
                        .filter(|(r, _)| !r.is_marker())
                        .all(|(r, _)| r.timestamp() < cutoff_ts),
                }
            })
            .collect();
        let live = live_sessions.contains(&session);
        for (i, info) in infos.iter().enumerate() {
            if !info.sealed || !info.covered {
                continue;
            }
            let is_last = i + 1 == infos.len();
            let deletable = if is_last {
                !live
            } else {
                infos[i + 1..].iter().any(|s| s.nonempty)
            };
            if !deletable {
                continue;
            }
            std::fs::remove_file(&info.path).unwrap();
            report.0 += 1;
            report.1 += info.bytes;
        }
    }
    report
}

/// One segment of a random shape: empty, sealed, active (unsealed),
/// torn mid-frame, markers only, or sealed with a garbage tail. Record
/// timestamps are drawn from `1..=ts_max`.
fn random_segment(rng: &mut Rng, ts_max: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    let shape = rng.below(6);
    if shape == 0 {
        return buf;
    }
    if shape == 4 {
        LogRecord::Heartbeat {
            timestamp: 1 + rng.below(ts_max),
        }
        .encode(&mut buf);
    } else {
        for _ in 0..1 + rng.below(6) {
            let ts = 1 + rng.below(ts_max);
            random_record(rng, ts).encode(&mut buf);
        }
    }
    if shape != 2 {
        LogRecord::CleanClose {
            timestamp: 1 + rng.below(ts_max),
        }
        .encode(&mut buf);
    }
    match shape {
        3 => {
            let cut = buf.len() - 1 - rng.below(6) as usize;
            buf.truncate(cut);
        }
        5 => buf.extend_from_slice(&0xFFFF_FFF0u32.to_le_bytes()),
        _ => {}
    }
    buf
}

fn materialize(dir: &Path, layout: &[(u64, u64, Vec<u8>)]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (session, seg, data) in layout {
        std::fs::write(segment_path(dir, *session, *seg), data).unwrap();
    }
}

fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn streaming_truncation_deletes_exactly_what_the_whole_file_pass_deleted() {
    let root = tmpdir("trunc-eq");
    let (want_dir, got_dir) = (root.join("reference"), root.join("streaming"));
    let (mut deleted, mut spared) = (0u64, 0u64);
    // One walker for every pass, as a store keeps one across its cycles.
    let mut walker = SegmentWalker::default();
    for seed in 0..12u64 {
        let mut rng = Rng(0x7c0f_0000 + seed);
        let ts_max = 12;
        let sessions = 1 + rng.below(3);
        let mut layout = Vec::new();
        for session in 0..sessions {
            let first = rng.below(3); // earlier segments already truncated
            for seg in first..first + 1 + rng.below(4) {
                layout.push((session, seg, random_segment(&mut rng, ts_max)));
            }
        }
        let mut cutoffs = vec![0, u64::MAX];
        for (_, _, data) in &layout {
            cutoffs.extend(decode_all(data).iter().map(|(r, _)| r.timestamp()));
        }
        cutoffs.sort_unstable();
        cutoffs.dedup();
        let all: Vec<u64> = (0..sessions).collect();
        let every_other: Vec<u64> = (0..sessions).step_by(2).collect();
        for cutoff in cutoffs {
            for live in [&[][..], &all, &every_other] {
                let ctx = format!("seed {seed}, cutoff {cutoff}, live {live:?}");
                materialize(&want_dir, &layout);
                materialize(&got_dir, &layout);
                let want = reference_truncate(&want_dir, cutoff, live);
                let got = truncate_covered_segments_excluding(&mut walker, &got_dir, cutoff, live)
                    .unwrap();
                assert_eq!((got.segments_deleted, got.bytes_deleted), want, "{ctx}");
                let kept = listing(&got_dir);
                assert_eq!(kept, listing(&want_dir), "{ctx}");
                assert!(
                    got.bytes_scanned <= got.bytes_deleted + (kept.len() * WALK_WINDOW) as u64,
                    "{ctx}: {got:?}"
                );
                deleted += got.segments_deleted;
                spared += (kept.len() < layout.len() && !kept.is_empty()) as u64;
            }
        }
    }
    // Not vacuous: files went, and some passes kept part of a chain.
    assert!(
        deleted > 100 && spared > 100,
        "deleted {deleted}, spared {spared}"
    );
    std::fs::remove_dir_all(&root).unwrap();
}
