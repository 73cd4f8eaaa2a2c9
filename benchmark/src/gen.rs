//! Seeded inputs: keys, self-validating values, Zipfian ranks and the
//! per-connection operation streams. Everything here is a pure function
//! of `(seed, workload constants)` and lives in the benchmark package —
//! with no dependency on `mtworkload` or `crates/bench` — so a later
//! change to a library cannot change what the benchmark sends.

use crate::workload::{Mix, Spec, CONNS};

/// splitmix64 step: the only source of randomness in the benchmark.
#[derive(Clone)]
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias < 2^-32 for our `n`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The splitmix64 finalizer: a bijection on `u64`, so distinct key ids
/// can never collide after hashing.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Key bytes: YCSB-style `"user"` + the 20-digit decimal hash of the id.
/// 24 bytes = three 8-byte Masstree slices, so every lookup crosses trie
/// layers instead of ending in the root tree.
pub const KEY_LEN: usize = 24;

pub fn key_of(id: u64) -> [u8; KEY_LEN] {
    let mut k = *b"user00000000000000000000";
    let mut h = mix64(id);
    let mut i = KEY_LEN;
    while h > 0 {
        i -= 1;
        k[i] = b'0' + (h % 10) as u8;
        h /= 10;
    }
    k
}

/// Writes the self-validating value for `(id, seq)`: 8 B id ‖ 8 B write
/// sequence ‖ filler that is a function of both, so a reply can be
/// checked against nothing but itself and the key that was asked for.
pub fn fill_value(id: u64, seq: u64, out: &mut [u8]) {
    debug_assert!(out.len() >= 16);
    out[..8].copy_from_slice(&id.to_le_bytes());
    out[8..16].copy_from_slice(&seq.to_le_bytes());
    let mut r = Rng(mix64(id) ^ seq.wrapping_mul(0xd6e8_feb8_6659_fd93));
    for chunk in out[16..].chunks_mut(8) {
        let w = r.next_u64().to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

/// Why a returned value was rejected.
#[derive(Debug, PartialEq, Eq)]
pub enum ValueFault {
    Length,
    WrongKey,
    StaleSeq,
    FutureSeq,
    Filler,
}

/// Checks a returned value against the key it was read for and the
/// sequence window the generator knows: at least `min_seq` (the last
/// write acknowledged before the read was sent), at most `max_seq` (the
/// last write sent). Returns the sequence found.
pub fn check_value(
    v: &[u8],
    id: u64,
    len: usize,
    min_seq: u64,
    max_seq: u64,
    scratch: &mut Vec<u8>,
) -> Result<u64, ValueFault> {
    if v.len() != len {
        return Err(ValueFault::Length);
    }
    if v[..8] != id.to_le_bytes() {
        return Err(ValueFault::WrongKey);
    }
    let seq = u64::from_le_bytes(v[8..16].try_into().expect("8 bytes"));
    if seq < min_seq {
        return Err(ValueFault::StaleSeq);
    }
    if seq > max_seq {
        return Err(ValueFault::FutureSeq);
    }
    scratch.resize(len, 0);
    fill_value(id, seq, scratch);
    if scratch[16..] != v[16..] {
        return Err(ValueFault::Filler);
    }
    Ok(seq)
}

/// YCSB's Zipfian generator (Gray et al., "Quickly generating
/// billion-record synthetic databases"): rank 0 is the most popular.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// How a workload picks key ids.
pub enum KeyDist {
    Uniform,
    /// Zipfian ranks scattered over the id space by a seeded hash, so the
    /// hot keys are not neighbours in the tree and differ between seeds.
    Zipf {
        zipf: Zipf,
        salt: u64,
    },
}

impl KeyDist {
    pub fn new(spec: &Spec, seed: u64) -> KeyDist {
        match spec.theta {
            None => KeyDist::Uniform,
            Some(theta) => KeyDist::Zipf {
                zipf: Zipf::new(spec.keys, theta),
                salt: mix64(seed ^ 0x5a17),
            },
        }
    }

    pub fn id(&self, n: u64, rng: &mut Rng) -> u64 {
        match self {
            KeyDist::Uniform => rng.below(n),
            KeyDist::Zipf { zipf, salt } => mix64(zipf.rank(rng) ^ salt) % n,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Put,
    Scan,
}

/// One generated operation. `seq` is meaningful for puts only and is
/// assigned by the sender (it depends on what was sent before).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub id: u64,
}

/// The operation stream of one connection. Connection `c` of [`CONNS`]
/// only ever *writes* ids with `id % CONNS == c` (one writer per key, so
/// read-your-acked-writes can be checked exactly); it reads any id.
pub struct OpStream {
    rng: Rng,
    dist: std::rc::Rc<KeyDist>,
    keys: u64,
    mix: Mix,
    conn: u64,
}

impl OpStream {
    pub fn new(spec: &Spec, seed: u64, conn: usize, dist: std::rc::Rc<KeyDist>) -> Self {
        assert!(
            spec.keys.is_multiple_of(CONNS as u64),
            "key count must divide over connections"
        );
        OpStream {
            rng: Rng(mix64(seed).wrapping_add(mix64(conn as u64 + 1))),
            dist,
            keys: spec.keys,
            mix: spec.mix,
            conn: conn as u64,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let kind = match self.mix {
            Mix::Get => OpKind::Get,
            Mix::HalfPut => [OpKind::Get, OpKind::Put][(self.rng.next_u64() >> 63) as usize],
            Mix::HalfScan => [OpKind::Get, OpKind::Scan][(self.rng.next_u64() >> 63) as usize],
        };
        let mut id = self.dist.id(self.keys, &mut self.rng);
        if kind == OpKind::Put {
            // Move to the nearest id this connection owns.
            id = id - id % CONNS as u64 + self.conn;
        }
        Op { kind, id }
    }
}

/// FNV-1a over a stream of ops: the determinism tests compare these.
#[cfg(test)]
pub fn stream_hash(spec: &Spec, seed: u64, nops: usize) -> u64 {
    let dist = std::rc::Rc::new(KeyDist::new(spec, seed));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for conn in 0..CONNS {
        let mut s = OpStream::new(spec, seed, conn, dist.clone());
        for _ in 0..nops {
            let op = s.next_op();
            for b in op.id.to_le_bytes().into_iter().chain([op.kind as u8]) {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in SPECS {
            let spec = spec.smoke();
            assert_eq!(
                stream_hash(&spec, 7, 5000),
                stream_hash(&spec, 7, 5000),
                "{}",
                spec.name
            );
            assert_ne!(
                stream_hash(&spec, 7, 5000),
                stream_hash(&spec, 8, 5000),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn keys_are_24_bytes_distinct_and_layered() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..50_000u64 {
            let k = key_of(id);
            assert!(k.starts_with(b"user") && k[4..].iter().all(u8::is_ascii_digit));
            assert!(seen.insert(k));
        }
    }

    #[test]
    fn zipf_rank_frequency_is_sane() {
        let n = 100_000u64;
        let z = Zipf::new(n, 0.99);
        let mut rng = Rng(1);
        let draws = 400_000usize;
        let mut counts = vec![0u32; n as usize];
        for _ in 0..draws {
            counts[z.rank(&mut rng) as usize] += 1;
        }
        // P(rank 0) = 1/zeta(n); rank 0 : rank 9 frequencies ≈ 10^theta.
        let p0 = counts[0] as f64 / draws as f64;
        assert!(
            (p0 - 1.0 / z.zetan).abs() < 0.01,
            "p0 {p0} vs {}",
            1.0 / z.zetan
        );
        let ratio = counts[0] as f64 / counts[9] as f64;
        assert!((5.0..20.0).contains(&ratio), "rank0/rank9 = {ratio}");
        // The head carries most of the mass, the tail is still reached.
        let head: u32 = counts[..1000].iter().sum();
        assert!(head as f64 / draws as f64 > 0.5);
        assert!(counts[(n / 2) as usize..].iter().any(|&c| c > 0));
    }

    #[test]
    fn puts_stay_on_their_owning_connection() {
        let spec = SPECS
            .iter()
            .find(|s| s.mix == Mix::HalfPut)
            .unwrap()
            .smoke();
        let dist = std::rc::Rc::new(KeyDist::new(&spec, 3));
        for conn in 0..CONNS {
            let mut s = OpStream::new(&spec, 3, conn, dist.clone());
            let mut puts = 0;
            for _ in 0..10_000 {
                let op = s.next_op();
                assert!(op.id < spec.keys);
                if op.kind == OpKind::Put {
                    assert_eq!(op.id as usize % CONNS, conn);
                    puts += 1;
                }
            }
            assert!((4000..6000).contains(&puts), "put share {puts}/10000");
        }
    }

    #[test]
    fn value_check_rejects_each_kind_of_damage() {
        let mut v = vec![0u8; 64];
        fill_value(42, 7, &mut v);
        let mut s = Vec::new();
        assert_eq!(check_value(&v, 42, 64, 7, 7, &mut s), Ok(7));
        assert_eq!(check_value(&v, 42, 64, 1, 9, &mut s), Ok(7));
        // A flipped filler byte.
        let mut bad = v.clone();
        bad[40] ^= 1;
        assert_eq!(
            check_value(&bad, 42, 64, 1, 9, &mut s),
            Err(ValueFault::Filler)
        );
        // The right bytes under the wrong key.
        assert_eq!(
            check_value(&v, 43, 64, 1, 9, &mut s),
            Err(ValueFault::WrongKey)
        );
        // A write older than one already acknowledged, and one never sent.
        assert_eq!(
            check_value(&v, 42, 64, 8, 9, &mut s),
            Err(ValueFault::StaleSeq)
        );
        assert_eq!(
            check_value(&v, 42, 64, 1, 6, &mut s),
            Err(ValueFault::FutureSeq)
        );
        assert_eq!(
            check_value(&v[..63], 42, 64, 1, 9, &mut s),
            Err(ValueFault::Length)
        );
    }
}
