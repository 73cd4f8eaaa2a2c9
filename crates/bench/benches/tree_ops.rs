//! Criterion benchmarks of single-threaded Masstree operations at several
//! tree sizes (the per-op DRAM-latency story of §4.2), including deep
//! shared-prefix keys and scans.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use masstree::Masstree;
use mtworkload::{decimal_key, Rng64};

fn filled_tree(n: u64) -> Masstree<u64> {
    let t = Masstree::new();
    let g = masstree::pin();
    let mut rng = Rng64::new(1);
    for i in 0..n {
        t.put(&decimal_key(rng.next_u64()), i, &g);
    }
    t
}

fn bench_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("masstree/get");
    for n in [10_000u64, 100_000, 1_000_000] {
        let tree = filled_tree(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let g = masstree::pin();
            let mut rng = Rng64::new(1);
            b.iter(|| black_box(tree.get(&decimal_key(rng.next_u64()), &g)))
        });
    }
    group.finish();
}

fn bench_put(c: &mut Criterion) {
    let mut group = c.benchmark_group("masstree/put");
    group.bench_function("insert_1M_keyspace", |b| {
        let tree = filled_tree(100_000);
        let g = masstree::pin();
        let mut rng = Rng64::new(99);
        b.iter(|| tree.put(&decimal_key(rng.next_u64()), 1, &g))
    });
    group.bench_function("update_hot_key", |b| {
        let tree = filled_tree(10_000);
        let g = masstree::pin();
        tree.put(b"hotkey", 0, &g);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            tree.put(b"hotkey", i, &g)
        })
    });
    group.finish();
}

fn bench_deep_prefix(c: &mut Criterion) {
    // 40-byte shared prefix: five trie layers per lookup (Figure 9's
    // regime).
    let tree: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    let prefix = "P".repeat(40);
    for i in 0..100_000u64 {
        tree.put(format!("{prefix}{i:08}").as_bytes(), i, &g);
    }
    c.bench_function("masstree/get_40B_shared_prefix", |b| {
        let mut rng = Rng64::new(3);
        b.iter(|| {
            let k = format!("{prefix}{:08}", rng.below(100_000));
            black_box(tree.get(k.as_bytes(), &g))
        })
    });
}

fn bench_scan(c: &mut Criterion) {
    let tree = filled_tree(1_000_000);
    let g = masstree::pin();
    c.bench_function("masstree/scan_100", |b| {
        let mut rng = Rng64::new(5);
        b.iter(|| {
            let start = decimal_key(rng.next_u64());
            black_box(tree.get_range(&start, 100, &g)).len()
        })
    });
}

criterion_group!(benches, bench_get, bench_put, bench_deep_prefix, bench_scan);
criterion_main!(benches);
