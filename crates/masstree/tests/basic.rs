//! Single-threaded semantic tests for the Masstree core: every operation
//! is cross-checked against `std::collections::BTreeMap` as a model, and
//! the whole-tree validator runs after structural churn.

use std::collections::BTreeMap;

use masstree::Masstree;

fn decimal_keys(n: usize, seed: u64) -> Vec<Vec<u8>> {
    // 1-to-10-byte decimal keys as in §6.1 of the paper.
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (s >> 33) % 2_147_483_648;
            v.to_string().into_bytes()
        })
        .collect()
}

#[test]
fn empty_tree() {
    let t: Masstree<u32> = Masstree::new();
    let g = masstree::pin();
    assert_eq!(t.get(b"anything", &g), None);
    assert_eq!(t.get(b"", &g), None);
    assert_eq!(t.remove(b"anything", &g), None);
    assert_eq!(t.get_range(b"", 10, &g), vec![]);
    assert_eq!(t.count_keys(&g), 0);
}

#[test]
fn put_get_single() {
    let t: Masstree<u32> = Masstree::new();
    let g = masstree::pin();
    assert_eq!(t.put(b"hello", 7, &g), None);
    assert_eq!(t.get(b"hello", &g), Some(&7));
    assert_eq!(t.get(b"hell", &g), None);
    assert_eq!(t.get(b"hello!", &g), None);
}

#[test]
fn update_returns_old_value() {
    let t: Masstree<u32> = Masstree::new();
    let g = masstree::pin();
    assert_eq!(t.put(b"k", 1, &g), None);
    assert_eq!(t.put(b"k", 2, &g), Some(&1));
    assert_eq!(t.get(b"k", &g), Some(&2));
}

#[test]
fn empty_key_is_a_valid_key() {
    let t: Masstree<u32> = Masstree::new();
    let g = masstree::pin();
    assert_eq!(t.put(b"", 42, &g), None);
    assert_eq!(t.get(b"", &g), Some(&42));
    assert_eq!(t.remove(b"", &g), Some(&42));
    assert_eq!(t.get(b"", &g), None);
}

#[test]
fn binary_keys_with_nuls() {
    // §4.2: "ABCDEFG\0" (8 bytes) must differ from "ABCDEFG" (7 bytes).
    let t: Masstree<u32> = Masstree::new();
    let g = masstree::pin();
    t.put(b"ABCDEFG", 7, &g);
    t.put(b"ABCDEFG\0", 8, &g);
    t.put(b"ABCDEFG\0\0", 9, &g);
    assert_eq!(t.get(b"ABCDEFG", &g), Some(&7));
    assert_eq!(t.get(b"ABCDEFG\0", &g), Some(&8));
    assert_eq!(t.get(b"ABCDEFG\0\0", &g), Some(&9));
    assert_eq!(t.get(b"ABCDEF", &g), None);
}

#[test]
fn paper_layer_example() {
    // The worked example from §4.1 of the paper.
    let mut t: Masstree<u32> = Masstree::new();
    let g = masstree::pin();
    // 1. put("01234567AB") stores slice + suffix in the root layer.
    t.put(b"01234567AB", 1, &g);
    assert_eq!(t.get(b"01234567AB", &g), Some(&1));
    // 2. put("01234567XY") forces a new layer; both keys stay visible.
    t.put(b"01234567XY", 2, &g);
    assert_eq!(t.get(b"01234567AB", &g), Some(&1));
    assert_eq!(t.get(b"01234567XY", &g), Some(&2));
    assert_eq!(t.get(b"01234567", &g), None);
    assert!(t.stats().snapshot().layers_created >= 1);
    // 3. remove("01234567XY") deletes only that key.
    assert_eq!(t.remove(b"01234567XY", &g), Some(&2));
    assert_eq!(t.get(b"01234567AB", &g), Some(&1));
    assert_eq!(t.get(b"01234567XY", &g), None);
    drop(g);
    let report = t.validate().expect("valid tree");
    assert_eq!(report.keys, 1);
}

#[test]
fn short_suffixes_stay_inline() {
    // YCSB-shaped keys ("user" + 20 digits) end 8 bytes past their
    // layer-1 slice: every suffix fits in its slot, none gets a block.
    let mut t: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    let user = |i: u64| format!("user{:020}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for i in 0..100_000 {
        t.put(user(i).as_bytes(), i, &g);
    }
    drop(g);
    let report = t.validate().expect("valid tree");
    assert_eq!(report.keys, 100_000);
    assert_eq!(report.external_suffixes, 0, "{report:?}");

    // 40-byte keys leave suffixes of over 8 bytes: those take blocks.
    let g = masstree::pin();
    for i in 0..1_000 {
        t.put(format!("{}-and-sixteen-more-b", user(i)).as_bytes(), i, &g);
    }
    for i in (0..1_000).step_by(97) {
        let long = format!("{}-and-sixteen-more-b", user(i));
        assert_eq!(t.get(long.as_bytes(), &g), Some(&i));
        assert_eq!(t.get(user(i).as_bytes(), &g), Some(&i));
    }
    drop(g);
    let report = t.validate().expect("valid tree");
    assert_eq!(report.keys, 101_000);
    assert!(report.external_suffixes > 0, "{report:?}");
}

#[test]
fn layer_conversion_moves_a_block_suffix_inline() {
    // A resident's 12-byte suffix needs a block; once a second key with
    // the same slice pushes it one layer down, its 12-byte remainder
    // there is a slice plus a 4-byte suffix, stored inline.
    let mut t: Masstree<u32> = Masstree::new();
    let g = masstree::pin();
    t.put(b"01234567suffix-block", 1, &g);
    drop(g);
    assert_eq!(t.validate().unwrap().external_suffixes, 1);
    let g = masstree::pin();
    t.put(b"01234567X", 2, &g);
    assert_eq!(t.get(b"01234567suffix-block", &g), Some(&1));
    assert_eq!(t.get(b"01234567X", &g), Some(&2));
    assert_eq!(t.get(b"01234567suffix-blocK", &g), None);
    drop(g);
    let report = t.validate().expect("valid tree");
    assert_eq!((report.keys, report.external_suffixes), (2, 0));
}

#[test]
fn long_shared_prefixes_build_deep_layers() {
    let mut t: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    let prefix = b"0123456789abcdef0123456789abcdef0123456789abcdef"; // 48 bytes
    for i in 0..100u64 {
        let mut k = prefix.to_vec();
        k.extend_from_slice(format!("{i:08}").as_bytes());
        t.put(&k, i, &g);
    }
    for i in 0..100u64 {
        let mut k = prefix.to_vec();
        k.extend_from_slice(format!("{i:08}").as_bytes());
        assert_eq!(t.get(&k, &g), Some(&i), "key {i}");
    }
    // 48-byte shared prefix ⇒ at least 7 layers (§4.1: 1000 keys sharing a
    // 64-byte prefix generate at least 8 layers).
    drop(g);
    let report = t.validate().expect("valid tree");
    assert_eq!(report.keys, 100);
    assert!(report.layers >= 6, "layers = {}", report.layers);
}

#[test]
fn prefix_of_prefix_keys() {
    // Keys that are prefixes of each other at every slice boundary.
    let mut t: Masstree<u32> = Masstree::new();
    let g = masstree::pin();
    let full = b"aaaabbbbccccddddeeeeffff";
    let keys: Vec<&[u8]> = (0..=full.len()).map(|i| &full[..i]).collect();
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(t.put(k, i as u32, &g), None, "insert len {i}");
    }
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(t.get(k, &g), Some(&(i as u32)), "get len {i}");
    }
    drop(g);
    let report = t.validate().expect("valid tree");
    assert_eq!(report.keys, keys.len());
}

#[test]
fn sequential_inserts_split_correctly() {
    // Exercises the sequential-insert split optimization (§4.3).
    let mut t: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    for i in 0..10_000u64 {
        let k = format!("{i:08}");
        t.put(k.as_bytes(), i, &g);
    }
    for i in 0..10_000u64 {
        let k = format!("{i:08}");
        assert_eq!(t.get(k.as_bytes(), &g), Some(&i));
    }
    assert!(t.stats().snapshot().splits > 0);
    drop(g);
    let report = t.validate().expect("valid tree");
    assert_eq!(report.keys, 10_000);
}

#[test]
fn random_inserts_against_model() {
    let mut t: Masstree<u64> = Masstree::new();
    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let g = masstree::pin();
    for (i, k) in decimal_keys(50_000, 99).into_iter().enumerate() {
        let old_model = model.insert(k.clone(), i as u64);
        let old_tree = t.put(&k, i as u64, &g).copied();
        assert_eq!(old_tree, old_model, "put {:?}", String::from_utf8_lossy(&k));
    }
    for (k, v) in &model {
        assert_eq!(t.get(k, &g), Some(v));
    }
    assert_eq!(t.count_keys(&g), model.len());
    drop(g);
    let report = t.validate().expect("valid tree");
    assert_eq!(report.keys, model.len());
    assert!(report.interiors > 0);
}

#[test]
fn remove_against_model() {
    let mut t: Masstree<u64> = Masstree::new();
    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let g = masstree::pin();
    let keys = decimal_keys(20_000, 7);
    for (i, k) in keys.iter().enumerate() {
        model.insert(k.clone(), i as u64);
        t.put(k, i as u64, &g);
    }
    // Remove every other distinct key.
    let distinct: Vec<Vec<u8>> = model.keys().cloned().collect();
    for (j, k) in distinct.iter().enumerate() {
        if j % 2 == 0 {
            let want = model.remove(k);
            let got = t.remove(k, &g).copied();
            assert_eq!(got, want, "remove {:?}", String::from_utf8_lossy(k));
        }
    }
    for k in &distinct {
        assert_eq!(t.get(k, &g).copied(), model.get(k).copied());
    }
    drop(g);
    let report = t.validate().expect("valid tree");
    assert_eq!(report.keys, model.len());
}

#[test]
fn remove_everything_then_reuse() {
    let mut t: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    let keys = decimal_keys(5_000, 21);
    let distinct: std::collections::BTreeSet<Vec<u8>> = keys.iter().cloned().collect();
    for k in &distinct {
        t.put(k, 1, &g);
    }
    for k in &distinct {
        assert!(t.remove(k, &g).is_some());
    }
    assert_eq!(t.count_keys(&g), 0);
    assert!(
        t.stats().snapshot().nodes_deleted > 0,
        "border deletes happened"
    );
    // The tree must be fully reusable afterwards.
    for k in &distinct {
        assert_eq!(t.put(k, 2, &g), None);
    }
    assert_eq!(t.count_keys(&g), distinct.len());
    drop(g);
    t.validate().expect("valid tree after churn");
}

#[test]
fn scan_matches_model_order() {
    let t: Masstree<u64> = Masstree::new();
    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let g = masstree::pin();
    for (i, k) in decimal_keys(10_000, 3).into_iter().enumerate() {
        model.insert(k.clone(), i as u64);
        t.put(&k, i as u64, &g);
    }
    // Full scan == model iteration.
    let mut got = Vec::new();
    t.scan(b"", &g, |k, v| {
        got.push((k.to_vec(), *v));
        true
    });
    let want: Vec<(Vec<u8>, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(got.len(), want.len());
    assert_eq!(got, want);
}

#[test]
fn get_range_from_arbitrary_starts() {
    let t: Masstree<u64> = Masstree::new();
    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let g = masstree::pin();
    for (i, k) in decimal_keys(5_000, 11).into_iter().enumerate() {
        model.insert(k.clone(), i as u64);
        t.put(&k, i as u64, &g);
    }
    let starts: Vec<Vec<u8>> = vec![
        b"".to_vec(),
        b"1".to_vec(),
        b"12345".to_vec(),
        b"2".to_vec(),
        b"999999999999".to_vec(),
        b"5000000000".to_vec(),
    ];
    for start in starts {
        for limit in [1usize, 7, 100] {
            let got = t.get_range(&start, limit, &g);
            let want: Vec<(Vec<u8>, u64)> = model
                .range(start.clone()..)
                .take(limit)
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            let got_pairs: Vec<(Vec<u8>, u64)> = got.into_iter().map(|(k, v)| (k, *v)).collect();
            assert_eq!(got_pairs, want, "start={start:?} limit={limit}");
        }
    }
}

#[test]
fn scan_with_deep_layers() {
    let t: Masstree<u64> = Masstree::new();
    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let g = masstree::pin();
    // URL-like keys sharing long prefixes (the Bigtable motivation, §1).
    let domains = [
        "com.example",
        "com.example.mail",
        "org.kernel",
        "org.kernel.git",
    ];
    for (d, dom) in domains.iter().enumerate() {
        for p in 0..200u64 {
            let key = format!("{dom}/page{p:05}").into_bytes();
            let val = d as u64 * 1000 + p;
            model.insert(key.clone(), val);
            t.put(&key, val, &g);
        }
    }
    let mut got = Vec::new();
    t.scan(b"", &g, |k, v| {
        got.push((k.to_vec(), *v));
        true
    });
    let want: Vec<(Vec<u8>, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(got, want);
    // Prefix-bounded range: all of org.kernel/* (not org.kernel.git).
    let hits = t.get_range(b"org.kernel/", 1000, &g);
    let in_prefix = hits
        .iter()
        .take_while(|(k, _)| k.starts_with(b"org.kernel/"))
        .count();
    assert_eq!(in_prefix, 200);
}

#[test]
fn scan_early_stop() {
    let t: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    for i in 0..1000u64 {
        t.put(format!("{i:04}").as_bytes(), i, &g);
    }
    let mut seen = 0;
    let visited = t.scan(b"", &g, |_, _| {
        seen += 1;
        seen < 10
    });
    assert_eq!(seen, 10);
    assert_eq!(visited, 10);
}

#[test]
fn maintain_collects_empty_layers() {
    let mut t: Masstree<u64> = Masstree::new();
    let g = masstree::pin();
    // Create a layer, then empty it.
    t.put(b"01234567AAAA", 1, &g);
    t.put(b"01234567BBBB", 2, &g);
    assert!(t.stats().snapshot().layers_created >= 1);
    t.remove(b"01234567AAAA", &g);
    t.remove(b"01234567BBBB", &g);
    assert_eq!(t.count_keys(&g), 0);
    // The empty layer may persist until maintenance runs.
    t.maintain(&g);
    drop(g);
    let report = t.validate().expect("valid after maintain");
    assert_eq!(report.keys, 0);
    assert_eq!(report.layers, 1, "empty layer collected");
}

#[test]
fn ten_keys_sharing_one_slice() {
    // §4.2: a single slice can host keys of lengths 0..=8 plus one longer
    // key — 10 entries, the maximum for one slice.
    let mut t: Masstree<u32> = Masstree::new();
    let g = masstree::pin();
    let base = b"SLICEKEY";
    let mut keys: Vec<Vec<u8>> = (0..=8).map(|l| base[..l].to_vec()).collect();
    keys.push(b"SLICEKEYLONG".to_vec());
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(t.put(k, i as u32, &g), None);
    }
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(t.get(k, &g), Some(&(i as u32)), "key {i}");
    }
    drop(g);
    assert_eq!(t.validate().unwrap().keys, 10);
}
