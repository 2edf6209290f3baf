//! Loom model of the two-phase sharded dictionary encode.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`. The determinism
//! argument in `sharded.rs` says ids are independent of thread
//! interleaving because phase 1 publishes shard outputs through slot
//! mutexes and the scope join edge, and the id-assigning sweep is
//! serial. The model re-runs `extend_batches` under injected schedules
//! and checks every one produces exactly the serial `encode_key` ids.
#![cfg(loom)]

use parj_dict::{fx_hash_bytes, Id, Namespace, TermBatch};

fn batch_of(ns: &Namespace, keys: &[&str], seen: &mut Vec<String>) -> TermBatch {
    let mut b = TermBatch::new();
    for &k in keys {
        let hash = fx_hash_bytes(k.as_bytes());
        if ns.get_key_hashed(hash, k).is_some() || seen.iter().any(|s| s == k) {
            continue;
        }
        seen.push(k.to_string());
        b.push(hash, k);
    }
    b
}

#[test]
fn loom_extend_batches_is_schedule_independent() {
    // Serial oracle, computed once outside the model.
    let chunks: Vec<Vec<&str>> = vec![
        vec!["a", "b", "c", "a"],
        vec!["d", "b", "e"],
        vec!["c", "f", "a", "g"],
    ];
    let mut serial = Namespace::new();
    for chunk in &chunks {
        for &k in chunk {
            serial.encode_key(k);
        }
    }
    let oracle: Vec<String> = (0..serial.len() as Id)
        .map(|id| serial.key(id).expect("oracle id in range").to_string())
        .collect();

    loom::model(|| {
        let mut ns = Namespace::new();
        let mut batches = Vec::new();
        for chunk in &chunks {
            let mut seen = Vec::new();
            batches.push(batch_of(&ns, chunk, &mut seen));
        }
        let ids = ns.extend_batches(&batches, 4, 3);

        assert_eq!(ns.len(), oracle.len(), "id universe diverged");
        for (id, key) in oracle.iter().enumerate() {
            assert_eq!(
                ns.key(id as Id),
                Some(key.as_str()),
                "id {id} diverged on this schedule"
            );
        }
        for (c, b) in batches.iter().enumerate() {
            for (i, &id) in ids[c].iter().enumerate() {
                assert_eq!(
                    ns.key(id),
                    Some(b.key(i)),
                    "returned id table wrong for chunk {c} slot {i}"
                );
            }
        }
    });
}
