//! Loom model of the cache's stamp rule.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`. The engine keeps the
//! stamps (generation, epoch sum) in each published version, and a
//! request probes and inserts with the stamps of the version it pinned,
//! so requests on older and newer versions insert under the same key
//! concurrently. The property checked here, under every interleaving
//! loom can produce: a lookup serves only an entry whose stamps equal
//! the probe's — never one inserted under older or newer stamps.

#![cfg(loom)]

use parj_cache::ShardedLru;
use parj_sync::thread;
use parj_sync::Arc;

/// Each value names the stamps it was inserted under.
fn value(generation: u64, epoch_sum: u64) -> u64 {
    generation * 100 + epoch_sum
}

#[test]
fn loom_lookup_serves_only_equal_stamps() {
    const STAMPS: [(u64, u64); 4] = [(1, 1), (0, 5), (1, 2), (2, 0)];
    loom::model(|| {
        let lru: Arc<ShardedLru<u64>> = Arc::new(ShardedLru::new(1 << 16));
        lru.insert(b"q".to_vec(), value(1, 1), 64, 1, 1);

        // Inserts of an older generation and of newer stamps on each
        // axis race one reader probing with every stamp in play.
        let writers: Vec<_> = STAMPS[1..]
            .iter()
            .map(|&(g, e)| {
                let lru = Arc::clone(&lru);
                thread::spawn(move || {
                    lru.insert(b"q".to_vec(), value(g, e), 64, g, e);
                })
            })
            .collect();
        let reader = {
            let lru = Arc::clone(&lru);
            thread::spawn(move || {
                for (g, e) in STAMPS {
                    if let Some(v) = lru.lookup(b"q", g, e) {
                        assert_eq!(v, value(g, e), "served an entry stamped otherwise");
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();

        // Whatever the schedule left resident is served exactly to its
        // own stamps.
        for (g, e) in STAMPS {
            if let Some(v) = lru.lookup(b"q", g, e) {
                assert_eq!(v, value(g, e));
            }
        }
    });
}
