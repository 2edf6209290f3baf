//! Parallel triple staging: fused dictionary encode + per-predicate
//! pair routing for the bulk loader.
//!
//! [`StoreBuilder::add_triples_parallel`] stages parsed triples on N
//! workers while producing *exactly* the builder state a serial
//! [`StoreBuilder::add_term_triple`] loop over the same triples in
//! document order would — same dictionary bytes, same built store:
//!
//! 1. **Collect** (parallel per chunk): write every term's canonical
//!    key into one scratch buffer, hash it, probe the existing
//!    dictionary and the chunk's own novel terms, and record each
//!    triple as three [`Slot`]s — a known id, or an index into the
//!    chunk's deduplicated novel-term batch. Only a novel key's bytes
//!    are copied; a repeat costs a hash and a probe. Terms arrive as
//!    [`TermRef`]s, borrowed from parser input or from owned
//!    [`parj_dict::Term`]s.
//! 2. **Assign** ([`parj_dict::Namespace::extend_batches`]): the
//!    sharded two-phase encode appends the novel terms in document
//!    first-occurrence order, so ids are independent of thread count.
//! 3. **Route** (parallel per chunk): resolve the refs and push
//!    `(subject, object)` pairs into worker-local per-predicate
//!    buffers, merged into the builder by concatenation. Pair order
//!    within a predicate varies with scheduling, but the replica build
//!    sorts and dedups every partition, so the finished store is still
//!    byte-identical at any thread count.

use parj_sync::atomic::{AtomicUsize, Ordering};
use parj_sync::{LockLevel, OrderedMutex};

use parj_dict::{fx_hash_bytes, Id, IdTable, Namespace, TermBatch, TermRef};

use crate::store::StoreBuilder;

/// Shard count for the two-phase dictionary encode. Power of two
/// (required for mask routing), comfortably above typical core counts
/// so every worker finds a free shard, small enough that the per-shard
/// id tables stay cheap on tiny loads.
const DICT_SHARDS: usize = 32;

/// A term occurrence after the collect phase.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Already interned before this staging call.
    Known(Id),
    /// Novel: index into the chunk's candidate batch.
    Novel(u32),
}

type SlotTriple = (Slot, Slot, Slot);

/// Per-chunk dedup helper: canonical key → [`Slot`], probing the
/// shared namespace first and the chunk-local batch second.
struct Collector<'a> {
    ns: &'a Namespace,
    batch: TermBatch,
    dedup: IdTable,
    /// The key of the term being collected.
    key: String,
}

impl<'a> Collector<'a> {
    /// A collector for a chunk that may hold up to `terms` novel terms.
    fn new(ns: &'a Namespace, terms: usize) -> Self {
        Self {
            ns,
            batch: TermBatch::new(),
            dedup: IdTable::with_capacity(terms),
            key: String::new(),
        }
    }

    fn collect(&mut self, term: &TermRef<'_>) -> Slot {
        self.key.clear();
        term.write_canonical_key(&mut self.key);
        let key = self.key.as_str();
        let hash = fx_hash_bytes(key.as_bytes());
        if let Some(id) = self.ns.get_key_hashed(hash, key) {
            return Slot::Known(id);
        }
        let batch = &mut self.batch;
        let seen = self.dedup.find_or_insert(
            hash,
            |i| batch.key(i as usize) == key,
            || (0..batch.len()).map(|i| batch.hash(i)),
        );
        Slot::Novel(seen.unwrap_or_else(|| batch.push(hash, key)))
    }
}

fn collect_chunk(
    resources: &Namespace,
    predicates: &Namespace,
    chunk: &[(TermRef<'_>, TermRef<'_>, TermRef<'_>)],
) -> (TermBatch, TermBatch, Vec<SlotTriple>) {
    let mut res = Collector::new(resources, 2 * chunk.len());
    let mut pred = Collector::new(predicates, chunk.len().min(64));
    let mut refs = Vec::with_capacity(chunk.len());
    for (s, p, o) in chunk {
        refs.push((res.collect(s), pred.collect(p), res.collect(o)));
    }
    (res.batch, pred.batch, refs)
}

fn resolve(r: Slot, ids: &[Id]) -> Id {
    match r {
        Slot::Known(id) => id,
        Slot::Novel(i) => ids[i as usize],
    }
}

impl StoreBuilder {
    /// Stages `chunks` of parsed triples on `threads` workers. The
    /// chunks must be consecutive slices of the input in document
    /// order; the resulting dictionary and built store are identical
    /// to serially adding every triple in that order, for any
    /// `threads` and any chunk boundaries.
    pub fn add_triples_parallel(
        &mut self,
        chunks: Vec<Vec<(TermRef<'_>, TermRef<'_>, TermRef<'_>)>>,
        threads: usize,
    ) {
        let threads = threads.max(1);
        let n_chunks = chunks.len();
        if n_chunks == 0 {
            return;
        }
        let (dict, by_pred) = self.parts_mut();

        // Phase 1: collect novel terms per chunk against the current
        // dictionary (read-only, embarrassingly parallel).
        let collected: Vec<(TermBatch, TermBatch, Vec<SlotTriple>)> = if threads <= 1
            || n_chunks <= 1
        {
            chunks
                .iter()
                .map(|c| collect_chunk(dict.resource_namespace(), dict.predicate_namespace(), c))
                .collect()
        } else {
            let resources = dict.resource_namespace();
            let predicates = dict.predicate_namespace();
            let next = AtomicUsize::new(0);
            let mut slots: Vec<Option<(TermBatch, TermBatch, Vec<SlotTriple>)>> = Vec::new();
            slots.resize_with(n_chunks, || None);
            let slot_ptrs: Vec<OrderedMutex<&mut Option<_>>> = slots
                .iter_mut()
                .map(|s| OrderedMutex::new(LockLevel::Staging, "staging.store_slot", s))
                .collect();
            parj_sync::thread::scope(|scope| {
                for _ in 0..threads.min(n_chunks) {
                    scope.spawn(|| loop {
                        // ordering: Relaxed — chunk ticket only;
                        // results are published through slot
                        // Mutexes and the scope join edge
                        // (loom_parallel model).
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        let out = collect_chunk(resources, predicates, &chunks[c]);
                        **slot_ptrs[c].lock() = Some(out);
                    });
                }
            });
            drop(slot_ptrs);
            slots
                .into_iter()
                .map(|s| s.expect("every chunk collected"))
                .collect()
        };
        drop(chunks);
        let mut res_batches = Vec::with_capacity(n_chunks);
        let mut pred_batches = Vec::with_capacity(n_chunks);
        let mut ref_triples = Vec::with_capacity(n_chunks);
        for (r, p, t) in collected {
            res_batches.push(r);
            pred_batches.push(p);
            ref_triples.push(t);
        }

        // Phase 2: deterministic id assignment (document order).
        let res_ids = dict.extend_resources(&res_batches, DICT_SHARDS, threads);
        let pred_ids = dict.extend_predicates(&pred_batches, DICT_SHARDS, threads);
        let n_preds = dict.num_predicates();
        if by_pred.len() < n_preds {
            by_pred.resize_with(n_preds, Vec::new);
        }

        // Phase 3: resolve refs and route pairs per predicate.
        if threads <= 1 || n_chunks <= 1 {
            for (c, refs) in ref_triples.iter().enumerate() {
                for &(s, p, o) in refs {
                    let p = resolve(p, &pred_ids[c]);
                    by_pred[p as usize].push((resolve(s, &res_ids[c]), resolve(o, &res_ids[c])));
                }
            }
        } else {
            // One per-predicate pair table per worker.
            type WorkerTable = Vec<Vec<(Id, Id)>>;
            let next = AtomicUsize::new(0);
            let tables: OrderedMutex<Vec<WorkerTable>> =
                OrderedMutex::new(LockLevel::Staging, "staging.pair_tables", Vec::new());
            parj_sync::thread::scope(|scope| {
                for _ in 0..threads.min(n_chunks) {
                    scope.spawn(|| {
                        let mut local: Vec<Vec<(Id, Id)>> = vec![Vec::new(); n_preds];
                        loop {
                            // ordering: Relaxed — chunk ticket only;
                            // worker tables are published through the
                            // tables Mutex (loom_parallel model).
                            let c = next.fetch_add(1, Ordering::Relaxed);
                            if c >= n_chunks {
                                break;
                            }
                            for &(s, p, o) in &ref_triples[c] {
                                let p = resolve(p, &pred_ids[c]);
                                local[p as usize]
                                    .push((resolve(s, &res_ids[c]), resolve(o, &res_ids[c])));
                            }
                        }
                        tables.lock().push(local);
                    });
                }
            });
            for local in tables.into_inner() {
                for (p, mut pairs) in local.into_iter().enumerate() {
                    by_pred[p].append(&mut pairs);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_dict::Term;

    /// The chunk as the staging input: each owned term viewed through
    /// [`TermRef::from`].
    fn views(chunk: &[(Term, Term, Term)]) -> Vec<(TermRef<'_>, TermRef<'_>, TermRef<'_>)> {
        chunk
            .iter()
            .map(|(s, p, o)| (TermRef::from(s), TermRef::from(p), TermRef::from(o)))
            .collect()
    }

    fn triples(n: usize) -> Vec<(Term, Term, Term)> {
        (0..n)
            .map(|i| {
                (
                    Term::iri(format!("http://e/s{}", i % 23)),
                    Term::iri(format!("http://e/p{}", i % 5)),
                    if i % 3 == 0 {
                        Term::literal(format!("v{}", i % 17))
                    } else {
                        Term::iri(format!("http://e/s{}", (i + 7) % 31))
                    },
                )
            })
            .collect()
    }

    /// Dictionary bytes and built-store snapshot bytes of a builder.
    fn staged_bytes(b: StoreBuilder) -> (Vec<u8>, Vec<u8>) {
        let mut dict_bytes = Vec::new();
        b.dict().encode_into(&mut dict_bytes);
        (dict_bytes, b.build().to_snapshot_bytes())
    }

    fn serial_build(data: &[(Term, Term, Term)]) -> (Vec<u8>, Vec<u8>) {
        let mut b = StoreBuilder::new();
        for (s, p, o) in data {
            b.add_term_triple(s, p, o);
        }
        staged_bytes(b)
    }

    #[test]
    fn parallel_staging_matches_serial_byte_for_byte() {
        let data = triples(400);
        let (serial_dict, serial_store) = serial_build(&data);
        for threads in [1, 2, 4, 9] {
            for n_chunks in [1, 3, 8] {
                let per = data.len().div_ceil(n_chunks);
                let chunks: Vec<Vec<_>> = data.chunks(per).map(views).collect();
                let mut b = StoreBuilder::new();
                b.add_triples_parallel(chunks, threads);
                let mut dict_bytes = Vec::new();
                b.dict().encode_into(&mut dict_bytes);
                assert_eq!(dict_bytes, serial_dict, "dict, {threads} threads");
                assert_eq!(
                    b.build().to_snapshot_bytes(),
                    serial_store,
                    "store, {threads} threads / {n_chunks} chunks"
                );
            }
        }
    }

    #[test]
    fn incremental_staging_sees_existing_terms() {
        let data = triples(100);
        let (first, second) = data.split_at(50);
        let (serial_dict, serial_store) = serial_build(&data);
        let mut b = StoreBuilder::new();
        for (s, p, o) in first {
            b.add_term_triple(s, p, o);
        }
        b.add_triples_parallel(vec![views(&second[..20]), views(&second[20..])], 4);
        let mut dict_bytes = Vec::new();
        b.dict().encode_into(&mut dict_bytes);
        assert_eq!(dict_bytes, serial_dict);
        assert_eq!(b.build().to_snapshot_bytes(), serial_store);
    }

    #[test]
    fn empty_chunks_are_harmless() {
        let mut b = StoreBuilder::new();
        b.add_triples_parallel(Vec::new(), 4);
        b.add_triples_parallel(vec![Vec::new(), Vec::new()], 4);
        assert!(b.is_empty());
    }

    #[test]
    fn borrowed_and_owned_terms_stage_identical_bytes() {
        // Every term shape, with and without escapes, and enough
        // repeats that chunk-local and cross-chunk dedup both fire.
        let doc: String = (0..240)
            .map(|i| {
                let object = match i % 6 {
                    0 => format!("<http://e/s{}>", (i + 7) % 31),
                    1 => format!("_:b{}", i % 9),
                    2 => format!("\"v{} é\"", i % 17),
                    3 => format!("\"tab\\t{}\"@en-GB", i % 4),
                    4 => format!("\"{}\"^^<http://e/int>", i % 13),
                    _ => format!("\"\\uD83D\\uDE00 {}\"^^<http://e/\\u0064t>", i % 3),
                };
                format!("<http://e/s{}> <http://e/p{}> {object} .\n", i % 23, i % 5)
            })
            .collect();
        let owned = parj_rio::parse_ntriples_str(&doc).unwrap();
        let oracle = serial_build(&owned);
        for threads in [1, 2, 4, 9] {
            for n_chunks in [1, 3, 8] {
                let cuts = parj_rio::split_ntriples(&doc, n_chunks);
                let raw: Vec<Vec<_>> = cuts
                    .iter()
                    .map(|c| parj_rio::parse_ntriples_chunk(&doc, c).triples)
                    .collect();
                let mut at = 0;
                let terms: Vec<Vec<_>> = raw
                    .iter()
                    .map(|c| {
                        at += c.len();
                        views(&owned[at - c.len()..at])
                    })
                    .collect();
                let mut from_raw = StoreBuilder::new();
                from_raw.add_triples_parallel(raw, threads);
                let mut from_terms = StoreBuilder::new();
                from_terms.add_triples_parallel(terms, threads);
                let got = staged_bytes(from_raw);
                let at = format!("{threads} threads / {n_chunks} chunks");
                assert_eq!(got, staged_bytes(from_terms), "raw vs owned, {at}");
                assert_eq!(got, oracle, "raw vs serial, {at}");
            }
        }
    }

    #[test]
    fn terms_with_colliding_hashes_stay_distinct() {
        // FxHash folds a key's 8-byte words as h = (rotl(h, 5) ^ word) *
        // SEED from h = 0, so for a 16-byte key the second word can be
        // solved to cancel any change to the first.
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap());
        let fold = |w: &[u8]| word(w).wrapping_mul(SEED).rotate_left(5);
        let a = "http://e/aaaaaa";
        let a_key = Term::iri(a).canonical_key();
        let b = (0u32..)
            .find_map(|n| {
                let first = format!("I{n:07}");
                let second = word(&a_key.as_bytes()[8..])
                    ^ fold(&a_key.as_bytes()[..8])
                    ^ fold(first.as_bytes());
                let second = second.to_le_bytes();
                second
                    .is_ascii()
                    .then(|| format!("{}{}", &first[1..], std::str::from_utf8(&second).unwrap()))
            })
            .expect("one first word in 256 leaves an ASCII second word");
        assert_ne!(a, b);
        assert_eq!(
            fx_hash_bytes(a_key.as_bytes()),
            fx_hash_bytes(Term::iri(&*b).canonical_key().as_bytes())
        );
        let p = Term::iri("http://e/p");
        let data = vec![
            (Term::iri(a), p.clone(), Term::iri(&*b)),
            (Term::iri(&*b), p.clone(), Term::iri(a)),
            (Term::iri(&*b), p, Term::iri(&*b)),
        ];
        let serial = serial_build(&data);
        for chunks in [
            vec![views(&data)],
            vec![views(&data[..1]), views(&data[1..])],
        ] {
            let mut builder = StoreBuilder::new();
            builder.add_triples_parallel(chunks, 2);
            assert_eq!(builder.dict().num_resources(), 2);
            assert_eq!(staged_bytes(builder), serial);
        }
    }
}
