//! The top-level triple store: dictionary + one partition per predicate.

use parj_dict::{Dictionary, EncodedTriple, Id, Term};

use crate::partition::Partition;
use crate::replica::Replica;

/// Which replica of a partition: S-O (sorted subject-then-object, the
/// paper's `prop_i`) or O-S (`prop_i'`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortOrder {
    /// Keys are subjects, values are objects.
    SO,
    /// Keys are objects, values are subjects.
    OS,
}

impl SortOrder {
    /// The other order.
    #[inline]
    pub fn flip(self) -> SortOrder {
        match self {
            SortOrder::SO => SortOrder::OS,
            SortOrder::OS => SortOrder::SO,
        }
    }
}

impl std::fmt::Display for SortOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SortOrder::SO => "S-O",
            SortOrder::OS => "O-S",
        })
    }
}

/// Build-time options for [`StoreBuilder::build_with`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Build ID-to-Position indexes on every replica (§4.2). The paper
    /// treats them as auxiliary; PARJ runs with or without them.
    pub build_idpos: bool,
    /// Block interval for the ID-to-Position index; must be a multiple
    /// of 64. The paper used 480 with byte-granular counting; we use 512
    /// for word alignment (same space regime: ~1.06 bits per id).
    pub idpos_interval: usize,
    /// Threads used to sort/build partitions (vertical partitioning is
    /// embarrassingly parallel across predicates; output is identical
    /// at any thread count). Default: available parallelism.
    pub build_threads: usize,
    /// When `Some(n)`, block-compress each replica's values area
    /// ([`crate::codec`]) once it holds at least `n` triples and the
    /// packed form is smaller than raw. `None` (the default) keeps all
    /// replicas raw; the engine layer opts in via
    /// `EngineConfig::compress_replicas`.
    pub compress_min_values: Option<usize>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            build_idpos: true,
            idpos_interval: 512,
            build_threads: parj_sync::thread::available_parallelism().map_or(1, |n| n.get()),
            compress_min_values: None,
        }
    }
}

/// Accumulates encoded triples and builds a [`TripleStore`].
#[derive(Debug, Default)]
pub struct StoreBuilder {
    dict: Dictionary,
    /// Pairs grouped by predicate id (dense).
    by_pred: Vec<Vec<(Id, Id)>>,
}

impl StoreBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes and adds one term triple.
    pub fn add_term_triple(&mut self, s: &Term, p: &Term, o: &Term) -> EncodedTriple {
        let s = self.dict.encode_resource(s);
        let p = self.dict.encode_predicate(p);
        let o = self.dict.encode_resource(o);
        self.add_encoded(EncodedTriple::new(s, p, o));
        EncodedTriple::new(s, p, o)
    }

    /// Split borrow for the parallel staging path (`parallel.rs`):
    /// phase 1 reads the dictionary while phase 3 fills `by_pred`.
    pub(crate) fn parts_mut(&mut self) -> (&mut Dictionary, &mut Vec<Vec<(Id, Id)>>) {
        (&mut self.dict, &mut self.by_pred)
    }

    /// Adds an already-encoded triple. The predicate id must have been
    /// produced by this builder's dictionary.
    pub fn add_encoded(&mut self, t: EncodedTriple) {
        let p = t.p as usize;
        if self.by_pred.len() <= p {
            self.by_pred.resize_with(p + 1, Vec::new);
        }
        self.by_pred[p].push((t.s, t.o));
    }

    /// Access to the dictionary being built (for callers that encode
    /// terms themselves, e.g. the data generators).
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// Read access to the dictionary being built.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Number of buffered (pre-dedup) triples.
    pub fn len(&self) -> usize {
        self.by_pred.iter().map(Vec::len).sum()
    }

    /// True if no triples were added.
    pub fn is_empty(&self) -> bool {
        self.by_pred.iter().all(Vec::is_empty)
    }

    /// Builds the store with default options.
    pub fn build(self) -> TripleStore {
        self.build_with(StoreOptions::default())
    }

    /// Builds the store. Partition construction (sort + CSR + optional
    /// ID-to-Position index, per predicate) runs on
    /// [`StoreOptions::build_threads`] workers; the result is identical
    /// at any thread count.
    pub fn build_with(self, options: StoreOptions) -> TripleStore {
        let universe = self.dict.num_resources();
        let n_preds = self.dict.num_predicates();
        let mut by_pred = self.by_pred;
        by_pred.resize_with(n_preds, Vec::new);

        let build_one = |pred: usize, pairs: &[(Id, Id)]| -> Partition {
            let mut part = Partition::build(pred as Id, pairs);
            if options.build_idpos {
                for order in [SortOrder::SO, SortOrder::OS] {
                    part.replica_mut(order)
                        .build_idpos(universe, options.idpos_interval);
                }
            }
            if let Some(min) = options.compress_min_values {
                part.compress_values(min);
            }
            part
        };

        let threads = options.build_threads.max(1).min(n_preds.max(1));
        let partitions: Vec<Partition> = if threads <= 1 || n_preds <= 1 {
            by_pred
                .iter()
                .enumerate()
                .map(|(pred, pairs)| build_one(pred, pairs))
                .collect()
        } else {
            // Workers draw predicate indexes from one atomic counter —
            // the same dependency-free pattern as query execution.
            let next = parj_sync::atomic::AtomicUsize::new(0);
            let mut slots: Vec<Option<Partition>> = Vec::new();
            slots.resize_with(n_preds, || None);
            let slot_ptrs: Vec<parj_sync::OrderedMutex<&mut Option<Partition>>> = slots
                .iter_mut()
                .map(|s| {
                    parj_sync::OrderedMutex::new(
                        parj_sync::LockLevel::Staging,
                        "staging.partition_slot",
                        s,
                    )
                })
                .collect();
            parj_sync::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        // ordering: Relaxed — predicate ticket only;
                        // partitions are published through slot Mutexes
                        // and the scope join edge (loom_parallel model).
                        let pred = next
                            .fetch_add(1, parj_sync::atomic::Ordering::Relaxed);
                        if pred >= n_preds {
                            break;
                        }
                        let part = build_one(pred, &by_pred[pred]);
                        **slot_ptrs[pred].lock() = Some(part);
                    });
                }
            });
            drop(slot_ptrs);
            slots
                .into_iter()
                .map(|s| s.expect("every predicate built"))
                .collect()
        };

        let num_triples = partitions.iter().map(Partition::num_triples).sum();
        let mut dict = self.dict;
        dict.shrink_to_fit();
        TripleStore {
            dict,
            partitions,
            num_triples,
            options,
        }
    }
}

/// The complete in-memory RDF store: the paper's physical design of §3.
///
/// Immutable after build — PARJ's execution model relies on workers
/// sharing the store read-only with no synchronization; updates go
/// through rebuilding (or the engine's copy-on-write wrapper).
#[derive(Debug)]
pub struct TripleStore {
    dict: Dictionary,
    /// Indexed by predicate id; every predicate in the dictionary has a
    /// partition (possibly empty).
    partitions: Vec<Partition>,
    num_triples: usize,
    options: StoreOptions,
}

impl TripleStore {
    /// The dictionary.
    #[inline]
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Total distinct triples stored.
    #[inline]
    pub fn num_triples(&self) -> usize {
        self.num_triples
    }

    /// Number of predicates (== number of partitions).
    #[inline]
    pub fn num_predicates(&self) -> usize {
        self.partitions.len()
    }

    /// The partition for `predicate`, or `None` if the id is out of
    /// range.
    #[inline]
    pub fn partition(&self, predicate: Id) -> Option<&Partition> {
        self.partitions.get(predicate as usize)
    }

    /// The replica for `predicate` in the given order.
    #[inline]
    pub fn replica(&self, predicate: Id, order: SortOrder) -> Option<&Replica> {
        self.partition(predicate).map(|p| p.replica(order))
    }

    /// All partitions, indexed by predicate id.
    #[inline]
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Build options that produced this store.
    #[inline]
    pub fn options(&self) -> StoreOptions {
        self.options
    }

    /// True if the fully-constant triple exists.
    pub fn contains(&self, t: EncodedTriple) -> bool {
        self.partition(t.p).is_some_and(|p| p.contains(t.s, t.o))
    }

    /// Iterates every stored triple (predicate-major, then (s,o) order).
    /// Intended for tests and export, not the query path.
    pub fn iter_triples(&self) -> impl Iterator<Item = EncodedTriple> + '_ {
        self.partitions.iter().flat_map(|part| {
            part.iter_so()
                .map(move |(s, o)| EncodedTriple::new(s, part.predicate(), o))
        })
    }

    /// Total bytes of the partition arrays (the paper reports e.g. 22 GB
    /// for LUBM 10240 excluding dictionary).
    pub fn partitions_memory_bytes(&self) -> usize {
        self.partitions.iter().map(Partition::memory_bytes).sum()
    }

    /// Total bytes including the dictionary (paper: 50 GB with
    /// dictionary for LUBM 10240).
    pub fn total_memory_bytes(&self) -> usize {
        self.partitions_memory_bytes() + self.dict.memory_bytes()
    }

    /// Block-compresses every replica holding at least `min_values`
    /// triples (where the packed form actually saves memory), and
    /// records the policy in [`StoreOptions::compress_min_values`] so
    /// delta compaction re-applies it to replacement partitions.
    /// Returns the number of replicas now compressed.
    pub fn compress_values(&mut self, min_values: usize) -> usize {
        self.options.compress_min_values = Some(min_values);
        let mut n = 0;
        for part in &mut self.partitions {
            for order in [SortOrder::SO, SortOrder::OS] {
                let r = part.replica_mut(order);
                if r.compress(min_values) {
                    n += 1;
                }
            }
        }
        n
    }

    /// Verifies every partition's invariants.
    pub fn check_invariants(&self) -> Result<(), String> {
        for part in &self.partitions {
            part.check_invariants()
                .map_err(|e| format!("predicate {}: {e}", part.predicate()))?;
        }
        let counted: usize = self.partitions.iter().map(Partition::num_triples).sum();
        if counted != self.num_triples {
            return Err(format!(
                "num_triples {} != counted {counted}",
                self.num_triples
            ));
        }
        Ok(())
    }

    /// Reassembles a store from parts (snapshot loading).
    pub(crate) fn from_parts(
        dict: Dictionary,
        partitions: Vec<Partition>,
        options: StoreOptions,
    ) -> Self {
        let num_triples = partitions.iter().map(Partition::num_triples).sum();
        TripleStore {
            dict,
            partitions,
            num_triples,
            options,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the full §3 running example (Table 1 data: teaches +
    /// worksFor).
    fn example_store() -> TripleStore {
        let mut b = StoreBuilder::new();
        let rows = [
            ("ProfessorA", "teaches", "Mathematics"),
            ("ProfessorB", "teaches", "Chemistry"),
            ("ProfessorC", "teaches", "Literature"),
            ("ProfessorA", "teaches", "Physics"),
            ("ProfessorA", "worksFor", "University1"),
            ("ProfessorB", "worksFor", "University2"),
            ("ProfessorC", "worksFor", "University2"),
        ];
        for (s, p, o) in rows {
            b.add_term_triple(&Term::iri(s), &Term::iri(p), &Term::iri(o));
        }
        b.build()
    }

    #[test]
    fn section3_running_example() {
        let store = example_store();
        assert_eq!(store.num_triples(), 7);
        assert_eq!(store.num_predicates(), 2);
        let teaches = store.dict().predicate_id(&Term::iri("teaches")).unwrap();
        let works_for = store.dict().predicate_id(&Term::iri("worksFor")).unwrap();

        let so = store.replica(teaches, SortOrder::SO).unwrap();
        assert_eq!(so.num_keys(), 3); // three professors teach
        let prof_a = store.dict().resource_id(&Term::iri("ProfessorA")).unwrap();
        assert_eq!(so.values_for_key(prof_a).len(), 2); // Mathematics, Physics

        // Example 3.2: search propO-S of worksFor for University1.
        let os = store.replica(works_for, SortOrder::OS).unwrap();
        let uni1 = store.dict().resource_id(&Term::iri("University1")).unwrap();
        assert_eq!(os.values_for_key(uni1), &[prof_a]);
        let uni2 = store.dict().resource_id(&Term::iri("University2")).unwrap();
        assert_eq!(os.values_for_key(uni2).len(), 2);

        assert_eq!(store.check_invariants(), Ok(()));
    }

    #[test]
    fn contains_and_iter() {
        let store = example_store();
        let d = store.dict();
        let t = EncodedTriple::new(
            d.resource_id(&Term::iri("ProfessorA")).unwrap(),
            d.predicate_id(&Term::iri("teaches")).unwrap(),
            d.resource_id(&Term::iri("Physics")).unwrap(),
        );
        assert!(store.contains(t));
        assert!(!store.contains(EncodedTriple::new(t.s, t.p, t.s)));
        assert_eq!(store.iter_triples().count(), 7);
    }

    #[test]
    fn idpos_respects_options() {
        let mut b = StoreBuilder::new();
        b.add_term_triple(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
        let store = b.build_with(StoreOptions {
            build_idpos: false,
            ..StoreOptions::default()
        });
        assert!(store.replica(0, SortOrder::SO).unwrap().idpos().is_none());

        let mut b = StoreBuilder::new();
        b.add_term_triple(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
        let store = b.build();
        assert!(store.replica(0, SortOrder::SO).unwrap().idpos().is_some());
    }

    #[test]
    fn empty_store() {
        let store = StoreBuilder::new().build();
        assert_eq!(store.num_triples(), 0);
        assert_eq!(store.num_predicates(), 0);
        assert!(store.partition(0).is_none());
        assert_eq!(store.check_invariants(), Ok(()));
    }

    #[test]
    fn predicate_with_no_triples_gets_empty_partition() {
        let mut b = StoreBuilder::new();
        // Encode a predicate into the dictionary without any triple.
        b.dict_mut().encode_predicate(&Term::iri("lonely"));
        b.add_term_triple(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
        let store = b.build();
        assert_eq!(store.num_predicates(), 2);
        let lonely = store.dict().predicate_id(&Term::iri("lonely")).unwrap();
        assert_eq!(store.partition(lonely).unwrap().num_triples(), 0);
    }

    #[test]
    fn parallel_build_is_deterministic() {
        // The same data built at different thread counts must be
        // bit-identical (ordering, replicas, indexes).
        let make = |threads: usize| {
            let mut b = StoreBuilder::new();
            for i in 0..500u32 {
                b.add_term_triple(
                    &Term::iri(format!("s{}", i % 83)),
                    &Term::iri(format!("p{}", i % 7)),
                    &Term::iri(format!("o{}", (i * 13) % 91)),
                );
            }
            b.build_with(StoreOptions {
                build_threads: threads,
                ..StoreOptions::default()
            })
        };
        let one = make(1);
        for threads in [2, 4, 9] {
            let multi = make(threads);
            assert_eq!(multi.num_triples(), one.num_triples());
            assert_eq!(multi.check_invariants(), Ok(()));
            assert_eq!(
                multi.to_snapshot_bytes(),
                one.to_snapshot_bytes(),
                "{threads}-thread build differs from serial"
            );
        }
    }

    #[test]
    fn compressed_build_matches_raw() {
        let make = |compress: Option<usize>| {
            let mut b = StoreBuilder::new();
            for i in 0..4000u32 {
                b.add_term_triple(
                    &Term::iri(format!("s{}", i % 11)),
                    &Term::iri(format!("p{}", i % 3)),
                    &Term::iri(format!("o{}", (i * 7) % 2900)),
                );
            }
            b.build_with(StoreOptions {
                compress_min_values: compress,
                ..StoreOptions::default()
            })
        };
        let raw = make(None);
        let zip = make(Some(1));
        assert!(
            zip.partitions()
                .iter()
                .any(|p| p.replica(SortOrder::SO).is_compressed()),
            "threshold 1 must compress the large replicas"
        );
        assert_eq!(zip.check_invariants(), Ok(()));
        assert_eq!(zip.num_triples(), raw.num_triples());
        // Snapshots always serialize the raw representation.
        assert_eq!(zip.to_snapshot_bytes(), raw.to_snapshot_bytes());
        assert!(zip.partitions_memory_bytes() < raw.partitions_memory_bytes());
        for t in raw.iter_triples().step_by(97) {
            assert!(zip.contains(t));
        }
    }

    #[test]
    fn compress_values_after_build() {
        let mut b = StoreBuilder::new();
        for i in 0..3000u32 {
            b.add_term_triple(
                &Term::iri(format!("s{}", i % 5)),
                &Term::iri("p"),
                &Term::iri(format!("o{i}")),
            );
        }
        let mut store = b.build();
        let before = store.partitions_memory_bytes();
        let n = store.compress_values(64);
        assert!(n > 0);
        assert_eq!(store.options().compress_min_values, Some(64));
        assert!(store.partitions_memory_bytes() < before);
        assert_eq!(store.check_invariants(), Ok(()));
    }

    #[test]
    fn memory_accounting() {
        let store = example_store();
        assert!(store.partitions_memory_bytes() > 0);
        assert!(store.total_memory_bytes() > store.partitions_memory_bytes());
    }
}
