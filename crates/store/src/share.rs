//! Each distinct key array, and its ID-to-Position index, stored once
//! per store.
//!
//! The paper's layout (§3) gives every predicate an S-O and an O-S
//! replica, each with its own sorted keys. Predicates of one class share
//! a subject set, so many of those arrays are equal: 9 of 34 on LUBM-60,
//! 14 of 40 on WatDiv-40. A store interns them. Replicas with equal keys
//! hold one immutable `Arc<[Id]>`, and each distinct array has at most
//! one ID-to-Position index (§4.2), built once, and only where it is no
//! larger than the array ([`IdPosIndex::pays`]). Sharing never changes
//! what a replica answers; it changes only what is allocated, and the
//! store's memory totals ([`Tally`]) count each allocation once.

use std::collections::{HashMap, HashSet};

use parj_dict::Id;
use parj_sync::Arc;

use crate::idpos::IdPosIndex;
use crate::partition::Partition;
use crate::replica::{Replica, ReplicaBytes};
use crate::store::SortOrder;

/// The ID-to-Position index a store gives `keys`: built at `interval`
/// when the store builds indexes (`Some`) and the index
/// [pays](IdPosIndex::pays), otherwise none.
pub(crate) fn index_for(keys: &[Id], interval: Option<usize>) -> Option<Arc<IdPosIndex>> {
    let interval = interval.filter(|&i| IdPosIndex::pays(keys, i))?;
    Some(Arc::new(IdPosIndex::build(keys, interval)))
}

/// Makes every set of equal key arrays among `partitions` one
/// allocation, and gives each distinct array the index
/// [`index_for`] gives it at `interval`. Arrays are matched by length
/// and content hash, then compared in full; the first replica in
/// predicate order (S-O before O-S) keeps its allocation.
pub(crate) fn share_keys(partitions: &mut [Partition], interval: Option<usize>) {
    type Held = (Arc<[Id]>, Option<Arc<IdPosIndex>>);
    let mut held: HashMap<(usize, u64), Vec<Held>> = HashMap::new();
    for part in partitions {
        for order in [SortOrder::SO, SortOrder::OS] {
            let r = part.replica_mut(order);
            let class = held.entry((r.num_keys(), hash(r.keys()))).or_default();
            match class.iter().find(|(keys, _)| keys[..] == *r.keys()) {
                Some((keys, index)) => r.share(keys, index.as_ref()),
                None => {
                    let keys = Arc::clone(r.shared().0);
                    let index = index_for(&keys, interval);
                    r.share(&keys, index.as_ref());
                    class.push((keys, index));
                }
            }
        }
    }
}

/// FxHash-style word hash of a key array.
fn hash(keys: &[Id]) -> u64 {
    keys.iter().fold(0u64, |h, &k| {
        (h.rotate_left(5) ^ u64::from(k)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    })
}

/// Allocated bytes of a set of replicas, counting each shared keys
/// array and index once.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    seen: HashSet<*const ()>,
    /// Distinct keys arrays counted so far.
    pub(crate) arrays: usize,
    /// Distinct ID-to-Position indexes counted so far.
    pub(crate) indexes: usize,
    /// Bytes counted so far, by array.
    pub(crate) bytes: ReplicaBytes,
}

impl Tally {
    /// Counts `r`'s arrays, skipping a keys array or index already
    /// counted through another replica.
    pub(crate) fn add(&mut self, r: &Replica) {
        let own = r.memory_parts();
        let (keys, index) = r.shared();
        self.bytes.offsets += own.offsets;
        self.bytes.values += own.values;
        if self.seen.insert(Arc::as_ptr(keys).cast()) {
            self.arrays += 1;
            self.bytes.keys += own.keys;
        }
        if let Some(index) = index {
            if self.seen.insert(Arc::as_ptr(index).cast()) {
                self.indexes += 1;
                self.bytes.idpos += own.idpos;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeMap;

    use parj_dict::{EncodedTriple, Term};
    use proptest::prelude::*;

    use super::*;
    use crate::delta::DeltaOverlay;
    use crate::store::{StoreBuilder, StoreOptions, TripleStore};

    /// Resource ids the generated graphs use.
    const IDS: Id = 48;

    /// Each key's sorted, distinct values.
    type Model = BTreeMap<Id, Vec<Id>>;

    /// One pair list per predicate. Predicates draw their subjects from
    /// a few shared classes, so S-O keys repeat across predicates; a
    /// predicate with fixed objects repeats its O-S keys in every other
    /// predicate with the same objects.
    fn arb_graph() -> impl Strategy<Value = Vec<Vec<(Id, Id)>>> {
        let classes = prop::collection::vec(prop::collection::vec(0..IDS, 0..10), 1..4);
        let objects = prop::collection::vec(0..IDS, 1..4);
        let preds = prop::collection::vec((0usize..4, any::<bool>(), objects), 2..8);
        (classes, preds).prop_map(|(classes, preds)| {
            preds
                .into_iter()
                .map(|(class, fixed, objects)| {
                    let subjects = &classes[class % classes.len()];
                    subjects
                        .iter()
                        .flat_map(|&s| {
                            objects
                                .iter()
                                .map(move |&o| (s, if fixed { o } else { (s + o) % IDS }))
                        })
                        .collect()
                })
                .collect()
        })
    }

    /// Ids below `IDS / 2` as they are, the rest 97 apart: an array of
    /// three or more low ids is dense enough for an ID-to-Position
    /// index, an array holding a high id is not.
    fn spread(graph: Vec<Vec<(Id, Id)>>) -> Vec<Vec<(Id, Id)>> {
        let id = |i: Id| if i < IDS / 2 { i } else { i * 97 };
        graph
            .into_iter()
            .map(|pairs| pairs.into_iter().map(|(s, o)| (id(s), id(o))).collect())
            .collect()
    }

    fn store_of(graph: &[Vec<(Id, Id)>], compress: bool) -> TripleStore {
        let ids = graph.iter().flatten().map(|&(s, o)| s.max(o) + 1).max();
        let mut b = StoreBuilder::new();
        for i in 0..ids.unwrap_or(0).max(IDS) {
            b.dict_mut().encode_resource(&Term::iri(format!("r{i}")));
        }
        for (p, pairs) in graph.iter().enumerate() {
            let p = b.dict_mut().encode_predicate(&Term::iri(format!("p{p}")));
            for &(s, o) in pairs {
                b.add_encoded(EncodedTriple::new(s, p, o));
            }
        }
        b.build_with(StoreOptions {
            compress_min_values: compress.then_some(1),
            ..StoreOptions::default()
        })
    }

    /// The S-O and O-S models of one predicate's pairs.
    fn models_of(pairs: &[(Id, Id)]) -> [Model; 2] {
        let mut models = [Model::new(), Model::new()];
        for &(s, o) in pairs {
            models[0].entry(s).or_default().push(o);
            models[1].entry(o).or_default().push(s);
        }
        for vs in models.iter_mut().flat_map(|m| m.values_mut()) {
            vs.sort_unstable();
            vs.dedup();
        }
        models
    }

    /// Each replica answers like its model.
    fn check_models(replicas: &[(&Replica, &Model)]) -> Result<(), TestCaseError> {
        for &(r, model) in replicas {
            prop_assert_eq!(r.check_invariants(), Ok(()));
            prop_assert_eq!(r.keys(), model.keys().copied().collect::<Vec<_>>());
            for (pos, (&k, vs)) in model.iter().enumerate() {
                prop_assert_eq!(r.position_of(k), Some(pos));
                prop_assert_eq!(&r.group_at(pos).to_vec(), vs);
            }
        }
        Ok(())
    }

    /// Every replica has an ID-to-Position index if and only if one
    /// pays on its keys, and two replicas share a keys array, and an
    /// index, if and only if their keys are equal.
    fn check_shared_iff_equal(replicas: &[&Replica]) -> Result<(), TestCaseError> {
        let interval = StoreOptions::default().idpos_interval;
        for (i, a) in replicas.iter().enumerate() {
            prop_assert_eq!(a.idpos().is_some(), IdPosIndex::pays(a.keys(), interval));
            for b in &replicas[..i] {
                let ((ka, ia), (kb, ib)) = (a.shared(), b.shared());
                let equal = a.keys() == b.keys();
                prop_assert_eq!(Arc::ptr_eq(ka, kb), equal);
                if let (Some(ia), Some(ib)) = (ia, ib) {
                    prop_assert_eq!(Arc::ptr_eq(ia, ib), equal);
                }
            }
        }
        Ok(())
    }

    /// Exact bytes of `replicas`, summing each distinct keys or index
    /// allocation once and leaving out the ones `held` already has.
    pub(crate) fn distinct_bytes(replicas: &[&Replica], held: &[&Replica]) -> usize {
        let mut seen: Vec<*const ()> = Vec::new();
        let mut total = 0;
        let all = held
            .iter()
            .map(|r| (r, false))
            .chain(replicas.iter().map(|r| (r, true)));
        for (r, count) in all {
            let (keys, index) = r.shared();
            let own = r.memory_parts();
            if count {
                total += own.offsets + own.values;
            }
            let index = index.map(|i| (Arc::as_ptr(i).cast(), i.exact_bytes()));
            let arrays = [(Arc::as_ptr(keys).cast(), keys.len() * 4)]
                .into_iter()
                .chain(index);
            for (ptr, bytes) in arrays {
                if count && !seen.contains(&ptr) {
                    total += bytes;
                }
                seen.push(ptr);
            }
        }
        total
    }

    fn replicas_of(store: &TripleStore) -> Vec<&Replica> {
        store.replicas().collect()
    }

    /// Builds `graph`'s store, then checks that replicas share a keys
    /// array and index exactly when their keys are equal, that each has
    /// an index exactly where one pays, that they answer like
    /// `BTreeMap` models, and that the memory totals count each
    /// allocation once — after the build, after a snapshot round trip,
    /// and after compactions of predicate `pick` that keep its keys and
    /// that change them.
    fn check_sharing(
        graph: Vec<Vec<(Id, Id)>>,
        compress: bool,
        pick: usize,
    ) -> Result<(), TestCaseError> {
        let base = store_of(&graph, compress);
        let loaded = TripleStore::from_snapshot_bytes(&base.to_snapshot_bytes()).unwrap();
        prop_assert_eq!(loaded.to_snapshot_bytes(), base.to_snapshot_bytes());
        let mut graph = graph;
        let mut models: Vec<[Model; 2]> = graph.iter().map(|p| models_of(p)).collect();
        for store in [&base, &loaded] {
            let all = replicas_of(store);
            check_models(
                &all.iter()
                    .copied()
                    .zip(models.iter().flatten())
                    .collect::<Vec<_>>(),
            )?;
            check_shared_iff_equal(&all)?;
            prop_assert_eq!(store.partitions_memory_bytes(), distinct_bytes(&all, &[]));
            prop_assert!(store.distinct_key_arrays() <= all.len());
        }

        let mut ov = DeltaOverlay::new(&base);
        let p = pick % graph.len();
        let [so, os] = models[p].clone();
        // Unchanged keys: an absent pair between an existing subject
        // and an existing object of `p`.
        let kept = so
            .keys()
            .flat_map(|&s| os.keys().map(move |&o| (s, o)))
            .find(|&(s, o)| !so[&s].contains(&o));
        // New keys: a subject `p` does not have yet.
        let fresh = (0..IDS).find(|s| !so.contains_key(s)).map(|s| (s, s / 2));
        for (pair, keeps_keys) in [(kept, true), (fresh, false)] {
            let Some(pair) = pair else { continue };
            ov.apply_pred(&base, p as Id, &[pair], &[]);
            ov.compact_pred(&base, p as Id);
            graph[p].push(pair);
            models[p] = models_of(&graph[p]);
            let compacted = ov
                .pred(p as Id)
                .and_then(|d| d.compacted())
                .expect("compacted");
            if keeps_keys {
                for order in [SortOrder::SO, SortOrder::OS] {
                    let was = base.replica(p as Id, order).unwrap();
                    prop_assert!(Arc::ptr_eq(
                        compacted.replica(order).shared().0,
                        was.shared().0
                    ));
                }
            }
            let effective: Vec<&Replica> = (0..graph.len() as Id)
                .flat_map(|q| {
                    let part = ov.effective_base(&base, q).unwrap();
                    [part.replica(SortOrder::SO), part.replica(SortOrder::OS)]
                })
                .collect();
            check_models(
                &effective
                    .into_iter()
                    .zip(models.iter().flatten())
                    .collect::<Vec<_>>(),
            )?;
            // Every replica held, the base's and the compacted ones.
            let compacted: Vec<&Replica> = (0..graph.len() as Id)
                .filter_map(|q| ov.pred(q).and_then(|d| d.compacted()))
                .flat_map(|c| [c.replica(SortOrder::SO), c.replica(SortOrder::OS)])
                .collect();
            let base_replicas = replicas_of(&base);
            check_shared_iff_equal(&[&base_replicas[..], &compacted[..]].concat())?;
            prop_assert_eq!(
                ov.memory_bytes(&base) - ov.dict().memory_bytes(),
                distinct_bytes(&compacted, &base_replicas)
            );
            prop_assert_eq!(ov.check_invariants(&base), Ok(()));
        }
        Ok(())
    }

    proptest! {
        /// [`check_sharing`] on graphs over 48 dense ids, where many
        /// arrays are equal.
        #[test]
        fn key_arrays_shared_iff_equal(
            graph in arb_graph(),
            compress in any::<bool>(),
            pick in 0usize..8,
        ) {
            check_sharing(graph, compress, pick)?;
        }

        /// [`check_sharing`] on graphs whose arrays are dense (indexed)
        /// or hold an id far from the rest (not indexed).
        #[test]
        fn index_built_iff_it_pays(
            graph in arb_graph().prop_map(spread),
            compress in any::<bool>(),
            pick in 0usize..8,
        ) {
            check_sharing(graph, compress, pick)?;
        }
    }
}
