//! Property tests: CSR construction is a faithful set-representation of
//! arbitrary triple multisets, every replica shape answers like a model
//! map, the ID-to-Position index agrees with binary search everywhere,
//! and snapshots round-trip.

use std::collections::BTreeMap;

use proptest::prelude::*;

use parj_dict::{EncodedTriple, Id, Term};
use parj_store::{
    IdPosIndex, Partition, Replica, ReplicaBuilder, SortOrder, StoreBuilder, TripleStore,
};

/// Each key's sorted, distinct values.
type Model = BTreeMap<Id, Vec<Id>>;

/// One group: the gap from the previous key, the first value, and the
/// gaps between consecutive values (each value is the previous plus the
/// gap plus one).
type GroupSpec = (u32, u32, Vec<u32>);

/// A model from group specs, in key order.
fn model_from(specs: impl IntoIterator<Item = GroupSpec>) -> Model {
    let mut next = 0;
    specs
        .into_iter()
        .map(|(key_gap, start, gaps)| {
            let key = next + key_gap;
            next = key + 1;
            let mut v = start;
            let mut values = vec![v];
            for g in gaps {
                v += g + 1;
                values.push(v);
            }
            (key, values)
        })
        .collect()
}

/// A group of `len` values.
fn arb_group(len: std::ops::Range<usize>) -> impl Strategy<Value = GroupSpec> {
    (
        0u32..4,
        0u32..1000,
        proptest::collection::vec(0u32..3, len.start - 1..len.end - 1),
    )
}

/// Replica shapes: the ones that decide whether an offsets table is
/// stored, and where the codec's 128-item blocks cut.
fn arb_model() -> impl Strategy<Value = Model> {
    prop_oneof![
        // All keys distinct: no offsets table.
        proptest::collection::vec(arb_group(1..2), 1..300).prop_map(model_from),
        // Mixed group sizes.
        proptest::collection::vec(arb_group(1..10), 1..200).prop_map(model_from),
        // One huge group among singletons.
        (
            proptest::collection::vec(arb_group(1..2), 0..20),
            arb_group(500..1500),
            proptest::collection::vec(arb_group(1..2), 1..5),
        )
            .prop_map(|(lead, huge, tail)| model_from(lead.into_iter().chain([huge]).chain(tail))),
        // A group whose start and deltas straddle a block edge.
        (
            proptest::collection::vec(arb_group(1..2), 120..137),
            arb_group(120..260)
        )
            .prop_map(|(lead, edge)| model_from(lead.into_iter().chain([edge, (0, 7, vec![])]))),
        Just(Model::new()),
    ]
}

/// Smallest id universe holding every key and value of `model`.
fn universe(model: &Model) -> usize {
    model
        .iter()
        .flat_map(|(&k, vs)| std::iter::once(k).chain(vs.iter().copied()))
        .max()
        .map_or(1, |m| m as usize + 1)
}

/// Checks every accessor of `r` against `model`.
fn assert_matches_model(r: &Replica, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(r.check_invariants(), Ok(()));
    let pairs: Vec<(Id, Id)> = model
        .iter()
        .flat_map(|(&k, vs)| vs.iter().map(move |&v| (k, v)))
        .collect();
    let one_value = model.values().all(|vs| vs.len() == 1);
    prop_assert_eq!(r.num_keys(), model.len());
    prop_assert_eq!(r.num_triples(), pairs.len());
    prop_assert_eq!(r.one_value_per_key(), one_value);
    prop_assert_eq!(r.memory_parts().offsets == 0, one_value);
    prop_assert_eq!(r.keys(), model.keys().copied().collect::<Vec<_>>());
    prop_assert_eq!(&r.iter_pairs().collect::<Vec<_>>(), &pairs);
    prop_assert_eq!(
        &*r.decoded_values(),
        pairs.iter().map(|p| p.1).collect::<Vec<_>>()
    );
    let mut offsets = vec![0u32];
    offsets.extend(model.values().scan(0, |end, vs| {
        *end += vs.len() as u32;
        Some(*end)
    }));
    prop_assert_eq!(&*r.offsets(), offsets);
    for (pos, (&k, vs)) in model.iter().enumerate() {
        prop_assert_eq!(r.key_at(pos), k);
        prop_assert_eq!(r.group_len(pos), vs.len());
        prop_assert_eq!(&r.group_at(pos).to_vec(), vs);
        if !r.is_compressed() {
            prop_assert_eq!(r.values_at(pos), vs.as_slice());
        }
        prop_assert_eq!(r.position_of(k), Some(pos));
        prop_assert_eq!(&r.group_for_key(k).to_vec(), vs);
        let group = r.group_at(pos);
        for &v in vs {
            prop_assert!(group.contains(v));
        }
        prop_assert!(!group.contains(vs[vs.len() - 1] + 1));
    }
    let absent = model
        .keys()
        .map(|&k| k + 1)
        .chain([0])
        .filter(|k| !model.contains_key(k));
    for k in absent {
        prop_assert_eq!(r.position_of(k), None);
        prop_assert!(r.group_for_key(k).is_empty());
    }
    Ok(())
}

proptest! {
    /// Every replica shape — no offsets table, mixed groups, one huge
    /// group, groups straddling a codec block edge, empty — answers
    /// like a map from key to values, raw and packed, with and without
    /// an ID-to-Position index, and survives a snapshot round trip.
    #[test]
    fn replica_shapes_match_model(model in arb_model()) {
        let mut b = ReplicaBuilder::new();
        for (&k, vs) in model.iter().rev() {
            for &v in vs.iter().rev() {
                b.push(k, v);
                b.push(k, v);
            }
        }
        let raw = b.finish();
        let universe = universe(&model);
        let mut packed = raw.clone();
        packed.compress(1);
        if raw.num_triples() >= 100 {
            prop_assert!(packed.is_compressed());
        }
        for mut r in [raw.clone(), packed] {
            assert_matches_model(&r, &model)?;
            prop_assert_eq!(&r, &raw);
            r.build_idpos(64);
            assert_matches_model(&r, &model)?;
        }

        let mut sb = StoreBuilder::new();
        for i in 0..universe {
            sb.dict_mut().encode_resource(&Term::iri(format!("r{i}")));
        }
        sb.dict_mut().encode_predicate(&Term::iri("p"));
        for (&k, vs) in &model {
            for &v in vs {
                sb.add_encoded(EncodedTriple::new(k, 0, v));
            }
        }
        let store = sb.build();
        let bytes = store.to_snapshot_bytes();
        let back = TripleStore::from_snapshot_bytes(&bytes).unwrap();
        prop_assert_eq!(back.to_snapshot_bytes(), bytes);
        if let Some(loaded) = back.replica(0, SortOrder::SO) {
            assert_matches_model(loaded, &model)?;
            prop_assert_eq!(loaded, store.replica(0, SortOrder::SO).unwrap());
        }
        prop_assert_eq!(back.partitions(), store.partitions());
    }

    /// Partition::build represents exactly the set of input pairs, in
    /// both replicas, with all invariants intact.
    #[test]
    fn partition_is_faithful_set(
        pairs in proptest::collection::vec((0u32..500, 0u32..500), 0..300)
    ) {
        let part = Partition::build(0, &pairs);
        prop_assert_eq!(part.check_invariants(), Ok(()));
        let mut expect: Vec<(Id, Id)> = pairs.clone();
        expect.sort_unstable();
        expect.dedup();
        let got: Vec<(Id, Id)> = part.iter_so().collect();
        prop_assert_eq!(got, expect.clone());
        // Membership agrees for present and absent pairs.
        for &(s, o) in expect.iter().take(20) {
            prop_assert!(part.contains(s, o));
        }
        prop_assert!(!part.contains(501, 0));
        // O-S replica holds the flipped pairs.
        let mut flipped: Vec<(Id, Id)> = expect.iter().map(|&(s, o)| (o, s)).collect();
        flipped.sort_unstable();
        let from_os: Vec<(Id, Id)> = part.replica(SortOrder::OS).iter_pairs().collect();
        prop_assert_eq!(from_os, flipped);
    }

    /// IdPosIndex::lookup ≡ slice::binary_search over a universe that
    /// covers the keys' span and past it, for arbitrary key sets and
    /// block intervals.
    #[test]
    fn idpos_equals_binary_search(
        mut keys in proptest::collection::vec(0u32..2048, 0..200),
        interval_pow in 0u32..4,
        extra_universe in 0usize..100,
    ) {
        keys.sort_unstable();
        keys.dedup();
        let universe = keys.last().map_or(1, |&m| m as usize + 1) + extra_universe;
        let interval = 64usize << interval_pow;
        let idx = IdPosIndex::build(&keys, interval);
        for probe in 0..universe as Id {
            prop_assert_eq!(idx.lookup(probe), keys.binary_search(&probe).ok());
            prop_assert_eq!(idx.contains(probe), keys.binary_search(&probe).is_ok());
        }
        prop_assert_eq!(idx.lookup(universe as Id), None);
    }

    /// Store snapshot round-trips arbitrary triple sets exactly.
    #[test]
    fn snapshot_roundtrip(
        triples in proptest::collection::vec((0u32..60, 0u32..5, 0u32..60), 0..200)
    ) {
        let mut b = StoreBuilder::new();
        // Materialize dense dictionaries for the ids we use.
        let max_r = triples.iter().map(|t| t.0.max(t.2)).max().unwrap_or(0);
        let max_p = triples.iter().map(|t| t.1).max().unwrap_or(0);
        for r in 0..=max_r {
            b.dict_mut().encode_resource(&parj_dict::Term::iri(format!("r{r}")));
        }
        for p in 0..=max_p {
            b.dict_mut().encode_predicate(&parj_dict::Term::iri(format!("p{p}")));
        }
        for &(s, p, o) in &triples {
            b.add_encoded(parj_dict::EncodedTriple::new(s, p, o));
        }
        let store = b.build();
        prop_assert_eq!(store.check_invariants(), Ok(()));
        let back = TripleStore::from_snapshot_bytes(&store.to_snapshot_bytes()).unwrap();
        prop_assert_eq!(back.check_invariants(), Ok(()));
        let a: Vec<_> = store.iter_triples().collect();
        let c: Vec<_> = back.iter_triples().collect();
        prop_assert_eq!(a, c);
    }
}
