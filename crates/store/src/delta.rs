//! LSM-style per-predicate delta overlay for incremental mutations.
//!
//! The base [`TripleStore`] stays immutable — query workers share it
//! read-only with no synchronization (the paper's execution model).
//! Mutations land in a [`DeltaOverlay`]: per predicate, a small sorted
//! **add** run (pure insertions, disjoint from the base) and a small
//! sorted **del** run (tombstones, always a subset of the base), each
//! stored as a regular two-replica [`Partition`] so both probe orders
//! stay available. The visible relation for a predicate is
//!
//! ```text
//! visible(p) = (base(p) \ del(p)) ∪ add(p)
//! ```
//!
//! and because all three runs are CSR-sorted, any merged iteration
//! (probe groups, key scans, compaction) is a two-pointer merge of
//! sorted runs — the merged order is exactly the order a from-scratch
//! rebuild would produce, which is what keeps query results
//! byte-identical between a dirty overlay and a compacted store.
//!
//! When a predicate's resident add+del runs exceed a threshold, the
//! engine triggers **compaction**: the merged view is materialized into
//! a fresh [`Partition`] (two sorted runs merged — cheap, O(partition))
//! that replaces the base partition *for this overlay only* and the
//! runs are cleared. Compaction never touches other predicates and
//! never rebuilds the dictionary, so a mutation batch stays
//! O(batch + delta + touched partitions), never O(dataset).
//!
//! New terms introduced by mutations live in a [`DictDelta`] held here,
//! so one overlay value carries everything that differs from the base.

use parj_dict::{DictDelta, EncodedTriple, Id};
use parj_sync::Arc;

use crate::partition::Partition;
use crate::replica::Replica;
use crate::store::{SortOrder, TripleStore};

/// Per-predicate mutation state: optional compacted replacement of the
/// base partition, plus the resident add/del runs.
///
/// Invariants (maintained by [`DeltaOverlay::apply_pred`]):
/// * `add` pairs are **not** in the effective base partition;
/// * `del` pairs **are** in the effective base partition;
/// * consequently `add` and `del` are disjoint.
#[derive(Debug, Clone, Default)]
pub struct PredDelta {
    compacted: Option<Arc<Partition>>,
    add: Option<Arc<Partition>>,
    del: Option<Arc<Partition>>,
}

impl PredDelta {
    /// The compacted replacement partition, if this predicate has been
    /// compacted since the last full rebuild.
    #[inline]
    pub fn compacted(&self) -> Option<&Partition> {
        self.compacted.as_deref()
    }

    /// Resident insertions (disjoint from the effective base).
    #[inline]
    pub fn add(&self) -> Option<&Partition> {
        self.add.as_deref()
    }

    /// Resident tombstones (subset of the effective base).
    #[inline]
    pub fn del(&self) -> Option<&Partition> {
        self.del.as_deref()
    }

    /// True if this predicate carries no overlay state at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.compacted.is_none() && self.add.is_none() && self.del.is_none()
    }

    /// Resident (uncompacted) pair count: add + del triples that every
    /// probe on this predicate must merge.
    pub fn resident_pairs(&self) -> usize {
        self.add.as_ref().map_or(0, |p| p.num_triples())
            + self.del.as_ref().map_or(0, |p| p.num_triples())
    }

    /// Overlay bytes for this predicate (runs + compacted partition).
    pub fn memory_bytes(&self) -> usize {
        self.compacted.as_ref().map_or(0, |p| p.memory_bytes())
            + self.add.as_ref().map_or(0, |p| p.memory_bytes())
            + self.del.as_ref().map_or(0, |p| p.memory_bytes())
    }
}

/// Outcome of applying one predicate's slice of a mutation batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredApply {
    /// Insertions that changed visibility (were not already visible).
    pub inserted: usize,
    /// Deletions that changed visibility (were visible before).
    pub deleted: usize,
}

/// Everything that differs from the immutable base store: new
/// dictionary terms plus per-predicate add/del runs and compacted
/// partitions.
///
/// Cloning is cheap (partitions are behind [`Arc`]), which is how the
/// engine hands a consistent overlay to pooled query workers while a
/// later mutation builds the next version copy-on-write.
#[derive(Debug, Clone)]
pub struct DeltaOverlay {
    /// Behind its own [`Arc`] so a query answer can keep the terms its
    /// ids decode to without keeping the per-predicate runs alive.
    dict: Arc<DictDelta>,
    /// Indexed by predicate id; may extend past the base's predicate
    /// range when mutations introduce new predicates.
    preds: Vec<PredDelta>,
    /// Visible triples minus the base store's triple count.
    net_triples: i64,
    /// Compactions performed since this overlay was created.
    compactions: u64,
}

impl DeltaOverlay {
    /// Creates an empty overlay anchored at `base`.
    pub fn new(base: &TripleStore) -> Self {
        DeltaOverlay {
            dict: Arc::new(DictDelta::new(base.dict())),
            preds: Vec::new(),
            net_triples: 0,
            compactions: 0,
        }
    }

    /// The dictionary extension.
    #[inline]
    pub fn dict(&self) -> &DictDelta {
        &self.dict
    }

    /// The dictionary extension as a shared snapshot: the terms of every
    /// id handed out so far, unaffected by later encodes.
    #[inline]
    pub fn shared_dict(&self) -> &Arc<DictDelta> {
        &self.dict
    }

    /// Mutable access to the dictionary extension (the engine encodes
    /// batch terms through this before applying pairs). Copies it first
    /// while a [`DeltaOverlay::shared_dict`] snapshot is alive.
    #[inline]
    pub fn dict_mut(&mut self) -> &mut DictDelta {
        Arc::make_mut(&mut self.dict)
    }

    /// True if the overlay carries no state at all — no new terms, no
    /// runs, no compacted partitions.
    pub fn is_clean(&self) -> bool {
        self.dict.is_empty() && self.preds.iter().all(PredDelta::is_empty)
    }

    /// True if any predicate has resident (uncompacted) add/del runs.
    pub fn has_resident_runs(&self) -> bool {
        self.preds.iter().any(|p| p.resident_pairs() > 0)
    }

    /// Overlay state for one predicate, if any.
    #[inline]
    pub fn pred(&self, predicate: Id) -> Option<&PredDelta> {
        self.preds.get(predicate as usize)
    }

    /// Predicate id space length covered by base + overlay.
    pub fn num_predicates(&self, base: &TripleStore) -> usize {
        base.num_predicates()
            .max(self.preds.len())
            .max(self.dict.num_predicates())
    }

    /// Visible triples: base count adjusted by applied mutations.
    pub fn visible_triples(&self, base: &TripleStore) -> usize {
        let n = base.num_triples() as i64 + self.net_triples;
        debug_assert!(n >= 0, "net delta cannot delete more than exists");
        n.max(0) as usize
    }

    /// Total compactions performed through this overlay.
    #[inline]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Resident (uncompacted) pairs across all predicates — the merge
    /// work probes pay until the next compaction.
    pub fn resident_pairs(&self) -> usize {
        self.preds.iter().map(PredDelta::resident_pairs).sum()
    }

    /// Overlay heap bytes: runs, compacted partitions, and the
    /// dictionary extension.
    pub fn memory_bytes(&self) -> usize {
        self.preds.iter().map(PredDelta::memory_bytes).sum::<usize>()
            + self.dict.memory_bytes()
    }

    /// The effective base partition for `predicate`: the compacted
    /// replacement if one exists, else the base store's partition.
    pub fn effective_base<'a>(
        &'a self,
        base: &'a TripleStore,
        predicate: Id,
    ) -> Option<&'a Partition> {
        match self.pred(predicate).and_then(PredDelta::compacted) {
            Some(part) => Some(part),
            None => base.partition(predicate),
        }
    }

    /// Applies one predicate's slice of a mutation batch.
    ///
    /// `inserts` and `deletes` must be sorted, deduplicated `(s, o)`
    /// pairs with last-wins conflict resolution already applied (so the
    /// two slices are disjoint). Returns how many operations actually
    /// changed visibility; already-present inserts and already-absent
    /// deletes are no-ops, preserving set semantics.
    ///
    /// Cost: O((|add| + |del| + batch) · log) for this predicate only.
    pub fn apply_pred(
        &mut self,
        base: &TripleStore,
        predicate: Id,
        inserts: &[(Id, Id)],
        deletes: &[(Id, Id)],
    ) -> PredApply {
        debug_assert!(inserts.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(deletes.windows(2).all(|w| w[0] < w[1]));

        let idx = predicate as usize;
        if self.preds.len() <= idx {
            self.preds.resize_with(idx + 1, PredDelta::default);
        }
        let in_base = |s: Id, o: Id| -> bool {
            match self.preds[idx].compacted() {
                Some(part) => part.contains(s, o),
                None => base.partition(predicate).is_some_and(|p| p.contains(s, o)),
            }
        };

        let entry = &self.preds[idx];
        let add_pairs: Vec<(Id, Id)> =
            entry.add().map(|p| p.iter_so().collect()).unwrap_or_default();
        let del_pairs: Vec<(Id, Id)> =
            entry.del().map(|p| p.iter_so().collect()).unwrap_or_default();
        let has = |v: &[(Id, Id)], pair: (Id, Id)| v.binary_search(&pair).is_ok();

        // Partition the batch into run edits. `*_grow` and `*_shrink`
        // come out sorted because the input slices are sorted.
        let mut add_grow = Vec::new();
        let mut add_shrink = Vec::new();
        let mut del_grow = Vec::new();
        let mut del_shrink = Vec::new();
        let mut out = PredApply::default();
        for &pair in inserts {
            if in_base(pair.0, pair.1) {
                if has(&del_pairs, pair) {
                    del_shrink.push(pair); // un-tombstone
                    out.inserted += 1;
                }
            } else if !has(&add_pairs, pair) {
                add_grow.push(pair);
                out.inserted += 1;
            }
        }
        for &pair in deletes {
            if in_base(pair.0, pair.1) {
                if !has(&del_pairs, pair) {
                    del_grow.push(pair);
                    out.deleted += 1;
                }
            } else if has(&add_pairs, pair) {
                add_shrink.push(pair); // retract a resident insert
                out.deleted += 1;
            }
        }

        let rebuild = |old: Vec<(Id, Id)>,
                       shrink: &[(Id, Id)],
                       grow: &[(Id, Id)]|
         -> Option<Arc<Partition>> {
            if shrink.is_empty() && grow.is_empty() {
                return (!old.is_empty())
                    .then(|| Arc::new(Partition::build(predicate, &old)));
            }
            let mut pairs: Vec<(Id, Id)> = old
                .into_iter()
                .filter(|p| shrink.binary_search(p).is_err())
                .collect();
            pairs.extend_from_slice(grow);
            (!pairs.is_empty()).then(|| Arc::new(Partition::build(predicate, &pairs)))
        };
        // Keep the existing Arc when a run is untouched (cheap clone on
        // the copy-on-write path); rebuild only edited runs.
        if !(add_grow.is_empty() && add_shrink.is_empty()) {
            self.preds[idx].add = rebuild(add_pairs, &add_shrink, &add_grow);
        }
        if !(del_grow.is_empty() && del_shrink.is_empty()) {
            self.preds[idx].del = rebuild(del_pairs, &del_shrink, &del_grow);
        }

        self.net_triples += out.inserted as i64 - out.deleted as i64;
        out
    }

    /// True if `predicate`'s resident runs have reached `threshold`
    /// pairs (a threshold of 0 disables compaction).
    pub fn needs_compaction(&self, predicate: Id, threshold: usize) -> bool {
        threshold > 0
            && self
                .pred(predicate)
                .is_some_and(|p| p.resident_pairs() >= threshold)
    }

    /// Compacts one predicate: merges the visible view into a fresh
    /// partition (two sorted runs — a linear merge) that replaces the
    /// effective base, then clears the runs. Other predicates and the
    /// base store are untouched.
    pub fn compact_pred(&mut self, base: &TripleStore, predicate: Id) {
        let idx = predicate as usize;
        if self.pred(predicate).is_none_or(|p| p.resident_pairs() == 0) {
            return;
        }
        let merged = self.merged_so_pairs(base, predicate);
        let mut part = Partition::build(predicate, &merged);
        let options = base.options();
        if options.build_idpos {
            let universe = self.dict.num_resources().max(base.dict().num_resources());
            for order in [SortOrder::SO, SortOrder::OS] {
                part.replica_mut(order)
                    .build_idpos(universe, options.idpos_interval);
            }
        }
        // Replacement partitions inherit the base store's compression
        // policy, so a compressed store stays compressed across
        // compactions.
        if let Some(min) = options.compress_min_values {
            part.compress_values(min);
        }
        self.preds[idx].compacted = Some(Arc::new(part));
        self.preds[idx].add = None;
        self.preds[idx].del = None;
        self.compactions += 1;
    }

    /// The visible `(s, o)` pairs for `predicate` in S-O order — the
    /// exact sequence a from-scratch rebuild would store.
    pub fn merged_so_pairs(&self, base: &TripleStore, predicate: Id) -> Vec<(Id, Id)> {
        let entry = self.pred(predicate);
        let base_part = self.effective_base(base, predicate);
        let add = entry.and_then(PredDelta::add);
        let del = entry.and_then(PredDelta::del);

        let visible = base_part.map_or(0, |p| p.num_triples())
            + add.map_or(0, |p| p.num_triples())
            - del.map_or(0, |p| p.num_triples());
        let mut out = Vec::with_capacity(visible);
        let mut del_it = del
            .map(|p| p.iter_so())
            .into_iter()
            .flatten()
            .peekable();
        let mut add_it = add
            .map(|p| p.iter_so())
            .into_iter()
            .flatten()
            .peekable();
        let base_it = base_part.map(|p| p.iter_so()).into_iter().flatten();
        for pair in base_it {
            if del_it.peek() == Some(&pair) {
                del_it.next();
                continue;
            }
            while let Some(a) = add_it.next_if(|a| *a < pair) {
                out.push(a);
            }
            out.push(pair);
        }
        out.extend(add_it);
        debug_assert!(del_it.peek().is_none(), "tombstones must subset the base");
        out
    }

    /// Iterates every visible triple, predicate-major in `(s, o)`
    /// order — the rebuild/export order. Not a query path.
    pub fn iter_merged_triples<'a>(
        &'a self,
        base: &'a TripleStore,
    ) -> impl Iterator<Item = EncodedTriple> + 'a {
        (0..self.num_predicates(base)).flat_map(move |p| {
            let p = p as Id;
            self.merged_so_pairs(base, p)
                .into_iter()
                .map(move |(s, o)| EncodedTriple::new(s, p, o))
        })
    }

    /// Verifies overlay invariants for every predicate: runs sorted
    /// (delegated to partition invariants), `add` disjoint from the
    /// effective base, `del` a subset of it, and the net-triple count
    /// consistent with the runs.
    pub fn check_invariants(&self, base: &TripleStore) -> Result<(), String> {
        let mut net = 0i64;
        for (idx, entry) in self.preds.iter().enumerate() {
            let pred = idx as Id;
            for (name, part) in [
                ("compacted", entry.compacted()),
                ("add", entry.add()),
                ("del", entry.del()),
            ] {
                if let Some(part) = part {
                    part.check_invariants()
                        .map_err(|e| format!("pred {pred} {name} run: {e}"))?;
                }
            }
            let base_has = |s: Id, o: Id| match entry.compacted() {
                Some(part) => part.contains(s, o),
                None => base.partition(pred).is_some_and(|p| p.contains(s, o)),
            };
            if let Some(add) = entry.add() {
                for (s, o) in add.iter_so() {
                    if base_has(s, o) {
                        return Err(format!(
                            "pred {pred}: add pair ({s},{o}) already in base"
                        ));
                    }
                }
                net += add.num_triples() as i64;
            }
            if let Some(del) = entry.del() {
                for (s, o) in del.iter_so() {
                    if !base_has(s, o) {
                        return Err(format!(
                            "pred {pred}: tombstone ({s},{o}) not in base"
                        ));
                    }
                }
                net -= del.num_triples() as i64;
            }
            if let Some(comp) = entry.compacted() {
                let base_n =
                    base.partition(pred).map_or(0, |p| p.num_triples()) as i64;
                net += comp.num_triples() as i64 - base_n;
            }
        }
        if net != self.net_triples {
            return Err(format!(
                "net triple count {} != recomputed {net}",
                self.net_triples
            ));
        }
        Ok(())
    }
}

/// A read view over a base store plus an optional overlay — what the
/// executor, audit, and decode paths consume so that clean and dirty
/// stores share one code path.
#[derive(Debug, Clone, Copy)]
pub struct StoreView<'a> {
    base: &'a TripleStore,
    delta: Option<&'a DeltaOverlay>,
}

impl<'a> StoreView<'a> {
    /// A view of the base store alone.
    pub fn base_only(base: &'a TripleStore) -> Self {
        StoreView { base, delta: None }
    }

    /// A view of the base plus `delta`. A clean overlay is dropped so
    /// the executor keeps its zero-overhead path.
    pub fn with_delta(base: &'a TripleStore, delta: &'a DeltaOverlay) -> Self {
        StoreView {
            base,
            delta: (!delta.is_clean()).then_some(delta),
        }
    }

    /// The base store.
    #[inline]
    pub fn base(&self) -> &'a TripleStore {
        self.base
    }

    /// The overlay, if one is attached.
    #[inline]
    pub fn overlay(&self) -> Option<&'a DeltaOverlay> {
        self.delta
    }

    /// Visible triple count.
    pub fn num_triples(&self) -> usize {
        match self.delta {
            Some(d) => d.visible_triples(self.base),
            None => self.base.num_triples(),
        }
    }

    /// True if the fully-constant triple is visible.
    pub fn contains(&self, t: EncodedTriple) -> bool {
        match self.replica(t.p, SortOrder::SO) {
            Some(view) => view.contains_pair(t.s, t.o),
            None => false,
        }
    }

    /// The probe view for `predicate` in `order`, or `None` if the
    /// predicate is outside both the base and the overlay (which is
    /// only possible for ids no dictionary handed out).
    pub fn replica(&self, predicate: Id, order: SortOrder) -> Option<ReplicaView<'a>> {
        let Some(overlay) = self.delta else {
            return self.base.replica(predicate, order).map(ReplicaView::Clean);
        };
        let entry = overlay.pred(predicate);
        let base_rep = match entry.and_then(PredDelta::compacted) {
            Some(part) => Some(part.replica(order)),
            None => self.base.replica(predicate, order),
        };
        let add = entry.and_then(PredDelta::add).map(|p| p.replica(order));
        let del = entry.and_then(PredDelta::del).map(|p| p.replica(order));
        if add.is_none() && del.is_none() {
            return base_rep.map(ReplicaView::Clean);
        }
        Some(ReplicaView::Dirty {
            base: base_rep,
            add,
            del,
        })
    }
}

/// One predicate-order probe target: either the untouched (or
/// compacted) CSR replica, or the base replica plus resident runs that
/// every probe must merge.
#[derive(Debug, Clone, Copy)]
pub enum ReplicaView<'a> {
    /// No resident runs — probes hit the replica directly, preserving
    /// the zero-overhead hot path (adaptive search, ID-to-Position).
    Clean(&'a Replica),
    /// Resident runs present: visible = (base \ del) ∪ add.
    Dirty {
        /// Effective base replica (compacted replacement or the store's
        /// own); `None` when the predicate only exists in the overlay.
        base: Option<&'a Replica>,
        /// Insertions, disjoint from `base`.
        add: Option<&'a Replica>,
        /// Tombstones, a subset of `base`.
        del: Option<&'a Replica>,
    },
}

impl<'a> ReplicaView<'a> {
    /// True if `(key, value)` is visible. Probes go through
    /// [`crate::Group`], so base replicas (and compacted replacements)
    /// may be block-compressed; add/del runs are always raw.
    pub fn contains_pair(&self, key: Id, value: Id) -> bool {
        match self {
            ReplicaView::Clean(rep) => rep.group_for_key(key).contains(value),
            ReplicaView::Dirty { base, add, del } => {
                let in_del =
                    del.is_some_and(|d| d.group_for_key(key).contains(value));
                if in_del {
                    return false;
                }
                base.is_some_and(|b| b.group_for_key(key).contains(value))
                    || add.is_some_and(|a| a.group_for_key(key).contains(value))
            }
        }
    }

    /// The visible sorted value group for `key`, appended to `out`
    /// (which is cleared first). For a clean raw replica prefer
    /// borrowing [`Replica::values_for_key`] directly.
    pub fn merged_values_into(&self, key: Id, out: &mut Vec<Id>) {
        out.clear();
        match self {
            ReplicaView::Clean(rep) => rep.group_for_key(key).decode_into(out),
            ReplicaView::Dirty { base, add, del } => merge_group_into(
                base.map_or(crate::Group::Raw(&[]), |b| b.group_for_key(key)),
                add.map_or(&[][..], |a| a.values_for_key(key)),
                del.map_or(&[][..], |d| d.values_for_key(key)),
                out,
            ),
        }
    }

    /// The sorted distinct key domain. For dirty views this is the
    /// union of base and add keys — a key whose whole group was
    /// tombstoned still appears (its merged group is empty), which only
    /// pads the scan domain and never changes emitted rows.
    pub fn merged_keys(&self) -> Vec<Id> {
        match self {
            ReplicaView::Clean(rep) => rep.keys().to_vec(),
            ReplicaView::Dirty { base, add, .. } => {
                let b = base.map_or(&[][..], |r| r.keys());
                let a = add.map_or(&[][..], |r| r.keys());
                let mut out = Vec::with_capacity(b.len() + a.len());
                let (mut i, mut j) = (0, 0);
                while i < b.len() && j < a.len() {
                    match b[i].cmp(&a[j]) {
                        std::cmp::Ordering::Less => {
                            out.push(b[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            out.push(a[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            out.push(b[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                out.extend_from_slice(&b[i..]);
                out.extend_from_slice(&a[j..]);
                out
            }
        }
    }
}

/// Binary search membership in a sorted slice.
#[inline]
pub fn sorted_contains(slice: &[Id], value: Id) -> bool {
    slice.binary_search(&value).is_ok()
}

/// Merges `(base \ del) ∪ add` into `out`, preserving sorted order.
/// `add` must be disjoint from `base` and `del` a subset of `base` —
/// the overlay invariants.
pub fn merge_values_into(base: &[Id], add: &[Id], del: &[Id], out: &mut Vec<Id>) {
    let mut di = 0;
    let mut ai = 0;
    for &v in base {
        if di < del.len() && del[di] == v {
            di += 1;
            continue;
        }
        while ai < add.len() && add[ai] < v {
            out.push(add[ai]);
            ai += 1;
        }
        out.push(v);
    }
    out.extend_from_slice(&add[ai..]);
}

/// [`merge_values_into`] with a [`crate::Group`] base, so the same
/// two-pointer merge runs over raw and block-compressed base groups.
pub fn merge_group_into(
    base: crate::Group<'_>,
    add: &[Id],
    del: &[Id],
    out: &mut Vec<Id>,
) {
    if let Some(slice) = base.as_raw() {
        return merge_values_into(slice, add, del, out);
    }
    let mut di = 0;
    let mut ai = 0;
    for v in base.iter() {
        if di < del.len() && del[di] == v {
            di += 1;
            continue;
        }
        while ai < add.len() && add[ai] < v {
            out.push(add[ai]);
            ai += 1;
        }
        out.push(v);
    }
    out.extend_from_slice(&add[ai..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreBuilder;
    use parj_dict::Term;

    fn base_store() -> TripleStore {
        let mut b = StoreBuilder::new();
        let rows = [
            ("s1", "p0", "o1"),
            ("s1", "p0", "o2"),
            ("s2", "p0", "o1"),
            ("s1", "p1", "o3"),
        ];
        for (s, p, o) in rows {
            b.add_term_triple(&Term::iri(s), &Term::iri(p), &Term::iri(o));
        }
        b.build()
    }

    fn rid(store: &TripleStore, name: &str) -> Id {
        store.dict().resource_id(&Term::iri(name)).unwrap()
    }

    #[test]
    fn insert_then_delete_roundtrips_to_clean_view() {
        let base = base_store();
        let mut ov = DeltaOverlay::new(&base);
        let (s1, o9) = (rid(&base, "s1"), rid(&base, "o1"));
        // Deleting a base pair then re-inserting it must cancel out.
        let del = ov.apply_pred(&base, 0, &[], &[(s1, o9)]);
        assert_eq!(del, PredApply { inserted: 0, deleted: 1 });
        assert_eq!(ov.visible_triples(&base), 3);
        let ins = ov.apply_pred(&base, 0, &[(s1, o9)], &[]);
        assert_eq!(ins, PredApply { inserted: 1, deleted: 0 });
        assert_eq!(ov.visible_triples(&base), 4);
        assert!(!ov.has_resident_runs());
        assert_eq!(ov.check_invariants(&base), Ok(()));
    }

    #[test]
    fn duplicate_insert_and_missing_delete_are_noops() {
        let base = base_store();
        let mut ov = DeltaOverlay::new(&base);
        let (s1, o1) = (rid(&base, "s1"), rid(&base, "o1"));
        // (s1, o1) already exists under p0; (o1, s1) does not.
        let r = ov.apply_pred(&base, 0, &[(s1, o1)], &[(o1, s1)]);
        assert_eq!(r, PredApply::default());
        assert!(ov.is_clean());
    }

    #[test]
    fn merged_pairs_equal_rebuild_order() {
        let base = base_store();
        let mut ov = DeltaOverlay::new(&base);
        let (s1, s2, o1, o2, o3) = (
            rid(&base, "s1"),
            rid(&base, "s2"),
            rid(&base, "o1"),
            rid(&base, "o2"),
            rid(&base, "o3"),
        );
        let mut ins = vec![(s2, o2), (o3, o1)];
        ins.sort_unstable();
        ov.apply_pred(&base, 0, &ins, &[(s1, o2)]);
        // Rebuild from the merged triples and compare pair-for-pair.
        let merged = ov.merged_so_pairs(&base, 0);
        let mut expect: Vec<(Id, Id)> = base
            .partition(0)
            .unwrap()
            .iter_so()
            .filter(|&p| p != (s1, o2))
            .chain(ins.iter().copied())
            .collect();
        expect.sort_unstable();
        assert_eq!(merged, expect);
        assert_eq!(ov.check_invariants(&base), Ok(()));
    }

    #[test]
    fn compaction_clears_runs_and_preserves_view() {
        let base = base_store();
        let mut ov = DeltaOverlay::new(&base);
        let (s2, o2, o3) = (rid(&base, "s2"), rid(&base, "o2"), rid(&base, "o3"));
        let mut ins = vec![(s2, o2), (s2, o3)];
        ins.sort_unstable();
        ov.apply_pred(&base, 0, &ins, &[]);
        let before = ov.merged_so_pairs(&base, 0);
        assert!(ov.needs_compaction(0, 2));
        ov.compact_pred(&base, 0);
        assert_eq!(ov.compactions(), 1);
        assert!(!ov.has_resident_runs());
        assert_eq!(ov.merged_so_pairs(&base, 0), before);
        // The compacted partition carries ID-to-Position like the base.
        let view = StoreView::with_delta(&base, &ov);
        match view.replica(0, SortOrder::SO).unwrap() {
            ReplicaView::Clean(rep) => assert!(rep.idpos().is_some()),
            ReplicaView::Dirty { .. } => panic!("compacted pred must be clean"),
        }
        assert_eq!(ov.check_invariants(&base), Ok(()));
        // Mutations after compaction run against the compacted base.
        let r = ov.apply_pred(&base, 0, &[], &ins);
        assert_eq!(r.deleted, 2);
        assert_eq!(ov.visible_triples(&base), 4);
        assert_eq!(ov.check_invariants(&base), Ok(()));
    }

    #[test]
    fn new_predicate_lives_only_in_overlay() {
        let base = base_store();
        let mut ov = DeltaOverlay::new(&base);
        let new_pred = base.num_predicates() as Id;
        let r = ov.apply_pred(&base, new_pred, &[(1, 2)], &[]);
        assert_eq!(r.inserted, 1);
        let view = StoreView::with_delta(&base, &ov);
        let rep = view.replica(new_pred, SortOrder::SO).unwrap();
        assert!(rep.contains_pair(1, 2));
        assert_eq!(rep.merged_keys(), vec![1]);
        assert!(view.contains(EncodedTriple::new(1, new_pred, 2)));
        assert_eq!(view.num_triples(), 5);
    }

    #[test]
    fn dirty_view_merges_both_orders() {
        let base = base_store();
        let mut ov = DeltaOverlay::new(&base);
        let (s2, o2) = (rid(&base, "s2"), rid(&base, "o2"));
        ov.apply_pred(&base, 0, &[(s2, o2)], &[]);
        let view = StoreView::with_delta(&base, &ov);
        let so = view.replica(0, SortOrder::SO).unwrap();
        let mut vals = Vec::new();
        so.merged_values_into(s2, &mut vals);
        let o1 = rid(&base, "o1");
        let mut expect = vec![o1, o2];
        expect.sort_unstable();
        assert_eq!(vals, expect);
        // OS order: o2's subjects now include s2.
        let os = view.replica(0, SortOrder::OS).unwrap();
        assert!(os.contains_pair(o2, s2));
    }

    #[test]
    fn overlay_over_compressed_base() {
        // A block-compressed base must behave identically to raw under
        // mutation, merge, and compaction.
        let mut b = StoreBuilder::new();
        for i in 0..2000u32 {
            b.add_term_triple(
                &Term::iri(format!("s{}", i % 4)),
                &Term::iri("p"),
                &Term::iri(format!("o{i}")),
            );
        }
        let raw = b.build();
        let mut zip_opts = raw.options();
        zip_opts.compress_min_values = Some(8);
        let mut b = StoreBuilder::new();
        for i in 0..2000u32 {
            b.add_term_triple(
                &Term::iri(format!("s{}", i % 4)),
                &Term::iri("p"),
                &Term::iri(format!("o{i}")),
            );
        }
        let zip = b.build_with(zip_opts);
        assert!(zip.replica(0, SortOrder::SO).unwrap().is_compressed());

        // Insert absent (s0, o_j) pairs for j % 4 != 0 — ids must stay
        // inside the base dictionary (the engine extends DictDelta for
        // genuinely new terms; this test mutates existing resources).
        let s0 = rid(&raw, "s0");
        let mut batch_ins: Vec<(Id, Id)> = (1..60)
            .filter(|j| j % 4 != 0)
            .map(|j| (s0, rid(&raw, &format!("o{j}"))))
            .collect();
        batch_ins.sort_unstable();
        let batch_del: Vec<(Id, Id)> = raw
            .partition(0)
            .unwrap()
            .iter_so()
            .step_by(13)
            .collect();
        let run = |base: &TripleStore| {
            let mut ov = DeltaOverlay::new(base);
            ov.apply_pred(base, 0, &batch_ins, &[]);
            ov.apply_pred(base, 0, &[], &batch_del);
            assert_eq!(ov.check_invariants(base), Ok(()));
            let dirty = ov.merged_so_pairs(base, 0);
            let view = StoreView::with_delta(base, &ov);
            let rep = view.replica(0, SortOrder::SO).unwrap();
            let mut probe = Vec::new();
            rep.merged_values_into(1, &mut probe);
            ov.compact_pred(base, 0);
            assert_eq!(ov.check_invariants(base), Ok(()));
            assert_eq!(ov.merged_so_pairs(base, 0), dirty);
            (dirty, probe, ov)
        };
        let (raw_pairs, raw_probe, _) = run(&raw);
        let (zip_pairs, zip_probe, zip_ov) = run(&zip);
        assert_eq!(raw_pairs, zip_pairs);
        assert_eq!(raw_probe, zip_probe);
        // The compacted replacement re-applied the compression policy.
        let comp = zip_ov.pred(0).unwrap().compacted().unwrap();
        assert!(comp.replica(SortOrder::SO).is_compressed());
    }

    #[test]
    fn merge_group_matches_merge_values() {
        let base: Vec<Id> = (0..500).map(|i| i * 3).collect();
        let add = vec![1, 4, 2000];
        let del = vec![0, 300, 1497];
        let offsets = vec![0, base.len() as u32];
        let packed = crate::codec::PackedValues::pack(&offsets, &base);
        let mut a = Vec::new();
        let mut b = Vec::new();
        merge_values_into(&base, &add, &del, &mut a);
        merge_group_into(
            crate::Group::Packed(packed.run(0, &offsets)),
            &add,
            &del,
            &mut b,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn merge_values_handles_interleaving() {
        let mut out = Vec::new();
        merge_values_into(&[2, 4, 6], &[1, 5, 9], &[4], &mut out);
        assert_eq!(out, vec![1, 2, 5, 6, 9]);
        out.clear();
        merge_values_into(&[], &[3], &[], &mut out);
        assert_eq!(out, vec![3]);
        out.clear();
        merge_values_into(&[3], &[], &[3], &mut out);
        assert!(out.is_empty());
    }
}
