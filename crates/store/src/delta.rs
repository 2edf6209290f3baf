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

use std::borrow::Cow;

use parj_dict::{DictDelta, EncodedTriple, Id};
use parj_sync::Arc;

use crate::partition::Partition;
use crate::replica::{Group, GroupIter, Replica};
use crate::share::index_for;
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

    /// The partitions this predicate's overlay holds: compacted
    /// replacement, add run, del run.
    fn partitions(&self) -> impl Iterator<Item = &Partition> + '_ {
        [&self.compacted, &self.add, &self.del]
            .into_iter()
            .flatten()
            .map(|p| &**p)
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

    /// Mutable access to the dictionary extension (the engine interns
    /// a batch's new terms through this before applying pairs). While a
    /// [`DeltaOverlay::shared_dict`] snapshot is alive this first
    /// clones the extension: its run pointers, not its terms.
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
    /// dictionary extension. A keys array or index shared by several
    /// replicas counts once, and not at all when `base` holds it (a
    /// compacted replica whose keys did not change shares them).
    pub fn memory_bytes(&self, base: &TripleStore) -> usize {
        let mut tally = base.tally();
        let in_base = tally.bytes.total();
        let parts = self.preds.iter().flat_map(PredDelta::partitions);
        parts
            .flat_map(Partition::replicas)
            .for_each(|r| tally.add(r));
        tally.bytes.total() - in_base + self.dict.memory_bytes()
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
        let effective = self.effective_base(base, predicate);
        let in_base = |s: Id, o: Id| effective.is_some_and(|p| p.contains(s, o));

        let entry = &self.preds[idx];
        let add_pairs: Vec<(Id, Id)> = entry
            .add()
            .map(|p| p.iter_so().collect())
            .unwrap_or_default();
        let del_pairs: Vec<(Id, Id)> = entry
            .del()
            .map(|p| p.iter_so().collect())
            .unwrap_or_default();
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
                return (!old.is_empty()).then(|| Arc::new(Partition::build(predicate, &old)));
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
    ///
    /// A replica whose merged keys equal keys already held — the
    /// effective base's, in the common case of a write under existing
    /// keys, or any other replica's of the base or a compacted
    /// partition — shares that array and its index instead of
    /// allocating and indexing a copy. A new array gets an
    /// ID-to-Position index where one pays, as in a built store.
    pub fn compact_pred(&mut self, base: &TripleStore, predicate: Id) {
        let idx = predicate as usize;
        if self.pred(predicate).is_none_or(|p| p.resident_pairs() == 0) {
            return;
        }
        let merged = self.merged_so_pairs(base, predicate);
        let mut part = Partition::build(predicate, &merged);
        let options = base.options();
        for order in [SortOrder::SO, SortOrder::OS] {
            // Equal held arrays are one allocation, so the first match
            // is the one. The new S-O replica is a candidate for its O-S
            // twin.
            let compacted = self.preds.iter().filter_map(PredDelta::compacted);
            let twin = (order == SortOrder::OS).then(|| part.replica(SortOrder::SO));
            let keys = part.replica(order).keys();
            let found = base
                .replicas()
                .chain(compacted.flat_map(Partition::replicas))
                .chain(twin)
                .find(|h| h.keys() == keys)
                .map(|h| {
                    let (keys, index) = h.shared();
                    (Arc::clone(keys), index.cloned())
                });
            let r = part.replica_mut(order);
            let (keys, index) = found.unwrap_or_else(|| {
                let interval = options.build_idpos.then_some(options.idpos_interval);
                (Arc::clone(r.shared().0), index_for(r.keys(), interval))
            });
            r.share(&keys, index.as_ref());
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
        let view = StoreView {
            base,
            delta: Some(self),
        };
        view.replica(predicate, SortOrder::SO)
            .map_or_else(Vec::new, |r| r.merged_pairs())
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
            let effective = self.effective_base(base, pred);
            let base_has = |s: Id, o: Id| effective.is_some_and(|p| p.contains(s, o));
            if let Some(add) = entry.add() {
                for (s, o) in add.iter_so() {
                    if base_has(s, o) {
                        return Err(format!("pred {pred}: add pair ({s},{o}) already in base"));
                    }
                }
                net += add.num_triples() as i64;
            }
            if let Some(del) = entry.del() {
                for (s, o) in del.iter_so() {
                    if !base_has(s, o) {
                        return Err(format!("pred {pred}: tombstone ({s},{o}) not in base"));
                    }
                }
                net -= del.num_triples() as i64;
            }
            if let Some(comp) = entry.compacted() {
                let base_n = base.partition(pred).map_or(0, |p| p.num_triples()) as i64;
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

    /// The probe view for `predicate` in `order`, or `None` if the
    /// predicate is outside both the base and the overlay (which is
    /// only possible for ids no dictionary handed out).
    pub fn replica(&self, predicate: Id, order: SortOrder) -> Option<ReplicaView<'a>> {
        let Some(overlay) = self.delta else {
            return self.base.replica(predicate, order).map(ReplicaView::Clean);
        };
        let entry = overlay.pred(predicate);
        let base_rep = overlay
            .effective_base(self.base, predicate)
            .map(|p| p.replica(order));
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
    /// The base replica and the add and del runs; a clean view has no
    /// runs.
    fn runs(&self) -> [Option<&'a Replica>; 3] {
        match *self {
            ReplicaView::Clean(rep) => [Some(rep), None, None],
            ReplicaView::Dirty { base, add, del } => [base, add, del],
        }
    }

    /// The visible group of `key`, empty if absent. Base replicas (and
    /// compacted replacements) may be block-compressed; add and del
    /// runs are always raw.
    pub fn group(&self, key: Id) -> MergedGroup<'a> {
        let base = self.runs()[0].map_or(Group::Raw(&[]), |b| b.group_for_key(key));
        self.group_with_base(key, base)
    }

    /// [`ReplicaView::group`] with the base group already found by the
    /// caller: only the add and del runs are looked up.
    pub fn group_with_base(&self, key: Id, base: Group<'a>) -> MergedGroup<'a> {
        let [_, add, del] = self.runs();
        let run = |r: Option<&'a Replica>| r.map_or(&[][..], |r| r.values_for_key(key));
        MergedGroup {
            base,
            add: run(add),
            del: run(del),
        }
    }

    /// The sorted distinct key domain: borrowed from a clean replica.
    /// For dirty views this is the union of base and add keys — a key
    /// whose whole group was tombstoned still appears (its merged group
    /// is empty), which only pads the scan domain and never changes
    /// emitted rows.
    pub fn merged_keys(&self) -> Cow<'a, [Id]> {
        match *self {
            ReplicaView::Clean(rep) => Cow::Borrowed(rep.keys()),
            ReplicaView::Dirty { base, add, .. } => {
                let [base, add] = [base, add].map(|r| r.map_or(&[][..], Replica::keys));
                let union = MergedGroup {
                    base: Group::Raw(base),
                    add,
                    del: &[],
                };
                let mut keys = Vec::with_capacity(base.len() + add.len());
                keys.extend(union.iter());
                Cow::Owned(keys)
            }
        }
    }

    /// Every visible `(key, value)` pair in `(key, value)` order — the
    /// pairs a compacted replica would hold.
    pub(crate) fn merged_pairs(&self) -> Vec<(Id, Id)> {
        let [base, add, del] = self.runs().map(|r| r.map_or(0, Replica::num_triples));
        let visible = base + add - del;
        let mut out = Vec::with_capacity(visible);
        // The base keys are a subsequence of the merged keys, so a
        // forward cursor finds the base group of every key; only the
        // small resident runs are searched.
        let (base, mut at) = (self.runs()[0], 0);
        for &key in self.merged_keys().iter() {
            let group = match base {
                Some(r) if r.keys().get(at) == Some(&key) => {
                    at += 1;
                    r.group_at(at - 1)
                }
                _ => Group::Raw(&[]),
            };
            out.extend(self.group_with_base(key, group).iter().map(|v| (key, v)));
        }
        debug_assert_eq!(out.len(), visible, "tombstones must subset the base");
        out
    }
}

/// One key's visible value group under the delta rule
/// `(base ∖ del) ∪ add`: the base replica's [`Group`], raw or packed,
/// plus the key's sorted add and del runs. Every delta merge and
/// membership test goes through this type.
///
/// The runs obey the overlay invariants — `add` disjoint from `base`,
/// `del` a subset of it — so [`MergedGroup::iter`] yields exactly the
/// group a compacted replica would hold, in the same order.
#[derive(Debug, Clone, Copy)]
pub struct MergedGroup<'a> {
    /// The base group; empty when the key is new to the predicate.
    pub base: Group<'a>,
    /// Insertions, disjoint from `base`.
    pub add: &'a [Id],
    /// Tombstones, a subset of `base`.
    pub del: &'a [Id],
}

impl<'a> MergedGroup<'a> {
    /// The visible values in increasing order: a two-pointer merge of
    /// `base` and `add` that skips `del`. A value in both `base` and
    /// `add` is yielded once, so with `del` empty this is a set union.
    pub fn iter(&self) -> MergedIter<'a> {
        let mut base = self.base.iter();
        MergedIter {
            next: base.next(),
            base,
            add: self.add,
            del: self.del,
        }
    }

    /// True if `v` is visible.
    pub fn contains(&self, v: Id) -> bool {
        self.contains_counted(v, &mut 0)
    }

    /// [`MergedGroup::contains`], adding one to `probes` per run it
    /// searches: `del` when non-empty (a hit answers `false`), then
    /// `base`, then `add` when non-empty and `base` missed.
    #[inline]
    pub fn contains_counted(&self, v: Id, probes: &mut u64) -> bool {
        *probes += u64::from(!self.del.is_empty());
        if self.del.binary_search(&v).is_ok() {
            return false;
        }
        *probes += 1;
        if self.base.contains(v) {
            return true;
        }
        *probes += u64::from(!self.add.is_empty());
        self.add.binary_search(&v).is_ok()
    }
}

/// Iterator over a [`MergedGroup`]'s visible values.
#[derive(Debug, Clone)]
pub struct MergedIter<'a> {
    base: GroupIter<'a>,
    /// The next base value, not yet yielded.
    next: Option<Id>,
    add: &'a [Id],
    del: &'a [Id],
}

impl Iterator for MergedIter<'_> {
    type Item = Id;

    #[inline]
    fn next(&mut self) -> Option<Id> {
        loop {
            let Some(b) = self.next else {
                let (&a, rest) = self.add.split_first()?;
                self.add = rest;
                return Some(a);
            };
            if let Some((&a, rest)) = self.add.split_first() {
                if a <= b {
                    self.add = rest;
                    if a < b {
                        return Some(a);
                    }
                }
            }
            self.next = self.base.next();
            match self.del.split_first() {
                Some((&d, rest)) if d == b => self.del = rest,
                _ => return Some(b),
            }
        }
    }
}

/// Merges `(base \ del) ∪ add` into `out`, preserving sorted order.
/// `add` must be disjoint from `base` and `del` a subset of `base` —
/// the overlay invariants.
pub fn merge_values_into(base: &[Id], add: &[Id], del: &[Id], out: &mut Vec<Id>) {
    let group = MergedGroup {
        base: Group::Raw(base),
        add,
        del,
    };
    out.extend(group.iter());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idpos::IdPosIndex;
    use crate::share::tests::distinct_bytes;
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
        assert_eq!(
            del,
            PredApply {
                inserted: 0,
                deleted: 1
            }
        );
        assert_eq!(ov.visible_triples(&base), 3);
        let ins = ov.apply_pred(&base, 0, &[(s1, o9)], &[]);
        assert_eq!(
            ins,
            PredApply {
                inserted: 1,
                deleted: 0
            }
        );
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
        // The compacted partition carries ID-to-Position where it pays,
        // like the base.
        let view = StoreView::with_delta(&base, &ov);
        match view.replica(0, SortOrder::SO).unwrap() {
            ReplicaView::Clean(rep) => assert_eq!(
                rep.idpos().is_some(),
                IdPosIndex::pays(rep.keys(), base.options().idpos_interval)
            ),
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
        assert!(rep.group(1).contains(2));
        assert_eq!(rep.merged_keys(), vec![1]);
        assert!(!rep.group(2).contains(1));
        assert_eq!(ov.visible_triples(&base), 5);
    }

    #[test]
    fn dirty_view_merges_both_orders() {
        let base = base_store();
        let mut ov = DeltaOverlay::new(&base);
        let (s2, o2) = (rid(&base, "s2"), rid(&base, "o2"));
        ov.apply_pred(&base, 0, &[(s2, o2)], &[]);
        let view = StoreView::with_delta(&base, &ov);
        let so = view.replica(0, SortOrder::SO).unwrap();
        let vals: Vec<Id> = so.group(s2).iter().collect();
        let o1 = rid(&base, "o1");
        let mut expect = vec![o1, o2];
        expect.sort_unstable();
        assert_eq!(vals, expect);
        // OS order: o2's subjects now include s2.
        let os = view.replica(0, SortOrder::OS).unwrap();
        assert!(os.group(o2).contains(s2));
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
        let batch_del: Vec<(Id, Id)> = raw.partition(0).unwrap().iter_so().step_by(13).collect();
        let run = |base: &TripleStore| {
            let mut ov = DeltaOverlay::new(base);
            ov.apply_pred(base, 0, &batch_ins, &[]);
            ov.apply_pred(base, 0, &[], &batch_del);
            assert_eq!(ov.check_invariants(base), Ok(()));
            let dirty = ov.merged_so_pairs(base, 0);
            let view = StoreView::with_delta(base, &ov);
            let rep = view.replica(0, SortOrder::SO).unwrap();
            let probe: Vec<Id> = rep.group(1).iter().collect();
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

    /// `memory_bytes` counts allocated capacity. On every replica a
    /// store holds — raw, packed, snapshot-loaded, delta runs and
    /// compacted partitions, with and without an offsets table — it
    /// equals the length-based sum, so nothing is over-allocated. Store
    /// and overlay totals count each shared keys array and index once,
    /// and the overlay leaves out the ones the base holds.
    #[test]
    fn replicas_are_allocated_exactly() {
        fn assert_exact(part: &Partition, what: &str) {
            for order in [SortOrder::SO, SortOrder::OS] {
                let r = part.replica(order);
                assert_eq!(r.memory_bytes(), r.exact_bytes(), "{what} {order}");
            }
        }
        fn so_of(store: &TripleStore, pred: Id) -> &Replica {
            store.replica(pred, SortOrder::SO).unwrap()
        }
        let iri = |s: &str| Term::iri(s);
        for compress in [None, Some(8)] {
            let mut b = StoreBuilder::new();
            for i in 0..3000u32 {
                // p0: one object per subject; p1: 75 subjects of 40
                // objects; p2: p0's subjects, so their S-O keys are one
                // shared array.
                let (s0, o0) = (format!("s{i}"), format!("o{}", i % 700));
                b.add_term_triple(&iri(&s0), &iri("p0"), &iri(&o0));
                let (s1, o1) = (format!("s{}", i % 75), format!("o{i}"));
                b.add_term_triple(&iri(&s1), &iri("p1"), &iri(&o1));
                b.add_term_triple(&iri(&s0), &iri("p2"), &iri(&format!("o{}", i % 3)));
            }
            let base = b.build_with(crate::StoreOptions {
                compress_min_values: compress,
                ..crate::StoreOptions::default()
            });
            let so = |pred| base.replica(pred, SortOrder::SO).unwrap();
            assert!(so(0).one_value_per_key() && !so(1).one_value_per_key());
            assert_eq!(so(1).is_compressed(), compress.is_some());
            let loaded = TripleStore::from_snapshot_bytes(&base.to_snapshot_bytes()).unwrap();
            for (store, what) in [(&base, "base"), (&loaded, "loaded")] {
                for part in store.partitions() {
                    assert_exact(part, what);
                }
                let (p0, p2) = (so_of(store, 0), so_of(store, 2));
                assert!(Arc::ptr_eq(p0.shared().0, p2.shared().0), "{what}");
                assert!(
                    Arc::ptr_eq(p0.shared().1.unwrap(), p2.shared().1.unwrap()),
                    "{what}"
                );
                let replicas: Vec<&Replica> = store.replicas().collect();
                assert_eq!(
                    store.partitions_memory_bytes(),
                    distinct_bytes(&replicas, &[]),
                    "{what}"
                );
                assert_eq!(store.distinct_key_arrays(), 5, "{what}");
            }
            let mut ov = DeltaOverlay::new(&base);
            let s = |i: u32| rid(&base, &format!("s{i}"));
            let o = |i: u32| rid(&base, &format!("o{i}"));
            let mut inserts = [
                (0..50)
                    .map(|i| (s(i), o((i + 1) % 700)))
                    .collect::<Vec<_>>(),
                (1..40).map(|j| (s(0), o(j))).collect(),
            ];
            for (pred, ins) in inserts.iter_mut().enumerate() {
                let pred = pred as Id;
                ins.sort_unstable();
                let del: Vec<(Id, Id)> =
                    base.partition(pred).unwrap().iter_so().step_by(7).collect();
                ov.apply_pred(&base, pred, ins, &del);
                let d = ov.pred(pred).unwrap();
                assert_exact(d.add().unwrap(), "add run");
                assert_exact(d.del().unwrap(), "del run");
                ov.compact_pred(&base, pred);
                let compacted = ov.pred(pred).unwrap().compacted().unwrap();
                assert_exact(compacted, "compacted");
            }
            // p1's S-O keys survive its writes, so its compacted replica
            // shares the base's array and index.
            let part = ov.pred(1).unwrap().compacted().unwrap();
            let (keys, index) = part.replica(SortOrder::SO).shared();
            assert!(Arc::ptr_eq(keys, so(1).shared().0));
            assert!(Arc::ptr_eq(index.unwrap(), so(1).shared().1.unwrap()));
            let held: Vec<&Replica> = base.replicas().collect();
            let compacted: Vec<&Replica> = (0..2)
                .flat_map(|pred| {
                    let part = ov.pred(pred).unwrap().compacted().unwrap();
                    [part.replica(SortOrder::SO), part.replica(SortOrder::OS)]
                })
                .collect();
            assert_eq!(
                ov.memory_bytes(&base) - ov.dict().memory_bytes(),
                distinct_bytes(&compacted, &held)
            );
        }
    }

    /// Checks every reading of one [`MergedGroup`] against a
    /// `BTreeSet` model of `(base ∖ del) ∪ add`, over a raw and (when
    /// non-empty) a packed base: `iter()` and `merge_values_into` equal
    /// the model, and `contains` agrees with it on every run value, its
    /// neighbours and both ends of the id space.
    fn check_merge(base: &[Id], add: &[Id], del: &[Id]) -> Result<(), String> {
        let model: std::collections::BTreeSet<Id> = base
            .iter()
            .chain(add)
            .filter(|v| !del.contains(v))
            .copied()
            .collect();
        let spans = match base.len() {
            1 => crate::replica::Spans::Singletons,
            n => crate::replica::Spans::Csr(vec![0, n as u32]),
        };
        let packed = (!base.is_empty()).then(|| crate::codec::PackedValues::pack(&spans, base));
        let packed = packed.as_ref().map(|p| Group::Packed(p.run(0, &spans)));
        for group in [Some(Group::Raw(base)), packed].into_iter().flatten() {
            let merged = MergedGroup {
                base: group,
                add,
                del,
            };
            let got: Vec<Id> = merged.iter().collect();
            if !got.iter().eq(&model) {
                return Err(format!("iter {got:?} != model {model:?} ({group:?})"));
            }
            let near = |&v: &Id| [v.saturating_sub(1), v, v.saturating_add(1)];
            let probes = base.iter().chain(add).chain(del).flat_map(near);
            for v in probes.chain([0, Id::MAX]) {
                if merged.contains(v) != model.contains(&v) {
                    return Err(format!(
                        "contains({v}) disagrees with the model ({group:?})"
                    ));
                }
            }
        }
        let mut out = vec![7];
        merge_values_into(base, add, del, &mut out);
        if out[0] != 7 || !out[1..].iter().eq(&model) {
            return Err(format!("merge_values_into appended {:?}", &out[1..]));
        }
        Ok(())
    }

    #[test]
    fn merge_fixed_cases() {
        let base: Vec<Id> = (0..500).map(|i| i * 3).collect();
        let cases: [(&[Id], &[Id], &[Id]); 5] = [
            (&base, &[1, 4, 2000], &[0, 300, 1497]),
            (&[2, 4, 6], &[1, 5, 9], &[4]),
            (&[], &[3], &[]),
            (&[3], &[], &[3]),
            (&[Id::MAX - 1], &[0, Id::MAX], &[]),
        ];
        for (base, add, del) in cases {
            assert_eq!(check_merge(base, add, del), Ok(()));
        }
    }

    proptest::proptest! {
        /// Sorted base, `add` disjoint from it, `del` a subset of it:
        /// each id past `start` is, by its role, base only, tombstoned
        /// base, added, or in none of the runs.
        #[test]
        fn merged_group_matches_model(
            start in proptest::prop_oneof![proptest::strategy::Just(0u32), 0u32..100, proptest::strategy::Just(Id::MAX - 3000)],
            cells in proptest::collection::vec((0u32..40, 0u8..4), 0..300),
        ) {
            let (mut base, mut add, mut del) = (Vec::new(), Vec::new(), Vec::new());
            let mut v = start;
            for (gap, role) in cells {
                v += gap.min(3) * (gap % 7) + 1;
                match role {
                    0 => base.push(v),
                    1 => {
                        base.push(v);
                        del.push(v);
                    }
                    2 => add.push(v),
                    _ => {}
                }
            }
            proptest::prop_assert_eq!(check_merge(&base, &add, &del), Ok(()));
        }
    }
}
