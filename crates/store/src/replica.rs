//! One sort-order replica of a property's two-column table (Figure 1 of
//! the paper): distinct sorted keys, the span of each key's group, and
//! one contiguous sorted-per-group values area.
//!
//! Group spans have two shapes, chosen by the data: when every key has
//! exactly one value, group `pos` is value position `pos` and nothing is
//! stored; otherwise a CSR offsets table holds them.
//!
//! The values area has two physical representations: raw `u32` arrays,
//! and the block-compressed encoding of [`crate::codec`] (selected by
//! [`Replica::compress`], kept only when it actually saves memory).
//! Keys and offsets always stay raw — the join layer's adaptive key
//! search runs on them unchanged — and every logical accessor is
//! representation-transparent through [`Group`].
//!
//! Keys may be shared. The keys array and its ID-to-Position index are
//! immutable `Arc` allocations, and in a store every replica whose keys
//! equal another's holds the same array and index (`crate::share`).

use std::borrow::Cow;
use std::ops::Range;

use parj_dict::Id;
use parj_sync::Arc;

use crate::codec::{PackedRun, PackedRunIter, PackedValues};
use crate::idpos::IdPosIndex;

/// Where each key's group sits in the values area.
///
/// The shape follows from the data, never from configuration: a
/// replica with as many values as keys is `Singletons`, any other is
/// `Csr`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) enum Spans {
    /// Every group holds one value: group `pos` is value position `pos`.
    #[default]
    Singletons,
    /// CSR table of `num_keys + 1` entries: group `pos` is value
    /// positions `offsets[pos]..offsets[pos + 1]`.
    Csr(Vec<u32>),
}

impl Spans {
    /// Value positions of group `pos`. `Singletons` does not bound
    /// `pos`: callers index an array of `num_keys` entries with it.
    #[inline]
    pub(crate) fn range(&self, pos: usize) -> Range<usize> {
        match self {
            Spans::Singletons => pos..pos + 1,
            Spans::Csr(offsets) => offsets[pos] as usize..offsets[pos + 1] as usize,
        }
    }

    /// Number of groups over a values area of `num_values` values.
    #[inline]
    pub(crate) fn num_groups(&self, num_values: usize) -> usize {
        match self {
            Spans::Singletons => num_values,
            Spans::Csr(offsets) => offsets.len() - 1,
        }
    }
}

/// Physical storage of a replica's values area.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ValuesRepr {
    /// Plain contiguous `u32` values (the seed representation).
    Raw(Vec<Id>),
    /// Block-compressed encoding (frame-of-reference run starts +
    /// bitpacked deltas); see [`crate::codec`].
    Packed(PackedValues),
}

impl Default for ValuesRepr {
    fn default() -> Self {
        ValuesRepr::Raw(Vec::new())
    }
}

/// One key's sorted value group, borrowed from either representation.
///
/// Probes and scans go through this type so the executor, delta merges
/// and audits stay byte-identical whether the replica is compressed or
/// not.
#[derive(Debug, Clone, Copy)]
pub enum Group<'a> {
    /// Borrowed slice of a raw values area.
    Raw(&'a [Id]),
    /// Borrowed run of a block-compressed values area.
    Packed(PackedRun<'a>),
}

impl<'a> Group<'a> {
    /// Number of values in the group.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Group::Raw(s) => s.len(),
            Group::Packed(r) => r.len(),
        }
    }

    /// True when the group holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first (smallest) value, if any.
    pub fn first(&self) -> Option<Id> {
        match self {
            Group::Raw(s) => s.first().copied(),
            Group::Packed(r) => r.first(),
        }
    }

    /// Sorted membership probe: binary search on raw groups, start
    /// compare plus early-exit delta prefix sum on packed ones.
    #[inline]
    pub fn contains(&self, v: Id) -> bool {
        match self {
            Group::Raw(s) => s.binary_search(&v).is_ok(),
            Group::Packed(r) => r.contains(v),
        }
    }

    /// Iterates the group's values in increasing order.
    pub fn iter(&self) -> GroupIter<'a> {
        match self {
            Group::Raw(s) => GroupIter::Raw(s.iter()),
            Group::Packed(r) => GroupIter::Packed(r.iter()),
        }
    }

    /// Appends the group's values, in order, to `out`.
    pub fn decode_into(&self, out: &mut Vec<Id>) {
        match self {
            Group::Raw(s) => out.extend_from_slice(s),
            Group::Packed(r) => r.decode_into(out),
        }
    }

    /// The group's values as an owned vector.
    pub fn to_vec(&self) -> Vec<Id> {
        let mut out = Vec::with_capacity(self.len());
        self.decode_into(&mut out);
        out
    }

    /// The borrowed slice when the group is raw (the common case for
    /// hot paths that want zero-copy access).
    #[inline]
    pub fn as_raw(&self) -> Option<&'a [Id]> {
        match self {
            Group::Raw(s) => Some(s),
            Group::Packed(_) => None,
        }
    }
}

impl<'a> IntoIterator for Group<'a> {
    type Item = Id;
    type IntoIter = GroupIter<'a>;

    fn into_iter(self) -> GroupIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`Group`]'s values.
#[derive(Debug, Clone)]
pub enum GroupIter<'a> {
    /// Raw-slice cursor.
    Raw(std::slice::Iter<'a, Id>),
    /// Streaming bit cursor over a packed run.
    Packed(PackedRunIter<'a>),
}

impl Iterator for GroupIter<'_> {
    type Item = Id;

    #[inline]
    fn next(&mut self) -> Option<Id> {
        match self {
            GroupIter::Raw(it) => it.next().copied(),
            GroupIter::Packed(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            GroupIter::Raw(it) => it.size_hint(),
            GroupIter::Packed(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for GroupIter<'_> {}

/// A single replica (S-O or O-S) of a property partition.
///
/// Invariants (checked by [`Replica::check_invariants`], relied on by the
/// join layer):
///
/// 1. `keys` is strictly increasing (distinct, sorted).
/// 2. Group spans: when `keys.len() == values.len()`, group `i` is value
///    position `i` and no table is stored. Otherwise `offsets.len() ==
///    keys.len() + 1`, `offsets[0] == 0`, `offsets` is strictly
///    increasing (every key has ≥ 1 value), `offsets[keys.len()] ==
///    values.len()`, and group `i` is `values[offsets[i]..offsets[i+1]]`.
/// 3. Each group is strictly increasing (values are distinct within a
///    key: RDF graphs are sets).
///
/// Equality compares the *logical* content (keys, group spans, decoded
/// values, index) — a compressed replica equals its raw original, and
/// a shared keys array equals an unshared copy.
#[derive(Debug, Clone, Default)]
pub struct Replica {
    keys: Arc<[Id]>,
    spans: Spans,
    values: ValuesRepr,
    idpos: Option<Arc<IdPosIndex>>,
}

impl PartialEq for Replica {
    fn eq(&self, other: &Self) -> bool {
        self.keys == other.keys
            && self.spans == other.spans
            && self.idpos == other.idpos
            && match (&self.values, &other.values) {
                (ValuesRepr::Raw(a), ValuesRepr::Raw(b)) => a == b,
                (ValuesRepr::Packed(a), ValuesRepr::Packed(b)) => a == b,
                _ => *self.decoded_values() == *other.decoded_values(),
            }
    }
}

impl Eq for Replica {}

impl Replica {
    /// The distinct, sorted first-column values.
    #[inline]
    pub fn keys(&self) -> &[Id] {
        &self.keys
    }

    /// Number of distinct keys.
    #[inline]
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// Number of `(key, value)` pairs, i.e. triples in this replica.
    #[inline]
    pub fn num_triples(&self) -> usize {
        match &self.values {
            ValuesRepr::Raw(v) => v.len(),
            ValuesRepr::Packed(p) => p.num_values(),
        }
    }

    /// True if the replica holds no triples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_triples() == 0
    }

    /// True when the values area is block-compressed.
    #[inline]
    pub fn is_compressed(&self) -> bool {
        matches!(self.values, ValuesRepr::Packed(_))
    }

    /// The sorted values group for the key at position `pos`, across
    /// either representation.
    ///
    /// # Panics
    /// Panics if `pos >= num_keys()`.
    // Always inlined: every join probe opens its group here, and the
    // span-shape match made the body large enough that `#[inline]`
    // left it an out-of-line call in the executor's descent.
    #[inline(always)]
    pub fn group_at(&self, pos: usize) -> Group<'_> {
        match &self.values {
            ValuesRepr::Raw(v) => Group::Raw(&v[self.spans.range(pos)]),
            ValuesRepr::Packed(p) => Group::Packed(p.run(pos, &self.spans)),
        }
    }

    /// The sorted values group for the key at position `pos`, as a raw
    /// slice. Valid only on uncompressed replicas — compressed-aware
    /// callers use [`Replica::group_at`].
    ///
    /// # Panics
    /// Panics if `pos >= num_keys()` or if the replica is compressed.
    #[inline]
    pub fn values_at(&self, pos: usize) -> &[Id] {
        &self.raw_values()[self.spans.range(pos)]
    }

    /// The key at position `pos`.
    #[inline]
    pub fn key_at(&self, pos: usize) -> Id {
        self.keys[pos]
    }

    /// Group size for the key at `pos` without touching the values array.
    ///
    /// # Panics
    /// Panics if `pos >= num_keys()`.
    #[inline]
    pub fn group_len(&self, pos: usize) -> usize {
        assert!(pos < self.keys.len(), "key position {pos} out of range");
        self.spans.range(pos).len()
    }

    /// True when every key has exactly one value, so the replica stores
    /// no offsets table (also true of the empty replica).
    #[inline]
    pub fn one_value_per_key(&self) -> bool {
        matches!(self.spans, Spans::Singletons)
    }

    /// The CSR offsets table (`num_keys() + 1` entries). Borrowed when
    /// the replica stores one; built as the identity table when every
    /// key has one value.
    pub fn offsets(&self) -> Cow<'_, [u32]> {
        match &self.spans {
            Spans::Singletons => Cow::Owned((0..=self.keys.len() as u32).collect()),
            Spans::Csr(offsets) => Cow::Borrowed(offsets),
        }
    }

    /// The contiguous values area of an uncompressed replica.
    /// Compressed-aware callers use [`Replica::decoded_values`] or
    /// per-group access.
    ///
    /// # Panics
    /// Panics if the replica is compressed.
    #[inline]
    pub fn values(&self) -> &[Id] {
        self.raw_values()
    }

    fn raw_values(&self) -> &[Id] {
        match &self.values {
            ValuesRepr::Raw(v) => v,
            ValuesRepr::Packed(_) => {
                panic!("replica is block-compressed; use group_at()/decoded_values()")
            }
        }
    }

    /// The full values area, decoding when compressed (borrowed when
    /// raw).
    pub fn decoded_values(&self) -> Cow<'_, [Id]> {
        match &self.values {
            ValuesRepr::Raw(v) => Cow::Borrowed(v),
            ValuesRepr::Packed(p) => {
                let mut out = Vec::with_capacity(p.num_values());
                p.decode_all(&self.spans, &mut out);
                Cow::Owned(out)
            }
        }
    }

    /// Plain binary search for `key` over the whole keys array.
    #[inline]
    pub fn find_key(&self, key: Id) -> Option<usize> {
        self.keys.binary_search(&key).ok()
    }

    /// Position of `key`, using the ID-to-Position index when present.
    #[inline]
    pub fn position_of(&self, key: Id) -> Option<usize> {
        match &self.idpos {
            Some(idx) => idx.lookup(key),
            None => self.find_key(key),
        }
    }

    /// The values group for `key`, empty if absent (uses the
    /// ID-to-Position index when present). Valid only on uncompressed
    /// replicas — compressed-aware callers use
    /// [`Replica::group_for_key`].
    pub fn values_for_key(&self, key: Id) -> &[Id] {
        match self.position_of(key) {
            Some(p) => self.values_at(p),
            None => &[],
        }
    }

    /// The values group for `key` across either representation, empty
    /// if absent.
    #[inline]
    pub fn group_for_key(&self, key: Id) -> Group<'_> {
        match self.position_of(key) {
            Some(p) => self.group_at(p),
            None => Group::Raw(&[]),
        }
    }

    /// The ID-to-Position index, if built.
    #[inline]
    pub fn idpos(&self) -> Option<&IdPosIndex> {
        self.idpos.as_deref()
    }

    /// Builds (or rebuilds) the ID-to-Position index over the span of
    /// this replica's keys with the given block interval, whether or not
    /// it [pays](IdPosIndex::pays). The new index is this replica's
    /// own, shared with no other.
    pub fn build_idpos(&mut self, interval: usize) {
        self.idpos = Some(Arc::new(IdPosIndex::build(&self.keys, interval)));
    }

    /// The shared keys allocation and index.
    pub(crate) fn shared(&self) -> (&Arc<[Id]>, Option<&Arc<IdPosIndex>>) {
        (&self.keys, self.idpos.as_ref())
    }

    /// Takes `keys` and `idpos` as this replica's keys array and index,
    /// sharing both allocations.
    ///
    /// # Panics
    /// Panics if `keys` differs from the replica's keys: sharing never
    /// changes content.
    pub(crate) fn share(&mut self, keys: &Arc<[Id]>, idpos: Option<&Arc<IdPosIndex>>) {
        assert!(
            Arc::ptr_eq(keys, &self.keys) || keys[..] == self.keys[..],
            "a shared keys array must equal the replica's own"
        );
        self.keys = Arc::clone(keys);
        self.idpos = idpos.cloned();
    }

    /// Drops the ID-to-Position index (the paper notes the index is
    /// auxiliary: "our system can operate without all or some of these
    /// indexes").
    pub fn drop_idpos(&mut self) {
        self.idpos = None;
    }

    /// Block-compresses the values area when the replica holds at least
    /// `min_values` triples **and** the packed encoding is actually
    /// smaller than the raw one. Returns whether the replica is
    /// compressed afterwards. Idempotent.
    pub fn compress(&mut self, min_values: usize) -> bool {
        let ValuesRepr::Raw(v) = &self.values else {
            return true;
        };
        if v.len() < min_values.max(1) {
            return false;
        }
        let packed = PackedValues::pack(&self.spans, v);
        if packed.memory_bytes() >= v.len() * std::mem::size_of::<Id>() {
            return false;
        }
        self.values = ValuesRepr::Packed(packed);
        true
    }

    /// Restores the raw representation (no-op when already raw).
    pub fn decompress(&mut self) {
        if let ValuesRepr::Packed(_) = &self.values {
            let owned = self.decoded_values().into_owned();
            self.values = ValuesRepr::Raw(owned);
        }
    }

    /// Iterates `(key, values_group)` pairs in key order. Valid only on
    /// uncompressed replicas (used by the baseline engines, which run
    /// on raw stores); compressed-aware callers pair
    /// [`Replica::keys`] with [`Replica::group_at`].
    pub fn iter_groups(&self) -> impl Iterator<Item = (Id, &[Id])> + '_ {
        (0..self.num_keys()).map(move |i| (self.keys[i], self.values_at(i)))
    }

    /// Iterates all `(key, value)` pairs in `(key, value)` order,
    /// across either representation.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (Id, Id)> + '_ {
        (0..self.num_keys()).flat_map(move |i| {
            let k = self.keys[i];
            self.group_at(i).iter().map(move |v| (k, v))
        })
    }

    /// Bytes allocated for the arrays, including the ID-to-Position
    /// index when built; the values contribution reflects the physical
    /// representation, so compressing shrinks this number. A shared
    /// keys array or index counts in full here: store-wide totals count
    /// each once.
    pub fn memory_bytes(&self) -> usize {
        self.memory_parts().total()
    }

    /// [`Replica::memory_bytes`] split by array.
    pub fn memory_parts(&self) -> ReplicaBytes {
        ReplicaBytes {
            keys: self.keys.len() * std::mem::size_of::<Id>(),
            offsets: match &self.spans {
                Spans::Singletons => 0,
                Spans::Csr(offsets) => offsets.capacity() * std::mem::size_of::<u32>(),
            },
            values: self.value_bytes(),
            idpos: self.idpos.as_deref().map_or(0, IdPosIndex::memory_bytes),
        }
    }

    /// Bytes allocated for the values area alone (the part compression
    /// targets), in its physical representation.
    pub fn value_bytes(&self) -> usize {
        match &self.values {
            ValuesRepr::Raw(v) => v.capacity() * std::mem::size_of::<Id>(),
            ValuesRepr::Packed(p) => p.memory_bytes(),
        }
    }

    /// Verifies all structural invariants; returns a description of the
    /// first violation. Used by tests, the snapshot loader and the
    /// audit. On a compressed replica every group's cursor decode must
    /// equal its slice of [`Replica::decoded_values`] and answer a probe
    /// for each of its values, so the codec's three decoders agree.
    pub fn check_invariants(&self) -> Result<(), String> {
        match &self.spans {
            Spans::Singletons if self.keys.len() != self.num_triples() => {
                return Err(format!(
                    "no offsets table, yet {} keys over {} values",
                    self.keys.len(),
                    self.num_triples()
                ));
            }
            Spans::Singletons => {}
            Spans::Csr(_) if self.keys.len() == self.num_triples() => {
                return Err("offsets table stored over one value per key".into());
            }
            Spans::Csr(offsets) => check_offsets(offsets, self.keys.len(), self.num_triples())?,
        }
        for w in self.keys.windows(2) {
            if w[0] >= w[1] {
                return Err(format!(
                    "keys not strictly increasing at {}..{}",
                    w[0], w[1]
                ));
            }
        }
        let decoded = self.is_compressed().then(|| self.decoded_values());
        for i in 0..self.num_keys() {
            let g = self.group_at(i);
            let start = self.spans.range(i).start;
            let mut n = 0usize;
            let mut prev: Option<Id> = None;
            for v in g.iter() {
                if let Some(p) = prev {
                    if p >= v {
                        return Err(format!("group {i} not strictly increasing"));
                    }
                }
                // On a raw group strict increase already implies that a
                // probe finds every value; a packed group's probe walks
                // its own block index, so it is checked.
                if let Some(d) = &decoded {
                    if d.get(start + n) != Some(&v) {
                        return Err(format!("group {i} value {n}: cursor and decode_all differ"));
                    }
                    if !g.contains(v) {
                        return Err(format!("group {i} probe misses its own value {v}"));
                    }
                }
                prev = Some(v);
                n += 1;
            }
            if n != self.group_len(i) {
                return Err(format!(
                    "group {i} decodes {n} values, its span promises {}",
                    self.group_len(i)
                ));
            }
        }
        if let Some(idx) = &self.idpos {
            for (pos, &k) in self.keys.iter().enumerate() {
                if idx.lookup(k) != Some(pos) {
                    return Err(format!("idpos lookup({k}) != {pos}"));
                }
            }
        }
        Ok(())
    }

    /// Raw parts for snapshot encoding: keys, the offsets table, and the
    /// decoded values area (snapshots always store the raw CSR form, so
    /// their bytes are independent of the in-memory one).
    pub(crate) fn raw_parts(&self) -> (&[Id], Cow<'_, [u32]>, Cow<'_, [Id]>) {
        (self.keys(), self.offsets(), self.decoded_values())
    }

    /// Rebuilds from raw parts, validating invariants. An offsets table
    /// over one value per key is dropped once it is known to be the
    /// identity.
    pub(crate) fn from_raw_parts(
        keys: Vec<Id>,
        offsets: Vec<u32>,
        values: Vec<Id>,
    ) -> Result<Self, String> {
        let spans = if keys.len() == values.len() {
            check_offsets(&offsets, keys.len(), values.len())?;
            Spans::Singletons
        } else {
            Spans::Csr(offsets)
        };
        let r = Replica {
            keys: keys.into(),
            spans,
            values: ValuesRepr::Raw(values),
            idpos: None,
        };
        r.check_invariants()?;
        Ok(r)
    }

    /// Corrupts the values area in place, for tests of the invariant
    /// checks: a raw replica's first group of two or more values is
    /// reversed, a packed replica's first delta is changed (so every
    /// later value of its run decodes off).
    #[cfg(test)]
    pub(crate) fn corrupt_values(&mut self) {
        match &mut self.values {
            ValuesRepr::Raw(v) => {
                let run = (0..self.keys.len())
                    .map(|pos| self.spans.range(pos))
                    .find(|run| run.len() > 1)
                    .expect("a group of two or more values");
                v[run].reverse();
            }
            ValuesRepr::Packed(p) => p.corrupt_first_delta(),
        }
    }

    /// Bytes the arrays would take if allocated exactly: the figure
    /// [`Replica::memory_bytes`] must equal when nothing is
    /// over-allocated.
    #[cfg(test)]
    pub(crate) fn exact_bytes(&self) -> usize {
        let offsets = match &self.spans {
            Spans::Singletons => 0,
            Spans::Csr(offsets) => offsets.len(),
        };
        let values = match &self.values {
            ValuesRepr::Raw(v) => v.len() * 4,
            ValuesRepr::Packed(p) => p.exact_bytes(),
        };
        let idpos = self.idpos.as_deref().map_or(0, IdPosIndex::exact_bytes);
        (self.keys.len() + offsets) * 4 + values + idpos
    }
}

/// Checks that `offsets` is a CSR table of `num_keys` nonempty groups
/// over `num_values` values.
fn check_offsets(offsets: &[u32], num_keys: usize, num_values: usize) -> Result<(), String> {
    if offsets.len() != num_keys + 1 {
        return Err(format!(
            "offsets len {} != keys len {num_keys} + 1",
            offsets.len()
        ));
    }
    if offsets[0] != 0 {
        return Err("offsets[0] != 0".into());
    }
    if offsets[num_keys] as usize != num_values {
        return Err("offsets tail != values len".into());
    }
    if offsets.windows(2).any(|w| w[0] >= w[1]) {
        return Err("empty value group (offsets not strictly increasing)".into());
    }
    Ok(())
}

/// Allocated bytes of a replica's arrays, by array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaBytes {
    /// The sorted keys.
    pub keys: usize,
    /// The CSR offsets table; zero when every key has one value.
    pub offsets: usize,
    /// The values area, raw or block-compressed.
    pub values: usize,
    /// The ID-to-Position index, when built.
    pub idpos: usize,
}

impl ReplicaBytes {
    /// Sum of the parts.
    pub fn total(&self) -> usize {
        self.keys + self.offsets + self.values + self.idpos
    }
}

/// Builds a [`Replica`] from `(first, second)` column pairs.
///
/// The input need not be sorted or deduplicated; `finish` sorts,
/// deduplicates (RDF set semantics) and emits the CSR arrays.
#[derive(Debug, Default)]
pub struct ReplicaBuilder {
    pairs: Vec<(Id, Id)>,
}

impl ReplicaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity for `n` pairs.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            pairs: Vec::with_capacity(n),
        }
    }

    /// Adds one `(key, value)` pair.
    #[inline]
    pub fn push(&mut self, key: Id, value: Id) {
        self.pairs.push((key, value));
    }

    /// Number of buffered pairs (before dedup).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no pairs buffered.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Sorts, deduplicates and emits the replica.
    pub fn finish(mut self) -> Replica {
        self.pairs.sort_unstable();
        self.pairs.dedup();
        Self::from_sorted_unique(self.pairs)
    }

    /// Builds directly from pairs already sorted and deduplicated
    /// (debug-asserted). Every array is allocated at its exact size.
    pub fn from_sorted_unique(pairs: Vec<(Id, Id)>) -> Replica {
        debug_assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "pairs not sorted+unique"
        );
        assert!(
            pairs.len() <= u32::MAX as usize,
            "replica exceeds u32 offset range ({} pairs)",
            pairs.len()
        );
        let num_keys = pairs.len().min(1) + pairs.windows(2).filter(|w| w[0].0 != w[1].0).count();
        // Keys are collected from exact-size iterators, so each lands in
        // its shared allocation without an intermediate vector.
        let (keys, spans): (Arc<[Id]>, Spans) = if num_keys == pairs.len() {
            (pairs.iter().map(|&(k, _)| k).collect(), Spans::Singletons)
        } else {
            // A group starts wherever the key changes.
            let starts = pairs
                .windows(2)
                .enumerate()
                .filter(|(_, w)| w[0].0 != w[1].0)
                .map(|(i, _)| i as u32 + 1);
            let mut offsets: Vec<u32> = Vec::with_capacity(num_keys + 1);
            offsets.push(0);
            offsets.extend(starts);
            offsets.push(pairs.len() as u32);
            let keys = offsets[..num_keys]
                .iter()
                .map(|&o| pairs[o as usize].0)
                .collect();
            (keys, Spans::Csr(offsets))
        };
        let values: Vec<Id> = pairs.iter().map(|&(_, v)| v).collect();
        let r = Replica {
            keys,
            spans,
            values: ValuesRepr::Raw(values),
            idpos: None,
        };
        debug_assert_eq!(r.check_invariants(), Ok(()));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact example of Figure 1: property table containing triples
    /// 5-8, 7-8, 7-34, 13-40, 18-3, 24-9, 24-16, 24-41, 29-40, 33-22,
    /// 45-4 (keys 5,7,13,18,24,29,33,45).
    fn figure1() -> Replica {
        let mut b = ReplicaBuilder::new();
        for (k, v) in [
            (5, 8),
            (7, 8),
            (7, 34),
            (13, 40),
            (18, 3),
            (24, 9),
            (24, 16),
            (24, 41),
            (29, 40),
            (33, 22),
            (45, 4),
        ] {
            b.push(k, v);
        }
        b.finish()
    }

    #[test]
    fn figure1_example() {
        let r = figure1();
        assert_eq!(r.keys(), &[5, 7, 13, 18, 24, 29, 33, 45]);
        assert_eq!(r.num_triples(), 11);
        assert_eq!(r.values_for_key(5), &[8]);
        assert_eq!(r.values_for_key(7), &[8, 34]);
        assert_eq!(r.values_for_key(24), &[9, 16, 41]);
        assert_eq!(r.values_for_key(45), &[4]);
        assert_eq!(r.values_for_key(6), &[] as &[Id]);
        assert_eq!(r.check_invariants(), Ok(()));
    }

    #[test]
    fn unsorted_duplicated_input() {
        let mut b = ReplicaBuilder::new();
        for (k, v) in [(9, 1), (3, 2), (9, 1), (3, 1), (9, 0), (3, 2)] {
            b.push(k, v);
        }
        let r = b.finish();
        assert_eq!(r.keys(), &[3, 9]);
        assert_eq!(r.values_for_key(3), &[1, 2]);
        assert_eq!(r.values_for_key(9), &[0, 1]);
        assert_eq!(r.num_triples(), 4);
    }

    #[test]
    fn empty_replica() {
        let r = ReplicaBuilder::new().finish();
        assert_eq!(r.num_keys(), 0);
        assert_eq!(r.num_triples(), 0);
        assert!(r.is_empty());
        assert_eq!(r.values_for_key(0), &[] as &[Id]);
        assert_eq!(r.check_invariants(), Ok(()));
        assert_eq!(r.iter_pairs().count(), 0);
    }

    #[test]
    fn iter_pairs_roundtrip() {
        let r = figure1();
        let pairs: Vec<(Id, Id)> = r.iter_pairs().collect();
        assert_eq!(pairs.len(), 11);
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(pairs[0], (5, 8));
        assert_eq!(pairs[10], (45, 4));
    }

    #[test]
    fn idpos_integration() {
        let mut r = figure1();
        r.build_idpos(64);
        assert_eq!(r.check_invariants(), Ok(()));
        assert_eq!(r.values_for_key(24), &[9, 16, 41]);
        assert_eq!(r.values_for_key(25), &[] as &[Id]);
        r.drop_idpos();
        assert!(r.idpos().is_none());
    }

    #[test]
    fn group_len_matches_values() {
        let r = figure1();
        for i in 0..r.num_keys() {
            assert_eq!(r.group_len(i), r.values_at(i).len());
            assert_eq!(r.group_len(i), r.group_at(i).len());
        }
    }

    #[test]
    fn raw_parts_roundtrip() {
        let r = figure1();
        let (k, o, v) = r.raw_parts();
        let back = Replica::from_raw_parts(k.to_vec(), o.to_vec(), v.to_vec()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn from_raw_rejects_corruption() {
        let r = figure1();
        let (k, o, v) = r.raw_parts();
        // Break key ordering.
        let mut bad_keys = k.to_vec();
        bad_keys.swap(0, 1);
        assert!(Replica::from_raw_parts(bad_keys, o.to_vec(), v.to_vec()).is_err());
        // Break offsets tail.
        let mut bad_off = o.to_vec();
        *bad_off.last_mut().unwrap() += 1;
        assert!(Replica::from_raw_parts(k.to_vec(), bad_off, v.to_vec()).is_err());
        // Break group sorting.
        let mut bad_vals = v.to_vec();
        bad_vals.swap(5, 6); // inside the 24-group
        assert!(Replica::from_raw_parts(k.to_vec(), o.to_vec(), bad_vals).is_err());
    }

    /// A snapshot's identity table is checked before it is dropped.
    #[test]
    fn from_raw_checks_the_table_it_drops() {
        let r = ReplicaBuilder::from_sorted_unique(vec![(1, 5), (2, 3), (4, 4)]);
        assert!(r.one_value_per_key());
        assert_eq!(r.memory_parts().offsets, 0);
        let (k, o, v) = r.raw_parts();
        assert_eq!(*o, [0, 1, 2, 3]);
        assert_eq!(
            Replica::from_raw_parts(k.to_vec(), o.to_vec(), v.to_vec()),
            Ok(r.clone())
        );
        for bad in [
            vec![0, 1, 2],
            vec![0, 2, 1, 3],
            vec![1, 1, 2, 3],
            vec![0, 1, 2, 4],
        ] {
            assert!(Replica::from_raw_parts(k.to_vec(), bad, v.to_vec()).is_err());
        }
    }

    /// A replica big enough to clear any sensible compression threshold,
    /// with runs long enough to span multiple blocks.
    fn large() -> Replica {
        let mut b = ReplicaBuilder::new();
        for k in 0..40u32 {
            // Run length varies: key k has 1 + (k*37 % 400) values.
            for j in 0..1 + (k * 37) % 400 {
                b.push(k, j * (1 + k % 3) + 7);
            }
        }
        b.finish()
    }

    #[test]
    fn compression_preserves_logical_content() {
        let raw = large();
        let mut zip = raw.clone();
        assert!(zip.compress(1), "large replica must compress");
        assert!(zip.is_compressed());
        assert_eq!(zip.check_invariants(), Ok(()));
        assert_eq!(zip.num_triples(), raw.num_triples());
        // Logical equality across representations.
        assert_eq!(zip, raw);
        assert_eq!(
            zip.iter_pairs().collect::<Vec<_>>(),
            raw.iter_pairs().collect::<Vec<_>>()
        );
        for pos in 0..raw.num_keys() {
            assert_eq!(zip.group_at(pos).to_vec(), raw.values_at(pos));
            for v in raw.values_at(pos) {
                assert!(zip.group_at(pos).contains(*v));
            }
            assert!(!zip.group_at(pos).contains(1_000_000));
        }
        // Compression must actually shrink the values area.
        assert!(
            zip.value_bytes() < raw.value_bytes(),
            "{} vs {}",
            zip.value_bytes(),
            raw.value_bytes()
        );
        // Snapshot parts stay byte-identical to the raw replica's.
        assert_eq!(zip.raw_parts().2, raw.raw_parts().2);
        // And decompression restores the original representation.
        zip.decompress();
        assert!(!zip.is_compressed());
        assert_eq!(zip.values(), raw.values());
    }

    #[test]
    fn compression_threshold_and_idempotence() {
        let mut r = figure1();
        assert!(!r.compress(1000), "small replica stays raw");
        assert!(!r.is_compressed());
        let mut big = large();
        assert!(big.compress(1));
        assert!(big.compress(1), "compress is idempotent");
        assert!(
            big.compress(usize::MAX),
            "already-compressed stays compressed"
        );
    }

    #[test]
    fn group_for_key_across_representations() {
        let raw = large();
        let mut zip = raw.clone();
        zip.compress(1);
        for &k in raw.keys() {
            assert_eq!(zip.group_for_key(k).to_vec(), raw.values_for_key(k));
        }
        assert!(zip.group_for_key(10_000).is_empty());
        // With an idpos index on top.
        zip.build_idpos(64);
        assert_eq!(zip.check_invariants(), Ok(()));
        assert_eq!(zip.group_for_key(11).to_vec(), raw.values_for_key(11));
    }

    /// `keys` singleton groups, or (when `mixed`) the LUBM-60 shape the
    /// codec was sized on: 85 % singletons, short runs of 2–8 values,
    /// and a few runs of a thousand dense ids.
    fn shaped(keys: u32, mixed: bool) -> Replica {
        let mut pairs = Vec::new();
        for k in 0..keys {
            let start = k * 5 + k.wrapping_mul(2654435761) % 997;
            let len = match (mixed, k % 20, k % 5000) {
                (false, _, _) | (true, 0..=16, 1..) => 1,
                (true, _, 0) => 1000,
                _ => 2 + k % 7,
            };
            pairs.extend((0..len).map(|j| (k, start + j * (1 + k % 3))));
        }
        ReplicaBuilder::from_sorted_unique(pairs)
    }

    /// The mechanism behind the probe speed-up is that a run costs no
    /// stored header — only its values' bits plus a side-table entry per
    /// 128 of them. A per-run header of even one byte breaks both
    /// ceilings, whatever it does to any timing.
    #[test]
    #[cfg_attr(miri, ignore)] // 100 k keys are too slow interpreted
    fn packed_bytes_per_value_stay_under_fixed_ceilings() {
        for (mixed, ceiling) in [(false, 1.55), (true, 1.05)] {
            let mut r = shaped(100_000, mixed);
            assert!(r.compress(1));
            let per_value = r.value_bytes() as f64 / r.num_triples() as f64;
            assert!(
                per_value <= ceiling,
                "mixed={mixed}: {per_value:.3} bytes/value"
            );
        }
    }

    proptest::proptest! {
        /// `compress` then `decompress` is the identity on arbitrary
        /// replicas, and the packed form in between is logically equal.
        #[test]
        fn compress_decompress_roundtrips(
            pairs in proptest::collection::vec((0u32..300, proptest::arbitrary::any::<u32>()), 0..600),
            dense in proptest::collection::vec((300u32..310, 0u32..400), 0..600),
        ) {
            let mut b = ReplicaBuilder::new();
            for (k, v) in pairs.into_iter().chain(dense) {
                b.push(k, v);
            }
            let raw = b.finish();
            let mut zip = raw.clone();
            zip.compress(1);
            proptest::prop_assert_eq!(zip.check_invariants(), Ok(()));
            proptest::prop_assert_eq!(&zip, &raw);
            for pos in 0..raw.num_keys() {
                proptest::prop_assert_eq!(zip.group_at(pos).to_vec(), raw.values_at(pos));
            }
            zip.decompress();
            proptest::prop_assert!(!zip.is_compressed());
            proptest::prop_assert_eq!(zip.values(), raw.values());
        }
    }

    #[test]
    #[should_panic(expected = "block-compressed")]
    fn raw_accessor_panics_on_compressed() {
        let mut r = large();
        r.compress(1);
        let _ = r.values_at(0);
    }
}
