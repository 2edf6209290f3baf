//! The two-namespace dictionary (resources + predicates).

use std::collections::HashMap;

use bytes::{Buf, BufMut};

use crate::arena::StringArena;
use crate::hash::{fx_hash_bytes, FxBuildHasher};
use crate::term::{Term, TermParseError, TermRef};
use crate::Id;

/// Value of a hash-index bucket: the common case is a single id per
/// 64-bit hash; genuine collisions chain into a vector.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Bucket {
    One(Id),
    Many(Vec<Id>),
}

/// One dense id namespace: an arena of canonical keys plus a hash index
/// over them.
///
/// Ids are assigned densely in insertion order: the `i`-th distinct term
/// gets id `i`. Lookups hash the canonical key and verify candidates
/// against the arena, so 64-bit hash collisions are handled correctly.
#[derive(Debug, Default, Clone)]
pub struct Namespace {
    arena: StringArena,
    index: HashMap<u64, Bucket, FxBuildHasher>,
}

impl Namespace {
    /// Creates an empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms.
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True if the namespace holds no terms.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Encodes `key` (a canonical term key), inserting it if new, and
    /// returns its id.
    pub fn encode_key(&mut self, key: &str) -> Id {
        let hash = fx_hash_bytes(key.as_bytes());
        if let Some(id) = self.find(hash, key) {
            return id;
        }
        self.insert_new(hash, key)
    }

    /// Appends `key` (known to be absent) to the arena and index. The
    /// caller must have verified absence — `hash` must be
    /// `fx_hash_bytes(key)` and `find(hash, key)` must be `None` —
    /// otherwise the same term would get two ids.
    pub(crate) fn insert_new(&mut self, hash: u64, key: &str) -> Id {
        let id = self.arena.push(key) as Id;
        match self.index.entry(hash) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Bucket::One(id));
            }
            std::collections::hash_map::Entry::Occupied(mut o) => match o.get_mut() {
                Bucket::One(existing) => {
                    let existing = *existing;
                    *o.get_mut() = Bucket::Many(vec![existing, id]);
                }
                Bucket::Many(v) => v.push(id),
            },
        }
        id
    }

    /// Looks up `key` without inserting.
    pub fn get_key(&self, key: &str) -> Option<Id> {
        self.find(fx_hash_bytes(key.as_bytes()), key)
    }

    /// [`Namespace::get_key`] with the hash supplied by the caller, for
    /// batch pipelines that hash once and probe many times. `hash` must
    /// equal `fx_hash_bytes(key.as_bytes())`.
    pub fn get_key_hashed(&self, hash: u64, key: &str) -> Option<Id> {
        debug_assert_eq!(hash, fx_hash_bytes(key.as_bytes()));
        self.find(hash, key)
    }

    /// Returns the canonical key for `id`.
    pub fn key(&self, id: Id) -> Option<&str> {
        self.arena.get(id as usize)
    }

    fn find(&self, hash: u64, key: &str) -> Option<Id> {
        match self.index.get(&hash)? {
            Bucket::One(id) => (self.arena.get(*id as usize) == Some(key)).then_some(*id),
            Bucket::Many(ids) => ids
                .iter()
                .copied()
                .find(|&id| self.arena.get(id as usize) == Some(key)),
        }
    }

    /// Approximate heap usage in bytes (payload + offsets; the hash index
    /// is estimated at 16 bytes/entry).
    pub fn memory_bytes(&self) -> usize {
        self.arena.payload_bytes() + (self.arena.len() + 1) * 8 + self.index.len() * 16
    }

    fn rebuild_index(arena: StringArena) -> Self {
        let mut ns = Namespace {
            arena,
            index: HashMap::default(),
        };
        for id in 0..ns.arena.len() as Id {
            let key = ns.arena.get(id as usize).expect("id in range");
            let hash = fx_hash_bytes(key.as_bytes());
            match ns.index.entry(hash) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(Bucket::One(id));
                }
                std::collections::hash_map::Entry::Occupied(mut o) => match o.get_mut() {
                    Bucket::One(existing) => {
                        let existing = *existing;
                        *o.get_mut() = Bucket::Many(vec![existing, id]);
                    }
                    Bucket::Many(v) => v.push(id),
                },
            }
        }
        ns
    }
}

/// The PARJ dictionary: resource and predicate namespaces (§3 of the
/// paper uses "a different numbering for values appearing in the
/// property position").
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    resources: Namespace,
    predicates: Namespace,
    /// Canonical-key scratch reused by the encode calls, so encoding a
    /// term that is already interned allocates nothing.
    key_buf: String,
}

/// Errors from decoding a serialized dictionary.
#[derive(Debug)]
pub enum DictDecodeError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// Stored payload was not valid UTF-8 or had a corrupt offset table.
    Corrupt(&'static str),
}

impl std::fmt::Display for DictDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DictDecodeError::Truncated => write!(f, "dictionary payload truncated"),
            DictDecodeError::Corrupt(what) => write!(f, "dictionary payload corrupt: {what}"),
        }
    }
}

impl std::error::Error for DictDecodeError {}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes a term in the resource (subject/object) namespace.
    pub fn encode_resource(&mut self, term: &Term) -> Id {
        self.key_buf.clear();
        term.write_canonical_key(&mut self.key_buf);
        self.resources.encode_key(&self.key_buf)
    }

    /// Encodes a term in the predicate namespace.
    pub fn encode_predicate(&mut self, term: &Term) -> Id {
        self.key_buf.clear();
        term.write_canonical_key(&mut self.key_buf);
        self.predicates.encode_key(&self.key_buf)
    }

    /// Looks up a resource term without inserting. `None` means the term
    /// never occurs in the data — any query constant mapping here has an
    /// empty result.
    pub fn resource_id(&self, term: &Term) -> Option<Id> {
        self.resources.get_key(&term.canonical_key())
    }

    /// Looks up a predicate term without inserting.
    pub fn predicate_id(&self, term: &Term) -> Option<Id> {
        self.predicates.get_key(&term.canonical_key())
    }

    /// Decodes a resource id back to a term.
    pub fn decode_resource(&self, id: Id) -> Result<Term, TermParseError> {
        self.decode_resource_ref(id).map(TermRef::to_term)
    }

    /// Decodes a resource id to a term borrowed from the dictionary's
    /// arena (no allocation).
    pub fn decode_resource_ref(&self, id: Id) -> Result<TermRef<'_>, TermParseError> {
        let key = self.resources.key(id).ok_or_else(|| TermParseError {
            message: format!("resource id {id} out of range"),
        })?;
        TermRef::from_key(key)
    }

    /// Decodes a predicate id back to a term.
    pub fn decode_predicate(&self, id: Id) -> Result<Term, TermParseError> {
        let key = self.predicates.key(id).ok_or_else(|| TermParseError {
            message: format!("predicate id {id} out of range"),
        })?;
        Term::from_canonical_key(key)
    }

    /// Number of distinct resource terms (the `N` of §4.2: the
    /// ID-to-Position index sizes itself on this).
    #[inline]
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// Number of distinct predicates.
    #[inline]
    pub fn num_predicates(&self) -> usize {
        self.predicates.len()
    }

    /// Approximate heap usage in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.resources.memory_bytes() + self.predicates.memory_bytes()
    }

    /// Approximate heap bytes of the resource arena + index alone
    /// (memory-accounting breakdown; see [`Dictionary::memory_bytes`]).
    pub fn resources_memory_bytes(&self) -> usize {
        self.resources.memory_bytes()
    }

    /// Approximate heap bytes of the predicate arena + index alone.
    pub fn predicates_memory_bytes(&self) -> usize {
        self.predicates.memory_bytes()
    }

    /// Serializes the dictionary into `out` (length-prefixed arenas; the
    /// hash indexes are rebuilt on decode).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for ns in [&self.resources, &self.predicates] {
            let (data, offsets) = ns.arena.raw_parts();
            out.put_u64_le(data.len() as u64);
            out.put_slice(data.as_bytes());
            out.put_u64_le(offsets.len() as u64);
            for &o in offsets {
                out.put_u64_le(o);
            }
        }
    }

    /// Decodes a dictionary previously written by
    /// [`Dictionary::encode_into`], advancing `buf` past it.
    pub fn decode_from(buf: &mut &[u8]) -> Result<Self, DictDecodeError> {
        let mut namespaces = Vec::with_capacity(2);
        for _ in 0..2 {
            if buf.remaining() < 8 {
                return Err(DictDecodeError::Truncated);
            }
            let data_len = buf.get_u64_le() as usize;
            if buf.remaining() < data_len {
                return Err(DictDecodeError::Truncated);
            }
            let data = String::from_utf8(buf[..data_len].to_vec())
                .map_err(|_| DictDecodeError::Corrupt("non-UTF-8 arena payload"))?;
            buf.advance(data_len);
            if buf.remaining() < 8 {
                return Err(DictDecodeError::Truncated);
            }
            let n_offsets = buf.get_u64_le() as usize;
            if buf.remaining() < n_offsets.saturating_mul(8) {
                return Err(DictDecodeError::Truncated);
            }
            let mut offsets = Vec::with_capacity(n_offsets);
            for _ in 0..n_offsets {
                offsets.push(buf.get_u64_le());
            }
            let arena = StringArena::from_raw_parts(data, offsets)
                .ok_or(DictDecodeError::Corrupt("invalid offset table"))?;
            namespaces.push(Namespace::rebuild_index(arena));
        }
        let predicates = namespaces.pop().expect("two namespaces");
        let resources = namespaces.pop().expect("two namespaces");
        Ok(Dictionary {
            resources,
            predicates,
            key_buf: String::new(),
        })
    }

    pub(crate) fn resources_ns(&self) -> &Namespace {
        &self.resources
    }

    pub(crate) fn resources_ns_mut(&mut self) -> &mut Namespace {
        &mut self.resources
    }

    pub(crate) fn predicates_ns(&self) -> &Namespace {
        &self.predicates
    }

    pub(crate) fn predicates_ns_mut(&mut self) -> &mut Namespace {
        &mut self.predicates
    }

    /// Iterates `(id, term)` over all resources in id order.
    pub fn resources(&self) -> impl Iterator<Item = (Id, Term)> + '_ {
        (0..self.num_resources() as Id)
            .map(move |id| (id, self.decode_resource(id).expect("valid stored key")))
    }

    /// Iterates `(id, term)` over all predicates in id order.
    pub fn predicates(&self) -> impl Iterator<Item = (Id, Term)> + '_ {
        (0..self.num_predicates() as Id)
            .map(move |id| (id, self.decode_predicate(id).expect("valid stored key")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_in_insertion_order() {
        let mut d = Dictionary::new();
        for i in 0..100u32 {
            let id = d.encode_resource(&Term::iri(format!("http://e/{i}")));
            assert_eq!(id, i);
        }
        assert_eq!(d.num_resources(), 100);
    }

    #[test]
    fn namespaces_are_independent() {
        let mut d = Dictionary::new();
        let r = d.encode_resource(&Term::iri("http://e/same"));
        let p = d.encode_predicate(&Term::iri("http://e/same"));
        assert_eq!(r, 0);
        assert_eq!(p, 0);
        assert_eq!(d.num_resources(), 1);
        assert_eq!(d.num_predicates(), 1);
    }

    #[test]
    fn paper_table1_example() {
        // Table 1 of the paper assigns integers to the teaching example.
        // We verify the same grouping behaviour: each distinct value one
        // id, idempotent re-encoding.
        let mut d = Dictionary::new();
        let names = [
            "ProfessorA",
            "Mathematics",
            "ProfessorB",
            "Chemistry",
            "ProfessorC",
            "Literature",
            "Physics",
            "University1",
            "University2",
        ];
        let ids: Vec<Id> = names.iter().map(|n| d.encode_resource(&Term::iri(*n))).collect();
        let teaches = d.encode_predicate(&Term::iri("teaches"));
        let works_for = d.encode_predicate(&Term::iri("worksFor"));
        assert_eq!(ids, (0..9).collect::<Vec<_>>());
        assert_eq!((teaches, works_for), (0, 1));
        // Re-encoding returns identical ids.
        for (n, &id) in names.iter().zip(&ids) {
            assert_eq!(d.encode_resource(&Term::iri(*n)), id);
        }
    }

    #[test]
    fn lookup_without_insert() {
        let mut d = Dictionary::new();
        let t = Term::iri("http://e/a");
        assert_eq!(d.resource_id(&t), None);
        let id = d.encode_resource(&t);
        assert_eq!(d.resource_id(&t), Some(id));
        assert_eq!(d.predicate_id(&t), None);
        assert_eq!(d.num_resources(), 1);
    }

    #[test]
    fn decode_out_of_range() {
        let d = Dictionary::new();
        assert!(d.decode_resource(0).is_err());
        assert!(d.decode_predicate(7).is_err());
    }

    #[test]
    fn literals_and_blanks_coexist() {
        let mut d = Dictionary::new();
        let a = d.encode_resource(&Term::literal("x"));
        let b = d.encode_resource(&Term::blank("x"));
        let c = d.encode_resource(&Term::iri("x"));
        assert_eq!(3, [a, b, c].iter().collect::<std::collections::HashSet<_>>().len());
        assert_eq!(d.decode_resource(a).unwrap(), Term::literal("x"));
        assert_eq!(d.decode_resource(b).unwrap(), Term::blank("x"));
        assert_eq!(d.decode_resource(c).unwrap(), Term::iri("x"));
    }

    #[test]
    fn serialization_roundtrip() {
        let mut d = Dictionary::new();
        for i in 0..500 {
            d.encode_resource(&Term::iri(format!("http://e/r{i}")));
        }
        d.encode_resource(&Term::lang_literal("héllo", "fr"));
        d.encode_predicate(&Term::iri("http://e/p"));
        let mut buf = Vec::new();
        d.encode_into(&mut buf);
        let mut slice = buf.as_slice();
        let back = Dictionary::decode_from(&mut slice).unwrap();
        assert!(slice.is_empty());
        assert_eq!(back.num_resources(), d.num_resources());
        assert_eq!(back.num_predicates(), d.num_predicates());
        // Index rebuilt correctly: lookups still work.
        assert_eq!(
            back.resource_id(&Term::iri("http://e/r250")),
            d.resource_id(&Term::iri("http://e/r250"))
        );
        assert_eq!(
            back.decode_resource(500).unwrap(),
            Term::lang_literal("héllo", "fr")
        );
    }

    #[test]
    fn decode_rejects_truncated() {
        let mut d = Dictionary::new();
        d.encode_resource(&Term::iri("a"));
        let mut buf = Vec::new();
        d.encode_into(&mut buf);
        for cut in [0, 1, 7, buf.len() / 2, buf.len() - 1] {
            let mut slice = &buf[..cut];
            assert!(
                Dictionary::decode_from(&mut slice).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn memory_accounting_monotone() {
        let mut d = Dictionary::new();
        let before = d.memory_bytes();
        d.encode_resource(&Term::iri("http://example.org/some/long/resource"));
        assert!(d.memory_bytes() > before);
    }
}
