//! The two-namespace dictionary (resources + predicates).

use bytes::BufMut;

use crate::arena::StringArena;
use crate::hash::fx_hash_bytes;
use crate::table::{slots_for, IdTable};
use crate::term::{Term, TermParseError, TermRef};
use crate::Id;

fn hash_key(key: &str) -> u64 {
    fx_hash_bytes(key.as_bytes())
}

/// One dense id namespace: an arena of canonical keys plus an
/// [`IdTable`] over them.
///
/// Ids are assigned densely in insertion order: the `i`-th distinct term
/// gets id `i`. Lookups hash the canonical key and verify candidates
/// against the arena, so hash collisions are handled correctly.
#[derive(Debug, Default, Clone)]
pub struct Namespace {
    arena: StringArena,
    table: IdTable,
}

impl Namespace {
    /// Creates an empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// A namespace holding `keys` as ids `0..`, with every buffer sized
    /// exactly; `None` if a key repeats.
    pub(crate) fn from_keys<'k>(keys: impl Iterator<Item = &'k str> + Clone) -> Option<Self> {
        let mut ns = Namespace::default();
        ns.reserve(keys.clone().map(str::len));
        for key in keys {
            let same = |id: Id| ns.arena.get(id as usize) == Some(key);
            if ns.table.find_or_insert(hash_key(key), same, Vec::new).is_some() {
                return None;
            }
            ns.arena.push(key);
        }
        Some(ns)
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
        self.encode_hashed(hash_key(key), key)
    }

    /// [`Namespace::encode_key`] with the hash supplied by the caller;
    /// `hash` must be `fx_hash_bytes(key.as_bytes())`.
    pub(crate) fn encode_hashed(&mut self, hash: u64, key: &str) -> Id {
        let Namespace { arena, table } = self;
        let found = table.find_or_insert(
            hash,
            |id| arena.get(id as usize) == Some(key),
            || arena.iter().map(hash_key),
        );
        found.unwrap_or_else(|| arena.push(key) as Id)
    }

    /// Looks up `key` without inserting.
    pub fn get_key(&self, key: &str) -> Option<Id> {
        self.get_key_hashed(hash_key(key), key)
    }

    /// [`Namespace::get_key`] with the hash supplied by the caller, for
    /// batch pipelines that hash once and probe many times. `hash` must
    /// equal `fx_hash_bytes(key.as_bytes())`.
    #[inline]
    pub fn get_key_hashed(&self, hash: u64, key: &str) -> Option<Id> {
        debug_assert_eq!(hash, hash_key(key));
        self.table.find(hash, |id| self.arena.get(id as usize) == Some(key))
    }

    /// Returns the canonical key for `id`.
    #[inline]
    pub fn key(&self, id: Id) -> Option<&str> {
        self.arena.get(id as usize)
    }

    /// Iterates over the keys in id order.
    pub fn keys(&self) -> impl Iterator<Item = &str> + Clone {
        self.arena.iter()
    }

    /// Heap bytes: the allocated capacity of the arena and the table.
    pub fn memory_bytes(&self) -> usize {
        self.arena.memory_bytes() + self.table.memory_bytes()
    }

    /// Makes room for keys of the given lengths. The table grows at most
    /// once: to exactly the slots the total needs, or to twice its ids
    /// if that is more, so that repeated calls stay linear.
    pub(crate) fn reserve(&mut self, lengths: impl Iterator<Item = usize> + Clone) {
        let n = self.len() + lengths.clone().count();
        if slots_for(n) > self.table.slots() {
            self.size_table(n.max(2 * self.len()));
        }
        self.arena.reserve(lengths);
    }

    /// Releases spare capacity: the arena is trimmed and the table
    /// holds exactly the slots its ids need.
    pub fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.size_table(self.len());
    }

    /// Rebuilds the table with exactly the slots `n` ids need, unless it
    /// has them.
    fn size_table(&mut self, n: usize) {
        if self.table.slots() != slots_for(n) {
            self.table = IdTable::with_capacity(n);
            for key in self.arena.iter() {
                self.table.find_or_insert(hash_key(key), |_| false, Vec::new);
            }
        }
    }
}

/// Splits the first `n` bytes off `buf`.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], DictDecodeError> {
    let (head, rest) = buf.split_at_checked(n).ok_or(DictDecodeError::Truncated)?;
    *buf = rest;
    Ok(head)
}

fn take_u64(buf: &mut &[u8]) -> Result<usize, DictDecodeError> {
    Ok(u64::from_le_bytes(take(buf, 8)?.try_into().expect("8 bytes")) as usize)
}

fn terms(ns: &Namespace) -> impl Iterator<Item = (Id, Term)> + '_ {
    let term = |key| Term::from_canonical_key(key).expect("valid stored key");
    ns.keys().enumerate().map(move |(id, key)| (id as Id, term(key)))
}

/// Decodes one namespace of [`Dictionary::encode_into`]'s output.
fn decode_namespace(buf: &mut &[u8]) -> Result<Namespace, DictDecodeError> {
    let data_len = take_u64(buf)?;
    let data = std::str::from_utf8(take(buf, data_len)?)
        .map_err(|_| DictDecodeError::Corrupt("non-UTF-8 arena payload"))?;
    let n_offsets = take_u64(buf)?;
    let bounds: Vec<usize> = take(buf, n_offsets.saturating_mul(8))?
        .chunks_exact(8)
        .map(|o| u64::from_le_bytes(o.try_into().expect("8 bytes")) as usize)
        .collect();
    let valid = bounds.first() == Some(&0)
        && bounds.last() == Some(&data_len)
        && bounds.windows(2).all(|w| w[0] <= w[1] && data.is_char_boundary(w[1]));
    if !valid {
        return Err(DictDecodeError::Corrupt("invalid offset table"));
    }
    let keys = bounds.windows(2).map(|w| &data[w[0]..w[1]]);
    if keys.clone().any(|key| TermRef::from_key(key).is_err()) {
        return Err(DictDecodeError::Corrupt("key does not parse as a term"));
    }
    Namespace::from_keys(keys).ok_or(DictDecodeError::Corrupt("duplicate key"))
}

/// The PARJ dictionary: resource and predicate namespaces (§3 of the
/// paper uses "a different numbering for values appearing in the
/// property position").
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    pub(crate) resources: Namespace,
    pub(crate) predicates: Namespace,
    /// Canonical-key scratch reused by the encode calls, so encoding a
    /// term that is already interned allocates nothing.
    key_buf: String,
}

/// Errors from decoding a serialized dictionary.
#[derive(Debug)]
pub enum DictDecodeError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// Stored payload was not valid UTF-8, had a corrupt offset table,
    /// or held a key that does not parse as a term or repeats.
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

    /// Heap bytes: the allocated capacity of every buffer.
    pub fn memory_bytes(&self) -> usize {
        self.resources.memory_bytes() + self.predicates.memory_bytes() + self.key_buf.capacity()
    }

    /// Heap bytes of the resource arena and table alone.
    pub fn resources_memory_bytes(&self) -> usize {
        self.resources.memory_bytes()
    }

    /// Heap bytes of the predicate arena + table alone.
    pub fn predicates_memory_bytes(&self) -> usize {
        self.predicates.memory_bytes()
    }

    /// Releases spare capacity in both namespaces; a built store calls it once.
    pub fn shrink_to_fit(&mut self) {
        self.resources.shrink_to_fit();
        self.predicates.shrink_to_fit();
        self.key_buf = String::new();
    }

    /// Serializes the dictionary into `out`: per namespace, the keys'
    /// concatenated bytes and one `u64` offset per key boundary (the
    /// in-memory layout is rebuilt on decode).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for ns in [&self.resources, &self.predicates] {
            let bytes: usize = ns.keys().map(str::len).sum();
            out.put_u64_le(bytes as u64);
            ns.keys().for_each(|key| out.put_slice(key.as_bytes()));
            out.put_u64_le(ns.len() as u64 + 1);
            let mut end = 0;
            for len in std::iter::once(0).chain(ns.keys().map(str::len)) {
                end += len as u64;
                out.put_u64_le(end);
            }
        }
    }

    /// Decodes a dictionary previously written by
    /// [`Dictionary::encode_into`], advancing `buf` past it. Every key
    /// must parse as a term and appear once in its namespace.
    pub fn decode_from(buf: &mut &[u8]) -> Result<Self, DictDecodeError> {
        Ok(Dictionary {
            resources: decode_namespace(buf)?,
            predicates: decode_namespace(buf)?,
            key_buf: String::new(),
        })
    }

    /// Iterates `(id, term)` over all resources in id order.
    pub fn resources(&self) -> impl Iterator<Item = (Id, Term)> + '_ {
        terms(&self.resources)
    }

    /// Iterates `(id, term)` over all predicates in id order.
    pub fn predicates(&self) -> impl Iterator<Item = (Id, Term)> + '_ {
        terms(&self.predicates)
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// The allocated capacity of every buffer `ns` owns, counted by hand.
    fn buffer_bytes(ns: &Namespace) -> usize {
        ns.arena.data.capacity()
            + ns.arena.starts.capacity() * size_of::<u64>()
            + ns.table.tags.capacity()
            + ns.table.ids.capacity() * size_of::<Id>()
    }

    /// An exactly sized namespace: table load within [0.7, 0.8], and at
    /// most 8 bytes per term beyond the average key.
    pub(crate) fn assert_exactly_sized(ns: &Namespace) {
        assert_eq!(ns.memory_bytes(), buffer_bytes(ns));
        let load = ns.len() as f64 / ns.table.slots() as f64;
        assert!((0.7..=0.8).contains(&load), "load {load} over {} keys", ns.len());
        let avg_key = ns.keys().map(str::len).sum::<usize>() as f64 / ns.len() as f64;
        let per_term = ns.memory_bytes() as f64 / ns.len() as f64;
        assert!(per_term <= avg_key + 8.0, "{per_term} B/term, keys average {avg_key}");
    }

    /// LUBM-like resources: IRIs and literals, interleaved.
    pub(crate) fn lubm_like(i: usize) -> Term {
        match i % 3 {
            0 => Term::iri(format!("http://lubm/u{}/d{}/pub{i}", i % 7, i % 5)),
            1 => Term::literal(format!("+1-557-{i:06}")),
            _ => Term::iri(format!("http://lubm/u{}/Course{i}", i % 7)),
        }
    }

    #[test]
    fn memory_is_buffer_capacity_and_exact_after_shrink_and_decode() {
        let mut d = Dictionary::new();
        for i in 0..3_000 {
            d.encode_resource(&lubm_like(i));
            assert_eq!(d.resources.memory_bytes(), buffer_bytes(&d.resources));
        }
        // Finalize: a built store shrinks its dictionary once.
        d.shrink_to_fit();
        assert_exactly_sized(&d.resources);
        let mut bytes = Vec::new();
        d.encode_into(&mut bytes);
        let back = Dictionary::decode_from(&mut bytes.as_slice()).unwrap();
        assert_exactly_sized(&back.resources);
        assert_eq!(back.memory_bytes(), d.memory_bytes());
    }

    #[test]
    fn decode_rejects_bad_offset_tables() {
        // A resource namespace with the given payload and offsets, then
        // an empty predicate namespace.
        let decode = |data: &str, offsets: &[u64]| {
            let mut buf = Vec::new();
            buf.put_u64_le(data.len() as u64);
            buf.put_slice(data.as_bytes());
            buf.put_u64_le(offsets.len() as u64);
            offsets.iter().for_each(|&o| buf.put_u64_le(o));
            buf.extend([0, 1, 0].map(u64::to_le_bytes).concat());
            Dictionary::decode_from(&mut buf.as_slice())
        };
        // The first two would still yield distinct keys that parse if
        // the check were skipped: a table not starting at 0, and one
        // ending short of the payload.
        let bad: [(&str, &[u64]); 6] = [
            ("IabIac", &[3, 6]),
            ("IabIac", &[0, 3, 5]),
            ("IabIac", &[0, 6, 3, 6]),
            // Splits 'ö' (two bytes).
            ("Iö", &[0, 2, 3]),
            ("", &[]),
            ("Ia", &[0, 2, 1, 2]),
        ];
        for (data, offsets) in bad {
            let err = decode(data, offsets).err();
            let msg = format!("{data:?} {offsets:?}: {err:?}");
            assert!(matches!(err, Some(DictDecodeError::Corrupt("invalid offset table"))), "{msg}");
        }
        assert_eq!(decode("", &[0]).unwrap().num_resources(), 0);
        let d = decode("IabIac", &[0, 3, 6]).unwrap();
        assert_eq!(d.decode_resource(1).unwrap(), Term::iri("ac"));
    }

    #[test]
    fn decode_rejects_repeated_and_unparseable_keys() {
        let mut d = Dictionary::new();
        d.encode_resource(&Term::iri("ab"));
        d.encode_resource(&Term::iri("ac"));
        let mut bytes = Vec::new();
        d.encode_into(&mut bytes);
        // Payload "IabIac" sits after the 8-byte length.
        let mut dup = bytes.clone();
        dup[8 + 5] = b'b';
        assert!(matches!(
            Dictionary::decode_from(&mut dup.as_slice()),
            Err(DictDecodeError::Corrupt("duplicate key"))
        ));
        let mut bad = bytes.clone();
        bad[8 + 3] = b'?';
        assert!(matches!(
            Dictionary::decode_from(&mut bad.as_slice()),
            Err(DictDecodeError::Corrupt("key does not parse as a term"))
        ));
    }
}
