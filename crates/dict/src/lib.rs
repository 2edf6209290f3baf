//! # parj-dict — dictionary encoding for PARJ
//!
//! RDF terms (IRIs, literals, blank nodes) are mapped to dense integer
//! [`Id`]s so that the storage and join layers operate purely on integer
//! arrays, exactly as in Section 3 of the PARJ paper (Bilidas &
//! Koubarakis, EDBT 2019):
//!
//! > "we use dictionary encoding, by assigning an integer value to each
//! > value encountered in the RDF data. We use common numbering for
//! > values appearing in the subject and object positions and a
//! > different numbering for values appearing in the property position."
//!
//! Accordingly a [`Dictionary`] holds **two independent namespaces**:
//!
//! * **resources** — terms that occur in subject or object position,
//!   sharing one dense id space `0..num_resources()`;
//! * **predicates** — terms in predicate position, with their own dense
//!   id space `0..num_predicates()`.
//!
//! Dense resource ids are load-bearing: the ID-to-Position index of
//! `parj-store` allocates bitmap space proportional to the *maximum
//! resource id*, so gaps would waste memory (§4.2 of the paper).
//!
//! Each namespace is four flat buffers: a [`StringArena`] (buckets of
//! 16 keys, each a header of lengths then the keys, in one `String`,
//! plus an offset per bucket) and an [`IdTable`] (a tag byte and a
//! `u32` id per slot). A decode adds up at most 15 lengths and borrows
//! a slice; a lookup compares only tag matches.
//!
//! ## Example
//!
//! ```
//! use parj_dict::{Dictionary, Term};
//!
//! let mut d = Dictionary::new();
//! let s = d.encode_resource(&Term::iri("http://example.org/ProfessorA"));
//! let p = d.encode_predicate(&Term::iri("http://example.org/teaches"));
//! let o = d.encode_resource(&Term::iri("http://example.org/Mathematics"));
//! assert_eq!(d.decode_resource(s).unwrap().as_iri().unwrap(),
//!            "http://example.org/ProfessorA");
//! assert_eq!(d.decode_predicate(p).unwrap().as_iri().unwrap(),
//!            "http://example.org/teaches");
//! // Encoding is idempotent:
//! assert_eq!(s, d.encode_resource(&Term::iri("http://example.org/ProfessorA")));
//! assert_ne!(s, o);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod delta;
mod dict;
mod hash;
mod sharded;
mod table;
mod term;

pub use arena::StringArena;
pub use delta::{DictDelta, DictView};
pub use dict::{Dictionary, Namespace};
pub use hash::fx_hash_bytes;
pub use sharded::TermBatch;
pub use table::IdTable;
pub use term::{Term, TermParseError, TermRef};

/// Dense integer identifier for a dictionary-encoded RDF term.
///
/// The paper stores ids as 4-byte integers ("using 4-byte integers" in
/// §4.2); `u32` supports up to ~4.3 billion distinct resources, beyond
/// the 336 million of LUBM 10240.
pub type Id = u32;

/// Sentinel id meaning "absent"; never assigned to a term.
pub const NO_ID: Id = u32::MAX;

/// A dictionary-encoded triple: `(subject, predicate, object)` with the
/// subject/object drawn from the resource namespace and the predicate
/// from the predicate namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EncodedTriple {
    /// Subject resource id.
    pub s: Id,
    /// Predicate id (predicate namespace).
    pub p: Id,
    /// Object resource id.
    pub o: Id,
}

impl EncodedTriple {
    /// Convenience constructor.
    #[inline]
    pub const fn new(s: Id, p: Id, o: Id) -> Self {
        Self { s, p, o }
    }
}
