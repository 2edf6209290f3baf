//! # parj-store — PARJ physical data storage
//!
//! The in-memory RDF storage layout of Section 3 of the PARJ paper
//! (Bilidas & Koubarakis, EDBT 2019), plus the ID-to-Position index of
//! Section 4.2.
//!
//! ## Layout
//!
//! After dictionary encoding, the data is **vertically partitioned**: one
//! [`Partition`] per predicate. Each partition keeps **two replicas** of
//! its two-column table:
//!
//! * the **S-O replica**, sorted by subject then object, and
//! * the **O-S replica**, sorted by object then subject,
//!
//! corresponding to the PSO and POS indexes of Hexastore. A [`Replica`]
//! stores the *distinct* first-column values in one sorted `keys` array;
//! the second column lives in a single contiguous `values` array with an
//! `offsets` table mapping each key position to its sorted group of
//! values — the paper's Figure 1, with the optimization it describes of
//! "allocating the different object arrays to a continuous memory area"
//! and keeping offsets instead of per-position pointers. This is a CSR
//! adjacency layout: compact, cache-friendly, and reconstruction of a
//! tuple is `(keys[i], values[j])` for `offsets[i] <= j < offsets[i+1]`.
//!
//! ## ID-to-Position index (§4.2)
//!
//! [`IdPosIndex`] maps a dictionary id directly to its position in a
//! replica's `keys` array without binary search: every `interval` ids it
//! stores an anchor integer (the number of present ids before the block)
//! followed by a presence bitmap; a lookup is one bit test plus a
//! popcount over the partial block — "one memory access and some
//! computation that can be done efficiently as a popcount operation".
//!
//! ```
//! use parj_dict::Term;
//! use parj_store::{StoreBuilder, SortOrder};
//!
//! let mut b = StoreBuilder::new();
//! b.add_term_triple(&Term::iri("e:ProfA"), &Term::iri("e:teaches"), &Term::iri("e:Math"));
//! b.add_term_triple(&Term::iri("e:ProfA"), &Term::iri("e:teaches"), &Term::iri("e:Physics"));
//! b.add_term_triple(&Term::iri("e:ProfB"), &Term::iri("e:teaches"), &Term::iri("e:Chem"));
//! let store = b.build();
//! let teaches = store.dict().predicate_id(&Term::iri("e:teaches")).unwrap();
//! let so = store.replica(teaches, SortOrder::SO).unwrap();
//! assert_eq!(so.num_keys(), 2);          // two distinct subjects
//! assert_eq!(so.num_triples(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod delta;
mod idpos;
mod parallel;
mod partition;
mod replica;
mod snapshot;
mod store;

pub use codec::{simd_active, PackedValues, BLOCK_LEN};
pub use delta::{
    merge_group_into, merge_values_into, sorted_contains, DeltaOverlay, PredApply,
    PredDelta, ReplicaView, StoreView,
};
pub use idpos::IdPosIndex;
pub use partition::Partition;
pub use replica::{Group, GroupIter, Replica, ReplicaBuilder};
pub use snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use store::{SortOrder, StoreBuilder, StoreOptions, TripleStore};
