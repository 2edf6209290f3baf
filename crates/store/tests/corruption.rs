//! Hostile-input property tests for snapshot loading: arbitrary byte
//! mutations of a serialized snapshot must never panic the loader.
//!
//! Loading promises structural soundness (nothing downstream indexes
//! out of bounds), not semantic integrity — a mutation can produce a
//! *different but well-formed* store, which loads `Ok` and is caught by
//! the deep audit (`parj_store::audit`) instead. So the properties are:
//! decode returns (`Ok` or `Err`) without panicking; whatever loads can
//! be re-serialized and invariant-checked without panicking; and every
//! truncation is an error.

use proptest::prelude::*;

use parj_dict::Term;
use parj_store::{StoreBuilder, TripleStore};

fn snapshot_bytes() -> Vec<u8> {
    let mut b = StoreBuilder::new();
    for i in 0..30u32 {
        b.add_term_triple(
            &Term::iri(format!("http://e/s{}", i % 7)),
            &Term::iri(format!("http://e/p{}", i % 3)),
            &Term::iri(format!("http://e/o{}", i % 11)),
        );
    }
    b.build().to_snapshot_bytes()
}

/// Exercises one mutated payload end to end without panicking.
fn probe(bytes: &[u8]) {
    if let Ok(store) = TripleStore::from_snapshot_bytes(bytes) {
        // Structurally sound by the loader's contract: these walks must
        // not panic, whatever their verdict.
        let _ = store.check_invariants();
        let _ = store.to_snapshot_bytes();
        let _ = store.num_triples();
    }
}

proptest! {
    /// A single flipped byte anywhere in the payload never panics the
    /// loader, and whatever loads survives re-serialization.
    #[test]
    fn single_byte_mutation_never_panics(pos in 0usize..100_000, byte in 0u8..=255u8) {
        let mut bytes = snapshot_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = byte;
        probe(&bytes);
    }

    /// A burst of mutations (up to 16 positions) never panics.
    #[test]
    fn scattered_mutations_never_panic(
        edits in proptest::collection::vec((0usize..100_000, 0u8..=255u8), 1..16)
    ) {
        let mut bytes = snapshot_bytes();
        let n = bytes.len();
        for &(pos, byte) in &edits {
            bytes[pos % n] = byte;
        }
        probe(&bytes);
    }

    /// Every proper prefix is rejected (and never panics).
    #[test]
    fn truncation_always_errors(cut in 0usize..100_000) {
        let bytes = snapshot_bytes();
        let cut = cut % bytes.len();
        prop_assert!(TripleStore::from_snapshot_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
    }

    /// Appending trailing garbage never panics.
    #[test]
    fn trailing_garbage_never_panics(tail in proptest::collection::vec(0u8..=255u8, 1..64)) {
        let mut bytes = snapshot_bytes();
        bytes.extend_from_slice(&tail);
        probe(&bytes);
    }
}
