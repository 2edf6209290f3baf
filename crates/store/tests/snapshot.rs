//! Snapshot byte stability and hostile-input properties of the
//! dictionary section.
//!
//! The in-memory dictionary layout is free to change; the snapshot
//! persists keys, not the layout, so the bytes of a fixed store are
//! pinned here by digest. The dictionary section is also the part of a
//! snapshot whose decode rebuilds an index, so it gets its own
//! corruption property: a truncated or bit-flipped section either fails
//! to load or loads as a store the deep audit finds clean.

use proptest::prelude::*;

use parj_dict::{fx_hash_bytes, Term};
use parj_store::{StoreBuilder, TripleStore};

/// A small store whose dictionary has more than one bucket of keys per
/// namespace, every key tag, multi-byte UTF-8, and keys longer than 63
/// and 127 bytes.
fn fixture() -> TripleStore {
    let mut b = StoreBuilder::new();
    let long = "x".repeat(100);
    let longer = "é".repeat(90);
    for i in 0..60u32 {
        let s = Term::iri(format!("http://example.org/u{}/d{}/s{i}", i % 3, i % 5));
        let o = match i % 6 {
            0 => Term::iri(format!("http://example.org/o{}", i % 11)),
            1 => Term::lang_literal(format!("näme {i}"), "en-GB"),
            2 => Term::typed_literal(format!("{i}"), "http://www.w3.org/2001/XMLSchema#integer"),
            3 => Term::blank(format!("b{}", i % 4)),
            4 => Term::literal(format!("{long}{i}")),
            _ => Term::literal(format!("{longer}{}", i % 2)),
        };
        b.add_term_triple(
            &s,
            &Term::iri(format!("http://example.org/p{}", i % 19)),
            &o,
        );
    }
    b.build()
}

/// Length and `fx_hash_bytes` digest of the fixture's snapshot, taken
/// when the dictionary still stored one offset per key in memory.
const GOLDEN: (usize, u64) = (7_840, 0xa3ab_8d18_9e13_a71b);

#[test]
fn snapshot_bytes_match_golden_digest() {
    let bytes = fixture().to_snapshot_bytes();
    assert_eq!((bytes.len(), fx_hash_bytes(&bytes)), GOLDEN);
    // A loaded snapshot writes itself back byte for byte.
    let back = TripleStore::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(back.to_snapshot_bytes(), bytes);
}

/// The fixture's snapshot and the end of its dictionary section (the
/// 12-byte header comes first).
fn snapshot_and_dictionary_end() -> (Vec<u8>, usize) {
    let store = fixture();
    let mut dict = Vec::new();
    store.dict().encode_into(&mut dict);
    (store.to_snapshot_bytes(), 12 + dict.len())
}

/// Loads `bytes`; whatever loads must pass every deep audit.
fn loads_clean_or_fails(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(store) = TripleStore::from_snapshot_bytes(bytes) {
        let report = parj_store::audit::audit_all(&store);
        prop_assert!(report.is_clean(), "{}", report);
    }
    Ok(())
}

proptest! {
    /// A flipped bit in the header or the dictionary section either
    /// fails the load or yields a store with a clean audit: decoding
    /// rejects keys that do not parse and keys that repeat. (The
    /// partition section's cross-replica checks are the audit's, not
    /// the loader's; `corruption.rs` covers that section's no-panic
    /// contract.)
    #[test]
    fn snapshot_dictionary_bit_flips_fail_or_audit_clean(pos in 0usize..1 << 20, bit in 0u32..8) {
        let (mut bytes, end) = snapshot_and_dictionary_end();
        bytes[pos % end] ^= 1 << bit;
        loads_clean_or_fails(&bytes)?;
    }

    /// Every truncation of the snapshot fails the load.
    #[test]
    fn snapshot_truncations_fail(cut in 0usize..1 << 20) {
        let (bytes, end) = snapshot_and_dictionary_end();
        // Half the cuts land inside the dictionary section.
        let cut = if cut % 2 == 0 { cut % end } else { cut % bytes.len() };
        prop_assert!(TripleStore::from_snapshot_bytes(&bytes[..cut]).is_err());
    }
}
