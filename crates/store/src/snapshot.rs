//! Binary snapshot persistence for a [`TripleStore`].
//!
//! The paper's prototype used SQLite tables as the disk backing, rebuilt
//! into in-memory arrays at start-up (§5). That layer is orthogonal to
//! everything the paper measures, so this reproduction persists the
//! already-built arrays directly in a compact, versioned little-endian
//! format; loading is a validated bulk read (plus an ID-to-Position
//! rebuild, which is a linear scan).

use std::io::{Read, Write};
use std::path::Path;

use parj_dict::Dictionary;

use crate::partition::Partition;
use crate::replica::Replica;
use crate::store::{SortOrder, StoreOptions, TripleStore};

/// Magic bytes at the start of every snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"PARJSNAP";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Errors from encoding/decoding snapshots.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Missing/incorrect magic bytes.
    BadMagic,
    /// Snapshot written by an unsupported format version.
    BadVersion(u32),
    /// Payload ended early.
    Truncated,
    /// Structural validation failed while rebuilding.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a PARJ snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn put_u32s(out: &mut Vec<u8>, xs: &[u32]) {
    out.extend_from_slice(&(xs.len() as u64).to_le_bytes());
    for &x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Splits the first `n` bytes off `buf`.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], SnapshotError> {
    let (head, rest) = buf.split_at_checked(n).ok_or(SnapshotError::Truncated)?;
    *buf = rest;
    Ok(head)
}

/// The little-endian `u32` at byte `at` of `bytes`.
fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn get_u32s(buf: &mut &[u8]) -> Result<Vec<u32>, SnapshotError> {
    let n = u64::from_le_bytes(take(buf, 8)?.try_into().expect("8 bytes")) as usize;
    let xs = take(buf, n.saturating_mul(4))?;
    Ok((0..n).map(|i| u32_at(xs, 4 * i)).collect())
}

impl TripleStore {
    /// Serializes the whole store (dictionary + all partitions) into a
    /// byte vector.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.partitions_memory_bytes());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        self.dict().encode_into(&mut out);
        let opts = self.options();
        out.push(opts.build_idpos as u8);
        out.extend_from_slice(&(opts.idpos_interval as u64).to_le_bytes());
        out.extend_from_slice(&(self.partitions().len() as u32).to_le_bytes());
        for part in self.partitions() {
            out.extend_from_slice(&part.predicate().to_le_bytes());
            for order in [SortOrder::SO, SortOrder::OS] {
                let (keys, offsets, values) = part.replica(order).raw_parts();
                put_u32s(&mut out, keys);
                // Both are Cow: `offsets` is the identity table when the
                // replica stores none, `values` is decoded when the
                // replica is block-compressed — snapshot bytes stay
                // representation-independent (format v1 unchanged).
                put_u32s(&mut out, &offsets);
                put_u32s(&mut out, &values);
            }
        }
        out
    }

    /// Reconstructs a store from snapshot bytes, validating structure
    /// and rebuilding ID-to-Position indexes when the snapshot's options
    /// request them.
    pub fn from_snapshot_bytes(mut buf: &[u8]) -> Result<Self, SnapshotError> {
        let buf = &mut buf;
        let header = take(buf, 12)?;
        if header[..8] != SNAPSHOT_MAGIC[..] {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32_at(header, 8);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let dict = Dictionary::decode_from(buf)
            .map_err(|e| SnapshotError::Corrupt(format!("dictionary: {e}")))?;
        let opts = take(buf, 1 + 8 + 4)?;
        let build_idpos = opts[0] != 0;
        let idpos_interval = u64::from_le_bytes(opts[1..9].try_into().expect("8 bytes")) as usize;
        // A corrupt interval would assert inside `IdPosIndex::build`;
        // reject it here so hostile bytes surface as `Err`, not a panic.
        if build_idpos && (idpos_interval == 0 || !idpos_interval.is_multiple_of(64)) {
            return Err(SnapshotError::Corrupt(format!(
                "idpos interval {idpos_interval} is not a positive multiple of 64"
            )));
        }
        let n_parts = u32_at(opts, 9) as usize;
        if n_parts != dict.num_predicates() {
            return Err(SnapshotError::Corrupt(format!(
                "{n_parts} partitions but {} predicates",
                dict.num_predicates()
            )));
        }
        let universe = dict.num_resources();
        let mut partitions = Vec::with_capacity(n_parts);
        for idx in 0..n_parts {
            let predicate = u32_at(take(buf, 4)?, 0);
            if predicate as usize != idx {
                return Err(SnapshotError::Corrupt(format!(
                    "partition {idx} stores predicate {predicate}"
                )));
            }
            let mut replicas = Vec::with_capacity(2);
            for order in [SortOrder::SO, SortOrder::OS] {
                let keys = get_u32s(buf)?;
                let offsets = get_u32s(buf)?;
                let values = get_u32s(buf)?;
                let r = Replica::from_raw_parts(keys, offsets, values).map_err(|e| {
                    SnapshotError::Corrupt(format!("pred {predicate} {order}: {e}"))
                })?;
                if build_idpos {
                    // A key outside the dictionary's ids names no term,
                    // so the bytes are corrupt; keys are sorted, so
                    // checking the last one suffices.
                    if let Some(&k) = r.keys().last() {
                        if k as usize >= universe {
                            return Err(SnapshotError::Corrupt(format!(
                                "pred {predicate} {order}: key {k} outside id universe {universe}"
                            )));
                        }
                    }
                }
                replicas.push(r);
            }
            let os = replicas.pop().expect("two replicas");
            let so = replicas.pop().expect("two replicas");
            // Loading runs each replica's own check (required so
            // nothing downstream can panic) plus this cardinality
            // agreement. The cross-replica checks — SO/OS triple-multiset
            // equality, id ranges against the dictionary — cost
            // O(n log n) and live in `crate::audit` (`parj audit` on the
            // CLI) instead of taxing every load.
            if so.num_triples() != os.num_triples() {
                return Err(SnapshotError::Corrupt(format!(
                    "pred {predicate}: replica cardinality mismatch: SO={} OS={}",
                    so.num_triples(),
                    os.num_triples()
                )));
            }
            partitions.push(Partition::from_replicas(predicate, so, os));
        }
        Ok(TripleStore::from_parts(
            dict,
            partitions,
            StoreOptions {
                build_idpos,
                idpos_interval,
                ..StoreOptions::default()
            },
        ))
    }

    /// Writes a snapshot to `path`.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let bytes = self.to_snapshot_bytes();
        let mut f = std::fs::File::create(path)?;
        f.write_all(&bytes)?;
        Ok(())
    }

    /// Loads a snapshot from `path`.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_snapshot_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreBuilder;
    use crate::IdPosIndex;
    use parj_dict::Term;

    fn sample_store() -> TripleStore {
        let mut b = StoreBuilder::new();
        for i in 0..50u32 {
            b.add_term_triple(
                &Term::iri(format!("http://e/s{}", i % 17)),
                &Term::iri(format!("http://e/p{}", i % 3)),
                &Term::iri(format!("http://e/o{i}")),
            );
            b.add_term_triple(
                &Term::iri(format!("http://e/s{}", i % 17)),
                &Term::iri("http://e/name"),
                &Term::lang_literal(format!("name {i}"), "en"),
            );
        }
        b.build()
    }

    #[test]
    fn roundtrip_bytes() {
        let store = sample_store();
        let bytes = store.to_snapshot_bytes();
        let back = TripleStore::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back.num_triples(), store.num_triples());
        assert_eq!(back.num_predicates(), store.num_predicates());
        assert_eq!(back.check_invariants(), Ok(()));
        let a: Vec<_> = store.iter_triples().collect();
        let b: Vec<_> = back.iter_triples().collect();
        assert_eq!(a, b);
        // Dictionary survives: decode matches.
        assert_eq!(
            back.dict().decode_resource(0).unwrap(),
            store.dict().decode_resource(0).unwrap()
        );
        // Indexes rebuilt per options, where they pay.
        let interval = back.options().idpos_interval;
        for r in back.replicas() {
            assert_eq!(r.idpos().is_some(), IdPosIndex::pays(r.keys(), interval));
        }
        assert!(back.indexed_key_arrays() > 0);
        assert_eq!(back.indexed_key_arrays(), store.indexed_key_arrays());
    }

    #[test]
    fn roundtrip_through_file() {
        let store = sample_store();
        let dir = std::env::temp_dir().join(format!("parj-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.parj");
        store.save_snapshot(&path).unwrap();
        let back = TripleStore::load_snapshot(&path).unwrap();
        assert_eq!(back.num_triples(), store.num_triples());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let store = sample_store();
        let mut bytes = store.to_snapshot_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            TripleStore::from_snapshot_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
        let mut bytes = store.to_snapshot_bytes();
        bytes[8] = 99;
        assert!(matches!(
            TripleStore::from_snapshot_bytes(&bytes),
            Err(SnapshotError::BadVersion(_))
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let store = sample_store();
        let bytes = store.to_snapshot_bytes();
        // Cut at a spread of positions; all must fail, none may panic.
        for frac in 1..20 {
            let cut = bytes.len() * frac / 20;
            assert!(
                TripleStore::from_snapshot_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn empty_store_roundtrip() {
        let store = StoreBuilder::new().build();
        let bytes = store.to_snapshot_bytes();
        let back = TripleStore::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back.num_triples(), 0);
    }
}
