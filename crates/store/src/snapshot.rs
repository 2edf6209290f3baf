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

use bytes::{Buf, BufMut};
use parj_dict::{Dictionary, Id};

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

fn put_ids(out: &mut Vec<u8>, ids: &[Id]) {
    out.put_u64_le(ids.len() as u64);
    for &i in ids {
        out.put_u32_le(i);
    }
}

fn put_u32s(out: &mut Vec<u8>, xs: &[u32]) {
    out.put_u64_le(xs.len() as u64);
    for &x in xs {
        out.put_u32_le(x);
    }
}

fn get_u32s(buf: &mut &[u8]) -> Result<Vec<u32>, SnapshotError> {
    if buf.remaining() < 8 {
        return Err(SnapshotError::Truncated);
    }
    let n = buf.get_u64_le() as usize;
    if buf.remaining() < n.saturating_mul(4) {
        return Err(SnapshotError::Truncated);
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(buf.get_u32_le());
    }
    Ok(v)
}

impl TripleStore {
    /// Serializes the whole store (dictionary + all partitions) into a
    /// byte vector.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.partitions_memory_bytes());
        out.put_slice(SNAPSHOT_MAGIC);
        out.put_u32_le(SNAPSHOT_VERSION);
        self.dict().encode_into(&mut out);
        let opts = self.options();
        out.put_u8(opts.build_idpos as u8);
        out.put_u64_le(opts.idpos_interval as u64);
        out.put_u32_le(self.partitions().len() as u32);
        for part in self.partitions() {
            out.put_u32_le(part.predicate());
            for order in [SortOrder::SO, SortOrder::OS] {
                let (keys, offsets, values) = part.replica(order).raw_parts();
                put_ids(&mut out, keys);
                // Both are Cow: `offsets` is the identity table when the
                // replica stores none, `values` is decoded when the
                // replica is block-compressed — snapshot bytes stay
                // representation-independent (format v1 unchanged).
                put_u32s(&mut out, &offsets);
                put_ids(&mut out, &values);
            }
        }
        out
    }

    /// Reconstructs a store from snapshot bytes, validating structure
    /// and rebuilding ID-to-Position indexes when the snapshot's options
    /// request them.
    pub fn from_snapshot_bytes(mut buf: &[u8]) -> Result<Self, SnapshotError> {
        let buf = &mut buf;
        if buf.remaining() < 12 {
            return Err(SnapshotError::Truncated);
        }
        let mut magic = [0u8; 8];
        buf.copy_to_slice(&mut magic);
        if &magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = buf.get_u32_le();
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let dict = Dictionary::decode_from(buf)
            .map_err(|e| SnapshotError::Corrupt(format!("dictionary: {e}")))?;
        if buf.remaining() < 1 + 8 + 4 {
            return Err(SnapshotError::Truncated);
        }
        let build_idpos = buf.get_u8() != 0;
        let idpos_interval = buf.get_u64_le() as usize;
        // A corrupt interval would assert inside `IdPosIndex::build`;
        // reject it here so hostile bytes surface as `Err`, not a panic.
        if build_idpos && (idpos_interval == 0 || !idpos_interval.is_multiple_of(64)) {
            return Err(SnapshotError::Corrupt(format!(
                "idpos interval {idpos_interval} is not a positive multiple of 64"
            )));
        }
        let n_parts = buf.get_u32_le() as usize;
        if n_parts != dict.num_predicates() {
            return Err(SnapshotError::Corrupt(format!(
                "{n_parts} partitions but {} predicates",
                dict.num_predicates()
            )));
        }
        let universe = dict.num_resources();
        let mut partitions = Vec::with_capacity(n_parts);
        for idx in 0..n_parts {
            if buf.remaining() < 4 {
                return Err(SnapshotError::Truncated);
            }
            let predicate = buf.get_u32_le();
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
                let r = Replica::from_raw_parts(keys, offsets, values)
                    .map_err(|e| SnapshotError::Corrupt(format!("pred {predicate} {order}: {e}")))?;
                if build_idpos {
                    // Out-of-universe keys would assert inside
                    // `IdPosIndex::build` (in `TripleStore::from_parts`);
                    // keys are sorted, so checking the last one suffices.
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
            // Loading validates each replica structurally (linear cost,
            // and required so nothing downstream can panic) plus this
            // cardinality agreement. The deep cross-replica checks —
            // SO/OS triple-multiset equality, id ranges against the
            // dictionary — cost O(n log n) and live in `parj-audit`
            // (`parj audit` on the CLI) instead of taxing every load.
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
        // Indexes rebuilt per options.
        assert!(back.replica(0, SortOrder::SO).unwrap().idpos().is_some());
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
