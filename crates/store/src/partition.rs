//! A property partition: the two sort-order replicas for one predicate.

use parj_dict::Id;

use crate::replica::{Replica, ReplicaBuilder};
use crate::store::SortOrder;

/// A row in sorted `(subject, object)` order and the triple each of a
/// partition's S-O and O-S replicas holds there (`None` past its end).
pub(crate) type PairDisagreement = (usize, Option<(Id, Id)>, Option<(Id, Id)>);

/// The vertical partition for one predicate: an S-O replica (`prop_i` in
/// the paper's notation) and an O-S replica (`prop_i'`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Partition {
    predicate: Id,
    so: Replica,
    os: Replica,
}

impl Partition {
    /// Builds both replicas from raw `(subject, object)` pairs (not
    /// necessarily sorted or unique).
    pub fn build(predicate: Id, pairs: &[(Id, Id)]) -> Self {
        let mut so = ReplicaBuilder::with_capacity(pairs.len());
        let mut os = ReplicaBuilder::with_capacity(pairs.len());
        for &(s, o) in pairs {
            so.push(s, o);
            os.push(o, s);
        }
        Partition {
            predicate,
            so: so.finish(),
            os: os.finish(),
        }
    }

    /// The predicate id this partition stores.
    #[inline]
    pub fn predicate(&self) -> Id {
        self.predicate
    }

    /// The replica with the requested sort order.
    #[inline]
    pub fn replica(&self, order: SortOrder) -> &Replica {
        match order {
            SortOrder::SO => &self.so,
            SortOrder::OS => &self.os,
        }
    }

    /// Both replicas, S-O first.
    #[inline]
    pub(crate) fn replicas(&self) -> [&Replica; 2] {
        [&self.so, &self.os]
    }

    /// Mutable replica access (index building).
    #[inline]
    pub fn replica_mut(&mut self, order: SortOrder) -> &mut Replica {
        match order {
            SortOrder::SO => &mut self.so,
            SortOrder::OS => &mut self.os,
        }
    }

    /// Number of distinct triples with this predicate.
    #[inline]
    pub fn num_triples(&self) -> usize {
        self.so.num_triples()
    }

    /// Number of distinct subjects.
    #[inline]
    pub fn num_subjects(&self) -> usize {
        self.so.num_keys()
    }

    /// Number of distinct objects.
    #[inline]
    pub fn num_objects(&self) -> usize {
        self.os.num_keys()
    }

    /// True if `(s, o)` is present.
    pub fn contains(&self, s: Id, o: Id) -> bool {
        self.so.group_for_key(s).contains(o)
    }

    /// Block-compresses both replicas' value areas when they hold at
    /// least `min_values` triples and compression actually shrinks
    /// them. Returns whether either replica is compressed afterwards.
    pub fn compress_values(&mut self, min_values: usize) -> bool {
        let a = self.so.compress(min_values);
        let b = self.os.compress(min_values);
        a || b
    }

    /// Iterates all `(subject, object)` pairs in (s, o) order.
    pub fn iter_so(&self) -> impl Iterator<Item = (Id, Id)> + '_ {
        self.so.iter_pairs()
    }

    /// Combined memory of both replicas, each shared keys array and
    /// index in full (store totals count them once).
    pub fn memory_bytes(&self) -> usize {
        self.so.memory_bytes() + self.os.memory_bytes()
    }

    /// Checks both replicas' invariants plus their mutual consistency
    /// (the same triples).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.so.check_invariants().map_err(|e| format!("SO: {e}"))?;
        self.os.check_invariants().map_err(|e| format!("OS: {e}"))?;
        match self.first_disagreement() {
            Some((row, so, os)) => Err(format!(
                "SO ({} triples) and OS ({}) disagree at sorted row {row}: {so:?} vs {os:?}",
                self.so.num_triples(),
                self.os.num_triples()
            )),
            None => Ok(()),
        }
    }

    /// The first row where the S-O and O-S replicas hold different
    /// triples; `None` when they hold the same triples.
    pub(crate) fn first_disagreement(&self) -> Option<PairDisagreement> {
        let mut from_so: Vec<(Id, Id)> = self.so.iter_pairs().collect();
        let mut from_os: Vec<(Id, Id)> = self.os.iter_pairs().map(|(o, s)| (s, o)).collect();
        from_so.sort_unstable();
        from_os.sort_unstable();
        (0..from_so.len().max(from_os.len()))
            .map(|row| (row, from_so.get(row).copied(), from_os.get(row).copied()))
            .find(|(_, so, os)| so != os)
    }

    /// Rebuilds a partition from already-validated replicas (snapshot
    /// loading path).
    pub(crate) fn from_replicas(predicate: Id, so: Replica, os: Replica) -> Self {
        Partition { predicate, so, os }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of §3: `teaches` triples from Table 1.
    /// ProfessorA(1) teaches Mathematics(3) & Physics(8), ProfessorB(4)
    /// teaches Chemistry(5), ProfessorC(6) teaches Literature(7).
    fn teaches() -> Partition {
        Partition::build(0, &[(1, 3), (4, 5), (6, 7), (1, 8)])
    }

    #[test]
    fn both_replicas_constructed() {
        let p = teaches();
        assert_eq!(p.num_triples(), 4);
        assert_eq!(p.num_subjects(), 3);
        assert_eq!(p.num_objects(), 4);
        assert_eq!(p.replica(SortOrder::SO).keys(), &[1, 4, 6]);
        assert_eq!(p.replica(SortOrder::SO).values_for_key(1), &[3, 8]);
        assert_eq!(p.replica(SortOrder::OS).keys(), &[3, 5, 7, 8]);
        assert_eq!(p.replica(SortOrder::OS).values_for_key(8), &[1]);
        assert_eq!(p.check_invariants(), Ok(()));
    }

    #[test]
    fn contains() {
        let p = teaches();
        assert!(p.contains(1, 3));
        assert!(p.contains(1, 8));
        assert!(!p.contains(1, 5));
        assert!(!p.contains(99, 3));
    }

    #[test]
    fn duplicate_triples_are_set_semantics() {
        let p = Partition::build(0, &[(1, 2), (1, 2), (1, 2)]);
        assert_eq!(p.num_triples(), 1);
    }

    #[test]
    fn iter_so_is_sorted() {
        let p = teaches();
        let pairs: Vec<_> = p.iter_so().collect();
        assert_eq!(pairs, vec![(1, 3), (1, 8), (4, 5), (6, 7)]);
    }

    #[test]
    fn compressed_partition_stays_consistent() {
        let mut pairs = Vec::new();
        for s in 0..60u32 {
            for j in 0..1 + (s * 13) % 300 {
                pairs.push((s, j * 2 + s));
            }
        }
        let mut p = Partition::build(2, &pairs);
        let raw = p.clone();
        assert!(p.compress_values(1));
        assert_eq!(p.check_invariants(), Ok(()));
        assert_eq!(p, raw, "compression is logically invisible");
        for &(s, o) in pairs.iter().step_by(17) {
            assert!(p.contains(s, o));
        }
        assert!(!p.contains(0, 1));
        assert!(p.memory_bytes() < raw.memory_bytes());
    }

    #[test]
    fn empty_partition() {
        let p = Partition::build(3, &[]);
        assert_eq!(p.num_triples(), 0);
        assert_eq!(p.check_invariants(), Ok(()));
    }
}
