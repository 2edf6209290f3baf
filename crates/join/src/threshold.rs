//! Conversion of calibrated position windows into per-replica value
//! thresholds.
//!
//! Algorithm 1 compares the *arithmetic* distance between the value
//! under the cursor and the probe value, because that needs no extra
//! memory access. The calibration, however, produces a window in
//! *positions*. §4.1 bridges the two with the uniform-distribution
//! assumption: "the difference between an element and its subsequent one
//! is (array[size − 1] − array[0])/size", so
//! `value_threshold = window × avg_gap`, precomputed per replica: "once
//! the calibration process terminates, we precompute the estimated value
//! distance for each property, such that during query execution we only
//! need to perform one integer subtraction, one absolute value
//! computation and one comparison for each tuple".

use parj_dict::Id;
use parj_store::{Replica, SortOrder, TripleStore};

use crate::calibrate::CalibrationResult;

/// The two value-space thresholds for one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaThresholds {
    /// Switch-to-sequential threshold when the alternative is binary
    /// search.
    pub binary: i64,
    /// Switch-to-sequential threshold when the alternative is the
    /// ID-to-Position index (smaller, per §4.2: "the threshold when
    /// ID-to-Position index is used being smaller than the threshold
    /// when binary search is used").
    pub index: i64,
}

impl ReplicaThresholds {
    /// Thresholds that force the adaptive strategies to always choose
    /// the random-access method (used to disable adaptivity).
    pub const NEVER_SEQUENTIAL: ReplicaThresholds = ReplicaThresholds {
        binary: -1,
        index: -1,
    };
}

/// Per-replica thresholds for a whole store, indexed by `(predicate,
/// sort order)`.
#[derive(Debug, Clone, Default)]
pub struct ThresholdTable {
    /// `per[pred][order]`, order 0 = S-O, 1 = O-S.
    per: Vec<[ReplicaThresholds; 2]>,
}

fn avg_gap(replica: &Replica) -> i64 {
    let keys = replica.keys();
    match (keys.first(), keys.last()) {
        (Some(&first), Some(&last)) if !keys.is_empty() => {
            (((last - first) as i64) / keys.len() as i64).max(1)
        }
        _ => 1,
    }
}

impl ThresholdTable {
    /// Builds the table from calibration windows: for every replica,
    /// `threshold = window × avg_gap(replica)`.
    pub fn from_calibration(store: &TripleStore, cal: &CalibrationResult) -> Self {
        let per = store
            .partitions()
            .iter()
            .map(|part| {
                [SortOrder::SO, SortOrder::OS].map(|order| {
                    let gap = avg_gap(part.replica(order));
                    ReplicaThresholds {
                        binary: cal.window_binary as i64 * gap,
                        index: cal.window_index as i64 * gap,
                    }
                })
            })
            .collect();
        ThresholdTable { per }
    }

    /// A table applying the same thresholds to every replica (tests and
    /// ablations).
    pub fn uniform(num_predicates: usize, t: ReplicaThresholds) -> Self {
        ThresholdTable {
            per: vec![[t; 2]; num_predicates],
        }
    }

    /// Thresholds for `(predicate, order)`; predicates outside the table
    /// (e.g. freshly added) get conservative zero thresholds, which
    /// degrade adaptive strategies to their random-access method.
    #[inline]
    pub fn get(&self, predicate: Id, order: SortOrder) -> ReplicaThresholds {
        let idx = match order {
            SortOrder::SO => 0,
            SortOrder::OS => 1,
        };
        self.per
            .get(predicate as usize)
            .map(|pair| pair[idx])
            .unwrap_or(ReplicaThresholds {
                binary: 0,
                index: 0,
            })
    }

    /// Number of predicates covered.
    pub fn len(&self) -> usize {
        self.per.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.per.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_dict::Term;
    use parj_store::StoreBuilder;

    #[test]
    fn thresholds_scale_with_gap() {
        let mut b = StoreBuilder::new();
        // Predicate 0: dense subjects (gap 1). Predicate 1: every 100th
        // resource id is a subject (gap ~100 after interleaving objects).
        for i in 0..1000u32 {
            b.add_term_triple(
                &Term::iri(format!("dense{i}")),
                &Term::iri("p-dense"),
                &Term::iri("x"),
            );
        }
        for i in 0..10u32 {
            b.add_term_triple(
                &Term::iri(format!("dense{}", i * 100)),
                &Term::iri("p-sparse"),
                &Term::iri("x"),
            );
        }
        let store = b.build();
        let cal = CalibrationResult {
            window_binary: 200,
            window_index: 20,
            iterations_binary: 1,
            iterations_index: 1,
        };
        let t = ThresholdTable::from_calibration(&store, &cal);
        let dense = store.dict().predicate_id(&Term::iri("p-dense")).unwrap();
        let sparse = store.dict().predicate_id(&Term::iri("p-sparse")).unwrap();
        let td = t.get(dense, SortOrder::SO);
        let ts = t.get(sparse, SortOrder::SO);
        assert!(
            ts.binary > td.binary,
            "sparse {} dense {}",
            ts.binary,
            td.binary
        );
        // Index threshold is the smaller of the two everywhere.
        assert!(td.index < td.binary);
        assert!(ts.index < ts.binary);
    }

    #[test]
    fn out_of_range_predicate_gets_zero() {
        let t = ThresholdTable::uniform(
            1,
            ReplicaThresholds {
                binary: 5,
                index: 2,
            },
        );
        assert_eq!(t.get(0, SortOrder::SO).binary, 5);
        assert_eq!(t.get(9, SortOrder::OS).binary, 0);
    }

    #[test]
    fn empty_replica_gap_is_one() {
        let mut b = StoreBuilder::new();
        b.dict_mut().encode_predicate(&Term::iri("empty"));
        let store = b.build();
        let t = ThresholdTable::from_calibration(&store, &CalibrationResult::paper_defaults());
        assert_eq!(t.get(0, SortOrder::SO).binary, 200);
    }
}
