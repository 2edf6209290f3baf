//! Deep structural auditing: the store's own invariant checks, plus the
//! checks that need the dictionary or another structure to compare with.
//!
//! The engine's hot paths *assume* the physical data structures are
//! well-formed. Each structure checks itself: [`Replica::check_invariants`]
//! (CSR frame, sorted keys and groups, the codec's decoders agreeing,
//! ID-to-Position lookups), [`crate::Partition::check_invariants`] (the
//! S-O and O-S replicas hold the same triples) and
//! [`DeltaOverlay::check_invariants`]. Loading a snapshot runs the replica
//! check (enough to keep every later array access in bounds); the
//! `O(n log n)` cross-structure checks run here, on demand:
//!
//! * [`audit_store`] — every replica's own check, id ranges against the
//!   dictionary universe, replica-pair triple-multiset equality,
//!   partition/predicate alignment;
//! * [`audit_dictionary`] — id↔key bijectivity, term decode validity,
//!   encode/decode byte stability;
//! * [`audit_snapshot_roundtrip`] — serialize → load → re-serialize
//!   byte equality;
//! * [`audit_delta`] — delta-overlay invariants plus merged-view
//!   equivalence: the incremental `(CSR ∪ delta) − tombstones` view
//!   must equal, as a triple multiset, a store rebuilt from scratch
//!   out of the merged triples;
//! * [`audit_all`] — every base-store check (the engine adds
//!   [`audit_delta`] when its overlay is dirty).
//!
//! Every violation carries machine-readable coordinates (predicate,
//! replica order, position) so a corrupt store can be localized without
//! a debugger. The CLI surfaces this as `parj audit <snapshot>`.

use parj_dict::{Dictionary, Id};

use crate::{DeltaOverlay, Replica, SortOrder, StoreBuilder, TripleStore};

/// Where in the physical layout a violation was found.
///
/// Fields are filled from the outside in: a dictionary violation has
/// only `position`, a replica violation has `predicate`, `order` and,
/// when the check names one, `position`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coordinates {
    /// Predicate id of the offending partition.
    pub predicate: Option<Id>,
    /// Which replica of the partition.
    pub order: Option<SortOrder>,
    /// Key position, row index, or id — whichever the check names;
    /// the message spells out which.
    pub position: Option<usize>,
}

impl std::fmt::Display for Coordinates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut wrote = false;
        if let Some(p) = self.predicate {
            write!(f, "pred {p}")?;
            wrote = true;
        }
        if let Some(o) = self.order {
            if wrote {
                write!(f, " ")?;
            }
            write!(f, "{o}")?;
            wrote = true;
        }
        if let Some(pos) = self.position {
            if wrote {
                write!(f, " ")?;
            }
            write!(f, "@{pos}")?;
            wrote = true;
        }
        if !wrote {
            write!(f, "store")?;
        }
        Ok(())
    }
}

/// One failed invariant, with coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable machine-readable check name (e.g. `pair.multiset`).
    pub check: &'static str,
    /// Where the violation sits.
    pub at: Coordinates,
    /// Human-readable description of the mismatch.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.check, self.at, self.message)
    }
}

/// Outcome of an audit run: checks performed and violations found.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Number of individual invariant checks evaluated.
    pub checks_run: u64,
    /// Every violation found, in discovery order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.checks_run += other.checks_run;
        self.violations.extend(other.violations);
    }

    fn tick(&mut self) {
        self.checks_run += 1;
    }

    fn fail(&mut self, check: &'static str, at: Coordinates, message: String) {
        self.violations.push(Violation { check, at, message });
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            write!(f, "audit clean: {} checks passed", self.checks_run)
        } else {
            writeln!(
                f,
                "audit FAILED: {} violation(s) in {} checks",
                self.violations.len(),
                self.checks_run
            )?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

fn coords(predicate: Id, order: SortOrder, position: usize) -> Coordinates {
    Coordinates {
        predicate: Some(predicate),
        order: Some(order),
        position: Some(position),
    }
}

/// Audits one replica: its own invariants ([`Replica::check_invariants`])
/// and its ids against the dictionary universe.
fn audit_replica(
    report: &mut AuditReport,
    predicate: Id,
    order: SortOrder,
    r: &Replica,
    universe: usize,
) {
    let at = Coordinates {
        predicate: Some(predicate),
        order: Some(order),
        position: None,
    };
    report.tick();
    if let Err(e) = r.check_invariants() {
        report.fail("replica.invariants", at, e);
        // A replica that fails its own check may not even be walkable.
        return;
    }

    // Id ranges: keys are sorted so the last bounds them all; values
    // need a full scan (group sortedness only bounds within a group).
    report.tick();
    if let Some(&k) = r.keys().last() {
        if k as usize >= universe {
            report.fail(
                "ids.key_range",
                coords(predicate, order, r.num_keys() - 1),
                format!("key {k} outside dictionary universe {universe}"),
            );
        }
    }
    report.tick();
    if let Some((row, (_, v))) = r
        .iter_pairs()
        .enumerate()
        .find(|&(_, (_, v))| v as usize >= universe)
    {
        report.fail(
            "ids.value_range",
            coords(predicate, order, row),
            format!("value {v} at row {row} outside dictionary universe {universe}"),
        );
    }
}

/// Audits every partition of a store plus store-level alignment:
/// partitions indexed by predicate id, the partition count matching the
/// dictionary, per-partition SO/OS multiset agreement, and the cached
/// triple count.
pub fn audit_store(store: &TripleStore) -> AuditReport {
    let mut report = AuditReport::default();
    let universe = store.dict().num_resources();

    report.tick();
    if store.num_predicates() != store.dict().num_predicates() {
        report.fail(
            "store.partition_count",
            Coordinates::default(),
            format!(
                "{} partitions but {} dictionary predicates",
                store.num_predicates(),
                store.dict().num_predicates()
            ),
        );
    }

    let mut counted = 0usize;
    for (idx, part) in store.partitions().iter().enumerate() {
        report.tick();
        if part.predicate() as usize != idx {
            report.fail(
                "store.partition_alignment",
                Coordinates {
                    predicate: Some(part.predicate()),
                    order: None,
                    position: Some(idx),
                },
                format!("partition {idx} stores predicate {}", part.predicate()),
            );
        }
        let pred = part.predicate();
        for order in [SortOrder::SO, SortOrder::OS] {
            audit_replica(&mut report, pred, order, part.replica(order), universe);
        }

        // Replica-pair agreement: same cardinality, same triple multiset.
        report.tick();
        if let Some((row, in_so, in_os)) = part.first_disagreement() {
            let (so, os) = (part.replica(SortOrder::SO), part.replica(SortOrder::OS));
            let (check, position) = if so.num_triples() != os.num_triples() {
                ("pair.cardinality", None)
            } else {
                ("pair.multiset", Some(row))
            };
            report.fail(
                check,
                Coordinates {
                    predicate: Some(pred),
                    order: None,
                    position,
                },
                format!(
                    "SO has {} triples, OS has {}; at sorted row {row} SO has {in_so:?}, OS has {in_os:?}",
                    so.num_triples(),
                    os.num_triples()
                ),
            );
        }
        counted += part.num_triples();
    }

    report.tick();
    if counted != store.num_triples() {
        report.fail(
            "store.triple_count",
            Coordinates::default(),
            format!(
                "store reports {} triples, partitions hold {counted}",
                store.num_triples()
            ),
        );
    }
    report
}

/// Audits a dictionary: dense id coverage, id↔key bijectivity, term
/// decode validity, and encode/decode byte stability.
pub fn audit_dictionary(dict: &Dictionary) -> AuditReport {
    let mut report = AuditReport::default();

    // Resources: every id decodes, and its key maps back to the id.
    report.tick();
    for (id, term) in dict.resources() {
        match dict.resource_id(&term) {
            Some(back) if back == id => {}
            other => {
                report.fail(
                    "dict.resource_bijective",
                    Coordinates {
                        position: Some(id as usize),
                        ..Coordinates::default()
                    },
                    format!("resource id {id} decodes to {term:?} but maps back to {other:?}"),
                );
                break;
            }
        }
    }
    report.tick();
    if let Some(id) = (0..dict.num_resources() as Id).find(|&id| dict.decode_resource(id).is_err())
    {
        report.fail(
            "dict.resource_decodes",
            Coordinates {
                position: Some(id as usize),
                ..Coordinates::default()
            },
            format!(
                "resource id {id} fails to decode: {:?}",
                dict.decode_resource(id).err()
            ),
        );
    }

    // Predicates: same two checks on the second namespace.
    report.tick();
    for (id, term) in dict.predicates() {
        match dict.predicate_id(&term) {
            Some(back) if back == id => {}
            other => {
                report.fail(
                    "dict.predicate_bijective",
                    Coordinates {
                        position: Some(id as usize),
                        ..Coordinates::default()
                    },
                    format!("predicate id {id} decodes to {term:?} but maps back to {other:?}"),
                );
                break;
            }
        }
    }
    report.tick();
    if let Some(id) =
        (0..dict.num_predicates() as Id).find(|&id| dict.decode_predicate(id).is_err())
    {
        report.fail(
            "dict.predicate_decodes",
            Coordinates {
                position: Some(id as usize),
                ..Coordinates::default()
            },
            format!(
                "predicate id {id} fails to decode: {:?}",
                dict.decode_predicate(id).err()
            ),
        );
    }

    // Byte stability: encode → decode → encode is the identity on
    // bytes (snapshots depend on this for deterministic output).
    report.tick();
    let mut first = Vec::new();
    dict.encode_into(&mut first);
    match Dictionary::decode_from(&mut first.as_slice()) {
        Ok(back) => {
            let mut second = Vec::new();
            back.encode_into(&mut second);
            if first != second {
                report.fail(
                    "dict.byte_stable",
                    Coordinates::default(),
                    format!(
                        "re-encoded dictionary differs: {} vs {} bytes",
                        first.len(),
                        second.len()
                    ),
                );
            }
        }
        Err(e) => {
            report.fail(
                "dict.byte_stable",
                Coordinates::default(),
                format!("dictionary does not decode from its own encoding: {e}"),
            );
        }
    }
    report
}

/// Audits snapshot round-trip stability: serialize → load → serialize
/// must reproduce the bytes exactly.
pub fn audit_snapshot_roundtrip(store: &TripleStore) -> AuditReport {
    let mut report = AuditReport::default();
    report.tick();
    let first = store.to_snapshot_bytes();
    match TripleStore::from_snapshot_bytes(&first) {
        Ok(back) => {
            let second = back.to_snapshot_bytes();
            if first != second {
                let at = first
                    .iter()
                    .zip(second.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| first.len().min(second.len()));
                report.fail(
                    "snapshot.byte_stable",
                    Coordinates {
                        position: Some(at),
                        ..Coordinates::default()
                    },
                    format!(
                        "re-serialized snapshot diverges at byte {at} ({} vs {} bytes)",
                        first.len(),
                        second.len()
                    ),
                );
            }
        }
        Err(e) => {
            report.fail(
                "snapshot.loads",
                Coordinates::default(),
                format!("store does not load from its own snapshot: {e}"),
            );
        }
    }
    report
}

/// Audits a delta overlay against its base store.
///
/// Two layers of checks:
///
/// 1. **Overlay invariants** (`delta.invariants`): every resident run
///    is a well-formed partition, `add` runs are disjoint from the
///    effective base, tombstones are subsets of it, and the cached net
///    triple count is consistent — delegated to
///    [`DeltaOverlay::check_invariants`].
/// 2. **Merged-view equivalence**: the incremental
///    `(CSR ∪ delta) − tombstones` view must equal, predicate by
///    predicate and pair by pair, a store **rebuilt from scratch** out
///    of the merged triples (through the folded dictionary). This is
///    the oracle the whole incremental design answers to: probing the
///    base plus overlay must be indistinguishable from having rebuilt.
///    Any
///    mismatch carries [`Coordinates`] naming the predicate and the
///    first diverging sorted row.
pub fn audit_delta(base: &TripleStore, overlay: &DeltaOverlay) -> AuditReport {
    let mut report = AuditReport::default();

    report.tick();
    if let Err(e) = overlay.check_invariants(base) {
        report.fail("delta.invariants", Coordinates::default(), e);
        // With broken runs the merged iteration below is meaningless.
        return report;
    }

    // From-scratch oracle: fold the dictionary delta, re-add every
    // merged triple to a fresh builder, and build with the base's
    // options so replica shapes are comparable.
    let mut b = StoreBuilder::new();
    {
        let mut folded = base.dict().clone();
        overlay.dict().fold_into(&mut folded);
        *b.dict_mut() = folded;
    }
    for t in overlay.iter_merged_triples(base) {
        b.add_encoded(t);
    }
    let rebuilt = b.build_with(base.options());

    report.tick();
    let merged_preds = overlay.num_predicates(base);
    if rebuilt.num_predicates() != merged_preds {
        report.fail(
            "delta.predicate_count",
            Coordinates::default(),
            format!(
                "merged view spans {merged_preds} predicates, rebuild has {}",
                rebuilt.num_predicates()
            ),
        );
    }

    report.tick();
    if overlay.visible_triples(base) != rebuilt.num_triples() {
        report.fail(
            "delta.visible_count",
            Coordinates::default(),
            format!(
                "overlay reports {} visible triples, rebuild holds {}",
                overlay.visible_triples(base),
                rebuilt.num_triples()
            ),
        );
    }

    for pred in 0..merged_preds as Id {
        let merged = overlay.merged_so_pairs(base, pred);

        // The merged iteration must itself be strictly sorted — the
        // executor's two-pointer probes rely on it, and it is what
        // makes "multiset equal" checkable as "pairwise equal".
        report.tick();
        if let Some(i) = merged.windows(2).position(|w| w[0] >= w[1]) {
            report.fail(
                "delta.merged_sorted",
                coords(pred, SortOrder::SO, i + 1),
                format!(
                    "merged pairs not strictly increasing: {:?} !< {:?}",
                    merged[i],
                    merged[i + 1]
                ),
            );
            continue;
        }

        let from_rebuild: Vec<(Id, Id)> = rebuilt
            .replica(pred, SortOrder::SO)
            .map(|r| r.iter_pairs().collect())
            .unwrap_or_default();
        report.tick();
        if merged.len() != from_rebuild.len() {
            report.fail(
                "delta.merged_cardinality",
                Coordinates {
                    predicate: Some(pred),
                    order: None,
                    position: None,
                },
                format!(
                    "merged view has {} pairs, rebuild has {}",
                    merged.len(),
                    from_rebuild.len()
                ),
            );
        } else if let Some(row) = (0..merged.len()).find(|&i| merged[i] != from_rebuild[i]) {
            report.fail(
                "delta.merged_multiset",
                coords(pred, SortOrder::SO, row),
                format!(
                    "merged view and rebuild disagree at sorted row {row}: {:?} vs {:?}",
                    merged[row], from_rebuild[row]
                ),
            );
        }
    }

    report
}

/// Runs every audit — store structure, dictionary, snapshot round-trip.
pub fn audit_all(store: &TripleStore) -> AuditReport {
    let mut report = audit_store(store);
    report.merge(audit_dictionary(store.dict()));
    report.merge(audit_snapshot_roundtrip(store));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_dict::Term;

    fn store() -> TripleStore {
        let mut b = StoreBuilder::new();
        for i in 0..40u32 {
            b.add_term_triple(
                &Term::iri(format!("http://e/s{}", i % 7)),
                &Term::iri(format!("http://e/p{}", i % 3)),
                &Term::iri(format!("http://e/o{}", i % 11)),
            );
        }
        b.build()
    }

    #[test]
    fn clean_store_audits_clean() {
        let s = store();
        let report = audit_all(&s);
        assert!(report.is_clean(), "{report}");
        assert!(report.checks_run > 10);
        assert!(report.to_string().contains("audit clean"));
    }

    #[test]
    fn empty_store_audits_clean() {
        let s = StoreBuilder::new().build();
        assert!(audit_all(&s).is_clean());
    }

    /// Corrupts the values of one replica of `store` in place, then
    /// checks that the replica's own check fails and that the audit
    /// reports it at the replica's coordinates.
    fn assert_corruption_flagged(mut store: TripleStore, pred: Id, order: SortOrder) {
        let r = store.partitions_mut()[pred as usize].replica_mut(order);
        r.corrupt_values();
        assert!(r.check_invariants().is_err());
        let report = audit_store(&store);
        let v = report
            .violations
            .iter()
            .find(|v| v.check == "replica.invariants")
            .unwrap_or_else(|| panic!("{report}"));
        assert_eq!(v.at.predicate, Some(pred));
        assert_eq!(v.at.order, Some(order));
    }

    #[test]
    fn compressed_store_audits_clean_and_checks_codec() {
        let mut b = StoreBuilder::new();
        for i in 0..3000u32 {
            b.add_term_triple(
                &Term::iri(format!("http://e/s{}", i % 4)),
                &Term::iri("http://e/p"),
                &Term::iri(format!("http://e/o{i}")),
            );
        }
        let mut s = b.build();
        assert!(s.compress_values(32) > 0);
        let report = audit_all(&s);
        assert!(report.is_clean(), "{report}");

        // A flipped bit in a packed block decodes wrongly: the S-O
        // replica's four runs of 750 values each span several blocks.
        assert!(s.replica(0, SortOrder::SO).unwrap().is_compressed());
        assert_corruption_flagged(s, 0, SortOrder::SO);
    }

    #[test]
    fn unsorted_raw_group_is_flagged() {
        let s = store();
        assert!(!s.replica(1, SortOrder::OS).unwrap().is_compressed());
        assert_corruption_flagged(s, 1, SortOrder::OS);
    }

    #[test]
    fn out_of_universe_value_is_located() {
        // Forge a snapshot whose last OS value is a huge id: every
        // per-replica invariant still holds (the group stays sorted),
        // so the loader accepts it — the deep audit must localize it.
        let s = store();
        let mut bytes = s.to_snapshot_bytes();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        let corrupt = TripleStore::from_snapshot_bytes(&bytes).expect("loads structurally");
        let report = audit_store(&corrupt);
        assert!(!report.is_clean());
        let checks: Vec<&str> = report.violations.iter().map(|v| v.check).collect();
        assert!(checks.contains(&"ids.value_range"), "{report}");
        assert!(checks.contains(&"pair.multiset"), "{report}");
        let v = report
            .violations
            .iter()
            .find(|v| v.check == "ids.value_range")
            .unwrap();
        let last_pred = (corrupt.num_predicates() - 1) as Id;
        assert_eq!(v.at.predicate, Some(last_pred));
        assert_eq!(v.at.order, Some(SortOrder::OS));
        assert!(v.at.position.is_some());
    }

    #[test]
    fn dictionary_audit_is_clean_and_counts() {
        let s = store();
        let report = audit_dictionary(s.dict());
        assert!(report.is_clean(), "{report}");
        assert!(report.checks_run >= 5);
    }

    #[test]
    fn clean_delta_audits_clean() {
        let s = store();
        let mut ov = DeltaOverlay::new(&s);
        // Tombstone one stored pair and insert one fresh pair on the
        // first predicate.
        let (ds, dobj) = s
            .replica(0, SortOrder::SO)
            .unwrap()
            .iter_pairs()
            .next()
            .unwrap();
        let universe = s.dict().num_resources() as Id;
        let part = s.partition(0).unwrap();
        let fresh = (0..universe)
            .flat_map(|a| (0..universe).map(move |b| (a, b)))
            .find(|&(a, b)| !part.contains(a, b))
            .unwrap();
        ov.apply_pred(&s, 0, &[fresh], &[(ds, dobj)]);
        let report = audit_delta(&s, &ov);
        assert!(report.is_clean(), "{report}");
        assert!(report.checks_run >= 3);

        // Compaction folds the runs into a replacement partition; the
        // merged view must still match the from-scratch rebuild.
        ov.compact_pred(&s, 0);
        let report = audit_delta(&s, &ov);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn empty_overlay_audits_clean() {
        let s = store();
        let ov = DeltaOverlay::new(&s);
        assert!(audit_delta(&s, &ov).is_clean());
    }

    #[test]
    fn overlay_against_the_wrong_base_is_flagged() {
        let s = store();
        let mut ov = DeltaOverlay::new(&s);
        let (ds, dobj) = s
            .replica(0, SortOrder::SO)
            .unwrap()
            .iter_pairs()
            .next()
            .unwrap();
        ov.apply_pred(&s, 0, &[], &[(ds, dobj)]);
        assert!(audit_delta(&s, &ov).is_clean());

        // Audit the same overlay against a base that never held the
        // tombstoned triple: the subset invariant must localize it.
        let other = StoreBuilder::new().build();
        let report = audit_delta(&other, &ov);
        assert!(!report.is_clean());
        assert_eq!(report.violations[0].check, "delta.invariants");
        assert!(
            report.violations[0].message.contains("tombstone"),
            "{report}"
        );
    }

    #[test]
    fn report_merge_accumulates() {
        let s = store();
        let mut a = audit_store(&s);
        let b = audit_dictionary(s.dict());
        let total = a.checks_run + b.checks_run;
        a.merge(b);
        assert_eq!(a.checks_run, total);
        assert!(a.is_clean());
    }
}
