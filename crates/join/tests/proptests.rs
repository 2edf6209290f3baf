//! Property tests for the adaptive search and the executor.

use proptest::prelude::*;

use parj_dict::{Id, Term};
use parj_join::{
    adaptive_search, binary_search_cursor, execute_collect, sequential_search, Atom,
    CalibrationResult, ExecOptions, ExecSource, PhysicalPlan, PlanStep, ProbeStrategy,
    SearchStats, ThresholdTable, WorkerPool,
};
use parj_store::{IdPosIndex, SortOrder, StoreBuilder};
use std::sync::{Arc, OnceLock};

/// The pool every executor case submits to: as many workers as the
/// widest `threads` rung can seat.
fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(4))
}

fn sorted_unique(mut xs: Vec<Id>) -> Vec<Id> {
    xs.sort_unstable();
    xs.dedup();
    xs
}

proptest! {
    /// Every strategy, from any cursor position, with any threshold,
    /// returns exactly what `slice::binary_search` returns.
    #[test]
    fn search_agrees_with_std(
        keys in proptest::collection::vec(0u32..10_000, 0..300).prop_map(sorted_unique),
        probes in proptest::collection::vec(0u32..10_000, 1..100),
        start_cursor in 0usize..300,
        threshold in -1i64..5_000,
    ) {
        let universe = keys.last().map_or(1, |&m| m as usize + 1);
        let idx = IdPosIndex::build(&keys, universe, 64);
        for strategy in [
            ProbeStrategy::AlwaysBinary,
            ProbeStrategy::AdaptiveBinary,
            ProbeStrategy::AlwaysIndex,
            ProbeStrategy::AdaptiveIndex,
            ProbeStrategy::AlwaysSequential,
        ] {
            let mut stats = SearchStats::default();
            // Cursors always originate inside the array in real use; an
            // index miss deliberately leaves the cursor untouched, so an
            // injected out-of-range start would persist.
            let mut cursor = start_cursor.min(keys.len().saturating_sub(1));
            for &p in &probes {
                let got = adaptive_search(
                    &keys, p, &mut cursor, threshold, strategy, Some(&idx), &mut stats,
                );
                prop_assert_eq!(got, keys.binary_search(&p).ok(),
                    "{} probe {} cursor {}", strategy, p, cursor);
                if !keys.is_empty() {
                    prop_assert!(cursor < keys.len(), "cursor out of bounds");
                }
            }
        }
    }

    /// Cursor state never affects correctness of the primitives, and the
    /// stats tally what actually ran.
    #[test]
    fn primitives_and_stats(
        keys in proptest::collection::vec(0u32..2_000, 1..200).prop_map(sorted_unique),
        probes in proptest::collection::vec(0u32..2_000, 1..50),
    ) {
        prop_assume!(!keys.is_empty());
        let mut stats = SearchStats::default();
        let mut cursor = 0;
        for &p in &probes {
            prop_assert_eq!(
                sequential_search(&keys, p, &mut cursor, &mut stats),
                keys.binary_search(&p).ok()
            );
        }
        prop_assert_eq!(stats.sequential_searches, probes.len() as u64);
        prop_assert_eq!(stats.binary_searches, 0);

        let mut stats = SearchStats::default();
        let mut cursor = 0;
        for &p in &probes {
            prop_assert_eq!(
                binary_search_cursor(&keys, p, &mut cursor, &mut stats),
                keys.binary_search(&p).ok()
            );
        }
        prop_assert_eq!(stats.binary_searches, probes.len() as u64);
        // Binary search examines at most ceil(log2(n))+1 elements.
        let per_probe_cap = (keys.len().ilog2() + 2) as u64;
        prop_assert!(stats.binary_steps <= per_probe_cap * probes.len() as u64);
    }

}

proptest! {
    /// A two-step join over random data returns the same multiset under
    /// every strategy / thread count / morsel granularity, equal to a
    /// nested-loop oracle computed here. Not a `#[test]` itself: the
    /// wrapper below also checks the sweep really ran in parallel.
    fn executor_cases(
        edges_a in proptest::collection::vec((0u32..30, 0u32..30), 1..80),
        edges_b in proptest::collection::vec((0u32..30, 0u32..30), 1..80),
        threads in 1usize..6,
        morsel_size in 1usize..6,
    ) {
        let mut b = StoreBuilder::new();
        // Seed resources densely so ids == raw numbers.
        for r in 0..30u32 {
            b.dict_mut().encode_resource(&Term::iri(format!("r{r}")));
        }
        for p in ["pa", "pb"] {
            b.dict_mut().encode_predicate(&Term::iri(p));
        }
        for &(s, o) in &edges_a {
            b.add_encoded(parj_dict::EncodedTriple::new(s, 0, o));
        }
        for &(s, o) in &edges_b {
            b.add_encoded(parj_dict::EncodedTriple::new(s, 1, o));
        }
        let store = Arc::new(b.build());
        let thresholds = Arc::new(ThresholdTable::from_calibration(
            &store,
            &CalibrationResult::paper_defaults(),
        ));
        let src = ExecSource { store: &store, delta: None, thresholds: &thresholds };

        // ?x pa ?y . ?y pb ?z  (object-subject chain)
        let plan = PhysicalPlan::new(
            vec![
                PlanStep { predicate: 0, order: SortOrder::SO, key: Atom::Var(0), value: Atom::Var(1) },
                PlanStep { predicate: 1, order: SortOrder::SO, key: Atom::Var(1), value: Atom::Var(2) },
            ],
            3,
            vec![0, 1, 2],
        ).unwrap();

        // Oracle (set semantics on each predicate, matching the store).
        let mut ea = edges_a.clone();
        ea.sort_unstable();
        ea.dedup();
        let mut eb = edges_b.clone();
        eb.sort_unstable();
        eb.dedup();
        let mut expected: Vec<Vec<Id>> = Vec::new();
        for &(x, y) in &ea {
            for &(y2, z) in &eb {
                if y == y2 {
                    expected.push(vec![x, y, z]);
                }
            }
        }
        expected.sort_unstable();

        let mut baseline: Option<Vec<Vec<Id>>> = None;
        for strategy in ProbeStrategy::TABLE5 {
            let opts = ExecOptions::builder()
                .threads(threads)
                .morsel_size(morsel_size)
                .strategy(strategy)
                .build()
                .expect("valid options");
            let (batch, _) = execute_collect(src, &plan, &opts, Some(pool())).expect("runs");
            // Determinism: the *unsorted* row order must already be
            // identical across strategies (and, by the morsel-order
            // merge, across thread counts — the driver-domain order).
            let rows = batch.into_rows();
            match &baseline {
                None => baseline = Some(rows.clone()),
                Some(b) => prop_assert_eq!(&rows, b,
                    "row order diverged under strategy {} threads {} morsel {}",
                    strategy, threads, morsel_size),
            }
            let mut sorted = rows;
            sorted.sort_unstable();
            prop_assert_eq!(&sorted, &expected, "strategy {} threads {} morsel {}",
                strategy, threads, morsel_size);
        }
    }
}

#[test]
fn executor_invariant_under_configuration() {
    executor_cases();
    let stats = pool().stats();
    assert!(
        stats.helper_joins > 0,
        "no pool helper ever joined a case ({stats:?}): the threads > 1 rungs ran inline"
    );
}
