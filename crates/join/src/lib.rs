//! # parj-join — the PARJ adaptive join and parallel executor
//!
//! This crate is the paper's primary contribution (Bilidas & Koubarakis,
//! EDBT 2019, §3–4): pipelined left-deep joins over the vertically
//! partitioned store of `parj-store`, where every probe of a replica's
//! sorted keys array **adaptively** chooses between
//!
//! * **sequential search** continuing from a per-(worker, step) cursor —
//!   merge-join-like behaviour that exploits the full *or partial*
//!   ordering RDF data exhibits (Example 4.1 of the paper), and
//! * **binary search** over the whole array (or an **ID-to-Position
//!   lookup**, §4.2) — index-nested-loop behaviour for selective probes,
//!
//! using Algorithm 1: one subtraction and one comparison of the *value
//! distance* `|arr[cursor] − value|` against a per-replica threshold.
//! The thresholds come from the calibration micro-benchmark of
//! Algorithm 2 ([`calibrate`]).
//!
//! Parallelism follows §3: the driver relation of the left-deep plan (or
//! the value vector of a constant key, Example 3.2) is split into
//! fixed-size **morsels**; workers draw morsel indexes from one atomic
//! cursor and run the **entire pipeline** on read-only shared data — no
//! exchange, no rehashing, no synchronization, no graph partitioning.
//! There is one entry point, [`execute`]: the calling thread always
//! participates, and when it is handed an engine's persistent
//! [`WorkerPool`] idle workers join it on the same cursor — no threads
//! are created per query. Per-morsel sinks are merged in morsel order,
//! so results are byte-identical regardless of thread count, morsel
//! size, or interleaving.
//!
//! ```
//! use parj_dict::Term;
//! use parj_store::{SortOrder, StoreBuilder};
//! use parj_join::{
//!     execute_count, Atom, CalibrationResult, ExecOptions, ExecSource, PhysicalPlan, PlanStep,
//!     ThresholdTable,
//! };
//! use std::sync::Arc;
//!
//! // ?x teaches ?z . ?x worksFor ?y   (Example 3.1 of the paper)
//! let mut b = StoreBuilder::new();
//! for (s, p, o) in [("A", "teaches", "Math"), ("B", "teaches", "Chem"),
//!                   ("A", "worksFor", "U1"), ("B", "worksFor", "U2")] {
//!     b.add_term_triple(&Term::iri(s), &Term::iri(p), &Term::iri(o));
//! }
//! let store = Arc::new(b.build());
//! let thresholds = Arc::new(ThresholdTable::from_calibration(
//!     &store,
//!     &CalibrationResult::paper_defaults(),
//! ));
//! let teaches = store.dict().predicate_id(&Term::iri("teaches")).unwrap();
//! let works_for = store.dict().predicate_id(&Term::iri("worksFor")).unwrap();
//! let plan = PhysicalPlan::new(
//!     vec![
//!         PlanStep { predicate: teaches, order: SortOrder::SO,
//!                    key: Atom::Var(0), value: Atom::Var(2) },
//!         PlanStep { predicate: works_for, order: SortOrder::SO,
//!                    key: Atom::Var(0), value: Atom::Var(1) },
//!     ],
//!     3,
//!     vec![0, 1, 2],
//! ).unwrap();
//! let src = ExecSource { store: &store, delta: None, thresholds: &thresholds };
//! // No pool: the whole pipeline runs inline on this thread.
//! let (count, _stats) = execute_count(src, &plan, &ExecOptions::default(), None).unwrap();
//! assert_eq!(count, 2);
//! ```
//!
//! ## Query lifecycle
//!
//! Every execution can carry a [`QueryGuard`] ([`ExecOptions::guard`])
//! enforcing cooperative cancellation, a wall-clock deadline, and a
//! result-row budget; workers poll it every [`GUARD_BATCH`] bindings.
//! Worker panics are contained with `catch_unwind` and surface as
//! [`ExecFailureKind::WorkerPanicked`] instead of aborting the process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod exec;
mod guard;
mod plan;
mod pool;
mod rows;
mod search;
mod stats;
mod threshold;

pub use calibrate::{calibrate, CalibrationConfig, CalibrationResult};
pub use exec::{
    execute, execute_collect, execute_count, morsel_loads, CollectSink, CountSink, ExecFailure,
    ExecFailureKind, ExecOptions, ExecOptionsBuilder, ExecOptionsError, ExecRecord, ExecResult,
    ExecSource, Recorder, Sink, DEFAULT_MORSEL_SIZE,
};
pub use pool::{Participant, PoolStats, WorkerPool};
pub use guard::{CancelToken, GuardTrip, QueryGuard, GUARD_BATCH};
pub use plan::{Atom, PhysicalPlan, PlanError, PlanStep, VarId};
pub use rows::RowBatch;
pub use search::{adaptive_search, binary_search_cursor, sequential_search, ProbeStrategy};
pub use stats::SearchStats;
pub use threshold::{ReplicaThresholds, ThresholdTable};
